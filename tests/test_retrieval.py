import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchsmooth.errors import DimensionError, ValidationError
from patchsmooth.retrieval import (
    FeatureMap,
    FeatureVector,
    RetrievalIndex,
    RetrievedSet,
    flatten_normalize,
    top_m,
)


def fmap(values, ident=""):
    return FeatureMap(np.asarray(values, dtype=np.float64), identifier=ident)


def brute_force_top_m(query, index, m):
    """Oracle: full sort of all dot products, ties by insertion order."""
    scored = [
        (i, ident, float(np.dot(index.matrix[i], query.values)))
        for i, ident in enumerate(index.ids)
    ]
    scored.sort(key=lambda t: (-t[2], t[0]))
    return [(ident, score) for _, ident, score in scored[:m]]


class TestFlattenNormalize:
    def test_derived_example(self):
        out = flatten_normalize(fmap([[[3.0, 4.0]]]))
        np.testing.assert_allclose(out.values, [0.6, 0.8])

    def test_unit_flat_map_unchanged(self):
        out = flatten_normalize(fmap([[[0.6]], [[0.8]]]))
        np.testing.assert_allclose(out.values, [0.6, 0.8], atol=1e-15)

    def test_sign_preserved(self):
        out = flatten_normalize(fmap([[[-5.0]]]))
        np.testing.assert_array_equal(out.values, [-1.0])

    def test_channel_major_row_major_order(self):
        # shape (2, 2, 2): channel 0 first, then rows, then columns
        values = np.arange(8.0).reshape(2, 2, 2)
        out = flatten_normalize(fmap(values))
        expected = np.arange(8.0)
        np.testing.assert_allclose(out.values, expected / np.linalg.norm(expected))

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            flatten_normalize(fmap(np.zeros((1, 2, 2))))

    @given(st.integers(0, 10**6), st.floats(1e-6, 1e6))
    @settings(max_examples=100)
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(3, 4, 2))
        a = flatten_normalize(fmap(values))
        b = flatten_normalize(fmap(values * scale))
        assert np.max(np.abs(a.values - b.values)) < 1e-9


class TestTopM:
    def make_index(self):
        return RetrievalIndex(
            [
                FeatureVector(np.array([1.0, 0.0]), "A"),
                FeatureVector(np.array([0.0, 1.0]), "B"),
                FeatureVector(np.array([0.6, 0.8]), "C"),
            ]
        )

    def test_derived_example(self):
        got = top_m(FeatureVector(np.array([1.0, 0.0]), "q"), self.make_index(), m=2)
        assert got.ids == ("A", "C")
        assert got.items[0][1] == pytest.approx(1.0)
        assert got.items[1][1] == pytest.approx(0.6)

    def test_self_retrieval(self):
        got = top_m(FeatureVector(np.array([0.6, 0.8]), "q"), self.make_index(), m=1)
        assert got.ids == ("C",)
        assert got.items[0][1] == pytest.approx(1.0)

    def test_m_larger_than_index_returns_all_sorted(self):
        got = top_m(FeatureVector(np.array([1.0, 0.0]), "q"), self.make_index(), m=10)
        assert got.ids == ("A", "C", "B")

    def test_tie_break_by_insertion_order(self):
        index = RetrievalIndex(
            [
                FeatureVector(np.array([0.0, 1.0]), "later"),
                FeatureVector(np.array([0.0, 1.0]), "earlier-no"),
            ]
        )
        got = top_m(FeatureVector(np.array([0.0, 1.0]), "q"), index, m=1)
        assert got.ids == ("later",)

    def test_empty_index_rejected(self):
        with pytest.raises(ValidationError):
            top_m(FeatureVector(np.array([1.0, 0.0]), "q"), RetrievalIndex([]), m=1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            top_m(FeatureVector(np.array([1.0, 0.0, 0.0]) / 1.0, "q"), self.make_index(), m=1)

    def test_similarity_within_unit_interval(self):
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(50, 16))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        index = RetrievalIndex([FeatureVector(v, str(i)) for i, v in enumerate(vectors)])
        q = FeatureVector(vectors[0], "q")
        got = top_m(q, index, m=50)
        for _, score in got.items:
            assert -1.0 - 1e-12 <= score <= 1.0 + 1e-12

    @given(st.integers(0, 10**6), st.integers(1, 60), st.integers(1, 16), st.integers(1, 70))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_oracle(self, seed, n, dim, m):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        # inject exact duplicates to exercise tie-breaking
        if n >= 3:
            vectors[n // 2] = vectors[0]
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        index = RetrievalIndex([FeatureVector(v, f"item{i:03d}") for i, v in enumerate(vectors)])
        query = FeatureVector(vectors[-1], "q")
        got = top_m(query, index, m=m)
        expected = brute_force_top_m(query, index, m)
        assert list(got.ids) == [ident for ident, _ in expected]

    @pytest.mark.parametrize("n, dim", [(1, 1), (7, 3), (64, 257), (300, 4096), (33, 1000)])
    def test_scores_are_per_row_dots_bitwise(self, n, dim):
        rng = np.random.default_rng([n, dim])
        vectors = rng.normal(size=(n, dim)).astype(np.float32).astype(np.float64)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        if n >= 7:
            # copies of the query's row at three positions tie at the top
            vectors[[2, n // 2, n - 1]] = vectors[n // 3]
        index = RetrievalIndex([FeatureVector(v, f"item{i:04d}") for i, v in enumerate(vectors)])
        query = FeatureVector(vectors[n // 3], "q")
        got = top_m(query, index, m=n)
        dots = {ident: float(np.dot(row, query.values)) for ident, row in zip(index.ids, index.matrix)}
        assert [score for _, score in got.items] == [dots[ident] for ident in got.ids]
        if n >= 7:
            tied = sorted(f"item{i:04d}" for i in {2, n // 3, n // 2, n - 1})
            assert list(got.ids[:len(tied)]) == tied


class TestRetrievedSetInvariants:
    def test_rejects_increasing_scores(self):
        with pytest.raises(ValidationError):
            RetrievedSet((("a", 0.1), ("b", 0.5)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            RetrievedSet((("a", 0.5), ("a", 0.1)))
