import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_force_top_m
from patchsmooth import retrieval
from patchsmooth.errors import ConfigError, DimensionError, ValidationError
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


def bits(scores):
    """Scores as their float64 bit patterns, so -0.0 != 0.0."""
    return np.asarray(scores, dtype=np.float64).view(np.int64).tolist()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_are_the_old_formula_bitwise(self, dtype):
        values = np.random.default_rng(3).normal(size=(4, 5, 6)).astype(dtype)
        feature_map = FeatureMap(values)
        assert feature_map.values.dtype == dtype
        flat64 = values.astype(np.float64).ravel()
        got = flatten_normalize(feature_map).values
        assert got.dtype == np.float64
        assert bits(got) == bits(flat64 / np.linalg.norm(flat64))

    def test_integer_map_becomes_float64(self):
        assert FeatureMap(np.ones((1, 2, 2), dtype=np.int32)).values.dtype == np.float64

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            flatten_normalize(fmap(np.zeros((1, 2, 2))))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_rejected_by_its_norm(self, entry):
        values = np.ones((2, 2, 2), dtype=np.float32)
        values[1, 0, 1] = entry
        feature_map = FeatureMap(values, identifier="bad")
        with pytest.raises(ValidationError, match="'bad'"):
            flatten_normalize(feature_map)

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

    @pytest.mark.parametrize("m", [0, -2])
    def test_m_below_one_is_a_config_error(self, m):
        with pytest.raises(ConfigError, match="m must be >= 1"):
            top_m(FeatureVector(np.array([1.0, 0.0]), "q"), self.make_index(), m=m)

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
        entries = [FeatureVector(v, f"item{i:03d}") for i, v in enumerate(vectors)]
        query = FeatureVector(vectors[-1], "q")
        got = top_m(query, RetrievalIndex(entries), m=m)
        expected = brute_force_top_m(query, entries, m)
        assert list(got.ids) == [ident for ident, _ in expected]

    @pytest.mark.parametrize("n, dim", [(1, 1), (7, 3), (64, 257), (300, 4096), (33, 1000)])
    def test_scores_are_per_row_dots_bitwise(self, n, dim):
        rng = np.random.default_rng([n, dim])
        vectors = rng.normal(size=(n, dim)).astype(np.float32).astype(np.float64)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        if n >= 7:
            # copies of the query's row at three positions tie at the top
            vectors[[2, n // 2, n - 1]] = vectors[n // 3]
        entries = [FeatureVector(v, f"item{i:04d}") for i, v in enumerate(vectors)]
        query = FeatureVector(vectors[n // 3], "q")
        got = top_m(query, RetrievalIndex(entries), m=n)
        dots = {e.identifier: float(np.dot(e.values, query.values)) for e in entries}
        assert [score for _, score in got.items] == [dots[ident] for ident in got.ids]
        if n >= 7:
            tied = sorted(f"item{i:04d}" for i in {2, n // 3, n // 2, n - 1})
            assert list(got.ids[:len(tied)]) == tied


def spy_exact_scores(monkeypatch, calls):
    """Record how many rows each call of the exact kernel scores."""
    exact = retrieval._exact_scores
    monkeypatch.setattr(retrieval, "_exact_scores",
                        lambda index, rows, q: calls.append(len(rows)) or exact(index, rows, q))


def screened_instance(seed, n, dim, m, narrow, padded, near_tie):
    """Unit rows and a query, with duplicated rows, rows zero past a cut,
    and (``near_tie``) a row whose score is 1 ulp from the m-th one."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n + 1, dim))
    if narrow:  # float32-derived rows, as read from a PNCL file
        vectors = vectors.astype(np.float32).astype(np.float64)
    if padded:
        vectors[::2, max(1, dim // 2):] = 0.0
    if n >= 4:
        vectors[rng.integers(0, n, size=n // 3)] = vectors[rng.integers(0, n, size=n // 3)]
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    query, vectors = vectors[-1], vectors[:-1]
    if near_tie:
        dots = np.array([np.dot(v, query) for v in vectors])
        mth = np.argsort(-dots, kind="stable")[min(m, n) - 1]
        j = int(np.argmax(np.abs(query)))
        for direction in (np.inf, -np.inf):
            row = vectors[mth].copy()
            row[j] = np.nextafter(row[j], direction)
            vectors = np.insert(vectors, rng.integers(0, len(vectors) + 1), row, axis=0)
    return [FeatureVector(v, f"item{i:03d}") for i, v in enumerate(vectors)], FeatureVector(query, "q")


class TestScreen:
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 300), st.integers(1, 50),
           st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_full_stable_sort_bitwise(self, seed, n, dim, m, narrow, padded, near_tie):
        entries, query = screened_instance(seed, n, dim, m, narrow, padded, near_tie)
        got = top_m(query, RetrievalIndex(entries), m)
        expected = brute_force_top_m(query, entries, m)
        assert list(got.ids) == [ident for ident, _ in expected]
        assert bits([s for _, s in got.items]) == bits([s for _, s in expected])

    @pytest.mark.parametrize("fault", ["no-band", "zero-band", "shifted-score"])
    def test_escape_takes_the_dense_path(self, monkeypatch, fault):
        entries, query = screened_instance(3, 200, 96, 8, True, False, True)
        index = RetrievalIndex(entries)
        want = top_m(query, index, 8)
        calls = []
        spy_exact_scores(monkeypatch, calls)
        if fault == "shifted-score":
            # the least similar row screens as the query itself: it survives,
            # and its exact score is far outside its band
            worst = index.ids.index(brute_force_top_m(query, entries, len(entries))[-1][0])
            screen = index._screen.copy()
            screen[worst] = query.values
            index._screen = screen
        else:
            monkeypatch.setattr(retrieval, "_dot_band",
                                lambda dim: None if fault == "no-band" else 0.0)
        got = top_m(query, index, 8)
        assert calls[-1] == len(entries)
        assert got.ids == want.ids
        assert bits([s for _, s in got.items]) == bits([s for _, s in want.items])

    def test_screen_keeps_about_m_rows(self, monkeypatch):
        entries, query = screened_instance(5, 500, 512, 8, True, False, False)
        calls = []
        spy_exact_scores(monkeypatch, calls)
        top_m(query, RetrievalIndex(entries), 8)
        assert len(calls) == 1 and 8 <= calls[0] < 50

    def test_float32_index_holds_one_matrix_and_the_norms(self):
        n, dim = 40, 3000
        rows = np.random.default_rng(1).normal(size=(n, dim)).astype(np.float32)
        entries = [flatten_normalize(FeatureMap(r.reshape(3, 1, -1), f"item{i:03d}"))
                   for i, r in enumerate(rows)]
        tracemalloc.start()
        try:
            index = RetrievalIndex(entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 matrix, and no float64 (N, dim) temporary beside it
        assert peak < 1.5 * rows.nbytes
        attrs = vars(index).values()
        stacked = {id(a): a for a in attrs if isinstance(a, np.ndarray) and a.ndim == 2}
        assert len(stacked) == 1
        (matrix,) = stacked.values()
        assert matrix.dtype == np.float32 and matrix.shape == (n, dim)
        assert not matrix.flags.writeable
        np.testing.assert_array_equal(matrix, rows)
        (norms,) = [a for a in attrs if isinstance(a, np.ndarray) and a.ndim == 1]
        assert norms.dtype == np.float64 and not norms.flags.writeable
        assert norms.tolist() == [e.norm for e in entries]
        # no row views: the tuples it holds are the ids
        assert [a for a in attrs if isinstance(a, (tuple, list))] == [index.ids]

    @pytest.mark.parametrize("case", ["f32-1e-30", "f32-1e30", "f32-overflow", "f32-subnormal",
                                      "f64-beyond-f32"])
    def test_scaled_rows_equal_full_stable_sort_bitwise(self, monkeypatch, case):
        rng = np.random.default_rng(list(case.encode()))
        n, dim, m = 60, 48, 6
        rows = np.clip(rng.normal(size=(n, dim)), -3.0, 3.0)
        scale, dtype = {"f32-1e-30": (1e-30, np.float32), "f32-1e30": (1e30, np.float32),
                        "f32-overflow": (1e38, np.float32), "f32-subnormal": (1.0, np.float32),
                        "f64-beyond-f32": (1e60, np.float64)}[case]
        if case == "f32-subnormal":
            # every third row: small multiples of the least float32 subnormal
            rows[::3] = rng.integers(-8, 9, size=rows[::3].shape) * 2.0 ** -149
            rows[::3, 0] = 9 * 2.0 ** -149
        rows = (rows * scale).astype(dtype)
        rows[n // 2] = rows[0]  # an exact tie
        entries = [flatten_normalize(FeatureMap(r.reshape(1, 1, -1), f"item{i:03d}"))
                   for i, r in enumerate(rows)]
        query = flatten_normalize(FeatureMap(rows[7].reshape(1, 1, -1), "q"))
        index = RetrievalIndex(entries)
        with np.errstate(over="ignore", invalid="ignore"):
            screened = index._screen @ query.values.astype(np.float32)
        # the overflow cases reach the infinite band
        assert np.isfinite(screened).all() == (case not in ("f32-overflow", "f64-beyond-f32"))
        calls = []
        spy_exact_scores(monkeypatch, calls)
        got = top_m(query, index, m)
        expected = brute_force_top_m(query, entries, m)
        assert list(got.ids) == [ident for ident, _ in expected]
        assert bits([s for _, s in got.items]) == bits([s for _, s in expected])
        assert len(calls) == 1  # every survivor stayed in its band: no dense path

    def test_band_holds_for_every_row_at_the_benchmark_shape(self):
        # dim 4,096 and 1,000 float32 rows, as the vqgan-query index holds
        # them, with rows of norm near 1e-30 and 1e30, subnormal rows and
        # near-duplicate rows
        n, dim = 1000, 4096
        rng = np.random.default_rng(4096)
        rows = rng.standard_normal((n, dim), dtype=np.float32)
        picked = rng.permutation(n)
        small, large, subnormal, near = np.split(picked[:4 * 40], 4)
        rows[small] *= np.float32(1e-30 / 64)
        rows[large] *= np.float32(1e30 / 64)
        rows[subnormal] = rng.integers(-8, 9, size=(len(subnormal), dim)) * np.float32(2.0 ** -149)
        rows[subnormal, 0] = np.float32(9 * 2.0 ** -149)
        for target in near:  # a copy of another row, one entry 1 ulp away
            rows[target] = rows[rng.integers(n)]
            j = rng.integers(dim)
            rows[target, j] = np.nextafter(rows[target, j], np.float32(np.inf))
        entries = [FeatureVector(row, f"item{i:04d}") for i, row in enumerate(rows)]
        index = RetrievalIndex(entries)
        q = flatten_normalize(FeatureMap(rows[picked[-1]].reshape(16, 16, 16), "q")).values
        estimate = index._screen @ q.astype(np.float32) / index._norms
        exact = retrieval._exact_scores(index, np.arange(n), q)
        band = retrieval._dot_band(dim) + dim * 2.0 ** -147 / index._norms
        assert np.isfinite(estimate).all()
        assert np.all(np.abs(exact - estimate) <= band)

    def test_band_bound(self):
        # the worst case at 4,096 dims, and no band once dim * 2**-24 >= 1/2
        assert retrieval._dot_band(4096) == pytest.approx(2.44e-4, rel=1e-2)
        assert retrieval._dot_band(2**23 - 1) is not None
        assert retrieval._dot_band(2**23) is None


class TestFeatureVector:
    @pytest.mark.parametrize("values", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0],
                                        [-np.inf, 1.0]])
    def test_non_finite_rejected(self, values):
        with pytest.raises(ValidationError):
            FeatureVector(np.array(values))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_only_owned_row_is_kept_in_its_type(self, dtype):
        arr = np.array([0.6, 0.8], dtype=dtype)
        arr.flags.writeable = False
        vector = FeatureVector(arr)
        assert vector.row is arr and vector.norm == float(np.linalg.norm(arr.astype(np.float64)))
        assert vector.values.dtype == np.float64 and not vector.values.flags.writeable

    def test_norm_scales_the_row(self):
        vector = FeatureVector(np.array([3.0, 4.0]), "v")
        assert vector.norm == 5.0 and vector.values.tolist() == [0.6, 0.8]
        with pytest.raises(ValidationError):
            FeatureVector(np.zeros(2), "v")

    @pytest.mark.parametrize("values, norm", [([1e200, 1e200], math.sqrt(2.0) * 1e200),
                                              ([1e-200, 0.0], 1e-200),
                                              ([3e-320, -4e-320], 5e-320)])
    def test_rows_whose_squares_overflow_or_underflow_get_their_norm(self, values, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vector = FeatureVector(np.array(values))
        assert vector.norm == pytest.approx(norm, rel=1e-15)
        np.testing.assert_allclose(vector.values, np.array(values) / norm, rtol=1e-15)

    def test_norm_beyond_float64_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="norm inf"):
                FeatureVector(np.array([1.7e308, 1.7e308]))

    def test_rows_of_extreme_norm_retrieve_like_the_oracle(self):
        rows = [[1e200, 1e200, 0.0], [1e-200, 0.0, 0.0], [0.5, 0.2, 0.1], [3e-320, -4e-320, 0.0]]
        entries = [FeatureVector(np.array(row), f"item{i}") for i, row in enumerate(rows)]
        index = RetrievalIndex(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in rows:
                query = FeatureVector(np.array(row), "q")
                got = top_m(query, index, m=3)
                expected = brute_force_top_m(query, entries, 3)
                assert list(got.ids) == [ident for ident, _ in expected]
                assert bits([s for _, s in got.items]) == bits([s for _, s in expected])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ordinary_norm_is_linalg_norm_bit_for_bit(self, dtype):
        rng = np.random.default_rng(7)
        for scale in (1e-30, 1e-5, 1.0, 1e5, 1e30):
            row = (rng.standard_normal(4096) * scale).astype(dtype)
            expected = float(np.linalg.norm(row.astype(np.float64)))
            assert bits([FeatureVector(row).norm]) == bits([expected])

    def test_writable_caller_array_is_copied_and_stays_writable(self):
        arr = np.array([0.6, 0.8])
        vector = FeatureVector(arr)
        assert not np.shares_memory(vector.values, arr)
        assert arr.flags.writeable and not vector.values.flags.writeable
        arr[:] = 0.0
        assert vector.values.tolist() == [0.6, 0.8]

    def test_flatten_normalize_allocates_the_row_once(self):
        feature_map = FeatureMap(np.random.default_rng(0).normal(size=(4, 250, 250)))
        tracemalloc.start()
        try:
            vector = flatten_normalize(feature_map)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vector.row.flags.owndata and not vector.row.flags.writeable
        assert not np.shares_memory(vector.row, feature_map.values)
        assert peak < 1.5 * vector.row.nbytes


class TestRetrievedSetInvariants:
    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, score):
        with pytest.raises(ValidationError):
            RetrievedSet((("a", 0.9), ("b", score)))

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValidationError):
            RetrievedSet((("a", 0.1), ("b", 0.5)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            RetrievedSet((("a", 0.5), ("a", 0.1)))
