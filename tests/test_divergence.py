import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distribution_pairs, prob_vectors
from patchsmooth.divergence import (
    LN2,
    CodebookDistribution,
    CodebookSpec,
    js_divergence,
    kl_divergence,
    normalize_scores,
    pairwise_divergence,
    simplex_rows,
)
from patchsmooth.errors import DimensionError, ValidationError

# Frozen from a 50-digit evaluation of the defining sums (natural log).
KL_HALF_VS_QUARTER = 0.143841036226
JS_POINT_VS_UNIFORM = 0.215761554339


def dist(*values):
    return CodebookDistribution(np.array(values, dtype=np.float64))


class TestConstruction:
    def test_renormalizes_small_drift(self):
        d = CodebookDistribution([0.5 + 4e-7, 0.5])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValidationError):
            CodebookDistribution([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            CodebookDistribution([1.1, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            CodebookDistribution([np.inf, 0.0])

    def test_from_scores_normalizes_any_mass(self):
        d = CodebookDistribution.from_scores([3.0, 1.0])
        np.testing.assert_allclose(d.probs, [0.75, 0.25])

    def test_from_scores_rejects_zero_mass(self):
        with pytest.raises(ValidationError):
            CodebookDistribution.from_scores([0.0, 0.0])

    def test_probs_are_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_simplex_rows_checks_each_row(self):
        exact = np.array([0.25, 0.75])
        drifted = np.array([0.5 + 4e-7, 0.5])
        values = np.stack([exact, drifted])
        probs = simplex_rows(values)
        assert probs.tobytes()[:16] == exact.tobytes()  # within 1e-12: untouched
        assert probs[1].sum() == pytest.approx(1.0, abs=1e-15)
        assert not probs.flags.writeable and values.flags.writeable
        for bad in ([[0.5, 0.5], [0.5, 0.6]], [[0.5, 0.5], [1.1, -0.1]], [[np.nan, 1.0]]):
            with pytest.raises(ValidationError):
                simplex_rows(bad)

    def test_normalize_scores_rowwise(self):
        np.testing.assert_allclose(normalize_scores([[3.0, 1.0], [0.0, 2.0]]), [[0.75, 0.25], [0, 1]])
        with pytest.raises(ValidationError):
            normalize_scores([[1.0, 1.0], [0.0, 0.0]])

    def test_codebook_spec_minimum_size(self):
        with pytest.raises(ValidationError):
            CodebookSpec(size=1)
        assert CodebookSpec(size=2).size == 2


class TestKL:
    def test_identical_is_zero(self):
        assert kl_divergence(dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0

    def test_derived_value(self):
        v = kl_divergence(dist(0.5, 0.5), dist(0.25, 0.75))
        assert v == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-9)

    def test_disjoint_support_is_infinite(self):
        assert kl_divergence(dist(1, 0), dist(0, 1)) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence(dist(1, 0), dist(0.5, 0.25, 0.25))

    @given(distribution_pairs())
    @settings(max_examples=200)
    def test_gibbs_nonnegative(self, pair):
        a, b = pair
        assert kl_divergence(a, b) >= 0.0
        assert kl_divergence(a, a) == 0.0


class TestJS:
    def test_self_divergence_zero(self):
        d = dist(0.2, 0.3, 0.5)
        assert js_divergence(d, d) == 0.0

    def test_derived_value(self):
        v = js_divergence(dist(1, 0), dist(0.5, 0.5))
        assert v == pytest.approx(JS_POINT_VS_UNIFORM, abs=1e-9)

    def test_maximal_divergence(self):
        assert js_divergence(dist(1, 0), dist(0, 1)) == pytest.approx(LN2, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            js_divergence(dist(1, 0), dist(1, 0, 0))

    @given(distribution_pairs(max_len=256))
    @settings(max_examples=300)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        v = js_divergence(a, b)
        assert v == js_divergence(b, a)
        assert 0.0 <= v <= LN2 + 1e-12

    @given(prob_vectors(max_len=256))
    @settings(max_examples=200)
    def test_identical_gives_exact_zero(self, p):
        d = CodebookDistribution(p)
        assert js_divergence(d, CodebookDistribution(p.copy())) == 0.0

    @given(prob_vectors(max_len=128), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_near_identical_is_near_zero(self, p, seed):
        # |a - b| < 1e-9 elementwise implies js <= len * 1e-9 (first-order bound).
        rng = np.random.default_rng(seed)
        q = p + rng.uniform(-0.5e-9, 0.5e-9, size=p.size)
        q = np.clip(q, 0.0, None)
        q = q / q.sum()
        a, b = CodebookDistribution(p), CodebookDistribution(q)
        if np.max(np.abs(a.probs - b.probs)) < 1e-9:
            assert js_divergence(a, b) <= a.probs.size * 1e-9

    @given(distribution_pairs(max_len=256))
    @settings(max_examples=300)
    def test_zero_implies_equality(self, pair):
        a, b = pair
        if js_divergence(a, b) == 0.0:
            assert np.max(np.abs(a.probs - b.probs)) < 1e-9

    @given(prob_vectors(max_len=64), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_distinct_gives_positive(self, p, seed):
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(p.size))
        if np.max(np.abs(p - q)) >= 1e-6:
            assert js_divergence(CodebookDistribution(p), CodebookDistribution(q)) > 0.0


def rows(*dists):
    return np.stack([d.probs for d in dists])


class TestPairwise:
    def test_trivial_single_entry(self):
        out = pairwise_divergence(dist(0.5, 0.5).probs, rows(dist(0.5, 0.5)))
        np.testing.assert_array_equal(out, [0.0])

    def test_derived_js_row(self):
        query = dist(1, 0)
        pool = rows(dist(1, 0), dist(0.5, 0.5), dist(0, 1))
        out = pairwise_divergence(query.probs, pool, kind="js")
        np.testing.assert_allclose(out, [0.0, JS_POINT_VS_UNIFORM, LN2], atol=1e-9)

    def test_empty_pool_gives_empty_vector(self):
        out = pairwise_divergence(dist(0.5, 0.5).probs, np.empty((0, 2)))
        assert out.shape == (0,)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            pairwise_divergence(dist(0.5, 0.5).probs, np.empty((0, 2)), kind="hellinger")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_divergence(dist(0.5, 0.5).probs, rows(dist(0.2, 0.3, 0.5)))

    @given(distribution_pairs(), st.sampled_from(["js", "kl"]))
    @settings(max_examples=100)
    def test_matches_scalar_calls_exactly(self, pair, kind):
        query, other = pair
        pool = [other, query, other]
        out = pairwise_divergence(query.probs, rows(*pool), kind=kind)
        fn = js_divergence if kind == "js" else kl_divergence
        expected = [fn(entry, query) for entry in pool]
        assert list(out) == expected

    @given(distribution_pairs())
    @settings(max_examples=100)
    def test_js_swap_invariance(self, pair):
        a, b = pair
        assert list(pairwise_divergence(a.probs, rows(b), kind="js")) == list(
            pairwise_divergence(b.probs, rows(a), kind="js")
        )
