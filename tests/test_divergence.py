import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distribution_pairs, prob_vectors
from patchsmooth import divergence
from patchsmooth.divergence import (
    LN2,
    CodebookDistribution,
    CodebookSpec,
    js_divergence,
    kl_divergence,
    negentropy,
    normalize_scores,
    pairwise_divergence,
    simplex_rows,
)
from patchsmooth.errors import DimensionError, ValidationError
from patchsmooth.synthbench import _bf_js, _bf_kl

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


# Entries in (0, smallest normal): the kernel must keep them exact.
SUBNORMALS = st.floats(min_value=5e-324, max_value=2.2e-308)


@st.composite
def kernel_rows(draw, size):
    """Distributions of ``size`` tokens that stress the kernel: zeros,
    subnormal entries, or a single token holding all the mass."""
    if draw(st.booleans()):
        row = np.zeros(size)
        row[draw(st.integers(0, size - 1))] = 1.0
        return row
    weights = draw(st.lists(
        st.one_of(st.just(0.0), SUBNORMALS, st.floats(1e-3, 1.0)), min_size=size, max_size=size,
    ).filter(lambda w: max(w) >= 1e-3))
    return simplex_rows(np.asarray(weights) / sum(weights))


@st.composite
def kernel_pairs(draw):
    size = draw(st.integers(2, 48))
    p = draw(kernel_rows(size))
    how = draw(st.sampled_from(["independent", "identical", "disjoint"]))
    if how == "identical":
        return p, p.copy()
    q = draw(kernel_rows(size))
    if how == "disjoint":
        # move q's mass onto the tokens p leaves empty (p's support is never full
        # here, since the strategy re-draws until it is not)
        empty = p == 0.0
        if not empty.any() or not (q[empty] > 0.0).any():
            return p, q
        q = np.where(empty, q, 0.0)
        q = simplex_rows(q / q.sum())
    return p, q


def mp_js(p, q) -> float:
    with mp.workdps(50):
        total = mp.mpf(0)
        for a, b in zip(p, q):
            a, b = mp.mpf(float(a)), mp.mpf(float(b))
            z = (a + b) / 2
            total += (a * mp.log(a / z) if a > 0 else 0) + (b * mp.log(b / z) if b > 0 else 0)
        return float(total / 2)


def mp_kl(u, s) -> float:
    with mp.workdps(50):
        total = mp.mpf(0)
        for a, b in zip(u, s):
            if a > 0:
                if b == 0:
                    return math.inf
                total += mp.mpf(float(a)) * mp.log(mp.mpf(float(a)) / mp.mpf(float(b)))
        return float(total)


class TestEntropyKernel:
    """The block kernel against 50-digit sums and the pure-Python oracle."""

    @given(kernel_pairs())
    @settings(max_examples=300, deadline=None)
    def test_js_matches_mpmath_and_oracle(self, pair):
        p, q = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pairwise_divergence(q, p[None], kind="js")[0]
            swapped = pairwise_divergence(p, q[None], kind="js")[0]
        assert got == swapped
        assert 0.0 <= got <= LN2 + 1e-12
        assert abs(got - mp_js(p, q)) <= 1e-12
        assert abs(got - _bf_js(list(p), list(q))) <= 1e-12
        if np.array_equal(p, q):
            assert got == 0.0
        if not np.any((p > 0.0) & (q > 0.0)):
            assert abs(got - LN2) <= 1e-12

    @given(kernel_pairs())
    @settings(max_examples=300, deadline=None)
    def test_kl_matches_mpmath_and_oracle(self, pair):
        u, s = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pairwise_divergence(s, u[None], kind="kl")[0]
        expected, oracle = mp_kl(u, s), _bf_kl(list(u), list(s))
        if math.isinf(expected):
            assert got == math.inf and oracle == math.inf
        else:
            assert abs(got - expected) <= 1e-12
            assert abs(got - oracle) <= 1e-12
        if np.array_equal(u, s):
            assert got == 0.0

    @given(st.integers(0, 10**6), st.sampled_from(["js", "kl"]))
    @settings(max_examples=30, deadline=None)
    def test_blocks_agree_exactly_with_single_rows(self, seed, kind):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 40))
        pool = rng.dirichlet(np.full(size, 0.3), size=int(rng.integers(1, 30)))
        pool[rng.random(pool.shape) < 0.2] = 0.0
        pool = simplex_rows(pool / pool.sum(axis=1, keepdims=True))
        query = pool[int(rng.integers(len(pool)))]
        expected = [pairwise_divergence(query, row[None], kind=kind)[0] for row in pool]
        blocked = divergence.BLOCK_ELEMENTS
        try:
            divergence.BLOCK_ELEMENTS = 3 * size  # three rows per block
            got = pairwise_divergence(query, pool, kind=kind)
        finally:
            divergence.BLOCK_ELEMENTS = blocked
        assert list(got) == expected
        np.testing.assert_array_equal(
            got, pairwise_divergence(query, pool, kind=kind,
                                     query_negentropy=negentropy(query),
                                     pool_negentropy=negentropy(pool)))

    def test_negentropy_rows(self):
        rows = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.25, 0.75], [5e-324, 1.0]]])
        np.testing.assert_allclose(
            negentropy(rows),
            [[0.0, -LN2], [0.25 * math.log(0.25) + 0.75 * math.log(0.75), 5e-324 * math.log(5e-324)]],
            rtol=0, atol=1e-15)

    def test_cached_negentropy_shape_checked(self):
        with pytest.raises(DimensionError):
            pairwise_divergence(dist(0.5, 0.5).probs, rows(dist(0.5, 0.5)), pool_negentropy=[0.0, 0.0])
