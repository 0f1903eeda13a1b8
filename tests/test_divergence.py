import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import distribution_pairs, divergence_of, prob_vectors
from oracle import js as oracle_js, kl as oracle_kl
from patchsmooth import divergence
from patchsmooth.divergence import (
    LN2,
    CodebookDistribution,
    CodebookSpec,
    frozen,
    negentropy,
    normalize_scores,
    pairwise_divergence,
    simplex_rows,
)
from patchsmooth.errors import DimensionError, ValidationError
from patchsmooth.pool import PromptPool, ScoreGrid

# Frozen from a 50-digit evaluation of the defining sums (natural log).
KL_HALF_VS_QUARTER = 0.143841036226
JS_POINT_VS_UNIFORM = 0.215761554339


def dist(*values):
    return simplex_rows(np.array(values, dtype=np.float64))


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
        # Raw nonnegative scores of any total become a distribution.
        np.testing.assert_allclose(normalize_scores([3.0, 1.0]), [0.75, 0.25])

    def test_from_scores_rejects_zero_mass(self):
        with pytest.raises(ValidationError):
            normalize_scores([0.0, 0.0])

    def test_probs_are_immutable(self):
        d = CodebookDistribution([0.5, 0.5])
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


def _grid_probs(values):
    return ScoreGrid(probs=values).probs


def _pool_probs(values):
    return PromptPool(probs=values[None], pair_indices=[1], prompts=(), mode=None, m=1).probs[0]


# The four entry points that check score rows, and the error each raises
# for a malformed input: (exception, message) or None for "accepted".
_CHECKERS = {"normalize": normalize_scores, "simplex": simplex_rows,
             "grid": _grid_probs, "pool": _pool_probs}
_NON_FINITE = {"normalize": (ValidationError, "scores contain non-finite entries"),
               **dict.fromkeys(("simplex", "grid", "pool"),
                               (ValidationError, "distribution contains non-finite entries"))}
_NEGATIVE = {"normalize": (ValidationError, "scores contain negative entries"),
             **dict.fromkeys(("simplex", "grid", "pool"),
                             (ValidationError, "distribution contains negative entries"))}
_ZERO_MASS = {"normalize": (ValidationError, "scores have zero total mass"),
              **dict.fromkeys(("simplex", "grid", "pool"),
                              (ValidationError, "probabilities sum to 0.0, expected 1 within 1e-06"))}
_SUM_OVERFLOW = {"normalize": (ValidationError, "scores contain a row whose sum overflows float64"),
                 **dict.fromkeys(("simplex", "grid", "pool"), (
                     ValidationError, "distribution contains a row whose sum overflows float64"))}
_MALFORMED = [
    ("nan", [[0.5, np.nan], [0.5, 0.5]], _NON_FINITE),
    ("inf", [[0.5, 0.5], [np.inf, 0.0]], _NON_FINITE),
    ("-inf", [[-np.inf, 1.0]], _NON_FINITE),
    ("nan-and-negative", [[np.nan, -1.0]], _NON_FINITE),
    ("inf-and-negative", [[-1.0, np.inf]], _NON_FINITE),
    ("negative", [[0.5, 0.5], [1.5, -0.5]], _NEGATIVE),
    ("zero-mass", [[0.5, 0.5], [0.0, 0.0]], _ZERO_MASS),
    ("negative-zero-mass", [[-0.0, -0.0]], _ZERO_MASS),
    ("sum-overflow", [[1e308, 1e308]], _SUM_OVERFLOW),
    ("empty-vector", np.zeros(0), {
        "normalize": (ValidationError, "scores have zero total mass"),
        "simplex": (ValidationError, r"expected rows of length >= 2, got shape \(0,\)"),
        "grid": (DimensionError, r"score grid must be \(L, \|V\|\), got shape \(0,\)"),
        "pool": (DimensionError, r"pool must be \(W, L, \|V\|\), got shape \(1, 0\)")}),
    ("no-rows", np.zeros((0, 3)), {
        "normalize": None, "simplex": None,
        "grid": (ValidationError, "score grid has no patches"),
        "pool": (ValidationError, "pool has no entries")}),
]


class TestValidationContract:
    """What each checker does with malformed rows, and whose arrays it
    copies: pinned so the checks can get cheaper without changing."""

    @pytest.mark.parametrize("checker", sorted(_CHECKERS))
    @pytest.mark.parametrize("case, values, expected", _MALFORMED, ids=[c[0] for c in _MALFORMED])
    def test_malformed_rows(self, checker, case, values, expected):
        values = np.array(values, dtype=np.float64)
        outcome = expected[checker]
        if outcome is None:
            result = _CHECKERS[checker](values)
            assert result.shape == values.shape and result.dtype == np.float64
            return
        error, message = outcome
        with warnings.catch_warnings(), pytest.raises(error, match=f"^{message}$"):
            warnings.simplefilter("error", RuntimeWarning)
            _CHECKERS[checker](values)

    @pytest.mark.parametrize("checker", sorted(_CHECKERS))
    def test_sum_overflow_without_warnings(self, checker):
        # Entries are finite and nonnegative but the row sum is inf: the
        # same typed error as with warnings as errors, not zeroed scores.
        error, message = _SUM_OVERFLOW[checker]
        with np.errstate(all="ignore"), warnings.catch_warnings(), \
                pytest.raises(error, match=f"^{message}$"):
            warnings.simplefilter("ignore")
            _CHECKERS[checker](np.array([[1e308, 1e308]]))

    @pytest.mark.parametrize("checker", sorted(_CHECKERS))
    def test_negative_zero_is_accepted(self, checker):
        values = np.array([[-0.0, 1.0], [0.25, 0.75]])
        result = _CHECKERS[checker](values)
        assert result.tobytes() == values.tobytes()

    @pytest.mark.parametrize("checker", ["simplex", "grid", "pool"])
    @pytest.mark.parametrize("drift", [0.0, 4e-7])
    def test_writable_caller_array_is_copied(self, checker, drift):
        values = np.array([[0.25 + drift, 0.75], [0.5, 0.5]])
        probs = _CHECKERS[checker](values)
        before = probs.copy()
        values[:] = 0.5
        assert values.flags.writeable
        assert not probs.flags.writeable
        assert probs.tobytes() == before.tobytes()

    def test_normalize_scores_leaves_caller_array_alone(self):
        values = np.array([[3.0, 1.0]])
        probs = normalize_scores(values)
        values[:] = 7.0
        assert values.flags.writeable
        assert probs.tolist() == [[0.75, 0.25]]

    @pytest.mark.parametrize("checker", ["simplex", "grid", "pool"])
    def test_read_only_input_is_not_renormalized_in_place(self, checker):
        values = np.array([[0.25 + 4e-7, 0.75], [0.5, 0.5]])
        values.flags.writeable = False
        original = values.tobytes()
        probs = _CHECKERS[checker](values)
        assert values.tobytes() == original
        assert probs[0].sum() == pytest.approx(1.0, abs=1e-15)
        assert probs[0].tobytes() != values[0].tobytes()

    def test_frozen_array_owning_its_buffer_is_kept(self):
        values = np.array([[0.25, 0.75], [0.5, 0.5]])
        values.flags.writeable = False
        assert simplex_rows(values) is values
        assert ScoreGrid(probs=values).probs is values
        view = values[:1]  # a view of a read-only array owning its buffer
        assert simplex_rows(view) is view
        writable = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert not np.shares_memory(simplex_rows(writable[:1]), writable)
        assert writable.flags.writeable

    def test_keep_or_copy_rule(self):
        owned = np.array([0.25, 0.75])
        owned.flags.writeable = False
        assert frozen(owned, owned) is owned
        narrow = np.array([0.25, 0.75], dtype=np.float32)
        converted = np.asarray(narrow, dtype=np.float64)
        assert frozen(converted, narrow) is converted and not converted.flags.writeable
        writable = np.array([0.25, 0.75])
        kept = frozen(writable, writable)
        assert not np.shares_memory(kept, writable) and not kept.flags.writeable
        assert writable.flags.writeable
        view = owned[:1]  # kept: its base is read-only and owns its buffer
        assert frozen(view, view) is view and not view.flags.writeable
        writable_view = writable[:1]
        copied = frozen(writable_view, writable_view)
        assert not np.shares_memory(copied, writable) and not copied.flags.writeable
        assert writable_view.flags.writeable and writable.flags.writeable
        borrowed = np.frombuffer(owned.tobytes())  # read-only, over bytes no array owns
        assert frozen(borrowed, borrowed) is not borrowed

    def test_normalized_scores_pass_to_constructors_uncopied(self):
        probs = normalize_scores(np.array([[3.0, 1.0], [1.0, 1.0]], dtype=np.float32))
        assert not probs.flags.writeable and probs.flags.owndata
        assert ScoreGrid(probs=probs).probs is probs
        stacked = normalize_scores(np.ones((2, 3, 4)))
        pool = PromptPool(probs=stacked, pair_indices=[1, 2], prompts=(), mode=None, m=2)
        assert pool.probs is stacked


class TestKL:
    def test_identical_is_zero(self):
        assert divergence_of("kl", dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0

    def test_derived_value(self):
        v = divergence_of("kl", dist(0.5, 0.5), dist(0.25, 0.75))
        assert v == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-9)

    def test_disjoint_support_is_infinite(self):
        assert divergence_of("kl", dist(1, 0), dist(0, 1)) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            divergence_of("kl", dist(1, 0), dist(0.5, 0.25, 0.25))

    @given(distribution_pairs())
    @settings(max_examples=200)
    def test_gibbs_nonnegative(self, pair):
        a, b = pair
        assert divergence_of("kl", a, b) >= 0.0
        assert divergence_of("kl", a, a) == 0.0


class TestJS:
    def test_self_divergence_zero(self):
        d = dist(0.2, 0.3, 0.5)
        assert divergence_of("js", d, d) == 0.0

    def test_derived_value(self):
        v = divergence_of("js", dist(1, 0), dist(0.5, 0.5))
        assert v == pytest.approx(JS_POINT_VS_UNIFORM, abs=1e-9)

    def test_maximal_divergence(self):
        assert divergence_of("js", dist(1, 0), dist(0, 1)) == pytest.approx(LN2, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            divergence_of("js", dist(1, 0), dist(1, 0, 0))

    @given(distribution_pairs(max_len=256))
    @settings(max_examples=300)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        v = divergence_of("js", a, b)
        assert v == divergence_of("js", b, a)
        assert 0.0 <= v <= LN2 + 1e-12

    @given(prob_vectors(max_len=256))
    @settings(max_examples=200)
    def test_identical_gives_exact_zero(self, p):
        assert divergence_of("js", simplex_rows(p), simplex_rows(p.copy())) == 0.0

    @given(prob_vectors(max_len=128), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_near_identical_is_near_zero(self, p, seed):
        # |a - b| < 1e-9 elementwise implies js <= len * 1e-9 (first-order bound).
        rng = np.random.default_rng(seed)
        q = p + rng.uniform(-0.5e-9, 0.5e-9, size=p.size)
        q = np.clip(q, 0.0, None)
        q = q / q.sum()
        a, b = simplex_rows(p), simplex_rows(q)
        if np.max(np.abs(a - b)) < 1e-9:
            assert divergence_of("js", a, b) <= a.size * 1e-9

    @given(distribution_pairs(max_len=256))
    @settings(max_examples=300)
    def test_zero_implies_equality(self, pair):
        a, b = pair
        if divergence_of("js", a, b) == 0.0:
            assert np.max(np.abs(a - b)) < 1e-9

    @given(prob_vectors(max_len=64), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_distinct_gives_positive(self, p, seed):
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(p.size))
        if np.max(np.abs(p - q)) >= 1e-6:
            assert divergence_of("js", simplex_rows(p), simplex_rows(q)) > 0.0


def rows(*dists):
    return np.stack(dists)


class TestPairwise:
    def test_trivial_single_entry(self):
        out = pairwise_divergence(rows(dist(0.5, 0.5)), rows(dist(0.5, 0.5)), 0, [0])
        np.testing.assert_array_equal(out, [0.0])

    def test_derived_js_row(self):
        query = rows(dist(1, 0))
        pool = rows(dist(1, 0), dist(0.5, 0.5), dist(0, 1))
        out = pairwise_divergence(query, pool, 0, np.arange(3), kind="js")
        np.testing.assert_allclose(out, [0.0, JS_POINT_VS_UNIFORM, LN2], atol=1e-9)

    def test_empty_pool_gives_empty_vector(self):
        out = pairwise_divergence(rows(dist(0.5, 0.5)), np.empty((0, 2)), 0, np.arange(0))
        assert out.shape == (0,)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            pairwise_divergence(rows(dist(0.5, 0.5)), np.empty((0, 2)), 0, np.arange(0),
                                kind="hellinger")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_divergence(rows(dist(0.5, 0.5)), rows(dist(0.2, 0.3, 0.5)), 0, 0)
        with pytest.raises(DimensionError):  # a query is (R, V), never one (V,) row
            pairwise_divergence(dist(0.5, 0.5), rows(dist(0.5, 0.5)), 0, 0)

    @given(distribution_pairs(), st.sampled_from(["js", "kl"]))
    @settings(max_examples=100)
    def test_matches_scalar_calls_exactly(self, pair, kind):
        query, other = pair
        pool = [other, query, other]
        out = pairwise_divergence(query[None], rows(*pool), 0, np.arange(3), kind=kind)
        expected = [divergence_of(kind, entry, query) for entry in pool]
        assert list(out) == expected

    @given(distribution_pairs())
    @settings(max_examples=100)
    def test_js_swap_invariance(self, pair):
        a, b = pair
        assert list(pairwise_divergence(a[None], rows(b), 0, [0], kind="js")) == list(
            pairwise_divergence(b[None], rows(a), 0, [0], kind="js")
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
            got = pairwise_divergence(q[None], p[None], 0, [0], kind="js")[0]
            swapped = pairwise_divergence(p[None], q[None], 0, [0], kind="js")[0]
        assert got == swapped
        assert 0.0 <= got <= LN2 + 1e-12
        assert abs(got - mp_js(p, q)) <= 1e-12
        assert abs(got - oracle_js(list(p), list(q))) <= 1e-12
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
            got = pairwise_divergence(s[None], u[None], 0, [0], kind="kl")[0]
        expected, oracle = mp_kl(u, s), oracle_kl(list(u), list(s))
        if math.isinf(expected):
            assert got == math.inf and oracle == math.inf
        else:
            assert abs(got - expected) <= 1e-12
            assert abs(got - oracle) <= 1e-12
        if np.array_equal(u, s):
            assert got == 0.0

    @staticmethod
    def kernel_rows(rng, count, size):
        """``count`` distributions of ``size`` tokens, a fifth of their
        entries zero (KL is +inf on many pairs), none all zero."""
        drawn = rng.dirichlet(np.full(size, 0.3), size=count)
        drawn[rng.random(drawn.shape) < 0.2] = 0.0
        dead = ~drawn.any(axis=-1)  # a fully zeroed row gets one entry back
        drawn[dead, rng.integers(size, size=int(dead.sum()))] = 1.0
        return simplex_rows(drawn / drawn.sum(axis=-1, keepdims=True))

    @staticmethod
    def assert_pairs_match_single_pairs(query, pool, r, c, kind):
        """The kernel over the pairs (r, c), three pairs per block, equals
        one one-pair call per pair bit for bit, with or without the
        negentropies cached."""
        expected = np.array([pairwise_divergence(query[i:i + 1], pool[j:j + 1], 0, 0, kind=kind)
                             for i, j in zip(*(a.ravel() for a in np.broadcast_arrays(r, c)))])
        blocked = divergence.BLOCK_ELEMENTS
        try:
            divergence.BLOCK_ELEMENTS = 3 * query.shape[1]  # three pairs per block
            got = pairwise_divergence(query, pool, r, c, kind=kind)
        finally:
            divergence.BLOCK_ELEMENTS = blocked
        assert got.shape == np.broadcast(r, c).shape
        assert got.ravel().tobytes() == expected.tobytes()
        if kind == "kl":  # +inf exactly where the pool row has mass the query row lacks
            unsupported = ((pool[c] > 0.0) & (query[r] == 0.0)).any(axis=-1)
            np.testing.assert_array_equal(np.isinf(got), unsupported)
        np.testing.assert_array_equal(
            got, pairwise_divergence(query, pool, r, c, kind=kind,
                                     query_negentropy=negentropy(query),
                                     pool_negentropy=negentropy(pool)))

    @given(st.integers(0, 10**6), st.sampled_from(["js", "kl"]))
    @example(139975, "js")  # draws two all-zero rows
    @settings(max_examples=30, deadline=None)
    def test_blocks_agree_exactly_with_single_rows(self, seed, kind):
        # every (query row, pool row) pair as an (R, 1) x (1, N) broadcast,
        # both in shuffled order; query rows repeat pool rows (distance 0)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 40))
        pool = self.kernel_rows(rng, int(rng.integers(1, 30)), size)
        query = np.concatenate([pool[rng.integers(len(pool), size=int(rng.integers(1, 4)))],
                                self.kernel_rows(rng, int(rng.integers(0, 4)), size)])
        r, c = rng.permutation(len(query))[:, None], rng.permutation(len(pool))[None]
        self.assert_pairs_match_single_pairs(query, pool, r, c, kind)

    @given(st.integers(0, 10**6), st.sampled_from(["js", "kl"]))
    @settings(max_examples=30, deadline=None)
    def test_row_by_row_query_matches_single_rows(self, seed, kind):
        # row i against row i, then a flat list of pairs with repeats in
        # random order, up to three times as many pairs as rows
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 40))
        n = int(rng.integers(1, 30))
        query, pool = self.kernel_rows(rng, n, size), self.kernel_rows(rng, n, size)
        self.assert_pairs_match_single_pairs(query, pool, np.arange(n), np.arange(n), kind)
        pairs = int(rng.integers(1, 3 * n + 1))
        self.assert_pairs_match_single_pairs(query, pool, rng.integers(n, size=pairs),
                                             rng.integers(n, size=pairs), kind)

    def test_row_by_row_shapes_checked(self):
        pool = rows(dist(0.5, 0.5), dist(0.2, 0.8))
        with pytest.raises(DimensionError):  # query row 1 of a one-row query
            pairwise_divergence(pool[:1], pool, [0, 1], [0, 1])
        for r, c in ((-1, 0), (0, -1), (2, 0), (0, 2), ([0, 1], [[0], [5]])):
            with pytest.raises(DimensionError):
                pairwise_divergence(pool, pool, r, c)
        with pytest.raises(DimensionError):
            pairwise_divergence(pool, pool, 0, 0, query_negentropy=0.0)
        with pytest.raises(DimensionError):
            pairwise_divergence(pool, pool, 0, 0, query_negentropy=np.zeros(3))

    def test_negentropy_rows(self):
        rows = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.25, 0.75], [5e-324, 1.0]]])
        np.testing.assert_allclose(
            negentropy(rows),
            [[0.0, -LN2], [0.25 * math.log(0.25) + 0.75 * math.log(0.75), 5e-324 * math.log(5e-324)]],
            rtol=0, atol=1e-15)

    def test_cached_negentropy_shape_checked(self):
        with pytest.raises(DimensionError):
            pairwise_divergence(rows(dist(0.5, 0.5)), rows(dist(0.5, 0.5)), 0, 0,
                                pool_negentropy=[0.0, 0.0])


class TestScreenSurvivors:
    # band 0.1, k = 2: row 0's upper ends reach 1.1, row 1's 2.15, so the
    # candidates whose lower end is at most that survive
    estimate = np.array([[0.0, 1.0, 5.0, 1.1], [3.0, 2.0, 9.0, 2.05]])
    kept = np.array([[True, True, False, True], [False, True, False, True]])

    def test_exact_values_on_the_survivors_and_inf_off_them(self):
        asked = []

        def exact(r, c):
            asked.append((r.tolist(), c.tolist()))
            return self.estimate[r, c] + 0.05

        got = divergence.screen_survivors(self.estimate, 0.1, 2, exact)
        assert asked == [tuple(a.tolist() for a in np.nonzero(self.kept))]
        assert got.dtype == np.float64 and got.shape == self.estimate.shape
        np.testing.assert_array_equal(got, np.where(self.kept, self.estimate + 0.05, np.inf))

    def test_k_beyond_the_row_keeps_every_candidate(self):
        got = divergence.screen_survivors(self.estimate, 0.1, 9, lambda r, c: self.estimate[r, c])
        np.testing.assert_array_equal(got, self.estimate)

    def test_survivor_outside_its_band_is_none(self):
        def one_escapes(r, c):
            values = self.estimate[r, c].copy()
            values[-1] += 0.2
            return values

        assert divergence.screen_survivors(self.estimate, 0.1, 2, one_escapes) is None
