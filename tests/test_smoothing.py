import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import StubScorer
from patchsmooth import divergence, smoothing
from patchsmooth.divergence import LN2, negentropy, pairwise_divergence, screened_js
from patchsmooth.errors import ConfigError, DimensionError, ValidationError
from patchsmooth.pool import PoolMode, PromptPool, PromptSpec, ScoreGrid, build_pool
from patchsmooth.retrieval import RetrievedSet
from patchsmooth.smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothedGrid,
    SmoothingConfig,
    _select_and_blend,
    aggregate_sequences,
    smooth_features,
    smooth_grid,
    softmax_weights,
)


def one_patch_pool(*rows, feature_keys=None):
    """A single-patch pool whose entry j is ``rows[j]``, from pair j + 1."""
    probs = np.array(rows, dtype=np.float64)[:, None, :]
    keys = None if feature_keys is None else np.array(feature_keys, dtype=np.float64)[:, None, :]
    return PromptPool(probs=probs, pair_indices=np.arange(1, len(rows) + 1), prompts=(),
                      mode=PoolMode.Q, m=len(rows), feature_keys=keys)


def smooth_one_patch(query, pool, config, feature_keys=None):
    """Smooth a one-patch grid; returns (smoothed row, the whole SmoothedGrid)."""
    keys = None if feature_keys is None else np.array([feature_keys], dtype=np.float64)
    grid = ScoreGrid(probs=np.array([query], dtype=np.float64), feature_keys=keys)
    out = smooth_grid(grid, pool, config)
    return out.probs[0], out


def random_pool(rng, width, patches, size):
    return PromptPool(
        probs=rng.dirichlet(np.ones(size), size=(width, patches)),
        pair_indices=np.arange(1, width + 1),
        prompts=(),
        mode=PoolMode.Q,
        m=width,
    )


def random_grid(rng, patches, size):
    return ScoreGrid(probs=rng.dirichlet(np.ones(size), size=patches))


class TestConfig:
    def test_k_defaults_to_min_5_m(self):
        assert SmoothingConfig(m=3).k == 3
        assert SmoothingConfig(m=8).k == 5

    def test_validation(self):
        with pytest.raises(ConfigError):
            SmoothingConfig(m=0)
        with pytest.raises(ConfigError):
            SmoothingConfig(m=2, k=0)
        with pytest.raises(ConfigError):
            SmoothingConfig(m=2, alpha=1.5)
        with pytest.raises(ConfigError):
            SmoothingConfig(m=2, tau=0.0)

    def test_adaptation_defaults(self):
        feat = SmoothingConfig.feature_defaults()
        assert (feat.m, feat.tau, feat.alpha, feat.key) == (2, 25.0, 0.5, NeighborKey.FEATURE)
        seq = SmoothingConfig.sequence_defaults()
        assert (seq.m, seq.tau, seq.alpha) == (2, 1.0, 0.8)


class TestSoftmaxWeights:
    def test_equal_distances_any_tau(self):
        for tau in (0.1, 1.0, 42.0):
            np.testing.assert_allclose(softmax_weights([0.3, 0.3, 0.3], tau), [1 / 3] * 3)

    def test_derived_example(self):
        w = softmax_weights([0.0, LN2], tau=1.0)
        np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-5)

    def test_single_distance(self):
        np.testing.assert_array_equal(softmax_weights([0.7], tau=1.0), [1.0])

    def test_infinite_distance_gets_zero(self):
        w = softmax_weights([0.0, math.inf], tau=1.0)
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_all_infinite_rejected(self):
        with pytest.raises(ValidationError):
            softmax_weights([math.inf, math.inf], tau=1.0)

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            softmax_weights([0.1], tau=-1.0)

    @given(st.lists(st.floats(0, 50), min_size=1, max_size=16), st.floats(0.01, 100))
    @settings(max_examples=200)
    def test_sums_to_one(self, distances, tau):
        assert abs(softmax_weights(distances, tau).sum() - 1.0) <= 1e-9

    def test_stability_under_large_distances(self):
        w = softmax_weights([5000.0, 5001.0], tau=1.0)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert w[0] > w[1] > 0

    @given(st.integers(0, 10**6), st.floats(0.01, 100), st.booleans())
    @settings(max_examples=100)
    def test_columns_equal_one_dimensional_calls(self, seed, tau, transposed):
        # up to 20 ranks, so the sums are long enough for numpy's pairwise summation
        rng = np.random.default_rng(seed)
        k, patches = int(rng.integers(1, 21)), int(rng.integers(1, 6))
        distances = rng.uniform(0, 5, size=(k, patches))
        distances[rng.random(distances.shape) < 0.3] = math.inf
        distances[rng.integers(k, size=patches), np.arange(patches)] = 0.5
        if transposed:  # the layout smoothing passes: an (L, k) array's transpose
            distances = np.ascontiguousarray(distances.T).T
        w = softmax_weights(distances, tau)
        assert w.shape == distances.shape
        for column, d in zip(w.T, distances.T):
            assert column.tobytes() == softmax_weights(d, tau).tobytes()

    def test_axis_zero_ranks_neighbors(self):
        w = softmax_weights([[0.0, math.inf], [LN2, 0.0]], tau=1.0)
        np.testing.assert_allclose(w, [[2 / 3, 0.0], [1 / 3, 1.0]], atol=1e-12)

    def test_all_infinite_column_rejected(self):
        with pytest.raises(ValidationError):
            softmax_weights([[0.1, math.inf], [0.2, math.inf]], tau=1.0)

    def test_three_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            softmax_weights(np.zeros((2, 2, 2)), tau=1.0)


class TestKnnSelect:
    """Neighbor selection, read from the selection arrays of the result."""

    def test_query_itself_ranks_first(self):
        pool = one_patch_pool([0.7, 0.3], [0.3, 0.7], [0.5, 0.5])
        _, got = smooth_one_patch([0.3, 0.7], pool, SmoothingConfig(m=3, k=1))
        assert got.pair[0, 0] == 2
        assert got.distance[0, 0] == 0.0

    def test_derived_js_ordering(self):
        pool = one_patch_pool([0.5, 0.5], [0, 1], [1, 0])  # A, B, C
        _, got = smooth_one_patch([1, 0], pool, SmoothingConfig(m=3, k=2))
        assert got.pair[0].tolist() == [3, 1]
        assert got.distance[0, 0] == 0.0
        assert got.distance[0, 1] == pytest.approx(0.215761554339, abs=1e-9)

    def test_k_equal_pool_size_returns_all_sorted(self):
        pool = one_patch_pool([0, 1], [1, 0], [0.5, 0.5])
        _, got = smooth_one_patch([1, 0], pool, SmoothingConfig(m=3, k=3))
        assert got.pair[0].tolist() == [2, 3, 1]
        d = got.distance[0]
        assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))

    def test_k_clamps_to_pool_size(self):
        _, got = smooth_one_patch([1, 0], one_patch_pool([0.5, 0.5]), SmoothingConfig(m=1, k=10))
        assert got.pair.shape == got.patch.shape == got.distance.shape == got.weight.shape == (1, 1)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            PromptPool(probs=np.empty((0, 1, 2)), pair_indices=[], prompts=(),
                       mode=PoolMode.Q, m=1)

    def test_tie_break_by_pair_index(self):
        pool = one_patch_pool([0.4, 0.6], [0.4, 0.6])
        _, got = smooth_one_patch([0.5, 0.5], pool, SmoothingConfig(m=2, k=1))
        assert got.pair[0, 0] == 1

    def test_kl_infinite_sorts_last(self):
        config = SmoothingConfig(m=2, divergence=DivergenceKind.KL)
        pool = one_patch_pool([0.5, 0.5], [1, 0])
        _, got = smooth_one_patch([1, 0], pool, config)
        assert got.pair[0, 0] == 2
        assert got.distance[0, 1] == math.inf
        assert got.weight[0, 1] == 0.0

    @pytest.mark.parametrize("aggregation", list(Aggregation))
    def test_kl_infinite_gets_weight_zero_under_every_aggregation(self, aggregation):
        config = SmoothingConfig(m=2, k=2, divergence=DivergenceKind.KL, aggregation=aggregation)
        pool = one_patch_pool([0.4, 0.6, 0], [0, 0, 1])
        grid = ScoreGrid(probs=[[0.5, 0.5, 0]])
        got = smooth_grid(grid, pool, config)
        assert got.distance[0, 1] == math.inf
        assert got.weight[0].tolist() == [1.0, 0.0]
        np.testing.assert_array_equal(got.probs, [[0.4, 0.6, 0.0]])
        expected = oracle.brute_force_smooth(grid, pool, config)
        np.testing.assert_array_equal(expected.weight, got.weight)
        np.testing.assert_array_equal(expected.probs, got.probs)

    @pytest.mark.parametrize("aggregation", list(Aggregation))
    def test_no_finite_neighbor_rejected_under_every_aggregation(self, aggregation):
        config = SmoothingConfig(m=1, divergence=DivergenceKind.KL, aggregation=aggregation)
        grid = ScoreGrid(probs=[[0.5, 0.5, 0]])
        pool = one_patch_pool([0, 0, 1])
        for smooth in (smooth_grid, oracle.brute_force_smooth):
            with pytest.raises(ValidationError, match="finite distance"):
                smooth(grid, pool, config)

    def test_feature_key_l2(self):
        config = SmoothingConfig(m=2, key=NeighborKey.FEATURE)
        pool = one_patch_pool([1, 0], [0, 1], feature_keys=[[3.0, 4.0], [0.0, 1.0]])
        _, got = smooth_one_patch([0.5, 0.5], pool, config, feature_keys=[0.0, 0.0])
        assert got.pair[0].tolist() == [2, 1]
        assert got.distance[0, 1] == pytest.approx(5.0)

    def test_feature_key_requires_keys(self):
        config = SmoothingConfig(m=1, key=NeighborKey.FEATURE)
        with pytest.raises(ConfigError):
            smooth_one_patch([0.5, 0.5], one_patch_pool([1, 0]), config, feature_keys=[0.0])
        keyed = one_patch_pool([1, 0], feature_keys=[[0.0]])
        with pytest.raises(ConfigError):
            smooth_one_patch([0.5, 0.5], keyed, config)


class TestSmoothPatch:
    """Blending of one patch with its selected neighbors."""

    def test_alpha_zero_identity(self):
        out, _ = smooth_one_patch([0.3, 0.7], one_patch_pool([0.9, 0.1]),
                                  SmoothingConfig(m=1, alpha=0.0))
        np.testing.assert_array_equal(out, [0.3, 0.7])

    def test_alpha_one_nearest_returns_neighbor(self):
        pool = one_patch_pool([0.9, 0.1])
        out, _ = smooth_one_patch([0.3, 0.7], pool, SmoothingConfig(
            m=1, alpha=1.0, aggregation=Aggregation.NEAREST))
        np.testing.assert_array_equal(out, pool.probs[0, 0])

    def test_derived_single_neighbor_blend(self):
        out, got = smooth_one_patch([1, 0], one_patch_pool([0, 1]), SmoothingConfig(m=1, alpha=0.5))
        assert got.distance[0, 0] == pytest.approx(LN2, abs=1e-12)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_empty_neighbors_returns_s(self):
        query = np.array([[0.3, 0.7]])
        out = smooth_features(query, [np.empty((0, 2))], SmoothingConfig(m=1))
        np.testing.assert_array_equal(out, query)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            smooth_one_patch([0.5, 0.5], one_patch_pool([0.2, 0.3, 0.5]), SmoothingConfig(m=1))


def grids_for(backend, ids, query="q"):
    retrieved = RetrievedSet(tuple((i, 1.0 - 0.1 * n) for n, i in enumerate(ids)), query_id=query)
    pool = build_pool(backend, retrieved, query)
    spec = PromptSpec(ids[0], ids[0] + ".out", query, backend.grid_shape)
    return backend.score(spec), pool


class TestSmoothGrid:
    def test_alpha_zero_equals_query_grid(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        out = smooth_grid(query_grid, pool, SmoothingConfig(m=3, alpha=0.0))
        np.testing.assert_array_equal(out.probs, query_grid.probs)

    def test_average_alpha_one_k_m_is_plain_mean(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        config = SmoothingConfig(m=3, k=3, alpha=1.0, aggregation=Aggregation.AVERAGE)
        out = smooth_grid(query_grid, pool, config)
        for l in range(pool.patch_count):
            mean = np.mean(pool.probs[:, l], axis=0)
            np.testing.assert_allclose(out.probs[l], mean, atol=1e-12)

    def test_nearest_equals_weighted_k1_exactly(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c", "d"])
        nearest = smooth_grid(
            query_grid, pool,
            SmoothingConfig(m=4, k=1, alpha=0.7, aggregation=Aggregation.NEAREST),
        )
        weighted = smooth_grid(
            query_grid, pool,
            SmoothingConfig(m=4, k=1, alpha=0.7, aggregation=Aggregation.WEIGHTED),
        )
        np.testing.assert_array_equal(nearest.probs, weighted.probs)

    def test_large_tau_weighted_approaches_average(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c", "d"])
        weighted = smooth_grid(
            query_grid, pool, SmoothingConfig(m=4, tau=1e6, aggregation=Aggregation.WEIGHTED)
        )
        average = smooth_grid(
            query_grid, pool, SmoothingConfig(m=4, aggregation=Aggregation.AVERAGE)
        )
        assert np.max(np.abs(weighted.probs - average.probs)) < 1e-6

    def test_monotone_trust_in_alpha(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        full = smooth_grid(query_grid, pool, SmoothingConfig(m=3, alpha=1.0))
        reference = np.max(np.abs(full.probs - query_grid.probs))
        for alpha in np.linspace(0.0, 1.0, 11):
            out = smooth_grid(query_grid, pool, SmoothingConfig(m=3, alpha=float(alpha)))
            deviation = np.max(np.abs(out.probs - query_grid.probs))
            assert deviation == pytest.approx(alpha * reference, abs=1e-12)

    def test_per_patch_scope_never_crosses_patches(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        out = smooth_grid(query_grid, pool, SmoothingConfig(m=3, k=2))
        assert out.patch.shape == (pool.patch_count, 2)
        for l, patches in enumerate(out.patch):
            assert all(patch == l for patch in patches)

    def test_all_patch_scope_can_cross_patches(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        out = smooth_grid(
            query_grid, pool, SmoothingConfig(m=3, k=4, scope=PoolScope.ALL_PATCH)
        )
        crossed = any(
            any(patch != l for patch in patches)
            for l, patches in enumerate(out.patch)
        )
        assert crossed

    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_patch_scope_matches_dense_brute_force_js(self, seed):
        rng = np.random.default_rng(seed)
        width, patches, size = 4, 49, 64
        query, pool = random_grid(rng, patches, size), random_pool(rng, width, patches, size)
        config = SmoothingConfig(m=width, k=4, alpha=0.8, tau=0.1, scope=PoolScope.ALL_PATCH)
        out = smooth_grid(query, pool, config)
        slots = [(pair, l) for pair in range(1, width + 1) for l in range(patches)]
        rows = [list(pool.probs[pair - 1, l]) for pair, l in slots]
        for l, s in enumerate(query.probs):
            distances = [oracle.js(row, list(s)) for row in rows]
            order = sorted(range(len(slots)), key=lambda j: (distances[j], slots[j]))[:config.k]
            weights = [math.exp(-(distances[j] - distances[order[0]]) / config.tau) for j in order]
            pooled = sum(w / sum(weights) * pool.probs[slots[j][0] - 1, slots[j][1]]
                         for w, j in zip(weights, order))
            assert list(zip(out.pair[l].tolist(), out.patch[l].tolist())) == [
                slots[j] for j in order
            ]
            np.testing.assert_allclose(out.probs[l], (1 - config.alpha) * s + config.alpha * pooled,
                                       rtol=0, atol=1e-12)

    def test_diagnostics_weights_sum_to_one(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        out = smooth_grid(query_grid, pool, SmoothingConfig(m=3))
        for weights in out.weight:
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_patch_count_mismatch(self):
        backend = StubScorer()
        query_grid, _ = grids_for(backend, ["a"])
        _, other_pool = grids_for(StubScorer(grid_shape=(1, 2)), ["a"])
        with pytest.raises(DimensionError):
            smooth_grid(query_grid, other_pool, SmoothingConfig(m=1))

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_closure_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        patches = int(rng.integers(1, 5))
        size = int(rng.integers(2, 12))
        width = int(rng.integers(1, 5))
        query = random_grid(rng, patches, size)
        pool = random_pool(rng, width, patches, size)
        config = SmoothingConfig(
            m=width,
            k=int(rng.integers(1, width + 1)),
            alpha=float(rng.uniform(0, 1)),
            tau=float(rng.uniform(0.05, 10)),
            aggregation=rng.choice(list(Aggregation)),
        )
        out = smooth_grid(query, pool, config)
        for row in out.probs:
            assert abs(row.sum() - 1.0) <= 1e-9
            assert np.all(row >= 0.0)


def dense_all_patch_js(query_grid, pool, config):
    """The all-patch JS smoothing as it ran without the float32 screen:
    the exact kernel on every (patch, candidate) pair, then the shared
    selection and blend."""
    width, patches = pool.width, pool.patch_count
    flat = pool.probs.reshape(width * patches, -1)
    # every candidate, in tie-break order: by pair index, then by patch
    order = np.argsort(pool.pair_indices, kind="stable")
    cached, index = negentropy(flat), (order[:, None] * patches + np.arange(patches)).ravel()
    distances = np.stack([pairwise_divergence(query_grid.probs, flat, l, index,
                                              pool_negentropy=cached)
                          for l in range(patches)])
    blended, chosen, distance, weight = _select_and_blend(
        query_grid.probs, distances, flat, index, config
    )
    totals = blended.sum(axis=1, keepdims=True)
    drifted = np.abs(totals[:, 0] - 1.0) > 1e-9
    blended[drifted] /= totals[drifted]
    return SmoothedGrid(probs=blended, pair=pool.pair_indices[chosen // patches],
                        patch=chosen % patches, distance=distance, weight=weight)


@st.composite
def screen_instances(draw):
    """A query grid, an all-patch JS config and a pool built to stress the
    screen: zero and subnormal entries, one-hot rows, duplicated entries,
    near-ties and pools of at most k candidates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, patches = draw(st.integers(2, 24)), draw(st.integers(1, 5))
    width = draw(st.integers(1, 4))
    rows = rng.dirichlet(np.full(size, draw(st.sampled_from([0.05, 0.5, 20.0]))),
                         size=(width + 1) * patches)
    rows[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    tiny = rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.2]))
    rows[tiny] = rng.choice([5e-324, 1e-310, 1e-300, 1e-40], size=int(tiny.sum()))
    hot = rng.random(len(rows)) < draw(st.sampled_from([0.0, 0.4]))
    hot |= ~(rows > 1e-300).any(axis=1)  # no row is left without a normal entry
    rows[hot] = 0.0
    rows[hot, rng.integers(size, size=int(hot.sum()))] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    for _ in range(draw(st.integers(0, 6))):  # duplicates, exact or nudged
        source, target = rng.integers(len(rows), size=2)
        rows[target] = rows[source]
        if draw(st.booleans()):
            i, j = rng.choice(size, 2, replace=False)
            moved = rows[target, i] * 10.0 ** -draw(st.integers(6, 15))
            rows[target, i] -= moved
            rows[target, j] += moved
    config = SmoothingConfig(
        m=width, k=draw(st.integers(1, 8)), alpha=draw(st.sampled_from([1.0, 0.7])),
        tau=draw(st.sampled_from([1.0, 0.01])),
        aggregation=draw(st.sampled_from(list(Aggregation))),
        scope=PoolScope.ALL_PATCH,
    )
    pool = PromptPool(probs=rows[patches:].reshape(width, patches, size),
                      pair_indices=rng.permutation(width) + 1, prompts=(), mode=PoolMode.Q, m=width)
    return ScoreGrid(probs=rows[:patches]), pool, config


SRC = str(Path(smoothing.__file__).resolve().parents[1])

#: Smooths one all-patch JS grid at |V| = 16,384, L = 4, W = 2, where each
#: patch's own pool entries are near its query row and the others far,
#: checks that the screen's band is finite, and saves the output and
#: whether the screen ruled a pair out (no survivor left its band).
BLAS_THREADS_CHILD = """
import sys
import numpy as np
from patchsmooth.divergence import _screen_band, _screen_sums, screened_js
from patchsmooth.pool import PoolMode, PromptPool, ScoreGrid
from patchsmooth.smoothing import PoolScope, SmoothingConfig, smooth_grid
rng = np.random.default_rng(16384)
logits = rng.standard_normal((4, 16384)) * 2.0 + 0.5 * rng.standard_normal((3, 4, 16384))
logits[:, np.arange(4), rng.integers(16384, size=4)] += 6.0
rows = np.exp(logits - logits.max(axis=2, keepdims=True))
rows /= rows.sum(axis=2, keepdims=True)
grid = ScoreGrid(probs=rows[0])
pool = PromptPool(probs=rows[1:], pair_indices=np.arange(1, 3), prompts=(), mode=PoolMode.Q, m=2)
config = SmoothingConfig(m=2, k=2, tau=0.1, scope=PoolScope.ALL_PATCH)
flat = pool.probs.reshape(8, -1)
assert np.isfinite(_screen_band(_screen_sums(grid.probs, flat), 16384)).all()
screened = np.isinf(screened_js(grid.probs, flat, config.k)).any()
out = smooth_grid(grid, pool, config)
np.savez(sys.argv[1], screened=screened,
         **{name: getattr(out, name) for name in ("probs", "pair", "patch", "distance", "weight")})
"""


def benchmark_score_rows(rng, prompts, patches, size):
    """(prompts * patches, size) rows of the vqgan-allpatch score model: a
    softmax of unit Gaussian logits, +4.0 on the patch's true token (one
    per patch, shared by every prompt) and +4.2 on each prompt's own pair
    token, rounded to float32 as score files store them."""
    logits = rng.standard_normal((prompts, patches, size))
    at = np.arange(prompts)[:, None], np.arange(patches)
    logits[(*at, rng.integers(size, size=patches))] += 4.0
    logits[(*at, rng.integers(size, size=(prompts, patches)))] += 4.2
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    scores = (e / e.sum(axis=2, keepdims=True)).astype(np.float32)
    return divergence.normalize_scores(scores.reshape(-1, size))


def assert_same_bits(got, expected):
    for name in ("probs", "pair", "patch", "distance", "weight"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestJsScreen:
    """The float32 screen of the all-patch JS path keeps the dense output."""

    @given(screen_instances())
    @settings(max_examples=150, deadline=None)
    def test_keeps_every_nearest_candidate_and_the_dense_output(self, instance):
        query_grid, pool, config = instance
        flat = pool.probs.reshape(pool.width * pool.patch_count, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            distances = screened_js(query_grid.probs, flat, config.k)
            expected = dense_all_patch_js(query_grid, pool, config)
            got = smooth_grid(query_grid, pool, config)
        assert distances.shape == (len(query_grid), len(flat))
        cached, index = negentropy(flat), np.arange(len(flat))
        for l in range(len(query_grid)):
            dense = pairwise_divergence(query_grid.probs, flat, l, index, pool_negentropy=cached)
            kept = np.flatnonzero(np.isfinite(distances[l]))
            assert distances[l, kept].tobytes() == dense[kept].tobytes()
            nearest = np.flatnonzero(dense <= np.sort(dense)[min(config.k, len(dense)) - 1])
            assert set(nearest) <= set(kept.tolist())
        assert_same_bits(got, expected)

    @staticmethod
    def spy_pairs(monkeypatch):
        """Record the pairs of every call of the exact kernel, each call's
        as the sorted list of flat indices r * N + c of its (r, c) pairs."""
        calls = []

        def counting(query, pool, rows, cols, *args, **kwargs):
            r, c = np.broadcast_arrays(rows, cols)
            calls.append(np.sort(r * len(pool) + c, axis=None).tolist())
            return pairwise_divergence(query, pool, rows, cols, *args, **kwargs)

        monkeypatch.setattr(divergence, "pairwise_divergence", counting)
        monkeypatch.setattr(smoothing, "pairwise_divergence", counting)
        return calls

    @staticmethod
    def assert_last_call_covers_every_pair(calls, pairs, count):
        """``count`` exact calls, and only the last over every pair, once each."""
        assert len(calls) == count
        assert [call == list(range(pairs)) for call in calls] == [False] * (count - 1) + [True]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_guard_recomputes_rows_whose_band_fails(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        width, patches, size = 3, 12, 48
        query_grid, pool = random_grid(rng, patches, size), random_pool(rng, width, patches, size)
        config = SmoothingConfig(m=width, k=3, tau=0.1, scope=PoolScope.ALL_PATCH)
        expected = dense_all_patch_js(query_grid, pool, config)
        # a zero-width band: every exact distance falls outside its band
        monkeypatch.setattr(divergence, "SCREEN_SAFETY", 0.0)
        calls = self.spy_pairs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth_grid(query_grid, pool, config)
        # the survivors, then every pair: all L * N distances are exact
        self.assert_last_call_covers_every_pair(calls, patches * width * patches, 2)
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_failed_band_sends_the_whole_call_dense(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        width, patches, size = 3, 12, 48
        query_grid, pool = random_grid(rng, patches, size), random_pool(rng, width, patches, size)
        config = SmoothingConfig(m=width, k=3, tau=0.1, scope=PoolScope.ALL_PATCH)
        expected = dense_all_patch_js(query_grid, pool, config)
        failing = int(rng.integers(patches))
        band = divergence._screen_band

        def one_zero_band(sums, width):
            # every call here screens all patches at once; only one loses its band
            assert len(sums) == patches
            out = band(sums, width)
            out[failing] = 0.0
            return out

        monkeypatch.setattr(divergence, "_screen_band", one_zero_band)
        calls = self.spy_pairs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth_grid(query_grid, pool, config)
        # one patch escapes, and every pair of every patch is recomputed
        self.assert_last_call_covers_every_pair(calls, patches * width * patches, 2)
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_dot_bound_sends_the_call_dense(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        width, patches, size = 3, 12, 48
        query_grid, pool = random_grid(rng, patches, size), random_pool(rng, width, patches, size)
        config = SmoothingConfig(m=width, k=3, tau=0.1, scope=PoolScope.ALL_PATCH)
        expected = dense_all_patch_js(query_grid, pool, config)
        monkeypatch.setattr(divergence, "_gamma32", lambda n: math.inf)
        calls = self.spy_pairs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth_grid(query_grid, pool, config)
        # an infinite band: every pair survives, in the one survivors' call
        self.assert_last_call_covers_every_pair(calls, patches * width * patches, 1)
        assert_same_bits(got, expected)

    def test_band_bound(self):
        # about 1e-3 nats at |V| = 1024 and typical sums; an infinite band
        # once the float32 dot has no bound, or its slope s reaches 1
        sums = np.array([[-12.0, -3.0]])
        assert divergence._screen_band(sums, 1024)[0, 0] == pytest.approx(9.2e-4, rel=1e-2)
        assert np.isfinite(divergence._screen_band(sums, 2**22)).all()
        assert math.isfinite(divergence._gamma32(2**23 - 1))
        assert divergence._gamma32(2**23) == math.inf
        for width in (2**23 - 1, 2**23):
            band = divergence._screen_band(sums, width)
            assert band.shape == sums.shape and np.all(band == np.inf)

    def test_screen_prunes_at_the_benchmark_shape(self):
        # L = 49, m = 4, |V| = 1024, k = 4 and the vqgan-allpatch score
        # model: a band derived too wide keeps most of the 196 candidates
        patches, width, size, k = 49, 4, 1024, 4
        rows = benchmark_score_rows(np.random.default_rng(196), width + 1, patches, size)
        query, flat = rows[:patches], rows[patches:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            screened = screened_js(query, flat, k)
        assert np.isfinite(divergence._screen_band(divergence._screen_sums(query, flat), size)).all()
        survivors = np.isfinite(screened).sum(axis=1)
        assert survivors.mean() <= 2 * k

    def test_output_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a dot longer than 10,000 elements across its
        # threads, so at |V| = 16,384 the screen's sums, and so its
        # survivors, may differ between one and two threads; the exact
        # distances, the selection and the blend must not. On a one-CPU
        # machine OpenBLAS may not start a second thread, and then this
        # cannot show a difference.
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD, str(out)], env=env,
                           check=True, timeout=300)
            with np.load(out) as saved:
                outputs.append(SimpleNamespace(**{name: saved[name] for name in saved.files}))
        assert outputs[0].screened and outputs[1].screened
        assert_same_bits(*outputs)

    def test_band_holds_for_every_pair_at_the_benchmark_shape(self):
        # L = 49, m = 4, |V| = 1024: the vqgan-allpatch shape and score
        # model, plus one-hot, zero-heavy, subnormal and near-duplicate rows
        rng = np.random.default_rng(49)
        patches, width, size = 49, 4, 1024
        # the query row and the pool rows of a patch share its true token;
        # each row has its own pair token
        logits = rng.standard_normal((width + 1, patches, size))
        at = np.arange(width + 1)[:, None], np.arange(patches)
        logits[(*at, rng.integers(size, size=patches))] += 4.0
        logits[(*at, rng.integers(size, size=(width + 1, patches)))] += 4.2
        rows = np.exp(logits - logits.max(axis=2, keepdims=True)).reshape(-1, size)
        rows = rows.astype(np.float32).astype(np.float64)
        picked = rng.permutation(len(rows))
        hot, sparse, tiny, near = np.split(picked[:4 * 24], 4)
        rows[hot] = 0.0
        rows[hot, rng.integers(size, size=len(hot))] = 1.0
        zeros, subnormal = np.zeros(rows.shape, bool), np.zeros(rows.shape, bool)
        zeros[sparse] = rng.random((len(sparse), size)) < 0.9
        subnormal[tiny] = rng.random((len(tiny), size)) < 0.3
        rows[zeros] = 0.0
        rows[subnormal] = rng.choice([5e-324, 1e-310, 1e-300, 1e-40], size=int(subnormal.sum()))
        rows /= rows.sum(axis=1, keepdims=True)
        for target in near:  # a copy of another row with a sliver of mass moved
            rows[target] = rows[rng.integers(len(rows))]
            i, j = np.argsort(rows[target])[-2:]
            moved = rows[target, i] * 10.0 ** -rng.integers(6, 16)
            rows[target, i] -= moved
            rows[target, j] += moved
        rows = divergence.simplex_rows(rows)
        query, flat = rows[:patches], rows[patches:]
        query_negentropy, pool_negentropy = negentropy(query), negentropy(flat)
        sums = divergence._screen_sums(query, flat)
        estimate = 0.5 * (pool_negentropy + query_negentropy[:, None])
        estimate -= 0.5 * sums - LN2
        exact = np.stack([pairwise_divergence(query, flat, l, np.arange(len(flat)),
                                              query_negentropy=query_negentropy,
                                              pool_negentropy=pool_negentropy)
                          for l in range(patches)])
        bound = divergence._screen_band(sums, size) / divergence.SCREEN_SAFETY
        assert np.all(np.abs(exact - estimate) <= bound)


class TestSmoothFeatures:
    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(0)
        query = rng.normal(size=(3, 4))
        pools = [rng.normal(size=(2, 4)) for _ in range(3)]
        out = smooth_features(query, pools, SmoothingConfig(m=2, alpha=0.0))
        np.testing.assert_array_equal(out, query)

    def test_symmetric_pool_collapses_weights(self):
        q = np.array([[0.0, 0.0]])
        v = np.array([1.0, 1.0])
        pools = [np.stack([v, v])]
        config = SmoothingConfig(m=2, k=2, alpha=0.5)
        out = smooth_features(q, pools, config)
        np.testing.assert_allclose(out[0], 0.5 * q[0] + 0.5 * v, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for agg in Aggregation:
            query = rng.normal(size=(4, 6))
            pools = [rng.normal(size=(5, 6)) for _ in range(4)]
            config = SmoothingConfig(m=5, k=3, alpha=0.6, tau=2.5, aggregation=agg)
            fast = smooth_features(query, pools, config)
            slow = oracle.brute_force_smooth_features(query, pools, config)
            assert np.max(np.abs(fast - slow)) <= 1e-9

    def test_ragged_pools_match_oracle(self):
        rng = np.random.default_rng(7)
        sizes = [0, 1, 2, 3, 5, 9]  # empty, single, fewer than k, k, more than k
        for agg in Aggregation:
            query = rng.normal(size=(len(sizes), 4))
            pools = [rng.normal(size=(n, 4)) for n in sizes]
            pools[-1][4] = pools[-1][1]  # an exact tie
            config = SmoothingConfig(m=9, k=3, alpha=0.7, tau=1.5, aggregation=agg)
            fast = smooth_features(query, pools, config)
            slow = oracle.brute_force_smooth_features(query, pools, config)
            assert np.max(np.abs(fast - slow)) <= 1e-9
            np.testing.assert_array_equal(fast[0], query[0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            smooth_features(np.zeros((2, 3)), [np.zeros((1, 4)), np.zeros((1, 3))],
                            SmoothingConfig(m=1))

    def test_zero_width_features_are_refused(self):
        with pytest.raises(DimensionError, match="V >= 1"):
            smooth_features(np.zeros((2, 0)), [np.zeros((1, 0)), np.zeros((2, 0))],
                            SmoothingConfig(m=2))


class TestAggregateSequences:
    def grid_of(self, *rows):
        return ScoreGrid(probs=np.array(rows, dtype=np.float64))

    def test_single_grid_unchanged(self):
        g = self.grid_of([0.25, 0.75])
        out = aggregate_sequences([g], SmoothingConfig.sequence_defaults())
        np.testing.assert_array_equal(out.probs[0], g.probs[0])

    def test_two_identical_grids_fixed_point(self):
        g = self.grid_of([0.25, 0.75], [0.6, 0.4])
        out = aggregate_sequences([g, self.grid_of([0.25, 0.75], [0.6, 0.4])],
                                  SmoothingConfig.sequence_defaults())
        np.testing.assert_allclose(out.probs, g.probs, atol=1e-14)

    def test_derived_two_sequence_weighted_sum(self):
        out = aggregate_sequences(
            [self.grid_of([1.0, 0.0]), self.grid_of([0.0, 1.0])],
            SmoothingConfig.sequence_defaults(alpha=0.8),
        )
        np.testing.assert_allclose(out.probs[0], [0.2, 0.8], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            aggregate_sequences(
                [self.grid_of([1.0, 0.0]), self.grid_of([0.5, 0.25, 0.25])],
                SmoothingConfig.sequence_defaults(),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_sequences([], SmoothingConfig.sequence_defaults())

    def test_grids_beyond_config_m_are_still_pooled(self):
        # four grids, m=2: grid 3 is the nearest and still blended in, as
        # it is at m=3
        grids = [self.grid_of(*rows) for rows in (
            [[0.25, 0.75], [0.5, 0.5]], [[0.9, 0.1], [0.45, 0.55]],
            [[0.8, 0.2], [0.1, 0.9]], [[0.3, 0.7], [0.6, 0.4]])]
        config = SmoothingConfig.sequence_defaults()
        assert config.m == 2 and config.k == 2
        out = aggregate_sequences(grids, config)
        assert out.pair.tolist() == [[3, 2], [1, 3]]
        pool = PromptPool(probs=np.stack([g.probs for g in grids[1:]]),
                          pair_indices=np.arange(1, 4), prompts=(), mode=None, m=3)
        assert_same_bits(out, smooth_grid(grids[0], pool, SmoothingConfig(m=3, k=2, alpha=0.8)))


def top_m_pool(pool, m):
    """The pool of the entries of the top-m pairs, built explicitly."""
    kept = pool.pair_indices <= m
    keys = {name: None if getattr(pool, name) is None else getattr(pool, name)[kept]
            for name in ("feature_keys", "patch_keys")}
    return PromptPool(probs=pool.probs[kept], pair_indices=pool.pair_indices[kept], prompts=(),
                      mode=pool.mode, m=m, **keys)


class TestTopMCandidates:
    """``config.m`` below some pair indices: only the top-m pairs' entries
    are candidates, exactly as in the pool of those entries alone."""

    def instance(self, seed, mode):
        rng = np.random.default_rng(seed)
        patches, size, m = 5, 64, 6
        if mode is PoolMode.Q:
            indices = np.arange(1, m + 1)
        else:  # RAND: m - 1 anchors, pair ranks in any order
            indices = rng.choice(np.arange(1, m + 1), size=m - 1, replace=False)
        # every entry is a copy of one of three rows (keys included), so
        # distance ties recur and the tie-break rank must follow the rows
        pick = rng.integers(3, size=(len(indices), patches))
        pool = PromptPool(probs=rng.dirichlet(np.full(size, 0.3), size=3)[pick],
                          pair_indices=indices, prompts=(), mode=mode, m=m,
                          feature_keys=rng.normal(size=(3, 3))[pick],
                          patch_keys=rng.normal(size=(3, 1))[pick])
        query = ScoreGrid(probs=rng.dirichlet(np.full(size, 0.3), size=patches),
                          feature_keys=rng.normal(size=(patches, 3)),
                          patch_keys=rng.normal(size=(patches, 1)))
        return query, pool

    @pytest.mark.parametrize("mode", [PoolMode.Q, PoolMode.RAND], ids=["q", "rand"])
    @pytest.mark.parametrize("key", [NeighborKey.SCORE, NeighborKey.FEATURE, NeighborKey.PATCH])
    @pytest.mark.parametrize("divergence", list(DivergenceKind))
    @pytest.mark.parametrize("scope", list(PoolScope))
    def test_equals_the_explicit_top_m_pool(self, scope, divergence, key, mode, monkeypatch):
        calls = []  # the pair shape of each of smooth_grid's own kernel calls

        def spy(kernel):
            def counting(query, candidates, rows, cols, *args, **kwargs):
                calls.append(np.broadcast(rows, cols).shape)
                return kernel(query, candidates, rows, cols, *args, **kwargs)
            return counting

        monkeypatch.setattr(smoothing, "pairwise_divergence", spy(smoothing.pairwise_divergence))
        screened = (scope, divergence, key) == (
            PoolScope.ALL_PATCH, DivergenceKind.JS, NeighborKey.SCORE)
        for seed, m in itertools.product(range(3), (1, 2, 4)):
            query, pool = self.instance(seed, mode)
            width = int((pool.pair_indices <= m).sum())
            if not width:
                continue
            for k in (1, 3):
                config = SmoothingConfig(m=m, k=k, alpha=0.7, tau=0.5, divergence=divergence,
                                         key=key, scope=scope)
                calls.clear()
                got = smooth_grid(query, pool, config)
                # one call over every (patch, candidate) pair, or none: the JS
                # screen makes its own
                per_patch = width * (pool.patch_count if scope is PoolScope.ALL_PATCH else 1)
                assert calls == ([] if screened else [(len(query), per_patch)])
                assert set(got.pair.ravel().tolist()) <= set(range(1, m + 1))
                assert_same_bits(got, smooth_grid(query, top_m_pool(pool, m), config))

    def test_no_entry_within_the_top_m_is_a_config_error(self):
        rng = np.random.default_rng(0)
        pool = PromptPool(probs=rng.dirichlet(np.ones(4), size=(2, 3)), pair_indices=[3, 4],
                          prompts=(), mode=PoolMode.RAND, m=4)
        for scope in PoolScope:
            with pytest.raises(ConfigError, match="top m=2"):
                smooth_grid(random_grid(rng, 3, 4), pool, SmoothingConfig(m=2, scope=scope))

    def test_m_at_or_above_the_pool_m_keeps_every_row(self):
        rng = np.random.default_rng(1)
        query, pool = random_grid(rng, 4, 6), random_pool(rng, 3, 4, 6)
        full = smooth_grid(query, pool, SmoothingConfig(m=3, k=3))
        assert_same_bits(smooth_grid(query, pool, SmoothingConfig(m=7, k=3)), full)


class TestSmoothConfigs:
    """The multi-config stage gives each config a lone ``smooth_grid``'s
    grid, bit for bit, from one distance matrix per group."""

    CONFIGS = (dict(m=1), dict(m=2), dict(m=4),
               dict(m=4, aggregation="nearest", tau=3.0, alpha=0.7, k=2),
               dict(m=4, aggregation="average", alpha=0.5))

    @staticmethod
    def instance(pair_indices, seed=0):
        """A query with zeros, so KL has +inf neighbours, and a pool whose
        entry of the lowest pair index shares them, so every config keeps
        one finite neighbour per patch."""
        rng = np.random.default_rng(seed)
        width, patches, size = len(pair_indices), 5, 6
        probs = rng.dirichlet(np.full(size, 0.5), size=(width, patches))
        shared = rng.random((width, patches)) < 0.5
        shared[np.argmin(pair_indices)] = True
        probs[..., 0] = np.where(shared, 0.0, probs[..., 0])
        query = rng.dirichlet(np.full(size, 0.5), size=patches)
        query[:, 0] = 0.0
        normalize = lambda a: a / a.sum(axis=-1, keepdims=True)
        pool = PromptPool(probs=normalize(probs), pair_indices=pair_indices, prompts=(),
                          mode=PoolMode.Q, m=4, feature_keys=rng.normal(size=(width, patches, 3)),
                          patch_keys=rng.normal(size=(width, patches, 1)))
        grid = ScoreGrid(probs=normalize(query), feature_keys=rng.normal(size=(patches, 3)),
                         patch_keys=rng.normal(size=(patches, 1)))
        return grid, pool

    @pytest.mark.parametrize("pair_indices", [[1, 2, 3, 4], [3, 1, 4, 2], [2, 3, 4]],
                             ids=["prefix", "permutation", "gap"])
    @pytest.mark.parametrize("key", list(NeighborKey))
    @pytest.mark.parametrize("divergence", list(DivergenceKind))
    @pytest.mark.parametrize("scope", list(PoolScope))
    def test_each_config_is_a_lone_smooth_grid(self, monkeypatch, scope, divergence, key,
                                               pair_indices):
        grid, pool = self.instance(pair_indices)
        configs = [SmoothingConfig(**c, divergence=divergence, key=key, scope=scope)
                   for c in self.CONFIGS]
        kept = [c for c in configs if (pool.pair_indices <= c.m).any()]
        lone = [smooth_grid(grid, pool, c) for c in kept]
        screens = []
        screened_js = smoothing.screened_js
        monkeypatch.setattr(smoothing, "screened_js",
                            lambda *args: screens.append(args) or screened_js(*args))
        together = smoothing._smooth_configs(grid, pool, kept)
        assert len(together) == len(kept)
        for got, want in zip(together, lone):
            assert_same_bits(got, want)
        screened = (scope, divergence, key) == (
            PoolScope.ALL_PATCH, DivergenceKind.JS, NeighborKey.SCORE)
        assert len(screens) == (len(kept) if screened else 0)
        for empty in (c for c in configs if c not in kept):  # m=1 of the gap pool
            with pytest.raises(ConfigError) as lone_error:
                smooth_grid(grid, pool, empty)
            with pytest.raises(ConfigError) as together_error:
                smoothing._smooth_configs(grid, pool, configs)
            assert str(together_error.value) == str(lone_error.value)
            assert "top m=1" in str(lone_error.value)

    @pytest.mark.parametrize("pair_indices", [[1, 2, 3, 4], [3, 1, 4, 2]],
                             ids=["prefix", "permutation"])
    @pytest.mark.parametrize("scope", list(PoolScope))
    def test_each_config_reads_a_prefix_view(self, monkeypatch, scope, pair_indices):
        # a config's candidates are a prefix of the widest config's: its
        # index, its distances (or, screened, the screen's candidate rows)
        # are views of the widest config's, of its own width
        grid, pool = self.instance(pair_indices)
        configs = [SmoothingConfig(m=m, scope=scope) for m in (1, 2, 4)]
        blends, screens = [], []
        select_and_blend, screened_js = smoothing._select_and_blend, smoothing.screened_js
        monkeypatch.setattr(smoothing, "_select_and_blend", lambda *args: blends.append(args)
                            or select_and_blend(*args))
        monkeypatch.setattr(smoothing, "screened_js", lambda *args: screens.append(args[1])
                            or screened_js(*args))
        smoothing._smooth_configs(grid, pool, configs)
        per_entry = pool.patch_count if scope is PoolScope.ALL_PATCH else 1
        widths = [m * per_entry for m in (1, 2, 4)]  # each pair index once
        views = {"index": [args[3] for args in blends]}
        if scope is PoolScope.ALL_PATCH:
            views["candidates"] = screens
            if pair_indices == sorted(pair_indices):  # already in pool order: not gathered
                assert np.shares_memory(screens[-1], pool.probs)
        else:
            views["distances"] = [args[1] for args in blends]
        for name, arrays in views.items():
            assert [len(a) if name == "candidates" else a.shape[-1] for a in arrays] == widths, name
            assert all(np.shares_memory(a, arrays[-1]) for a in arrays), name
