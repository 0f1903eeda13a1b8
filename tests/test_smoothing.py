import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubScorer
from patchsmooth.divergence import LN2
from patchsmooth.errors import ConfigError, DimensionError, ValidationError
from patchsmooth.pool import PoolMode, PromptPool, PromptSpec, ScoreGrid, build_pool
from patchsmooth.retrieval import RetrievedSet
from patchsmooth.smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothingConfig,
    aggregate_sequences,
    smooth_features,
    smooth_grid,
    softmax_weights,
)
from patchsmooth.synthbench import _bf_js


def one_patch_pool(*rows, feature_keys=None):
    """A single-patch pool whose entry j is ``rows[j]``, from pair j + 1."""
    probs = np.array(rows, dtype=np.float64)[:, None, :]
    keys = None if feature_keys is None else np.array(feature_keys, dtype=np.float64)[:, None, :]
    return PromptPool(probs=probs, pair_indices=np.arange(1, len(rows) + 1), prompts=(),
                      mode=PoolMode.Q, m=len(rows), feature_keys=keys)


def smooth_one_patch(query, pool, config, feature_keys=None):
    """Smooth a one-patch grid; returns (smoothed row, neighbor diagnostics)."""
    keys = None if feature_keys is None else np.array([feature_keys], dtype=np.float64)
    grid = ScoreGrid(probs=np.array([query], dtype=np.float64), feature_keys=keys)
    out = smooth_grid(grid, pool, config)
    return out.probs[0], out.diagnostics[0]


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


class TestKnnSelect:
    """Neighbor selection, read from the smoothing diagnostics."""

    def test_query_itself_ranks_first(self):
        pool = one_patch_pool([0.7, 0.3], [0.3, 0.7], [0.5, 0.5])
        _, got = smooth_one_patch([0.3, 0.7], pool, SmoothingConfig(m=3, k=1))
        assert got[0][0] == 2
        assert got[0][2] == 0.0

    def test_derived_js_ordering(self):
        pool = one_patch_pool([0.5, 0.5], [0, 1], [1, 0])  # A, B, C
        _, got = smooth_one_patch([1, 0], pool, SmoothingConfig(m=3, k=2))
        assert [n[0] for n in got] == [3, 1]
        assert got[0][2] == 0.0
        assert got[1][2] == pytest.approx(0.215761554339, abs=1e-9)

    def test_k_equal_pool_size_returns_all_sorted(self):
        pool = one_patch_pool([0, 1], [1, 0], [0.5, 0.5])
        _, got = smooth_one_patch([1, 0], pool, SmoothingConfig(m=3, k=3))
        assert [n[0] for n in got] == [2, 3, 1]
        d = [n[2] for n in got]
        assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))

    def test_k_clamps_to_pool_size(self):
        _, got = smooth_one_patch([1, 0], one_patch_pool([0.5, 0.5]), SmoothingConfig(m=1, k=10))
        assert len(got) == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            PromptPool(probs=np.empty((0, 1, 2)), pair_indices=[], prompts=(),
                       mode=PoolMode.Q, m=1)

    def test_tie_break_by_pair_index(self):
        pool = one_patch_pool([0.4, 0.6], [0.4, 0.6])
        _, got = smooth_one_patch([0.5, 0.5], pool, SmoothingConfig(m=2, k=1))
        assert got[0][0] == 1

    def test_kl_infinite_sorts_last(self):
        config = SmoothingConfig(m=2, divergence=DivergenceKind.KL)
        pool = one_patch_pool([0.5, 0.5], [1, 0])
        _, got = smooth_one_patch([1, 0], pool, config)
        assert got[0][0] == 2
        assert got[1][2] == math.inf
        assert got[1][3] == 0.0

    def test_feature_key_l2(self):
        config = SmoothingConfig(m=2, key=NeighborKey.FEATURE)
        pool = one_patch_pool([1, 0], [0, 1], feature_keys=[[3.0, 4.0], [0.0, 1.0]])
        _, got = smooth_one_patch([0.5, 0.5], pool, config, feature_keys=[0.0, 0.0])
        assert [n[0] for n in got] == [2, 1]
        assert got[1][2] == pytest.approx(5.0)

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
        assert got[0][2] == pytest.approx(LN2, abs=1e-12)
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
        for l, diag in enumerate(out.diagnostics):
            assert all(patch == l for _, patch, _, _ in diag)

    def test_all_patch_scope_can_cross_patches(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        out = smooth_grid(
            query_grid, pool, SmoothingConfig(m=3, k=4, scope=PoolScope.ALL_PATCH)
        )
        crossed = any(
            any(patch != l for _, patch, _, _ in diag)
            for l, diag in enumerate(out.diagnostics)
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
            distances = [_bf_js(row, list(s)) for row in rows]
            order = sorted(range(len(slots)), key=lambda j: (distances[j], slots[j]))[:config.k]
            weights = [math.exp(-(distances[j] - distances[order[0]]) / config.tau) for j in order]
            pooled = sum(w / sum(weights) * pool.probs[slots[j][0] - 1, slots[j][1]]
                         for w, j in zip(weights, order))
            assert [(pair, patch) for pair, patch, _, _ in out.diagnostics[l]] == [
                slots[j] for j in order
            ]
            np.testing.assert_allclose(out.probs[l], (1 - config.alpha) * s + config.alpha * pooled,
                                       rtol=0, atol=1e-12)

    def test_diagnostics_weights_sum_to_one(self):
        backend = StubScorer()
        query_grid, pool = grids_for(backend, ["a", "b", "c"])
        out = smooth_grid(query_grid, pool, SmoothingConfig(m=3))
        for diag in out.diagnostics:
            assert sum(w for *_, w in diag) == pytest.approx(1.0, abs=1e-9)

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
        from patchsmooth.synthbench import brute_force_smooth_features

        rng = np.random.default_rng(42)
        for agg in Aggregation:
            query = rng.normal(size=(4, 6))
            pools = [rng.normal(size=(5, 6)) for _ in range(4)]
            config = SmoothingConfig(m=5, k=3, alpha=0.6, tau=2.5, aggregation=agg)
            fast = smooth_features(query, pools, config)
            slow = brute_force_smooth_features(query, pools, config)
            assert np.max(np.abs(fast - slow)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            smooth_features(np.zeros((2, 3)), [np.zeros((1, 4)), np.zeros((1, 3))],
                            SmoothingConfig(m=1))


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
