import ast
import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_selection
from oracle import brute_force_smooth
from patchsmooth import errors, smoothing, synthbench
from patchsmooth import pool as pool_module
from patchsmooth.divergence import pairwise_divergence
from patchsmooth.errors import ConfigError, MissingItemError
from patchsmooth.metrics import eval_reports
from patchsmooth.pipeline import load_config, run_pipeline, synth_world
from patchsmooth.pool import PoolMode, PromptPool, PromptSpec, ScoreGrid, build_pool
from patchsmooth.retrieval import RetrievedSet, top_m
from patchsmooth.smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothingConfig,
    smooth_grid,
)
from patchsmooth.synthbench import (
    BiasedScorerParams,
    SyntheticScorerBackend,
    generate_world,
    run_bias_experiment,
    run_seed_sweep,
    synthetic_score,
)


def world_for(seed=0, rows=2, cols=2, size=4, items=8, task="identity"):
    return generate_world(seed, rows, cols, size, items, task)


class TestGenerateWorld:
    def test_same_seed_bitwise_identical(self):
        a = world_for(seed=11)
        b = world_for(seed=11)
        assert a.support_ids == b.support_ids
        assert a.query_ids == b.query_ids
        for ident in a.items:
            assert a.items[ident].input_tokens.tobytes() == b.items[ident].input_tokens.tobytes()
            assert a.items[ident].features.tobytes() == b.items[ident].features.tobytes()

    def test_different_seeds_differ(self):
        a, b = world_for(seed=1), world_for(seed=2)
        assert any(
            a.items[i].input_tokens.tobytes() != b.items[i].input_tokens.tobytes()
            for i in a.items
        )

    def test_identity_task_outputs_equal_inputs(self):
        world = world_for(size=2, task="identity")
        for item in world.items.values():
            np.testing.assert_array_equal(item.input_tokens, item.output_tokens)

    def test_shift_task(self):
        world = world_for(size=5, task="shift")
        for item in world.items.values():
            np.testing.assert_array_equal(item.output_tokens, (item.input_tokens + 1) % 5)

    def test_reverse_task(self):
        world = world_for(size=5, task="reverse")
        for item in world.items.values():
            np.testing.assert_array_equal(item.output_tokens, 4 - item.input_tokens)

    def test_patch_count_arithmetic(self):
        world = world_for(rows=4, cols=4)
        assert world.patch_count == 16
        assert all(len(i.input_tokens) == 16 for i in world.items.values())

    def test_partition_covers_all_items(self):
        world = world_for(items=10)
        assert len(world.support_ids) + len(world.query_ids) == 10
        assert set(world.support_ids).isdisjoint(world.query_ids)
        assert len(world.query_ids) >= 1

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            world_for(items=1)
        with pytest.raises(ConfigError):
            world_for(size=1)
        with pytest.raises(ConfigError):
            world_for(task="nope")
        with pytest.raises(ConfigError):
            generate_world(0, 0, 2, 4, 8)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed"):
            generate_world(-1, 2, 2, 4, 8)

    @pytest.mark.parametrize("task, rule", [
        ("identity", lambda t, size: t),
        ("shift", lambda t, size: (t + 1) % size),
        ("reverse", lambda t, size: size - 1 - t),
    ], ids=["identity", "shift", "reverse"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_items_follow_their_own_streams(self, task, rule, seed):
        # item i draws its tokens, then its feature noise, from child i of
        # the seed's SeedSequence; the last child is the split's
        rows, cols, size, n_items = 2, 3, 5, 9
        world = generate_world(seed, rows, cols, size, n_items, task)
        children = np.random.SeedSequence(seed).spawn(n_items + 1)
        for i in range(n_items):
            rng = np.random.default_rng(children[i])
            tokens = rng.integers(0, size, size=rows * cols)
            features = np.zeros((size, rows, cols))
            for patch, token in enumerate(tokens):
                features[token, patch // cols, patch % cols] = 1.0
            features += synthbench.FEATURE_NOISE * rng.normal(size=(size, rows, cols))
            item = world.item(f"item{i:04d}")
            for got, want in ((item.input_tokens, tokens), (item.output_tokens, rule(tokens, size)),
                              (item.features, features)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable


class TestBiasedScorerParams:
    def test_normalized_on_construction(self):
        p = BiasedScorerParams(beta_truth=2.0, beta_pair=1.0, epsilon_noise=1.0)
        assert p.beta_truth + p.beta_pair + p.epsilon_noise == pytest.approx(1.0)
        assert p.beta_truth == pytest.approx(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            BiasedScorerParams(beta_truth=-0.1, beta_pair=0.6, epsilon_noise=0.5)

    @pytest.mark.parametrize("weights", [(1.0, np.nan, 0.0), (1.0, np.inf, 0.0),
                                         (np.nan, 0.5, 0.5), (1.0, 0.0, -np.inf)])
    def test_rejects_non_finite(self, weights):
        with pytest.raises(ConfigError, match="finite"):
            BiasedScorerParams(*weights)


def prompt_for(world, pair_id, anchor_id):
    return PromptSpec(pair_id, pair_id + ".out", anchor_id, world.grid)


class TestSyntheticScore:
    def test_unbiased_limit_is_onehot_truth(self):
        world = world_for()
        params = BiasedScorerParams(beta_truth=1.0, beta_pair=0.0, epsilon_noise=0.0)
        pair, anchor = world.support_ids[0], world.query_ids[0]
        grid = synthetic_score(world, params, prompt_for(world, pair, anchor))
        truth = world.items[anchor].output_tokens
        for l, row in enumerate(grid.probs):
            assert row[truth[l]] == 1.0

    def test_maximal_bias_is_onehot_pair_token(self):
        world = world_for()
        params = BiasedScorerParams(beta_truth=0.0, beta_pair=1.0, epsilon_noise=0.0)
        pair, anchor = world.support_ids[0], world.query_ids[0]
        grid = synthetic_score(world, params, prompt_for(world, pair, anchor))
        pair_tokens = world.items[pair].output_tokens
        for l, row in enumerate(grid.probs):
            assert row[pair_tokens[l]] == 1.0

    def test_derived_mixture_values(self):
        world = world_for(size=4, items=12)
        params = BiasedScorerParams(beta_truth=0.45, beta_pair=0.45, epsilon_noise=0.1)
        found = False
        for pair in world.support_ids:
            for anchor in world.query_ids:
                grid = synthetic_score(world, params, prompt_for(world, pair, anchor))
                truth = world.items[anchor].output_tokens
                tokens = world.items[pair].output_tokens
                for l, row in enumerate(grid.probs):
                    if truth[l] != tokens[l]:
                        found = True
                        assert row[truth[l]] == pytest.approx(0.475, abs=1e-12)
                        assert row[tokens[l]] == pytest.approx(0.475, abs=1e-12)
                        others = [v for i, v in enumerate(row) if i not in (truth[l], tokens[l])]
                        np.testing.assert_allclose(others, 0.025, atol=1e-12)
        assert found, "no patch with truth != pair token in this world"

    def test_determinism_bitwise(self):
        world = world_for()
        params = BiasedScorerParams(0.45, 0.45, 0.1, similarity_coupling=0.3)
        prompt = prompt_for(world, world.support_ids[0], world.query_ids[0])
        a = synthetic_score(world, params, prompt)
        b = synthetic_score(world, params, prompt)
        assert a.probs.tobytes() == b.probs.tobytes()

    def test_similarity_coupling_shifts_mass_to_pair(self):
        world = world_for(items=12)
        plain = BiasedScorerParams(0.45, 0.45, 0.1)
        coupled = BiasedScorerParams(0.45, 0.45, 0.1, similarity_coupling=1.0)
        pair, anchor = world.support_ids[0], world.query_ids[0]
        g0 = synthetic_score(world, plain, prompt_for(world, pair, anchor))
        g1 = synthetic_score(world, coupled, prompt_for(world, pair, anchor))
        truth = world.items[anchor].output_tokens
        tokens = world.items[pair].output_tokens
        for l in range(world.patch_count):
            if truth[l] != tokens[l]:
                assert g1.probs[l, truth[l]] < g0.probs[l, truth[l]]
                assert g1.probs[l, tokens[l]] > g0.probs[l, tokens[l]]

    def test_unknown_ids_rejected(self):
        world = world_for()
        params = BiasedScorerParams(0.45, 0.45, 0.1)
        with pytest.raises(MissingItemError):
            synthetic_score(world, params, PromptSpec("ghost", "ghost.out", world.query_ids[0], world.grid))
        with pytest.raises(MissingItemError):
            synthetic_score(
                world, params,
                PromptSpec(world.support_ids[0], "wrong.out", world.query_ids[0], world.grid),
            )


def random_instance(rng, max_patches=6, max_width=5, max_size=10):
    patches = int(rng.integers(1, max_patches + 1))
    size = int(rng.integers(2, max_size + 1))
    width = int(rng.integers(1, max_width + 1))
    feat_dim, patch_dim = int(rng.integers(1, 5)), int(rng.integers(1, 4))

    def one_grid():
        return (
            np.stack([rng.dirichlet(np.ones(size)) for _ in range(patches)]),
            rng.normal(size=(patches, feat_dim)),
            rng.normal(size=(patches, patch_dim)),
        )

    query_d, query_f, query_p = one_grid()
    # query strictly positive already (dirichlet); keeps KL finite
    query = ScoreGrid(probs=query_d, feature_keys=query_f, patch_keys=query_p)

    pairs = [one_grid() for _ in range(width)]
    if width >= 2 and rng.random() < 0.3:
        pairs[1] = pairs[0]  # exact duplicate exercises tie-breaking
    probs, feature_keys, patch_keys = (np.stack(part) for part in zip(*pairs))
    pool = PromptPool(probs=probs, pair_indices=np.arange(1, width + 1), prompts=(),
                      mode=PoolMode.Q, m=width, feature_keys=feature_keys, patch_keys=patch_keys)
    return query, pool, width


#: All the oracle may take from the library: its input types, the smoothing
#: enums and the error types; nothing that computes or holds a result.
ORACLE_MAY_IMPORT = {
    ScoreGrid, PromptPool, SmoothingConfig, Aggregation, DivergenceKind, NeighborKey, PoolScope,
    *(value for value in vars(errors).values()
      if isinstance(value, type) and issubclass(value, Exception)),
}


def library_imports(path):
    """(module, name) of every import in ``path`` that reaches the library;
    name is None for a whole module."""
    found = []
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.partition(".")[0] == "patchsmooth"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "patchsmooth"):
            found += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return found


class TestBruteForceOracle:
    def test_imports_only_inputs_from_the_library(self):
        found = library_imports(Path(__file__).with_name("oracle.py"))
        assert found
        for module, name in found:
            assert not module.startswith(".") and name is not None, (module, name)
            value = getattr(importlib.import_module(module), name)
            assert any(value is allowed for allowed in ORACLE_MAY_IMPORT), (module, name)

    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(0)
        query, pool, width = random_instance(rng)
        out = brute_force_smooth(query, pool, SmoothingConfig(m=width, alpha=0.0))
        np.testing.assert_array_equal(out.probs, query.probs)

    def test_nearest_equals_weighted_k1(self):
        rng = np.random.default_rng(1)
        query, pool, width = random_instance(rng)
        nearest = brute_force_smooth(
            query, pool, SmoothingConfig(m=width, k=1, aggregation=Aggregation.NEAREST)
        )
        weighted = brute_force_smooth(
            query, pool, SmoothingConfig(m=width, k=1, aggregation=Aggregation.WEIGHTED)
        )
        np.testing.assert_array_equal(nearest.probs, weighted.probs)

    def test_full_variant_cross_product(self):
        rng = np.random.default_rng(2024)
        combos = list(
            itertools.product(DivergenceKind, Aggregation, PoolScope, NeighborKey)
        )
        for divergence, aggregation, scope, key in combos:
            for _ in range(3):
                query, pool, width = random_instance(rng)
                k = int(rng.integers(1, width + 2))  # sometimes clamps
                config = SmoothingConfig(
                    m=width,
                    k=k,
                    alpha=float(rng.uniform(0, 1)),
                    tau=float(rng.uniform(0.1, 5)),
                    divergence=divergence,
                    aggregation=aggregation,
                    scope=scope,
                    key=key,
                )
                fast = smooth_grid(query, pool, config)
                slow = brute_force_smooth(query, pool, config)
                assert np.max(np.abs(fast.probs - slow.probs)) <= 1e-9
                assert_same_selection(fast, slow)

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_ties_break_alike(self, seed):
        # Every pool entry is a copy of one of three rows (keys included), so
        # equal distances recur across pairs and patches, also at the k-th
        # place; both paths must cut them by (distance, pair, patch).
        rng = np.random.default_rng(seed)
        patches, size, width = 6, 5, 4
        bank_probs = rng.dirichlet(np.ones(size), size=3)
        bank_feature, bank_patch = rng.normal(size=(3, 2)), rng.normal(size=(3, 3))
        pick = rng.integers(3, size=(width, patches))
        pool = PromptPool(probs=bank_probs[pick], pair_indices=rng.permutation(width) + 1,
                          prompts=(), mode=PoolMode.Q, m=width,
                          feature_keys=bank_feature[pick], patch_keys=bank_patch[pick])
        query = ScoreGrid(probs=rng.dirichlet(np.ones(size), size=patches),
                          feature_keys=rng.normal(size=(patches, 2)),
                          patch_keys=rng.normal(size=(patches, 3)))
        combos = itertools.product(DivergenceKind, Aggregation, PoolScope, NeighborKey)
        for divergence, aggregation, scope, key in combos:
            for k in (1, 2, 3, 5, 7):
                config = SmoothingConfig(m=width, k=k, alpha=0.6, tau=0.5, divergence=divergence,
                                         aggregation=aggregation, scope=scope, key=key)
                fast = smooth_grid(query, pool, config)
                slow = brute_force_smooth(query, pool, config)
                assert np.max(np.abs(fast.probs - slow.probs)) <= 1e-9
                assert_same_selection(fast, slow)


def accuracy(rows, arm):
    """The ``{arm}_accuracy`` aggregate of one config's outcome rows."""
    return {r.metric: r for r in eval_reports(rows, {})}[f"{arm}_accuracy"].aggregate


class TestBiasExperiment:
    params = BiasedScorerParams(beta_truth=0.45, beta_pair=0.45, epsilon_noise=0.1)

    def test_rows_and_determinism(self):
        world = world_for(rows=2, cols=2, size=4, items=10)
        grid = [SmoothingConfig(m=2), SmoothingConfig(m=4)]
        a = run_bias_experiment(world, self.params, grid, n_queries=2, seed=5)
        b = run_bias_experiment(world, self.params, grid, n_queries=2, seed=5)
        assert len(a) == len(b) == 2
        for rows_a, rows_b in zip(a, b):
            assert len(rows_a) == len(rows_b) == 2
            for row_a, row_b in zip(rows_a, rows_b):
                assert row_a.keys() == row_b.keys() == {
                    "query", "baseline_tokens", "smoothed_tokens", "truth", "smoothed_probs"}
                assert row_a["query"] == row_b["query"]
                assert row_a["smoothed_probs"].shape == (world.patch_count, world.codebook.size)
                assert row_a["smoothed_probs"].tobytes() == row_b["smoothed_probs"].tobytes()
                assert not row_a["smoothed_probs"].flags.writeable
                for key in ("baseline_tokens", "smoothed_tokens", "truth"):
                    assert isinstance(row_a[key], np.ndarray)
                    assert row_a[key].shape == (world.patch_count,)
                    assert row_a[key].tobytes() == row_b[key].tobytes()
        # every config sees the same queries, baseline and truth
        for row_m2, row_m4 in zip(*a):
            assert row_m2["query"] == row_m4["query"]
            np.testing.assert_array_equal(row_m2["baseline_tokens"], row_m4["baseline_tokens"])
            np.testing.assert_array_equal(row_m2["truth"], world.item(row_m2["query"]).output_tokens)

    def test_unbiased_world_smoothing_never_hurts(self):
        world = world_for(rows=2, cols=2, size=4, items=10)
        unbiased = BiasedScorerParams(beta_truth=1.0, beta_pair=0.0, epsilon_noise=0.0)
        [rows] = run_bias_experiment(world, unbiased, [SmoothingConfig(m=3)], n_queries=2, seed=0)
        assert accuracy(rows, "smoothed") >= accuracy(rows, "baseline") - 1e-12
        assert accuracy(rows, "smoothed") == 1.0

    def test_unbiased_world_argmax_truth_any_hyperparams(self):
        world = world_for(rows=2, cols=2, size=4, items=10)
        unbiased = BiasedScorerParams(beta_truth=1.0, beta_pair=0.0, epsilon_noise=0.0)
        for alpha, k, tau in [(0.0, 1, 1.0), (0.5, 2, 0.1), (1.0, 3, 50.0)]:
            [rows] = run_bias_experiment(
                world, unbiased,
                [SmoothingConfig(m=3, k=k, alpha=alpha, tau=tau)],
                n_queries=2, seed=0,
            )
            assert accuracy(rows, "smoothed") == 1.0

    def test_nobias_with_noise_smoothing_is_identity(self):
        # all pool entries equal the query score, so any blend reproduces it
        world = world_for(rows=2, cols=2, size=4, items=10)
        params = BiasedScorerParams(beta_truth=0.9, beta_pair=0.0, epsilon_noise=0.1)
        [rows] = run_bias_experiment(world, params, [SmoothingConfig(m=3)], n_queries=2, seed=0)
        assert accuracy(rows, "smoothed") == pytest.approx(accuracy(rows, "baseline"), abs=1e-12)

    def test_average_linearity_of_truth_mass(self):
        world = world_for(rows=2, cols=2, size=4, items=12)
        backend = SyntheticScorerBackend(world, self.params)
        query = world.query_ids[0]
        retrieved = top_m(world.feature_vector(query), world.support_index(), 4)
        pool = build_pool(backend, retrieved, query)
        s = backend.score(prompt_for(world, retrieved.ids[0], query))
        config = SmoothingConfig(m=4, k=4, alpha=1.0, aggregation=Aggregation.AVERAGE)
        out = smooth_grid(s, pool, config)
        truth = world.items[query].output_tokens
        for l in range(world.patch_count):
            pool_mass = np.mean(pool.probs[:, l, truth[l]])
            assert out.probs[l, truth[l]] == pytest.approx(pool_mass, abs=1e-12)

    def test_sweep_scores_each_prompt_once(self, monkeypatch):
        # one array pass scores every mode-q prompt at the largest m; the
        # sweep builds no per-query pool and calls no scorer backend
        calls = []
        score_prompts = synthbench._score_prompts

        def counted(world, params, pair_ids, anchor_ids):
            calls.append((pair_ids, anchor_ids))
            return score_prompts(world, params, pair_ids, anchor_ids)

        def refused(*args, **kwargs):
            raise AssertionError("the sweep scored a prompt outside its array pass")

        monkeypatch.setattr(synthbench, "_score_prompts", counted)
        monkeypatch.setattr(pool_module, "build_pool", refused)
        monkeypatch.setattr(SyntheticScorerBackend, "score", refused)
        world = world_for(rows=2, cols=2, size=4, items=16)
        grid = [SmoothingConfig(m=m, scope=scope) for m in (1, 2, 4) for scope in ("patch", "all")]
        outcomes = run_bias_experiment(world, self.params, grid, n_queries=3, seed=0)
        [(pair_ids, anchor_ids)] = calls
        # pairs 1..4 (the largest m) of each of 3 queries; pair 1 gives the baseline
        assert np.shape(pair_ids) == (4, 3) and len(anchor_ids) == 3
        prompts = {(pair, anchor) for row in pair_ids for pair, anchor in zip(row, anchor_ids)}
        assert len(prompts) == 3 * 4
        assert accuracy(outcomes[0], "smoothed") == accuracy(outcomes[0], "baseline")

    @staticmethod
    def loop_probs(world, params, pair, anchor):
        """The mixture of one prompt, patch by patch: the reference."""
        beta_truth, beta_pair = params.beta_truth, params.beta_pair
        if params.similarity_coupling > 0.0:
            sim = float(np.dot(world.feature_vector(anchor).values,
                               world.feature_vector(pair).values))
            shift = params.similarity_coupling * (1.0 - (sim + 1.0) / 2.0) * beta_truth
            beta_truth, beta_pair = beta_truth - shift, beta_pair + shift
        size = world.codebook.size
        rows = []
        for truth, token in zip(world.item(anchor).output_tokens, world.item(pair).output_tokens):
            row = np.full(size, params.epsilon_noise / size)
            row[truth] += beta_truth
            row[token] += beta_pair
            rows.append(row / row.sum())
        return np.array(rows)

    @pytest.mark.parametrize("task", sorted(synthbench.TASK_RULES))
    @pytest.mark.parametrize("coupling", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_prompt_score_is_its_row_of_the_array_pass(self, seed, coupling, task):
        world = world_for(seed=seed, rows=3, cols=2, size=5, items=16, task=task)
        params = BiasedScorerParams(0.45, 0.45, 0.1, similarity_coupling=coupling)
        anchors = world.query_ids[:3]
        pair_ids = [world.support_ids[j:j + 3] for j in range(4)]  # (W, Q) = (4, 3)
        arrays = synthbench._score_prompts(world, params, pair_ids, anchors)
        patches = world.patch_count
        for j, q in itertools.product(range(4), range(3)):
            grid = synthetic_score(world, params, prompt_for(world, pair_ids[j][q], anchors[q]))
            rows = slice(q * patches, (q + 1) * patches)
            for got, array in zip((grid.probs, grid.feature_keys, grid.patch_keys), arrays):
                assert (got.shape, got.tobytes()) == (array[j, rows].shape, array[j, rows].tobytes())
            want = self.loop_probs(world, params, pair_ids[j][q], anchors[q])
            assert grid.probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("coupling", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_pool_is_build_pools_side_by_side(self, monkeypatch, seed, coupling):
        # the per-patch config's pool is the queries' build_pool pools on
        # the patch axis, holding the array pass's own arrays
        made, pools = [], []
        score_prompts, smooth = synthbench._score_prompts, synthbench._smooth_configs
        monkeypatch.setattr(synthbench, "_score_prompts",
                            lambda *args: made.append(score_prompts(*args)) or made[-1])
        monkeypatch.setattr(synthbench, "_smooth_configs",
                            lambda grid, pool, configs: pools.append(pool)
                            or smooth(grid, pool, configs))
        world = world_for(seed=seed, rows=3, cols=3, size=5, items=20)
        params = BiasedScorerParams(0.45, 0.45, 0.1, similarity_coupling=coupling)
        [rows] = run_bias_experiment(world, params, [SmoothingConfig(m=4)], n_queries=3, seed=seed)
        [joint], [(probs, feature_keys, patch_keys)] = pools, made
        assert joint.probs is probs
        assert joint.feature_keys is feature_keys and joint.patch_keys is patch_keys
        scorer, index = SyntheticScorerBackend(world, params), world.support_index()
        own = [build_pool(scorer, top_m(world.feature_vector(r["query"]), index, 4), r["query"])
               for r in rows]
        for name in ("probs", "feature_keys", "patch_keys"):
            got = getattr(joint, name)
            want = np.concatenate([getattr(pool, name) for pool in own], axis=1)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        assert joint.pair_indices.tolist() == own[0].pair_indices.tolist() == [1, 2, 3, 4]
        assert (joint.mode, joint.m, joint.prompts) == (PoolMode.Q, 4, ())

    @pytest.mark.parametrize("scopes, groups", [(["patch"], 1), (["all"], 3),
                                                 (["patch", "all", "patch"], 4)],
                             ids=["per-patch", "all-patch", "both"])
    def test_baseline_grid_built_once_per_smoothing_group(self, monkeypatch, scopes, groups):
        # one joint group holds every query in the per-patch scope; the
        # all-patch scope has one group per query
        built = []
        baseline = synthbench._baseline
        monkeypatch.setattr(synthbench, "_baseline", lambda pool: built.append(pool) or baseline(pool))
        world = world_for(rows=2, cols=2, size=4, items=16)
        grid = [SmoothingConfig(m=m, scope=scope) for m in (1, 2, 4) for scope in scopes]
        run_bias_experiment(world, self.params, grid, n_queries=3, seed=0)
        assert len(built) == groups

    def test_one_smooth_grid_call_per_smoothing_group(self, monkeypatch):
        # one multi-config call per smoothing group, the per-patch group and
        # one all-patch group per query, each carrying all of its configs
        calls = []
        smooth = synthbench._smooth_configs
        monkeypatch.setattr(synthbench, "_smooth_configs",
                            lambda grid, pool, configs: calls.append((pool, configs))
                            or smooth(grid, pool, configs))
        world = world_for(rows=2, cols=2, size=4, items=16)
        grid = [SmoothingConfig(m=m, scope=scope) for m in (1, 2, 4) for scope in ("patch", "all")]
        run_bias_experiment(world, self.params, grid, n_queries=3, seed=0)
        per_config = [sum(c is config for _, configs in calls for c in configs) for config in grid]
        assert per_config == [1, 3] * 3
        assert len(calls) == 1 + 3
        for pool, configs in calls:
            scope = configs[0].scope
            assert [id(c) for c in configs] == [id(c) for c in grid if c.scope is scope]
            joint = scope is PoolScope.PER_PATCH
            assert pool.patch_count == (3 if joint else 1) * world.patch_count

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_sweep_equals_per_query_smoothing(self, seed):
        # the rows of the joint per-patch call are bit for bit those of
        # smoothing each query's own pool
        world = world_for(seed=seed, rows=3, cols=3, size=5, items=20)
        params = BiasedScorerParams(beta_truth=0.45, beta_pair=0.45, epsilon_noise=0.1,
                                    similarity_coupling=0.5)
        grid = [SmoothingConfig(m=m, divergence=divergence, key=key, scope=scope)
                for divergence, key, scope in itertools.product(
                    DivergenceKind, NeighborKey, PoolScope)
                for m in (1, 2, 4)]
        outcomes = run_bias_experiment(world, params, grid, n_queries=3, seed=seed)
        scorer, index = SyntheticScorerBackend(world, params), world.support_index()
        pools = {}
        for config, rows in zip(grid, outcomes):
            assert len(rows) == 3
            for row in rows:
                query = row["query"]
                if query not in pools:
                    pools[query] = build_pool(scorer, top_m(world.feature_vector(query), index, 4),
                                              query)
                pool = pools[query]
                baseline = synthbench._baseline(pool)
                want = smooth_grid(baseline, pool, config)
                assert row["smoothed_probs"].tobytes() == want.probs.tobytes()
                assert not row["smoothed_probs"].flags.writeable
                assert row["smoothed_tokens"].tobytes() == np.argmax(want.probs, axis=1).tobytes()
                assert row["baseline_tokens"].tobytes() == np.argmax(baseline.probs, axis=1).tobytes()
                np.testing.assert_array_equal(row["truth"], world.item(query).output_tokens)

    def test_library_made_keys_kept_uncopied(self, monkeypatch):
        # the scorer's keys and build_pool's stacks of them are frozen where
        # they are made, so neither ScoreGrid nor PromptPool copies them
        kept = []
        frozen_keys = pool_module._frozen_keys

        def spy(keys, leading, name):
            held = frozen_keys(keys, leading, name)
            kept.append((keys, held))
            return held

        monkeypatch.setattr(pool_module, "_frozen_keys", spy)
        world = world_for(items=10)
        query = world.query_ids[0]
        pool = build_pool(SyntheticScorerBackend(world, self.params),
                          top_m(world.feature_vector(query), world.support_index(), 3), query)
        assert len(kept) == 2 * (3 + 1)  # both key fields of three grids and of the pool
        assert all(held is given for given, held in kept)
        assert kept[-2][1] is pool.feature_keys and kept[-1][1] is pool.patch_keys
        baseline = synthbench._baseline(pool)  # pool row 0, viewed and not copied
        for name in ("probs", "feature_keys", "patch_keys"):
            assert np.shares_memory(getattr(baseline, name), getattr(pool, name)[0])

    def test_insufficient_support_rejected(self):
        world = world_for(items=4)  # 3 support items
        with pytest.raises(ConfigError):
            run_bias_experiment(world, self.params, [SmoothingConfig(m=5)], 1, 0)

    def test_too_many_queries_rejected(self):
        world = world_for(items=6)
        with pytest.raises(ConfigError):
            run_bias_experiment(world, self.params, [SmoothingConfig(m=2)], 99, 0)

    def test_m2_exceeds_m1_on_sweep(self):
        report = run_seed_sweep(seeds=range(8), n_queries=2)
        assert report["mean_accuracy"]["m=2"] > report["mean_accuracy"]["m=1"]
        assert report["mean_accuracy"]["m=4"] > report["mean_accuracy"]["baseline"]
        assert report["margin_vs_baseline"]["m=1"] == pytest.approx(0.0, abs=1e-12)

    def test_negative_query_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed"):
            run_bias_experiment(world_for(items=6), self.params, [SmoothingConfig(m=2)], 1, -3)

    @pytest.mark.parametrize("m_values", [(1, 1), (2, 4, 2)])
    def test_repeated_width_rejected(self, m_values):
        with pytest.raises(ConfigError, match="repeat"):
            run_seed_sweep(seeds=[0], m_values=m_values)

    @pytest.mark.parametrize("seeds", [[], range(0), range(3, 1)])
    def test_empty_seed_list_rejected(self, seeds):
        with pytest.raises(ConfigError):
            run_seed_sweep(seeds=seeds)

    @pytest.mark.parametrize("task", ["identity", "shift"])
    @pytest.mark.parametrize("m_values", [(1, 2, 4), (3, 5)])
    def test_sweep_accuracies_equal_eval_reports(self, task, m_values):
        seeds = range(5)
        report = run_seed_sweep(seeds=seeds, task_family=task, m_values=m_values)
        grid = [SmoothingConfig(m=m) for m in m_values]
        for seed, row in zip(seeds, report["per_seed"]):
            world = generate_world(seed, 4, 4, 8, 24, task)
            outcomes = run_bias_experiment(world, self.params, grid, n_queries=3, seed=seed)
            assert row["baseline"] == accuracy(outcomes[0], "baseline")
            for m, rows in zip(m_values, outcomes):
                assert row[f"m={m}"] == accuracy(rows, "smoothed")

    def test_run_reports_js_to_truth(self):
        config = load_config()
        world, params = synth_world(config)
        smoothing = SmoothingConfig(m=config["retrieval"]["m"], **config["smoothing"])
        [rows] = run_bias_experiment(world, params, [smoothing], n_queries=config["queries"]["n"],
                                     seed=config["queries"]["seed"])
        report = run_pipeline(config).report("smoothed_js_to_truth")
        size = world.codebook.size
        want = []
        for row in rows:
            onehots = np.zeros((world.patch_count, size))
            onehots[np.arange(world.patch_count), row["truth"]] = 1.0
            patches = np.arange(world.patch_count)
            want.append((row["query"], float(np.mean(pairwise_divergence(
                row["smoothed_probs"], onehots, patches, patches)))))
        assert list(report.per_item) == want
        assert report.aggregate == float(np.mean([js for _, js in want]))

    def test_run_and_sweep_agree(self):
        # the sweep's accuracies are eval_reports' aggregates of the same rows
        pipeline = run_pipeline({"world": {"seed": 5}, "retrieval": {"m": 2}, "queries": {"seed": 5}})
        sweep = run_seed_sweep(seeds=[5], m_values=(2,))
        assert pipeline.report("smoothed_accuracy").aggregate == sweep["per_seed"][0]["m=2"]
        assert pipeline.report("baseline_accuracy").aggregate == sweep["per_seed"][0]["baseline"]


class TestFaultSeams:
    """The benchmark's own check plants its faults through two module
    globals, ``smoothing.softmax_weights`` and ``synthbench.top_m``; a
    refactor that inlined either name would hide them, and fails here."""

    params = BiasedScorerParams(beta_truth=0.45, beta_pair=0.45, epsilon_noise=0.1)

    def outputs(self):
        """A sweep's report, one experiment's smoothed probs and one lone
        ``smooth_grid``'s, each blending k > 1 neighbours. The sweep's
        scorer favours the pair token, so the weights decide argmaxes: with
        the truth favoured, any blend of two pairs keeps the truth."""
        world = world_for(seed=2, rows=3, cols=3, size=5, items=20)
        [rows] = run_bias_experiment(world, self.params, [SmoothingConfig(m=4)], 3, seed=2)
        rng = np.random.default_rng(3)
        pool = PromptPool(probs=rng.dirichlet(np.ones(6), size=(4, 5)),
                          pair_indices=np.arange(1, 5), prompts=(), mode=PoolMode.Q, m=4)
        grid = ScoreGrid(probs=rng.dirichlet(np.ones(6), size=5))
        return (run_seed_sweep(seeds=range(4), params=BiasedScorerParams(0.3, 0.6, 0.1)),
                b"".join(r["smoothed_probs"].tobytes() for r in rows),
                smooth_grid(grid, pool, SmoothingConfig(m=4)).probs.tobytes())

    def test_weights_handed_out_reversed_change_the_outputs(self, monkeypatch):
        sweep, experiment, lone = self.outputs()
        weights = smoothing.softmax_weights
        monkeypatch.setattr(smoothing, "softmax_weights",
                            lambda distances, tau: weights(distances, tau)[::-1].copy())
        faulty_sweep, faulty_experiment, faulty_lone = self.outputs()
        assert faulty_sweep != sweep
        assert faulty_experiment != experiment and faulty_lone != lone

    def test_ranking_reversed_changes_the_outputs(self, monkeypatch):
        sweep, experiment, lone = self.outputs()
        ranking = synthbench.top_m

        def least_similar(query, index, m):
            worst = ranking(query, index, len(index)).items[::-1][:m]
            scores = sorted((score for _, score in worst), reverse=True)
            return RetrievedSet(items=tuple(zip((i for i, _ in worst), scores)),
                                query_id=query.identifier)

        monkeypatch.setattr(synthbench, "top_m", least_similar)
        faulty_sweep, faulty_experiment, faulty_lone = self.outputs()
        assert faulty_sweep != sweep and faulty_experiment != experiment
        assert faulty_lone == lone  # retrieval is not on a lone smooth_grid's path


def onehot_mixture(token, size, epsilon):
    vec = np.full(size, epsilon / size)
    vec[token] += 1.0 - epsilon
    return vec


class TestMaximalBiasEnumeration:
    """Enumerate two-pair disagreement outcomes in the maximal-bias regime.

    The single-pair score s equals the best pair's token mixture, so s sits
    in the pool at distance zero and dominates the softmax. Flips therefore
    need either uniform weighting (ties resolve to the lower token id) or a
    pool majority against the best pair's token.
    """

    size = 4
    epsilon = 0.1

    def smoothed_argmax(self, pool_tokens, config):
        s = onehot_mixture(pool_tokens[0], self.size, self.epsilon)
        pool = PromptPool(
            probs=np.stack([[onehot_mixture(t, self.size, self.epsilon)] for t in pool_tokens]),
            pair_indices=np.arange(1, len(pool_tokens) + 1),
            prompts=(),
            mode=PoolMode.Q,
            m=len(pool_tokens),
        )
        grid = ScoreGrid(probs=[s])
        fast = int(np.argmax(smooth_grid(grid, pool, config).probs[0]))
        slow = int(np.argmax(brute_force_smooth(grid, pool, config).probs[0]))
        assert fast == slow
        return fast

    def test_weighted_two_pairs_keeps_nearest(self):
        config = SmoothingConfig(m=2, alpha=1.0)
        for t1 in range(self.size):
            for t2 in range(self.size):
                if t1 == t2:
                    continue
                assert self.smoothed_argmax([t1, t2], config) == t1

    def test_average_two_pairs_flips_to_lower_token(self):
        config = SmoothingConfig(m=2, alpha=1.0, aggregation=Aggregation.AVERAGE)
        flips = 0
        for t1 in range(self.size):
            for t2 in range(self.size):
                if t1 == t2:
                    continue
                got = self.smoothed_argmax([t1, t2], config)
                assert got == min(t1, t2)
                flips += got != t1
        assert flips > 0

    def test_weighted_majority_flips_argmax(self):
        config = SmoothingConfig(m=3, alpha=1.0)
        for t1 in range(self.size):
            for t2 in range(self.size):
                if t1 == t2:
                    continue
                assert self.smoothed_argmax([t1, t2, t2], config) == t2
