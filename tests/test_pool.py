import json
import re

import numpy as np
import pytest

from conftest import StubScorer
from patchsmooth.errors import (
    ConfigError,
    DimensionError,
    FormatError,
    MissingItemError,
    ValidationError,
)
from patchsmooth.pool import (
    FileScorerBackend,
    PoolMode,
    PromptPool,
    PromptSpec,
    ScoreGrid,
    build_pool,
    load_grid,
    load_pool,
    save_grid,
    save_pool,
    score_prompt,
)
from patchsmooth.tensorfile import read_tensor, write_tensor


def retrieved_set(ids, query="query"):
    from patchsmooth.retrieval import RetrievedSet

    return RetrievedSet(tuple((i, 1.0 - 0.1 * n) for n, i in enumerate(ids)), query_id=query)


def same_scores(ids, query="query"):
    from patchsmooth.retrieval import RetrievedSet

    return RetrievedSet(tuple((i, 0.5) for i in ids), query_id=query)


class TestScorePrompt:
    def test_determinism(self):
        backend = StubScorer()
        prompt = PromptSpec("a", "a.out", "q", (2, 2))
        first = score_prompt(backend, prompt)
        second = score_prompt(backend, prompt)
        np.testing.assert_array_equal(first.probs, second.probs)

    def test_backend_shape_mismatch(self):
        class BadScorer(StubScorer):
            def score(self, prompt):
                grid = super().score(PromptSpec(prompt.in_context_input,
                                                prompt.in_context_output,
                                                prompt.anchor, (1, 2)))
                return grid

        with pytest.raises(DimensionError):
            score_prompt(BadScorer(), PromptSpec("a", "a.out", "q", (2, 2)))


class TestBuildPool:
    def test_mode_q_degenerate_single_pair(self):
        backend = StubScorer()
        pool = build_pool(backend, retrieved_set(["a"]), "q", mode=PoolMode.Q)
        baseline = score_prompt(backend, PromptSpec("a", "a.out", "q", (2, 2)))
        assert pool.width == 1
        np.testing.assert_array_equal(pool.probs[0], baseline.probs)

    def test_mode_q_shape_and_provenance(self):
        pool = build_pool(StubScorer(), retrieved_set(["a", "b", "c", "d"]), "q")
        assert pool.width == 4
        assert pool.patch_count == 4
        assert pool.pair_indices.tolist() == [1, 2, 3, 4]
        assert all(p.anchor == "q" for p in pool.prompts)

    def test_mode_q_entries_match_direct_scoring(self):
        backend = StubScorer()
        pool = build_pool(backend, retrieved_set(["a", "b"]), "q")
        for i, item in enumerate(["a", "b"]):
            direct = score_prompt(backend, PromptSpec(item, item + ".out", "q", (2, 2)))
            np.testing.assert_array_equal(pool.probs[i], direct.probs)

    def test_mode_self_differs_only_in_anchor(self):
        backend = StubScorer()
        retrieved = retrieved_set(["a", "b"])
        pool_q = build_pool(backend, retrieved, "q", mode=PoolMode.Q)
        pool_self = build_pool(backend, retrieved, "q", mode=PoolMode.SELF)
        for pq, ps in zip(pool_q.prompts, pool_self.prompts):
            assert pq.in_context_input == ps.in_context_input
            assert pq.in_context_output == ps.in_context_output
            assert pq.anchor == "q"
            assert ps.anchor == ps.in_context_input

    def test_mode_seq_fixed_pair_ordered_anchors(self):
        pool = build_pool(StubScorer(), retrieved_set(["a", "b", "c"]), "q", mode=PoolMode.SEQ)
        assert pool.width == 2
        assert [p.in_context_input for p in pool.prompts] == ["a", "a"]
        assert [p.anchor for p in pool.prompts] == ["b", "c"]
        assert pool.pair_indices.tolist() == [2, 3]

    def test_mode_rand_reproducible(self):
        backend = StubScorer()
        retrieved = retrieved_set(["a", "b", "c", "d"])
        one = build_pool(backend, retrieved, "q", mode=PoolMode.RAND, seed=7)
        two = build_pool(backend, retrieved, "q", mode=PoolMode.RAND, seed=7)
        assert [p.anchor for p in one.prompts] == [p.anchor for p in two.prompts]
        np.testing.assert_array_equal(one.probs, two.probs)

    def test_mode_rand_draws_without_replacement(self):
        pool = build_pool(
            StubScorer(), retrieved_set(["a", "b", "c", "d"]), "q", mode=PoolMode.RAND, seed=3
        )
        assert pool.width == 3
        anchors = [p.anchor for p in pool.prompts]
        assert len(set(anchors)) == len(anchors)
        assert all(p.in_context_input == "a" for p in pool.prompts)

    def test_mode_seq_rand_need_two_pairs(self):
        for mode in (PoolMode.SEQ, PoolMode.RAND):
            with pytest.raises(ConfigError):
                build_pool(StubScorer(), retrieved_set(["a"]), "q", mode=mode, seed=1)

    def test_mode_rand_needs_seed(self):
        with pytest.raises(ConfigError):
            build_pool(StubScorer(), retrieved_set(["a", "b"]), "q", mode=PoolMode.RAND)

    def test_order_independence_of_per_patch_multisets(self):
        backend = StubScorer()
        pool_one = build_pool(backend, same_scores(["a", "b", "c"]), "q")
        pool_two = build_pool(backend, same_scores(["c", "a", "b"]), "q")
        for l in range(pool_one.patch_count):
            one = sorted(row.tobytes() for row in pool_one.probs[:, l])
            two = sorted(row.tobytes() for row in pool_two.probs[:, l])
            assert one == two


class TestMergeAllPatches:
    """The all-patch scope: every (pair, patch) entry is a candidate at every patch."""

    def all_patch_neighbors(self, pool):
        from patchsmooth.smoothing import Aggregation, PoolScope, SmoothingConfig, smooth_grid

        config = SmoothingConfig(m=pool.width, k=pool.width * pool.patch_count,
                                 scope=PoolScope.ALL_PATCH, aggregation=Aggregation.AVERAGE)
        query = ScoreGrid(probs=pool.probs[0])
        return smooth_grid(query, pool, config)

    def test_cardinality(self):
        pool = build_pool(StubScorer(), retrieved_set(["a", "b", "c"]), "q")
        out = self.all_patch_neighbors(pool)
        assert out.pair.shape == out.patch.shape == (pool.patch_count, pool.patch_count * 3)

    def test_grouping_roundtrip(self):
        pool = build_pool(StubScorer(), retrieved_set(["a", "b"]), "q")
        out = self.all_patch_neighbors(pool)
        for pairs_row, patch_row in zip(out.pair, out.patch):
            for l in range(pool.patch_count):
                pairs = sorted(pairs_row[patch_row == l].tolist())
                assert pairs == pool.pair_indices.tolist()
        mean = pool.probs.reshape(-1, pool.codebook_size).mean(axis=0)
        np.testing.assert_allclose(out.probs, np.tile(mean, (pool.patch_count, 1)), atol=1e-12)

    def test_single_entry_pool(self):
        pool = build_pool(StubScorer(grid_shape=(1, 1)), retrieved_set(["a"]), "q")
        out = self.all_patch_neighbors(pool)
        assert (out.pair.tolist(), out.patch.tolist()) == ([[1]], [[0]])


class TestPoolInvariants:
    PROMPT = PromptSpec("a", "a.out", "q", (2, 2))

    def pool_of(self, pair_indices, m=2, prompts=()):
        grid = score_prompt(StubScorer(), self.PROMPT)
        return PromptPool(probs=np.stack([grid.probs, grid.probs]), pair_indices=pair_indices,
                          prompts=prompts, mode=PoolMode.Q, m=m)

    def test_duplicate_provenance_rejected(self):
        with pytest.raises(ValidationError):
            self.pool_of([1, 1])

    def test_provenance_must_match_pool_width(self):
        with pytest.raises(ValidationError):
            self.pool_of([1])
        assert self.pool_of([1, 2]).width == 2

    @pytest.mark.parametrize("pair_indices, m", [
        ([1, 2], 0), ([1, 2], -3), ([1, 2], 1), ([0, -1], 2), ([1, 7], 2),
        ([1.0, 2.0], 2), ([True, False], 2),
    ])
    def test_provenance_must_be_distinct_pair_ranks_up_to_m(self, pair_indices, m):
        with pytest.raises(ValidationError, match="provenance"):
            self.pool_of(pair_indices, m=m)

    def test_provenance_may_skip_ranks(self):
        # modes seq and rand leave out a rank; a width-2 pool may come from m = 5
        assert self.pool_of([5, 2], m=5).pair_indices.tolist() == [5, 2]

    def test_prompts_are_empty_or_one_per_row(self):
        with pytest.raises(ValidationError, match="1 prompts for a pool of width 2"):
            self.pool_of([1, 2], prompts=(self.PROMPT,))
        assert self.pool_of([1, 2], prompts=(self.PROMPT,) * 2).prompts == (self.PROMPT,) * 2

    def test_each_prompt_masks_the_pool_patches(self):
        # the rule ScoreGrid applies to its one prompt
        wide = PromptSpec("a", "a.out", "q", (3, 3))
        with pytest.raises(DimensionError, match="pool has 4 patches, prompt masks 9"):
            self.pool_of([1, 2], prompts=(self.PROMPT, wide))
        with pytest.raises(DimensionError, match="grid has 4 patches, prompt masks 9"):
            ScoreGrid(probs=self.pool_of([1, 2]).probs[0], prompt=wide)

    def test_rows_must_be_distributions(self):
        with pytest.raises(ValidationError):
            ScoreGrid(probs=[[0.5, 0.6]])
        with pytest.raises(ValidationError):
            PromptPool(probs=[[[0.5, 0.6]]], pair_indices=[1], prompts=(), mode=None, m=1)


class TestPoolSerialization:
    def test_roundtrip(self, tmp_path):
        pool = build_pool(StubScorer(), retrieved_set(["a", "b", "c"]), "q")
        path = tmp_path / "pool.pnct"
        save_pool(pool, path)
        back = load_pool(path)
        assert back.mode == pool.mode
        assert back.m == pool.m
        assert back.prompts == pool.prompts
        assert back.patch_count == pool.patch_count
        np.testing.assert_array_equal(back.pair_indices, pool.pair_indices)
        np.testing.assert_allclose(back.probs, pool.probs, atol=1e-6)

    def test_sidecar_breaking_provenance_is_format_error(self, tmp_path):
        path = tmp_path / "pool.pnct"
        save_pool(build_pool(StubScorer(), retrieved_set(["a", "b"]), "q"), path)
        array, meta = read_tensor(path)
        write_tensor(array, path, meta={**meta, "m": 1})
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_pool(path)

    def test_grid_roundtrip(self, tmp_path):
        backend = StubScorer()
        grid = score_prompt(backend, PromptSpec("a", "a.out", "q", (2, 2)))
        path = tmp_path / "grid.pnct"
        save_grid(grid, path)
        back, shape = load_grid(path)
        assert shape == (2, 2)
        assert back.prompt == grid.prompt
        np.testing.assert_allclose(back.probs, grid.probs, atol=1e-6)


class TestFileBackend:
    def make_export(self, tmp_path, rows):
        array = np.asarray(rows, dtype=np.float32)
        write_tensor(array, tmp_path / "score_000.pnct")
        manifest = {
            "schema_version": 1,
            "grid": [1, 2],
            "codebook_size": 3,
            "patch_order": "row-major",
            "pairs": {"imgA": "maskA"},
            "prompts": {"imgA__maskA__query1": "score_000.pnct"},
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return FileScorerBackend(tmp_path)

    def test_import_renormalizes_rows(self, tmp_path):
        backend = self.make_export(tmp_path, [[2.0, 1.0, 1.0], [0.0, 3.0, 1.0]])
        grid = backend.score(PromptSpec("imgA", "maskA", "query1", (1, 2)))
        np.testing.assert_allclose(grid.probs[0], [0.5, 0.25, 0.25])
        np.testing.assert_allclose(grid.probs[1], [0.0, 0.75, 0.25])

    def test_missing_prompt(self, tmp_path):
        backend = self.make_export(tmp_path, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(MissingItemError):
            backend.score(PromptSpec("imgA", "maskA", "other", (1, 2)))

    def test_missing_pair(self, tmp_path):
        backend = self.make_export(tmp_path, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(MissingItemError):
            backend.pair_for("nope")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingItemError):
            FileScorerBackend(tmp_path / "empty")

    def test_token_tensor_rejected(self, tmp_path):
        backend = self.make_export(tmp_path, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        write_tensor(np.ones((2, 3), dtype=np.uint32), tmp_path / "score_000.pnct")
        with pytest.raises(FormatError, match="f32"):
            backend.score(PromptSpec("imgA", "maskA", "query1", (1, 2)))

    def test_wrong_shape_rejected(self, tmp_path):
        backend = self.make_export(tmp_path, [[1.0, 1.0, 1.0]])
        with pytest.raises(DimensionError):
            backend.score(PromptSpec("imgA", "maskA", "query1", (1, 2)))


class TestKeyOwnership:
    @pytest.mark.parametrize("owner", ["grid", "pool"])
    def test_caller_keys_stay_writable_and_unshared(self, owner):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=(2, 3))
        keys = rng.normal(size=(2, 3, 5))
        if owner == "grid":
            probs, keys = probs[0], keys[0]
            made = ScoreGrid(probs=probs, feature_keys=keys, patch_keys=keys)
        else:
            made = PromptPool(probs=probs, pair_indices=[1, 2], prompts=(), mode=None, m=2,
                              feature_keys=keys, patch_keys=keys)
        before = keys.copy()
        assert keys.flags.writeable
        keys[...] = 7.0
        for held in (made.feature_keys, made.patch_keys):
            assert not held.flags.writeable
            np.testing.assert_array_equal(held, before)

    @pytest.mark.parametrize("owner", ["grid", "pool"])
    @pytest.mark.parametrize("name", ["feature_keys", "patch_keys"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_keys_rejected(self, owner, name, bad):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4), size=(2, 3))
        keys = rng.normal(size=(2, 3, 5))
        keys[1, 2, 4] = bad
        with pytest.raises(ValidationError, match=f"{name} contain non-finite"):
            if owner == "grid":
                ScoreGrid(probs=probs[1], **{name: keys[1]})
            else:
                PromptPool(probs=probs, pair_indices=[1, 2], prompts=(), mode=None, m=2,
                           **{name: keys})

    def test_frozen_owned_keys_kept_uncopied(self):
        keys = np.random.default_rng(4).normal(size=(3, 5))
        keys.flags.writeable = False
        grid = ScoreGrid(probs=np.full((3, 2), 0.5), feature_keys=keys)
        assert grid.feature_keys is keys
        view = keys[:, :4]  # a view of a read-only array owning its buffer
        assert ScoreGrid(probs=np.full((3, 2), 0.5), feature_keys=view).feature_keys is view
        writable = keys.copy()
        held = ScoreGrid(probs=np.full((3, 2), 0.5), feature_keys=writable[:, :4]).feature_keys
        assert not np.shares_memory(held, writable) and writable.flags.writeable
