import dataclasses
import inspect
import itertools
import json
import re
import struct
import tempfile
import zlib
from pathlib import Path

import click
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchsmooth import cli as cli_module
from patchsmooth import pipeline, synthbench
from patchsmooth.cli import _with_keys, cli, main
from patchsmooth.errors import ConfigError
from patchsmooth.pipeline import DEFAULT_CONFIG, load_config, run_pipeline
from patchsmooth.pool import (
    PoolMode,
    PromptPool,
    PromptSpec,
    ScoreGrid,
    load_grid,
    load_pool,
    save_grid,
    save_pool,
)
from patchsmooth.retrieval import RetrievalIndex
from patchsmooth.smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothingConfig,
    smooth_grid,
)
from patchsmooth.tensorfile import read_tensor, write_json, write_tensor


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def random_grid(rng, patches, size, prompt=None):
    return ScoreGrid(probs=rng.dirichlet(np.ones(size), size=patches), prompt=prompt)


def random_pool(rng, patches, size, width, region):
    prompts = tuple(
        PromptSpec(f"x{i}", f"x{i}.out", "query", region) for i in range(width)
    )
    return PromptPool(
        probs=rng.dirichlet(np.ones(size), size=(width, patches)),
        pair_indices=np.arange(1, width + 1),
        prompts=prompts,
        mode=PoolMode.Q,
        m=width,
    )


class TestConfig:
    def test_defaults_complete(self):
        config = load_config()
        assert config == DEFAULT_CONFIG

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"retrieval": {"m": 6}, "smoothing": {"alpha": 0.7}}))
        config = load_config(path)
        assert config["retrieval"]["m"] == 6
        assert config["smoothing"]["alpha"] == 0.7
        assert config["smoothing"]["tau"] == 1.0

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"smoothing": {"alpha": 0.7}}))
        config = load_config(path, overrides={"smoothing": {"alpha": 0.2}})
        assert config["smoothing"]["alpha"] == 0.2

    def test_result_shares_nothing_with_defaults(self):
        load_config(None, {"backend": "file"})["files"]["pool"] = "x"
        load_config()["smoothing"]["alpha"] = 0.5
        assert load_config()["files"] == {}
        assert load_config()["smoothing"]["alpha"] == 1.0
        assert DEFAULT_CONFIG["files"] == {}

    def test_run_pipeline_checks_a_config_dict(self):
        config = load_config()
        config["queries"]["n"] = 1.5
        with pytest.raises(ConfigError, match="queries.n"):
            run_pipeline(config)

    def test_run_pipeline_fills_a_partial_dict_with_defaults(self):
        assert run_pipeline({"backend": "synth"}) == run_pipeline(load_config())

    def test_echo_round_trips_for_every_enum_combination(self):
        enums = (DivergenceKind, NeighborKey, Aggregation, PoolScope)
        numbers = [dict(k=2, alpha=0.5, tau=2.0), dict(k=None, alpha=1, tau=2)]
        for (divergence, key, aggregation, scope), given in itertools.product(
                itertools.product(*enums), numbers):
            config = SmoothingConfig(m=3, **given, divergence=divergence, key=key,
                                     aggregation=aggregation, scope=scope)
            echo = json.loads(json.dumps(config.echo()))
            assert list(echo) == [f.name for f in dataclasses.fields(SmoothingConfig)]
            assert type(echo["alpha"]) is type(echo["tau"]) is float
            assert SmoothingConfig(**echo) == config
            assert SmoothingConfig(**config.echo()) == config
        choices = {p.name: list(p.type.choices) for p in cli.commands["smooth"].params
                   if isinstance(p.type, click.Choice)}
        assert choices == {name: [member.value for member in kind]
                           for name, kind in zip(("div", "key", "agg", "scope"), enums)}

    def test_operating_point_copies_agree(self, monkeypatch, tmp_path):
        """``DEFAULT_CONFIG`` and ``run_seed_sweep``'s defaults each hold the
        operating point (the benchmark calls ``run_seed_sweep`` on its
        defaults, so both copies stay; ``synth-run`` passes only the flags
        it is given): ``run``, the sweep and ``synth-run`` build the same
        world, scorer, query count and smoothing."""
        class Built(Exception):
            pass

        built = []
        signature = inspect.signature(synthbench.generate_world)

        def world(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            built.append({name: v for name, v in bound.arguments.items() if name != "seed"})

        def experiment(world, params, config_grid, n_queries, seed):
            built[-1].update(params=params, configs=config_grid, n_queries=n_queries)
            raise Built

        for module in (pipeline, synthbench):
            monkeypatch.setattr(module, "generate_world", world)
            monkeypatch.setattr(module, "run_bias_experiment", experiment)
        with pytest.raises(Built):
            run_pipeline(load_config())
        with pytest.raises(Built):
            synthbench.run_seed_sweep(seeds=[0], m_values=(DEFAULT_CONFIG["retrieval"]["m"],))
        with pytest.raises(Built):
            main(["synth-run", "--report", str(tmp_path / "sweep.json")])
        assert len(built) == 3 and built[0] == built[1] == built[2]
        defaults = {f.name: getattr(f.default, "value", f.default)
                    for f in dataclasses.fields(SmoothingConfig) if f.name != "m"}
        assert DEFAULT_CONFIG["smoothing"] == defaults

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


class TestSynthPipeline:
    def test_report_contains_both_arms(self):
        report = run_pipeline(load_config())
        metrics = {r.metric for r in report.reports}
        assert {"baseline_accuracy", "smoothed_accuracy",
                "baseline_mse", "smoothed_mse"} <= metrics

    def test_alpha_zero_smoothed_equals_baseline(self):
        config = load_config(overrides={"smoothing": {"alpha": 0.0}})
        report = run_pipeline(config)
        assert report.report("smoothed_accuracy").per_item == tuple(
            report.report("baseline_accuracy").per_item
        )
        assert report.report("smoothed_mse").per_item == tuple(
            report.report("baseline_mse").per_item
        )

    def test_byte_reproducible(self, tmp_path):
        for name in ("a.json", "b.json"):
            write_json(run_pipeline(load_config()).to_dict(), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_config_echo_resolves_k(self):
        report = run_pipeline(load_config())
        assert report.config["smoothing"]["k"] == 4  # min(5, m=4)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError):
            run_pipeline(load_config(overrides={"backend": "nope"}))


class TestFilePipeline:
    def make_inputs(self, tmp_path, alpha=1.0):
        rng = np.random.default_rng(9)
        region = (2, 3)
        prompt = PromptSpec("x0", "x0.out", "query", region)
        grid = random_grid(rng, 6, 5, prompt=prompt)
        pool = random_pool(rng, 6, 5, width=3, region=region)
        save_grid(grid, tmp_path / "query.pnct")
        save_pool(pool, tmp_path / "pool.pnct")
        gt = rng.integers(0, 5, size=6).astype(np.uint32)
        write_tensor(gt.reshape(region), tmp_path / "gt.pnct", meta={"kind": "token-grid"})
        return {
            "backend": "file",
            "smoothing": {"alpha": alpha},
            "files": {
                "query_scores": str(tmp_path / "query.pnct"),
                "pool": str(tmp_path / "pool.pnct"),
                "gt_tokens": str(tmp_path / "gt.pnct"),
                "out_tokens": str(tmp_path / "out.pnct"),
            },
        }

    def test_writes_token_output_and_metrics(self, tmp_path):
        config = load_config(overrides=self.make_inputs(tmp_path))
        report = run_pipeline(config)
        tokens, meta = read_tensor(tmp_path / "out.pnct")
        assert tokens.shape == (2, 3)
        assert meta["kind"] == "token-grid"
        assert {r.metric for r in report.reports} == {
            "baseline_accuracy", "smoothed_accuracy", "baseline_mse", "smoothed_mse",
        }

    def test_matches_library_smoothing(self, tmp_path):
        config = load_config(overrides=self.make_inputs(tmp_path))
        run_pipeline(config)
        grid, _ = load_grid(tmp_path / "query.pnct")
        pool = load_pool(tmp_path / "pool.pnct")
        expected = smooth_grid(grid, pool, SmoothingConfig(m=3))
        tokens, _ = read_tensor(tmp_path / "out.pnct")
        assert list(tokens.reshape(-1)) == np.argmax(expected.probs, axis=1).tolist()

    def test_missing_inputs_rejected(self):
        with pytest.raises(ConfigError):
            run_pipeline(load_config(overrides={"backend": "file"}))

    def test_float_ground_truth_tokens_are_3(self, tmp_path, capsys):
        config = self.make_inputs(tmp_path)
        write_tensor(np.array([[0.5, 1.5, 2.0], [3.7, 0.0, 1.0]], dtype=np.float32),
                     tmp_path / "gt.pnct", meta={"kind": "token-grid"})
        (tmp_path / "c.json").write_text(json.dumps(config))
        code = run_cli(["run", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / "report.json")])
        assert code == 3
        assert str(tmp_path / "gt.pnct") in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("gt, expected", [
        (np.array([[0.5, 1.5, 2.0], [3.7, 0.0, 1.0]], dtype=np.float32), 3),
        (np.array([[0, 1], [2, 3]], dtype=np.uint32), 4),
    ], ids=["float", "wrong-length"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_refused_ground_truth_writes_no_tokens(self, tmp_path, gt, expected, existing):
        config = self.make_inputs(tmp_path)
        write_tensor(gt, tmp_path / "gt.pnct", meta={"kind": "token-grid"})
        out = tmp_path / "out.pnct"
        if existing:
            out.write_bytes(b"earlier tokens")
        (tmp_path / "c.json").write_text(json.dumps(config))
        code = run_cli(["run", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / "report.json")])
        assert code == expected
        assert not (tmp_path / "report.json").exists()
        if existing:
            assert out.read_bytes() == b"earlier tokens"
        else:
            assert not out.exists()


class TestCliFlow:
    def setup_retrieval_files(self, tmp_path, rng):
        vectors = rng.normal(size=(4, 2, 2, 2)).astype(np.float32)
        write_tensor(vectors, tmp_path / "index.pnct",
                     meta={"ids": ["s0", "s1", "s2", "s3"]})
        write_tensor(vectors[1] * 2.0, tmp_path / "query.pnct", meta={"id": "query"})
        return ["s0", "s1", "s2", "s3"]

    def setup_scores_dir(self, tmp_path, rng, ids, query="query", patches=4, size=5):
        scores = tmp_path / "scores"
        scores.mkdir()
        prompts = {}
        for item in ids:
            name = f"{item}.pnct"
            write_tensor(
                rng.random(size=(patches, size)).astype(np.float32) + 0.01,
                scores / name,
            )
            prompts[f"{item}__{item}.gt__{query}"] = name
        manifest = {
            "schema_version": 1,
            "grid": [2, 2],
            "codebook_size": size,
            "patch_order": "row-major",
            "pairs": {item: f"{item}.gt" for item in ids},
            "prompts": prompts,
        }
        (scores / "manifest.json").write_text(json.dumps(manifest))
        return scores

    def test_full_file_backend_flow(self, tmp_path):
        rng = np.random.default_rng(21)
        ids = self.setup_retrieval_files(tmp_path, rng)
        scores = self.setup_scores_dir(tmp_path, rng, ids)

        code = run_cli([
            "retrieve", "--index", str(tmp_path / "index.pnct"),
            "--query", str(tmp_path / "query.pnct"),
            "--m", "3", "--out", str(tmp_path / "retrieved.json"),
        ])
        assert code == 0
        retrieved = json.loads((tmp_path / "retrieved.json").read_text())
        assert retrieved["items"][0][0] == "s1"  # scaled copy of itself
        assert len(retrieved["items"]) == 3

        code = run_cli([
            "pool", "--backend", "file", "--scores", str(scores),
            "--retrieved", str(tmp_path / "retrieved.json"),
            "--mode", "q", "--out", str(tmp_path / "pool.pnct"),
        ])
        assert code == 0
        pool = load_pool(tmp_path / "pool.pnct")
        assert pool.width == 3
        assert pool.patch_count == 4

        # single-pair query grid: the best pair's prompt scores
        best = retrieved["items"][0][0]
        grid_array, _ = read_tensor(scores / f"{best}.pnct")
        write_tensor(grid_array, tmp_path / "qgrid.pnct", meta={"kind": "score-grid"})

        code = run_cli([
            "smooth", "--query", str(tmp_path / "qgrid.pnct"),
            "--pool", str(tmp_path / "pool.pnct"),
            "--alpha", "1.0", "--tau", "1.0", "--div", "js",
            "--agg", "weighted", "--scope", "patch",
            "--out", str(tmp_path / "smoothed.pnct"),
            "--diag", str(tmp_path / "diag.json"),
        ])
        assert code == 0
        smoothed, meta = read_tensor(tmp_path / "smoothed.pnct")
        assert smoothed.shape == (4, 5)
        assert meta["config"]["alpha"] == 1.0
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert len(diag["per_patch"]) == 4
        for l, neighbors in enumerate(diag["per_patch"]):  # k = min(5, m) = 3
            assert [n["patch"] for n in neighbors] == [l] * 3
            assert sorted(n["pair"] for n in neighbors) == [1, 2, 3]
            assert sum(n["weight"] for n in neighbors) == pytest.approx(1.0, abs=1e-9)

        code = run_cli([
            "decode", "--in", str(tmp_path / "smoothed.pnct"),
            "--out", str(tmp_path / "tokens.pnct"),
        ])
        assert code == 0
        tokens, _ = read_tensor(tmp_path / "tokens.pnct")
        assert tokens.shape == (1, 4) or tokens.shape == (2, 2)

        write_tensor(tokens, tmp_path / "gt.pnct")
        code = run_cli([
            "eval", "--pred", str(tmp_path / "tokens.pnct"),
            "--gt", str(tmp_path / "gt.pnct"),
            "--metric", "accuracy", "--out", str(tmp_path / "eval.json"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["aggregate"] == 1.0

    def test_smooth_cli_matches_library(self, tmp_path):
        rng = np.random.default_rng(5)
        region = (2, 2)
        grid = random_grid(rng, 4, 5, prompt=PromptSpec("x0", "x0.out", "query", region))
        pool = random_pool(rng, 4, 5, width=2, region=region)
        save_grid(grid, tmp_path / "g.pnct")
        save_pool(pool, tmp_path / "p.pnct")
        code = run_cli([
            "smooth", "--query", str(tmp_path / "g.pnct"), "--pool", str(tmp_path / "p.pnct"),
            "--alpha", "0.6", "--out", str(tmp_path / "s.pnct"),
        ])
        assert code == 0
        out, _ = read_tensor(tmp_path / "s.pnct")
        expected = smooth_grid(
            load_grid(tmp_path / "g.pnct")[0], load_pool(tmp_path / "p.pnct"),
            SmoothingConfig(m=2, alpha=0.6),
        )
        np.testing.assert_allclose(out, expected.probs.astype(np.float32), atol=1e-6)

    def test_smooth_cli_with_feature_keys(self, tmp_path):
        rng = np.random.default_rng(11)
        region = (2, 2)
        grid = random_grid(rng, 4, 5, prompt=PromptSpec("x0", "x0.out", "query", region))
        pool = random_pool(rng, 4, 5, width=3, region=region)
        save_grid(grid, tmp_path / "g.pnct")
        save_pool(pool, tmp_path / "p.pnct")
        write_tensor(rng.normal(size=(4, 6)).astype(np.float32), tmp_path / "qk.pnct")
        write_tensor(rng.normal(size=(3, 4, 6)).astype(np.float32), tmp_path / "pk.pnct")
        for key in ("feature", "patch"):
            code = run_cli([
                "smooth", "--query", str(tmp_path / "g.pnct"),
                "--pool", str(tmp_path / "p.pnct"),
                "--key", key,
                "--query-keys", str(tmp_path / "qk.pnct"),
                "--pool-keys", str(tmp_path / "pk.pnct"),
                "--out", str(tmp_path / f"s_{key}.pnct"),
            ])
            assert code == 0
            out, meta = read_tensor(tmp_path / f"s_{key}.pnct")
            assert meta["config"]["key"] == key
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        # same keys for both types -> identical neighbor selection
        a, _ = read_tensor(tmp_path / "s_feature.pnct")
        b, _ = read_tensor(tmp_path / "s_patch.pnct")
        np.testing.assert_array_equal(a, b)

    def test_attached_keys_are_one_array_for_both_key_types(self, tmp_path):
        rng = np.random.default_rng(12)
        region = (2, 2)
        grid = random_grid(rng, 4, 5, prompt=PromptSpec("x0", "x0.out", "query", region))
        pool = random_pool(rng, 4, 5, width=3, region=region)
        query_keys = rng.normal(size=(4, 6)).astype(np.float32)
        pool_keys = rng.normal(size=(3, 4, 6)).astype(np.float32)
        write_tensor(query_keys, tmp_path / "qk.pnct")
        write_tensor(pool_keys, tmp_path / "pk.pnct")
        grid, pool = _with_keys(grid, tmp_path / "qk.pnct"), _with_keys(pool, tmp_path / "pk.pnct")
        for owner, keys in ((grid, query_keys), (pool, pool_keys)):
            assert owner.feature_keys is owner.patch_keys
            assert np.shares_memory(owner.feature_keys, owner.patch_keys)
            assert owner.feature_keys.dtype == np.float64
            assert not owner.feature_keys.flags.writeable
            np.testing.assert_array_equal(owner.feature_keys, keys)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pool_keys_are_refused(self, tmp_path, capsys, bad):
        rng = np.random.default_rng(13)
        region = (2, 2)
        save_grid(random_grid(rng, 4, 5, prompt=PromptSpec("x0", "x0.out", "query", region)),
                  tmp_path / "g.pnct")
        save_pool(random_pool(rng, 4, 5, width=3, region=region), tmp_path / "p.pnct")
        write_tensor(rng.normal(size=(4, 6)).astype(np.float32), tmp_path / "qk.pnct")
        pool_keys = rng.normal(size=(3, 4, 6)).astype(np.float32)
        pool_keys[1, 2, 3] = bad
        write_tensor(pool_keys, tmp_path / "pk.pnct")
        code = run_cli([
            "smooth", "--query", str(tmp_path / "g.pnct"), "--pool", str(tmp_path / "p.pnct"),
            "--key", "feature", "--query-keys", str(tmp_path / "qk.pnct"),
            "--pool-keys", str(tmp_path / "pk.pnct"),
            "--out", str(tmp_path / "s.pnct"), "--diag", str(tmp_path / "d.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert str(tmp_path / "pk.pnct") in err
        assert not (tmp_path / "s.pnct").exists()
        assert not (tmp_path / "d.json").exists()

    def test_no_temp_files_after_cli_writes(self, tmp_path):
        code = run_cli(["run", "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_synth_run_and_run_commands(self, tmp_path):
        code = run_cli([
            "synth-run", "--seed", "0", "--n-seeds", "2", "--rows", "2", "--cols", "2",
            "--codebook", "4", "--items", "10", "--m", "1,2", "--queries", "2",
            "--report", str(tmp_path / "sweep.json"),
        ])
        assert code == 0
        sweep = json.loads((tmp_path / "sweep.json").read_text())
        assert len(sweep["per_seed"]) == 2
        assert "margin_vs_baseline" in sweep
        assert sweep["rng"] == "numpy-pcg64"

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"queries": {"n": 2, "seed": 1}}))
        code = run_cli(["run", "--config", str(config_path), "--out", str(tmp_path / "r1.json")])
        assert code == 0
        code = run_cli(["run", "--config", str(config_path), "--out", str(tmp_path / "r2.json")])
        assert code == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_retrieve_with_flat_features(self, tmp_path):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(5, 8)).astype(np.float32)
        write_tensor(vectors, tmp_path / "index.pnct", meta={"ids": [f"i{n}" for n in range(5)]})
        write_tensor(vectors[3], tmp_path / "q.pnct", meta={"id": "q"})
        code = run_cli([
            "retrieve", "--index", str(tmp_path / "index.pnct"),
            "--query", str(tmp_path / "q.pnct"), "--m", "2",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 0
        retrieved = json.loads((tmp_path / "r.json").read_text())
        assert retrieved["items"][0][0] == "i3"

    def test_retrieve_indexes_float32_features_as_float32(self, tmp_path, monkeypatch):
        # (C, H, W) maps at unlike scales; the same features cast to float64
        # must give the same bytes
        scales = np.logspace(-3, 3, 9)[:, None, None, None]
        features = np.random.default_rng(4).normal(size=(9, 3, 4, 5)) * scales
        write_tensor(features.astype(np.float32), tmp_path / "index.pnct",
                     meta={"ids": [f"i{n}" for n in range(9)]})
        write_tensor(features[5].astype(np.float32), tmp_path / "q.pnct", meta={"id": "q"})
        built = []
        monkeypatch.setattr(cli_module, "RetrievalIndex",
                            lambda entries: built.append(RetrievalIndex(entries)) or built[-1])
        argv = ["retrieve", "--index", str(tmp_path / "index.pnct"), "--query", str(tmp_path / "q.pnct"),
                "--m", "4", "--out"]
        assert run_cli([*argv, str(tmp_path / "f32.json")]) == 0
        assert built[-1]._matrix.dtype == np.float32

        def read_as_float64(path):
            array, meta = read_tensor(path)
            return array.astype(np.float64), meta

        monkeypatch.setattr(cli_module, "read_tensor", read_as_float64)
        assert run_cli([*argv, str(tmp_path / "f64.json")]) == 0
        assert built[-1]._matrix.dtype == np.float64
        assert (tmp_path / "f32.json").read_bytes() == (tmp_path / "f64.json").read_bytes()

    def test_retrieve_reads_u32_features_as_their_values(self, tmp_path):
        # small integers are exact in float32: both files hold the same rows
        features = np.random.default_rng(7).integers(0, 50, size=(9, 2, 3, 4))
        argv = {}
        for dtype in (np.uint32, np.float32):
            name = np.dtype(dtype).name
            write_tensor(features.astype(dtype), tmp_path / f"{name}.pnct",
                         meta={"ids": [f"i{n}" for n in range(9)]})
            write_tensor(features[4].astype(dtype), tmp_path / f"q{name}.pnct", meta={"id": "q"})
            argv[name] = ["retrieve", "--index", str(tmp_path / f"{name}.pnct"),
                          "--query", str(tmp_path / f"q{name}.pnct"), "--m", "5",
                          "--out", str(tmp_path / f"{name}.json")]
            assert run_cli(argv[name]) == 0
        assert (tmp_path / "uint32.json").read_bytes() == (tmp_path / "float32.json").read_bytes()
        assert json.loads((tmp_path / "uint32.json").read_text())["items"][0][0] == "i4"

    def test_pool_with_synth_backend(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"world": {"rows": 2, "cols": 2, "n_items": 10}}))
        retrieved_path = tmp_path / "retrieved.json"
        retrieved_path.write_text(json.dumps({
            "query": "item0004",
            "items": [["item0000", 0.9], ["item0001", 0.8]],
        }))
        code = run_cli([
            "pool", "--backend", "synth", "--retrieved", str(retrieved_path),
            "--config", str(config_path), "--mode", "self",
            "--out", str(tmp_path / "pool.pnct"),
        ])
        assert code == 0
        pool = load_pool(tmp_path / "pool.pnct")
        assert pool.mode == PoolMode.SELF
        assert pool.width == 2
        assert pool.patch_count == 4

    def test_decode_raw_score_grid_uses_prompt_shape(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = random_grid(rng, 6, 4, prompt=PromptSpec("a", "a.out", "q", (3, 2)))
        save_grid(grid, tmp_path / "g.pnct")
        code = run_cli(["decode", "--in", str(tmp_path / "g.pnct"),
                        "--out", str(tmp_path / "t.pnct")])
        assert code == 0
        tokens, _ = read_tensor(tmp_path / "t.pnct")
        assert tokens.shape == (3, 2)
        assert list(tokens.reshape(-1)) == np.argmax(grid.probs, axis=1).tolist()

    def test_sidecar_grid_survives_smooth_and_run(self, tmp_path):
        rng = np.random.default_rng(8)
        query, pool = str(tmp_path / "q.pnct"), str(tmp_path / "p.pnct")
        write_tensor(random_grid(rng, 4, 5).probs, query, meta={"kind": "score-grid", "grid": [2, 2]})
        save_pool(random_pool(rng, 4, 5, width=2, region=(2, 2)), pool)
        assert run_cli(["decode", "--in", query, "--out", str(tmp_path / "tq.pnct")]) == 0
        assert run_cli(["smooth", "--query", query, "--pool", pool, "--alpha", "0",
                        "--out", str(tmp_path / "s.pnct")]) == 0
        assert run_cli(["decode", "--in", str(tmp_path / "s.pnct"),
                        "--out", str(tmp_path / "ts.pnct")]) == 0
        direct, direct_meta = read_tensor(tmp_path / "tq.pnct")
        smoothed, smoothed_meta = read_tensor(tmp_path / "ts.pnct")
        assert direct.shape == (2, 2) and direct_meta == {"kind": "token-grid", "grid": [2, 2]}
        np.testing.assert_array_equal(smoothed, direct)
        assert smoothed_meta == direct_meta

        (tmp_path / "c.json").write_text(json.dumps({
            "backend": "file", "smoothing": {"alpha": 0.0},
            "files": {"query_scores": query, "pool": pool, "out_tokens": str(tmp_path / "tr.pnct")},
        }))
        assert run_cli(["run", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / "r.json")]) == 0
        tokens, meta = read_tensor(tmp_path / "tr.pnct")
        assert meta["grid"] == [2, 2]
        np.testing.assert_array_equal(tokens, direct)

    def test_eval_iou_and_mse(self, tmp_path):
        write_tensor(np.array([[1, 1], [0, 0]], dtype=np.uint32), tmp_path / "pred.pnct")
        write_tensor(np.array([[1, 0], [0, 0]], dtype=np.uint32), tmp_path / "gt.pnct")
        code = run_cli(["eval", "--pred", str(tmp_path / "pred.pnct"),
                        "--gt", str(tmp_path / "gt.pnct"), "--metric", "iou",
                        "--out", str(tmp_path / "iou.json")])
        assert code == 0
        assert json.loads((tmp_path / "iou.json").read_text())["aggregate"] == 0.5
        code = run_cli(["eval", "--pred", str(tmp_path / "pred.pnct"),
                        "--gt", str(tmp_path / "gt.pnct"), "--metric", "mse",
                        "--out", str(tmp_path / "mse.json")])
        assert code == 0
        assert json.loads((tmp_path / "mse.json").read_text())["aggregate"] == 0.25

    def test_smooth_reads_params_from_config_file(self, tmp_path):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, 4, 5, prompt=PromptSpec("x0", "x0.out", "query", (2, 2)))
        pool = random_pool(rng, 4, 5, width=2, region=(2, 2))
        save_grid(grid, tmp_path / "g.pnct")
        save_pool(pool, tmp_path / "p.pnct")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"smoothing": {"alpha": 0.25, "aggregation": "average"}}))
        code = run_cli([
            "smooth", "--query", str(tmp_path / "g.pnct"), "--pool", str(tmp_path / "p.pnct"),
            "--config", str(config_path), "--out", str(tmp_path / "s.pnct"),
        ])
        assert code == 0
        _, meta = read_tensor(tmp_path / "s.pnct")
        assert meta["config"]["alpha"] == 0.25
        assert meta["config"]["aggregation"] == "average"


class TestExitCodes:
    @pytest.mark.parametrize("flags", [["--bias", "not-floats"], ["--m", "a"], ["--m", "1,,2"]],
                             ids=["bias", "m-letter", "m-empty-entry"])
    def test_usage_error_is_2(self, tmp_path, capsys, flags):
        code = run_cli(["synth-run", *flags, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags", [["--n-seeds", "0"], ["--n-seeds", "-2"],
                                       ["--bias", "1,nan,0"], ["--bias", "1,inf,0"],
                                       ["--seed", "-1"]],
                             ids=["no-seeds", "negative-seeds", "nan-weight", "inf-weight",
                                  "negative-seed"])
    def test_bad_synth_run_value_is_2(self, tmp_path, flags):
        assert run_cli(["synth-run", *flags, "--report", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("widths, repeated", [("1,1", "1"), ("2,4,2", "2")])
    def test_repeated_width_is_a_usage_error(self, tmp_path, capsys, widths, repeated):
        code = run_cli(["synth-run", "--m", widths, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert f"--m repeats the width {repeated}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags, config", [(["--seed", "-1"], {}),
                                               ([], {"queries": {"seed": -3}})],
                             ids=["world-seed-flag", "query-seed-config"])
    def test_negative_seed_in_run_is_2(self, tmp_path, capsys, flags, config):
        (tmp_path / "c.json").write_text(json.dumps(config))
        code = run_cli(["run", "--config", str(tmp_path / "c.json"), *flags,
                        "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_non_finite_scorer_weight_in_config_is_2(self, tmp_path, capsys):
        # Python's JSON reader accepts the NaN literal
        (tmp_path / "c.json").write_text('{"scorer": {"beta_pair": NaN}}')
        code = run_cli(["run", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_config_error_is_2(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backend": "nope"}))
        code = run_cli(["run", "--config", str(config_path), "--out", str(tmp_path / "o.json")])
        assert code == 2

    @pytest.mark.parametrize("flags", [[], ["--k", "2"]], ids=["no-flag", "k-flag"])
    def test_bad_smoothing_section_is_2_for_smooth(self, tmp_path, flags):
        rng = np.random.default_rng(0)
        save_grid(random_grid(rng, 4, 5), tmp_path / "g.pnct")
        save_pool(random_pool(rng, 4, 5, width=2, region=(2, 2)), tmp_path / "p.pnct")
        (tmp_path / "c.json").write_text(json.dumps({"smoothing": []}))
        argv = ["smooth", "--query", str(tmp_path / "g.pnct"), "--pool", str(tmp_path / "p.pnct"),
                "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "s.pnct")]
        assert run_cli(argv + flags) == 2

    @pytest.mark.parametrize("config", [
        {"pool": {"mode": "self"}},
        {"smoothing": {"alhpa": 0.5}},
        {"files": {"bogus": "x.pnct"}},
        {"world": {"rows": "a"}},
        {"retrieval": {"m": "x"}},
        {"smoothing": []},
        {"files": {"query_scores": 3}},
        {"queries": {"n": 1.5}},
        {"smoothing": {"k": 2.5}},
    ], ids=["pool-section", "misspelt-key", "unknown-file", "str-rows", "str-m",
            "list-section", "int-path", "float-n", "float-k"])
    def test_bad_config_key_or_type_is_2(self, tmp_path, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = run_cli(["run", "--config", str(config_path), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("document", ["config", "manifest", "retrieved"])
    @pytest.mark.parametrize("kind", ["directory", "non-utf8", "too-deep", "long-int"])
    def test_unreadable_json_document(self, tmp_path, capsys, document, kind):
        scores, _, config = file_backend_setup(tmp_path)
        paths = {"config": tmp_path / "c.json", "manifest": scores / "manifest.json",
                 "retrieved": tmp_path / "r.json"}
        (tmp_path / "c.json").write_text(json.dumps(config))
        path = paths[document]
        path.unlink()
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b"\xff\xfe{}")
        else:  # JSON the parser cannot hold: nested beyond its recursion limit, or a long int
            path.write_text("[" * 200_000 + "]" * 200_000 if kind == "too-deep" else "1" * 5000)
        if document == "config":
            argv = ["run", "--config", str(path), "--out", str(tmp_path / "report.json")]
        else:
            argv = ["pool", "--backend", "file", "--scores", str(scores),
                    "--retrieved", str(tmp_path / "r.json"), "--out", str(tmp_path / "o.pnct")]
        # an unreadable path is a configuration error, undecodable bytes are
        # what invalid JSON is at that site
        expected = 2 if kind == "directory" or document == "config" else 3
        assert run_cli(argv) == expected
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"items": [["item0000", 0.9]]}',
        '{"query": "item0004", "items": [["item0000", 0.9]',
        '{"query": "item0004", "items": [["item0000", "high"]]}',
        '{"query": "item0004", "items": [["item0000"]]}',
        '{"query": "item0004", "items": "item0000"}',
        '{"query": "item0004", "items": [["item0000", NaN]]}',
        '{"query": "item0004", "items": [["item0000", 0.5], ["item0001", 0.9]]}',
        '{"query": "item0004", "items": [["item0000", 0.9], ["item0000", 0.5]]}',
        '{"query": "item0004", "items": []}',
        '{"query": "item0004", "items": ' + "[" * 200_000 + "]" * 200_000 + "}",
        '{"query": "item0004", "items": [["item0000", ' + "9" * 5000 + "]]}",
        '{"query": "item0004", "items": [["item0000", 1' + "0" * 400 + "]]}",
    ], ids=["no-query", "bad-json", "str-score", "short-entry", "str-items",
            "nan-score", "increasing", "repeated-id", "no-items", "too-deep", "long-int",
            "beyond-float"])
    def test_malformed_retrieved_set_is_3(self, tmp_path, capsys, text):
        (tmp_path / "r.json").write_text(text)
        code = run_cli(["pool", "--backend", "synth", "--retrieved", str(tmp_path / "r.json"),
                        "--out", str(tmp_path / "p.pnct")])
        assert code == 3
        assert str(tmp_path / "r.json") in capsys.readouterr().err
        assert not (tmp_path / "p.pnct").exists()

    @pytest.mark.parametrize("backend, item, query, named", [
        ("synth", "nope", "item0004", "unknown item 'nope'"),
        ("synth", "item0000", "nope", "unknown item 'nope'"),
        ("file", "nope", "query", "no in-context pair registered for 'nope'"),
        ("file", "s0", "other", "no exported scores for prompt 's0__s0.gt__other'"),
    ], ids=["synth-pair", "synth-query", "file-pair", "file-prompt"])
    def test_id_the_backend_cannot_resolve_is_3(self, tmp_path, capsys, backend, item, query,
                                                 named):
        # an id in the retrieved set is a value refused in that file; the
        # file backend resolves it through its manifest, so both are named
        scores, _, _ = file_backend_setup(tmp_path)
        (tmp_path / "r.json").write_text(json.dumps({"query": query, "items": [[item, 0.9]]}))
        argv = ["pool", "--backend", backend, "--retrieved", str(tmp_path / "r.json"),
                "--out", str(tmp_path / "o.pnct")]
        if backend == "file":
            argv += ["--scores", str(scores)]
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "r.json") in err and named in err
        assert (str(scores / "manifest.json") in err) == (backend == "file")
        assert not (tmp_path / "o.pnct").exists()

    @pytest.mark.parametrize("meta", [
        {"ids": 5},
        {"ids": [0, 1, 2]},
        {"ids": ["i0", "i1"]},
        {},
        {"ids": ["i0", "i1", "i0"]},
    ], ids=["int", "int-list", "short-list", "missing", "repeated"])
    def test_malformed_index_ids_is_3(self, tmp_path, capsys, meta):
        vectors = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        write_tensor(vectors, tmp_path / "index.pnct", meta=meta)
        write_tensor(vectors[0], tmp_path / "q.pnct", meta={"id": "q"})
        code = run_cli([
            "retrieve", "--index", str(tmp_path / "index.pnct"),
            "--query", str(tmp_path / "q.pnct"), "--m", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert str(tmp_path / "index.pnct") in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def retrieve_code(self, tmp_path, query_id="q", flags=("--m", "2"), spoil=None):
        vectors = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        query = vectors[0].copy()
        if spoil is not None:  # (role, value): index row 1 or the query set to value
            role, value = spoil
            (vectors[1] if role == "index" else query)[:] = value
        write_tensor(vectors, tmp_path / "index.pnct", meta={"ids": ["i0", "i1", "i2"]})
        write_tensor(query, tmp_path / "q.pnct", meta={"id": query_id})
        return run_cli([
            "retrieve", "--index", str(tmp_path / "index.pnct"),
            "--query", str(tmp_path / "q.pnct"), *flags, "--out", str(tmp_path / "r.json"),
        ])

    @pytest.mark.parametrize("query_id", [5, None, ["q"]], ids=["int", "null", "list"])
    def test_query_id_that_is_no_string_is_3(self, tmp_path, capsys, query_id):
        assert self.retrieve_code(tmp_path, query_id=query_id) == 3
        assert str(tmp_path / "q.pnct") in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("role", ["index", "query"])
    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_degenerate_feature_vector_is_3(self, tmp_path, capsys, role, value):
        assert self.retrieve_code(tmp_path, spoil=(role, value)) == 3
        err = capsys.readouterr().err
        path, ident = {"index": ("index.pnct", "'i1'"), "query": ("q.pnct", "'q'")}[role]
        assert str(tmp_path / path) in err and ident in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags, config", [(["--m", "0"], None), (["--m", "-2"], None),
                                               ([], {"retrieval": {"m": 0}})],
                             ids=["m-0-flag", "m-negative-flag", "m-0-config"])
    def test_retrieve_m_below_one_is_2(self, tmp_path, capsys, flags, config):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            flags = ["--config", str(tmp_path / "c.json")]
        assert self.retrieve_code(tmp_path, flags=flags) == 2
        assert "m must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("role, shape", [
        ("index", ()), ("index", (3,)), ("index", (3, 2, 4)), ("query", ()), ("query", (2, 4)),
    ], ids=["index-rank0", "index-rank1", "index-rank3", "query-rank0", "query-rank2"])
    def test_feature_tensor_of_wrong_rank_is_4(self, tmp_path, capsys, role, shape):
        # the index holds rank-2 or rank-4 stacks, the query one rank-1 or rank-3 tensor
        vectors = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        tensors = {"index": vectors, "query": vectors[0]}
        tensors[role] = np.ones(shape, dtype=np.float32)
        paths = {name: tmp_path / f"{name}.pnct" for name in tensors}
        ids = [f"i{n}" for n in range(len(tensors["index"]) if tensors["index"].ndim else 0)]
        write_tensor(tensors["index"], paths["index"], meta={"ids": ids})
        write_tensor(tensors["query"], paths["query"], meta={"id": "q"})
        code = run_cli([
            "retrieve", "--index", str(paths["index"]), "--query", str(paths["query"]),
            "--m", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 4
        assert str(paths[role]) in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("role, shape", [
        ("index", (3, 0)), ("index", (3, 2, 0, 4)), ("query", (0,)), ("query", (2, 0, 4)),
    ], ids=["index-flat", "index-map", "query-flat", "query-map"])
    def test_empty_feature_row_is_4(self, tmp_path, capsys, role, shape):
        vectors = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        tensors = {"index": vectors, "query": vectors[0]}
        tensors[role] = np.ones(shape, dtype=np.float32)
        paths = {name: tmp_path / f"{name}.pnct" for name in tensors}
        write_tensor(tensors["index"], paths["index"], meta={"ids": ["i0", "i1", "i2"]})
        write_tensor(tensors["query"], paths["query"], meta={"id": "q"})
        code = run_cli([
            "retrieve", "--index", str(paths["index"]), "--query", str(paths["query"]),
            "--m", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 4
        assert str(paths[role]) in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_index_with_no_rows_is_4(self, tmp_path, capsys):
        index, query = tmp_path / "index.pnct", tmp_path / "query.pnct"
        write_tensor(np.ones((0, 8), dtype=np.float32), index, meta={"ids": []})
        write_tensor(np.ones(8, dtype=np.float32), query, meta={"id": "q"})
        code = run_cli(["retrieve", "--index", str(index), "--query", str(query),
                        "--m", "2", "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert str(index) in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("role", ["decode", "query", "pool", "prompt"])
    def test_score_rows_of_length_1_are_4(self, tmp_path, capsys, role):
        rng = np.random.default_rng(4)
        save_grid(random_grid(rng, 4, 5), tmp_path / "g.pnct")
        save_pool(random_pool(rng, 4, 5, width=2, region=(2, 2)), tmp_path / "p.pnct")
        scores = TestCliFlow().setup_scores_dir(tmp_path, rng, ["s0", "s1"])
        (tmp_path / "r.json").write_text(json.dumps(
            {"query": "query", "items": [["s0", 0.9], ["s1", 0.8]]}))
        path = {"decode": tmp_path / "g.pnct", "query": tmp_path / "g.pnct",
                "pool": tmp_path / "p.pnct", "prompt": scores / "s1.pnct"}[role]
        array, meta = read_tensor(path)
        write_tensor(np.ones(array.shape[:-1] + (1,), dtype=np.float32), path, meta=meta)
        out = tmp_path / "o.pnct"
        if role == "decode":
            argv = ["decode", "--in", str(path), "--out", str(out)]
        elif role == "prompt":
            argv = ["pool", "--backend", "file", "--scores", str(scores),
                    "--retrieved", str(tmp_path / "r.json"), "--out", str(out)]
        else:
            argv = ["smooth", "--query", str(tmp_path / "g.pnct"),
                    "--pool", str(tmp_path / "p.pnct"), "--out", str(out)]
        assert run_cli(argv) == 4
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("metric", ["accuracy", "mse", "iou"])
    def test_eval_of_empty_tensors_is_4(self, tmp_path, metric):
        for name in ("pred", "gt"):
            write_tensor(np.zeros(0, dtype=np.uint32), tmp_path / f"{name}.pnct")
        code = run_cli(["eval", "--pred", str(tmp_path / "pred.pnct"),
                        "--gt", str(tmp_path / "gt.pnct"), "--metric", metric,
                        "--out", str(tmp_path / "eval.json")])
        assert code == 4
        assert not (tmp_path / "eval.json").exists()

    def test_format_error_is_3(self, tmp_path):
        rng = np.random.default_rng(0)
        pool = random_pool(rng, 4, 5, width=2, region=(2, 2))
        save_pool(pool, tmp_path / "p.pnct")
        blob = bytearray((tmp_path / "p.pnct").read_bytes())
        blob[-10] ^= 0xFF
        (tmp_path / "p.pnct").write_bytes(bytes(blob))
        grid = random_grid(rng, 4, 5)
        save_grid(grid, tmp_path / "g.pnct")
        code = run_cli([
            "smooth", "--query", str(tmp_path / "g.pnct"), "--pool", str(tmp_path / "p.pnct"),
            "--out", str(tmp_path / "s.pnct"),
        ])
        assert code == 3

    def test_overflowing_shape_is_3(self, tmp_path):
        # 40 bytes: rank 2, dims (2**32, 2**32), no sidecar, valid CRC; the
        # element count wraps to 0 in int64
        body = b"PNCL" + struct.pack("<IIIQQI", 1, 1, 2, 2**32, 2**32, 0)
        (tmp_path / "f.pnct").write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = run_cli(["decode", "--in", str(tmp_path / "f.pnct"), "--out", str(tmp_path / "g")])
        assert code == 3
        assert not (tmp_path / "g").exists()

    def test_dimension_error_is_4(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = random_grid(rng, 2, 5)  # two patches
        pool = random_pool(rng, 4, 5, width=2, region=(2, 2))  # four patches
        save_grid(grid, tmp_path / "g.pnct")
        save_pool(pool, tmp_path / "p.pnct")
        code = run_cli([
            "smooth", "--query", str(tmp_path / "g.pnct"), "--pool", str(tmp_path / "p.pnct"),
            "--out", str(tmp_path / "s.pnct"),
        ])
        assert code == 4
        # a sidecar grid whose rows x cols is not the patch count
        write_tensor(random_grid(rng, 4, 5).probs, tmp_path / "g4.pnct",
                     meta={"kind": "score-grid", "grid": [3, 3]})
        code = run_cli(["decode", "--in", str(tmp_path / "g4.pnct"), "--out", str(tmp_path / "t")])
        assert code == 4
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("case, expected", [
        ("smooth-patches", 4), ("smooth-unreachable", 3), ("run-patches", 4), ("retrieve-dim", 4),
    ])
    def test_two_file_refusal_names_both_files(self, tmp_path, capsys, case, expected):
        # a refusal that needs both inputs to happen is in neither file alone
        rng = np.random.default_rng(0)
        first, second = tmp_path / "a.pnct", tmp_path / "b.pnct"
        out = tmp_path / "o.pnct"
        if case == "retrieve-dim":
            write_tensor(rng.normal(size=(3, 8)).astype(np.float32), first,
                         meta={"ids": ["i0", "i1", "i2"]})
            write_tensor(rng.normal(size=12).astype(np.float32), second, meta={"id": "q"})
            argv = ["retrieve", "--index", str(first), "--query", str(second), "--m", "2",
                    "--out", str(out)]
        else:
            patches = 5 if case.endswith("patches") else 4
            probs = rng.dirichlet(np.ones(5), size=patches)
            if case == "smooth-unreachable":
                probs[:, 1:] = 0.0  # every pool row has mass where the query has none: KL = +inf
                probs[:, 0] = 1.0
            save_grid(ScoreGrid(probs=probs), first)
            save_pool(random_pool(rng, 4, 5, width=2, region=(2, 2)), second)
            if case == "run-patches":
                (tmp_path / "c.json").write_text(json.dumps({"backend": "file", "files": {
                    "query_scores": str(first), "pool": str(second), "out_tokens": str(out)}}))
                argv = ["run", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / "report.json")]
            else:
                argv = ["smooth", "--query", str(first), "--pool", str(second), "--div", "kl",
                        "--out", str(out), "--diag", str(tmp_path / "d.json")]
        assert run_cli(argv) == expected
        assert f"{first}, {second}: " in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "d.json").exists() and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_unwritable_diag_leaves_out_as_it_was(self, tmp_path, capsys, existing):
        rng = np.random.default_rng(0)
        save_grid(random_grid(rng, 4, 5), tmp_path / "g.pnct")
        save_pool(random_pool(rng, 4, 5, width=2, region=(2, 2)), tmp_path / "p.pnct")
        out, diag = tmp_path / "o.pnct", tmp_path / "no-such-dir" / "d.json"
        if existing:
            out.write_bytes(b"an earlier output")
        code = run_cli(["smooth", "--query", str(tmp_path / "g.pnct"),
                        "--pool", str(tmp_path / "p.pnct"), "--out", str(out), "--diag", str(diag)])
        assert code == 2
        assert str(diag) in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier output" if existing else not out.exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("case", ["config-query-scores", "manifest-prompt", "decode-out",
                                      "decode-out-directory"])
    def test_unreadable_path_is_2(self, tmp_path, capsys, case):
        rng = np.random.default_rng(0)
        missing = tmp_path / "no-such-dir" / "t.pnct"
        if case == "config-query-scores":
            save_pool(random_pool(rng, 4, 5, width=2, region=(2, 2)), tmp_path / "p.pnct")
            (tmp_path / "c.json").write_text(json.dumps({"backend": "file", "files": {
                "query_scores": str(missing), "pool": str(tmp_path / "p.pnct")}}))
            argv = ["run", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o.json")]
        elif case == "manifest-prompt":
            scores = TestCliFlow().setup_scores_dir(tmp_path, rng, ["s0", "s1"])
            missing = scores / "s1.pnct"
            missing.unlink()
            (tmp_path / "r.json").write_text(json.dumps(
                {"query": "query", "items": [["s0", 0.9], ["s1", 0.8]]}))
            argv = ["pool", "--backend", "file", "--scores", str(scores),
                    "--retrieved", str(tmp_path / "r.json"), "--out", str(tmp_path / "o.json")]
        else:
            if case == "decode-out-directory":
                missing = tmp_path / "out"
                missing.mkdir()
            save_grid(random_grid(rng, 4, 5), tmp_path / "g.pnct")
            argv = ["decode", "--in", str(tmp_path / "g.pnct"), "--out", str(missing)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert not re.search(r"\.pnct\S+\.tmp", err)  # names the path, not its temp file
        assert not (tmp_path / "o.json").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["decode", "smooth"])
    @pytest.mark.parametrize("meta", [{"kind": "token-grid"}, {"kind": "token-grid", "grid": [2, 3]}],
                             ids=["no-grid", "grid"])
    def test_token_grid_as_scores_is_3(self, tmp_path, command, meta):
        tokens = tmp_path / "t.pnct"
        write_tensor(np.array([[2, 0, 1], [2, 2, 0]], dtype=np.uint32), tokens, meta=meta)
        save_pool(random_pool(np.random.default_rng(0), 6, 3, width=2, region=(2, 3)),
                  tmp_path / "p.pnct")
        argv = ["decode", "--in", str(tokens)] if command == "decode" else [
            "smooth", "--query", str(tokens), "--pool", str(tmp_path / "p.pnct")]
        assert run_cli(argv + ["--out", str(tmp_path / "o.pnct")]) == 3
        assert not (tmp_path / "o.pnct").exists()

    @staticmethod
    def spoiled(array, fault):
        """A copy of the score or key tensor ``array`` with one fault."""
        array = np.array(array)
        rows = array.reshape(-1, array.shape[-1])
        if fault == "no-rows":
            return array[:0]
        if fault == "zero-row":
            rows[1] = 0.0
        else:
            rows[1, 2] = {"nan": np.nan, "inf": np.inf, "negative": -0.5}[fault]
        return array

    @pytest.mark.parametrize("role, fault", [
        *itertools.product(["query", "decode", "pool", "prompt"],
                           ["nan", "inf", "negative", "zero-row"]),
        ("pool", "kind"), ("prompt", "no-rows"), ("query-keys", "nan"), ("query-keys", "inf"),
        ("pool-keys", "nan"), ("pool-keys", "inf"),
    ])
    def test_refused_score_or_key_values_are_3(self, tmp_path, capsys, role, fault):
        # keys are unconstrained vectors: only non-finite entries are faults
        rng = np.random.default_rng(3)
        region = (2, 2)
        save_grid(random_grid(rng, 4, 5, prompt=PromptSpec("s0", "s0.gt", "query", region)),
                  tmp_path / "g.pnct")
        save_pool(random_pool(rng, 4, 5, width=2, region=region), tmp_path / "p.pnct")
        write_tensor(rng.normal(size=(4, 3)).astype(np.float32), tmp_path / "qk.pnct")
        write_tensor(rng.normal(size=(2, 4, 3)).astype(np.float32), tmp_path / "pk.pnct")
        scores = TestCliFlow().setup_scores_dir(tmp_path, rng, ["s0", "s1"])
        (tmp_path / "r.json").write_text(json.dumps(
            {"query": "query", "items": [["s0", 0.9], ["s1", 0.8]]}))
        path = {"query": tmp_path / "g.pnct", "decode": tmp_path / "g.pnct",
                "pool": tmp_path / "p.pnct", "prompt": scores / "s1.pnct",
                "query-keys": tmp_path / "qk.pnct", "pool-keys": tmp_path / "pk.pnct"}[role]
        array, meta = read_tensor(path)
        if fault == "kind":
            meta = {"kind": "score-grid"}
        else:
            array = self.spoiled(array, fault)
        write_tensor(array, path, meta=meta)
        out = tmp_path / "o.pnct"
        if role == "decode":
            argv = ["decode", "--in", str(path), "--out", str(out)]
        elif role == "prompt":
            argv = ["pool", "--backend", "file", "--scores", str(scores),
                    "--retrieved", str(tmp_path / "r.json"), "--out", str(out)]
        else:
            argv = ["smooth", "--query", str(tmp_path / "g.pnct"),
                    "--pool", str(tmp_path / "p.pnct"), "--key", "feature",
                    "--query-keys", str(tmp_path / "qk.pnct"),
                    "--pool-keys", str(tmp_path / "pk.pnct"),
                    "--out", str(out), "--diag", str(tmp_path / "d.json")]
        assert run_cli(argv) == 3
        assert str(path) in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "d.json").exists()

    MISSING = "<missing>"

    @pytest.mark.parametrize("target, field, value", [
        ("pool", "pair_indices", MISSING),
        ("pool", "pair_indices", [1]),
        ("pool", "prompts", MISSING),
        ("pool", "prompts", [{"anchor": "query", "masked_region": [2, 2]}]),
        ("pool", "m", "2"),
        ("pool", "mode", "sideways"),
        ("grid", "prompt", {"in_context_input": "x0", "in_context_output": "x0.out",
                            "anchor": "query", "masked_region": [2]}),
        ("grid", "grid", [2]),
        ("manifest", "grid", MISSING),
        ("manifest", "grid", [2]),
        ("manifest", "codebook_size", "5"),
        ("manifest", "pairs", MISSING),
        ("manifest", "pairs", ["s0", "s1"]),
        ("manifest", "prompts", MISSING),
        ("manifest", "patch_order", "column-major"),
        ("pool", "pair_indices", [True, 2]),
        ("grid", "grid", [-2, -2]),
        ("grid", "grid", [0, 4]),
        ("grid", "prompt", {"in_context_input": "x0", "in_context_output": "x0.out",
                            "anchor": "query", "masked_region": [0, 49]}),
        ("manifest", "codebook_size", 1),
        ("manifest", "grid", [0, 2]),
        # provenance: distinct pair ranks in [1, m], and one prompt per row
        ("pool", "m", 0),
        ("pool", "m", -3),
        ("pool", "m", 1),
        ("pool", "pair_indices", [1, 1]),
        ("pool", "pair_indices", [0, -1]),
        ("pool", "pair_indices", [1, 7]),
        ("pool", "prompts", [{"in_context_input": "x0", "in_context_output": "x0.out",
                              "anchor": "query", "masked_region": [2, 2]}]),
    ])
    def test_malformed_field_is_format_error(self, tmp_path, target, field, value):
        rng = np.random.default_rng(0)
        region = (2, 2)
        save_grid(random_grid(rng, 4, 5, prompt=PromptSpec("x0", "x0.out", "query", region)),
                  tmp_path / "g.pnct")
        save_pool(random_pool(rng, 4, 5, width=2, region=region), tmp_path / "p.pnct")
        scores = TestCliFlow().setup_scores_dir(tmp_path, rng, ["s0", "s1"])
        (tmp_path / "r.json").write_text(json.dumps(
            {"query": "query", "items": [["s0", 0.9], ["s1", 0.8]]}))

        def edit(meta):
            if value == self.MISSING:
                del meta[field]
            else:
                meta[field] = value
            return meta

        if target == "manifest":
            manifest = scores / "manifest.json"
            manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
            argv = ["pool", "--backend", "file", "--scores", str(scores),
                    "--retrieved", str(tmp_path / "r.json"), "--out", str(tmp_path / "o.pnct")]
        else:
            path = tmp_path / ("p.pnct" if target == "pool" else "g.pnct")
            array, meta = read_tensor(path)
            write_tensor(array, path, meta=edit(meta))
            argv = ["smooth", "--query", str(tmp_path / "g.pnct"),
                    "--pool", str(tmp_path / "p.pnct"), "--out", str(tmp_path / "s.pnct")]
            if target == "grid":
                argv = ["decode", "--in", str(path), "--out", str(tmp_path / "t.pnct")]
        assert run_cli(argv) == 3

    @staticmethod
    def respoiled(path, array=None, **meta):
        """Rewrite the tensor file ``path`` with ``array`` in place of its
        own, if given, and ``meta`` merged over its sidecar."""
        own, sidecar = read_tensor(path)
        write_tensor(own if array is None else array, path, meta={**sidecar, **meta})

    NINE_PATCH_PROMPT = {"in_context_input": "s0", "in_context_output": "s0.gt",
                         "anchor": "query", "masked_region": [3, 3]}

    #: the file whose shape each case refuses
    REFUSED_SHAPES = {
        "query-keys-shape": "qk.pnct", "pool-keys-shape": "pk.pnct",
        "grid-prompt-decode": "g.pnct", "grid-prompt-smooth": "g.pnct", "grid-prompt-run": "g.pnct",
        "pool-prompt": "p.pnct", "gt-length": "tokens.pnct", "exported-length": "scores/s1.pnct",
        "exported-width": "scores/s1.pnct",
    }

    @pytest.mark.parametrize("case", REFUSED_SHAPES)
    def test_shape_refused_in_a_file_is_4_naming_it(self, tmp_path, capsys, case):
        refused = self.REFUSED_SHAPES[case]
        _, _, config = file_backend_setup(tmp_path)
        rng = np.random.default_rng(5)
        write_tensor(rng.normal(size=(4, 3)).astype(np.float32), tmp_path / "qk.pnct")
        write_tensor(rng.normal(size=(2, 4, 3)).astype(np.float32), tmp_path / "pk.pnct")
        if case.endswith("keys-shape"):  # one patch short
            self.respoiled(tmp_path / refused, read_tensor(tmp_path / refused)[0][..., :3, :])
        elif case.startswith("grid-prompt"):
            self.respoiled(tmp_path / refused, prompt=self.NINE_PATCH_PROMPT)
        elif case == "pool-prompt":
            self.respoiled(tmp_path / refused, prompts=[self.NINE_PATCH_PROMPT] * 2)
        elif case == "exported-length":  # one patch short
            self.respoiled(tmp_path / refused, read_tensor(tmp_path / refused)[0][:3])
        elif case == "exported-width":  # one code short of the manifest's codebook
            self.respoiled(tmp_path / refused, read_tensor(tmp_path / refused)[0][:, :4])
        else:
            self.respoiled(tmp_path / refused, np.zeros(5, dtype=np.uint32))
        out = tmp_path / "o.pnct"
        if case == "grid-prompt-decode":
            argv = ["decode", "--in", str(tmp_path / "g.pnct"), "--out", str(out)]
        elif case.startswith("exported"):
            argv = ["pool", "--backend", "file", "--scores", str(tmp_path / "scores"),
                    "--retrieved", str(tmp_path / "r.json"), "--out", str(out)]
        elif case in ("grid-prompt-run", "gt-length"):
            config["files"]["out_tokens"] = str(out)
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv = ["run", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o.json")]
        else:
            argv = ["smooth", "--query", str(tmp_path / "g.pnct"),
                    "--pool", str(tmp_path / "p.pnct"), "--key", "feature",
                    "--query-keys", str(tmp_path / "qk.pnct"),
                    "--pool-keys", str(tmp_path / "pk.pnct"), "--out", str(out)]
        assert run_cli(argv) == 4
        assert f"error: {tmp_path / refused}: " in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "o.json").exists()

    #: each case's exit code and a fragment of its message
    REFUSED_OPTIONS = {
        "config-array": (2, "must hold a JSON object"),
        "divergence-run": (2, "invalid smoothing section"),
        "divergence-smooth": (2, "invalid smoothing section"),
        "pool-file-no-scores": (2, "--scores is required"),
        "scorer-zero-mass": (2, "positive total mass"),
        "scorer-coupling": (2, "similarity coupling must lie in [0, 1]"),
        "synth-run-no-queries": (2, "at least one query"),
        "key-widths": (4, "pool feature_keys have length 2, query keys 3"),
        "config-too-deep": (2, "invalid JSON: maximum recursion depth"),
        "config-long-int": (2, "invalid JSON: Exceeds the limit"),
        # an overflowing float parses as inf; Python's JSON reader accepts Infinity
        **{case: (2, "tau must be positive and finite, got inf")
           for case in ("tau-1e400", "tau-infinity", "run-tau-inf", "smooth-tau-inf",
                        "synth-run-tau-inf")},
        **{f"{key}-beyond-float": (2, f"config key {key!r} must be a float")
           for key in ("smoothing.alpha", "smoothing.tau", "scorer.beta_truth",
                       "scorer.beta_pair", "scorer.epsilon_noise")},
    }

    @pytest.mark.parametrize("case", REFUSED_OPTIONS)
    def test_refused_option_or_operand(self, tmp_path, capsys, case):
        code, fragment = self.REFUSED_OPTIONS[case]
        file_backend_setup(tmp_path)
        config = {
            "config-array": [],
            "divergence-run": {"smoothing": {"divergence": "hellinger"}},
            "divergence-smooth": {"smoothing": {"divergence": "hellinger"}},
            "scorer-zero-mass": {"scorer": {"beta_truth": 0.0, "beta_pair": 0.0,
                                            "epsilon_noise": 0.0}},
            "scorer-coupling": {"scorer": {"similarity_coupling": 2.0}},
        }.get(case, {})
        if case.endswith("-beyond-float"):  # an int no float holds
            section, key = case.removesuffix("-beyond-float").split(".")
            config = {section: {key: 10 ** 400}}
        text = {  # JSON the parser cannot hold
            "config-too-deep": '{"smoothing": ' + "[" * 200_000 + "]" * 200_000 + "}",
            "config-long-int": '{"queries": {"n": ' + "1" * 5000 + "}}",
            "tau-1e400": '{"smoothing": {"tau": 1e400}}',
            "tau-infinity": '{"smoothing": {"tau": Infinity}}',
        }.get(case) or json.dumps(config)
        (tmp_path / "c.json").write_text(text)
        out = tmp_path / "o.out"
        smooth = ["smooth", "--query", str(tmp_path / "g.pnct"), "--pool", str(tmp_path / "p.pnct"),
                  "--out", str(out)]
        if case == "divergence-smooth":
            argv = smooth + ["--config", str(tmp_path / "c.json")]
        elif case == "pool-file-no-scores":
            argv = ["pool", "--backend", "file", "--retrieved", str(tmp_path / "r.json"),
                    "--out", str(out)]
        elif case == "synth-run-no-queries":
            argv = ["synth-run", "--queries", "0", "--report", str(out)]
        elif case == "synth-run-tau-inf":
            argv = ["synth-run", "--tau", "inf", "--report", str(out)]
        elif case == "smooth-tau-inf":
            argv = smooth + ["--tau", "inf"]
        elif case == "key-widths":
            rng = np.random.default_rng(6)
            write_tensor(rng.normal(size=(4, 3)).astype(np.float32), tmp_path / "qk.pnct")
            write_tensor(rng.normal(size=(2, 4, 2)).astype(np.float32), tmp_path / "pk.pnct")
            argv = smooth + ["--key", "feature", "--query-keys", str(tmp_path / "qk.pnct"),
                             "--pool-keys", str(tmp_path / "pk.pnct")]
        else:
            argv = ["run", "--config", str(tmp_path / "c.json"), "--out", str(out)]
            if case == "run-tau-inf":
                argv += ["--tau", "inf"]
        assert run_cli(argv) == code
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("metric", ["iou", "mse", "accuracy"])
    @pytest.mark.parametrize("case, code, named", [("pred-nan", 3, ["pred"]),
                                                   ("gt-inf", 3, ["gt"]),
                                                   ("shape", 4, ["pred", "gt"])])
    def test_refused_eval_input_names_its_files(self, tmp_path, capsys, metric, case, code,
                                                named):
        """A non-finite entry is a value refused in a file (exit 3), under
        every metric; a shape mismatch names both files (exit 4)."""
        pred = np.array([[0.0, 1.0]], dtype=np.float32)
        gt = np.array([[0.0, 1.0, 1.0]] if case == "shape" else [[0.0, 1.0]], dtype=np.float32)
        if case == "pred-nan":
            pred[0, 1] = np.nan
        elif case == "gt-inf":
            gt[0, 0] = np.inf
        write_tensor(pred, tmp_path / "pred.pnct")
        write_tensor(gt, tmp_path / "gt.pnct")
        out = tmp_path / "eval.json"
        assert run_cli(["eval", "--pred", str(tmp_path / "pred.pnct"),
                        "--gt", str(tmp_path / "gt.pnct"), "--metric", metric,
                        "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert all(str(tmp_path / f"{name}.pnct") in err for name in named)
        assert ("shape mismatch" in err) == (case == "shape")
        assert not out.exists()


# -- fuzzing the JSON documents that point at files -------------------------

PROMPT_KEY = "s0__s0.gt__query"
MANIFEST_SLOTS = [("grid",), ("codebook_size",), ("patch_order",), ("pairs",), ("pairs", "s0"),
                  ("prompts",), ("prompts", PROMPT_KEY), ("schema_version",)]
CONFIG_SLOTS = [("backend",), ("files",), ("files", "query_scores"), ("files", "pool"),
                ("files", "gt_tokens"), ("files", "out_tokens"), ("files", "item_id")]
# no plain strings: a relative path would be written outside the test's directory
RETYPED = [None, True, 7, -1, 2.5, [], [2, 2], {}, {"s0": "s0.gt"}]
# manifest entries are relative to the scores directory, config paths are absolute
PATH_TARGETS = {
    "missing": ("missing.pnct", "missing/f.pnct"),
    "token-grid": ("../tokens.pnct", "tokens.pnct"),
    "pool": ("../p.pnct", "p.pnct"),
    "grid": ("../g.pnct", "g.pnct"),
    "directory": (".", "scores"),
}


def file_backend_setup(tmp: Path) -> tuple[Path, dict, dict]:
    """Exported scores with their manifest, a retrieved set, a query grid, a
    pool and a ground-truth token grid, all valid; returns the scores
    directory, the manifest and a file-backend run config."""
    rng = np.random.default_rng(0)
    scores = TestCliFlow().setup_scores_dir(tmp, rng, ["s0", "s1"])
    (tmp / "r.json").write_text(json.dumps({"query": "query", "items": [["s0", 0.9], ["s1", 0.8]]}))
    region = (2, 2)
    save_grid(random_grid(rng, 4, 5, prompt=PromptSpec("s0", "s0.gt", "query", region)), tmp / "g.pnct")
    save_pool(random_pool(rng, 4, 5, width=2, region=region), tmp / "p.pnct")
    write_tensor(rng.integers(0, 5, size=region).astype(np.uint32), tmp / "tokens.pnct",
                 meta={"kind": "token-grid"})
    config = {"backend": "file", "files": {
        "query_scores": str(tmp / "g.pnct"), "pool": str(tmp / "p.pnct"),
        "gt_tokens": str(tmp / "tokens.pnct"), "out_tokens": str(tmp / "out.pnct"),
        "item_id": "query",
    }}
    return scores, json.loads((scores / "manifest.json").read_text()), config


def strict_json(path: Path):
    """The JSON document at ``path``; NaN, Infinity and -Infinity, which
    RFC 8259 does not allow, fail the test."""
    def refuse(constant):
        raise AssertionError(f"{path} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_every_json_document_is_strict_json(tmp_path):
    """Every command that writes a JSON document writes RFC 8259 JSON,
    also the diag of a KL neighbour at +inf."""
    _, _, config = file_backend_setup(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(config))
    TestCliFlow().setup_retrieval_files(tmp_path, np.random.default_rng(3))
    # KL(entry || query) is +inf for pair 1's entries, which put mass on code 2
    prompts = tuple(PromptSpec(f"s{i}", f"s{i}.gt", "query", (2, 2)) for i in range(2))
    save_grid(ScoreGrid(probs=np.tile([0.5, 0.5, 0.0], (4, 1)), prompt=prompts[0]),
              tmp_path / "kl-grid.pnct")
    save_pool(PromptPool(probs=np.stack([np.tile([0.2, 0.3, 0.5], (4, 1)),
                                         np.tile([0.6, 0.4, 0.0], (4, 1))]),
                         pair_indices=np.arange(1, 3), prompts=prompts, mode=PoolMode.Q, m=2),
              tmp_path / "kl-pool.pnct")
    tokens = str(tmp_path / "tokens.pnct")
    commands = {
        "retrieved.json": ["retrieve", "--index", str(tmp_path / "index.pnct"),
                           "--query", str(tmp_path / "query.pnct"), "--out"],
        "diag.json": ["smooth", "--query", str(tmp_path / "kl-grid.pnct"),
                      "--pool", str(tmp_path / "kl-pool.pnct"), "--div", "kl",
                      "--out", str(tmp_path / "kl-smoothed.pnct"), "--diag"],
        **{f"{metric}.json": ["eval", "--pred", tokens, "--gt", tokens, "--metric", metric,
                              "--out"] for metric in ("iou", "mse", "accuracy")},
        "sweep.json": ["synth-run", "--rows", "2", "--cols", "2", "--codebook", "4",
                       "--items", "10", "--m", "1,2", "--queries", "2", "--report"],
        "synth-report.json": ["run", "--out"],
        "file-report.json": ["run", "--config", str(tmp_path / "c.json"), "--out"],
    }
    for name, argv in commands.items():
        assert run_cli([*argv, str(tmp_path / name)]) == 0, name
        strict_json(tmp_path / name)
    per_patch = strict_json(tmp_path / "diag.json")["per_patch"]
    assert [[(n["pair"], n["distance"] is None, n["weight"]) for n in patch][1]
            for patch in per_patch] == [(1, True, 0.0)] * 4


MUTATIONS = st.one_of(
    st.just(("drop", None)),
    st.tuples(st.just("retype"), st.sampled_from(RETYPED)),
    st.tuples(st.just("path"), st.sampled_from(sorted(PATH_TARGETS))),
    # the document itself repointed: a directory, or bytes that are not UTF-8
    st.tuples(st.just("document"), st.sampled_from(["directory", "non-utf8"])),
)


@given(
    target=st.sampled_from([("manifest", slot) for slot in MANIFEST_SLOTS]
                           + [("config", slot) for slot in CONFIG_SLOTS]),
    mutation=MUTATIONS,
)
@settings(max_examples=100, deadline=None)
def test_mutated_documents_end_in_an_exit_code(target, mutation):
    """One mutated key in a manifest or a run config: the CLI exits through
    its own handlers (a typed error or success), never with a traceback."""
    (document, (*parents, key)), (op, value) = target, mutation
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        scores, manifest, config = file_backend_setup(tmp)
        section = manifest if document == "manifest" else config
        for parent in parents:
            section = section[parent]
        if op == "drop":
            del section[key]
        elif op == "retype":
            section[key] = value
        elif op == "path":
            relative, absolute = PATH_TARGETS[value]
            section[key] = relative if document == "manifest" else str(tmp / absolute)
        path = scores / "manifest.json" if document == "manifest" else tmp / "c.json"
        text = json.dumps(manifest if document == "manifest" else config)
        path.write_text(text)
        if op == "document":
            path.unlink()
            if value == "directory":
                path.mkdir()
            else:
                path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        if document == "manifest":
            argv = ["pool", "--backend", "file", "--scores", str(scores),
                    "--retrieved", str(tmp / "r.json"), "--out", str(tmp / "o.pnct")]
        else:
            argv = ["run", "--config", str(path), "--out", str(tmp / "report.json")]
        assert run_cli(argv) in (0, 1, 2, 3, 4)
