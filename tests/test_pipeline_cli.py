import json

import numpy as np
import pytest

from patchsmooth.cli import main
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
from patchsmooth.smoothing import SmoothingConfig, smooth_grid
from patchsmooth.tensorfile import read_tensor, write_tensor


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

    def test_byte_reproducible(self):
        a = run_pipeline(load_config()).to_json()
        b = run_pipeline(load_config()).to_json()
        assert a == b

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
        grid = load_grid(tmp_path / "query.pnct")
        pool = load_pool(tmp_path / "pool.pnct")
        expected = smooth_grid(grid, pool, SmoothingConfig(m=3))
        tokens, _ = read_tensor(tmp_path / "out.pnct")
        assert list(tokens.reshape(-1)) == np.argmax(expected.probs, axis=1).tolist()

    def test_missing_inputs_rejected(self):
        with pytest.raises(ConfigError):
            run_pipeline(load_config(overrides={"backend": "file"}))


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
            load_grid(tmp_path / "g.pnct"), load_pool(tmp_path / "p.pnct"),
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
    def test_usage_error_is_2(self, tmp_path):
        code = run_cli([
            "synth-run", "--bias", "not-floats", "--report", str(tmp_path / "r.json")
        ])
        assert code == 2

    def test_config_error_is_2(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"backend": "nope"}))
        code = run_cli(["run", "--config", str(config_path), "--out", str(tmp_path / "o.json")])
        assert code == 2

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

    @pytest.mark.parametrize("text", [
        '{"items": [["item0000", 0.9]]}',
        '{"query": "item0004", "items": [["item0000", 0.9]',
        '{"query": "item0004", "items": [["item0000", "high"]]}',
        '{"query": "item0004", "items": [["item0000"]]}',
        '{"query": "item0004", "items": "item0000"}',
    ], ids=["no-query", "bad-json", "str-score", "short-entry", "str-items"])
    def test_malformed_retrieved_set_is_3(self, tmp_path, text):
        (tmp_path / "r.json").write_text(text)
        code = run_cli(["pool", "--backend", "synth", "--retrieved", str(tmp_path / "r.json"),
                        "--out", str(tmp_path / "p.pnct")])
        assert code == 3

    @pytest.mark.parametrize("meta", [
        {"ids": 5},
        {"ids": [0, 1, 2]},
        {"ids": ["i0", "i1"]},
        {},
    ], ids=["int", "int-list", "short-list", "missing"])
    def test_malformed_index_ids_is_3(self, tmp_path, meta):
        vectors = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        write_tensor(vectors, tmp_path / "index.pnct", meta=meta)
        write_tensor(vectors[0], tmp_path / "q.pnct", meta={"id": "q"})
        code = run_cli([
            "retrieve", "--index", str(tmp_path / "index.pnct"),
            "--query", str(tmp_path / "q.pnct"), "--m", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert not (tmp_path / "r.json").exists()

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
