"""End-to-end pipeline: retrieve -> pool -> score -> smooth -> decode -> eval.

One JSON config drives everything; unset fields fall back to the defaults
below, and CLI flags override file values. The effective config is echoed
into every report so results stay attributable. Reports are plain JSON
with sorted keys and no timestamps: a fixed config and seed reproduces
them byte for byte.
"""

from __future__ import annotations

import copy
import json
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .metrics import EvalReport, decode_argmax, mse, pixel_accuracy
from .pool import PoolMode, build_pool, load_grid, load_pool, save_pool
from .smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothingConfig,
    smooth_grid,
)
from .synthbench import (
    BiasedScorerParams,
    SyntheticScorerBackend,
    SyntheticWorld,
    generate_world,
    run_bias_experiment,
)
from .tensorfile import read_tensor, write_tensor

DEFAULT_CONFIG = {
    "backend": "synth",
    "world": {
        "seed": 0,
        "rows": 4,
        "cols": 4,
        "codebook_size": 8,
        "n_items": 24,
        "task_family": "identity",
    },
    "scorer": {
        "beta_truth": 0.45,
        "beta_pair": 0.45,
        "epsilon_noise": 0.1,
        "similarity_coupling": 0.0,
    },
    "retrieval": {"m": 4},
    "pool": {"mode": "q", "seed": None},
    "smoothing": {
        "k": None,
        "alpha": 1.0,
        "tau": 1.0,
        "divergence": "js",
        "key": "score",
        "aggregation": "weighted",
        "scope": "patch",
    },
    "queries": {"n": 3, "seed": 0},
    "files": {},
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults <- config file <- explicit overrides, deep-merged; the
    result shares no nested dict with the defaults or the inputs."""
    config = DEFAULT_CONFIG
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        config = _deep_merge(config, loaded)
    if overrides:
        config = _deep_merge(config, overrides)
    return copy.deepcopy(config)


def smoothing_config(config: dict, m: int) -> SmoothingConfig:
    section = config["smoothing"]
    try:
        return SmoothingConfig(
            m=m,
            k=section["k"],
            alpha=float(section["alpha"]),
            tau=float(section["tau"]),
            divergence=DivergenceKind(section["divergence"]),
            key=NeighborKey(section["key"]),
            aggregation=Aggregation(section["aggregation"]),
            scope=PoolScope(section["scope"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid smoothing section: {exc}") from exc


@dataclass(frozen=True)
class PipelineReport:
    """Config echo plus one EvalReport per (metric, arm)."""

    config: dict
    reports: tuple[EvalReport, ...]
    artifacts: dict
    schema_version: int = 1

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "reports": [r.to_dict() for r in self.reports],
            "artifacts": self.artifacts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def report(self, metric: str) -> EvalReport:
        for r in self.reports:
            if r.metric == metric:
                return r
        raise KeyError(metric)


def _token_mse(a, b) -> float:
    return mse(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def synth_world(config: dict) -> tuple[SyntheticWorld, BiasedScorerParams]:
    """The synthetic world and scorer weights a config's world and scorer
    sections describe."""
    w = config["world"]
    world = generate_world(
        seed=int(w["seed"]),
        rows=int(w["rows"]),
        cols=int(w["cols"]),
        codebook_size=int(w["codebook_size"]),
        n_items=int(w["n_items"]),
        task_family=w["task_family"],
    )
    s = config["scorer"]
    params = BiasedScorerParams(
        beta_truth=float(s["beta_truth"]),
        beta_pair=float(s["beta_pair"]),
        epsilon_noise=float(s["epsilon_noise"]),
        similarity_coupling=float(s.get("similarity_coupling", 0.0)),
    )
    return world, params


def _synth_pipeline(config: dict) -> PipelineReport:
    world, params = synth_world(config)
    smoothing = smoothing_config(config, m=int(config["retrieval"]["m"]))
    experiment = run_bias_experiment(
        world,
        params,
        [smoothing],
        n_queries=int(config["queries"]["n"]),
        seed=int(config["queries"]["seed"]),
    )
    rows = experiment["configs"][0]["per_query"]
    echo = _deep_merge(config, {"smoothing": smoothing.echo()})

    reports = (
        EvalReport.from_items(
            "baseline_accuracy", [(r["query"], r["baseline_accuracy"]) for r in rows], echo
        ),
        EvalReport.from_items(
            "smoothed_accuracy", [(r["query"], r["smoothed_accuracy"]) for r in rows], echo
        ),
        EvalReport.from_items(
            "baseline_mse",
            [(r["query"], _token_mse(r["baseline_tokens"], r["truth"])) for r in rows],
            echo,
        ),
        EvalReport.from_items(
            "smoothed_mse",
            [(r["query"], _token_mse(r["smoothed_tokens"], r["truth"])) for r in rows],
            echo,
        ),
        EvalReport.from_items(
            "smoothed_js_to_truth", [(r["query"], r["js_to_truth"]) for r in rows], echo
        ),
    )
    return PipelineReport(config=echo, reports=reports, artifacts={})


def _file_pipeline(config: dict) -> PipelineReport:
    files = config["files"]
    for required in ("query_scores", "pool"):
        if required not in files:
            raise ConfigError(f"file backend needs files.{required}")
    query_grid = load_grid(files["query_scores"])
    pool = load_pool(files["pool"])
    smoothing = smoothing_config(config, m=pool.m)
    smoothed = smooth_grid(query_grid, pool, smoothing)
    echo = _deep_merge(config, {"smoothing": smoothing.echo()})

    if query_grid.prompt is not None:
        shape = query_grid.prompt.masked_region
    else:
        shape = (1, len(query_grid))
    baseline_pred = decode_argmax(query_grid, shape=shape)
    smoothed_pred = decode_argmax(smoothed, shape=shape)

    artifacts = {}
    if "out_tokens" in files:
        write_tensor(
            smoothed_pred.as_array(),
            files["out_tokens"],
            meta={"kind": "token-grid", "grid": list(shape), "config": echo["smoothing"]},
        )
        artifacts["out_tokens"] = str(files["out_tokens"])

    reports = []
    if "gt_tokens" in files:
        gt, _ = read_tensor(files["gt_tokens"])
        gt = gt.reshape(-1)
        item = files.get("item_id", "item0")
        reports.append(
            EvalReport.from_items(
                "baseline_accuracy",
                [(item, pixel_accuracy(np.array(baseline_pred.tokens), gt))],
                echo,
            )
        )
        reports.append(
            EvalReport.from_items(
                "smoothed_accuracy",
                [(item, pixel_accuracy(np.array(smoothed_pred.tokens), gt))],
                echo,
            )
        )
        reports.append(
            EvalReport.from_items(
                "baseline_mse", [(item, _token_mse(baseline_pred.tokens, gt))], echo
            )
        )
        reports.append(
            EvalReport.from_items(
                "smoothed_mse", [(item, _token_mse(smoothed_pred.tokens, gt))], echo
            )
        )
    return PipelineReport(config=echo, reports=tuple(reports), artifacts=artifacts)


def run_pipeline(config: dict | str | Path) -> PipelineReport:
    """Run the full pipeline for one config (dict or JSON file path)."""
    if not isinstance(config, dict):
        config = load_config(config)
    backend = config.get("backend", "synth")
    if backend == "synth":
        return _synth_pipeline(config)
    if backend == "file":
        return _file_pipeline(config)
    raise ConfigError(f"unknown backend {backend!r}; choose synth or file")


def run_bench(config: dict, pool_path: str | Path | None = None) -> dict:
    """Wall time and peak memory per pipeline stage; numbers are this
    machine's own, comparable only to themselves."""
    from .retrieval import top_m

    world, params = synth_world(config)
    backend = SyntheticScorerBackend(world, params)
    smoothing = smoothing_config(config, m=int(config["retrieval"]["m"]))
    query = world.query_ids[0]

    stages = {}

    def timed(name, fn):
        tracemalloc.start()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        stages[name] = {"wall_s": elapsed, "peak_kib": peak / 1024.0}
        return result

    index = timed("index", world.support_index)
    retrieved = timed("retrieve", lambda: top_m(world.feature_vector(query), index, smoothing.m))
    pool = timed("pool", lambda: build_pool(backend, retrieved, query, mode=PoolMode.Q))
    if pool_path is not None:
        timed("pool_cache_write", lambda: save_pool(pool, pool_path))
    best_in, best_out = backend.pair_for(retrieved.ids[0])
    from .pool import PromptSpec, score_prompt

    grid = timed(
        "score_query",
        lambda: score_prompt(backend, PromptSpec(best_in, best_out, query, world.grid)),
    )
    smoothed = timed("smooth", lambda: smooth_grid(grid, pool, smoothing))
    pred = timed("decode", lambda: decode_argmax(smoothed, shape=world.grid))
    truth = world.items[query].output_tokens
    timed("eval", lambda: pixel_accuracy(np.array(pred.tokens), truth))

    return {
        "schema_version": 1,
        "config": _deep_merge(config, {"smoothing": smoothing.echo()}),
        "stages": stages,
        "note": "timings and memory are environment-specific, not comparable across machines",
    }
