"""End-to-end pipeline: retrieve -> pool -> score -> smooth -> decode -> eval.

One JSON config drives everything; unset fields fall back to the defaults
below, and CLI flags override file values. The effective config is echoed
into every report so results stay attributable. Reports are plain JSON
with sorted keys and no timestamps: a fixed config and seed reproduces
them byte for byte.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, FormatError, refused_in
from .metrics import EvalReport, decode_argmax, eval_reports
from .pool import load_grid, load_pool, token_grid
from .smoothing import SmoothingConfig, smooth_grid
from .synthbench import BiasedScorerParams, SyntheticWorld, generate_world, run_bias_experiment
from .tensorfile import holds_float, read_json, read_tensor, write_tensor

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

#: What ``load_config`` accepts: every key of the defaults with a value of
#: its default's type, and in ``files`` the file backend's tensor paths and
#: the item id its reports name.
_SCHEMA = {
    **DEFAULT_CONFIG,
    "files": dict.fromkeys(("query_scores", "pool", "gt_tokens", "out_tokens", "item_id"), ""),
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
    result shares no nested dict with the defaults or the inputs. The file
    is checked before the merge, so no override can replace a bad section."""
    config = DEFAULT_CONFIG
    if path is not None:
        loaded = read_json(path, ConfigError)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _check_config(loaded, _SCHEMA)
        config = _deep_merge(config, loaded)
    if overrides:
        config = _deep_merge(config, overrides)
    _check_config(config, _SCHEMA)
    return copy.deepcopy(config)


def _expected_types(default) -> tuple[type, ...]:
    if default is None:  # smoothing.k: an int, or null for min(5, m)
        return (int, type(None))
    if isinstance(default, float):
        return (int, float)
    return (type(default),)


def _check_config(config: dict, schema: dict, prefix: str = "") -> None:
    """ConfigError naming the key path of the first key ``schema`` lacks or
    whose value is not of its default's type, a float's within its range."""
    for key, value in config.items():
        name = prefix + key
        if key not in schema:
            raise ConfigError(f"unknown config key {name!r}")
        expected = _expected_types(schema[key])
        if isinstance(value, bool) or not isinstance(value, expected):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in expected)
            raise ConfigError(f"config key {name!r} must be {names}, got {value!r}")
        if isinstance(schema[key], float) and not holds_float(value):
            raise ConfigError(f"config key {name!r} must be a float, got an int beyond its range")
        if isinstance(value, dict):
            _check_config(value, schema[key], name + ".")


@dataclass(frozen=True)
class PipelineReport:
    """Config echo plus one EvalReport per (metric, arm)."""

    config: dict
    reports: tuple[EvalReport, ...]
    artifacts: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config": self.config,
            "reports": [r.to_dict() for r in self.reports],
            "artifacts": self.artifacts,
        }

    def report(self, metric: str) -> EvalReport:
        for r in self.reports:
            if r.metric == metric:
                return r
        raise KeyError(metric)


def synth_world(config: dict) -> tuple[SyntheticWorld, BiasedScorerParams]:
    """The synthetic world and scorer weights a config's world and scorer
    sections describe."""
    return generate_world(**config["world"]), BiasedScorerParams(**config["scorer"])


def _synth_pipeline(config: dict) -> PipelineReport:
    if config["files"]:  # the synth backend would read and write none of them
        raise ConfigError(f"backend synth takes no files, got files.{next(iter(config['files']))}")
    world, params = synth_world(config)
    smoothing = SmoothingConfig(m=config["retrieval"]["m"], **config["smoothing"])
    [rows] = run_bias_experiment(
        world, params, [smoothing], n_queries=config["queries"]["n"], seed=config["queries"]["seed"]
    )
    echo = _deep_merge(config, {"smoothing": smoothing.echo()})
    return PipelineReport(config=echo, reports=eval_reports(rows, echo), artifacts={})


def _file_pipeline(config: dict) -> tuple[PipelineReport, dict]:
    files = config["files"]
    for required in ("query_scores", "pool"):
        if required not in files:
            raise ConfigError(f"file backend needs files.{required}")
    query_grid, shape = load_grid(files["query_scores"])
    pool = load_pool(files["pool"])
    smoothing = SmoothingConfig(m=pool.m, **config["smoothing"])
    with refused_in(f"{files['query_scores']}, {files['pool']}"):  # a refusal names both files
        smoothed = smooth_grid(query_grid, pool, smoothing)
    echo = _deep_merge(config, {"smoothing": smoothing.echo()})

    baseline_tokens = decode_argmax(query_grid)
    smoothed_tokens = decode_argmax(smoothed)

    reports = ()
    if "gt_tokens" in files:
        gt, _ = read_tensor(files["gt_tokens"])
        if gt.dtype.kind != "u":
            raise FormatError(f"{files['gt_tokens']}: tokens must be u32, got {gt.dtype.name}")
        with refused_in(files["gt_tokens"]):
            reports = eval_reports([{
                "query": files.get("item_id", "item0"),
                "baseline_tokens": baseline_tokens,
                "smoothed_tokens": smoothed_tokens,
                "truth": gt.reshape(-1),
            }], echo)

    artifacts, tensors = {}, {}
    if "out_tokens" in files:
        tensors[files["out_tokens"]] = token_grid(smoothed_tokens, shape, echo["smoothing"])
        artifacts["out_tokens"] = files["out_tokens"]
    return PipelineReport(config=echo, reports=reports, artifacts=artifacts), tensors


def pipeline_outputs(config: dict | str | Path) -> tuple[PipelineReport, dict]:
    """The report of the full pipeline for one config (a JSON file path, or
    a dict that ``load_config`` merges over the defaults and checks), and
    the tensors it writes, not yet written: ``{path: (array, sidecar)}``.
    A run refused on any input raises before anything is written."""
    config = load_config(overrides=config) if isinstance(config, dict) else load_config(config)
    backend = config["backend"]
    if backend == "synth":
        return _synth_pipeline(config), {}
    if backend == "file":
        return _file_pipeline(config)
    raise ConfigError(f"unknown backend {backend!r}; choose synth or file")


def run_pipeline(config: dict | str | Path) -> PipelineReport:
    """Run the full pipeline for one config (``pipeline_outputs``), write
    its tensors and return its report."""
    report, tensors = pipeline_outputs(config)
    for path, (array, meta) in tensors.items():
        write_tensor(array, path, meta=meta)
    return report
