"""Command-line interface.

Subcommands mirror the pipeline stages: retrieve, pool, smooth, decode,
eval, plus synth-run (seeded synthetic experiments) and run (the whole
pipeline from one config). retrieve, pool, smooth and run accept
--config; explicit flags override config-file values.

Exit codes: 0 success, 2 configuration error, 3 file format error,
4 dimension mismatch, 1 anything else.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from .errors import FormatError, PatchSmoothError
from .metrics import EvalReport, decode_argmax, iou, mse, pixel_accuracy
from .pipeline import load_config, run_pipeline, smoothing_config, synth_world
from .pool import (
    FileScorerBackend,
    PoolMode,
    build_pool,
    grid_from_tensor,
    load_grid,
    load_pool,
    meta_field,
    save_pool,
)
from .retrieval import FeatureMap, FeatureVector, RetrievalIndex, RetrievedSet, flatten_normalize, top_m
from .smoothing import smooth_grid
from .synthbench import BiasedScorerParams, SyntheticScorerBackend, run_seed_sweep
from .tensorfile import atomic_write_text, read_tensor, write_tensor


def _write_json(payload: dict, path: str | Path) -> None:
    atomic_write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", path)


def _feature_vector(array: np.ndarray, ident: str) -> FeatureVector:
    if array.ndim == 1:
        array = array.reshape(1, 1, -1)
    if array.ndim != 3:
        raise click.UsageError(f"feature tensor for {ident!r} must be rank 1 or 3, got rank {array.ndim}")
    return flatten_normalize(FeatureMap(np.asarray(array, dtype=np.float64), identifier=ident))


@click.group()
def cli():
    """Patch-level k-NN smoothing of codebook score distributions."""


@cli.command()
@click.option("--index", "index_path", required=True, type=click.Path(exists=True))
@click.option("--query", "query_path", required=True, type=click.Path(exists=True))
@click.option("--m", "m", type=int, default=None, help="How many pairs to retrieve.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def retrieve(index_path, query_path, m, out_path, config_path):
    """Rank support items by dot similarity of normalized feature maps."""
    config = load_config(config_path)
    if m is None:
        m = int(config["retrieval"]["m"])
    array, meta = read_tensor(index_path)
    ids = meta_field(meta, "ids", index_path, list, length=array.shape[0], items=str)
    index = RetrievalIndex([_feature_vector(row, ident) for row, ident in zip(array, ids)])
    q_array, q_meta = read_tensor(query_path)
    query = _feature_vector(q_array, q_meta.get("id", "query"))
    result = top_m(query, index, m)
    _write_json(
        {
            "query": result.query_id,
            "m": m,
            "items": [[ident, score] for ident, score in result.items],
        },
        out_path,
    )


def _retrieved_from_json(path) -> RetrievedSet:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    query = meta_field(payload, "query", path, str)
    items = meta_field(payload, "items", path, list, items=list)
    for entry in items:
        if not (len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], (int, float)) and not isinstance(entry[1], bool)):
            raise FormatError(f"{path}: field 'items' holds {entry!r}, not an [id, score] pair")
    return RetrievedSet(items=tuple((i, float(s)) for i, s in items), query_id=query)


@cli.command("pool")
@click.option("--backend", type=click.Choice(["file", "synth"]), default="file")
@click.option("--scores", "scores_dir", type=click.Path(exists=True), default=None,
              help="Directory of exported score tensors (file backend).")
@click.option("--retrieved", "retrieved_path", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice([m.value for m in PoolMode]), default="q")
@click.option("--seed", type=int, default=None, help="Anchor sampling seed (rand mode).")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def pool_cmd(backend, scores_dir, retrieved_path, mode, seed, out_path, config_path):
    """Build the per-patch prompt pool for one retrieved set."""
    retrieved = _retrieved_from_json(retrieved_path)
    if backend == "file":
        if scores_dir is None:
            raise click.UsageError("--scores is required for the file backend")
        scorer = FileScorerBackend(scores_dir)
    else:
        scorer = SyntheticScorerBackend(*synth_world(load_config(config_path)))
    pool = build_pool(scorer, retrieved, retrieved.query_id, mode=PoolMode(mode), seed=seed)
    save_pool(pool, out_path)


def _attach_keys(grid, pool, query_keys_path, pool_keys_path):
    # one tensor serves whichever key type the config selects
    if query_keys_path is not None:
        keys, _ = read_tensor(query_keys_path)
        grid = dataclasses.replace(grid, feature_keys=keys, patch_keys=keys)
    if pool_keys_path is not None:
        keys, _ = read_tensor(pool_keys_path)
        pool = dataclasses.replace(pool, feature_keys=keys, patch_keys=keys)
    return grid, pool


@cli.command()
@click.option("--query", "query_path", required=True, type=click.Path(exists=True))
@click.option("--pool", "pool_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--tau", type=float, default=None)
@click.option("--div", type=click.Choice(["js", "kl"]), default=None)
@click.option("--key", type=click.Choice(["score", "feature", "patch"]), default=None)
@click.option("--agg", type=click.Choice(["weighted", "average", "nearest"]), default=None)
@click.option("--scope", type=click.Choice(["patch", "all"]), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--diag", "diag_path", type=click.Path(), default=None)
@click.option("--query-keys", "query_keys_path", type=click.Path(exists=True), default=None)
@click.option("--pool-keys", "pool_keys_path", type=click.Path(exists=True), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def smooth(query_path, pool_path, k, alpha, tau, div, key, agg, scope, out_path,
           diag_path, query_keys_path, pool_keys_path, config_path):
    """Smooth a query score grid against a prompt pool."""
    overrides = {
        name: value
        for name, value in [
            ("k", k), ("alpha", alpha), ("tau", tau), ("divergence", div),
            ("key", key), ("aggregation", agg), ("scope", scope),
        ]
        if value is not None
    }
    config = load_config(config_path, overrides={"smoothing": overrides})
    grid = load_grid(query_path)
    pool = load_pool(pool_path)
    grid, pool = _attach_keys(grid, pool, query_keys_path, pool_keys_path)
    sconfig = smoothing_config(config, m=pool.m)
    result = smooth_grid(grid, pool, sconfig)
    shape = grid.prompt.masked_region if grid.prompt is not None else (1, len(grid))
    write_tensor(
        result.probs.astype(np.float32),
        out_path,
        meta={"kind": "smoothed-grid", "grid": list(shape), "config": sconfig.echo()},
    )
    if diag_path is not None:
        _write_json(
            {
                "config": sconfig.echo(),
                "per_patch": [
                    [
                        {"pair": p, "patch": l, "distance": d, "weight": w}
                        for p, l, d, w in diag
                    ]
                    for diag in result.diagnostics
                ],
            },
            diag_path,
        )


@cli.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def decode(in_path, out_path):
    """Argmax-decode a score or smoothed grid into a token grid."""
    array, meta = read_tensor(in_path)
    grid = grid_from_tensor(array, meta, source=in_path)
    if "grid" in meta:
        shape = tuple(meta_field(meta, "grid", in_path, list, 2, int))
    elif grid.prompt is not None:
        shape = grid.prompt.masked_region
    else:
        shape = (1, len(grid))
    pred = decode_argmax(grid, shape=shape)
    write_tensor(pred.as_array(), out_path, meta={"kind": "token-grid", "grid": list(shape)})


@cli.command("eval")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True))
@click.option("--metric", type=click.Choice(["iou", "mse", "accuracy"]), required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--item-id", default="item0")
def eval_cmd(pred_path, gt_path, metric, out_path, item_id):
    """Score a prediction tensor against ground truth."""
    pred, _ = read_tensor(pred_path)
    gt, _ = read_tensor(gt_path)
    if metric == "iou":
        value = iou(pred != 0, gt != 0)
    elif metric == "mse":
        value = mse(pred.astype(np.float64), gt.astype(np.float64))
    else:
        value = pixel_accuracy(pred, gt)
    report = EvalReport.from_items(metric, [(item_id, value)], config={"metric": metric})
    _write_json(report.to_dict(), out_path)


@cli.command("synth-run")
@click.option("--seed", type=int, default=0, help="First seed of the sweep.")
@click.option("--n-seeds", type=int, default=1)
@click.option("--rows", type=int, default=4)
@click.option("--cols", type=int, default=4)
@click.option("--codebook", type=int, default=8)
@click.option("--items", type=int, default=24)
@click.option("--bias", default="0.45,0.45,0.1", help="beta_truth,beta_pair,epsilon_noise")
@click.option("--m", "m_list", default="4", help="Comma-separated pool widths to sweep.")
@click.option("--k", type=int, default=None)
@click.option("--alpha", type=float, default=1.0)
@click.option("--tau", type=float, default=1.0)
@click.option("--queries", "n_queries", type=int, default=3)
@click.option("--task", default="identity")
@click.option("--report", "report_path", required=True, type=click.Path())
def synth_run(seed, n_seeds, rows, cols, codebook, items, bias, m_list, k, alpha, tau,
              n_queries, task, report_path):
    """Seeded bias-reduction experiment on the synthetic world."""
    try:
        beta_truth, beta_pair, epsilon = (float(x) for x in bias.split(","))
    except ValueError as exc:
        raise click.UsageError(f"--bias must be three comma-separated floats: {exc}")
    params = BiasedScorerParams(beta_truth=beta_truth, beta_pair=beta_pair, epsilon_noise=epsilon)
    m_values = tuple(int(x) for x in m_list.split(","))
    report = run_seed_sweep(
        seeds=range(seed, seed + n_seeds),
        rows=rows, cols=cols, codebook_size=codebook, n_items=items, task_family=task,
        params=params, m_values=m_values, n_queries=n_queries, alpha=alpha, tau=tau, k=k,
    )
    _write_json(report, report_path)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override world seed.")
@click.option("--m", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--tau", type=float, default=None)
@click.option("--k", type=int, default=None)
def run(config_path, out_path, seed, m, alpha, tau, k):
    """Run the full pipeline and write its report."""
    overrides = {}
    if seed is not None:
        overrides["world"] = {"seed": seed}
    if m is not None:
        overrides["retrieval"] = {"m": m}
    smoothing = {key: value for key, value in [("alpha", alpha), ("tau", tau), ("k", k)]
                 if value is not None}
    if smoothing:
        overrides["smoothing"] = smoothing
    config = load_config(config_path, overrides)
    report = run_pipeline(config)
    atomic_write_text(report.to_json(), out_path)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except PatchSmoothError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    sys.exit(0)


if __name__ == "__main__":
    main()
