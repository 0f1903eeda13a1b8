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
import math
import sys
from pathlib import Path

import click
import numpy as np

from .divergence import frozen
from .errors import DimensionError, FormatError, MissingItemError, PatchSmoothError, refused_in
from .metrics import EvalReport, decode_argmax, iou, mse, pixel_accuracy
from .pipeline import load_config, run_pipeline, synth_world
from .pool import (
    FileScorerBackend,
    PoolMode,
    build_pool,
    load_grid,
    load_pool,
    meta_field,
    save_pool,
    save_tokens,
)
from .retrieval import FeatureVector, RetrievalIndex, RetrievedSet, top_m
from .smoothing import (Aggregation, DivergenceKind, NeighborKey, PoolScope, SmoothingConfig,
                        smooth_grid)
from .synthbench import BiasedScorerParams, SyntheticScorerBackend, run_seed_sweep
from .tensorfile import (holds_float, json_chunks, read_json, read_tensor, tensor_chunks,
                         write_files, write_json)


def _flag_overrides(**sections: dict) -> dict:
    """Config overrides, by section, from the flags that were given (not
    None); a section with none given is left out, so it is still checked."""
    given = {name: {k: v for k, v in flags.items() if v is not None}
             for name, flags in sections.items()}
    return {name: flags for name, flags in given.items() if flags}


def _read_features(path, stacked: bool) -> tuple[np.ndarray, dict]:
    """The feature tensor in ``path`` and its sidecar: flat vectors or
    (C, H, W) maps, a stack of them if ``stacked``, else one. A row (one
    vector or map) must not be empty, and a stack must hold a row."""
    ranks = (2, 4) if stacked else (1, 3)
    array, meta = read_tensor(path)
    if array.ndim not in ranks:
        raise DimensionError(
            f"{path}: feature tensor must be rank {ranks[0]} or {ranks[1]}, got shape {array.shape}"
        )
    row_shape = array.shape[1:] if stacked else array.shape
    if 0 in row_shape:
        raise DimensionError(f"{path}: feature rows of shape {row_shape} are empty")
    if stacked and array.shape[0] == 0:
        raise DimensionError(f"{path}: feature tensor of shape {array.shape} holds no rows")
    return array, meta


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
    config = load_config(config_path, _flag_overrides(retrieval={"m": m}))
    m = config["retrieval"]["m"]
    array, meta = _read_features(index_path, stacked=True)
    ids = meta_field(meta, "ids", index_path, list, length=array.shape[0], items=str)
    with refused_in(index_path):
        # channel-major, then row, then column
        vectors = [FeatureVector(np.ravel(row), ident) for row, ident in zip(array, ids)]
        index = RetrievalIndex(vectors)
    q_array, q_meta = _read_features(query_path, stacked=False)
    q_id = meta_field(q_meta, "id", query_path, str) if "id" in q_meta else "query"
    with refused_in(query_path):
        query = FeatureVector(np.ravel(q_array), q_id)
    with refused_in(f"{index_path}, {query_path}"):  # a refusal names both files
        result = top_m(query, index, m)
    write_json(
        {
            "query": result.query_id,
            "m": m,
            "items": [[ident, score] for ident, score in result.items],
        },
        out_path,
    )


def _retrieved_from_json(path) -> RetrievedSet:
    payload = read_json(path, FormatError)
    query = meta_field(payload, "query", path, str)
    items = meta_field(payload, "items", path, list, items=list)
    for entry in items:
        if not (len(entry) == 2 and isinstance(entry[0], str) and holds_float(entry[1])):
            raise FormatError(f"{path}: field 'items' holds {entry!r}, not an [id, score] pair")
    with refused_in(path):
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
    named = retrieved_path  # the files whose ids the backend resolves
    if backend == "file":
        if scores_dir is None:
            raise click.UsageError("--scores is required for the file backend")
        scorer = FileScorerBackend(scores_dir)
        named = f"{retrieved_path}, {Path(scores_dir) / 'manifest.json'}"
    else:
        scorer = SyntheticScorerBackend(*synth_world(load_config(config_path)))
    try:
        pool = build_pool(scorer, retrieved, retrieved.query_id, mode=PoolMode(mode), seed=seed)
    except MissingItemError as exc:  # an id the backend cannot resolve: a value refused
        raise FormatError(f"{named}: {exc}") from exc
    save_pool(pool, out_path)


def _with_keys(owner, path):
    """``owner`` with the key tensor in ``path``, if given, as both its key
    fields: one tensor serves whichever key type the config selects. Keys
    the owner refuses name the file (``refused_in``)."""
    if path is None:
        return owner
    tensor = read_tensor(path)[0]
    # read-only and owned: both key fields keep it uncopied
    keys = frozen(np.asarray(tensor, dtype=np.float64), tensor)
    with refused_in(path):
        return dataclasses.replace(owner, feature_keys=keys, patch_keys=keys)


@cli.command()
@click.option("--query", "query_path", required=True, type=click.Path(exists=True))
@click.option("--pool", "pool_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--tau", type=float, default=None)
@click.option("--div", type=click.Choice([d.value for d in DivergenceKind]), default=None)
@click.option("--key", type=click.Choice([k.value for k in NeighborKey]), default=None)
@click.option("--agg", type=click.Choice([a.value for a in Aggregation]), default=None)
@click.option("--scope", type=click.Choice([s.value for s in PoolScope]), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--diag", "diag_path", type=click.Path(), default=None)
@click.option("--query-keys", "query_keys_path", type=click.Path(exists=True), default=None)
@click.option("--pool-keys", "pool_keys_path", type=click.Path(exists=True), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def smooth(query_path, pool_path, k, alpha, tau, div, key, agg, scope, out_path,
           diag_path, query_keys_path, pool_keys_path, config_path):
    """Smooth a query score grid against a prompt pool."""
    config = load_config(config_path, _flag_overrides(smoothing={
        "k": k, "alpha": alpha, "tau": tau, "divergence": div,
        "key": key, "aggregation": agg, "scope": scope,
    }))
    grid, shape = load_grid(query_path)
    pool = load_pool(pool_path)
    grid, pool = _with_keys(grid, query_keys_path), _with_keys(pool, pool_keys_path)
    sconfig = SmoothingConfig(m=pool.m, **config["smoothing"])
    with refused_in(f"{query_path}, {pool_path}"):  # a refusal names both files
        result = smooth_grid(grid, pool, sconfig)
    outputs = {out_path: tensor_chunks(result.probs, meta={
        "kind": "smoothed-grid", "grid": list(shape), "config": sconfig.echo()})}
    if diag_path is not None:
        outputs[diag_path] = json_chunks({
            "config": sconfig.echo(),
            "per_patch": [
                [  # an unreachable (+inf) neighbour has weight 0 and no JSON distance
                    {"pair": p, "patch": l, "distance": d if math.isfinite(d) else None,
                     "weight": w}
                    for p, l, d, w in zip(pairs, patches, distances, weights)
                ]
                for pairs, patches, distances, weights in zip(
                    result.pair.tolist(), result.patch.tolist(),
                    result.distance.tolist(), result.weight.tolist(),
                )
            ],
        })
    write_files(outputs)  # both or neither


@cli.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def decode(in_path, out_path):
    """Argmax-decode a score or smoothed grid into a token grid."""
    grid, shape = load_grid(in_path)
    save_tokens(decode_argmax(grid), shape, out_path)


@cli.command("eval")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True))
@click.option("--metric", type=click.Choice(["iou", "mse", "accuracy"]), required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--item-id", default="item0")
def eval_cmd(pred_path, gt_path, metric, out_path, item_id):
    """Score a prediction tensor against ground truth."""
    pred, gt = read_tensor(pred_path)[0], read_tensor(gt_path)[0]
    for path, array in ((pred_path, pred), (gt_path, gt)):
        if not np.isfinite(array).all():
            raise FormatError(f"{path}: tensor contains non-finite entries")
    with refused_in(f"{pred_path}, {gt_path}"):  # a shape refused names both files
        if metric == "iou":
            value = iou(pred != 0, gt != 0)
        elif metric == "mse":
            value = mse(pred, gt)
        else:
            value = pixel_accuracy(pred, gt)
    report = EvalReport.from_items(metric, [(item_id, value)], config={"metric": metric})
    write_json(report.to_dict(), out_path)


@cli.command("synth-run")
@click.option("--seed", type=int, default=0, help="First seed of the sweep.")
@click.option("--n-seeds", type=int, default=1)
@click.option("--rows", type=int, default=None)
@click.option("--cols", type=int, default=None)
@click.option("--codebook", type=int, default=None)
@click.option("--items", type=int, default=None)
@click.option("--bias", default=None, help="beta_truth,beta_pair,epsilon_noise")
@click.option("--m", "m_list", default="4", help="Comma-separated pool widths to sweep.")
@click.option("--k", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--tau", type=float, default=None)
@click.option("--queries", "n_queries", type=int, default=None)
@click.option("--task", default=None)
@click.option("--report", "report_path", required=True, type=click.Path())
def synth_run(seed, n_seeds, rows, cols, codebook, items, bias, m_list, k, alpha, tau,
              n_queries, task, report_path):
    """Seeded bias-reduction experiment on the synthetic world; a flag
    left unset takes ``run_seed_sweep``'s default."""
    given = dict(rows=rows, cols=cols, codebook_size=codebook, n_items=items, task_family=task,
                 n_queries=n_queries, alpha=alpha, tau=tau, k=k)
    if bias is not None:
        try:
            beta_truth, beta_pair, epsilon = (float(x) for x in bias.split(","))
        except ValueError as exc:
            raise click.UsageError(f"--bias must be three comma-separated floats: {exc}")
        given["params"] = BiasedScorerParams(beta_truth=beta_truth, beta_pair=beta_pair,
                                             epsilon_noise=epsilon)
    try:
        m_values = tuple(int(x) for x in m_list.split(","))
    except ValueError as exc:
        raise click.UsageError(f"--m must be comma-separated integers: {exc}")
    if repeated := [m for i, m in enumerate(m_values) if m in m_values[:i]]:
        raise click.UsageError(f"--m repeats the width {repeated[0]}")
    report = run_seed_sweep(seeds=range(seed, seed + n_seeds), m_values=m_values,
                            **{name: v for name, v in given.items() if v is not None})
    write_json(report, report_path)


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
    config = load_config(config_path, _flag_overrides(
        world={"seed": seed}, retrieval={"m": m}, smoothing={"alpha": alpha, "tau": tau, "k": k},
    ))
    write_json(run_pipeline(config).to_dict(), out_path)


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
