"""Acceptance suite: one test per release criterion, each at its stated
tolerance, each printing one PASS/FAIL line (visible with pytest -s).

Run: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
from contextlib import contextmanager
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import assert_same_selection, divergence_of
from oracle import brute_force_smooth, brute_force_top_m
from patchsmooth.divergence import LN2, simplex_rows
from patchsmooth.metrics import EvalReport, iou, mse, pixel_accuracy
from patchsmooth.pipeline import load_config, run_pipeline
from patchsmooth.pool import PoolMode, PromptPool, PromptSpec, ScoreGrid
from patchsmooth.retrieval import FeatureMap, FeatureVector, RetrievalIndex, flatten_normalize, top_m
from patchsmooth.smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothingConfig,
    smooth_grid,
)
from patchsmooth.synthbench import DEFAULT_SWEEP_SEEDS, run_seed_sweep
from patchsmooth.tensorfile import read_tensor, write_json, write_tensor


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def random_distribution(rng, size):
    """Dirichlet draw, sometimes sparsified to exercise zero entries."""
    probs = rng.dirichlet(np.ones(size))
    if rng.random() < 0.3 and size > 2:
        mask = rng.random(size) < 0.5
        if probs[~mask].sum() > 0:
            probs = np.where(mask, 0.0, probs)
            probs = probs / probs.sum()
    return simplex_rows(probs)


def test_divergence_correctness():
    with criterion("divergence-correctness"):
        # independent high-precision evaluation of the defining sums
        mp.mp.dps = 50

        def mp_kl(a, b):
            return sum(x * mp.log(x / y) for x, y in zip(a, b) if x > 0)

        def mp_js(a, b):
            z = [(x + y) / 2 for x, y in zip(a, b)]
            return (mp_kl(a, z) + mp_kl(b, z)) / 2

        half = [mp.mpf(1) / 2, mp.mpf(1) / 2]
        quarter = [mp.mpf(1) / 4, mp.mpf(3) / 4]
        point = [mp.mpf(1), mp.mpf(0)]

        got_js = divergence_of("js", simplex_rows([1, 0]), simplex_rows([0.5, 0.5]))
        got_kl = divergence_of("kl", simplex_rows([0.5, 0.5]), simplex_rows([0.25, 0.75]))
        assert abs(got_js - float(mp_js(point, half))) < 1e-12
        assert abs(got_kl - float(mp_kl(half, quarter))) < 1e-12
        assert got_js == pytest.approx(0.215762, abs=1e-6)
        assert got_kl == pytest.approx(0.143841, abs=1e-6)

        rng = np.random.default_rng(20260810)
        trials = 10_000
        for _ in range(trials):
            size = int(rng.integers(2, 257))
            a = random_distribution(rng, size)
            b = random_distribution(rng, size)
            v = divergence_of("js", a, b)
            assert v == divergence_of("js", b, a)
            assert 0.0 <= v <= LN2 + 1e-12
        print(f"  {trials} random pairs: js symmetric and within [0, ln 2]")


def random_oracle_instance(rng, scope, max_patches, max_size):
    patches = int(rng.integers(1, max_patches + 1))
    size = int(rng.integers(2, max_size + 1))
    width = int(rng.integers(1, 9))
    feat_dim = int(rng.integers(1, 6))
    patch_dim = int(rng.integers(1, 4))

    def one(strictly_positive=False):
        if strictly_positive:
            dists = [rng.dirichlet(np.ones(size)) for _ in range(patches)]
        else:
            dists = [random_distribution(rng, size) for _ in range(patches)]
        return (
            np.stack(dists),
            rng.normal(size=(patches, feat_dim)),
            rng.normal(size=(patches, patch_dim)),
        )

    qd, qf, qp = one(strictly_positive=True)  # positive query keeps KL finite
    query = ScoreGrid(probs=qd, feature_keys=qf, patch_keys=qp)
    pairs = [one() for _ in range(width)]
    if width >= 2 and rng.random() < 0.25:
        pairs[-1] = pairs[0]  # duplicate entry: exercises deterministic ties
    probs, feature_keys, patch_keys = (np.stack(part) for part in zip(*pairs))
    pool = PromptPool(probs=probs, pair_indices=np.arange(1, width + 1), prompts=(),
                      mode=PoolMode.Q, m=width, feature_keys=feature_keys, patch_keys=patch_keys)
    return query, pool, width


def test_oracle_equivalence():
    with criterion("oracle-equivalence"):
        rng = np.random.default_rng(7)
        combos = list(itertools.product(DivergenceKind, Aggregation, PoolScope, NeighborKey))
        instances = 0
        worst = 0.0
        per_combo = 29  # 36 combos x 29 = 1044 instances
        for divergence, aggregation, scope, key in combos:
            for trial in range(per_combo):
                if scope is PoolScope.ALL_PATCH:
                    max_patches, max_size = 12, 32
                else:
                    max_patches, max_size = 64, 128
                query, pool, width = random_oracle_instance(rng, scope, max_patches, max_size)
                if trial == 0 and scope is PoolScope.PER_PATCH:
                    # pin the extreme corner of the declared ranges
                    query, pool, width = full_size_instance(rng)
                config = SmoothingConfig(
                    m=width,
                    k=int(rng.integers(1, width + 3)),
                    alpha=float(rng.choice([0.0, 0.3, 0.7, 1.0])),
                    tau=float(rng.choice([0.1, 1.0, 5.0, 25.0])),
                    divergence=divergence,
                    aggregation=aggregation,
                    scope=scope,
                    key=key,
                )
                fast = smooth_grid(query, pool, config)
                slow = brute_force_smooth(query, pool, config)
                worst = max(worst, float(np.max(np.abs(fast.probs - slow.probs))))
                assert_same_selection(fast, slow)
                instances += 1
        assert instances >= 1000
        assert worst <= 1e-9
        print(f"  {instances} instances across {len(combos)} variants, max |diff| = {worst:.2e}")


def permuted_tied_pool(rng, pool):
    """``pool`` with distinct pair ranks in [1, m] in no particular order,
    as RAND mode draws them, and with entries copied across pairs and
    patches, so that exact distance ties must break by (pair index, patch
    index) and not by pool position."""
    width, patches = pool.width, pool.patch_count
    m = width + int(rng.integers(0, 3))
    arrays = [pool.probs.copy(), pool.feature_keys.copy(), pool.patch_keys.copy()]
    if width >= 2:
        source, target = rng.choice(width, size=2, replace=False)
        for array in arrays:
            array[target] = array[source]  # a whole pair repeated: per-patch ties
    for _ in range(int(rng.integers(1, 4))):
        source = (rng.integers(width), rng.integers(patches))
        target = (rng.integers(width), rng.integers(patches))
        for array in arrays:
            array[target] = array[source]  # one entry repeated: all-patch ties
    probs, feature_keys, patch_keys = arrays
    return PromptPool(probs=probs, pair_indices=rng.choice(m, size=width, replace=False) + 1,
                      prompts=(), mode=PoolMode.RAND, m=m, feature_keys=feature_keys,
                      patch_keys=patch_keys)


def test_oracle_equivalence_breaks_ties_by_pair_index():
    with criterion("oracle-equivalence-tie-break"):
        rng = np.random.default_rng(8)  # its own stream: the instances above stay as they are
        combos = list(itertools.product(DivergenceKind, Aggregation, PoolScope, NeighborKey))
        instances = 0
        for divergence, aggregation, scope, key in combos:
            for _ in range(6):
                query, pool, width = random_oracle_instance(rng, scope, 12, 32)
                pool = permuted_tied_pool(rng, pool)
                config = SmoothingConfig(
                    m=pool.m,
                    k=int(rng.integers(1, width + 3)),
                    alpha=float(rng.choice([0.3, 1.0])),
                    tau=float(rng.choice([0.1, 1.0, 5.0])),
                    divergence=divergence,
                    aggregation=aggregation,
                    scope=scope,
                    key=key,
                )
                fast = smooth_grid(query, pool, config)
                slow = brute_force_smooth(query, pool, config)
                assert np.max(np.abs(fast.probs - slow.probs)) <= 1e-9
                assert_same_selection(fast, slow)
                instances += 1
        print(f"  {instances} instances with permuted pair indices and repeated entries")


def full_size_instance(rng):
    patches, size, width = 64, 128, 8
    qd = [rng.dirichlet(np.ones(size)) for _ in range(patches)]
    query = ScoreGrid(
        probs=np.stack(qd),
        feature_keys=rng.normal(size=(patches, 4)),
        patch_keys=rng.normal(size=(patches, 2)),
    )
    probs = np.empty((width, patches, size))
    feature_keys = np.empty((width, patches, 4))
    patch_keys = np.empty((width, patches, 2))
    for l in range(patches):  # draw order: patch-major, as pools were first filled
        for i in range(width):
            probs[i, l] = rng.dirichlet(np.ones(size))
            feature_keys[i, l] = rng.normal(size=4)
            patch_keys[i, l] = rng.normal(size=2)
    pool = PromptPool(probs=probs, pair_indices=np.arange(1, width + 1), prompts=(),
                      mode=PoolMode.Q, m=width, feature_keys=feature_keys, patch_keys=patch_keys)
    return query, pool, width


def test_algebraic_identities():
    with criterion("algebraic-identities"):
        rng = np.random.default_rng(99)
        closure_outputs = 0

        def closed(grid):
            nonlocal closure_outputs
            for row in grid.probs:
                assert abs(float(row.sum()) - 1.0) <= 1e-9
                assert np.all(row >= 0.0)
                closure_outputs += 1
            return grid

        for _ in range(400):
            query, pool, width = random_oracle_instance(
                rng, PoolScope.PER_PATCH, max_patches=12, max_size=24
            )

            # alpha = 0 identity, exact
            out = closed(smooth_grid(query, pool, SmoothingConfig(m=width, alpha=0.0)))
            np.testing.assert_array_equal(out.probs, query.probs)

            # k = 1: NEAREST and WEIGHTED coincide exactly
            nearest = closed(smooth_grid(
                query, pool, SmoothingConfig(m=width, k=1, aggregation=Aggregation.NEAREST)
            ))
            weighted = closed(smooth_grid(
                query, pool, SmoothingConfig(m=width, k=1, aggregation=Aggregation.WEIGHTED)
            ))
            np.testing.assert_array_equal(nearest.probs, weighted.probs)

            # tau -> inf: WEIGHTED converges to AVERAGE
            hot = closed(smooth_grid(
                query, pool,
                SmoothingConfig(m=width, tau=1e6, aggregation=Aggregation.WEIGHTED),
            ))
            avg = closed(smooth_grid(
                query, pool, SmoothingConfig(m=width, aggregation=Aggregation.AVERAGE)
            ))
            assert np.max(np.abs(hot.probs - avg.probs)) <= 1e-6

            # random hyperparameters
            config = SmoothingConfig(
                m=width,
                k=int(rng.integers(1, width + 1)),
                alpha=float(rng.uniform(0, 1)),
                tau=float(rng.uniform(0.05, 20)),
                aggregation=rng.choice(list(Aggregation)),
            )
            closed(smooth_grid(query, pool, config))
        assert closure_outputs >= 10_000
        print(f"  identities and simplex closure verified on {closure_outputs} outputs")


def test_retrieval_exactness():
    with criterion("retrieval-exactness"):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 600))
            dim = int(rng.integers(1, 129))
            vectors = rng.normal(size=(n, dim))
            if n >= 4:
                vectors[n // 2] = vectors[0]
                vectors[n - 1] = vectors[0]
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            entries = [FeatureVector(v, f"item{i:04d}") for i, v in enumerate(vectors)]
            index = RetrievalIndex(entries)
            query = FeatureVector(vectors[int(rng.integers(0, n))], "q")
            m = int(rng.integers(1, n + 2))
            got = top_m(query, index, m)
            expected = [ident for ident, _ in brute_force_top_m(query, entries, m)]
            assert list(got.ids) == expected

        # the declared extreme: 5,000 items x 4,096 dims
        n, dim = 5000, 4096
        vectors = rng.normal(size=(n, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        entries = [FeatureVector(v, f"item{i:04d}") for i, v in enumerate(vectors)]
        index = RetrievalIndex(entries)
        query = FeatureVector(vectors[123], "q")
        got = top_m(query, index, 7)
        expected = [ident for ident, _ in brute_force_top_m(query, entries, 7)]
        assert list(got.ids) == expected
        assert got.ids[0] == "item0123"
        del index, entries, vectors

        for _ in range(50):
            values = rng.normal(size=(3, 4, 5))
            scale = float(10.0 ** rng.uniform(-4, 4))
            a = flatten_normalize(FeatureMap(values))
            b = flatten_normalize(FeatureMap(values * scale))
            assert np.max(np.abs(a.values - b.values)) < 1e-9
        print("  top_m matches full-sort oracle up to 5000x4096; scale invariance holds")


def test_bias_reduction_mechanism():
    with criterion("bias-reduction-mechanism"):
        report = run_seed_sweep(seeds=DEFAULT_SWEEP_SEEDS)  # 100 fixed seeds
        means = report["mean_accuracy"]
        margins = report["margin_vs_baseline"]
        assert len(report["per_seed"]) == 100
        # defaults: tau = 1.0, alpha = 1.0, k = min(5, m), moderate-bias scorer
        assert report["smoothing"] == {"alpha": 1.0, "tau": 1.0, "k": "min(5, m)"}
        assert report["scorer"]["beta_truth"] == pytest.approx(0.45)
        assert means["m=4"] > means["baseline"]
        assert means["m=2"] > means["m=1"]
        print(
            f"  baseline {means['baseline']:.4f} | "
            + " | ".join(f"m={m} {means[f'm={m}']:.4f}" for m in (1, 2, 4))
            + f" | recorded margins: m=2 {margins['m=2']:+.4f}, m=4 {margins['m=4']:+.4f}"
        )


def test_metric_correctness():
    with criterion("metric-correctness"):
        assert iou([[1, 1], [0, 0]], [[1, 0], [0, 0]]) == 0.5
        assert iou([[1, 1]], [[1, 1]]) == 1.0
        assert iou([[1, 0]], [[0, 1]]) == 0.0
        assert iou([[0, 0]], [[0, 0]]) == 1.0
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert mse([0.5], [0.0]) == 0.25
        assert mse([1.0], [1.0]) == 0.0
        assert pixel_accuracy([1, 2, 3, 4], [1, 2, 0, 0]) == 0.5
        pred = np.zeros(16, dtype=int)
        gt = np.full(16, 7)
        gt[:3] = 0
        assert pixel_accuracy(pred, gt) == 0.1875

        import math

        rng = np.random.default_rng(1)
        pairs = [
            (rng.integers(0, 2, size=(4, 4)), rng.integers(0, 2, size=(4, 4)))
            for _ in range(50)
        ]
        values = [iou(p, g) for p, g in pairs]
        report = EvalReport.from_items("iou", enumerate(values), config={})
        assert abs(report.aggregate - math.fsum(values) / len(values)) <= 1e-12
        print("  iou, mse, pixel accuracy reproduce hand-derived values; mean within 1e-12")


def test_reproducibility():
    with criterion("reproducibility"):
        import tempfile

        rng = np.random.default_rng(2)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            for path in (first, second):
                write_json(run_pipeline(load_config()).to_dict(), path)
            assert first.read_bytes() == second.read_bytes()
            for name, array in [
                ("f.pnct", rng.normal(size=(6, 3)).astype(np.float32)),
                ("u.pnct", rng.integers(0, 2**31, size=(2, 2, 2), dtype=np.uint32)),
            ]:
                path = Path(tmp) / name
                write_tensor(array, path, meta={"kind": "roundtrip"})
                blob = path.read_bytes()
                back, _ = read_tensor(path)
                assert back.tobytes() == array.tobytes()
                write_tensor(back, Path(tmp) / ("again_" + name), meta={"kind": "roundtrip"})
                assert (Path(tmp) / ("again_" + name)).read_bytes() == blob
        print("  pipeline reports byte-identical across runs; tensor container bit-exact")


def test_external_import_path_and_nonreproduction_statement():
    with criterion("external-import-path"):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "pretrained" in readme.lower()
        assert "not reproduce" in readme.lower() or "not reproduced" in readme.lower()

        # the file-import route processes externally exported score tensors
        # end to end without any checkpoint
        import tempfile

        from patchsmooth.pool import save_grid, save_pool

        rng = np.random.default_rng(3)
        region = (2, 2)
        prompt = PromptSpec("ext0", "ext0.out", "query", region)
        grid = ScoreGrid(probs=rng.dirichlet(np.ones(6), size=4), prompt=prompt)
        pool = PromptPool(
            probs=rng.dirichlet(np.ones(6), size=(3, 4)),
            pair_indices=[1, 2, 3],
            prompts=tuple(PromptSpec(f"ext{i}", f"ext{i}.out", "query", region) for i in range(3)),
            mode=PoolMode.Q,
            m=3,
        )
        with tempfile.TemporaryDirectory() as tmp:
            save_grid(grid, Path(tmp) / "q.pnct")
            save_pool(pool, Path(tmp) / "p.pnct")
            gt = rng.integers(0, 6, size=(2, 2)).astype(np.uint32)
            write_tensor(gt, Path(tmp) / "gt.pnct")
            config = load_config(
                overrides={
                    "backend": "file",
                    "files": {
                        "query_scores": str(Path(tmp) / "q.pnct"),
                        "pool": str(Path(tmp) / "p.pnct"),
                        "gt_tokens": str(Path(tmp) / "gt.pnct"),
                        "out_tokens": str(Path(tmp) / "out.pnct"),
                    },
                }
            )
            report = run_pipeline(config)
            tokens, _ = read_tensor(Path(tmp) / "out.pnct")
            assert tokens.shape == region
            assert {r.metric for r in report.reports} >= {
                "baseline_accuracy", "smoothed_accuracy",
            }
        print("  exported-tensor route runs end to end; no external checkpoints required")
