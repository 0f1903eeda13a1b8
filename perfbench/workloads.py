"""The three workloads: inputs made from the seed, the timed op, checks.

Every workload follows the same shape:

* ``setup()`` makes the inputs and leaves everything the first op needs
  in place (this is what ``setup_s`` times, together with the warm-up op);
* ``run_op(i)`` is one timed op; ``round_size`` ops make one round;
* ``check_op(i, result)`` verifies that op's output against an
  independent reference, outside the timed region;
* ``finish()`` runs the end-of-run checks and returns a summary.

The library is reached only through module attributes
(``ps.pool.build_pool``, not a name imported from it), so the tracer's
patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from reference import require


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


# Stream tags of the seeded generators, so that no two inputs share one.
_FEATURES, _QUERIES, _PAIR_TOKENS, _TRUTH, _PROMPT, _CHOICE = range(6)


@dataclass(frozen=True)
class VqganScale:
    n_support: int
    feature_shape: tuple[int, int, int]
    n_queries: int
    m: int
    grid: tuple[int, int]
    codebook: int

    @property
    def patches(self) -> int:
        return self.grid[0] * self.grid[1]


# Exported scores of a VQGAN-sized model: 5,000 x 4,096 support index,
# 14x14 grid, |V| = 1024, m = 8 (the vqgan-query path).
QUERY_FULL = VqganScale(5000, (16, 16, 16), 8, 8, (14, 14), 1024)
QUERY_TINY = VqganScale(300, (4, 4, 4), 2, 4, (3, 3), 32)
# The all-patch scope: 7x7 grid, |V| = 1024, m = 4 (vqgan-allpatch).
ALLPATCH_FULL = VqganScale(16, (4, 4, 4), 4, 4, (7, 7), 1024)
ALLPATCH_TINY = VqganScale(8, (4, 4, 4), 2, 3, (2, 3), 32)


def prompt_scores(seed: int, qi: int, support: int, truth: np.ndarray,
                  pair_tokens: np.ndarray, codebook: int) -> np.ndarray:
    """(L, |V|) f32 scores an exporting model might give one prompt.

    Softmax of unit Gaussian logits with a bump on the query's true token
    and a slightly larger one on the in-context pair's output token, so a
    single pair pulls many argmaxes away from the truth and pooling
    across pairs can pull them back.
    """
    rng = _rng(seed, _PROMPT, qi, support)
    patches = len(truth)
    logits = rng.standard_normal((patches, codebook))
    rows = np.arange(patches)
    logits[rows, truth] += 4.0
    logits[rows, pair_tokens] += 4.2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


class _FileExport:
    """Writes exported score tensors in the layout ``FileScorerBackend``
    reads: a manifest plus one (L, |V|) f32 tensor per prompt."""

    def __init__(self, ps, directory: Path, scale: VqganScale, n_support: int):
        self.ps = ps
        self.dir = directory
        self.dir.mkdir(parents=True)
        self.scale = scale
        self.pairs = {f"s{i:04d}": f"s{i:04d}.out" for i in range(n_support)}
        self.prompts: dict[str, str] = {}

    def add_prompt(self, support: str, anchor: str, scores: np.ndarray) -> None:
        key = f"{support}__{self.pairs[support]}__{anchor}"
        name = f"{key}.pnct"
        self.ps.tensorfile.write_tensor(scores, self.dir / name, meta={"kind": "scores"})
        self.prompts[key] = name

    def write_manifest(self) -> None:
        manifest = {
            "grid": list(self.scale.grid),
            "codebook_size": self.scale.codebook,
            "patch_order": "row-major",
            "pairs": self.pairs,
            "prompts": self.prompts,
        }
        (self.dir / "manifest.json").write_text(json.dumps(manifest))

    def write_query_inputs(self, qid: str, support: str, scores: np.ndarray,
                           truth: np.ndarray) -> tuple[Path, Path]:
        """The single-pair query grid (best pair, query as anchor) and
        the ground-truth tokens."""
        grid_path = self.dir.parent / f"{qid}.grid.pnct"
        gt_path = self.dir.parent / f"{qid}.gt.pnct"
        prompt = {
            "in_context_input": support,
            "in_context_output": self.pairs[support],
            "anchor": qid,
            "masked_region": list(self.scale.grid),
        }
        self.ps.tensorfile.write_tensor(
            scores, grid_path, meta={"schema_version": 1, "kind": "score-grid", "prompt": prompt})
        self.ps.tensorfile.write_tensor(
            truth.astype(np.uint32).reshape(self.scale.grid), gt_path, meta={"kind": "token-grid"})
        return grid_path, gt_path


def _file_config(ps, workdir: Path, qid: str, grid: Path, gt: Path, scope: str) -> dict:
    return ps.pipeline.load_config(None, {
        "backend": "file",
        "smoothing": {"scope": scope},
        "files": {
            "query_scores": str(grid),
            "pool": str(workdir / f"{qid}.pool.pnct"),
            "gt_tokens": str(gt),
            "out_tokens": str(workdir / f"{qid}.tokens.pnct"),
            "item_id": qid,
        },
    })


@dataclass(frozen=True)
class _Expected:
    """Reference outcome of one query: smoothed argmax, the patches exempt
    from comparison, and the single-pair baseline argmax."""

    tokens: np.ndarray
    exempt: np.ndarray
    baseline: np.ndarray


def _reference_outcome(config: dict, raw_pool: np.ndarray, all_patch: bool) -> _Expected:
    """Dense reference for a file-backend run whose query grid is the
    first pool prompt (the best pair with the query as anchor)."""
    section = config["smoothing"]
    k = section["k"] if section["k"] is not None else min(5, raw_pool.shape[0])
    query = ref.normalise(raw_pool[0])
    pool = ref.through_f32_file(ref.normalise(raw_pool))
    smoothed = ref.smooth_reference(query, pool, k, float(section["tau"]),
                                    float(section["alpha"]), all_patch)
    tokens, exempt = ref.argmax_with_exempt(smoothed)
    return _Expected(tokens, exempt, np.argmax(query, axis=1))


def _check_tokens_and_report(config: dict, report, expected: _Expected,
                             truth: np.ndarray) -> int:
    """Compare the written tokens and the reported accuracies with the
    reference; return the number of patches exempt from the comparison."""
    tokens = ref.read_pncl(config["files"]["out_tokens"]).reshape(-1).astype(np.int64)
    mismatch = np.flatnonzero((tokens != expected.tokens) & ~expected.exempt)
    require(mismatch.size == 0,
            f"{config['files']['item_id']}: tokens differ from the reference at patches "
            f"{mismatch[:8].tolist()}")
    recomputed = {
        "baseline_accuracy": float(np.mean(expected.baseline == truth)),
        "smoothed_accuracy": float(np.mean(tokens == truth)),
    }
    for metric, value in recomputed.items():
        got = report.report(metric).aggregate
        require(got == value, f"reported {metric} {got!r} != recomputed {value!r}")
    return int(expected.exempt.sum())


class VqganQuery:
    """One query from retrieval to evaluated tokens, over exported scores."""

    name = "vqgan-query"
    tail_pct = 75

    def __init__(self, ps, seed: int, workdir: Path, tiny: bool = False):
        self.ps = ps
        self.seed = seed
        self.workdir = workdir
        self.scale = QUERY_TINY if tiny else QUERY_FULL
        self.round_size = self.scale.n_queries
        self.exempt = 0
        self._expected: dict[int, _Expected] = {}
        self._expected_ids: list[list[str]] | None = None

    def build_index(self, features: np.ndarray):
        """Feature maps -> flattened unit vectors -> retrieval index."""
        r = self.ps.retrieval
        shape = self.scale.feature_shape
        return r.RetrievalIndex([
            r.flatten_normalize(r.FeatureMap(row.reshape(shape), identifier=f"s{i:04d}"))
            for i, row in enumerate(features)
        ])

    def setup(self) -> None:
        ps, sc, seed = self.ps, self.scale, self.seed
        dim = int(np.prod(sc.feature_shape))
        self.features = _rng(seed, _FEATURES).standard_normal((sc.n_support, dim), dtype=np.float32)
        self.query_features = _rng(seed, _QUERIES).standard_normal(
            (sc.n_queries, dim), dtype=np.float32)
        self.pair_tokens = _rng(seed, _PAIR_TOKENS).integers(
            0, sc.codebook, size=(sc.n_support, sc.patches))
        self.truth = _rng(seed, _TRUTH).integers(0, sc.codebook, size=(sc.n_queries, sc.patches))
        self.index = self.build_index(self.features)

        export = _FileExport(ps, self.workdir / "exported", sc, sc.n_support)
        self.raw: dict[int, np.ndarray] = {}
        self.configs = []
        for qi in range(sc.n_queries):
            qid = f"q{qi:04d}"
            retrieved = ps.retrieval.top_m(self._query_vector(qi), self.index, sc.m)
            raw = []
            for sid in retrieved.ids:
                scores = prompt_scores(seed, qi, int(sid[1:]), self.truth[qi],
                                       self.pair_tokens[int(sid[1:])], sc.codebook)
                export.add_prompt(sid, qid, scores)
                raw.append(scores)
            self.raw[qi] = np.stack(raw)
            grid, gt = export.write_query_inputs(qid, retrieved.ids[0], raw[0], self.truth[qi])
            self.configs.append(_file_config(ps, self.workdir, qid, grid, gt, "patch"))
        export.write_manifest()
        self.export_dir = export.dir

    def _query_vector(self, qi: int):
        r = self.ps.retrieval
        return r.flatten_normalize(r.FeatureMap(
            self.query_features[qi].reshape(self.scale.feature_shape), identifier=f"q{qi:04d}"))

    def run_op(self, i: int):
        ps, qi = self.ps, i % self.scale.n_queries
        qid = f"q{qi:04d}"
        retrieved = ps.retrieval.top_m(self._query_vector(qi), self.index, self.scale.m)
        backend = ps.pool.FileScorerBackend(self.export_dir)
        pool = ps.pool.build_pool(backend, retrieved, qid, mode=ps.pool.PoolMode.Q)
        ps.pool.save_pool(pool, self.configs[qi]["files"]["pool"])
        return retrieved.ids, ps.pipeline.run_pipeline(self.configs[qi])

    def check_op(self, i: int, result) -> None:
        qi = i % self.scale.n_queries
        ids, report = result
        if self._expected_ids is None:
            orders = ref.retrieval_orders(self.features, self.query_features, self.scale.m)
            self._expected_ids = [[f"s{j:04d}" for j in order] for order in orders]
        require(list(ids) == self._expected_ids[qi],
                f"q{qi:04d}: retrieved {list(ids)} != full-sort reference {self._expected_ids[qi]}")
        if qi not in self._expected:
            self._expected[qi] = _reference_outcome(self.configs[qi], self.raw[qi], False)
        self.exempt += _check_tokens_and_report(
            self.configs[qi], report, self._expected[qi], self.truth[qi])

    def finish(self) -> dict:
        return {"exempt_patches": self.exempt}

    def index_builders(self):
        return [(self, "build_index")]


class VqganAllPatch:
    """``run_pipeline`` with the file backend and the all-patch scope."""

    name = "vqgan-allpatch"
    tail_pct = 75

    def __init__(self, ps, seed: int, workdir: Path, tiny: bool = False):
        self.ps = ps
        self.seed = seed
        self.workdir = workdir
        self.scale = ALLPATCH_TINY if tiny else ALLPATCH_FULL
        self.round_size = self.scale.n_queries
        self.exempt = 0
        self._expected: dict[int, _Expected] = {}

    def setup(self) -> None:
        ps, sc, seed = self.ps, self.scale, self.seed
        pair_tokens = _rng(seed, _PAIR_TOKENS).integers(
            0, sc.codebook, size=(sc.n_support, sc.patches))
        self.truth = _rng(seed, _TRUTH).integers(0, sc.codebook, size=(sc.n_queries, sc.patches))
        choice = _rng(seed, _CHOICE)
        export = _FileExport(ps, self.workdir / "exported", sc, sc.n_support)
        self.raw: dict[int, np.ndarray] = {}
        self.configs = []
        chosen_per_query = []
        for qi in range(sc.n_queries):
            qid = f"q{qi:04d}"
            chosen = [int(s) for s in choice.choice(sc.n_support, size=sc.m, replace=False)]
            raw = [prompt_scores(seed, qi, s, self.truth[qi], pair_tokens[s], sc.codebook)
                   for s in chosen]
            for s, scores in zip(chosen, raw):
                export.add_prompt(f"s{s:04d}", qid, scores)
            self.raw[qi] = np.stack(raw)
            grid, gt = export.write_query_inputs(qid, f"s{chosen[0]:04d}", raw[0], self.truth[qi])
            self.configs.append(_file_config(ps, self.workdir, qid, grid, gt, "all"))
            chosen_per_query.append(chosen)
        export.write_manifest()

        backend = ps.pool.FileScorerBackend(export.dir)
        for qi, chosen in enumerate(chosen_per_query):
            retrieved = ps.retrieval.RetrievedSet(
                items=tuple((f"s{s:04d}", 1.0 - 0.01 * j) for j, s in enumerate(chosen)),
                query_id=f"q{qi:04d}",
            )
            pool = ps.pool.build_pool(backend, retrieved, f"q{qi:04d}", mode=ps.pool.PoolMode.Q)
            ps.pool.save_pool(pool, self.configs[qi]["files"]["pool"])

    def run_op(self, i: int):
        return self.ps.pipeline.run_pipeline(self.configs[i % self.scale.n_queries])

    def check_op(self, i: int, result) -> None:
        qi = i % self.scale.n_queries
        if qi not in self._expected:
            self._expected[qi] = _reference_outcome(self.configs[qi], self.raw[qi], True)
        self.exempt += _check_tokens_and_report(
            self.configs[qi], result, self._expected[qi], self.truth[qi])

    def finish(self) -> dict:
        return {"exempt_patches": self.exempt}

    def index_builders(self):
        return []


class DeskSweep:
    """``run_seed_sweep`` over one seed at desk scale (the synth-run path);
    op i sweeps seed ``seed + i``. The workload is desk-sized already, so
    ``tiny`` changes nothing."""

    name = "desk-sweep"
    tail_pct = 95
    round_size = 1
    world = {"rows": 4, "cols": 4, "codebook_size": 8, "n_items": 24}
    m_values = (1, 2, 4)
    n_queries = 3
    #: Seeds re-derived from the documented formulas at the end of a run.
    REFERENCE_SEEDS = (0, 1, 2)

    def __init__(self, ps, seed: int, workdir: Path, tiny: bool = False):
        self.ps = ps
        self.seed = seed
        self.workdir = workdir
        self.margins: list[float] = []

    def setup(self) -> None:
        pass

    def _sweep(self, seed: int) -> dict:
        return self.ps.synthbench.run_seed_sweep(
            seeds=[seed], m_values=self.m_values, n_queries=self.n_queries, **self.world)

    def run_op(self, i: int):
        return self._sweep(self.seed + i)

    def check_op(self, i: int, result) -> None:
        row = result["per_seed"][0]
        seed = row["seed"]
        require(row["m=1"] == row["baseline"],
                f"seed {seed}: m=1 accuracy {row['m=1']} != baseline {row['baseline']}")
        patches = self.n_queries * self.world["rows"] * self.world["cols"]
        for key, value in row.items():
            if key == "seed":
                continue
            scaled = value * patches
            require(0.0 <= value <= 1.0 and abs(scaled - round(scaled)) < 1e-9,
                    f"seed {seed}: {key} accuracy {value!r} is not a multiple of 1/{patches}")
        self.margins.append(row["m=4"] - row["baseline"])

    def finish(self) -> dict:
        mean_margin = float(np.mean(self.margins))
        require(mean_margin > 0.0, f"mean m=4 margin over baseline is {mean_margin}, not above 0")
        for seed in self.REFERENCE_SEEDS:
            got = self._sweep(seed)["per_seed"][0]
            world = self.ps.synthbench.generate_world(seed, **self.world)
            want = ref.desk_sweep_reference(world, seed, self.m_values, self.n_queries)
            for key, value in want.items():
                require(got[key] == value,
                        f"seed {seed}: {key} accuracy {got[key]!r} != reference {value!r}")
        return {"mean_m4_margin": mean_margin}

    def index_builders(self):
        return []


WORKLOADS = {w.name: w for w in (VqganQuery, VqganAllPatch, DeskSweep)}
