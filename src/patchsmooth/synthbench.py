"""Desk-scale synthetic world for end-to-end verification.

The world is a lattice of token grids: every item is an (input, output)
pair whose output is a fixed token-to-token rule applied patchwise, plus
a latent feature map (one-hot token channels with a little seeded noise)
used for retrieval. The scorer imitates the over-reliance failure mode of
single-pair prompting: per patch it mixes mass on the anchor's true token
with mass on the in-context pair's output token, so a lone pair can pull
the argmax away from the truth, and pooling across pairs can pull it back.

Reproducibility contract: everything derives from one integer seed via
numpy's PCG64. Stream splitting rule: the world's SeedSequence spawns one
child per item, in item order; scoring itself draws no randomness, so the
same prompt always yields a bitwise-identical grid.

This world is a construct of this repository; no published benchmark
numbers are claimed or reproduced here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import CodebookSpec, normalize_scores, pairwise_divergence
from .errors import ConfigError, MissingItemError, ValidationError
from .metrics import pixel_accuracy
from .pool import PoolMode, PromptPool, PromptSpec, ScoreGrid, build_pool
from .retrieval import FeatureMap, RetrievalIndex, flatten_normalize, top_m
from .smoothing import (
    Aggregation,
    NeighborKey,
    PoolScope,
    SmoothedGrid,
    SmoothingConfig,
    smooth_grid,
)

RNG_FAMILY = "numpy-pcg64"
FEATURE_NOISE = 0.05
SUPPORT_FRACTION = 0.8

#: Fixed seed list for byte-comparable sweep reports.
DEFAULT_SWEEP_SEEDS = tuple(range(100))

TASK_RULES = {
    "identity": lambda v, size: v,
    "shift": lambda v, size: (v + 1) % size,
    "reverse": lambda v, size: size - 1 - v,
}


@dataclass(frozen=True)
class WorldItem:
    identifier: str
    input_tokens: np.ndarray = field(repr=False)
    output_tokens: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SyntheticWorld:
    seed: int
    grid: tuple[int, int]
    codebook: CodebookSpec
    task_family: str
    items: dict[str, WorldItem]
    support_ids: tuple[str, ...]
    query_ids: tuple[str, ...]

    @property
    def patch_count(self) -> int:
        return self.grid[0] * self.grid[1]

    def item(self, item_id: str) -> WorldItem:
        if item_id not in self.items:
            raise MissingItemError(f"unknown item {item_id!r}")
        return self.items[item_id]

    def feature_vector(self, item_id: str):
        return flatten_normalize(FeatureMap(self.item(item_id).features, identifier=item_id))

    def support_index(self) -> RetrievalIndex:
        return RetrievalIndex([self.feature_vector(i) for i in self.support_ids])


def generate_world(
    seed: int,
    rows: int,
    cols: int,
    codebook_size: int,
    n_items: int,
    task_family: str = "identity",
) -> SyntheticWorld:
    """Build a reproducible world of (input grid, output grid) pairs."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"grid must be at least 1x1, got {rows}x{cols}")
    if codebook_size < 2:
        raise ConfigError(f"codebook size must be >= 2, got {codebook_size}")
    if n_items < 2:
        raise ConfigError(f"need at least 2 items, got {n_items}")
    if task_family not in TASK_RULES:
        raise ConfigError(f"unknown task family {task_family!r}; choose from {sorted(TASK_RULES)}")

    rule = TASK_RULES[task_family]
    root = np.random.SeedSequence(seed)
    children = root.spawn(n_items + 1)  # one stream per item, last one for the split
    patch_count = rows * cols

    items: dict[str, WorldItem] = {}
    for i in range(n_items):
        rng = np.random.default_rng(children[i])
        ident = f"item{i:04d}"
        inputs = rng.integers(0, codebook_size, size=patch_count)
        outputs = np.array([rule(int(v), codebook_size) for v in inputs])
        features = np.zeros((codebook_size, rows, cols))
        features[inputs, np.repeat(np.arange(rows), cols), np.tile(np.arange(cols), rows)] = 1.0
        features += FEATURE_NOISE * rng.normal(size=features.shape)
        for arr in (inputs, outputs, features):
            arr.flags.writeable = False
        items[ident] = WorldItem(ident, inputs, outputs, features)

    split_rng = np.random.default_rng(children[n_items])
    order = [f"item{i:04d}" for i in split_rng.permutation(n_items)]
    n_support = min(n_items - 1, max(1, round(SUPPORT_FRACTION * n_items)))
    return SyntheticWorld(
        seed=seed,
        grid=(rows, cols),
        codebook=CodebookSpec(size=codebook_size),
        task_family=task_family,
        items=items,
        support_ids=tuple(sorted(order[:n_support])),
        query_ids=tuple(sorted(order[n_support:])),
    )


@dataclass(frozen=True)
class BiasedScorerParams:
    """Mixture weights of the synthetic scorer, normalized to sum to 1.

    ``beta_truth`` goes to the anchor's true output token, ``beta_pair``
    to the in-context pair's output token at the same patch, and
    ``epsilon_noise`` spreads uniformly. ``similarity_coupling`` in [0, 1]
    shifts truth mass towards the pair token the less the pair resembles
    the anchor, mimicking a model misled by dissimilar examples.
    """

    beta_truth: float
    beta_pair: float
    epsilon_noise: float
    similarity_coupling: float = 0.0

    def __post_init__(self):
        if min(self.beta_truth, self.beta_pair, self.epsilon_noise) < 0.0:
            raise ConfigError("scorer weights must be nonnegative")
        total = self.beta_truth + self.beta_pair + self.epsilon_noise
        if total <= 0.0:
            raise ConfigError("scorer weights must have positive total mass")
        if not 0.0 <= self.similarity_coupling <= 1.0:
            raise ConfigError(f"similarity coupling must lie in [0, 1], got {self.similarity_coupling}")
        object.__setattr__(self, "beta_truth", self.beta_truth / total)
        object.__setattr__(self, "beta_pair", self.beta_pair / total)
        object.__setattr__(self, "epsilon_noise", self.epsilon_noise / total)

    def echo(self) -> dict:
        return dataclasses.asdict(self)


OUTPUT_SUFFIX = ".out"


def _resolve_pair_input(world: SyntheticWorld, prompt: PromptSpec) -> WorldItem:
    pair = world.item(prompt.in_context_input)
    if prompt.in_context_output != prompt.in_context_input + OUTPUT_SUFFIX:
        raise MissingItemError(
            f"output id {prompt.in_context_output!r} does not belong to {prompt.in_context_input!r}"
        )
    return pair


def synthetic_score(
    world: SyntheticWorld, params: BiasedScorerParams, prompt: PromptSpec
) -> ScoreGrid:
    """Score one prompt with the bias-controllable mixture."""
    if prompt.masked_region != world.grid:
        raise ConfigError(f"prompt masks {prompt.masked_region}, world grid is {world.grid}")
    pair = _resolve_pair_input(world, prompt)
    anchor = world.item(prompt.anchor)
    size = world.codebook.size

    beta_truth, beta_pair = params.beta_truth, params.beta_pair
    if params.similarity_coupling > 0.0:
        sim = float(
            np.dot(world.feature_vector(anchor.identifier).values,
                   world.feature_vector(pair.identifier).values)
        )
        shift = params.similarity_coupling * (1.0 - (sim + 1.0) / 2.0) * beta_truth
        beta_truth -= shift
        beta_pair += shift

    truth = anchor.output_tokens
    pair_tokens = pair.output_tokens
    patches = np.arange(world.patch_count)
    scores = np.full((world.patch_count, size), params.epsilon_noise / size)
    scores[patches, truth] += beta_truth
    scores[patches, pair_tokens] += beta_pair
    # pre-distribution internal state and decoded patch value, used as
    # alternative neighbor keys
    feature_keys = np.zeros((world.patch_count, 2 * size))
    feature_keys[patches, truth] = 1.0
    feature_keys[patches, size + pair_tokens] += 1.0
    patch_keys = np.argmax(scores, axis=1).astype(np.float64)[:, None]
    return ScoreGrid(
        probs=normalize_scores(scores),
        prompt=prompt,
        feature_keys=feature_keys,
        patch_keys=patch_keys,
    )


class SyntheticScorerBackend:
    """ScorerBackend over a synthetic world."""

    def __init__(self, world: SyntheticWorld, params: BiasedScorerParams):
        self.world = world
        self.params = params

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.world.grid

    def pair_for(self, item_id: str) -> tuple[str, str]:
        self.world.item(item_id)
        return item_id, item_id + OUTPUT_SUFFIX

    def score(self, prompt: PromptSpec) -> ScoreGrid:
        return synthetic_score(self.world, self.params, prompt)


# ---------------------------------------------------------------------------
# Brute-force oracle. Deliberately shares no kernels with the main path:
# pure-Python math, explicit sorts, literal formulas.
# ---------------------------------------------------------------------------


def _bf_kl(p, q) -> float:
    total = 0.0
    for a, b in zip(p, q):
        if a > 0.0:
            if b == 0.0:
                return math.inf
            # a / b overflows when b is subnormal; the log difference cannot
            total += a * (math.log(a) - math.log(b))
    return max(total, 0.0)


def _bf_js(p, q) -> float:
    z = [(a + b) / 2.0 for a, b in zip(p, q)]
    total = 0.0
    for side in (p, q):
        for a, mid in zip(side, z):
            # mid > 0 whenever a > 0 except for subnormal underflow, whose
            # true contribution rounds to zero anyway
            if a > 0.0 and mid > 0.0:
                total += a * math.log(a / mid)
    return max(0.5 * total, 0.0)


def _bf_l2(u, v) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def _bf_distance(pool: PromptPool, j: int, l: int, query_probs, query_feature, query_patch,
                 config) -> float:
    if config.key is NeighborKey.SCORE:
        pool_probs = list(pool.probs[j, l])
        if config.divergence.value == "kl":
            return _bf_kl(pool_probs, query_probs)
        return _bf_js(pool_probs, query_probs)
    if config.key is NeighborKey.FEATURE:
        return _bf_l2(list(pool.feature_keys[j, l]), query_feature)
    return _bf_l2(list(pool.patch_keys[j, l]), query_patch)


def brute_force_smooth(
    query_grid: ScoreGrid, pool: PromptPool, config: SmoothingConfig
) -> SmoothedGrid:
    """Independent reference implementation of grid smoothing."""
    if len(query_grid) != pool.patch_count:
        raise ValidationError("query grid and pool disagree in patch count")

    if config.scope is PoolScope.ALL_PATCH:
        every_slot = [(j, l) for l in range(pool.patch_count) for j in range(pool.width)]
        candidate_sets = [every_slot] * pool.patch_count
    else:
        candidate_sets = [[(j, l) for j in range(pool.width)] for l in range(pool.patch_count)]

    smoothed = []
    for l in range(pool.patch_count):
        s = list(query_grid.probs[l])
        qf = None if query_grid.feature_keys is None else list(query_grid.feature_keys[l])
        qp = None if query_grid.patch_keys is None else list(query_grid.patch_keys[l])
        scored = [
            (_bf_distance(pool, j, lc, s, qf, qp, config), int(pool.pair_indices[j]), lc, j)
            for j, lc in candidate_sets[l]
        ]
        scored.sort(key=lambda t: (t[0], t[1], t[2]))
        chosen = scored[: min(config.k, len(scored))]

        if config.aggregation is Aggregation.NEAREST:
            weights = [1.0] + [0.0] * (len(chosen) - 1)
        elif config.aggregation is Aggregation.AVERAGE:
            weights = [1.0 / len(chosen)] * len(chosen)
        else:
            finite = [d for d, *_ in chosen if math.isfinite(d)]
            if not finite:
                raise ValidationError("softmax weights need at least one finite distance")
            lowest = min(finite)
            raw = [
                math.exp(-(d - lowest) / config.tau) if math.isfinite(d) else 0.0
                for d, *_ in chosen
            ]
            total = sum(raw)
            weights = [r / total for r in raw]

        size = len(s)
        out = [0.0] * size
        for v in range(size):
            pooled = 0.0
            for w, (_, _, lc, j) in zip(weights, chosen):
                pooled += w * float(pool.probs[j, lc, v])
            out[v] = (1.0 - config.alpha) * s[v] + config.alpha * pooled
        drift = sum(out)
        if abs(drift - 1.0) > 1e-9:
            out = [x / drift for x in out]
        smoothed.append(out)
    return SmoothedGrid(probs=np.array(smoothed), diagnostics=())


def brute_force_smooth_features(query_features, pools, config: SmoothingConfig):
    """Independent reference for feature-vector smoothing."""
    out = []
    for l, q in enumerate(query_features):
        q = [float(x) for x in q]
        candidates = [[float(x) for x in vec] for vec in pools[l]]
        if not candidates:
            out.append(q)
            continue
        scored = sorted(
            ((_bf_l2(vec, q), j, vec) for j, vec in enumerate(candidates)),
            key=lambda t: (t[0], t[1]),
        )
        chosen = scored[: min(config.k, len(scored))]
        if config.aggregation is Aggregation.NEAREST:
            weights = [1.0] + [0.0] * (len(chosen) - 1)
        elif config.aggregation is Aggregation.AVERAGE:
            weights = [1.0 / len(chosen)] * len(chosen)
        else:
            lowest = min(d for d, _, _ in chosen)
            raw = [math.exp(-(d - lowest) / config.tau) for d, _, _ in chosen]
            total = sum(raw)
            weights = [r / total for r in raw]
        blended = []
        for dim in range(len(q)):
            pooled = sum(w * vec[dim] for w, (_, _, vec) in zip(weights, chosen))
            blended.append((1.0 - config.alpha) * q[dim] + config.alpha * pooled)
        out.append(blended)
    return np.array(out)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


def _js_to_truth(probs, truth) -> float:
    onehots = np.eye(probs.shape[1])[np.asarray(truth)]
    return float(np.mean([
        pairwise_divergence(row, onehot[None])[0] for row, onehot in zip(probs, onehots)
    ]))


def _pool_prefix(pool: PromptPool, m: int) -> PromptPool:
    """The pool of the first ``m`` retrieved pairs: top-m is a prefix of
    top-max(m) and scoring is deterministic, so mode q's rows for pairs
    1..m are exactly the first m rows."""
    return PromptPool(
        probs=pool.probs[:m],
        pair_indices=pool.pair_indices[:m],
        prompts=pool.prompts[:m],
        mode=pool.mode,
        m=m,
        feature_keys=None if pool.feature_keys is None else pool.feature_keys[:m],
        patch_keys=None if pool.patch_keys is None else pool.patch_keys[:m],
    )


def _query_outcome(query_id: str, pool: PromptPool, truth, config: SmoothingConfig) -> dict:
    """Baseline and smoothed token predictions for one query. The baseline
    is pool row 0: mode q's first prompt is the single-pair prompt
    [x_1, y_1, query]."""
    baseline = ScoreGrid(
        probs=pool.probs[0],
        prompt=pool.prompts[0],
        feature_keys=None if pool.feature_keys is None else pool.feature_keys[0],
        patch_keys=None if pool.patch_keys is None else pool.patch_keys[0],
    )
    smoothed = smooth_grid(baseline, _pool_prefix(pool, config.m), config)
    baseline_tokens = [int(t) for t in np.argmax(baseline.probs, axis=1)]
    smoothed_tokens = [int(t) for t in np.argmax(smoothed.probs, axis=1)]
    return {
        "query": query_id,
        "baseline_tokens": baseline_tokens,
        "smoothed_tokens": smoothed_tokens,
        "truth": [int(t) for t in truth],
        "baseline_accuracy": pixel_accuracy(baseline_tokens, truth),
        "smoothed_accuracy": pixel_accuracy(smoothed_tokens, truth),
        "js_to_truth": _js_to_truth(smoothed.probs, truth),
    }


def run_bias_experiment(
    world: SyntheticWorld,
    params: BiasedScorerParams,
    config_grid: list[SmoothingConfig],
    n_queries: int,
    seed: int,
) -> dict:
    """Compare smoothed vs single-pair decoding across configurations.

    Queries are drawn from the world's query split with the given seed;
    everything downstream is deterministic, so reports are reproducible
    byte for byte.
    """
    if not config_grid:
        raise ConfigError("config grid is empty")
    max_m = max(c.m for c in config_grid)
    if len(world.support_ids) < max_m:
        raise ConfigError(
            f"world has {len(world.support_ids)} support items, configs need m={max_m}"
        )
    if n_queries < 1:
        raise ConfigError(f"need at least one query, got {n_queries}")
    if n_queries > len(world.query_ids):
        raise ConfigError(
            f"requested {n_queries} queries, world has {len(world.query_ids)}"
        )

    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(world.query_ids), size=n_queries, replace=False))
    queries = [world.query_ids[i] for i in picked]
    scorer = SyntheticScorerBackend(world, params)
    index = world.support_index()
    # each prompt is scored once, at the largest m; every config smooths
    # against a prefix of that pool
    pools = [
        build_pool(scorer, top_m(world.feature_vector(q), index, max_m), q, mode=PoolMode.Q)
        for q in queries
    ]

    results = []
    for config in config_grid:
        rows = [
            _query_outcome(q, pool, world.item(q).output_tokens, config)
            for q, pool in zip(queries, pools)
        ]
        results.append(
            {
                "config": config.echo(),
                "baseline_accuracy": float(np.mean([r["baseline_accuracy"] for r in rows])),
                "smoothed_accuracy": float(np.mean([r["smoothed_accuracy"] for r in rows])),
                "js_to_truth": float(np.mean([r["js_to_truth"] for r in rows])),
                "per_query": rows,
            }
        )
    return {
        "schema_version": 1,
        "rng": RNG_FAMILY,
        "world": {
            "seed": world.seed,
            "rows": world.grid[0],
            "cols": world.grid[1],
            "codebook_size": world.codebook.size,
            "n_items": len(world.items),
            "task_family": world.task_family,
        },
        "scorer": params.echo(),
        "query_seed": seed,
        "queries": queries,
        "configs": results,
    }


def run_seed_sweep(
    seeds=DEFAULT_SWEEP_SEEDS,
    rows: int = 4,
    cols: int = 4,
    codebook_size: int = 8,
    n_items: int = 24,
    task_family: str = "identity",
    params: BiasedScorerParams | None = None,
    m_values=(1, 2, 4),
    n_queries: int = 3,
    alpha: float = 1.0,
    tau: float = 1.0,
    k: int | None = None,
) -> dict:
    """m-sweep over many seeded worlds; reports means and margins.

    ``k=None`` keeps the min(5, m) default. The margin of each m against
    the single-pair baseline is recorded, never presumed.
    """
    if params is None:
        params = BiasedScorerParams(beta_truth=0.45, beta_pair=0.45, epsilon_noise=0.1)
    config_grid = [SmoothingConfig(m=m, k=k, alpha=alpha, tau=tau) for m in m_values]

    per_seed = []
    for seed in seeds:
        world = generate_world(seed, rows, cols, codebook_size, n_items, task_family)
        report = run_bias_experiment(world, params, config_grid, n_queries, seed)
        row = {"seed": seed, "baseline": report["configs"][0]["baseline_accuracy"]}
        for m, cfg in zip(m_values, report["configs"]):
            row[f"m={m}"] = cfg["smoothed_accuracy"]
        per_seed.append(row)

    means = {
        "baseline": float(np.mean([r["baseline"] for r in per_seed])),
        **{
            f"m={m}": float(np.mean([r[f"m={m}"] for r in per_seed]))
            for m in m_values
        },
    }
    margins = {f"m={m}": means[f"m={m}"] - means["baseline"] for m in m_values}
    return {
        "schema_version": 1,
        "rng": RNG_FAMILY,
        "world": {
            "rows": rows,
            "cols": cols,
            "codebook_size": codebook_size,
            "n_items": n_items,
            "task_family": task_family,
        },
        "scorer": params.echo(),
        "smoothing": {"alpha": alpha, "tau": tau, "k": k if k is not None else "min(5, m)"},
        "seeds": list(seeds),
        "n_queries": n_queries,
        "per_seed": per_seed,
        "mean_accuracy": means,
        "margin_vs_baseline": margins,
    }
