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

from .divergence import CodebookSpec, normalize_scores
from .errors import ConfigError, MissingItemError
from .metrics import decode_argmax
from .pool import PoolMode, PromptPool, PromptSpec, ScoreGrid
from .retrieval import FeatureVector, RetrievalIndex, top_m
from .smoothing import PoolScope, SmoothingConfig, _smooth_configs

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
    grid: tuple[int, int]
    codebook: CodebookSpec
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
        return FeatureVector(self.item(item_id).features.ravel(), item_id)

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
    if seed < 0:
        raise ConfigError(f"world seed must be >= 0, got {seed}")
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

    # item i draws its tokens, then its feature noise, from its own stream
    inputs = np.empty((n_items, patch_count), dtype=np.int64)
    noise = np.empty((n_items, codebook_size, rows, cols))
    for i in range(n_items):
        rng = np.random.default_rng(children[i])
        inputs[i] = rng.integers(0, codebook_size, size=patch_count)
        noise[i] = rng.normal(size=noise.shape[1:])
    outputs = np.array(rule(inputs, codebook_size))
    features = np.zeros(noise.shape)
    patch_row, patch_col = np.divmod(np.arange(patch_count), cols)
    features[np.arange(n_items)[:, None], inputs, patch_row, patch_col] = 1.0
    features += FEATURE_NOISE * noise
    for arr in (inputs, outputs, features):
        arr.flags.writeable = False
    idents = [f"item{i:04d}" for i in range(n_items)]
    items = {ident: WorldItem(ident, *views)
             for ident, *views in zip(idents, inputs, outputs, features)}

    split_rng = np.random.default_rng(children[n_items])
    order = [idents[i] for i in split_rng.permutation(n_items)]
    n_support = min(n_items - 1, max(1, round(SUPPORT_FRACTION * n_items)))
    return SyntheticWorld(
        grid=(rows, cols),
        codebook=CodebookSpec(size=codebook_size),
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
        weights = (self.beta_truth, self.beta_pair, self.epsilon_noise)
        if not all(0.0 <= w < math.inf for w in weights):  # a NaN fails too
            raise ConfigError(f"scorer weights must be finite and nonnegative, got {weights}")
        total = sum(weights)
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


def _score_prompts(world: SyntheticWorld, params: BiasedScorerParams, pair_ids, anchor_ids):
    """Score the prompts [x_pair, y_pair, anchor_q] of ``pair_ids``, Q ids
    or W rows of Q, with the bias-controllable mixture, in one array pass.

    Returns owned, read-only ``probs``, ``feature_keys`` (the
    pre-distribution internal state and decoded patch value, used as
    alternative neighbor keys) and ``patch_keys``, each of leading shape
    (Q * L,) or (W, Q * L): entry [..., q * L + l] is patch l of the prompt
    of pair id [..., q]. Every step is elementwise or per row, so an entry
    has the same bits whatever else is scored with it. Ids are not checked.
    """
    pair_ids = np.asarray(pair_ids)
    size, patches = world.codebook.size, world.patch_count
    lead = pair_ids.shape[:-1] + (pair_ids.shape[-1] * patches,)
    anchors = list(anchor_ids) * (pair_ids.size // len(anchor_ids))  # the anchor of each prompt
    pair_tokens = np.concatenate([world.items[p].output_tokens for p in pair_ids.flat])
    truth = np.concatenate([world.items[a].output_tokens for a in anchors])

    beta_truth, beta_pair = params.beta_truth, params.beta_pair
    if params.similarity_coupling > 0.0:
        betas = []
        for pair, anchor in zip(pair_ids.flat, anchors):
            sim = float(np.dot(world.feature_vector(anchor).values,
                               world.feature_vector(pair).values))
            shift = params.similarity_coupling * (1.0 - (sim + 1.0) / 2.0) * beta_truth
            betas.append((beta_truth - shift, beta_pair + shift))
        beta_truth, beta_pair = np.repeat(np.array(betas), patches, axis=0).T

    rows = np.arange(len(truth))
    scores = np.full(lead + (size,), params.epsilon_noise / size)
    flat = scores.reshape(-1, size)  # a view: writes land in ``scores``
    flat[rows, truth] += beta_truth
    flat[rows, pair_tokens] += beta_pair
    feature_keys = np.zeros(lead + (2 * size,))
    flat = feature_keys.reshape(-1, 2 * size)
    flat[rows, truth] = 1.0
    flat[rows, size + pair_tokens] += 1.0
    patch_keys = np.argmax(scores, axis=-1, keepdims=True).astype(np.float64)
    for keys in (feature_keys, patch_keys):
        keys.flags.writeable = False  # frozen and owned: a grid or pool keeps them uncopied
    return normalize_scores(scores), feature_keys, patch_keys


def synthetic_score(
    world: SyntheticWorld, params: BiasedScorerParams, prompt: PromptSpec
) -> ScoreGrid:
    """Score one prompt with the bias-controllable mixture: the
    one-prompt case of ``_score_prompts``, with its ids checked."""
    if prompt.masked_region != world.grid:
        raise ConfigError(f"prompt masks {prompt.masked_region}, world grid is {world.grid}")
    pair = _resolve_pair_input(world, prompt)
    world.item(prompt.anchor)
    probs, feature_keys, patch_keys = _score_prompts(world, params, [pair.identifier],
                                                     [prompt.anchor])
    return ScoreGrid(probs=probs, prompt=prompt, feature_keys=feature_keys, patch_keys=patch_keys)


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
# Experiment runner
# ---------------------------------------------------------------------------


def _baseline(pool: PromptPool) -> ScoreGrid:
    """Pool row 0 as a grid: mode q's first prompt is the single-pair
    prompt [x_1, y_1, query], for each query of a joint pool."""
    return ScoreGrid(
        probs=pool.probs[0],
        feature_keys=None if pool.feature_keys is None else pool.feature_keys[0],
        patch_keys=None if pool.patch_keys is None else pool.patch_keys[0],
    )


def _mean_accuracy(rows: list[dict], arm: str) -> float:
    """The mean ``pixel_accuracy`` of one arm's tokens over outcome rows:
    the ``{arm}_accuracy`` aggregate ``metrics.eval_reports`` reports, bit
    for bit, from one comparison of the stacked (Q, L) tokens: each row's
    mean is the count of hits over L, and the row means add up in order."""
    hits = np.array([r[f"{arm}_tokens"] for r in rows]) == np.array([r["truth"] for r in rows])
    return float(np.mean(hits.mean(axis=1)))


def run_bias_experiment(
    world: SyntheticWorld,
    params: BiasedScorerParams,
    config_grid: list[SmoothingConfig],
    n_queries: int,
    seed: int,
) -> list[list[dict]]:
    """Compare smoothed vs single-pair decoding across configurations.

    Returns, for each config, one outcome row per query: ``query``, then
    ``baseline_tokens``, ``smoothed_tokens`` and ``truth`` as (L,) arrays
    and ``smoothed_probs``, the smoothed grid's read-only (L, |V|) probs.
    Rows hold outcomes, not metrics: ``metrics.eval_reports`` turns them
    into reports, the JS divergence from the truth among them.
    Queries are drawn from the world's query split with the given seed;
    everything downstream is deterministic, so rows are reproducible
    bit for bit.
    """
    if not config_grid:
        raise ConfigError("config grid is empty")
    if seed < 0:
        raise ConfigError(f"query seed must be >= 0, got {seed}")
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
    index = world.support_index()
    # each prompt is scored once, at the largest m, in one array pass: row j
    # of the joint pool holds the prompt of pair j + 1 of every query, the
    # queries side by side on the patch axis; every config smooths against
    # it, its entries from pairs 1..m being the config's candidates
    retrieved = [top_m(world.feature_vector(q), index, max_m).ids for q in queries]
    probs, feature_keys, patch_keys = _score_prompts(world, params, list(zip(*retrieved)), queries)
    joint = PromptPool(probs=probs, pair_indices=np.arange(1, max_m + 1), prompts=(),
                       mode=PoolMode.Q, m=max_m, feature_keys=feature_keys, patch_keys=patch_keys)
    # one smoothing call per pool and (scope, key, divergence) group of
    # configs, which share one distance matrix: the joint pool serves the
    # per-patch scope, as a patch sees only its own entries; in the
    # all-patch scope a query's patches must see only its own pool, so each
    # query gets its joint pool's cut on the patch axis
    outcomes = [[] for _ in config_grid]
    patches = world.patch_count
    groups = {}  # per scope, per (key, divergence): the positions of its configs
    for at, c in enumerate(config_grid):
        groups.setdefault(c.scope, {}).setdefault((c.key, c.divergence), []).append(at)
    for scope, members in groups.items():
        pools = [(queries, joint)]
        if scope is PoolScope.ALL_PATCH:
            cuts = [slice(i * patches, (i + 1) * patches) for i in range(n_queries)]
            pools = [([q], dataclasses.replace(joint, probs=probs[:, c], feature_keys=
                                               feature_keys[:, c], patch_keys=patch_keys[:, c]))
                     for q, c in zip(queries, cuts)]
        for ids, pool in pools:
            baseline = _baseline(pool)
            shape = (len(ids), patches)  # row q of each view is query q's
            baseline_tokens = decode_argmax(baseline).reshape(shape)
            for group in members.values():
                smoothed = _smooth_configs(baseline, pool, [config_grid[at] for at in group])
                for at, grid in zip(group, smoothed):
                    rows = zip(ids, baseline_tokens, decode_argmax(grid).reshape(shape),
                               grid.probs.reshape(shape + (-1,)))
                    outcomes[at] += [{"query": q, "baseline_tokens": b, "truth":
                                      world.items[q].output_tokens, "smoothed_tokens": t,
                                      "smoothed_probs": p} for q, b, t, p in rows]
    return outcomes


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
    if len(set(m_values)) != len(m_values):
        raise ConfigError(f"m_values repeat a width: {list(m_values)}")
    config_grid = [SmoothingConfig(m=m, k=k, alpha=alpha, tau=tau) for m in m_values]

    seeds = list(seeds)
    if not seeds:
        raise ConfigError("the seed list is empty")

    per_seed = []
    for seed in seeds:
        world = generate_world(seed, rows, cols, codebook_size, n_items, task_family)
        outcomes = run_bias_experiment(world, params, config_grid, n_queries, seed)
        row = {"seed": seed, "baseline": _mean_accuracy(outcomes[0], "baseline")}
        for m, outcome_rows in zip(m_values, outcomes):
            row[f"m={m}"] = _mean_accuracy(outcome_rows, "smoothed")
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
        "seeds": seeds,
        "n_queries": n_queries,
        "per_seed": per_seed,
        "mean_accuracy": means,
        "margin_vs_baseline": margins,
    }
