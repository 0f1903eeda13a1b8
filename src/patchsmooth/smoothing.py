"""Score smoothing: divergence-weighted k-NN blending of pooled distributions.

For every masked patch the query's own distribution s is blended with its
k nearest pool entries among those from the top-m retrieved pairs:

    s_hat = (1 - alpha) * s + alpha * sum_i w_i * u_i

where the u_i are the k pool entries closest to s (JS or KL divergence for
score keys, l2 for feature/patch keys) and w is a temperature softmax over
negated distances. alpha = 0 disables smoothing; tau -> inf approaches a
plain average. The same algebra applies to unconstrained feature vectors
(pixel-space model adaptation) and to output grids from multiple
autoregressive sequences.

The whole grid is one operation: an (L, N) distance matrix from every
patch to its N candidates, one row-wise stable sort by distance,
per-patch weights, and a blend over the k neighbor ranks. Pool entry
(j, l) is row j * L + l of the flat (W * L, |V|) pool, and the candidate
columns come in tie-break order, by pair index and then patch index, so
the sort breaks ties in that order. What was selected comes back as four
(L, k) arrays on ``SmoothedGrid``: ``pair``, ``patch``, ``distance`` and
``weight``.

The scope decides only which (patch, candidate) pairs exist: (l, j * L + l)
per patch, every (l, n) over all patches. One call of the distance kernel
over those pairs fills the dense matrix. For JS over score keys in the
all-patch scope, ``divergence.screened_js`` fills it instead: one float32
pass ranks every pair with a proven error bound, and only the pairs whose
band reaches the k-th smallest upper bound (k to 2k per patch on typical
scores) get their exact distance, the others +inf, which sorts last. An
unproven or disproved bound makes every distance exact: selection and
blend are bit-identical either way.

Several configs that share scope, key and divergence smooth one grid
against one pool in one call (``_smooth_configs``; ``smooth_grid`` is
its one-config case); a caller with other configs groups them. The
dense matrix is filled once, over the entries the widest config keeps,
in pair order, so the entries of every config are a prefix of them and
it selects and blends from a prefix view of the columns: each grid is
the one-config call's, bit for bit, as every distance is the same
whatever else its call holds. The JS screen runs once per config, since
its survivors depend on k and on the candidates, each reading a prefix
of candidate rows gathered once per call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .divergence import _block_rows, frozen, pairwise_divergence, screened_js, simplex_rows
from .errors import ConfigError, DimensionError, ValidationError
from .pool import PromptPool, ScoreGrid


class DivergenceKind(enum.Enum):
    JS = "js"
    KL = "kl"


class NeighborKey(enum.Enum):
    SCORE = "score"      # distributions compared by divergence
    FEATURE = "feature"  # intermediate features compared by l2
    PATCH = "patch"      # decoded patch values compared by l2


class Aggregation(enum.Enum):
    WEIGHTED = "weighted"
    AVERAGE = "average"
    NEAREST = "nearest"


class PoolScope(enum.Enum):
    PER_PATCH = "patch"
    ALL_PATCH = "all"


@dataclass(frozen=True)
class SmoothingConfig:
    """Hyperparameters of one smoothing run.

    ``m`` picks the candidates: ``smooth_grid`` blends only the pool
    entries whose pair index is at most m, those of the top-m retrieved
    pairs, so one pool built at the largest m serves every smaller m.
    ``k`` defaults to min(5, m). ``alpha`` weighs the pooled signal
    (1.0 suits segmentation/colorization style tasks, 0.7 detection);
    ``tau`` is the softmax temperature (1.0 default), positive and finite:
    as tau -> inf the weights approach ``Aggregation.AVERAGE``.

    The other fields are a config's ``smoothing`` section: an enum field
    takes a member or its value, and ``SmoothingConfig(**c.echo()) == c``.
    """

    m: int
    k: int | None = None
    alpha: float = 1.0
    tau: float = 1.0
    divergence: DivergenceKind = DivergenceKind.JS
    key: NeighborKey = NeighborKey.SCORE
    aggregation: Aggregation = Aggregation.WEIGHTED
    scope: PoolScope = PoolScope.PER_PATCH

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.k is None:
            object.__setattr__(self, "k", min(5, self.m))
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "tau", float(self.tau))
        try:  # a config section names each member by its value
            for name, kind in (("divergence", DivergenceKind), ("key", NeighborKey),
                               ("aggregation", Aggregation), ("scope", PoolScope)):
                object.__setattr__(self, name, kind(getattr(self, name)))
        except ValueError as exc:
            raise ConfigError(f"invalid smoothing section: {exc}") from exc

    @classmethod
    def feature_defaults(cls, m: int = 2, **overrides) -> "SmoothingConfig":
        """Defaults for smoothing intermediate features of pixel-space models."""
        params = dict(m=m, tau=25.0, alpha=0.5, key=NeighborKey.FEATURE)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def sequence_defaults(cls, n_sequences: int = 2, **overrides) -> "SmoothingConfig":
        """Defaults for aggregating output grids of multiple prompt sequences."""
        params = dict(m=n_sequences, tau=1.0, alpha=0.8)
        params.update(overrides)
        return cls(**params)

    def echo(self) -> dict:
        """Every field as JSON, the enums by their values."""
        return {name: value.value if isinstance(value, enum.Enum) else value
                for name, value in vars(self).items()}


@dataclass(frozen=True)
class SmoothedGrid:
    """Smoothed per-patch distributions plus the selection that made them.

    ``probs`` is (L, |V|). ``pair``, ``patch``, ``distance`` and ``weight``
    are (L, k) arrays: entry [l, i] describes the i-th nearest neighbor
    blended into patch l -- its pair index, its patch index, its distance
    to patch l and its weight. They are (L, 0) when no selection ran.
    """

    probs: np.ndarray = field(repr=False)
    pair: np.ndarray | None = field(default=None, repr=False)
    patch: np.ndarray | None = field(default=None, repr=False)
    distance: np.ndarray | None = field(default=None, repr=False)
    weight: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.ndim(self.probs) != 2:
            raise DimensionError(f"smoothed grid must be (L, |V|), got shape {np.shape(self.probs)}")
        object.__setattr__(self, "probs", simplex_rows(self.probs))
        for name, dtype in (("pair", np.int64), ("patch", np.int64),
                            ("distance", np.float64), ("weight", np.float64)):
            given = getattr(self, name)
            value = np.empty((len(self), 0), dtype) if given is None else np.asarray(given, dtype)
            object.__setattr__(self, name, frozen(value, given))

    def __len__(self) -> int:
        return len(self.probs)


def softmax_weights(distances, tau: float) -> np.ndarray:
    """Temperature softmax over negated distances along axis 0, shifted
    for stability.

    Axis 0 is the neighbor rank, as in a 1-D call: a (k, L) input holds the
    k distances of patch l in column l, and each column is its own softmax,
    equal bit for bit to the 1-D call on that column. Infinite distances
    receive weight 0; each softmax normalizes over its finite ones only and
    must have at least one.
    """
    if tau <= 0.0:
        raise ConfigError(f"tau must be positive, got {tau}")
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim not in (1, 2):
        raise DimensionError(f"distances must be (k,) or (k, L), got shape {d.shape}")
    # one contiguous row per softmax, so every sum runs as in the 1-D call
    d = np.ascontiguousarray(d.T)
    finite = np.isfinite(d)
    if d.size == 0 or not finite.all():
        if d.size == 0 or not finite.any(axis=-1).all():
            raise ValidationError("softmax weights need at least one finite distance")
        d = np.where(finite, d, np.inf)  # exp(-inf) is an exact 0
    w = np.exp(-(d - d.min(axis=-1, keepdims=True)) / tau)
    return (w / w.sum(axis=-1, keepdims=True)).T


def _aggregation_weights(distances: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    """(L, k) weights for the (L, k) distances of the chosen neighbors,
    nearest first. Under every aggregation an infinite distance gets
    weight 0, so each row needs at least one finite distance."""
    if config.aggregation is Aggregation.WEIGHTED:
        return softmax_weights(distances.T, config.tau).T
    finite = np.isfinite(distances)
    if not finite.any(axis=-1).all():
        raise ValidationError(f"{config.aggregation.value} weights need at least one finite distance")
    if config.aggregation is Aggregation.AVERAGE:
        return finite / finite.sum(axis=-1, keepdims=True)
    weights = np.zeros(distances.shape)
    weights[..., 0] = 1.0
    return weights


def _l2_distances(query, candidates, rows, cols) -> np.ndarray:
    """l2 distance of candidate row ``cols[i]`` to query row ``rows[i]``
    over pairs and blocks as ``pairwise_divergence`` takes them. Each is the
    square root of a BLAS dot, as ``np.linalg.norm`` of the difference."""
    rows, cols = np.broadcast_arrays(rows, cols)
    out = np.empty(rows.shape)
    rows, cols, flat = rows.ravel(), cols.ravel(), out.reshape(-1)
    step = _block_rows(query.shape[1])
    for start in range(0, len(flat), step):
        diff = candidates[cols[start:start + step]] - query[rows[start:start + step]]
        flat[start:start + len(diff)] = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return out


def _select_and_blend(rows, distances, values, index, config: SmoothingConfig):
    """Blend every row of ``rows`` (R, D) with its k nearest candidates.

    ``distances`` is (R, N), and ``index`` is (N,), shared by every row,
    or (R, N): candidate n of row r is ``values[index[r, n]]``, one of the
    (M, D) ``values``, and lies ``distances[r, n]`` away. Candidates come
    in tie-break order, so neighbors are the first k by distance in a
    stable sort. Returns the (R, D) blend and the (R, k) ``index``,
    ``distance`` and ``weight`` of the chosen neighbors, nearest first.
    """
    k = min(config.k, distances.shape[1])
    # distance, then candidate order; infinities sort last
    order = np.argsort(distances, axis=-1, kind="stable")[:, :k]
    row = np.arange(len(distances))[:, None]
    index = index[order] if index.ndim == 1 else index[row, order]
    distance = distances[row, order]
    weight = _aggregation_weights(distance, config)
    # one neighbor at a time, nearest first: each row sums in that order,
    # and the temporaries stay (R, D)
    pooled = np.zeros(rows.shape)
    for i in range(k):
        pooled += weight[:, i, None] * values[index[:, i]]
    blended = (1.0 - config.alpha) * rows + config.alpha * pooled
    return blended, index, distance, weight


def _selection_keys(grid: ScoreGrid, pool: PromptPool, config: SmoothingConfig):
    """The (L, d) query rows and (W, L, d) pool rows that ``config.key``
    compares, and the ``pairwise_divergence`` kind that compares them, or
    None for l2 (``_l2_distances``)."""
    if config.key is NeighborKey.SCORE:
        return grid.probs, pool.probs, config.divergence.value
    name = "feature_keys" if config.key is NeighborKey.FEATURE else "patch_keys"
    query_keys, pool_keys = getattr(grid, name), getattr(pool, name)
    if query_keys is None:
        raise ConfigError(f"query grid carries no {config.key.value} keys")
    if pool_keys is None:
        raise ConfigError(f"pool carries no {name} but config selects by it")
    if pool_keys.shape[2] != query_keys.shape[1]:
        raise DimensionError(
            f"pool {name} have length {pool_keys.shape[2]}, query keys {query_keys.shape[1]}"
        )
    return query_keys, pool_keys, None


def smooth_grid(query_grid: ScoreGrid, pool: PromptPool, config: SmoothingConfig) -> SmoothedGrid:
    """Select every patch's neighbors and blend them in, all patches at
    once: the one-config case of ``_smooth_configs``."""
    return _smooth_configs(query_grid, pool, [config])[0]


def _smooth_configs(query_grid: ScoreGrid, pool: PromptPool, configs) -> list[SmoothedGrid]:
    """``smooth_grid`` of each of ``configs``, which all share scope, key
    and divergence: one distance matrix over the entries the widest keeps
    (those from pairs 1..m), in tie-break order. Each config's entries
    are a prefix of them, so it takes a prefix view of the columns."""
    if len(query_grid) != pool.patch_count:
        raise DimensionError(
            f"query grid has {len(query_grid)} patches, pool has {pool.patch_count}"
        )
    if query_grid.codebook_size != pool.codebook_size:
        raise DimensionError(
            f"codebook size mismatch: grid {query_grid.codebook_size}, pool {pool.codebook_size}"
        )
    first = configs[0]  # its scope, key and divergence are every config's
    query, candidates, kind = _selection_keys(query_grid, pool, first)
    pair_indices, patches = pool.pair_indices, pool.patch_count
    kept = [int((pair_indices <= config.m).sum()) for config in configs]
    for config, count in zip(configs, kept):
        if not count:
            raise ConfigError(f"no pool entry is from the top m={config.m} pairs: "
                              f"pair indices {pair_indices.tolist()}")
    values = pool.probs.reshape(-1, pool.codebook_size)  # row n is pool entry (n // L, n % L)
    flat, patch = candidates.reshape(len(values), -1), np.arange(patches)
    # pairs 1..m come first in pair order: every config keeps a prefix
    entries = np.argsort(pair_indices, kind="stable")[:max(kept)]
    if first.scope is PoolScope.PER_PATCH:  # candidate j of patch l is pool entry (entries[j], l)
        index = entries * patches + patch[:, None]
    else:  # candidate j * L + l is pool entry (entries[j], l)
        index, kept = (entries[:, None] * patches + patch).ravel(), [n * patches for n in kept]
    screened = (first.scope, first.key, first.divergence) == (
        PoolScope.ALL_PATCH, NeighborKey.SCORE, DivergenceKind.JS)
    if screened:  # candidate rows in column order, not copied when already so
        rows = flat if (entries == np.arange(len(entries))).all() else flat[index]
    else:  # the dense matrix, one call; all-patch grows as W * L**2
        dense = (_l2_distances(query, flat, patch[:, None], index) if kind is None
                 else pairwise_divergence(query, flat, patch[:, None], index, kind))
    smoothed = []
    for config, n in zip(configs, kept):
        # +inf where the screen rules a pair out
        distances = screened_js(query, rows[:n], config.k) if screened else dense[:, :n]
        blended, chosen, distance, weight = _select_and_blend(
            query_grid.probs, distances, values, index[..., :n], config)
        selection = pair_indices[chosen // patches], chosen % patches, distance, weight
        # frozen and owned, or views of such: the grid keeps them uncopied
        for array in (blended, *selection):
            (array if array.base is None else array.base).flags.writeable = False
            array.flags.writeable = False
        # The blend is convex: SmoothedGrid's simplex check divides out any drift.
        smoothed.append(SmoothedGrid(blended, *selection))
    return smoothed


def smooth_features(query_features, pools, config: SmoothingConfig) -> np.ndarray:
    """The same blending over unconstrained vectors with l2 distances.

    ``query_features`` is (L, dim); ``pools[l]`` the candidate vectors for
    patch l, any number of them. Each patch runs the selection kernel on
    its own (1, N_l) distance row; a patch without candidates is returned
    unchanged. No simplex postcondition applies.
    """
    query = np.asarray(query_features, dtype=np.float64)
    if query.ndim != 2:
        raise DimensionError(f"query features must be (L, dim), got shape {query.shape}")
    if len(pools) != query.shape[0]:
        raise DimensionError(f"{len(pools)} pools for {query.shape[0]} patches")
    out = query.copy()
    for l, pool in enumerate(pools):
        vectors = np.asarray(pool, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != query.shape[1]:
            raise DimensionError(
                f"pool at patch {l} has shape {vectors.shape}, expected (*, {query.shape[1]})"
            )
        if len(vectors):
            index = np.arange(len(vectors))
            out[l] = _select_and_blend(query[l:l + 1], _l2_distances(query, vectors, l, index[None]),
                                       vectors, index, config)[0][0]
    return out


def aggregate_sequences(grids: Sequence[ScoreGrid], config: SmoothingConfig) -> SmoothedGrid:
    """Fuse output grids from several prompt sequences into one.

    Grid 0 plays the query role; grids 1..n form a per-patch pool of
    width n. With exactly two grids this reduces to a single weighted
    sum controlled by alpha.
    """
    if not grids:
        raise ValidationError("need at least one grid to aggregate")
    first = grids[0]
    for g in grids[1:]:
        if len(g) != len(first) or g.codebook_size != first.codebook_size:
            raise DimensionError("sequence grids disagree in patch count or codebook size")
    if len(grids) == 1:
        return SmoothedGrid(probs=first.probs)
    pool = PromptPool(
        probs=np.stack([g.probs for g in grids[1:]]),
        pair_indices=np.arange(1, len(grids)),
        prompts=(),
        mode=None,
        m=len(grids) - 1,
    )
    # every grid is pooled, however small config.m; k stays as resolved
    return smooth_grid(first, pool, replace(config, m=max(config.m, len(grids) - 1)))
