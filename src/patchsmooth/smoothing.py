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
patch to its N candidates, one row-wise sort by (distance, pair index,
patch index), per-patch weights, and a blend over the k neighbor ranks.
Candidate n is row n of the flat (W * L, |V|) pool, entry (n // L, n % L),
and its rank pair index * L + patch index breaks ties in that order.
What was selected comes back as four (L, k) arrays on ``SmoothedGrid``:
``pair``, ``patch``, ``distance`` and ``weight``.

The scope decides only which (patch, candidate) pairs exist: (l, j * L + l)
per patch, every (l, n) over all patches. One call of the distance kernel
over those pairs fills the dense matrix. For JS over score keys in the
all-patch scope, ``divergence.screened_js`` first ranks every pair in one
float32 pass with a proven per-pair error bound; only those whose band
reaches the k-th smallest upper bound (k to 2k per patch on typical
scores) get their exact distance, the others +inf, which sorts last. If
one escapes its band, or no band is proven, the dense matrix is filled
instead: selection and blend are bit-identical either way.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .divergence import _block_rows, negentropy, pairwise_divergence, screened_js, simplex_rows
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
            value = np.empty((len(self), 0), dtype) if given is None else np.array(given, dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

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
    if d.size == 0 or not finite.any(axis=-1).all():
        raise ValidationError("softmax weights need at least one finite distance")
    lowest = np.where(finite, d, np.inf).min(axis=-1, keepdims=True)
    w = np.where(finite, np.exp(-(d - lowest) / tau), 0.0)
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


def _select_and_blend(rows, distances, values, index, rank, config: SmoothingConfig):
    """Blend every row of ``rows`` (R, D) with its k nearest candidates.

    ``distances`` is (R, N), and ``index`` and ``rank`` broadcast to it:
    candidate n of row r is ``values[index[r, n]]``, one of the (M, D)
    ``values``, and lies ``distances[r, n]`` away. Neighbors are the
    first k by (distance, rank). Returns the (R, D) blend and the (R, k)
    ``index``, ``distance`` and ``weight`` of the chosen neighbors,
    nearest first.
    """
    k = min(config.k, distances.shape[1])
    index, rank = (np.broadcast_to(a, distances.shape) for a in (index, rank))
    # distance, then rank; infinities sort last
    order = np.lexsort((rank, distances), axis=-1)[:, :k]
    index = np.take_along_axis(index, order, axis=-1)
    distance = np.take_along_axis(distances, order, axis=-1)
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
    compares, and their distance over pair lists (``pairwise_divergence``'s
    form)."""
    if config.key is NeighborKey.SCORE:
        return grid.probs, pool.probs, functools.partial(
            pairwise_divergence, kind=config.divergence.value)
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
    return query_keys, pool_keys, _l2_distances


def smooth_grid(query_grid: ScoreGrid, pool: PromptPool, config: SmoothingConfig) -> SmoothedGrid:
    """Select every patch's neighbors and blend them in, all patches at once."""
    if len(query_grid) != pool.patch_count:
        raise DimensionError(
            f"query grid has {len(query_grid)} patches, pool has {pool.patch_count}"
        )
    if query_grid.codebook_size != pool.codebook_size:
        raise DimensionError(
            f"codebook size mismatch: grid {query_grid.codebook_size}, pool {pool.codebook_size}"
        )
    query, candidates, distance = _selection_keys(query_grid, pool, config)
    probs, pair_indices = pool.probs, pool.pair_indices
    if config.m < pool.m:  # only the entries of the top-m pairs are candidates
        kept = np.flatnonzero(pair_indices <= config.m)
        if not len(kept):
            raise ConfigError(f"no pool entry is from the top m={config.m} pairs: "
                              f"pair indices {pair_indices.tolist()}")
        candidates, probs, pair_indices = candidates[kept], probs[kept], pair_indices[kept]
    width, patches = len(probs), pool.patch_count
    flat = candidates.reshape(width * patches, -1)  # row n is pool entry (n // L, n % L)
    distances = None
    if config.scope is PoolScope.PER_PATCH:  # candidate j of patch l is pool entry (j, l)
        index = np.arange(width) * patches + np.arange(patches)[:, None]
    else:
        index = np.arange(width * patches)[None]
        if config.key is NeighborKey.SCORE and config.divergence is DivergenceKind.JS:
            # +inf where the float32 screen rules a candidate out; None if its proof failed
            distances = screened_js(query, flat, config.k, query_negentropy=negentropy(query),
                                    pool_negentropy=negentropy(flat))
    if distances is None:  # the dense matrix, one call; all-patch grows as W * L**2
        distances = distance(query, flat, np.arange(patches)[:, None], index)
    # ties break by (pair index, patch index): patch < L, so one integer orders them
    rank = pair_indices[index // patches] * patches + index % patches
    blended, chosen, chosen_distance, weight = _select_and_blend(
        query_grid.probs, distances, probs.reshape(width * patches, -1), index, rank, config
    )
    # The blend is convex: SmoothedGrid's simplex check divides out any drift.
    blended.flags.writeable = False  # frozen and owned: the grid keeps it uncopied
    return SmoothedGrid(probs=blended, pair=pair_indices[chosen // patches],
                        patch=chosen % patches, distance=chosen_distance, weight=weight)


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
            index = np.arange(len(vectors))[None]
            out[l] = _select_and_blend(query[l:l + 1], _l2_distances(query, vectors, l, index),
                                       vectors, index, index, config)[0][0]
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
