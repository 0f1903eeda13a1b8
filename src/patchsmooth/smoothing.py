"""Score smoothing: divergence-weighted k-NN blending of pooled distributions.

For every masked patch the query's own distribution s is blended with its
k nearest pool entries:

    s_hat = (1 - alpha) * s + alpha * sum_i w_i * u_i

where the u_i are the k pool entries closest to s (JS or KL divergence for
score keys, l2 for feature/patch keys) and w is a temperature softmax over
negated distances. alpha = 0 disables smoothing; tau -> inf approaches a
plain average. The same algebra applies to unconstrained feature vectors
(pixel-space model adaptation) and to output grids from multiple
autoregressive sequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergence import pairwise_divergence, simplex_rows
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

    ``k`` defaults to min(5, m). ``alpha`` weighs the pooled signal
    (1.0 suits segmentation/colorization style tasks, 0.7 detection);
    ``tau`` is the softmax temperature (1.0 default).
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
        if not self.tau > 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")

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
        return {
            "m": self.m,
            "k": self.k,
            "alpha": self.alpha,
            "tau": self.tau,
            "divergence": self.divergence.value,
            "key": self.key.value,
            "aggregation": self.aggregation.value,
            "scope": self.scope.value,
        }


@dataclass(frozen=True)
class SmoothedGrid:
    """Smoothed per-patch distributions plus selection diagnostics.

    ``probs`` is (L, |V|). ``diagnostics[l]`` lists (pair index, patch
    index, distance, weight) for every neighbor that contributed at patch l.
    """

    probs: np.ndarray = field(repr=False)
    diagnostics: tuple[tuple[tuple[int, int, float, float], ...], ...] = ()

    def __post_init__(self):
        if np.ndim(self.probs) != 2:
            raise DimensionError(f"smoothed grid must be (L, |V|), got shape {np.shape(self.probs)}")
        object.__setattr__(self, "probs", simplex_rows(self.probs))

    def __len__(self) -> int:
        return len(self.probs)


def softmax_weights(distances, tau: float) -> np.ndarray:
    """Temperature softmax over negated distances, shifted for stability.

    Infinite distances receive weight 0; normalization runs over the
    finite ones only.
    """
    if tau <= 0.0:
        raise ConfigError(f"tau must be positive, got {tau}")
    d = np.asarray(distances, dtype=np.float64)
    finite = np.isfinite(d)
    if d.size == 0 or not finite.any():
        raise ValidationError("softmax weights need at least one finite distance")
    w = np.zeros_like(d)
    w[finite] = np.exp(-(d[finite] - d[finite].min()) / tau)
    return w / w.sum()


def _aggregation_weights(distances: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    if config.aggregation is Aggregation.WEIGHTED:
        return softmax_weights(distances, config.tau)
    if config.aggregation is Aggregation.AVERAGE:
        return np.full(len(distances), 1.0 / len(distances))
    weights = np.zeros(len(distances))
    weights[0] = 1.0
    return weights


def _select_and_blend(rows, keys, candidates, config: SmoothingConfig):
    """Blend every row of ``rows`` (L, D) with its k nearest candidates.

    ``candidates[l]`` is (values (N, D), keys (N, d) or None, pair (N,),
    patch (N,)) for row l. With ``keys`` None, distances are the config's
    divergence between candidate values and the row; otherwise they are l2
    distances between candidate keys and ``keys[l]``. Neighbors are the
    first k by (distance, pair index, patch index); a row without
    candidates is returned unchanged. Returns the (L, D) blend and, per
    row, the (pair, patch, distance, weight) of every chosen neighbor.
    """
    out = np.empty_like(rows)
    diagnostics = []
    for l, s in enumerate(rows):
        values, cand_keys, pair, patch = candidates[l]
        if len(values) == 0:
            out[l] = s
            diagnostics.append(())
            continue
        if keys is None:
            distances = pairwise_divergence(s, values, kind=config.divergence.value)
        else:
            distances = np.array([np.linalg.norm(key - keys[l]) for key in cand_keys])
        # distance, then pair index, then patch index; infinities sort last
        chosen = np.lexsort((patch, pair, distances))[: config.k]
        weights = _aggregation_weights(distances[chosen], config)
        if config.aggregation is Aggregation.NEAREST:
            pooled = values[chosen[0]] * weights[0]
        else:
            pooled = np.zeros_like(s)
            for w, j in zip(weights, chosen):
                pooled += w * values[j]
        out[l] = (1.0 - config.alpha) * s + config.alpha * pooled
        diagnostics.append(tuple(
            (int(pair[j]), int(patch[j]), float(distances[j]), float(w))
            for j, w in zip(chosen, weights)
        ))
    return out, tuple(diagnostics)


def _selection_keys(grid: ScoreGrid, pool: PromptPool, config: SmoothingConfig):
    """The (L, d) query keys and (W, L, d) pool keys, or None for score keys."""
    if config.key is NeighborKey.SCORE:
        return None, None
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
    return query_keys, pool_keys


def smooth_grid(query_grid: ScoreGrid, pool: PromptPool, config: SmoothingConfig) -> SmoothedGrid:
    """Apply neighbor selection and blending independently at every patch."""
    if len(query_grid) != pool.patch_count:
        raise DimensionError(
            f"query grid has {len(query_grid)} patches, pool has {pool.patch_count}"
        )
    if query_grid.codebook_size != pool.codebook_size:
        raise DimensionError(
            f"codebook size mismatch: grid {query_grid.codebook_size}, pool {pool.codebook_size}"
        )
    query_keys, pool_keys = _selection_keys(query_grid, pool, config)
    width, patches = pool.width, pool.patch_count
    if config.scope is PoolScope.ALL_PATCH:
        merged = (
            pool.probs.reshape(width * patches, -1),
            None if pool_keys is None else pool_keys.reshape(width * patches, -1),
            np.repeat(pool.pair_indices, patches),
            np.tile(np.arange(patches), width),
        )
        candidates = [merged] * patches
    else:
        candidates = [
            (pool.probs[:, l], None if pool_keys is None else pool_keys[:, l],
             pool.pair_indices, np.full(width, l))
            for l in range(patches)
        ]
    blended, diagnostics = _select_and_blend(query_grid.probs, query_keys, candidates, config)
    # The blend is convex, so it lies on the simplex up to float drift.
    totals = blended.sum(axis=1, keepdims=True)
    drifted = np.abs(totals[:, 0] - 1.0) > 1e-9
    blended[drifted] /= totals[drifted]
    return SmoothedGrid(probs=blended, diagnostics=diagnostics)


def smooth_features(query_features, pools, config: SmoothingConfig) -> np.ndarray:
    """The same blending over unconstrained vectors with l2 distances.

    ``query_features`` is (L, dim); ``pools[l]`` the candidate vectors for
    patch l. No simplex postcondition applies.
    """
    query = np.asarray(query_features, dtype=np.float64)
    if query.ndim != 2:
        raise DimensionError(f"query features must be (L, dim), got shape {query.shape}")
    if len(pools) != query.shape[0]:
        raise DimensionError(f"{len(pools)} pools for {query.shape[0]} patches")
    candidates = []
    for l, pool in enumerate(pools):
        vectors = np.asarray(pool, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != query.shape[1]:
            raise DimensionError(
                f"pool at patch {l} has shape {vectors.shape}, expected (*, {query.shape[1]})"
            )
        candidates.append((vectors, vectors, np.arange(len(vectors)), np.zeros(len(vectors))))
    return _select_and_blend(query, query, candidates, config)[0]


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
        return SmoothedGrid(probs=first.probs, diagnostics=())
    pool = PromptPool(
        probs=np.stack([g.probs for g in grids[1:]]),
        pair_indices=np.arange(1, len(grids)),
        prompts=(),
        mode=None,
        m=len(grids) - 1,
    )
    return smooth_grid(first, pool, config)
