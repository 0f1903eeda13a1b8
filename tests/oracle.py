"""Brute-force reference for retrieval and for grid and feature smoothing.

Deliberately shares no kernels with the library: pure-Python math,
explicit sorts, literal formulas. From ``patchsmooth`` it takes only the
input containers (``ScoreGrid``, ``PromptPool``, ``SmoothingConfig``),
the smoothing enums and the error types, and it returns plain arrays
built from Python floats, so no library code touches its output.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from patchsmooth.errors import ValidationError
from patchsmooth.pool import PromptPool, ScoreGrid
from patchsmooth.smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothingConfig,
)

#: The smoothed (L, |V|) ``probs`` and, as (L, k) arrays nearest first,
#: the ``pair`` index, ``patch`` index, ``distance`` and ``weight`` of the
#: neighbors blended into each patch.
Smoothed = namedtuple("Smoothed", ["probs", "pair", "patch", "distance", "weight"])


def kl(p, q) -> float:
    """KL(p || q) in nats; +inf where q lacks support for p's mass."""
    total = 0.0
    for a, b in zip(p, q):
        if a > 0.0:
            if b == 0.0:
                return math.inf
            # a / b overflows when b is subnormal; the log difference cannot
            total += a * (math.log(a) - math.log(b))
    return max(total, 0.0)


def js(p, q) -> float:
    """Jensen-Shannon divergence of p and q in nats."""
    z = [(a + b) / 2.0 for a, b in zip(p, q)]
    total = 0.0
    for side in (p, q):
        for a, mid in zip(side, z):
            # mid > 0 whenever a > 0 except for subnormal underflow, whose
            # true contribution rounds to zero anyway
            if a > 0.0 and mid > 0.0:
                total += a * math.log(a / mid)
    return max(0.5 * total, 0.0)


def l2(u, v) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def _distance(pool: PromptPool, j: int, l: int, query_probs, query_feature, query_patch,
              config: SmoothingConfig) -> float:
    if config.key is NeighborKey.SCORE:
        pool_probs = pool.probs[j, l].tolist()
        if config.divergence is DivergenceKind.KL:
            return kl(pool_probs, query_probs)
        return js(pool_probs, query_probs)
    if config.key is NeighborKey.FEATURE:
        return l2(pool.feature_keys[j, l].tolist(), query_feature)
    return l2(pool.patch_keys[j, l].tolist(), query_patch)


def _weights(distances, config: SmoothingConfig) -> list:
    """Weights of the chosen neighbors, nearest first; under every
    aggregation an infinite distance gets weight 0."""
    finite = [math.isfinite(d) for d in distances]
    if not any(finite):
        raise ValidationError("weights need at least one finite distance")
    if config.aggregation is Aggregation.NEAREST:
        return [1.0] + [0.0] * (len(distances) - 1)
    if config.aggregation is Aggregation.AVERAGE:
        return [1.0 / sum(finite) if f else 0.0 for f in finite]
    lowest = min(d for d, f in zip(distances, finite) if f)
    raw = [math.exp(-(d - lowest) / config.tau) if f else 0.0 for d, f in zip(distances, finite)]
    total = sum(raw)
    return [r / total for r in raw]


def brute_force_smooth(query_grid: ScoreGrid, pool: PromptPool,
                       config: SmoothingConfig) -> Smoothed:
    """Independent reference implementation of grid smoothing."""
    if len(query_grid) != pool.patch_count:
        raise ValidationError("query grid and pool disagree in patch count")

    if config.scope is PoolScope.ALL_PATCH:
        every_slot = [(j, l) for l in range(pool.patch_count) for j in range(pool.width)]
        candidate_sets = [every_slot] * pool.patch_count
    else:
        candidate_sets = [[(j, l) for j in range(pool.width)] for l in range(pool.patch_count)]

    smoothed, selected = [], []
    for l in range(pool.patch_count):
        s = query_grid.probs[l].tolist()
        qf = None if query_grid.feature_keys is None else query_grid.feature_keys[l].tolist()
        qp = None if query_grid.patch_keys is None else query_grid.patch_keys[l].tolist()
        scored = [
            (_distance(pool, j, lc, s, qf, qp, config), int(pool.pair_indices[j]), lc, j)
            for j, lc in candidate_sets[l]
        ]
        scored.sort(key=lambda t: (t[0], t[1], t[2]))
        chosen = scored[: min(config.k, len(scored))]
        distances, pairs, patches, _ = zip(*chosen)
        weights = _weights(distances, config)

        size = len(s)
        out = [0.0] * size
        for v in range(size):
            pooled = 0.0
            for w, (_, _, lc, j) in zip(weights, chosen):
                pooled += w * float(pool.probs[j, lc, v])
            out[v] = (1.0 - config.alpha) * s[v] + config.alpha * pooled
        # back onto the simplex, as the library's grids are: a row whose
        # sum drifts from 1 by more than 1e-12 is divided by it
        drift = sum(out)
        if abs(drift - 1.0) > 1e-12:
            out = [x / drift for x in out]
        smoothed.append(out)
        selected.append((pairs, patches, distances, weights))
    pair, patch, distance, weight = (np.array(part) for part in zip(*selected))
    return Smoothed(np.array(smoothed), pair, patch, distance, weight)


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
            ((l2(vec, q), j, vec) for j, vec in enumerate(candidates)),
            key=lambda t: (t[0], t[1]),
        )
        chosen = scored[: min(config.k, len(scored))]
        weights = _weights([d for d, _, _ in chosen], config)
        blended = []
        for dim in range(len(q)):
            pooled = sum(w * vec[dim] for w, (_, _, vec) in zip(weights, chosen))
            blended.append((1.0 - config.alpha) * q[dim] + config.alpha * pooled)
        out.append(blended)
    return np.array(out)


def brute_force_top_m(query, entries, m):
    """Full-sort reference for retrieval: the (id, score) pairs of the m
    ``entries`` (the vectors an index was built from) with the largest
    ``np.dot(e.values, query.values)``, ties by position."""
    scored = [(float(np.dot(e.values, query.values)), i) for i, e in enumerate(entries)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(entries[i].identifier, score) for score, i in scored[:m]]
