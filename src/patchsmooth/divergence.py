"""Codebook score distributions and the KL/JS divergence kernels.

Conventions (fixed for the whole library):
  * natural logarithm everywhere, so JS is bounded by ln 2;
  * 0 * log 0 = 0;
  * KL(a || b) = +inf when some a_i > 0 has b_i = 0 (never clamped --
    a softmax weight of exp(-inf) is defined as 0 downstream);
  * distributions are renormalized on construction, never inside kernels;
  * accumulation is float64 regardless of storage precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError

#: |sum(probs) - 1| tolerated when constructing a distribution directly.
SUM_TOLERANCE = 1e-6

#: Drift beyond which construction renormalizes. Below it values pass
#: through untouched, so reconstruction is bitwise stable and alpha = 0
#: smoothing is an exact identity; the residual keeps JS within its
#: ln 2 + 1e-12 bound.
RENORM_THRESHOLD = 1e-12

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class CodebookSpec:
    """The discrete token vocabulary a distribution ranges over."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValidationError(f"codebook size must be >= 2, got {self.size}")


def simplex_rows(values) -> np.ndarray:
    """Check that every row (last axis) of ``values`` is a distribution.

    Entries must be finite and nonnegative, and each row must sum to 1
    within ``SUM_TOLERANCE``; a row whose sum drifts beyond
    ``RENORM_THRESHOLD`` is divided by its sum. Returns a read-only
    float64 copy, so the caller's array is never frozen.
    """
    probs = np.array(values, dtype=np.float64)
    if probs.ndim < 1 or probs.shape[-1] < 2:
        raise ValidationError(f"expected rows of length >= 2, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValidationError("distribution contains non-finite entries")
    if np.any(probs < 0.0):
        raise ValidationError("distribution contains negative entries")
    totals = probs.sum(axis=-1, keepdims=True)
    drift = np.abs(totals - 1.0)
    if np.any(drift > SUM_TOLERANCE):
        total = float(totals[drift > SUM_TOLERANCE][0])
        raise ValidationError(f"probabilities sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
    renorm = drift[..., 0] > RENORM_THRESHOLD
    probs[renorm] /= totals[renorm]
    probs.flags.writeable = False
    return probs


def normalize_scores(values) -> np.ndarray:
    """Scale each row of raw nonnegative scores to unit mass. The result
    is not checked: the constructor it is passed to runs ``simplex_rows``."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValidationError("scores contain non-finite entries")
    if np.any(values < 0.0):
        raise ValidationError("scores contain negative entries")
    totals = values.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValidationError("scores have zero total mass")
    return values / totals


@dataclass(frozen=True)
class CodebookDistribution:
    """A probability vector over the codebook tokens.

    Entries are nonnegative and sum to 1; the stored array is float64 and
    write-protected so instances are safe to share across threads.
    """

    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.ndim(self.probs) != 1:
            raise ValidationError(
                f"expected a 1-d vector of length >= 2, got shape {np.shape(self.probs)}"
            )
        object.__setattr__(self, "probs", simplex_rows(self.probs))

    @classmethod
    def from_scores(cls, values) -> "CodebookDistribution":
        """Normalize raw nonnegative scores of any positive total mass."""
        return cls(normalize_scores(values))

    def __len__(self) -> int:
        return self.probs.size

    def argmax(self) -> int:
        """Index of the largest entry; ties resolve to the lowest token id."""
        return int(np.argmax(self.probs))


def _check_pair(a: CodebookDistribution, b: CodebookDistribution):
    if len(a) != len(b):
        raise DimensionError(f"distribution lengths differ: {len(a)} vs {len(b)}")


def kl_divergence(a: CodebookDistribution, b: CodebookDistribution) -> float:
    """KL(a || b) = sum a_i * ln(a_i / b_i), in nats.

    Returns +inf when b lacks support somewhere a has mass.
    """
    _check_pair(a, b)
    return _kl(a.probs, b.probs)


def js_divergence(a: CodebookDistribution, b: CodebookDistribution) -> float:
    """Symmetric Jensen-Shannon divergence, in nats; bounded by ln 2.

    JS(a, b) = (KL(a || z) + KL(b || z)) / 2 with z = (a + b) / 2.
    """
    _check_pair(a, b)
    return _js(a.probs, b.probs)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return float("inf")
    ps = p[support]
    # Log difference rather than log of the ratio: immune to ratio overflow
    # when q carries subnormal mass.
    value = float(np.sum(ps * (np.log(ps) - np.log(q[support]))))
    # Gibbs: true value is >= 0; rounding may leave a tiny negative residue.
    return max(value, 0.0)


def _js(p: np.ndarray, q: np.ndarray) -> float:
    z = (p + q) / 2.0
    total = _kl_against_midpoint(p, z) + _kl_against_midpoint(q, z)
    return max(0.5 * total, 0.0)


def _kl_against_midpoint(p: np.ndarray, z: np.ndarray) -> float:
    # Mathematically z_i >= p_i / 2, so z_i = 0 implies p_i = 0 -- except
    # when (p_i + q_i) / 2 underflows for subnormal p_i. That term's true
    # value is at most p_i * ln 2 ~ 1e-324, so dropping it is exact in
    # float64 and keeps JS finite, as it must be.
    support = (p > 0.0) & (z > 0.0)
    ps = p[support]
    return float(np.sum(ps * (np.log(ps) - np.log(z[support]))))


def pairwise_divergence(query: np.ndarray, pool: np.ndarray, kind: str = "js") -> np.ndarray:
    """Divergence of each row of the (N, V) ``pool`` against the (V,) ``query``.

    ``kind="kl"`` computes KL(pool_i || query); ``kind="js"`` the symmetric JS.
    Both operands are taken to be distributions already (see
    ``simplex_rows``). An empty pool yields an empty vector. Results agree
    exactly with the corresponding scalar calls.
    """
    if kind not in ("js", "kl"):
        raise ValidationError(f"unknown divergence kind {kind!r}")
    query = np.asarray(query, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    if query.ndim != 1 or pool.ndim != 2 or pool.shape[1] != query.size:
        raise DimensionError(
            f"expected a (V,) query and an (N, V) pool, got {query.shape} and {pool.shape}"
        )
    fn = _js if kind == "js" else _kl
    return np.array([fn(row, query) for row in pool], dtype=np.float64)
