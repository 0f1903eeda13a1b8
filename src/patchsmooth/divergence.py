"""Codebook score distributions and the KL/JS divergence kernels.

Conventions (fixed for the whole library):
  * natural logarithm everywhere, so JS is bounded by ln 2;
  * 0 * log 0 = 0;
  * KL(a || b) = +inf when some a_i > 0 has b_i = 0 (never clamped --
    a softmax weight of exp(-inf) is defined as 0 downstream);
  * distributions are renormalized on construction, never inside kernels;
  * accumulation is float64 regardless of storage precision.

One kernel, ``pairwise_divergence``, computes every divergence in the
library, in the entropy form (Lin 1991, IEEE TIT 37:145). With the
negentropy n(x) = sum_i x_i ln x_i (minus the Shannon entropy),

    JS(p, q)   = (n(p) + n(q)) / 2 - n((p + q) / 2)
    KL(u || s) = n(u) - sum_i u_i ln s_i

n is computed once per row (``negentropy``); callers that compare the
same rows many times, like smoothing, pass it in cached. Against N
candidate rows, JS then takes one log per element of the N mixtures
z = (p + q) / 2, and KL one log per element of the query. The rule
z = 0 => z ln z = 0 is exact: logs are taken of max(z, smallest
subnormal), which leaves every z > 0 -- subnormal ones included --
untouched and makes a zero term 0 * finite = 0, with no log(0). Every
per-row sum runs in the same order, so JS(p, p) and KL(p || p) are
exactly 0 and JS is exactly symmetric. Candidate rows are processed in
blocks of ``BLOCK_ELEMENTS`` elements through two reused buffers, so the
temporaries do not grow with N. Both results are clamped at 0 against
rounding.
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

#: The smallest positive float64. Logs are taken of max(x, _TINY): every
#: x > 0 is left untouched, and x = 0 gives 0 * ln(_TINY) = 0 exactly.
_TINY = float(np.nextafter(0.0, 1.0))

#: Elements in each scratch buffer of the divergence kernel. Rows are
#: processed this many elements at a time, so the temporaries stay at two
#: buffers of 256 KiB however many rows one call compares.
BLOCK_ELEMENTS = 1 << 15


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
    return float(pairwise_divergence(b.probs, a.probs[None], kind="kl")[0])


def js_divergence(a: CodebookDistribution, b: CodebookDistribution) -> float:
    """Symmetric Jensen-Shannon divergence, in nats; bounded by ln 2.

    JS(a, b) = (KL(a || z) + KL(b || z)) / 2 with z = (a + b) / 2.
    """
    _check_pair(a, b)
    return float(pairwise_divergence(b.probs, a.probs[None], kind="js")[0])


def _xlogx_sums(rows: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """``out[i] = sum_j rows[i, j] * ln rows[i, j]`` with 0 ln 0 = 0;
    ``work`` is scratch of the same shape as ``rows``."""
    np.maximum(rows, _TINY, out=work)
    np.log(work, out=work)
    work *= rows
    work.sum(axis=1, out=out)


def negentropy(rows) -> np.ndarray:
    """sum_i x_i ln x_i of every row (last axis) of ``rows``, in nats.

    Returns an array of shape ``rows.shape[:-1]``: the cached half of every
    divergence this module computes.
    """
    rows = np.asarray(rows, dtype=np.float64)
    flat = rows.reshape(-1, rows.shape[-1])
    out = np.empty(len(flat))
    step = _block_rows(flat.shape[1])
    work = np.empty((min(len(flat), step), flat.shape[1]))
    for start in range(0, len(flat), step):
        block = flat[start:start + step]
        _xlogx_sums(block, out[start:start + len(block)], work[:len(block)])
    return out.reshape(rows.shape[:-1])


def _block_rows(width: int) -> int:
    return max(1, BLOCK_ELEMENTS // width)


def pairwise_divergence(query: np.ndarray, pool: np.ndarray, kind: str = "js", *,
                        query_negentropy: float | None = None,
                        pool_negentropy: np.ndarray | None = None) -> np.ndarray:
    """Divergence of each row of the (N, V) ``pool`` against the (V,) ``query``.

    ``kind="kl"`` computes KL(pool_i || query); ``kind="js"`` the symmetric JS.
    Both operands are taken to be distributions already (see
    ``simplex_rows``). A caller that compares the same rows again passes
    their ``negentropy`` (a float for the query, an (N,) vector for the
    pool) instead of having it recomputed. An empty pool yields an empty
    vector. The scalar ``js_divergence``/``kl_divergence`` are this
    function on a one-row pool, so they agree with it exactly.
    """
    if kind not in ("js", "kl"):
        raise ValidationError(f"unknown divergence kind {kind!r}")
    query = np.asarray(query, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    if query.ndim != 1 or pool.ndim != 2 or pool.shape[1] != query.size:
        raise DimensionError(
            f"expected a (V,) query and an (N, V) pool, got {query.shape} and {pool.shape}"
        )
    n = len(pool)
    if pool_negentropy is None:
        pool_negentropy = negentropy(pool)
    elif np.shape(pool_negentropy) != (n,):
        raise DimensionError(
            f"pool negentropy has shape {np.shape(pool_negentropy)}, expected ({n},)"
        )
    step = _block_rows(query.size)
    work = np.empty((min(n, step), query.size))
    sums = np.empty(n)
    if kind == "kl":
        # sums[i] = sum_j pool[i, j] ln query[j], added up in the same order
        # as the negentropy (a BLAS matrix-vector product is not), so
        # KL(u || u) is exactly 0.
        log_query = np.log(np.maximum(query, _TINY))
        absent = query == 0.0
        check_support = absent.any()
        unsupported = np.zeros(n, dtype=bool)
        for start in range(0, n, step):
            block = pool[start:start + step]
            stop = start + len(block)
            np.multiply(block, log_query, out=work[:len(block)])
            work[:len(block)].sum(axis=1, out=sums[start:stop])
            if check_support:
                unsupported[start:stop] = (block[:, absent] > 0.0).any(axis=1)
        out = np.maximum(pool_negentropy - sums, 0.0)  # Gibbs: rounding only
        out[unsupported] = np.inf
        return out
    if query_negentropy is None:
        query_negentropy = float(negentropy(query))
    mixture = np.empty_like(work)
    for start in range(0, n, step):
        block = pool[start:start + step]
        z = mixture[:len(block)]
        np.add(block, query, out=z)
        z *= 0.5
        _xlogx_sums(z, sums[start:start + len(block)], work[:len(block)])
    return np.maximum(0.5 * (pool_negentropy + query_negentropy) - sums, 0.0)
