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

Every call compares rows of an (R, V) query and an (N, V) pool over a
list of (r, c) pairs, two index arrays that broadcast together; the
caller chooses the pairs. n is computed once per row (``negentropy``),
and a caller that compares the same rows again passes it in cached. JS
then takes one log per element of each pair's mixture z = (p + q) / 2,
and KL one log per element of the query, once per call. The rule
z = 0 => z ln z = 0 is exact: logs are taken of max(z, smallest
subnormal), which leaves every z > 0 -- subnormal ones included --
untouched and makes a zero term 0 * finite = 0, with no log(0). Every
pair's sum runs in the same order, whatever else its call holds, so
JS(p, p) and KL(p || p) are exactly 0 and JS is exactly symmetric. Pairs
run in blocks of ``BLOCK_ELEMENTS`` elements, each gathering its rows,
so the temporaries do not grow with the pairs; only KL's log of the
query is as large as the query. Both results are clamped at 0. l2
runs over the same pairs, blocks and checks, on any finite rows, and
ignores cached negentropies: each value is the square root of the
difference's BLAS dot, as ``np.linalg.norm`` takes it.

``screened_js`` finds each of R query rows' k JS-nearest among N
candidates without the exact kernel on all R * N pairs. One float32 pass
ranks every pair, one BLAS dot each, with a proven error bound eps
(``_screen_band``; about 1e-3 nats at V = 1024) that holds for any
summation order and BLAS thread count. The pass is the only code here
that runs on several threads: ``_screen_sums`` splits the query rows
across the CPUs the process may run on, and joins its threads before it
returns. Each pair's dot is the same whatever the split, so no result
depends on the CPU count. ``screen_survivors`` keeps a
candidate when its lower bound reaches its row's k-th smallest upper
bound; survivors get ``pairwise_divergence``, the others +inf, in the
(R, N) matrix the dense kernel fills. An unproven band (``_gamma32``)
is infinite, and a survivor outside its band makes every pair exact;
``retrieval.top_m`` screens with the same rule. KL, l2 and every JS
comparison outside ``screened_js`` run on the dense kernel alone.
"""

from __future__ import annotations

import math
import os
import threading
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


def _row_sums(values: np.ndarray, subject: str) -> np.ndarray:
    """Row sums (last axis, kept) of ``values``, whose entries must be
    finite and nonnegative and whose sums must be finite.

    Finite sums prove the entries finite, so one ``min()`` completes the
    proof. Otherwise the element checks run, and then the sums' own check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        totals = values.sum(axis=-1, keepdims=True)
    if values.size and np.isfinite(totals).all() and values.min() >= 0.0:
        return totals
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{subject} non-finite entries")
    if np.any(values < 0.0):
        raise ValidationError(f"{subject} negative entries")
    if not np.isfinite(totals).all():
        raise ValidationError(f"{subject} a row whose sum overflows float64")
    return totals


def frozen(array: np.ndarray, source) -> np.ndarray:
    """``array``, the conversion of ``source`` to an array, read-only. It is
    kept if the conversion made it, if it is a read-only array that owns
    its buffer, or if it is a view whose base is such an array; anything
    else, a writable array of the caller or a view of one, is copied, so
    no caller's array is ever frozen."""
    owner = array if array.flags.owndata else array.base  # of the buffer, if an array
    if not (isinstance(owner, np.ndarray) and owner.flags.owndata
            and (not owner.flags.writeable or (owner is array and array is not source))):
        array = array.copy()
    array.flags.writeable = False
    return array


def simplex_rows(values) -> np.ndarray:
    """Check that every row (last axis) of ``values`` is a distribution.

    Entries must be finite and nonnegative, and each row must sum to 1
    within ``SUM_TOLERANCE``; a row whose sum drifts beyond
    ``RENORM_THRESHOLD`` is divided by its sum. Returns a read-only
    float64 array, made with at most one copy: a new one when a row is
    divided, else ``values`` as ``frozen`` keeps or copies it.
    """
    probs = np.asarray(values, dtype=np.float64)
    if probs.ndim < 1 or probs.shape[-1] < 2:
        raise ValidationError(f"expected rows of length >= 2, got shape {probs.shape}")
    totals = _row_sums(probs, "distribution contains")
    drift = np.abs(totals - 1.0)
    worst = drift.max(initial=0.0)
    if worst > SUM_TOLERANCE:
        total = float(totals[drift > SUM_TOLERANCE][0])
        raise ValidationError(f"probabilities sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
    if worst > RENORM_THRESHOLD:  # x / 1.0 is exact, so the other rows stay bit for bit
        probs = probs / np.where(drift > RENORM_THRESHOLD, totals, 1.0)
    return frozen(probs, values)


def normalize_scores(values) -> np.ndarray:
    """Scale each row of raw nonnegative scores to unit mass. The result
    is a new read-only array and is not checked: the constructor it is
    passed to runs ``simplex_rows``, which then need not copy it."""
    values = np.array(values, dtype=np.float64)
    totals = _row_sums(values, "scores contain")
    if np.any(totals <= 0.0):
        raise ValidationError("scores have zero total mass")
    values /= totals
    values.flags.writeable = False
    return values


# Kept only for the benchmark tracer, until it retires divergence.distributions_built.
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
    if rows.ndim == 0 or rows.shape[-1] == 0:
        raise DimensionError(f"negentropy needs rows of width >= 1, got shape {rows.shape}")
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


def pairwise_divergence(query: np.ndarray, pool: np.ndarray, rows, cols, kind: str = "js", *,
                        query_negentropy: np.ndarray | None = None,
                        pool_negentropy: np.ndarray | None = None) -> np.ndarray:
    """Divergence of pool row ``cols[i]`` against query row ``rows[i]``,
    for every pair i.

    ``query`` is (R, V) and ``pool`` (N, V); ``rows`` and ``cols`` are
    integer index arrays that broadcast together, and the result has their
    broadcast shape. ``kind="kl"`` computes KL(pool[c] || query[r]);
    ``kind="js"`` the symmetric JS. Both operands are taken to be
    distributions already (see ``simplex_rows``). A caller that compares
    the same rows again passes their (R,) and (N,) ``negentropy``.
    ``kind="l2"`` computes the l2 distance ||pool[c] - query[r]|| of any
    finite rows and ignores the cached negentropies.
    """
    if kind not in ("js", "kl", "l2"):
        raise ValidationError(f"unknown divergence kind {kind!r}")
    query = np.asarray(query, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    if query.ndim != 2 or pool.ndim != 2 or query.shape[1] != pool.shape[1] or not pool.shape[1]:
        raise DimensionError(f"expected an (R, V) query and an (N, V) pool, V >= 1, "
                             f"got {query.shape} and {pool.shape}")
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.shape != cols.shape:
        rows, cols = np.broadcast_arrays(rows, cols)
    shape, rows, cols = rows.shape, rows.ravel(), cols.ravel()
    for index, side, name in ((rows, query, "row"), (cols, pool, "column")):
        if index.size and not 0 <= index.min() <= index.max() < len(side):
            raise DimensionError(f"a {name} index is outside [0, {len(side)})")
    width = pool.shape[1]
    step = _block_rows(width)
    sums = np.empty(len(rows))
    if kind == "l2":  # each the square root of one BLAS dot, as np.linalg.norm takes it
        for start in range(0, len(rows), step):
            diff = pool[cols[start:start + step]] - query[rows[start:start + step]]
            sums[start:start + len(diff)] = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        return np.sqrt(sums).reshape(shape)
    pool_negentropy = _cached_negentropy(pool_negentropy, pool, "pool")
    work = np.empty((min(len(rows), step), width))
    if kind == "kl":
        # sums[i] = sum_j pool[c, j] ln query[r, j], added up in the same
        # order as the negentropy (a BLAS matrix-vector product is not), so
        # KL(u || u) is exactly 0; the query's logs are gathered per block.
        absent = query == 0.0
        check_support = absent.any()
        log_query = np.log(np.maximum(query, _TINY))
        unsupported = np.zeros(len(rows), dtype=bool)
        for start in range(0, len(rows), step):
            r, c = rows[start:start + step], cols[start:start + step]
            stop = start + len(r)
            block = pool[c]
            np.multiply(block, log_query[r], out=work[:len(r)])
            work[:len(r)].sum(axis=1, out=sums[start:stop])
            if check_support:
                unsupported[start:stop] = ((block > 0.0) & absent[r]).any(axis=1)
        out = np.maximum(pool_negentropy[cols] - sums, 0.0)  # Gibbs: rounding only
        out[unsupported] = np.inf
        return out.reshape(shape)
    query_negentropy = _cached_negentropy(query_negentropy, query, "query")
    mixture = np.empty_like(work)
    for start in range(0, len(rows), step):
        r, c = rows[start:start + step], cols[start:start + step]
        z = mixture[:len(r)]
        np.add(pool[c], query[r], out=z)
        z *= 0.5
        _xlogx_sums(z, sums[start:start + len(r)], work[:len(r)])
    out = np.maximum(0.5 * (pool_negentropy[cols] + query_negentropy[rows]) - sums, 0.0)
    return out.reshape(shape)


def _cached_negentropy(given, rows: np.ndarray, name: str) -> np.ndarray:
    """``negentropy(rows)``, or ``given`` once its shape is checked."""
    if given is not None and np.shape(given) != (len(rows),):
        raise DimensionError(f"{name} negentropy has shape {np.shape(given)}, "
                             f"expected ({len(rows)},)")
    return negentropy(rows) if given is None else np.asarray(given, dtype=np.float64)


#: Elements in each float32 scratch buffer of ``screened_js``: each part of
#: the pass (one per CPU) takes this many candidate elements at a time,
#: whatever R and N are.
SCREEN_ELEMENTS = 1 << 17

#: Factor by which the screen's band exceeds its derived error bound.
SCREEN_SAFETY = 2.0

#: The smallest normal float32. Screened rows are clipped to it once, so
#: every sum of two of them is normal and has a finite log.
_F32_TINY = float(np.finfo(np.float32).tiny)

#: The float32 unit roundoff.
_U32 = 2.0 ** -24

#: sum_j |y_j ln y_j| <= (_SPREAD - A) / (1 - s) for the screen's sums A and
#: its dot's slope s (``_screen_band``).
_SPREAD = 2.78


def _gamma32(n: int) -> float:
    """gamma_n = n u / (1 - n u) at the float32 unit roundoff u, or +inf
    when n u >= 1/2 and no bound is proven.

    A float32 dot of n terms is within gamma_n times the sum of its
    absolute products of the exact dot of its operands (Higham 2002,
    sec. 3.1): the bound counts one rounding per product and per add, so
    it holds in any summation order, with or without FMA and over any
    split across threads. Underflow is not covered: each product that
    underflows adds at most 2**-150 more (adds and subtractions that
    underflow are exact). ``retrieval._dot_band`` and ``_screen_band``
    both rest on it.
    """
    nu = n * _U32
    return nu / (1.0 - nu) if nu < 0.5 else math.inf


def _screen_band(sums: np.ndarray, width: int) -> np.ndarray:
    """Half-width eps of the band that holds the exact JS of each pair
    whose float32 sum is ``sums`` (A below), over rows of ``width`` (V)
    entries; +inf for every pair when no bound is proven (see below).

    The screen takes JS(p, q) = (n(p) + n(q)) / 2 - (A / 2 - ln 2), with
    A the float32 dot of fl(ln y) and y, stored in float64, y = fl(p' + q')
    and p' = max(fl32(p), t), t = 2**-126; n(p), n(q) are the exact cached
    negentropies, shared with the dense kernel. With u = 2**-24 and the
    exact y = p + q, f(y) = y ln y:

    * rounding to float32 and clipping: |p' - p| <= u p + t; then the
      add: y' = y (1 + eta) + a, |eta| <= 2u + u**2, |a| <= 2t (1 + u).
    * For y >= 2**-100, 2t <= u y / 2, so |y' - y| <= 2.6 u y and the mean
      value theorem gives |f(y') - f(y)| <= 2.6 u (y + |f(y)|). For
      y < 2**-100, |f(y)| and |f(y')| are both below 2**-93, so they
      differ by less than 2**-92. Over the row, with H = sum_j |f(y_j)|
      and Y = sum_j y_j <= 2.0001, these add up to
      D <= 2.6 u H + 5.3 u + V 2**-92, and H' = sum_j |f(y'_j)| <= H + D.
    * float32 ``log`` is within 4 ulp of the rounded result (numpy's
      ``umath-validation-set-log.csv`` tests float32 at 4), so within
      4.5 ulp <= 9u |ln y'| of ln y': |y' fl(ln y') - f(y')| <= 9u |f(y')|,
      9u H' over the row.
    * The dot is within gamma_V (``_gamma32``) times the sum of its
      absolute products, at most (1 + 9u) H', in any order, with FMA and
      over any BLAS thread split; products that underflow add V 2**-150.

    With gamma_V finite (V u < 1/2) that gives |A - sum_j f(y_j)| <= s H + c,
    s = gamma_V + 23.3u and c = 10.7u + V 2**-150. Only terms with
    y_j > 1 are positive, and each y_j <= Y, so
    H <= -sum_j f(y_j) + 2 Y ln Y <= -A + 2.7736 + s H + c, which gives
    H <= (_SPREAD - A) / (1 - s) = H_A while s < 1; at larger s there is
    no bound, and every band is infinite.

    The rest is float64. sum_j y_j = 2 within 2 (``RENORM_THRESHOLD`` +
    V 2**-53), since rows reach here through ``simplex_rows``, and JS
    takes ln 2 / 2 of that drift. The dense kernel's own error (one
    rounding per add, halving, 1-ulp ``log`` and product, and its sum)
    and the last subtractions of both paths stay below
    2**-52 (V + 32) (H + 2 ln V + 2), as |n(p)|, |n(q)| <= ln V. Halving
    the A terms,

        eps = SAFETY ((s / 2 + 2**-52 (V + 32)) H_A + 5.4u + V 2**-149
                      + ln 2 RENORM_THRESHOLD + 2**-52 (V + 32) (2 ln V + 2)).

    At V = 1024 and typical scores that is about 1e-3 nats, nearly all of
    it gamma_V. ``screen_survivors`` checks every survivor against its band
    all the same, and one that leaves it makes the whole call exact.
    """
    slope = _gamma32(width) + 23.3 * _U32  # s above
    if slope >= 1.0:
        return np.full(sums.shape, np.inf)
    f64 = 2.0 ** -52 * (width + 32)
    floor = (5.4 * _U32 + width * 2.0 ** -149 + LN2 * RENORM_THRESHOLD
             + f64 * (2.0 * np.log(width) + 2.0))
    band = _SPREAD - sums
    band *= (0.5 * slope + f64) / (1.0 - slope)
    band += floor
    band *= SCREEN_SAFETY
    return band


def _screen_workers() -> int:
    """The CPUs this process may run on: the most threads ``_screen_sums``
    starts."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _screen_sums(query: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """The (R, N) float64 sums A[r, n], each the float32 dot of ln y and y
    over the float32 y = max(query[r], t) + max(pool[n], t), t the
    smallest normal float32.

    Each operand is cast to float32 and clipped once. The R query rows are
    split into contiguous parts, one per CPU (``_screen_workers``): the
    caller fills the first part, and a thread started for this call fills
    each other one; numpy's ufuncs and ``matmul`` release the GIL, so the
    parts run in parallel. Every part takes one query row at a time
    against blocks of at most ``SCREEN_ELEMENTS`` candidate elements, in
    its own scratch, and writes only its rows of the result. Each pair's
    sum is one BLAS dot over the same bytes whatever the split, so the
    sums do not depend on the number of parts. Every thread is joined
    before this returns, and the first exception a thread raised is
    raised here. A thread starts with numpy's default ``errstate``, not
    the caller's.
    """
    rows = len(query)
    query32 = query.astype(np.float32)
    np.maximum(query32, _F32_TINY, out=query32)
    sums = np.empty((rows, len(pool)))
    parts = max(1, min(rows, _screen_workers()))
    edges = [rows * i // parts for i in range(parts + 1)]
    errors = []

    def fill(start: int, stop: int) -> None:
        try:
            _screen_rows(query32[start:stop], pool, sums[start:stop])
        except BaseException as exc:  # raised again by the caller
            errors.append(exc)

    threads = []
    try:
        for start, stop in zip(edges[1:-1], edges[2:]):
            thread = threading.Thread(target=fill, args=(start, stop))
            thread.start()
            threads.append(thread)
        _screen_rows(query32[:edges[1]], pool, sums[:edges[1]])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return sums


def _screen_rows(query32: np.ndarray, pool: np.ndarray, sums: np.ndarray) -> None:
    """``sums`` (R, N) of the float32 clipped ``query32`` (R, V) against
    ``pool`` (N, V), as ``_screen_sums`` defines them, in scratch of its
    own."""
    n, width = pool.shape
    step = min(n, max(1, SCREEN_ELEMENTS // width))
    block32 = np.empty((step, width), np.float32)
    mixture = np.empty_like(block32)
    logs = np.empty_like(block32)
    dots = np.empty((step, 1, 1), np.float32)
    for start in range(0, n, step):
        block = block32[:min(step, n - start)]
        stop = start + len(block)
        block[...] = pool[start:stop]
        np.maximum(block, _F32_TINY, out=block)
        y, ln_y, dot = mixture[:len(block)], logs[:len(block)], dots[:len(block)]
        for row, query_row in enumerate(query32):
            np.add(query_row, block, out=y)
            np.log(y, out=ln_y)
            np.matmul(ln_y[:, None, :], y[:, :, None], out=dot)
            sums[row, start:stop] = dot[:, 0, 0]


def screen_survivors(estimate, band, k: int, exact) -> np.ndarray:
    """The rule both certified screens share, over (R, N) screened values.

    Each exact value lies within ``band`` (broadcast; +inf where no bound
    is proven) of its ``estimate``; lower values rank first. A candidate
    survives when its lower end reaches the k-th smallest upper end of its
    row: at least k exact values lie at or below that end, so every
    candidate that can be among the k lowest, ties included, survives.
    Returns the (R, N) exact values, ``exact(r, c)`` at the survivors (rows
    r, columns c, row-major) and +inf elsewhere. A survivor outside its
    band disproves the bound: then ``exact`` runs once more, over every
    pair, and the whole matrix is exact.
    """
    if np.shape(band) != estimate.shape:
        band = np.broadcast_to(band, estimate.shape)
    kth = min(k, estimate.shape[1]) - 1
    reach = estimate + band
    reach.partition(kth, axis=1)
    reach = reach[:, [kth]]  # a copy: the (R, N) upper ends are freed
    r, c = np.nonzero(estimate - band <= reach)
    values = np.full(estimate.shape, np.inf)
    values[r, c] = survivors = exact(r, c)
    if (np.abs(survivors - estimate[r, c]) > band[r, c]).any():
        r, c = np.indices(estimate.shape).reshape(2, -1)
        values[r, c] = exact(r, c)
    return values


def screened_js(query, pool, k: int) -> np.ndarray:
    """The (R, N) JS from each row of the (R, V) ``query`` to each of the
    (N, V) ``pool`` rows, exact as ``pairwise_divergence`` gives it where
    ``screen_survivors`` keeps the pair and +inf where it rules the pair
    out, so the k nearest by (distance, any tie-break) are those of the
    dense matrix. Both operands must be distributions (``simplex_rows``),
    the pool nonempty.
    """
    query_negentropy, pool_negentropy = negentropy(query), negentropy(pool)
    sums = _screen_sums(query, pool)
    estimate = 0.5 * (pool_negentropy + query_negentropy[:, None])
    estimate -= 0.5 * sums - LN2
    band = _screen_band(sums, query.shape[1])
    del sums  # at most three (R, N) float64 arrays live at once
    return screen_survivors(estimate, band, k, lambda r, c: pairwise_divergence(
        query, pool, r, c, query_negentropy=query_negentropy, pool_negentropy=pool_negentropy))
