"""Pixel-level retrieval of in-context pairs.

Feature maps keep their spatial layout until they are flattened
channel-major (then row, then column) and l2-normalized; candidates are
ranked by plain dot similarity against the query vector, ties by
insertion order.

A vector keeps its row in the float type it came in and the float64 l2
norm it computes once; the index holds one read-only (N, dim) matrix of
the rows, their norms and the ids, and its float32 screen is that matrix
or one copy (the README measures the memory).

Search is exact, but most rows never reach the exact kernel. ``top_m``
scores every row in one float32 pass scaled by 1/norm, with a proven
band around each score (``_dot_band``); the rows whose band reaches the
m-th largest lower end survive (the rule ``divergence.screen_survivors``
shares with the all-patch JS screen), and only those, about m of them,
get their float64 unit row rebuilt and the exact dot; the others score
-inf. A survivor whose exact score leaves its band sends the query to the
dense path, the same exact dot over every row. Selection and scores are
therefore those of a stable sort of every row's exact dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergence import _U32, _gamma32, frozen, screen_survivors
from .errors import ConfigError, DimensionError, ValidationError


# Kept only for the benchmark workloads, which build their index rows with it.
@dataclass(frozen=True)
class FeatureMap:
    """A (channels, height, width) feature tensor for one item."""

    values: np.ndarray = field(repr=False)
    identifier: str = ""

    def __post_init__(self):
        values = np.asarray(self.values)
        values = values if values.dtype.kind == "f" else values.astype(np.float64)
        if values.ndim != 3:
            raise DimensionError(f"expected (C, H, W), got shape {values.shape}")
        if min(values.shape) < 1:
            raise DimensionError(f"empty dimension in shape {values.shape}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FeatureVector:
    """A flat feature ``row`` and the float64 l2 ``norm`` it computes."""

    row: np.ndarray = field(repr=False)
    identifier: str = ""
    norm: float = field(init=False)

    def __post_init__(self):
        row = np.asarray(self.row)
        if row.ndim != 1:
            raise DimensionError(f"expected a flat vector, got shape {row.shape}")
        row64 = row.astype(np.float64, copy=False)
        with np.errstate(over="ignore", under="ignore"):
            norm = float(np.linalg.norm(row64))
            if norm in (0.0, math.inf) and np.isfinite(row64).all() and row64.any():
                # the squares over- or underflowed: take the norm of the row
                # scaled by a power of two, so every other row keeps its bits
                exponent = np.frexp(np.abs(row64).max())[1]
                norm = float(np.ldexp(np.linalg.norm(np.ldexp(row64, -exponent)), exponent))
        if not 0.0 < norm < math.inf:  # NaN fails; a finite norm proves the entries finite
            raise ValidationError(f"vector {self.identifier!r} has norm {norm!r}, "
                                  "expected a positive finite one")
        object.__setattr__(self, "row", frozen(row, self.row))
        object.__setattr__(self, "norm", norm)

    @property
    def values(self) -> np.ndarray:
        """The unit row, float64, read-only: computed, not stored."""
        values = np.divide(self.row, self.norm, dtype=np.float64)
        values.flags.writeable = False
        return values


# Kept only for the benchmark workloads, as FeatureMap is.
def flatten_normalize(feature_map: FeatureMap) -> FeatureVector:
    """Flatten channel-major row-major; the vector computes its norm."""
    return FeatureVector(np.ravel(feature_map.values), feature_map.identifier)


class RetrievalIndex:
    """Immutable collection of at least one support-set feature vector:
    one read-only (N, dim) matrix of their rows in the rows' common float
    type, their float64 norms and the ids. Entry order, the insertion
    order, breaks ties in similarity, so it is fixed before any query runs.
    """

    def __init__(self, entries: Sequence[FeatureVector]):
        entries = tuple(entries)
        if not entries:
            raise ValidationError("a retrieval index needs at least one entry")
        self._ids = tuple(e.identifier for e in entries)
        self._norms = np.array([e.norm for e in entries], dtype=np.float64)
        dim = entries[0].row.size
        for e in entries:
            if e.row.size != dim:
                raise DimensionError(
                    f"index vectors disagree in length: {dim} vs {e.row.size} ({e.identifier!r})"
                )
        if len(set(self._ids)) != len(self._ids):
            raise ValidationError("duplicate item ids in retrieval index")
        self._matrix = np.stack([e.row for e in entries])
        with np.errstate(over="ignore"):  # a float64 row beyond float32 gets an infinite band
            self._screen = self._matrix.astype(np.float32, copy=False)
        for array in (self._matrix, self._screen, self._norms):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]


@dataclass(frozen=True)
class RetrievedSet:
    """Top-m items for one query, at least one, descending similarity."""

    items: tuple[tuple[str, float], ...]
    query_id: str = ""

    def __post_init__(self):
        if not self.items:
            raise ValidationError("retrieved set is empty")
        scores = [s for _, s in self.items]
        if not all(math.isfinite(s) for s in scores):
            raise ValidationError("retrieved scores must be finite")
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise ValidationError("retrieved scores must be nonincreasing")
        ids = [i for i, _ in self.items]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate ids in retrieved set")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.items)


def _dot_band(dim: int) -> float | None:
    """Half-width eps of the band around a screen score that holds the
    exact float64 dot of the same unit rows, less ``top_m``'s per-row
    underflow term, or None when ``divergence._gamma32`` proves no bound.

    Take a row x, the norm N its ``FeatureVector`` computed and the unit
    query q. The screen rounds x and q to float32. With u = 2**-24 and
    n = dim, that moves each product x_i q_i by at most (2u + u**2)
    |x_i q_i|, and the float32 dot of the rounded vectors is within
    gamma_n (``_gamma32``) times the sum of their absolute products, in
    any summation order or thread split. That sum is at most
    (1 + u)**2 sum |x_i q_i|, so over N the screen is
    within A S, A = gamma_n (1 + u)**2 + 2u + u**2 < 1.1 (as n u < 1/2),
    of the exact sum_i x_i q_i / N, where S = sum |x_i q_i| / N. With
    v = 2**-53: N is the rounded root of a float64 sum of n squares, and q
    a row over such a norm, so S <= |x| |q| / N <= 1 + (n + 6) v. The
    rebuilt unit row and the float64 dot (gamma_n at v) add (n + 2) v S;
    the division by N and the rounding of the band's ends and of the check
    at most 8v. In all that is below A + 3 (n + 6) v, and below
    eps = A + (n + 3) 2**-50.

    Float32 underflow moves each rounded entry and product by at most
    2**-150: n 2**-147 / N in all, the per-row term. A screen score that
    is not finite (a float32 overflow) proves nothing: its row's band is
    infinite. ``top_m`` checks every survivor against its band all the same.
    """
    gamma = _gamma32(dim)
    if gamma is None:
        return None
    return gamma * (1.0 + _U32) ** 2 + 2.0 * _U32 + _U32 ** 2 + (dim + 3) * 2.0 ** -50


def _exact_scores(index: RetrievalIndex, rows, query: np.ndarray) -> np.ndarray:
    """The exact similarity of each of the index ``rows``: its unit row,
    as ``FeatureVector.values`` computes it, and one float64 ``np.dot``.

    Not one gemv over stacked rows: blocked gemv kernels can give
    bit-identical rows different scores, which would defeat the
    insertion-order tie rule.
    """
    unit = (np.divide(index._matrix[i], index._norms[i], dtype=np.float64) for i in rows)
    return np.array([np.dot(row, query) for row in unit], dtype=np.float64)


def top_m(query: FeatureVector, index: RetrievalIndex, m: int) -> RetrievedSet:
    """The m entries maximizing dot similarity with the query.

    Ties break by ascending insertion order. Returns min(m, |index|) items.
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if query.row.size != index.dim:
        raise DimensionError(f"query dim {query.row.size} != index dim {index.dim}")
    q = query.values
    band = _dot_band(index.dim)
    negated = None
    if band is not None:
        # Screen: the negated float32 scores over the norms, so the m most
        # similar rows are the m lowest values. Survivors: the rows that can
        # be among them. Exact rescoring: survivors only, each in its band.
        with np.errstate(over="ignore", invalid="ignore"):
            estimate = index._screen @ q.astype(np.float32) / -index._norms
            band = band + index.dim * 2.0 ** -147 / index._norms
        unproven = ~np.isfinite(estimate)
        estimate[unproven], band[unproven] = 0.0, np.inf
        negated = screen_survivors(estimate[None], band, m,
                                   lambda _, c: -_exact_scores(index, c, q))
    if negated is None:  # no band, or a survivor left it: every row gets the exact dot
        negated = -_exact_scores(index, range(len(index)), q)
    else:
        negated = negated[0]  # +inf, ruled out, sorts after the m survivors
    # a stable sort keeps the tie rule: insertion order
    order = np.argsort(negated, kind="stable")[:m]
    ids = index.ids
    return RetrievedSet(items=tuple((ids[i], float(-negated[i])) for i in order),
                        query_id=query.identifier)
