"""Pixel-level retrieval of in-context pairs.

Feature maps keep their spatial layout until they are flattened
channel-major (then row, then column) and l2-normalized; candidates are
ranked by plain dot similarity against the query vector, ties by
insertion order.

Search is exact, but most rows never reach the exact kernel. The index
keeps its rows as the callers' own read-only vectors, plus one float32
copy of all of them. ``top_m`` scores every row in one float32 pass, with
a proven half-width eps around each score (``_dot_band``); the rows whose
band reaches the m-th largest lower end survive (the rule
``divergence.screen_survivors`` shares with the all-patch JS screen), and
only those, about m of them, get the exact float64 dot. A survivor whose
exact score leaves its band sends the query to the dense path, the same
exact dot over every row. Selection and scores are therefore those of a
stable sort of every row's exact dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergence import _U32, frozen, screen_survivors
from .errors import DimensionError, ValidationError

NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class FeatureMap:
    """A (channels, height, width) feature tensor for one item."""

    values: np.ndarray = field(repr=False)
    identifier: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise DimensionError(f"expected (C, H, W), got shape {values.shape}")
        if min(values.shape) < 1:
            raise DimensionError(f"empty dimension in shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"non-finite entries in feature map {self.identifier!r}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FeatureVector:
    """A flattened, unit-l2-norm feature vector."""

    values: np.ndarray = field(repr=False)
    identifier: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DimensionError(f"expected a flat vector, got shape {values.shape}")
        norm = float(np.linalg.norm(values))
        if not abs(norm - 1.0) <= NORM_TOLERANCE:  # a NaN norm fails too
            raise ValidationError(f"vector norm is {norm!r}, expected 1 within {NORM_TOLERANCE}")
        object.__setattr__(self, "values", frozen(values, self.values))


def flatten_normalize(feature_map: FeatureMap) -> FeatureVector:
    """Flatten channel-major row-major and scale to unit l2 norm."""
    flat = np.ravel(feature_map.values, order="C")
    norm = float(np.linalg.norm(flat))
    if norm == 0.0:
        raise ValidationError(f"all-zero feature map {feature_map.identifier!r} cannot be normalized")
    vector = flat / norm
    vector.flags.writeable = False  # new and owned: FeatureVector keeps it uncopied
    return FeatureVector(vector, identifier=feature_map.identifier)


class RetrievalIndex:
    """Immutable collection of support-set feature vectors.

    The index keeps the vectors' own read-only rows, not a copy, and one
    read-only float32 (N, dim) matrix of them for the screen, with the
    ids. Entry order is the insertion order; it is the tie-breaking order
    for equal similarities, so it must be fixed before any query runs.
    """

    def __init__(self, entries: Sequence[FeatureVector]):
        entries = tuple(entries)
        self._ids = tuple(e.identifier for e in entries)
        self._rows = tuple(e.values for e in entries)
        if entries:
            dim = self._rows[0].size
            for e in entries:
                if e.values.size != dim:
                    raise DimensionError(
                        f"index vectors disagree in length: {dim} vs {e.values.size} ({e.identifier!r})"
                    )
            if len(set(self._ids)) != len(self._ids):
                raise ValidationError("duplicate item ids in retrieval index")
            # cast row by row: no float64 (N, dim) temporary
            self._screen = np.stack(self._rows, dtype=np.float32, casting="same_kind")
        else:
            self._screen = np.empty((0, 0), np.float32)
        self._screen.flags.writeable = False

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def dim(self) -> int:
        return self._screen.shape[1]


@dataclass(frozen=True)
class RetrievedSet:
    """Top-m items for one query, descending similarity."""

    items: tuple[tuple[str, float], ...]
    query_id: str = ""

    def __post_init__(self):
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
    """Half-width eps of the band around a float32 screen score that
    holds the exact float64 dot of the same unit rows, or None when
    dim u >= 1/2 and the bound below does not exist.

    With u = 2**-24 and n = dim, rounding x and q to float32 moves each
    product x_i q_i by at most (2u + u**2) |x_i q_i|, and the float32 dot
    of the rounded vectors is within gamma_n = n u / (1 - n u) times the
    sum of their absolute products (Higham 2002, sec. 3.1), in any
    summation order or thread split. That sum is at most
    (1 + u)**2 sum |x_i q_i|, sum |x_i q_i| <= |x| |q|, and
    ``FeatureVector`` holds each norm within ``NORM_TOLERANCE`` of 1, so

        eps = (gamma_n (1 + u)**2 + 2u + u**2) (1 + NORM_TOLERANCE)**2
              + n 2**-50.

    The last term covers float32 underflow (below n 2**-147), the float64
    dot's own error (gamma_n at u = 2**-53), the rounding of the norm
    check and of the band's ends. ``top_m`` checks every survivor against
    its band all the same.
    """
    nu = dim * _U32
    if nu >= 0.5:
        return None
    gamma = nu / (1.0 - nu)
    return ((gamma * (1.0 + _U32) ** 2 + 2.0 * _U32 + _U32 ** 2) * (1.0 + NORM_TOLERANCE) ** 2
            + dim * 2.0 ** -50)


def _exact_scores(rows, query: np.ndarray) -> np.ndarray:
    """The exact similarity of each row: one float64 ``np.dot`` per row.

    Not one gemv over stacked rows: blocked gemv kernels can give
    bit-identical rows different scores, which would defeat the
    insertion-order tie rule.
    """
    return np.array([np.dot(row, query) for row in rows], dtype=np.float64)


def top_m(query: FeatureVector, index: RetrievalIndex, m: int) -> RetrievedSet:
    """The m entries maximizing dot similarity with the query.

    Ties break by ascending insertion order. Returns min(m, |index|) items.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if len(index) == 0:
        raise ValidationError("cannot retrieve from an empty index")
    if query.values.size != index.dim:
        raise DimensionError(f"query dim {query.values.size} != index dim {index.dim}")
    q, rows = query.values, index._rows
    band = _dot_band(index.dim)
    escaped = band is None
    if not escaped:
        # Screen: the negated float32 scores, so the m most similar rows
        # are the m lowest values. Survivors: the rows that can be among
        # them. Exact rescoring: survivors only, each checked in its band.
        estimate = np.negative(index._screen @ q.astype(np.float32), dtype=np.float64)
        _, candidates, negated, left = screen_survivors(
            estimate[None], band, m, lambda _, c: -_exact_scores([rows[i] for i in c], q))
        escaped = left.any()
    if escaped:  # no band, or a survivor left it: every row gets the exact dot
        candidates = np.arange(len(rows))
        negated = -_exact_scores(rows, q)
    # candidates ascend in index order, so a stable sort keeps the tie rule
    order = np.argsort(negated, kind="stable")[:m]
    ids = index.ids
    return RetrievedSet(
        items=tuple((ids[i], float(-s)) for i, s in zip(candidates[order], negated[order])),
        query_id=query.identifier,
    )
