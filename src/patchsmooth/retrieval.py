"""Pixel-level retrieval of in-context pairs.

Feature maps keep their spatial layout until they are flattened
channel-major (then row, then column) and l2-normalized; candidates are
ranked by plain dot similarity against the query vector. Search is exact:
the support sets in play are small enough that approximate structures
buy nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValidationError(f"vector norm is {norm!r}, expected 1 within {NORM_TOLERANCE}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def flatten_normalize(feature_map: FeatureMap) -> FeatureVector:
    """Flatten channel-major row-major and scale to unit l2 norm."""
    flat = np.ravel(feature_map.values, order="C")
    norm = float(np.linalg.norm(flat))
    if norm == 0.0:
        raise ValidationError(f"all-zero feature map {feature_map.identifier!r} cannot be normalized")
    return FeatureVector(flat / norm, identifier=feature_map.identifier)


class RetrievalIndex:
    """Immutable collection of support-set feature vectors.

    Only the stacked read-only (N, dim) matrix and the ids are kept, not
    the vectors themselves. Entry order is the insertion order; it is the
    tie-breaking order for equal similarities, so it must be fixed before
    any query runs.
    """

    def __init__(self, entries: Sequence[FeatureVector]):
        entries = tuple(entries)
        self._ids = tuple(e.identifier for e in entries)
        if entries:
            dim = entries[0].values.size
            for e in entries:
                if e.values.size != dim:
                    raise DimensionError(
                        f"index vectors disagree in length: {dim} vs {e.values.size} ({e.identifier!r})"
                    )
            if len(set(self._ids)) != len(self._ids):
                raise ValidationError("duplicate item ids in retrieval index")
            self._matrix = np.stack([e.values for e in entries])
        else:
            self._matrix = np.empty((0, 0))
        self._matrix.flags.writeable = False

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix


@dataclass(frozen=True)
class RetrievedSet:
    """Top-m items for one query, descending similarity."""

    items: tuple[tuple[str, float], ...]
    query_id: str = ""

    def __post_init__(self):
        scores = [s for _, s in self.items]
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
    # One dot per row, not a single gemv: blocked gemv kernels can give
    # bit-identical rows different scores, which would defeat the
    # insertion-order tie rule. A stack of (1, dim) @ (dim, 1) products
    # runs the same per-row dot without a Python loop.
    scores = (index.matrix[:, None, :] @ query.values[:, None])[:, 0, 0]
    order = np.argsort(-scores, kind="stable")[: min(m, len(index))]
    ids = index.ids
    return RetrievedSet(
        items=tuple((ids[i], float(scores[i])) for i in order),
        query_id=query.identifier,
    )
