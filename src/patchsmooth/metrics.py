"""Decoding and evaluation metrics.

IoU convention for empty masks: 1.0 when both prediction and ground truth
are empty, 0.0 when exactly one is. Mean IoU here is the per-item mean;
callers needing class-wise folding can group report rows by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, ValidationError
from .pool import ScoreGrid
from .smoothing import SmoothedGrid


@dataclass(frozen=True)
class PredictionGrid:
    """Decoded token ids for every patch of one output grid."""

    tokens: tuple[int, ...]
    grid: tuple[int, int]
    codebook_size: int

    def __post_init__(self):
        if len(self.tokens) != self.grid[0] * self.grid[1]:
            raise DimensionError(
                f"{len(self.tokens)} tokens for a {self.grid[0]}x{self.grid[1]} grid"
            )
        if any(t < 0 or t >= self.codebook_size for t in self.tokens):
            raise ValidationError("token id outside codebook range")

    def as_array(self) -> np.ndarray:
        return np.array(self.tokens, dtype=np.uint32).reshape(self.grid)


class TokenValueDecoder:
    """Synthetic decoder: each token id is its own output value."""

    def decode(self, prediction: PredictionGrid) -> np.ndarray:
        return prediction.as_array().astype(np.float64)


def decode_argmax(grid: ScoreGrid | SmoothedGrid, shape: tuple[int, int] | None = None) -> PredictionGrid:
    """Per-patch argmax; ties resolve to the lowest token id."""
    if shape is None:
        prompt = getattr(grid, "prompt", None)
        shape = prompt.masked_region if prompt is not None else (1, len(grid.probs))
    return PredictionGrid(
        tokens=tuple(int(t) for t in np.argmax(grid.probs, axis=1)),
        grid=shape,
        codebook_size=grid.probs.shape[1],
    )


def _as_grid_pair(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return pred, gt


def iou(pred_mask, gt_mask) -> float:
    """Intersection over union of two binary masks."""
    pred, gt = _as_grid_pair(pred_mask, gt_mask)
    pred = pred.astype(bool)
    gt = gt.astype(bool)
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, gt).sum() / union)


def mean_iou(pairs: Sequence[tuple]) -> float:
    """Arithmetic mean of per-item IoU."""
    if not pairs:
        raise ValidationError("mean IoU over zero items is undefined")
    return float(np.mean([iou(p, g) for p, g in pairs]))


def mse(pred, gt) -> float:
    """Mean squared elementwise difference."""
    pred, gt = _as_grid_pair(pred, gt)
    diff = pred.astype(np.float64) - gt.astype(np.float64)
    return float(np.mean(diff * diff))


def pixel_accuracy(pred_tokens, gt_tokens) -> float:
    """Fraction of positions where predicted and true tokens match."""
    pred, gt = _as_grid_pair(pred_tokens, gt_tokens)
    return float(np.mean(pred == gt))


@dataclass(frozen=True)
class EvalReport:
    """Per-item values of one metric plus their mean."""

    metric: str
    per_item: tuple[tuple[str, float], ...]
    aggregate: float
    config: dict
    tolerance: float | None = None
    group_key: str | None = None

    def __post_init__(self):
        if not self.per_item:
            raise ValidationError("report needs at least one item")
        expected = float(np.mean([v for _, v in self.per_item]))
        if abs(expected - self.aggregate) > 1e-12:
            raise ValidationError(
                f"aggregate {self.aggregate!r} is not the mean of per-item values {expected!r}"
            )

    @classmethod
    def from_items(cls, metric, items, config, tolerance=None, group_key=None) -> "EvalReport":
        items = tuple((str(i), float(v)) for i, v in items)
        return cls(
            metric=metric,
            per_item=items,
            aggregate=float(np.mean([v for _, v in items])),
            config=dict(config),
            tolerance=tolerance,
            group_key=group_key,
        )

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "per_item": [[i, v] for i, v in self.per_item],
            "aggregate": self.aggregate,
            "config": self.config,
            "tolerance": self.tolerance,
            "group_key": self.group_key,
        }
