"""Decoding and evaluation metrics.

IoU convention for empty masks: 1.0 when both prediction and ground truth
are empty, 0.0 when exactly one is. Mean IoU is the per-item mean, the
``aggregate`` of an ``EvalReport`` of IoU values; callers needing
class-wise folding can group report rows by key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import pairwise_divergence
from .errors import DimensionError, ValidationError
from .pool import ScoreGrid
from .smoothing import SmoothedGrid


def decode_argmax(grid: ScoreGrid | SmoothedGrid) -> np.ndarray:
    """The (L,) per-patch argmax token ids; ties resolve to the lowest id."""
    return np.argmax(grid.probs, axis=1)


def _as_grid_pair(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        raise DimensionError(f"metric inputs have no elements: shape {pred.shape}")
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
    config: dict

    def __post_init__(self):
        if not self.per_item:
            raise ValidationError("report needs at least one item")

    @property
    def aggregate(self) -> float:
        """The mean of the per-item values."""
        return float(np.mean([v for _, v in self.per_item]))

    @classmethod
    def from_items(cls, metric, items, config) -> "EvalReport":
        items = tuple((str(i), float(v)) for i, v in items)
        return cls(metric=metric, per_item=items, config=dict(config))

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "per_item": [[i, v] for i, v in self.per_item],
            "aggregate": self.aggregate,
            "config": self.config,
        }


def _js_to_truth(probs, truth) -> float:
    """Mean JS divergence of the (L, |V|) ``probs`` from one-hot ``truth``."""
    onehots = np.eye(probs.shape[1])[truth]
    patches = np.arange(len(probs))
    return float(np.mean(pairwise_divergence(probs, onehots, patches, patches)))


def eval_reports(rows: list[dict], config: dict) -> tuple[EvalReport, ...]:
    """Accuracy and token MSE of both arms, then ``smoothed_js_to_truth``,
    the smoothed grid's mean JS divergence from the one-hot truth, when
    the rows carry ``smoothed_probs``. Each row holds ``query``,
    ``baseline_tokens``, ``smoothed_tokens`` and ``truth``."""
    reports = [
        EvalReport.from_items(
            f"{arm}_{metric}",
            [(r["query"], fn(r[f"{arm}_tokens"], r["truth"])) for r in rows],
            config,
        )
        for metric, fn in (("accuracy", pixel_accuracy), ("mse", mse))
        for arm in ("baseline", "smoothed")
    ]
    if "smoothed_probs" in rows[0]:
        reports.append(EvalReport.from_items(
            "smoothed_js_to_truth",
            [(r["query"], _js_to_truth(r["smoothed_probs"], r["truth"])) for r in rows],
            config,
        ))
    return tuple(reports)
