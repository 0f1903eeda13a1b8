import math

import numpy as np
import pytest

from patchsmooth.errors import DimensionError, FormatError, ValidationError
from patchsmooth.metrics import (
    EvalReport,
    decode_argmax,
    iou,
    mse,
    pixel_accuracy,
)
from patchsmooth.pool import PromptSpec, ScoreGrid, load_grid, save_grid
from patchsmooth.tensorfile import write_tensor


def grid_of(*rows):
    return ScoreGrid(probs=np.asarray(rows, dtype=np.float64))


class TestDecodeArgmax:
    def test_one_hot(self):
        tokens = decode_argmax(grid_of([0, 1, 0], [0, 0, 1], [1, 0, 0]))
        assert tokens.shape == (3,) and tokens.tolist() == [1, 2, 0]

    def test_tie_resolves_to_lowest_token(self):
        assert decode_argmax(grid_of([0.5, 0.5])).tolist() == [0]

    def test_composes_with_nearest_smoothing(self):
        from patchsmooth.pool import PoolMode, PromptPool
        from patchsmooth.smoothing import Aggregation, SmoothingConfig, smooth_grid

        u = np.array([0.1, 0.2, 0.7])
        s = grid_of([0.8, 0.1, 0.1])
        pool = PromptPool(probs=u[None, None], pair_indices=[1], prompts=(), mode=PoolMode.Q, m=1)
        out = smooth_grid(
            s, pool, SmoothingConfig(m=1, alpha=1.0, aggregation=Aggregation.NEAREST)
        )
        assert decode_argmax(out).tolist() == [int(np.argmax(u))]

    def test_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(6))
        rescaled = np.exp(probs)  # strictly monotone map
        rescaled /= rescaled.sum()
        np.testing.assert_array_equal(decode_argmax(grid_of(probs)), decode_argmax(grid_of(rescaled)))

    def test_grid_shape_rule(self, tmp_path):
        grid = grid_of([0.5, 0.5], [1, 0], [0, 1], [1, 0])

        def shape_of(sidecar=None):
            write_tensor(grid.probs, tmp_path / "g.pnct", meta={"kind": "score-grid", **(sidecar or {})})
            return load_grid(tmp_path / "g.pnct")[1]

        assert shape_of() == (1, 4)
        assert shape_of({"grid": [2, 2]}) == (2, 2)
        with pytest.raises(DimensionError):
            shape_of({"grid": [1, 3]})
        for bad in ([0, 4], [-2, -2], [2], [2.0, 2]):
            with pytest.raises(FormatError):
                shape_of({"grid": bad})

    def test_tokens_reshape_to_prompt_region(self, tmp_path):
        grid = ScoreGrid(probs=np.eye(4)[[1, 2, 3, 0]], prompt=PromptSpec("x", "y", "q", (2, 2)))
        save_grid(grid, tmp_path / "g.pnct")
        loaded, shape = load_grid(tmp_path / "g.pnct")
        assert shape == (2, 2)
        assert decode_argmax(loaded).reshape(shape).tolist() == [[1, 2], [3, 0]]


class TestIoU:
    def test_identical_nonempty(self):
        assert iou([[1, 1], [0, 0]], [[1, 1], [0, 0]]) == 1.0

    def test_derived_half(self):
        assert iou([[1, 1], [0, 0]], [[1, 0], [0, 0]]) == 0.5

    def test_disjoint_nonempty(self):
        assert iou([[1, 0]], [[0, 1]]) == 0.0

    def test_both_empty_convention(self):
        assert iou([[0, 0]], [[0, 0]]) == 1.0

    def test_one_empty_convention(self):
        assert iou([[1, 0]], [[0, 0]]) == 0.0
        assert iou([[0, 0]], [[1, 0]]) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            iou([[1]], [[1, 0]])

    def test_mean_iou_is_plain_mean(self):
        pairs = [
            (np.array([[1, 1], [0, 0]]), np.array([[1, 0], [0, 0]])),
            (np.array([[1, 0]]), np.array([[1, 0]])),
            (np.array([[1, 0]]), np.array([[0, 1]])),
        ]
        values = [iou(p, g) for p, g in pairs]
        report = EvalReport.from_items("iou", enumerate(values), config={})
        assert abs(report.aggregate - math.fsum(values) / len(values)) <= 1e-12


@pytest.mark.parametrize("metric", [pixel_accuracy, mse, iou])
def test_zero_size_inputs_are_rejected(metric):
    # the mean of no elements would be NaN
    with pytest.raises(DimensionError):
        metric(np.zeros(0), np.zeros(0))


class TestMSE:
    def test_identical(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offsets(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_derived_quarter(self):
        assert mse([0.5], [0.0]) == 0.25

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            mse([1.0], [1.0, 2.0])


class TestPixelAccuracy:
    def test_all_match(self):
        assert pixel_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half_match(self):
        assert pixel_accuracy([1, 2, 3, 4], [1, 2, 0, 0]) == 0.5

    def test_derived_three_sixteenths(self):
        pred = np.zeros(16, dtype=int)
        gt = np.full(16, 7)
        gt[:3] = 0
        assert pixel_accuracy(pred, gt) == 0.1875

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            pixel_accuracy([1], [1, 2])


class TestEvalReport:
    def test_aggregate_is_mean(self):
        report = EvalReport.from_items(
            "accuracy", [("a", 0.5), ("b", 1.0), ("c", 0.0)], config={"m": 4}
        )
        assert report.aggregate == pytest.approx(0.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EvalReport(metric="accuracy", per_item=(), config={})

    def test_to_dict_roundtrips_fields(self):
        report = EvalReport.from_items("mse", [("a", 0.25)], config={"alpha": 1.0})
        assert report.to_dict() == {
            "metric": "mse", "per_item": [["a", 0.25]], "aggregate": 0.25, "config": {"alpha": 1.0},
        }
