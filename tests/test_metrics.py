import math

import numpy as np
import pytest

from patchsmooth.errors import DimensionError, ValidationError
from patchsmooth.metrics import (
    EvalReport,
    PredictionGrid,
    TokenValueDecoder,
    decode_argmax,
    iou,
    mean_iou,
    mse,
    pixel_accuracy,
)
from patchsmooth.pool import ScoreGrid


def grid_of(*rows):
    return ScoreGrid(probs=np.asarray(rows, dtype=np.float64))


class TestDecodeArgmax:
    def test_one_hot(self):
        pred = decode_argmax(grid_of([0, 1, 0], [0, 0, 1], [1, 0, 0]), shape=(1, 3))
        assert pred.tokens == (1, 2, 0)

    def test_tie_resolves_to_lowest_token(self):
        pred = decode_argmax(grid_of([0.5, 0.5]), shape=(1, 1))
        assert pred.tokens == (0,)

    def test_composes_with_nearest_smoothing(self):
        from patchsmooth.pool import PoolMode, PromptPool
        from patchsmooth.smoothing import Aggregation, SmoothingConfig, smooth_grid

        u = np.array([0.1, 0.2, 0.7])
        s = grid_of([0.8, 0.1, 0.1])
        pool = PromptPool(probs=u[None, None], pair_indices=[1], prompts=(), mode=PoolMode.Q, m=1)
        out = smooth_grid(
            s, pool, SmoothingConfig(m=1, alpha=1.0, aggregation=Aggregation.NEAREST)
        )
        assert decode_argmax(out, shape=(1, 1)).tokens == (int(np.argmax(u)),)

    def test_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(6))
        rescaled = np.exp(probs)  # strictly monotone map
        rescaled /= rescaled.sum()
        a = decode_argmax(grid_of(probs), shape=(1, 1))
        b = decode_argmax(grid_of(rescaled), shape=(1, 1))
        assert a.tokens == b.tokens

    def test_prediction_grid_validation(self):
        with pytest.raises(DimensionError):
            PredictionGrid(tokens=(0, 1), grid=(1, 3), codebook_size=4)
        with pytest.raises(ValidationError):
            PredictionGrid(tokens=(0, 9), grid=(1, 2), codebook_size=4)

    def test_token_value_decoder(self):
        pred = PredictionGrid(tokens=(1, 2, 3, 0), grid=(2, 2), codebook_size=4)
        np.testing.assert_array_equal(TokenValueDecoder().decode(pred), [[1.0, 2.0], [3.0, 0.0]])


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
        assert abs(mean_iou(pairs) - math.fsum(values) / len(values)) <= 1e-12


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

    def test_inconsistent_aggregate_rejected(self):
        with pytest.raises(ValidationError):
            EvalReport(
                metric="accuracy",
                per_item=(("a", 0.5), ("b", 1.0)),
                aggregate=0.9,
                config={},
            )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EvalReport(metric="accuracy", per_item=(), aggregate=0.0, config={})

    def test_to_dict_roundtrips_fields(self):
        report = EvalReport.from_items("mse", [("a", 0.25)], config={"alpha": 1.0}, tolerance=1e-9)
        d = report.to_dict()
        assert d["metric"] == "mse"
        assert d["per_item"] == [["a", 0.25]]
        assert d["tolerance"] == 1e-9
