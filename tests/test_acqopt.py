import numpy as np
import pytest

from rootcal.acqopt import OptimizationError, optimize
from rootcal.core import ParameterBox, RngStream


def _quadratic(center):
    center = np.asarray(center, dtype=float)

    def f(x):
        d = x - center
        return float(d @ d), 2.0 * d

    return f


class TestOptimize:
    def test_finds_interior_minimum(self):
        box = ParameterBox([-2.0, -2.0], [2.0, 2.0])
        f = _quadratic([0.5, -0.7])
        x, value = optimize(f, box, RngStream(0))
        assert np.allclose(x, [0.5, -0.7], atol=1e-4)
        assert value == f(x)[0]

    def test_respects_box_when_minimum_outside(self):
        box = ParameterBox([0.0], [1.0])
        x, _ = optimize(_quadratic([3.0]), box, RngStream(1))
        assert x[0] == pytest.approx(1.0, abs=1e-8)

    def test_maximize_flag(self):
        box = ParameterBox([-1.0], [1.0])

        def f(x):
            return float(-(x[0] - 0.3) ** 2), np.array([-2.0 * (x[0] - 0.3)])

        x, value = optimize(f, box, RngStream(2), maximize=True)
        assert x[0] == pytest.approx(0.3, abs=1e-4)
        assert value == f(x)[0]

    def test_deterministic_given_stream(self):
        box = ParameterBox([-1.0, -1.0], [1.0, 1.0])
        f = _quadratic([0.2, 0.2])
        a, va = optimize(f, box, RngStream(3))
        b, vb = optimize(f, box, RngStream(3))
        assert np.array_equal(a, b)
        assert va == vb

    def test_never_worse_than_best_start(self):
        # multimodal surface; the optimizer must at least match raw sampling
        box = ParameterBox([0.0], [4.0])

        def f(x):
            return float(np.sin(3 * x[0]) + 0.1 * x[0]), np.array(
                [3 * np.cos(3 * x[0]) + 0.1])

        rng = RngStream(4)
        x, _ = optimize(f, box, rng)
        starts = rng.generator().random((10, 1)) * 4.0
        best_start = min(f(s)[0] for s in starts)
        assert f(x)[0] <= best_start + 1e-12

    def test_degenerate_gradient_terminates_cleanly(self):
        box = ParameterBox([0.0], [1.0])

        def f(x):
            return float(x[0]), None  # value usable, gradient unavailable

        x, _ = optimize(f, box, RngStream(5))
        assert 0.0 <= x[0] <= 1.0

    def test_all_non_finite_raises(self):
        box = ParameterBox([0.0], [1.0])

        def f(x):
            return float("nan"), np.zeros(1)

        with pytest.raises(OptimizationError):
            optimize(f, box, RngStream(6))
