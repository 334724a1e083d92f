import hashlib

import numpy as np
import pytest

from rootcal import acqopt
from rootcal.acqopt import (
    OptimizationError,
    _lbfgs_direction,
    _local_search,
    _project,
    optimize,
)
from rootcal.acquisition import AcqKind, Family, Incumbent, Mode, acq_gradient, acq_value
from rootcal.core import ParameterBox, RngStream
from rootcal.metamodel import model_at, posterior_grad


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


def _surfaces():
    """Seeded (box, objective, maximize) triples: quadratics centred inside or
    outside the box, and every acquisition on a fitted model, in 1-3 dims."""
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        box = ParameterBox(-1.0 - rng.random(dim), 1.0 + rng.random(dim))
        for _ in range(3):
            yield box, _quadratic(box.from_unit(rng.uniform(-1.0, 2.0, dim))), False
        n = 4 + 2 * dim
        model = model_at(box, box.from_unit(rng.random((n, dim))), rng.normal(size=n),
                         np.full(n, 0.01), 0.3)
        inc = Incumbent(0, float(rng.normal()))
        for kind in (AcqKind(family, mode) for family in Family for mode in Mode):
            def objective(theta, kind=kind, model=model, inc=inc):
                post, grad = posterior_grad(model, theta)
                value = acq_value(kind, post, inc)
                return value, None if grad is None else acq_gradient(kind, post, grad, inc)

            yield box, objective, kind.maximize


class TestProjection:
    LOWER, UPPER = np.array([0.0, -1.0]), np.array([1.0, 2.0])

    def _iterates(self, f, x0):
        seen = []

        def recorded(x):
            seen.append(x.copy())
            return f(x)

        _local_search(recorded, np.array(x0), self.LOWER, self.UPPER)
        return seen

    def test_iterates_stay_in_box_from_outside_starts(self):
        for x0 in ([5.0, -7.0], [-3.0, 0.5], [0.5, 9.0]):
            seen = self._iterates(_quadratic([0.3, 5.0]), x0)
            assert len(seen) > 1
            for x in seen:
                assert np.all(x >= self.LOWER) and np.all(x <= self.UPPER), x

    def test_iterates_stay_in_box_under_huge_gradients(self):
        slope = 1e6 * (self.UPPER - self.LOWER) * np.array([1.0, -1.0])

        def f(x):
            return float(slope @ x), slope

        seen = self._iterates(f, [0.5, 0.5])
        assert len(seen) > 1
        for x in seen:
            assert np.all(x >= self.LOWER) and np.all(x <= self.UPPER), x
        assert np.array_equal(seen[-1], [0.0, 2.0])

    def test_matches_clip_on_edge_values(self):
        rng = np.random.default_rng(12)
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -5.0, 7.0, np.inf, -np.inf])
        for n in (1, 2, 3, 5, 17):
            for _ in range(200):
                lower = rng.choice(np.array([0.0, -0.0, -1.0]), n)
                upper = lower + rng.choice(np.array([1.0, 3.0]), n)
                x = np.where(rng.random(n) < 0.5, rng.choice(values, n), rng.normal(size=n))
                want = np.clip(x, lower, upper)
                assert _project(x, lower, upper).tobytes() == want.tobytes()

    def test_optimize_matches_clip_form_bit_for_bit(self, monkeypatch):
        def run():
            return [optimize(f, box, RngStream(seed), maximize=maximize)
                    for seed, (box, f, maximize) in enumerate(_surfaces())]

        projected = run()
        monkeypatch.setattr(acqopt, "_project", np.clip)
        clipped = run()
        assert len(projected) == 27
        for (x, value), (x_ref, value_ref) in zip(projected, clipped):
            assert x.tobytes() == x_ref.tobytes()
            assert np.float64(value).tobytes() == np.float64(value_ref).tobytes()


def _curvature_surfaces():
    """Seeded (box, objective, maximize) triples on which s'y <= 1e-12 for some
    accepted steps, so L-BFGS skips those pairs: saddles in 2-3 dims and a
    negative-curvature bowl."""
    rng = np.random.default_rng(13)
    for dim in (2, 3):
        box = ParameterBox(-1.0 - rng.random(dim), 1.0 + rng.random(dim))
        center = box.from_unit(rng.random(dim))
        signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)

        def saddle(x, center=center, signs=signs):
            d = x - center
            return float(signs @ (d * d)), 2.0 * signs * d

        yield box, saddle, False
    box = ParameterBox([-1.0], [2.0])
    yield box, _quadratic([0.3]), True


def _optimizer_results():
    surfaces = list(_surfaces()) + list(_curvature_surfaces())
    return [optimize(f, box, RngStream(seed), maximize=maximize)
            for seed, (box, f, maximize) in enumerate(surfaces)]


# SHA-256 of optimize's (x, value) bytes over `_surfaces` and
# `_curvature_surfaces`, recorded after the PI and EI gradients became their
# two partials in the posterior mean and std.
OPTIMIZER_ORACLE = "37ab0a32b26bc6f8c1615e8d078b2d8b74aeadc6e7c3544b803aed6d2082f0c3"


def optimizer_digest() -> str:
    sha = hashlib.sha256()
    for x, value in _optimizer_results():
        sha.update(np.asarray(x, dtype="<f8").tobytes())
        sha.update(np.asarray([value], dtype="<f8").tobytes())
    return sha.hexdigest()


def _two_loop_reference(grad, s_hist, y_hist):
    """The two-loop recursion that recomputes every s'y on each call."""
    q = grad.copy()
    alphas = []
    rhos = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        sy = float(s @ y)
        if sy <= 1e-12:
            rhos.append(None)
            alphas.append(0.0)
            continue
        rho = 1.0 / sy
        a = rho * float(s @ q)
        q -= a * y
        rhos.append(rho)
        alphas.append(a)
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        yy = float(y @ y)
        gamma = float(s @ y) / yy if yy > 1e-12 else 1.0
        q *= max(gamma, 1e-12)
    for (s, y), rho, a in zip(zip(s_hist, y_hist), reversed(rhos), reversed(alphas)):
        if rho is None:
            continue
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


class TestLbfgs:
    def test_optimizer_matches_recorded_bytes(self):
        assert optimizer_digest() == OPTIMIZER_ORACLE

    def test_curvature_surfaces_skip_pairs(self, monkeypatch):
        seen = []

        def recording(grad, hist):
            seen.extend(rho for _, _, rho in hist)
            return _lbfgs_direction(grad, hist)

        monkeypatch.setattr(acqopt, "_lbfgs_direction", recording)
        for seed, (box, f, maximize) in enumerate(_curvature_surfaces()):
            optimize(f, box, RngStream(seed), maximize=maximize)
        assert any(rho is None for rho in seen)
        assert any(rho is not None for rho in seen)

    def test_direction_equals_two_loop_reference(self):
        rng = np.random.default_rng(14)
        skipped = 0
        for _ in range(500):
            dim = int(rng.integers(1, 5))
            s_hist, y_hist, hist = [], [], []
            for _ in range(int(rng.integers(0, 6))):
                s = rng.normal(size=dim)
                kind = rng.random()
                if kind < 0.25:
                    y = -rng.uniform(0.1, 2.0) * s  # negative curvature
                elif kind < 0.35:
                    y = np.zeros(dim)  # a flat step
                else:
                    y = s * rng.uniform(0.1, 3.0, dim) + 0.1 * rng.normal(size=dim)
                sy = float(s @ y)
                skipped += sy <= 1e-12
                s_hist.append(s)
                y_hist.append(y)
                hist.append((s, y, None if sy <= 1e-12 else 1.0 / sy))
            grad = rng.normal(size=dim)
            got = _lbfgs_direction(grad, hist)
            assert got.tobytes() == _two_loop_reference(grad, s_hist, y_hist).tobytes()
        assert skipped > 100


if __name__ == "__main__":
    print(f'OPTIMIZER_ORACLE = "{optimizer_digest()}"')
