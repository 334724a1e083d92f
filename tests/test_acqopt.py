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
from rootcal.metamodel import STD_FLOOR, model_at, posterior, posterior_grad


def _quadratic(center):
    center = np.asarray(center, dtype=float)

    def f(x):
        d = x - center
        return float(d @ d), lambda: 2.0 * d

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
            return float(-(x[0] - 0.3) ** 2), lambda: np.array([-2.0 * (x[0] - 0.3)])

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
            return float(np.sin(3 * x[0]) + 0.1 * x[0]), lambda: np.array(
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
            return float("nan"), lambda: np.zeros(1)

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
                post = posterior(model, theta)
                if post.std < STD_FLOOR:
                    return acq_value(kind, post, inc), None
                return acq_value(kind, post, inc), lambda: acq_gradient(
                    kind, post, posterior_grad(model, theta, post)[1], inc)

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
            return float(slope @ x), lambda: slope

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


class TestGradientRequests:
    """A gradient is asked for only at a point the search steps from."""

    def _recorded_searches(self, monkeypatch):
        """Per local search, each objective call as [x, value, gradient,
        requests], with value and gradient in the minimization's sign."""
        searches, local_search = [], acqopt._local_search

        def recording_search(f, x0, lower, upper):
            searches.append([])
            return local_search(f, x0, lower, upper)

        monkeypatch.setattr(acqopt, "_local_search", recording_search)
        surfaces = list(_surfaces()) + list(_curvature_surfaces())
        for seed, (box, objective, maximize) in enumerate(surfaces):
            sign = -1.0 if maximize else 1.0

            def recorded(theta, objective=objective, sign=sign):
                value, gradient = objective(theta)
                call = [theta.copy(), sign * value, None, 0]
                searches[-1].append(call)
                if gradient is None:
                    return value, None
                call[2] = sign * np.asarray(gradient(), dtype=float)

                def requested():
                    call[3] += 1
                    return gradient()

                return value, requested

            optimize(recorded, box, RngStream(seed), maximize=maximize)
        return searches

    def test_only_starts_and_accepted_non_final_steps(self, monkeypatch):
        searches = self._recorded_searches(monkeypatch)
        rejected = ran_out = 0
        for calls in searches:
            # replay the Armijo rule on the recorded trials
            accepted = [0] if np.isfinite(calls[0][1]) else []
            for i in range(1, len(calls)):
                x, val, grad, _ = calls[accepted[-1]]
                x_new, val_new = calls[i][:2]
                decrease = acqopt.SUFFICIENT_DECREASE * float(grad @ (x_new - x))
                if np.isfinite(val_new) and val_new <= val + decrease:
                    accepted.append(i)
            stepped_from = [i for p, i in enumerate(accepted)
                            if p < acqopt.ITERS and calls[i][2] is not None]
            assert all(call[3] <= 1 for call in calls)
            assert [i for i, call in enumerate(calls) if call[3]] == stepped_from
            assert sum(call[3] for call in calls) == len(stepped_from)
            rejected += len(calls) - len(accepted)
            if len(accepted) == acqopt.ITERS + 1:
                ran_out += 1
                assert calls[accepted[-1]][3] == 0  # the final iterate's
        assert len(searches) == acqopt.STARTS * 30
        assert rejected > 0 and ran_out > 0


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
            return float(signs @ (d * d)), lambda: 2.0 * signs * d

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
