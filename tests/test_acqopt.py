import collections
import hashlib
import math

import numpy as np
import pytest

from rootcal import acqopt, engine
from rootcal.acqopt import (
    OptimizationError,
    _lbfgs_direction,
    _local_searches,
    _project,
    _rowdot,
    optimize,
)
from rootcal.acquisition import AcqKind, Family, Incumbent, Mode
from rootcal.core import ParameterBox, RngStream
from rootcal.engine import RunConfig, acquisition_objective, observation_model, run_calibration
from rootcal.metamodel import model_at


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

    def test_maximize_is_minimizing_the_negation(self):
        """One search path for both directions: on every maximized surface,
        optimize(f, maximize=True) and optimize(-f) from the same stream
        return the same x, negated values, and make the same objective calls
        and gradient requests."""
        def negated(objective):
            def f(theta):
                val, gradient = objective(theta)
                return -val, None if gradient is None else (lambda: -gradient())
            return f

        surfaces = list(_surfaces()) + list(_curvature_surfaces())
        maximized = 0
        for seed, (box, objective, maximize) in enumerate(surfaces):
            if not maximize:
                continue
            maximized += 1
            up, down = collections.Counter(), collections.Counter()
            x_up, v_up = optimize(_counted(objective, up), box, RngStream(seed),
                                  maximize=True)
            x_down, v_down = optimize(_counted(negated(objective), down), box,
                                      RngStream(seed))
            assert x_up.tobytes() == x_down.tobytes()
            assert np.float64(-v_up).tobytes() == np.float64(v_down).tobytes()
            assert up == down
        assert maximized == 13

    def test_all_non_finite_raises(self):
        box = ParameterBox([0.0], [1.0])

        def f(x):
            return float("nan"), lambda: np.zeros(1)

        with pytest.raises(OptimizationError):
            optimize(f, box, RngStream(6))


def _counted(objective, calls):
    """`objective` with each call and each gradient request counted in
    `calls` by kind and point."""
    def f(theta):
        calls["value", theta.tobytes()] += 1
        val, gradient = objective(theta)
        if gradient is None:
            return val, None

        def requested():
            calls["gradient", theta.tobytes()] += 1
            return gradient()

        return val, requested

    return f


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
            yield box, acquisition_objective(model, kind, inc), kind.maximize


class TestProjection:
    LOWER, UPPER = np.array([0.0, -1.0]), np.array([1.0, 2.0])

    def _iterates(self, f, x0):
        seen = []

        def recorded(x):
            seen.append(x.copy())
            return f(x)

        _local_searches(recorded, np.array([x0], dtype=float), self.LOWER, self.UPPER)
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

    def test_one_axis_clamp_matches_project_bytes(self):
        """Also on signed zeros, where np.maximum and np.minimum give their
        second argument on a tie and Python's max and min their first."""
        values = [0.0, -0.0, 1.0, -1.0, 0.5, -5.0, 7.0, np.inf, -np.inf, np.nan]
        for lo, hi in ((0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-1.0, 1.0)):
            for x in values:
                want = _project(np.array([x]), np.array([lo]), np.array([hi]))
                assert np.float64(acqopt._clamp(x, lo, hi)).tobytes() == want.tobytes()

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
        requests], with value and gradient in the minimization's sign.  Each
        start runs through the lockstep loop alone, so its calls are its own;
        `TestLockstep` checks that running all starts together makes the
        same calls and gradient requests."""
        searches, local_searches = [], acqopt._local_searches

        def one_start_at_a_time(f, x0, lower, upper, sign):
            results = []
            for row in x0:
                searches.append([])
                results.append(local_searches(f, row[None], lower, upper, sign))
            return (np.concatenate([x for x, _ in results]),
                    np.concatenate([val for _, val in results]))

        monkeypatch.setattr(acqopt, "_local_searches", one_start_at_a_time)
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
# `_curvature_surfaces`, recorded after the descent test began to ignore the
# part of the L-BFGS direction that projection removes at a box face.
OPTIMIZER_ORACLE = "7642818af811621faa431e13aeccf54069bef959f401d515bc530c5250ae8b82"


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
        seen, pair = [], acqopt._pair

        def recording(s, y, live):
            seen.extend(_rowdot(s, y)[live] <= 1e-12)
            return pair(s, y, live)

        monkeypatch.setattr(acqopt, "_pair", recording)
        for seed, (box, f, maximize) in enumerate(_curvature_surfaces()):
            optimize(f, box, RngStream(seed), maximize=maximize)
        assert any(seen)
        assert not all(seen)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="CHANGES.md FOUND on acqopt._pair: a negative-curvature "
                              "newest pair clamps the scaling to 1e-12, so the next "
                              "accepted step barely moves x")
    def test_negative_curvature_pair_still_moves_x(self):
        """Minimizing -x'x from 0.3 in [-1, 2]: the first accepted step's pair
        has s'y < 0 and y'y > 1e-12, and the step after it should move x by
        more than 1e-10 |grad|."""
        stepped_from = []  # (x, gradient) at each point the search steps from

        def concave(x):
            def gradient():
                stepped_from.append((x.copy(), -2.0 * x))
                return -2.0 * x
            return float(-(x @ x)), gradient

        _local_searches(concave, np.array([[0.3]]), np.array([-1.0]), np.array([2.0]))
        if len(stepped_from) < 3:
            pytest.fail(f"the search stepped from only {len(stepped_from)} points")
        (x0, g0), (x1, g1), (x2, _) = stepped_from[:3]
        s, y = x1 - x0, g1 - g0
        if not (s @ y < 0 and y @ y > 1e-12):
            pytest.fail(f"the first pair has s'y {s @ y} and y'y {y @ y}")
        assert np.linalg.norm(x2 - x1) > 1e-10 * np.linalg.norm(g1)

    def test_direction_equals_two_loop_reference(self):
        """Each row of the stacked recursion matches the scalar one on that
        row's own history, including rows whose pairs are skipped."""
        rng = np.random.default_rng(14)
        skipped = 0
        for _ in range(200):
            dim, pairs, rows = (int(k) for k in rng.integers((1, 0, 1), (5, 6, 8)))
            s = rng.normal(size=(pairs, rows, dim))
            kind = rng.random((pairs, rows, 1))
            y = s * rng.uniform(0.1, 3.0, s.shape) + 0.1 * rng.normal(size=s.shape)
            # a quarter of the pairs with negative curvature, a tenth flat
            y = np.where(kind < 0.25, -rng.uniform(0.1, 2.0, kind.shape) * s, y)
            y = np.where((kind >= 0.25) & (kind < 0.35), 0.0, y)
            skipped += int(np.sum(_rowdot(s, y) <= 1e-12))
            made = [acqopt._pair(s[j], y[j], np.ones(rows, dtype=bool)) for j in range(pairs)]
            grad = rng.normal(size=(rows, dim))
            got = _lbfgs_direction(grad, [p for p, _ in made], made[-1][1] if made else None)
            for i in range(rows):
                want = _two_loop_reference(grad[i], list(s[:, i]), list(y[:, i]))
                assert got[i].tobytes() == want.tobytes()
        assert skipped > 100


def _local_search_reference(f, x0, lower, upper, face_test=True):
    """One start's projected L-BFGS search on its own: the per-start loop the
    lockstep `_local_searches` must match byte for byte, with the scalar
    two-loop recursion `_two_loop_reference`.  `face_test=False` gives the
    old descent test, which also counted the part of d that projection
    removes at a box face."""
    x = _project(x0, lower, upper)
    val, gradient = f(x)
    if not np.isfinite(val):
        return x, val
    s_hist, y_hist, grad = [], [], None
    for _ in range(acqopt.ITERS):
        if gradient is None:
            break
        grad, grad_prev = gradient(), grad
        if grad_prev is not None:
            s_hist = (s_hist + [x - x_prev])[-acqopt.MEMORY:]
            y_hist = (y_hist + [grad - grad_prev])[-acqopt.MEMORY:]
        proj_grad = _project(x - grad, lower, upper) - x
        if math.sqrt(float(proj_grad @ proj_grad)) < acqopt.CONVERGENCE_TOL:
            break
        d = _two_loop_reference(grad, s_hist, y_hist)
        kept = d
        if face_test:
            kept = np.where(((x <= lower) & (d < 0)) | ((x >= upper) & (d > 0)), 0.0, d)
        if float(kept @ grad) >= 0:
            d = -grad
        step = 1.0
        while step > 1e-12:
            x_new = _project(x + step * d, lower, upper)
            val_new, gradient = f(x_new)
            decrease = acqopt.SUFFICIENT_DECREASE * float(grad @ (x_new - x))
            if np.isfinite(val_new) and val_new <= val + decrease:
                break
            step *= 0.5
        else:
            break
        x_prev, x, val = x, x_new, val_new
    return x, val


def _signed(objective, maximize):
    """The objective in the minimization's sign, as `_local_searches` reads
    it with `sign` -1."""
    if not maximize:
        return objective

    def f(x):
        val, gradient = objective(x)
        if gradient is None:
            return -1.0 * val, None
        return -1.0 * val, lambda: -1.0 * np.asarray(gradient(), dtype=float)

    return f


def _both_searches(objective, box, rng, maximize):
    """The start points, and per start the lockstep and the reference
    (x, value), each with the objective calls and gradient requests it made,
    counted by point."""
    x0 = box.lower + rng.generator().random((acqopt.STARTS, box.dim)) * box.width
    calls = collections.Counter()
    counted = _counted(_signed(objective, maximize), calls)
    lockstep = list(zip(*_local_searches(counted, x0, box.lower, box.upper)))
    lockstep_calls = calls.copy()
    calls.clear()
    reference = [_local_search_reference(counted, row, box.lower, box.upper) for row in x0]
    return x0, (lockstep, lockstep_calls), (reference, calls)


def _as_bytes(results):
    return [(x.tobytes(), np.float64(val).tobytes()) for x, val in results]


def _best(results, maximize):
    """`optimize`'s reduction of per-start (x, value) results."""
    best_x, best_val = None, np.inf
    for x, val in results:
        if np.isfinite(val) and (
            val < best_val
            or (val == best_val and best_x is not None and tuple(x) < tuple(best_x))
        ):
            best_x, best_val = x, val
    return best_x, (-1.0 if maximize else 1.0) * best_val


@pytest.fixture(scope="module")
def himmelblau_surfaces():
    """The 80 acquisition surfaces, as (box, objective, rng, maximize), that
    himmelblau2d min-lcb-krig and root-ei-sk-rss optimise at seed 1 over
    macro reps 0-3 and all 10 iterations of the paper protocol."""
    surfaces = []

    def recording(objective, box, rng, maximize=False):
        surfaces.append((box, objective, rng, maximize))
        return optimize(objective, box, rng, maximize=maximize)

    methods = (dict(stochastic=False, acq=AcqKind(Family.LCB, Mode.MIN), use_rss=False),
               dict(stochastic=True, acq=AcqKind(Family.EI, Mode.ROOT), use_rss=True))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "optimize", recording)
        for method in methods:
            config = RunConfig(seed=1, **method)
            for rep in range(4):
                run_calibration(observation_model("himmelblau2d", None, 1, rep), config, rep)
    assert len(surfaces) == 80
    return surfaces


def _mark(theta):
    return int.from_bytes(hashlib.sha256(theta.tobytes()).digest()[:4], "little")


def _flaky(objective):
    """`objective` made non-finite at about one point in seven and otherwise
    degenerate (gradient None) at about one in five, each a pure function of
    theta, so that starts leave the lockstep at their start and mid-search."""
    def f(theta):
        val, gradient = objective(theta)
        if _mark(theta) % 7 == 0:
            return math.nan, gradient
        return val, None if _mark(theta) % 5 == 0 else gradient

    return f


class TestLockstep:
    """The lockstep loop makes each start's decisions as if it searched alone."""

    def test_rowdot_is_per_row_matmul_bytes(self):
        """Also with `a` broadcast over a leading axis of `b`, as the line
        search takes the decrease of every trial at once."""
        rng = np.random.default_rng(15)
        specials = np.array([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150, 1.0, -1.0])

        def rows_of(shape):
            return np.where(rng.random(shape) < 0.2, rng.choice(specials, shape),
                            rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape))

        for dim in (1, 2, 3, 5):
            for _ in range(300):
                lead, rows = (int(k) for k in rng.integers(1, (4, 13)))
                a, b = rows_of((rows, dim)), rows_of((lead, rows, dim))
                got, got_stacked = _rowdot(a, b[0]), _rowdot(a, b)
                assert got.dtype == np.float64 and got.shape == (rows,)
                assert got_stacked.shape == (lead, rows)
                for i in range(rows):
                    assert got[i].tobytes() == np.float64(a[i] @ b[0, i]).tobytes()
                    for j in range(lead):
                        want = np.float64(a[i] @ b[j, i]).tobytes()
                        assert got_stacked[j, i].tobytes() == want

    def _assert_matches_reference(self, surfaces):
        for box, objective, rng, maximize in surfaces:
            _, (lockstep, lockstep_calls), (reference, calls) = _both_searches(
                objective, box, rng, maximize)
            assert _as_bytes(lockstep) == _as_bytes(reference)
            assert lockstep_calls == calls
            x, value = optimize(objective, box, rng, maximize=maximize)
            assert _as_bytes([(x, value)]) == _as_bytes([_best(reference, maximize)])

    def test_matches_reference_on_seeded_surfaces(self):
        surfaces = list(_surfaces()) + list(_curvature_surfaces())
        self._assert_matches_reference(
            (box, f, RngStream(seed), maximize)
            for seed, (box, f, maximize) in enumerate(surfaces))

    def test_matches_reference_on_himmelblau_surfaces(self, himmelblau_surfaces):
        self._assert_matches_reference(himmelblau_surfaces)

    def test_starts_that_leave_keep_the_others_in_line(self):
        surfaces = list(_surfaces()) + list(_curvature_surfaces())
        counts = collections.Counter()
        for seed, (box, objective, maximize) in enumerate(surfaces):
            x0, (lockstep, _), (reference, calls) = _both_searches(
                _flaky(objective), box, RngStream(seed), maximize)
            assert _as_bytes(lockstep) == _as_bytes(reference)
            starts = {row.tobytes() for row in _project(x0, box.lower, box.upper)}
            for x, val in reference:
                counts["non-finite start"] += not np.isfinite(val)
                counts["degenerate stop"] += (x.tobytes() not in starts
                                              and _mark(x) % 5 == 0)
            counts["non-finite trial"] += sum(
                1 for kind, point in calls
                if kind == "value" and point not in starts
                and _mark(np.frombuffer(point)) % 7 == 0)
        assert min(counts.values()) > 0, counts

    def test_one_axis_path_matches_the_lockstep(self, monkeypatch):
        """On each one-axis surface, as it is and flaky, the start-by-start
        float search gives the lockstep's (x, value) for each start, byte for
        byte, and the same objective calls and gradient requests by point.
        The lockstep skips pairs on the negative-curvature bowl."""
        skipped, pair = [], acqopt._pair

        def recording(s, y, live):
            skipped.extend(_rowdot(s, y)[live] <= 1e-12)
            return pair(s, y, live)

        monkeypatch.setattr(acqopt, "_pair", recording)
        surfaces = list(_surfaces()) + list(_curvature_surfaces())
        runs = non_finite = 0
        for seed, (box, objective, maximize) in enumerate(surfaces):
            if box.dim != 1:
                continue
            gen = RngStream(seed).generator()
            x0 = box.lower + gen.random((acqopt.STARTS, 1)) * box.width
            for f in (objective, _flaky(objective)):
                results = []
                for search in (acqopt._lockstep_searches, acqopt._one_axis_searches):
                    calls = collections.Counter()
                    xs, vals = search(_counted(f, calls), x0, box.lower, box.upper,
                                      -1.0 if maximize else 1.0)
                    results.append((_as_bytes(zip(xs, vals)), calls))
                assert results[1] == results[0]
                runs += 1
                non_finite += int(np.sum(~np.isfinite(vals)))
        assert runs == 20 and non_finite > 0
        assert any(skipped) and not all(skipped)

    def test_face_test_beats_the_old_descent_test(self, himmelblau_surfaces):
        """On the 80 himmelblau2d surfaces, judging descent only on the part
        of d that projection keeps, against the old test on all of d: at
        least 25% fewer objective calls, no optimum worse by more than 1e-12
        relative, and at least as many optima better as worse.  These
        bounds were fixed before the corpus was first run."""
        calls = collections.Counter()

        def counted(objective, key):
            def f(theta):
                calls[key] += 1
                return objective(theta)
            return f

        better = worse = 0
        for box, objective, rng, maximize in himmelblau_surfaces:
            sign = -1.0 if maximize else 1.0
            _, value = optimize(counted(objective, "face"), box, rng, maximize=maximize)
            x0 = box.lower + rng.generator().random((acqopt.STARTS, box.dim)) * box.width
            f = counted(_signed(objective, maximize), "old")
            _, old = _best([_local_search_reference(f, row, box.lower, box.upper, False)
                            for row in x0], maximize)
            new, old = sign * value, sign * old  # in the minimization's sign
            worse += new > old
            better += new < old
            assert new - old <= 1e-12 * abs(old), (new, old)
        assert calls["face"] <= 0.75 * calls["old"], calls
        assert better >= worse, (better, worse)


def _made_up_searches(gen, dim, finite=True):
    """Per-start (xs, vals) as `_local_searches` returns them: coordinates
    from a set holding -0.0 and 0.0, values from a set holding ties,
    signed zeros, +-inf and nan, or only the last three."""
    xs = gen.choice([-0.0, 0.0, 0.25, 0.5, 1.0], (acqopt.STARTS, dim))
    values = [np.inf, -np.inf, np.nan] + finite * [-1.0, -0.0, 0.0, 0.5]
    return xs, gen.choice(values, acqopt.STARTS)


class TestPick:
    """`optimize`'s pick among the starts, against the loop it replaced (`_best`)."""

    @pytest.mark.parametrize("maximize", [False, True])
    def test_matches_the_loop(self, monkeypatch, maximize):
        gen = np.random.default_rng(22)
        picked = raised = 0
        for case in range(600):
            xs, vals = _made_up_searches(gen, 1 + case % 3, finite=case % 20 > 0)
            monkeypatch.setattr(acqopt, "_local_searches", lambda *args: (xs, vals))
            want_x, want_val = _best(zip(xs, vals), maximize)
            box = ParameterBox(np.zeros(xs.shape[1]), np.ones(xs.shape[1]))
            if want_x is None:
                with pytest.raises(OptimizationError):
                    optimize(None, box, RngStream(case), maximize)
                raised += 1
                continue
            x, val = optimize(None, box, RngStream(case), maximize)
            assert x.tobytes() == want_x.tobytes()
            assert np.float64(val).tobytes() == np.float64(want_val).tobytes()
            picked += 1
        assert picked > 500 and raised == 30

    def test_equal_values_go_to_the_least_point_then_the_first_start(self, monkeypatch):
        xs = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.5], [-0.0, 0.5], [0.0, 0.25]]
                      + [[1.0, 1.0]] * (acqopt.STARTS - 5))
        vals = np.array([1.0, 1.0, 1.0, 1.0, 2.0] + [np.nan] * (acqopt.STARTS - 5))
        monkeypatch.setattr(acqopt, "_local_searches", lambda *args: (xs, vals))
        x, val = optimize(None, ParameterBox([-1.0, -1.0], [1.0, 1.0]), RngStream(0))
        # starts 1, 2 and 3 tie on value and point (-0.0 == 0.0); start 1 is first
        assert x.tobytes() == xs[1].tobytes() and val == 1.0


if __name__ == "__main__":
    print(f'OPTIMIZER_ORACLE = "{optimizer_digest()}"')
