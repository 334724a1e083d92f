import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from scipy.linalg import cho_solve, solve_triangular

from rootcal.core import ParameterBox
from rootcal.metamodel import (
    LENGTHSCALE_BOUNDS,
    STD_FLOOR,
    ModelFitError,
    Posterior,
    _cho_solve,
    _factor,
    _golden_section,
    _grid_lml,
    _kernel_vector,
    _lml,
    _plus_diagonal,
    _tri_solve,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    model_at,
    posterior,
    posterior_grad,
    posterior_means,
)


def _random_problem(seed, n=6, dim=2, noise_scale=0.0):
    rng = np.random.default_rng(seed)
    box = ParameterBox(np.zeros(dim), np.ones(dim))
    design = rng.random((n, dim))
    targets = rng.normal(size=n)
    noise = rng.uniform(0, noise_scale, n) if noise_scale else np.zeros(n)
    return box, design, targets, noise


class TestPosterior:
    def test_interpolates_noise_free_data(self):
        box, design, targets, noise = _random_problem(0)
        model = model_at(box, design, targets, noise, lengthscale=0.5)
        for x, f in zip(design, targets):
            post = posterior(model, x)
            assert abs(post.mean - f) < 1e-6
            assert post.var < 1e-6

    def test_matches_dense_solve_oracle(self):
        box, design, targets, noise = _random_problem(1, noise_scale=0.1)
        model = model_at(box, design, targets, noise, lengthscale=0.4)
        K = kernel_matrix(design, design, 0.4)
        system = K + np.diag(noise) + model.jitter * np.eye(len(targets))
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.random(2)
            k = kernel_matrix(x[None, :], design, 0.4)[0]
            mean = k @ np.linalg.solve(system, targets)
            var = 1.0 - k @ np.linalg.solve(system, k)
            post = posterior(model, x)
            assert post.mean == pytest.approx(mean, abs=1e-9)
            assert post.var == pytest.approx(max(var, 0.0), abs=1e-9)

    def test_reverts_to_prior_far_from_data(self):
        box = ParameterBox([0.0], [1.0])
        model = model_at(box, [[0.0]], [5.0], [0.0], lengthscale=0.01)
        post = posterior(model, [1.0])
        assert abs(post.mean) < 1e-6
        assert post.var == pytest.approx(1.0, abs=1e-6)


class TestPosteriorMeans:
    """Posterior means over many points at once, in one kernel matrix."""

    def _model_and_thetas(self):
        box = ParameterBox([-1.0, 2.0], [1.0, 5.0])
        _, design, targets, noise = _random_problem(3, noise_scale=0.05)
        model = model_at(box, box.from_unit(design), targets, noise, lengthscale=0.3)
        return model, box.from_unit(np.random.default_rng(4).random((25, 2)))

    def test_same_bytes_as_one_kernel_matrix(self):
        model, thetas = self._model_and_thetas()
        expected = kernel_matrix(model.box.to_unit(thetas), model.unit_design,
                                 model.lengthscale) @ model.alpha
        assert posterior_means(model, thetas).tobytes() == expected.tobytes()

    def test_agrees_with_posterior(self):
        model, thetas = self._model_and_thetas()
        for theta, mean in zip(thetas, posterior_means(model, thetas)):
            assert abs(mean - posterior(model, theta).mean) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, bad):
        model, thetas = self._model_and_thetas()
        thetas[7, 1] = bad
        with pytest.raises(ValueError, match="^thetas must be finite"):
            posterior_means(model, thetas)


    def test_degenerate_is_std_below_the_floor_and_follows_var(self):
        floor2 = STD_FLOOR**2
        for var in (0.0, 0.25 * floor2, np.nextafter(floor2, 0.0), floor2,
                    np.nextafter(floor2, 1.0), 4.0 * floor2, 0.5):
            assert Posterior(0.1, float(var)).degenerate is (math.sqrt(var) < STD_FLOOR)
        box, design, targets, noise = _random_problem(0)
        model = model_at(box, design, targets, noise, lengthscale=0.5)
        post = posterior(model, [0.3, 0.7])
        assert not post.degenerate and posterior_grad(model, [0.3, 0.7], post)[1] is not None
        flat = dataclasses.replace(post, var=0.0)  # a replaced var is what the rule reads
        assert flat.degenerate and posterior_grad(model, [0.3, 0.7], flat)[1] is None


class TestLogMarginalLikelihood:
    def test_matches_dense_oracle(self):
        box, design, targets, noise = _random_problem(3, noise_scale=0.2)
        unit = box.to_unit(design)
        for l in (0.1, 0.5, 2.0):
            system = (kernel_matrix(unit, unit, l)
                      + np.diag(noise) + 1e-10 * np.eye(len(targets)))
            sign, logdet = np.linalg.slogdet(system)
            assert sign > 0
            oracle = (-0.5 * targets @ np.linalg.solve(system, targets)
                      - 0.5 * logdet - 0.5 * len(targets) * np.log(2 * np.pi))
            got = log_marginal_likelihood(unit, targets, noise, l)
            assert got == pytest.approx(oracle, abs=1e-8)

    def test_non_pd_returns_neg_inf(self):
        # duplicated noise-free points with no jitter make the system singular
        unit = np.array([[0.5], [0.5]])
        val = log_marginal_likelihood(unit, np.array([1.0, 1.0]),
                                      np.zeros(2), 1.0, jitter=0.0)
        assert val == -np.inf


class TestFit:
    def test_recovers_reasonable_lengthscale(self):
        rng = np.random.default_rng(4)
        box = ParameterBox([0.0], [1.0])
        design = np.linspace(0, 1, 12)[:, None]
        true = model_at(box, [[0.3], [0.8]], [1.0, -1.0], [0.0, 0.0], 0.2)
        targets = np.array([posterior(true, x).mean for x in design])
        targets += rng.normal(0, 1e-4, 12)
        model = fit(box, design, targets)
        lo, hi = LENGTHSCALE_BOUNDS
        assert lo <= model.lengthscale <= hi
        # fitted model should track the generating surface closely
        for x in np.linspace(0.1, 0.9, 7):
            want = posterior(true, [x]).mean
            assert posterior(model, [x]).mean == pytest.approx(want, abs=0.02)

    def test_fitted_lengthscale_beats_grid_neighbors(self):
        box, design, targets, noise = _random_problem(5, n=8, noise_scale=0.05)
        model = fit(box, design, targets, noise)
        unit = box.to_unit(design)
        best = log_marginal_likelihood(unit, targets, noise,
                                       model.lengthscale)
        for l in np.geomspace(*LENGTHSCALE_BOUNDS, 50):
            assert best >= log_marginal_likelihood(unit, targets, noise, l) - 1e-6

    def test_zero_jitter_escalates_on_singular_system(self):
        box = ParameterBox([0.0], [1.0])
        model = model_at(box, [[0.5], [0.5]], [1.0, 1.0], np.zeros(2), 1.0, jitter=0.0)
        assert model.jitter > 0.0
        assert np.all(np.isfinite(model.alpha))

    def test_needs_two_points(self):
        box = ParameterBox([0.0], [1.0])
        with pytest.raises(ValueError):
            fit(box, [[0.5]], [1.0])


class TestPosteriorGrad:
    def test_matches_finite_differences(self):
        box = ParameterBox([-2.0, 1.0], [4.0, 5.0])
        rng = np.random.default_rng(6)
        design = box.from_unit(rng.random((6, 2)))
        targets = rng.normal(size=6)
        model = model_at(box, design, targets, np.full(6, 0.01), 0.4)
        h = 1e-6
        for _ in range(5):
            x = box.from_unit(rng.random(2))
            _, grad = posterior_grad(model, x)
            for axis in range(2):
                hi, lo = x.copy(), x.copy()
                hi[axis] += h
                lo[axis] -= h
                p_hi, p_lo = posterior(model, hi), posterior(model, lo)
                assert grad.dmean[axis] == pytest.approx(
                    (p_hi.mean - p_lo.mean) / (2 * h), abs=1e-5)
                assert grad.dstd[axis] == pytest.approx(
                    (p_hi.std - p_lo.std) / (2 * h), abs=1e-5)

    def test_none_at_noise_free_design_point(self):
        box = ParameterBox([0.0], [1.0])
        model = model_at(box, [[0.2], [0.8]], [1.0, 2.0], np.zeros(2), 0.5,
                         jitter=0.0)
        post, grad = posterior_grad(model, [0.2])
        assert post == posterior(model, [0.2])
        assert grad is None

    def test_fused_equals_unfused_reference(self):
        """The fused pair equals posterior() and the formula that built the
        kernel vector twice, bit for bit."""
        rng = np.random.default_rng(7)
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(2, 9))
            lower = rng.uniform(-3.0, 0.0, dim)
            box = ParameterBox(lower, lower + rng.uniform(0.5, 4.0, dim))
            design = box.from_unit(rng.random((n, dim)))
            model = model_at(box, design, rng.normal(size=n),
                             rng.uniform(0.0, 0.05, n),
                             float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))))
            for _ in range(5):
                x = box.from_unit(rng.random(dim))
                post, grad = posterior_grad(model, x)
                assert post == posterior(model, x)
                # reference: the Jacobian rebuilds its own kernel vector
                u = box.to_unit(x)
                diff = u[None, :] - model.unit_design
                kvec = np.exp(-np.sum(diff**2, axis=1) / (2.0 * model.lengthscale**2))
                G = -(diff * kvec[:, None]).T / model.lengthscale**2
                scale = 1.0 / box.width
                dvar = -2.0 * scale * (G @ cho_solve((model.chol, True), kvec))
                assert np.array_equal(grad.dmean, scale * (G @ model.alpha))
                assert np.array_equal(grad.dstd, dvar / (2.0 * post.std))


class TestNonFiniteInputs:
    """Non-finite inputs raise ValueError at the public entry points."""

    @pytest.mark.parametrize("theta", [[np.inf, 0.5], [0.3, -np.inf]])
    def test_infinite_theta_raises_naming_theta(self, theta):
        box, design, targets, noise = _random_problem(8, noise_scale=0.1)
        model = model_at(box, design, targets, noise, 0.4)
        for call in (posterior, posterior_grad):
            with pytest.raises(ValueError) as info:
                call(model, theta)
            assert str([float(v) for v in theta]) in str(info.value)

    def test_nan_theta_raises(self):
        box, design, targets, noise = _random_problem(8, noise_scale=0.1)
        model = model_at(box, design, targets, noise, 0.4)
        with pytest.raises(ValueError):
            posterior(model, [np.nan, 0.5])

    @pytest.mark.parametrize("which, value", [
        ("targets", np.nan), ("noise", np.nan), ("noise", np.inf)])
    def test_model_at_and_lml_reject(self, which, value):
        box, design, targets, noise = _random_problem(9, noise_scale=0.1)
        targets, noise = targets.copy(), noise.copy()
        (targets if which == "targets" else noise)[2] = value
        with pytest.raises(ValueError):
            model_at(box, design, targets, noise, 0.4)
        with pytest.raises(ValueError):
            log_marginal_likelihood(box.to_unit(design), targets, noise, 0.4)

    @pytest.mark.parametrize("which", ["targets", "unit_design"])
    def test_lml_rejects_nan_where_system_is_not_pd(self, which):
        # the factorisation stops at the negative pivot before any solve sees
        # a NaN target, and a NaN design point gives a NaN factor that dpotrs
        # does not check, so only the explicit checks catch these
        unit, targets = np.array([[0.1], [0.5], [0.9]]), np.array([0.3, -0.2, 0.5])
        (targets if which == "targets" else unit)[1] = np.nan
        with pytest.raises(ValueError):
            log_marginal_likelihood(unit, targets, [0.0, -5.0, 0.0], 0.3)

    @pytest.mark.parametrize("lengthscale", [np.inf, 1e300, np.nan, 1e-200, 0.0, -0.4])
    def test_lengthscale_without_finite_positive_2l2_raises_naming_it(self, lengthscale):
        # inf used to give a constant kernel (an LML of -1.3e9 here), 1e300 a
        # bare OverflowError from l**2, and 1e-200, whose 2 l^2 underflows to
        # 0, a NaN LML and a NaN factor
        box = ParameterBox([0.0], [1.0])
        unit, targets = np.array([[0.1], [0.5], [0.9]]), np.array([0.3, -0.2, 0.5])
        noise = np.zeros(3)
        for call in (lambda: log_marginal_likelihood(unit, targets, noise, lengthscale),
                     lambda: model_at(box, unit, targets, noise, lengthscale)):
            with pytest.raises(ValueError, match="lengthscale") as info:
                call()
            assert str(float(lengthscale)) in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fit_rejects_non_finite_noise(self, value):
        box, design, targets, noise = _random_problem(10, noise_scale=0.1)
        noise = noise.copy()
        noise[3] = value
        with pytest.raises(ValueError):
            fit(box, design, targets, noise)

    @pytest.mark.parametrize("jitter", [np.nan, np.inf])
    def test_lml_rejects_non_finite_jitter_naming_it(self, jitter):
        box, design, targets, noise = _random_problem(18, noise_scale=0.1)
        with pytest.raises(ValueError, match="^jitter must be finite") as info:
            log_marginal_likelihood(box.to_unit(design), targets, noise, 0.4, jitter)
        assert str(jitter) in str(info.value)

    def test_lml_rejects_infinite_unit_design_naming_it(self):
        box, design, targets, noise = _random_problem(19, noise_scale=0.1)
        unit = box.to_unit(design)
        unit[4, 1] = np.inf
        with pytest.raises(ValueError, match="^unit_design must be finite") as info:
            log_marginal_likelihood(unit, targets, noise, 0.4)
        assert "inf" in str(info.value)

    @pytest.mark.parametrize("which", ["design", "targets", "noise_diag"])
    def test_fit_rejects_nan_naming_the_input(self, which):
        box, design, targets, noise = _random_problem(21, noise_scale=0.1)
        inputs = {"design": design.copy(), "targets": targets.copy(), "noise_diag": noise.copy()}
        inputs[which][1] = np.nan
        with pytest.raises(ValueError, match=f"^{which} must be finite") as info:
            fit(box, inputs["design"], inputs["targets"], inputs["noise_diag"])
        assert "nan" in str(info.value)

    @pytest.mark.parametrize("noise", [0.0, [0.0], [0.01], np.zeros(2), np.zeros((3, 3))])
    def test_noise_not_one_per_point_raises(self, noise):
        # a scalar or length-1 noise used to be taken by np.diag or broadcast
        box = ParameterBox([0.0], [1.0])
        unit, targets = np.array([[0.1], [0.5], [0.9]]), np.array([0.3, -0.2, 0.5])
        for call in (lambda: log_marginal_likelihood(unit, targets, noise, 0.3),
                     lambda: model_at(box, unit, targets, noise, 0.3)):
            with pytest.raises(ValueError, match="noise_diag"):
                call()


class TestDesignLayout:
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_lml_and_model_at_keep_the_bytes(self, layout):
        box, design, targets, noise = _random_problem(16, n=7, dim=3, noise_scale=0.05)
        other = (np.asfortranarray(design) if layout == "fortran"
                 else np.repeat(design, 2, axis=1)[:, ::2])
        assert np.array_equal(other, design) and not other.flags.c_contiguous
        unit, unit_other = box.to_unit(design), box.to_unit(other)
        for l in (0.05, 0.4, 3.0):
            for jitter in (0.0, 1e-10, 1e-6):
                want = log_marginal_likelihood(unit, targets, noise, l, jitter)
                assert log_marginal_likelihood(unit_other, targets, noise, l, jitter) == want
            a, b = model_at(box, design, targets, noise, l), model_at(box, other, targets, noise, l)
            assert a.chol.tobytes() == b.chol.tobytes() and a.alpha.tobytes() == b.alpha.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_plus_diagonal_writes_through_any_layout(self, order):
        rng = np.random.default_rng(17)
        for A in (rng.random((5, 5)), rng.random((5, 4, 4)).transpose(0, 2, 1),
                  rng.random((6, 10))[:, ::2][:5]):
            A = np.array(A, order=order) if A.ndim == 2 and order == "F" else A
            v = rng.random(A.shape[-1])
            want = A + np.eye(A.shape[-1]) * v
            assert _plus_diagonal(A, v) is A
            assert np.array_equal(A, want)


class TestThetaInputs:
    def _model(self, dim):
        box, design, targets, noise = _random_problem(15, dim=dim, noise_scale=0.1)
        return model_at(box, design, targets, noise, 0.4)

    def test_scalar_list_tuple_and_array_agree_on_a_1d_model(self):
        model = self._model(1)
        for x in (0.0, 0.37, 1.0):
            want = None
            for theta in (x, np.float64(x), np.array(x), [x], (x,), np.array([x])):
                post, grad = posterior_grad(model, theta)
                got = np.concatenate([[post.mean, post.var], grad.dmean, grad.dstd])
                assert posterior(model, theta) == post
                want = got if want is None else want
                assert got.tobytes() == want.tobytes(), theta

    @pytest.mark.parametrize("theta", [[[0.2, 0.3]], [0.2], [0.2, 0.3, 0.4], 0.2])
    def test_wrong_shape_raises_naming_theta(self, theta):
        model = self._model(2)
        for call in (posterior, posterior_grad):
            with pytest.raises(ValueError, match="theta"):
                call(model, theta)


class TestRowsAndLengths:
    """A design or query grid is (n, dim), one row per point of the box, and targets and
    noise_diag hold one value per design point.  Every entry point rejects other shapes
    with a ValueError naming the input and its shape, where it used to broadcast them or
    fail inside a solver."""

    BOX = ParameterBox([0.0, -1.0], [1.0, 1.0])

    def _problem(self):
        rng = np.random.default_rng(30)
        return self.BOX.from_unit(rng.random((6, 2))), rng.normal(size=6), np.full(6, 0.01)

    def _assert_each_rejects(self, calls, message):
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("columns", [[0], [0, 1, 0]], ids=["one-axis", "three-axes"])
    def test_design_with_other_axes_rejected_naming_it(self, columns):
        # one column used to be broadcast onto both axes, three failed to broadcast
        design, targets, noise = self._problem()
        bad = design[:, columns]
        self._assert_each_rejects([lambda: fit(self.BOX, bad, targets, noise),
                                   lambda: model_at(self.BOX, bad, targets, noise, 0.4)],
                                  f"design of shape {bad.shape} is not (n, 2)")

    def test_one_dimensional_design_rejected_naming_its_shape(self):
        # it used to be read as one point of six axes
        box, design = ParameterBox([0.0], [1.0]), np.linspace(0.1, 0.9, 6)
        targets, noise = np.sin(6.0 * design), np.full(6, 0.01)
        self._assert_each_rejects([lambda: fit(box, design, targets, noise),
                                   lambda: model_at(box, design, targets, noise, 0.4)],
                                  "design of shape (6,) is not (n, 1)")

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1)])
    def test_targets_not_one_per_point_rejected_naming_them(self, shape):
        design, targets, noise = self._problem()
        bad = np.resize(targets, shape)
        unit = self.BOX.to_unit(design)
        self._assert_each_rejects([lambda: fit(self.BOX, design, bad, noise),
                                   lambda: model_at(self.BOX, design, bad, noise, 0.4),
                                   lambda: log_marginal_likelihood(unit, bad, noise, 0.4)],
                                  f"targets of shape {shape} is not one value per design point")

    @pytest.mark.parametrize("thetas", [np.full((5, 1), 1.0), np.array([0.5, 0.5])],
                             ids=["one-axis", "one-dimensional"])
    def test_query_grid_with_other_axes_rejected_naming_it(self, thetas):
        # a (5, 1) grid used to be read as five points (1.0, 1.0)
        model = model_at(self.BOX, *self._problem(), 0.4)
        with pytest.raises(ValueError, match=re.escape(f"thetas of shape {thetas.shape}")):
            posterior_means(model, thetas)

    def test_kernel_matrix_takes_only_rows(self):
        with pytest.raises(ValueError, match="dimensions") as info:
            kernel_matrix([0.1, 0.5], [0.1, 0.9], 0.3)
        assert "(2,)" in str(info.value)

    @pytest.mark.parametrize("unit_design", [0.5, [0.1, 0.5, 0.9], [[[0.1]], [[0.9]]]],
                             ids=["scalar", "one-dimensional", "three-dimensional"])
    def test_lml_takes_only_rows_of_unit_design(self, unit_design):
        # a scalar used to raise a bare TypeError, and a 1-D one kernel_matrix's message
        shape = np.shape(unit_design)
        with pytest.raises(ValueError, match=re.escape(
                f"unit_design of shape {shape} is not 2-D, one row per point")):
            log_marginal_likelihood(unit_design, [1.0, 0.0, 1.0], np.zeros(3), 0.3)

    @pytest.mark.parametrize("jitter", [1e-3, np.inf])
    def test_jitter_above_the_cap_names_both(self, jitter):
        # it used to say only "not positive definite after jitter escalation", untried
        design, targets, noise = self._problem()
        with pytest.raises(ModelFitError, match=re.escape(
                f"no jitter from {jitter} up to the cap 0.0001 made the kernel system")):
            model_at(self.BOX, design, targets, noise, 0.3, jitter)

    def test_escalation_past_the_cap_names_the_start_and_the_cap(self):
        # a negative noise variance keeps the system indefinite at every jitter
        design, targets, _ = self._problem()
        with pytest.raises(ModelFitError, match=re.escape(
                "no jitter from 1e-10 up to the cap 0.0001 made the kernel system positive "
                "definite")):
            model_at(self.BOX, design, targets, np.full(6, -1.0), 0.3)

    def test_negative_jitter_rejected_by_model_at_and_lml_alike(self):
        # the log marginal likelihood used to reduce the diagonal by it
        design, targets, noise = self._problem()
        unit = self.BOX.to_unit(design)
        self._assert_each_rejects(
            [lambda: model_at(self.BOX, design, targets, noise, 0.3, -1e-3),
             lambda: log_marginal_likelihood(unit, targets, noise, 0.3, -1e-3)],
            "jitter must be non-negative, got -0.001")


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_solves_equal_scipy_wrappers():
    """The direct LAPACK calls equal the scipy wrappers bit for bit."""
    rng = np.random.default_rng(11)
    for n in range(2, 25):
        for _ in range(5):
            L = np.linalg.cholesky(_spd(rng, n))
            b = rng.normal(size=n)
            assert np.array_equal(_cho_solve(L, b), cho_solve((L, True), b))
            assert np.array_equal(_tri_solve(L, b), solve_triangular(L, b, lower=True))


def test_tri_solve_raises_like_solve_triangular_on_singular_factor():
    L = np.array([[1.0, 0.0], [0.5, 0.0]])
    for solve in (_tri_solve, lambda L, b: solve_triangular(L, b, lower=True)):
        with pytest.raises(np.linalg.LinAlgError):
            solve(L, np.ones(2))


def _reference_fit(box, design, targets, noise):
    """fit() as one log_marginal_likelihood call per grid candidate."""
    unit = box.to_unit(np.atleast_2d(design))

    def lml(l):
        return log_marginal_likelihood(unit, targets, noise, l)

    grid = np.geomspace(*LENGTHSCALE_BOUNDS, 50)
    vals = np.array([lml(l) for l in grid])
    best = int(np.argmax(vals))
    l = _golden_section(lml, grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])
    return model_at(box, design, targets, noise, l), vals


class TestFitEqualsReference:
    def _assert_same(self, box, design, targets, noise):
        got = fit(box, design, targets, noise)
        want, vals = _reference_fit(box, design, np.asarray(targets, dtype=float),
                                    np.asarray(noise, dtype=float))
        assert got.lengthscale == want.lengthscale
        assert got.jitter == want.jitter
        assert np.array_equal(got.chol, want.chol)
        assert np.array_equal(got.alpha, want.alpha)
        # the argmax rarely exposes a last-bit change, so compare every value
        unit = box.to_unit(np.atleast_2d(design))
        assert np.array_equal(
            _grid_lml(unit, np.asarray(targets, dtype=float), np.asarray(noise, dtype=float),
                      np.geomspace(*LENGTHSCALE_BOUNDS, 50)), vals)
        return vals

    def test_random_problems(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(2, 13))
            lower = rng.uniform(-3.0, 0.0, dim)
            box = ParameterBox(lower, lower + rng.uniform(0.5, 4.0, dim))
            noise = rng.uniform(0.0, 0.05, n) if rng.random() < 0.5 else np.zeros(n)
            vals = self._assert_same(box, box.from_unit(rng.random((n, dim))),
                                     rng.normal(size=n), noise)
            assert np.all(np.isfinite(vals))

    def test_grid_mixing_finite_and_neg_inf(self):
        # a negative noise entry leaves the short-lengthscale systems positive
        # definite and the long ones not, so the grid must give -inf for a
        # candidate that does not factor and carry on to the next
        vals = self._assert_same(ParameterBox([0.0], [1.0]), [[0.1], [0.5], [0.9]],
                                 [0.3, -0.2, 0.5], [0.0, -0.5, 0.0])
        assert np.sum(np.isfinite(vals)) == 19
        assert np.sum(vals == -np.inf) == 31


def _candidate_lmls(unit, targets, noise, grid):
    """Each candidate's LML from its own system, factored and solved alone."""
    n = len(targets)
    systems = (kernel_matrix(unit, unit, l) + np.diag(noise) + 1e-10 * np.eye(n) for l in grid)
    return np.array([_lml(_factor(system), targets) for system in systems])


class TestGridEqualsPerCandidate:
    """The stacked grid equals _lml(np.linalg.cholesky(system), targets) for each
    candidate, byte for byte (through _factor, whose None gives -inf): the
    invariant the stacked log-determinants and quadratic terms rest on."""

    GRID = np.geomspace(*LENGTHSCALE_BOUNDS, 50)

    def test_random_problems(self):
        rng = np.random.default_rng(22)
        for dim in (1, 2, 3, 4):
            for n in range(2, 16):
                for noise_scale in (0.0, 0.05):
                    unit = rng.random((n, dim))
                    targets = rng.normal(size=n)
                    noise = rng.uniform(0.0, noise_scale, n) if noise_scale else np.zeros(n)
                    got = _grid_lml(unit, targets, noise, self.GRID)
                    want = _candidate_lmls(unit, targets, noise, self.GRID)
                    assert np.all(np.isfinite(got))  # the stacked path, not the fallback
                    assert got.tobytes() == want.tobytes(), (dim, n, noise_scale)

    def test_grid_mixing_finite_and_neg_inf(self):
        unit, targets = np.array([[0.1], [0.5], [0.9]]), np.array([0.3, -0.2, 0.5])
        noise = np.array([0.0, -0.5, 0.0])
        got = _grid_lml(unit, targets, noise, self.GRID)
        assert np.any(np.isfinite(got)) and np.any(got == -np.inf)
        assert got.tobytes() == _candidate_lmls(unit, targets, noise, self.GRID).tobytes()


def test_kernel_vector_equals_kernel_matrix_row():
    rng = np.random.default_rng(14)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 10))
        lower = rng.uniform(-3.0, 0.0, dim)
        box = ParameterBox(lower, lower + rng.uniform(0.5, 4.0, dim))
        model = model_at(box, box.from_unit(rng.random((n, dim))), rng.normal(size=n),
                         np.full(n, 0.01), float(np.exp(rng.uniform(-3.0, 1.0))))
        theta = box.from_unit(rng.random(dim))
        want = kernel_matrix(box.to_unit(theta)[None], model.unit_design,
                             model.lengthscale)[0]
        assert np.array_equal(_kernel_vector(model, theta)[1], want)


# SHA-256 of every posterior and posterior_grad result over `_surrogate_cases`,
# recorded before the per-model query constants were introduced.  Any change
# to these bytes is a behaviour change, not a speedup.
SURROGATE_ORACLE = "2e8412e7bb677e8430ea7a5dfb1078a4d54e2f53b6ba6424a3bd903b6f6ea7fc"


def _surrogate_models(rng):
    """Seeded models: fitted with zero noise (the deterministic-kriging path)
    and with stochastic noise, fixed-lengthscale models, and a model whose
    zero starting jitter escalates on near-duplicate design points, in 1-4 dims."""
    for dim in (1, 2, 3, 4):
        lower = rng.uniform(-3.0, 1.0, dim)
        box = ParameterBox(lower, lower + rng.uniform(0.5, 5.0, dim))
        for noise_scale in (0.0, 0.05):
            n = int(rng.integers(2, 13))
            noise = rng.uniform(0.0, noise_scale, n) if noise_scale else np.zeros(n)
            yield fit(box, box.from_unit(rng.random((n, dim))), rng.normal(size=n), noise)
        n = int(rng.integers(2, 16))
        yield model_at(box, box.from_unit(rng.random((n, dim))), rng.normal(size=n),
                       rng.uniform(0.0, 0.02, n), float(np.exp(rng.uniform(-2.0, 0.5))))
        design = box.from_unit(rng.random((4, dim)))
        design = np.vstack([design, design[:2] + 1e-9 * box.width])
        yield model_at(box, design, rng.normal(size=6), np.zeros(6), 0.7, jitter=0.0)
        # zero jitter that factors: a posterior std of 0 at some design points
        n = 2 + dim
        yield model_at(box, box.from_unit(rng.random((n, dim))), rng.normal(size=n),
                       np.zeros(n), 0.2, jitter=0.0)


def _theta_forms(theta):
    """theta as a tuple, a list and an array, and as a scalar on a 1-D model."""
    forms = [tuple(theta.tolist()), theta.tolist(), theta]
    return forms + [float(theta[0]), np.float64(theta[0])] if theta.size == 1 else forms


def _surrogate_cases():
    """(model, theta) pairs: interior points, design points and box corners."""
    rng = np.random.default_rng(20261019)
    for model in _surrogate_models(rng):
        box = model.box
        corners = [np.where(rng.random(box.dim) < 0.5, box.lower, box.upper)
                   for _ in range(2)]
        thetas = ([box.from_unit(u) for u in rng.random((5, box.dim))]
                  + list(model.design[:3]) + corners + [box.lower.copy(), box.upper.copy()])
        for theta in thetas:
            for form in _theta_forms(theta):
                yield model, form


def surrogate_digest() -> str:
    sha = hashlib.sha256()
    for model, theta in _surrogate_cases():
        post = posterior(model, theta)
        fused, grad = posterior_grad(model, theta)
        chunks = [[post.mean, post.var, fused.mean, fused.var]]
        if grad is not None:
            chunks += [grad.dmean, grad.dstd]
        for chunk in chunks:
            sha.update(np.asarray(chunk, dtype="<f8").tobytes())
    return sha.hexdigest()


class TestSurrogateBitIdentity:
    def test_corpus_covers_the_paths(self):
        models = list(_surrogate_models(np.random.default_rng(20261019)))
        assert {m.box.dim for m in models} == {1, 2, 3, 4}
        assert any(np.all(m.noise_diag == 0.0) and m.jitter == 1e-10 for m in models)
        assert any(np.any(m.noise_diag > 0.0) for m in models)
        # the fourth of each dimension's five models starts from zero jitter on
        # near-duplicate points
        assert all(m.jitter > 0.0 for m in models[3::5])
        cases = list(_surrogate_cases())
        assert any(posterior_grad(m, t)[1] is None for m, t in cases)
        assert {type(t) for _, t in cases} >= {tuple, list, np.ndarray, float, np.float64}

    def test_outputs_match_recorded_bytes(self):
        assert surrogate_digest() == SURROGATE_ORACLE

    def test_gradient_from_a_given_posterior_matches_bytes(self):
        for model, theta in _surrogate_cases():
            post = posterior(model, theta)
            got_post, got = posterior_grad(model, theta, post)
            want_post, want = posterior_grad(model, theta)
            assert got_post is post
            assert (np.array([post.mean, post.var]).tobytes()
                    == np.array([want_post.mean, want_post.var]).tobytes())
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dmean.tobytes() == want.dmean.tobytes()
                assert got.dstd.tobytes() == want.dstd.tobytes()


# SHA-256 of the fit layer's results over `_fit_problems`: the public
# log_marginal_likelihood at several lengthscales and jitters, the 50 grid
# values and the fitted model, recorded before the stacked grid pass.
FIT_ORACLE = "29921295722c61a2c793a5d6ad7bbd6525ab265e3cf8c6e9e869b3c58e4e07f3"

FIT_LENGTHSCALES = (0.01, 0.05, 0.3, 1.0, 4.0, 100.0)


def _fit_problems(rng):
    """Seeded (box, design, targets, noise) problems in 1-4 dims with n from 2
    to 15, zero and stochastic noise, near-duplicate design points, and a 1-D
    problem whose grid mixes finite values with -inf."""
    for dim in (1, 2, 3, 4):
        lower = rng.uniform(-3.0, 1.0, dim)
        box = ParameterBox(lower, lower + rng.uniform(0.5, 5.0, dim))
        for n in (2, int(rng.integers(3, 15)), 15):
            for noise_scale in (0.0, 0.05):
                noise = rng.uniform(0.0, noise_scale, n) if noise_scale else np.zeros(n)
                yield box, box.from_unit(rng.random((n, dim))), rng.normal(size=n), noise
        design = box.from_unit(rng.random((4, dim)))
        design = np.vstack([design, design[:2] + 1e-9 * box.width])
        for noise in (np.zeros(6), rng.uniform(0.0, 0.02, 6)):
            yield box, design, rng.normal(size=6), noise
    yield (ParameterBox([0.0], [1.0]), np.array([[0.1], [0.5], [0.9]]),
           np.array([0.3, -0.2, 0.5]), np.array([0.0, -0.5, 0.0]))


def _fit_results():
    """Per problem: public LMLs, the grid's values and the fitted model."""
    rng, grid = np.random.default_rng(20261020), np.geomspace(*LENGTHSCALE_BOUNDS, 50)
    for box, design, targets, noise in _fit_problems(rng):
        unit = box.to_unit(design)
        scales = FIT_LENGTHSCALES + tuple(np.exp(rng.uniform(-4.6, 4.6, 3)))
        lmls = [log_marginal_likelihood(unit, targets, noise, l, jitter)
                for l in scales for jitter in (0.0, 1e-10, 1e-6)]
        yield lmls, _grid_lml(unit, targets, noise, grid), fit(box, design, targets, noise)


def fit_digest() -> str:
    sha = hashlib.sha256()
    for lmls, vals, model in _fit_results():
        for chunk in (lmls, vals, [model.lengthscale, model.jitter], model.chol, model.alpha):
            sha.update(np.asarray(chunk, dtype="<f8").tobytes())
    return sha.hexdigest()


class TestFitBitIdentity:
    def test_corpus_covers_the_paths(self):
        problems = list(_fit_problems(np.random.default_rng(20261020)))
        assert {box.dim for box, *_ in problems} == {1, 2, 3, 4}
        assert {d.shape[0] for _, d, _, _ in problems} >= {2, 6, 15}
        assert any(np.all(s == 0.0) for *_, s in problems)
        assert any(np.any(s > 0.0) for *_, s in problems)
        results = list(_fit_results())
        lmls = np.concatenate([r[0] for r in results])
        vals = np.concatenate([r[1] for r in results])
        assert np.any(np.isfinite(lmls)) and np.any(lmls == -np.inf)
        assert np.any(np.isfinite(vals)) and np.any(vals == -np.inf)

    def test_outputs_match_recorded_bytes(self):
        assert fit_digest() == FIT_ORACLE

    def test_per_candidate_fallback_keeps_the_bytes(self, monkeypatch):
        """With the stacked cholesky refused on every grid, each candidate is
        factored alone whatever the data, and the bytes hold."""
        cholesky, refused = np.linalg.cholesky, []

        def two_d_only(a):
            if np.ndim(a) > 2:
                refused.append(a.shape)
                raise np.linalg.LinAlgError("stacked call refused")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", two_d_only)
        assert fit_digest() == FIT_ORACLE
        # each problem's grid runs twice: directly and inside fit
        assert len(refused) == 2 * len(list(_fit_problems(np.random.default_rng(20261020))))


if __name__ == "__main__":
    print(f'SURROGATE_ORACLE = "{surrogate_digest()}"')
    print(f'FIT_ORACLE = "{fit_digest()}"')
