import numpy as np
import pytest

from rootcal.core import ParameterBox
from rootcal.kernel import KernelParams, kernel_matrix
from rootcal.metamodel import (
    DegenerateStdError,
    LENGTHSCALE_BOUNDS,
    fit,
    log_marginal_likelihood,
    model_at,
    posterior,
    posterior_grad,
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
        params = KernelParams(0.4)
        K = kernel_matrix(design, design, params)
        system = K + np.diag(noise) + model.params.jitter * np.eye(len(targets))
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.random(2)
            k = kernel_matrix(x[None, :], design, params)[0]
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


class TestLogMarginalLikelihood:
    def test_matches_dense_oracle(self):
        box, design, targets, noise = _random_problem(3, noise_scale=0.2)
        unit = box.to_unit(design)
        for l in (0.1, 0.5, 2.0):
            system = (kernel_matrix(unit, unit, KernelParams(l))
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
        assert lo <= model.params.lengthscale <= hi
        # fitted model should track the generating surface closely
        for x in np.linspace(0.1, 0.9, 7):
            want = posterior(true, [x]).mean
            assert posterior(model, [x]).mean == pytest.approx(want, abs=0.02)

    def test_fitted_lengthscale_beats_grid_neighbors(self):
        box, design, targets, noise = _random_problem(5, n=8, noise_scale=0.05)
        model = fit(box, design, targets, noise)
        unit = box.to_unit(design)
        best = log_marginal_likelihood(unit, targets, noise,
                                       model.params.lengthscale)
        for l in np.geomspace(*LENGTHSCALE_BOUNDS, 50):
            assert best >= log_marginal_likelihood(unit, targets, noise, l) - 1e-6

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
            grad = posterior_grad(model, x)
            for axis in range(2):
                hi, lo = x.copy(), x.copy()
                hi[axis] += h
                lo[axis] -= h
                p_hi, p_lo = posterior(model, hi), posterior(model, lo)
                assert grad.dmean[axis] == pytest.approx(
                    (p_hi.mean - p_lo.mean) / (2 * h), abs=1e-5)
                assert grad.dstd[axis] == pytest.approx(
                    (p_hi.std - p_lo.std) / (2 * h), abs=1e-5)

    def test_degenerate_std_raises(self):
        box = ParameterBox([0.0], [1.0])
        model = model_at(box, [[0.2], [0.8]], [1.0, 2.0], np.zeros(2), 0.5,
                         jitter=0.0)
        with pytest.raises(DegenerateStdError):
            posterior_grad(model, [0.2])
