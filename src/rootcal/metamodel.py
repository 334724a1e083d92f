"""Kriging and stochastic-kriging posteriors with log-marginal-likelihood fitting.

Inputs are mapped affinely to the unit hypercube before any kernel
evaluation, so one lengthscale is meaningful across axes with different
units.  Posterior gradients are reported in original parameter units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .core import ParameterBox
from .kernel import KernelParams, kernel_matrix, kernel_vector_grad

__all__ = [
    "GpModel",
    "Posterior",
    "PosteriorGrad",
    "ModelFitError",
    "DegenerateStdError",
    "STD_FLOOR",
    "fit",
    "log_marginal_likelihood",
    "posterior",
    "posterior_grad",
]

STD_FLOOR = 1e-9

LENGTHSCALE_BOUNDS = (1e-2, 1e2)


class ModelFitError(RuntimeError):
    """Kernel system could not be factorized even after jitter escalation."""


class DegenerateStdError(RuntimeError):
    """Posterior std below the degeneracy floor; caller should use limit forms."""


@dataclass(frozen=True)
class Posterior:
    mean: float
    var: float

    @property
    def std(self) -> float:
        return float(np.sqrt(self.var))


@dataclass(frozen=True)
class PosteriorGrad:
    dmean: np.ndarray
    dstd: np.ndarray


@dataclass(frozen=True)
class GpModel:
    box: ParameterBox
    design: np.ndarray  # (n, m_theta), original units
    targets: np.ndarray  # (n,)
    noise_diag: np.ndarray  # (n,), all-zero in deterministic mode
    params: KernelParams
    chol: np.ndarray  # lower Cholesky factor of K + Sigma + jitter I
    alpha: np.ndarray  # (K + Sigma + jitter I)^-1 targets

    @property
    def unit_design(self) -> np.ndarray:
        return self.box.to_unit(self.design)

    @property
    def size(self) -> int:
        return self.design.shape[0]


def _system(unit_design, noise_diag, lengthscale) -> np.ndarray:
    """K + Sigma; callers add jitter I to it."""
    K = kernel_matrix(unit_design, unit_design, KernelParams(lengthscale))
    return K + np.diag(noise_diag)


def log_marginal_likelihood(unit_design, targets, noise_diag, lengthscale,
                            jitter: float = 1e-10) -> float:
    """-1/2 f'(K+S)^-1 f - 1/2 log det(K+S) - n/2 log 2pi; -inf if not PD."""
    unit_design = np.asarray(unit_design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = targets.size
    system = _system(unit_design, np.asarray(noise_diag, dtype=float), lengthscale)
    system = system + jitter * np.eye(n)
    try:
        L = np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        return -np.inf
    alpha = cho_solve((L, True), targets)
    return float(
        -0.5 * targets @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2 * np.pi)
    )


def _golden_section(f, lo, hi, rel_tol=1e-4):
    """Maximize f over [lo, hi] in log space."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(lo), np.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(np.exp(c)), f(np.exp(d))
    while (b - a) > rel_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(np.exp(d))
    return np.exp((a + b) / 2.0)


def fit(box: ParameterBox, design, targets, noise_diag=None) -> GpModel:
    """Fit the lengthscale by maximizing the log marginal likelihood.

    The search evaluates 50 log-spaced candidates over LENGTHSCALE_BOUNDS,
    then refines the best one by golden-section search.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n = design.shape[0]
    if n < 2:
        raise ValueError("need at least 2 design points to fit")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    if noise_diag is None:
        noise_diag = np.zeros(n)
    noise_diag = np.asarray(noise_diag, dtype=float)
    if noise_diag.shape != (n,):
        raise ValueError("noise_diag length must match design size")

    unit = box.to_unit(design)

    def lml(l):
        return log_marginal_likelihood(unit, targets, noise_diag, l)

    grid = np.geomspace(*LENGTHSCALE_BOUNDS, 50)
    vals = np.array([lml(l) for l in grid])
    if not np.any(np.isfinite(vals)):
        raise ModelFitError("log marginal likelihood is -inf over the whole grid")
    best = int(np.argmax(vals))
    g_lo = grid[max(best - 1, 0)]
    g_hi = grid[min(best + 1, grid.size - 1)]
    return model_at(box, design, targets, noise_diag, _golden_section(lml, g_lo, g_hi))


def model_at(box: ParameterBox, design, targets, noise_diag, lengthscale,
             jitter: float = 1e-10) -> GpModel:
    """Build a model at a fixed lengthscale, escalating jitter x10 up to 1e-4."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    targets = np.asarray(targets, dtype=float)
    noise_diag = np.asarray(noise_diag, dtype=float)
    base = _system(box.to_unit(design), noise_diag, lengthscale)
    while jitter <= 1e-4:
        try:
            L = np.linalg.cholesky(base + jitter * np.eye(base.shape[0]))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
    else:
        raise ModelFitError("kernel system not positive definite after jitter escalation")
    return GpModel(box, design, targets, noise_diag, KernelParams(lengthscale, jitter),
                   L, cho_solve((L, True), targets))


def posterior(model: GpModel, theta) -> Posterior:
    u = model.box.to_unit(np.atleast_1d(np.asarray(theta, dtype=float)))
    kvec = kernel_matrix(u[None, :], model.unit_design, model.params)[0]
    mean = float(kvec @ model.alpha)
    w = solve_triangular(model.chol, kvec, lower=True)
    var = 1.0 - float(w @ w)
    return Posterior(mean=mean, var=max(var, 0.0))


def posterior_grad(model: GpModel, theta) -> PosteriorGrad:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    u = model.box.to_unit(theta)
    post = posterior(model, theta)
    if post.std < STD_FLOOR:
        raise DegenerateStdError("posterior std below degeneracy floor")
    kvec = kernel_matrix(u[None, :], model.unit_design, model.params)[0]
    G = kernel_vector_grad(u, model.unit_design, model.params)  # (m_theta, n)
    # chain rule of the unit-cube mapping back to original units
    scale = 1.0 / model.box.width
    dmean = scale * (G @ model.alpha)
    Kinv_k = cho_solve((model.chol, True), kvec)
    dvar = -2.0 * scale * (G @ Kinv_k)
    dstd = dvar / (2.0 * post.std)
    return PosteriorGrad(dmean=dmean, dstd=dstd)
