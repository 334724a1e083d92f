"""Squared-exponential kriging and stochastic-kriging posteriors with
log-marginal-likelihood fitting.

Inputs are mapped affinely to the unit hypercube before any kernel
evaluation, so one lengthscale is meaningful across axes with different
units.  Posterior gradients are reported in original parameter units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .core import ParameterBox

__all__ = [
    "GpModel",
    "Posterior",
    "PosteriorGrad",
    "ModelFitError",
    "DegenerateStdError",
    "STD_FLOOR",
    "fit",
    "kernel_matrix",
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
        return math.sqrt(self.var)


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
    lengthscale: float
    jitter: float  # the jitter actually added after escalation
    unit_design: np.ndarray  # box.to_unit(design)
    chol: np.ndarray  # lower Cholesky factor of K + Sigma + jitter I
    alpha: np.ndarray  # (K + Sigma + jitter I)^-1 targets

    @property
    def size(self) -> int:
        return self.design.shape[0]


def _finite(name: str, x) -> np.ndarray:
    """x as a float array; ValueError naming the value unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between the rows of 2-D A and B."""
    return np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)


def _rbf(d2, lengthscale: float) -> np.ndarray:
    """The squared-exponential kernel of squared distances d2."""
    return np.exp(-d2 / (2.0 * lengthscale**2))


def kernel_matrix(A, B, lengthscale: float) -> np.ndarray:
    """Pairwise exp(-||A[i] - B[j]||^2 / (2 l^2)); 1-D inputs are single-axis points.

    No jitter is added here; the solver owns the regularized diagonal.
    """
    A, B = (np.asarray(X, dtype=float) for X in (A, B))
    A, B = (X[:, None] if X.ndim == 1 else X for X in (A, B))
    if A.shape[1] != B.shape[1]:
        raise ValueError("point dimensions disagree")
    return _rbf(_sq_dists(A, B), lengthscale)


def _system(unit_design, noise_diag, lengthscale) -> np.ndarray:
    """K + Sigma; callers add jitter I to it."""
    if not lengthscale > 0:
        raise ValueError("lengthscale must be positive")
    return kernel_matrix(unit_design, unit_design, lengthscale) + np.diag(noise_diag)


def _factor(system) -> np.ndarray | None:
    """Lower Cholesky factor of system, or None if it is not positive definite."""
    try:
        return np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        return None


def _cho_solve(L, b) -> np.ndarray:
    """(L L')^-1 b by LAPACK potrs; bit-identical to cho_solve((L, True), b)."""
    x, info = lapack.dpotrs(L, b, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _tri_solve(L, b) -> np.ndarray:
    """L^-1 b for lower-triangular L; bit-identical to solve_triangular(L, b, lower=True).

    The transposed upper form matches the wrapper on a C-ordered L; the
    direct ``dtrtrs(L, b, lower=1)`` rounds differently.
    """
    x, info = lapack.dtrtrs(L.T, b, lower=0, trans=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero at diagonal {info - 1} of L")
    return x


def _lml(L, targets) -> float:
    """The log marginal likelihood from the Cholesky factor L of the system; -inf for None."""
    if L is None:
        return -np.inf
    alpha = _cho_solve(L, targets)
    return float(
        -0.5 * targets @ alpha - np.sum(np.log(np.diag(L)))
        - 0.5 * targets.size * np.log(2 * np.pi)
    )


def log_marginal_likelihood(unit_design, targets, noise_diag, lengthscale,
                            jitter: float = 1e-10) -> float:
    """-1/2 f'(K+S)^-1 f - 1/2 log det(K+S) - n/2 log 2pi; -inf if not PD."""
    unit_design = _finite("unit_design", unit_design)
    targets = _finite("targets", targets)
    _finite("jitter", jitter)
    system = _system(unit_design, _finite("noise_diag", noise_diag), lengthscale)
    return _lml(_factor(system + jitter * np.eye(targets.size)), targets)


def _grid_lml(unit, targets, noise_diag, grid) -> np.ndarray:
    """log_marginal_likelihood at each lengthscale of grid, bit for bit.

    The candidates share one distance matrix.  Each system is built with
    kernel_matrix's 2-D expression, since a broadcast exp over a stack of
    candidates rounds differently.
    """
    d2, jitter_eye = _sq_dists(unit, unit), 1e-10 * np.eye(targets.size)
    return np.array([_lml(_factor(_rbf(d2, l) + np.diag(noise_diag) + jitter_eye), targets)
                     for l in grid])


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
    design = np.atleast_2d(_finite("design", design))
    targets = _finite("targets", targets)
    n = design.shape[0]
    if n < 2:
        raise ValueError("need at least 2 design points to fit")
    if noise_diag is None:
        noise_diag = np.zeros(n)
    noise_diag = _finite("noise_diag", noise_diag)
    if noise_diag.shape != (n,):
        raise ValueError("noise_diag length must match design size")

    unit = box.to_unit(design)

    def lml(l):
        return log_marginal_likelihood(unit, targets, noise_diag, l)

    grid = np.geomspace(*LENGTHSCALE_BOUNDS, 50)
    vals = _grid_lml(unit, targets, noise_diag, grid)
    if not np.any(np.isfinite(vals)):
        raise ModelFitError("log marginal likelihood is -inf over the whole grid")
    best = int(np.argmax(vals))
    g_lo = grid[max(best - 1, 0)]
    g_hi = grid[min(best + 1, grid.size - 1)]
    return model_at(box, design, targets, noise_diag, _golden_section(lml, g_lo, g_hi))


def model_at(box: ParameterBox, design, targets, noise_diag, lengthscale,
             jitter: float = 1e-10) -> GpModel:
    """Build a model at a fixed lengthscale, escalating jitter x10 up to 1e-4."""
    if not jitter >= 0:
        raise ValueError("jitter must be non-negative")
    design = np.atleast_2d(_finite("design", design))
    targets = _finite("targets", targets)
    noise_diag = _finite("noise_diag", noise_diag)
    unit = box.to_unit(design)
    base = _system(unit, noise_diag, lengthscale)
    while jitter <= 1e-4:
        L = _factor(base + jitter * np.eye(base.shape[0]))
        if L is not None:
            break
        jitter = max(10.0 * jitter, 1e-10)  # a zero start escalates too
    else:
        raise ModelFitError("kernel system not positive definite after jitter escalation")
    return GpModel(box, design, targets, noise_diag, lengthscale, jitter, unit,
                   L, _cho_solve(L, targets))


def _kernel_vector(model: GpModel, theta) -> tuple[np.ndarray, np.ndarray]:
    """theta minus each design point in unit coordinates, (n, m_theta), and the
    kernel vector against the design."""
    u = model.box.to_unit(np.atleast_1d(_finite("theta", theta)))
    if u.shape != model.unit_design.shape[1:]:
        raise ValueError(f"theta {np.asarray(theta).tolist()} does not match the "
                         f"model's {model.box.dim} axes")
    diff = u - model.unit_design
    return diff, _rbf(np.sum(diff**2, axis=-1), model.lengthscale)


def _posterior_at(model: GpModel, kvec: np.ndarray) -> Posterior:
    w = _tri_solve(model.chol, kvec)
    return Posterior(mean=float(kvec @ model.alpha), var=max(1.0 - float(w @ w), 0.0))


def posterior(model: GpModel, theta) -> Posterior:
    return _posterior_at(model, _kernel_vector(model, theta)[1])


def posterior_grad(model: GpModel, theta) -> tuple[Posterior, PosteriorGrad | None]:
    """The posterior at theta and its gradient, or None where std < STD_FLOOR."""
    diff, kvec = _kernel_vector(model, theta)
    post = _posterior_at(model, kvec)
    if post.std < STD_FLOOR:
        return post, None
    # Jacobian of the kernel vector in unit coordinates, (m_theta, n)
    G = -(diff * kvec[:, None]).T / model.lengthscale**2
    # chain rule of the unit-cube mapping back to original units
    scale = 1.0 / model.box.width
    dmean = scale * (G @ model.alpha)
    Kinv_k = _cho_solve(model.chol, kvec)
    dvar = -2.0 * scale * (G @ Kinv_k)
    return post, PosteriorGrad(dmean=dmean, dstd=dvar / (2.0 * post.std))
