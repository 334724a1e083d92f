"""Squared-exponential kriging and stochastic-kriging posteriors with
log-marginal-likelihood fitting.

Inputs are mapped affinely to the unit hypercube before any kernel
evaluation, so one lengthscale is meaningful across axes with different
units.  Posterior gradients are reported in original parameter units.

The constants that every posterior query needs (the box's reciprocal
widths, the kernel's lengthscale terms and a Fortran-ordered Cholesky
factor) are computed once per model, by ``model_at``, with the same
operations a query would apply, so a query returns the same bytes.

``fit`` scores 50 grid lengthscales as stacks of systems, Cholesky factors,
log-determinants and quadratic terms, with one dpotrs solve each (a stacked
solve rounds differently), then refines the best by golden section through the
public ``log_marginal_likelihood``, whose calls the benchmark's tracer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import ParameterBox

__all__ = [
    "GpModel",
    "Posterior",
    "PosteriorGrad",
    "ModelFitError",
    "STD_FLOOR",
    "fit",
    "kernel_matrix",
    "log_marginal_likelihood",
    "posterior",
    "posterior_grad",
]

STD_FLOOR = 1e-9

LENGTHSCALE_BOUNDS = (1e-2, 1e2)
_GRID = np.geomspace(*LENGTHSCALE_BOUNDS, 50)  # fit's candidate lengthscales
_LOG_2PI = np.log(2 * np.pi)


class ModelFitError(RuntimeError):
    """Kernel system could not be factorized even after jitter escalation."""


@dataclass(frozen=True)
class Posterior:
    mean: float
    var: float
    # (diff, kvec) for posterior_grad, and a slot [partials] acq_value fills for acq_gradient
    query: tuple | None = field(default=None, compare=False, repr=False)

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
    # query constants, computed once by model_at
    chol_f: np.ndarray  # chol in Fortran order, which dpotrs takes without a copy
    inv_width: np.ndarray  # 1 / box.width, the chain rule to original units
    neg_two_inv_width: np.ndarray  # -2.0 * inv_width, the same for the variance
    neg_two_l2: float  # -(2 l^2), the kernel exponent's divisor
    neg_l2: float  # -(l^2), the kernel Jacobian's divisor

    @property
    def size(self) -> int:
        return self.design.shape[0]


def _finite(name: str, x) -> np.ndarray:
    """x as a float array; ValueError naming the value unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between the rows of 2-D A and B."""
    return np.add.reduce((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)


def kernel_matrix(A, B, lengthscale: float) -> np.ndarray:
    """Pairwise exp(-||A[i] - B[j]||^2 / (2 l^2)); 1-D inputs are single-axis points.

    No jitter is added here; the solver owns the regularized diagonal.
    """
    l = float(lengthscale)  # float arithmetic overflows to inf without a warning
    if not (l > 0 and 0 < 2.0 * l * l < math.inf):
        raise ValueError(f"lengthscale must be positive with 2 l^2 positive and finite, got {l}")
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    A, B = (A[:, None] if A.ndim == 1 else A), (B[:, None] if B.ndim == 1 else B)
    if A.shape[1] != B.shape[1]:
        raise ValueError("point dimensions disagree")
    return np.exp(_sq_dists(A, B) / -(2.0 * lengthscale**2))  # -d2 / c in the same bits


def _plus_diagonal(A: np.ndarray, *terms) -> np.ndarray:
    """A with each term v added in turn, in place, to its diagonal, or to each stacked matrix's,
    in any layout; off the diagonal this equals adding np.diag(v), as x + 0.0 is x for kernels."""
    diagonal = np.einsum("...ii->...i", A)  # a writeable view
    for v in terms:
        diagonal += v
    return A


def _system(unit_design, noise_diag, lengthscale, jitter=0.0) -> np.ndarray:
    """K + Sigma + jitter I."""
    if np.shape(noise_diag) != (len(unit_design),):
        raise ValueError("noise_diag length must match design size")
    return _plus_diagonal(kernel_matrix(unit_design, unit_design, lengthscale), noise_diag, jitter)


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
    return float((-0.5 * targets).dot(_cho_solve(L, targets))
                 - np.add.reduce(np.log(L.diagonal())) - 0.5 * targets.size * _LOG_2PI)


def log_marginal_likelihood(unit_design, targets, noise_diag, lengthscale,
                            jitter: float = 1e-10) -> float:
    """-1/2 f'(K+S)^-1 f - 1/2 log det(K+S) - n/2 log 2pi; -inf if not PD."""
    unit_design = _finite("unit_design", unit_design)
    targets = _finite("targets", targets)
    system = _system(unit_design, _finite("noise_diag", noise_diag), lengthscale,
                     _finite("jitter", jitter))
    return _lml(_factor(system), targets)


def _grid_lml(unit, targets, noise_diag, grid) -> np.ndarray:
    """log_marginal_likelihood at each lengthscale of grid, bit for bit: systems, Cholesky
    factors, log-determinants and quadratic terms are stacks, from one distance matrix.

    Each divisor is the scalar 2 l^2 that kernel_matrix computes (the array 2.0 * grid**2
    rounds differently on one of fit's 50 candidates).  The solves stay one dpotrs per
    candidate, as a stacked solve rounds differently.  A candidate that is not positive
    definite makes the stacked cholesky raise; each is then done alone, -inf if it fails.
    """
    divisors = np.array([2.0 * l**2 for l in grid.tolist()])[:, None, None]
    systems = _plus_diagonal(np.exp(-_sq_dists(unit, unit) / divisors), noise_diag, 1e-10)
    try:
        factors = np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        return np.array([_lml(_factor(system), targets) for system in systems])
    # each U.T is a factor in Fortran order, which dpotrs takes without a copy
    alphas = np.array([_cho_solve(U.T, targets) for U in factors.swapaxes(1, 2).copy()])
    return (np.matmul(-0.5 * targets, alphas[:, :, None])[:, 0]
            - np.add.reduce(np.log(np.diagonal(factors, axis1=1, axis2=2)), axis=-1)
            - 0.5 * targets.size * _LOG_2PI)


def _golden_section(f, lo, hi):
    """Maximize f over [lo, hi] in log space."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(np.log(lo)), float(np.log(hi))  # float arithmetic, in the same bits
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(np.exp(c)), f(np.exp(d))
    while (b - a) > 1e-4:  # the bracket's width in log lengthscale
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
    """Fit the lengthscale by maximizing the log marginal likelihood;
    `noise_diag=None` is a deterministic surrogate's zero noise.

    The search evaluates 50 log-spaced candidates over LENGTHSCALE_BOUNDS, then refines
    the best one by golden section, each step one public log_marginal_likelihood call.
    """
    design = np.atleast_2d(_finite("design", design))
    targets = _finite("targets", targets)
    n = design.shape[0]
    if n < 2:
        raise ValueError("need at least 2 design points to fit")
    noise_diag = _finite("noise_diag", np.zeros(n) if noise_diag is None else noise_diag)
    if noise_diag.shape != (n,):
        raise ValueError("noise_diag length must match design size")

    unit = box.to_unit(design)
    vals = _grid_lml(unit, targets, noise_diag, _GRID)
    if not np.any(np.isfinite(vals)):
        raise ModelFitError("log marginal likelihood is -inf over the whole grid")
    best = int(np.argmax(vals))
    lengthscale = _golden_section(lambda l: log_marginal_likelihood(unit, targets, noise_diag, l),
                                  _GRID[max(best - 1, 0)], _GRID[min(best + 1, _GRID.size - 1)])
    return _model(box, design, targets, noise_diag, unit, lengthscale, 1e-10)


def model_at(box: ParameterBox, design, targets, noise_diag, lengthscale,
             jitter: float = 1e-10) -> GpModel:
    """Build a model at a fixed lengthscale, escalating jitter x10 up to 1e-4."""
    if not jitter >= 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    design = np.atleast_2d(_finite("design", design))
    return _model(box, design, _finite("targets", targets), _finite("noise_diag", noise_diag),
                  box.to_unit(design), lengthscale, jitter)


def _model(box, design, targets, noise_diag, unit, lengthscale, jitter) -> GpModel:
    """model_at on inputs already checked, with unit = box.to_unit(design)."""
    base = _system(unit, noise_diag, lengthscale)
    while jitter <= 1e-4:
        L = _factor(_plus_diagonal(base.copy(), jitter))
        if L is not None:
            break
        jitter = max(10.0 * jitter, 1e-10)  # a zero start escalates too
    else:
        raise ModelFitError("kernel system not positive definite after jitter escalation")
    inv_width, l2, chol_f = 1.0 / box.width, lengthscale**2, np.asfortranarray(L)
    return GpModel(box, design, targets, noise_diag, lengthscale, jitter, unit,
                   L, _cho_solve(chol_f, targets), chol_f, inv_width,
                   -2.0 * inv_width, -(2.0 * l2), -l2)


def _kernel_vector(model: GpModel, theta) -> tuple[np.ndarray, np.ndarray]:
    """theta minus each design point in unit coordinates, (n, m_theta), and the
    kernel vector against the design.  A 1-D model also takes a scalar theta."""
    box, x = model.box, np.asarray(theta, dtype=float)
    if x.shape != box.lower.shape:
        if x.ndim or box.dim > 1:
            raise ValueError(f"theta {x.tolist()} does not match the model's {box.dim} axes")
        x = x.reshape(1)
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"theta must be finite, got {np.asarray(theta, dtype=float).tolist()}")
    # box.to_unit and kernel_matrix's arithmetic; -d2 / c and d2 / -c are the same bits
    diff = (x - box.lower) / box.width - model.unit_design
    return diff, np.exp(np.add.reduce(diff * diff, axis=-1) / model.neg_two_l2)


def posterior(model: GpModel, theta) -> Posterior:
    diff, kvec = _kernel_vector(model, theta)
    w = _tri_solve(model.chol, kvec)
    return Posterior(mean=float(kvec.dot(model.alpha)), var=max(1.0 - float(w.dot(w)), 0.0),
                     query=(diff, kvec, [None]))


def posterior_grad(model: GpModel, theta,
                   post: Posterior | None = None) -> tuple[Posterior, PosteriorGrad | None]:
    """The posterior at theta and its gradient, or None where std < STD_FLOOR.

    A `post` that ``posterior(model, theta)`` returned lends its kernel
    vector, so the gradient costs no second query.
    """
    if post is None:
        post = posterior(model, theta)
    if post.std < STD_FLOOR:
        return post, None
    diff, kvec, _ = post.query
    # Jacobian of the kernel vector in unit coordinates, (m_theta, n)
    G = (diff * kvec[:, None]).T / model.neg_l2
    # chain rule of the unit-cube mapping back to original units
    dmean = model.inv_width * G.dot(model.alpha)
    dvar = model.neg_two_inv_width * G.dot(_cho_solve(model.chol_f, kvec))
    return post, PosteriorGrad(dmean=dmean, dstd=dvar / (2.0 * post.std))
