"""Multi-start box-constrained maximization/minimization of acquisition surfaces.

A small projected limited-memory quasi-Newton loop with backtracking line
search.  The objective callback returns (value, gradient): a zero-argument
callable giving the gradient array, or None at a degenerate point (posterior
std at the floor), which ends that local search at the limit-form value.
A line-search trial needs only its value, so a gradient is asked for only
at a start and at an accepted step that begins another iteration, once each.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterBox, RngStream

__all__ = ["OptimizationError", "optimize"]

INITIAL_STEP = 1.0
SHRINK = 0.5  # line-search step factor
SUFFICIENT_DECREASE = 1e-4  # Armijo constant
CONVERGENCE_TOL = 1e-8  # on the projected gradient norm
MEMORY = 5  # L-BFGS history length
STARTS = 10  # uniform random starts per optimisation
ITERS = 10  # quasi-Newton iterations per start


class OptimizationError(RuntimeError):
    """Every start produced a non-finite objective value."""


def _lbfgs_direction(grad, hist):
    """Two-loop recursion over (s, y, rho) pairs, oldest first, where rho is
    1 / s'y or None for a pair without positive curvature (skipped); falls
    back to steepest descent with empty memory."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(hist):
        if rho is None:
            alphas.append(0.0)
            continue
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if hist:
        s, y, _ = hist[-1]
        yy = float(y @ y)
        gamma = float(s @ y) / yy if yy > 1e-12 else 1.0
        q *= max(gamma, 1e-12)
    for (s, y, rho), a in zip(hist, reversed(alphas)):
        if rho is None:
            continue
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _project(x, lower, upper):
    """The nearest point of the box: np.clip's result without its wrapper's cost."""
    return np.minimum(np.maximum(x, lower), upper)


def _local_search(f, x0, lower, upper):
    x = _project(x0, lower, upper)
    val, gradient = f(x)
    if not np.isfinite(val):
        return x, val
    hist, grad = [], None
    for _ in range(ITERS):
        if gradient is None:
            break
        # the gradient at x, asked for only now that the search steps from x
        grad, grad_prev = gradient(), grad
        if grad_prev is not None:
            s, y = x - x_prev, grad - grad_prev
            sy = float(s @ y)
            hist.append((s, y, None if sy <= 1e-12 else 1.0 / sy))
            if len(hist) > MEMORY:
                hist.pop(0)
        proj_grad = _project(x - grad, lower, upper) - x
        if math.sqrt(float(proj_grad @ proj_grad)) < CONVERGENCE_TOL:
            break
        d = _lbfgs_direction(grad, hist)
        if float(d @ grad) >= 0:
            d = -grad
        step = INITIAL_STEP
        while step > 1e-12:
            x_new = _project(x + step * d, lower, upper)
            val_new, gradient = f(x_new)
            decrease = SUFFICIENT_DECREASE * float(grad @ (x_new - x))
            if np.isfinite(val_new) and val_new <= val + decrease:
                break
            step *= SHRINK
        else:
            break
        x_prev, x, val = x, x_new, val_new
    return x, val


def optimize(objective, box: ParameterBox, rng: RngStream,
             maximize: bool = False) -> tuple[np.ndarray, float]:
    """Best point over `STARTS` local searches from uniform random starts,
    and the objective's value there.

    `objective(theta) -> (value, gradient_or_None)`, where `gradient()`
    gives a float array, which a minimization uses as it is.  Both the value
    at each start and at each line-search trial count toward the reduction,
    so the result never scores worse than any start point.  The returned value is the one the
    objective gave at the returned point.
    """
    gen = rng.generator()
    sign = -1.0 if maximize else 1.0

    def f(x):
        val, gradient = objective(x)
        if gradient is None:
            return sign * val, None
        return sign * val, lambda: sign * np.asarray(gradient(), dtype=float)

    best_x, best_val = None, np.inf
    for _ in range(STARTS):
        x0 = box.lower + gen.random(box.dim) * box.width
        x, val = _local_search(f if maximize else objective, x0, box.lower, box.upper)
        if np.isfinite(val) and (
            val < best_val
            or (val == best_val and best_x is not None and tuple(x) < tuple(best_x))
        ):
            best_x, best_val = x, val
    if best_x is None:
        raise OptimizationError("all starts returned non-finite objective values")
    return best_x, sign * best_val
