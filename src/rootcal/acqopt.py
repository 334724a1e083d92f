"""Multi-start box-constrained maximization/minimization of acquisition surfaces.

A small projected limited-memory quasi-Newton loop with backtracking line
search.  The objective callback returns (value, gradient); a gradient of
None marks a degenerate point (posterior std at the floor) and terminates
that local search at the limit-form value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterBox, RngStream

__all__ = ["OptimizerConfig", "OptimizationError", "optimize"]

INITIAL_STEP = 1.0
SHRINK = 0.5  # line-search step factor
SUFFICIENT_DECREASE = 1e-4  # Armijo constant
CONVERGENCE_TOL = 1e-8  # on the projected gradient norm
MEMORY = 5  # L-BFGS history length


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 10
    iters: int = 10

    def __post_init__(self):
        if self.starts < 1 or self.iters < 1:
            raise ValueError("starts and iters must be >= 1")


class OptimizationError(RuntimeError):
    """Every start produced a non-finite objective value."""


def _lbfgs_direction(grad, s_hist, y_hist):
    """Two-loop recursion; falls back to steepest descent with empty memory."""
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


def _local_search(f, x0, lower, upper, iters: int):
    x = np.clip(x0, lower, upper)
    val, grad = f(x)
    if not np.isfinite(val):
        return x, val
    s_hist, y_hist = [], []
    for _ in range(iters):
        if grad is None:
            break
        proj_grad = np.clip(x - grad, lower, upper) - x
        if np.linalg.norm(proj_grad) < CONVERGENCE_TOL:
            break
        d = _lbfgs_direction(grad, s_hist, y_hist)
        if float(d @ grad) >= 0:
            d = -grad
        step = INITIAL_STEP
        accepted = False
        while step > 1e-12:
            x_new = np.clip(x + step * d, lower, upper)
            val_new, grad_new = f(x_new)
            decrease = SUFFICIENT_DECREASE * float(grad @ (x_new - x))
            if np.isfinite(val_new) and val_new <= val + decrease:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            break
        if grad_new is not None:
            s_hist.append(x_new - x)
            y_hist.append(grad_new - grad)
            if len(s_hist) > MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        x, val, grad = x_new, val_new, grad_new
    return x, val


def optimize(objective, box: ParameterBox, cfg: OptimizerConfig, rng: RngStream,
             maximize: bool = False) -> np.ndarray:
    """Best point over `cfg.starts` local searches from uniform random starts.

    `objective(theta) -> (value, grad_or_None)`.  Both the value at each
    start and at each line-search trial count toward the reduction, so the
    result never scores worse than any start point.
    """
    gen = rng.generator()
    sign = -1.0 if maximize else 1.0

    def f(x):
        val, grad = objective(x)
        if grad is None:
            return sign * val, None
        return sign * val, sign * np.asarray(grad, dtype=float)

    best_x, best_val = None, np.inf
    for _ in range(cfg.starts):
        x0 = box.lower + gen.random(box.dim) * box.width
        x, val = _local_search(f, x0, box.lower, box.upper, cfg.iters)
        if np.isfinite(val) and (
            val < best_val
            or (val == best_val and best_x is not None and tuple(x) < tuple(best_x))
        ):
            best_x, best_val = x, val
    if best_x is None:
        raise OptimizationError("all starts returned non-finite objective values")
    return best_x
