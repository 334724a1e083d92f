"""Multi-start box-constrained maximization/minimization of acquisition surfaces.

A small projected limited-memory quasi-Newton loop with backtracking line
search.  On two or more axes it runs from all starts in lockstep:
positions, gradients, the L-BFGS history, the stopping test, the direction
and the line-search trials are array operations over the starts, and each
start makes the decisions, to the bit, that it would make searching alone.
On one axis, where a lockstep iteration's ~100 numpy calls outweigh the
search, the starts run one after another in Python floats with the same
decisions to the bit; on more axes a float dot product would round apart
from the BLAS one, so those keep the lockstep.  Descent is judged on the part
of the direction that projection keeps, as projected quasi-Newton methods
require (Bertsekas 1982; Byrd, Lu, Nocedal and Zhu 1995); where that part
does not descend, the step is steepest descent.

The objective is called once per start per point.  It returns (value,
gradient): a zero-argument callable giving the gradient array, or None at a
degenerate point (posterior std at the floor), which ends that start's
search at the limit-form value.  A line-search trial needs only its value,
so a gradient is asked for only at a start and at an accepted step that
begins another iteration, once each.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterBox, RngStream

__all__ = ["OptimizationError", "optimize"]

STEPS = 0.5 ** np.arange(40)  # backtracking steps: 1 and each halving above 1e-12
BLOCK = 8  # backtracking steps tried per round
SUFFICIENT_DECREASE = 1e-4  # Armijo constant
CONVERGENCE_TOL = 1e-8  # on the projected gradient norm
MEMORY = 5  # L-BFGS history length
STARTS = 10  # uniform random starts per optimisation
ITERS = 10  # quasi-Newton iterations per start


class OptimizationError(RuntimeError):
    """Every start produced a non-finite objective value."""


def _rowdot(a, b):
    """Each row's dot product over the last axis, broadcast over the others,
    byte for byte what `a[i] @ b[i]` gives."""
    return np.vecdot(a, b)


def _pair(s, y, live):
    """The L-BFGS pair (s, y) of every row with 1 / s'y, the `live` rows that
    skip it for want of positive curvature (s'y <= 1e-12), and the scaling
    it sets as newest."""
    sy, yy = _rowdot(s, y), _rowdot(y, y)
    skip = sy <= 1e-12
    rho = np.divide(1.0, sy, out=np.ones_like(sy), where=~skip)
    gamma = np.divide(sy, yy, out=np.ones_like(sy), where=yy > 1e-12)
    return (s, y, rho[:, None], (skip & live)[:, None]), np.maximum(gamma, 1e-12)[:, None]


def _lbfgs_direction(grad, pairs, gamma):
    """Two-loop recursion for each row of `grad` over `pairs`, oldest first,
    with the newest pair's scaling `gamma`.  A row that skips a pair keeps
    its q through it; no pairs give steepest descent."""
    q = grad
    alphas = []
    for s, y, rho, held in reversed(pairs):
        a = rho * _rowdot(s, q)[:, None]
        q = np.where(held, q, q - a * y)
        alphas.append(a)
    if pairs:
        q = q * gamma
    for (s, y, rho, held), a in zip(pairs, reversed(alphas)):
        q = np.where(held, q, q + (a - rho * _rowdot(y, q)[:, None]) * s)
    return -q


def _project(x, lower, upper):
    """The nearest point of the box: np.clip's result without its wrapper's cost."""
    return np.minimum(np.maximum(x, lower), upper)


def _local_searches(f, x0, lower, upper, sign=1.0):
    """`_lockstep_searches`, run start by start in Python floats on a
    one-axis box by `_one_axis_searches`."""
    search = _one_axis_searches if x0.shape[1] == 1 else _lockstep_searches
    return search(f, x0, lower, upper, sign)


def _clamp(x, lo, hi):
    """`_project` on one float: NaN passes, and a tie gives the bound."""
    x = lo if x <= lo else x
    return hi if x >= hi else x


def _one_axis_searches(f, x0, lower, upper, sign):
    """`_lockstep_searches` on a one-axis box, one start after another in
    Python floats, with each of its calls, gradient requests and decisions:
    each `_rowdot` is one product added to 0.0, as matmul sums it."""
    lo, hi, steps = float(lower[0]), float(upper[0]), STEPS.tolist()
    xs, vals = [], []
    for start in x0[:, 0].tolist():
        x = _clamp(start, lo, hi)
        value, gradient = f(np.array([x]))
        val, pairs, g = sign * float(value), [], None
        for iteration in range(ITERS):
            if gradient is None or not math.isfinite(val):
                break
            g, g_prev = float(gradient()[0]) * sign, g
            if iteration:  # (s, y, 1 / s'y), with rho None where _pair skips the pair
                s, y = x - x_prev, g - g_prev
                sy, yy = 0.0 + s * y, 0.0 + y * y
                pairs = (pairs + [(s, y, None if sy <= 1e-12 else 1.0 / sy)])[-MEMORY:]
                gamma = max(sy / yy if yy > 1e-12 else 1.0, 1e-12)  # NaN passes
            proj_grad = _clamp(x - g, lo, hi) - x
            if math.sqrt(proj_grad * proj_grad) < CONVERGENCE_TOL:
                break
            q, alphas, applied = g, [], [p for p in pairs if p[2] is not None]
            for s, y, rho in reversed(applied):  # _lbfgs_direction's two loops
                alphas.append(rho * (0.0 + s * q))
                q = q - alphas[-1] * y
            q = q * gamma if pairs else q
            for (s, y, rho), a in zip(applied, reversed(alphas)):
                q = q + (a - rho * (0.0 + y * q)) * s
            d = -q
            kept = 0.0 if (x <= lo and d < 0) or (x >= hi and d > 0) else d
            d = -g if 0.0 + kept * g >= 0 else d
            x_prev, gradient = x, None
            for step in steps:
                trial = _clamp(x_prev + step * d, lo, hi)
                val_new, grad_new = f(np.array([trial]))
                val_new *= sign
                bound = val + SUFFICIENT_DECREASE * (0.0 + g * (trial - x_prev))
                if math.isfinite(val_new) and val_new <= bound:
                    x, val, gradient = trial, float(val_new), grad_new
                    break
        xs.append(x)
        vals.append(val)
    return np.array(xs, dtype=float)[:, None], np.array(vals, dtype=float)


def _lockstep_searches(f, x0, lower, upper, sign):
    """A local search from each row of `x0`, all advanced together, that
    minimizes `sign` times `f`: each start's final iterate and signed value,
    row for row.  A start leaves when its value is not finite, its gradient
    is None, its projected gradient vanishes or its line search fails; its
    row stays in the arrays, with a zero gradient, but nothing reads it."""
    starts = _project(x0, lower, upper)
    x, val = starts.copy(), np.empty(len(starts))
    gradients = []  # per start, the gradient callable at x, or None once it has left
    for i, row in enumerate(starts):
        value, gradient = f(row)
        val[i] = sign * value
        gradients.append(gradient if np.isfinite(val[i]) else None)
    grad, pairs, gamma = np.zeros_like(x), [], None
    for iteration in range(ITERS):
        alive = np.array([gradient is not None for gradient in gradients])
        live = alive.nonzero()[0]
        if not live.size:
            break
        # the gradients at x, asked for only now that the searches step from x
        grad, grad_prev = np.zeros_like(x), grad
        grad[live] = [gradients[i]() for i in live]
        grad *= sign
        if iteration:
            pair, gamma = _pair(x - x_prev, grad - grad_prev, alive)
            pairs = (pairs + [pair])[-MEMORY:]
        proj_grad = _project(x - grad, lower, upper) - x
        converged = np.sqrt(_rowdot(proj_grad, proj_grad)) < CONVERGENCE_TOL
        d = _lbfgs_direction(grad, pairs, gamma)
        # descent is judged on the part of d that projection keeps: none of a
        # component at a bound that points out of the box
        kept = np.where(((x <= lower) & (d < 0)) | ((x >= upper) & (d > 0)), 0.0, d)
        np.copyto(d, -grad, where=(_rowdot(kept, grad) >= 0)[:, None])
        # backtracking: each round makes the next BLOCK trials and their Armijo
        # bounds for every start at once, and the starts still searching try them
        x_prev, val_prev, searching = x.copy(), val.copy(), alive & ~converged
        for i in live:
            gradients[i] = None  # unless a step is accepted, the search ends here
        for k in range(0, len(STEPS), BLOCK):
            searchers = searching.nonzero()[0]
            if not searchers.size:
                break
            trials = _project(x_prev + STEPS[k:k + BLOCK, None, None] * d, lower, upper)
            bounds = (val_prev + SUFFICIENT_DECREASE * _rowdot(grad, trials - x_prev)).T.tolist()
            for i in searchers:
                for trial, bound in zip(trials[:, i], bounds[i]):
                    val_new, gradient = f(trial)
                    val_new *= sign
                    if math.isfinite(val_new) and val_new <= bound:
                        x[i], val[i], gradients[i], searching[i] = trial, val_new, gradient, False
                        break
    return x, val


def optimize(objective, box: ParameterBox, rng: RngStream,
             maximize: bool = False) -> tuple[np.ndarray, float]:
    """Best point over `STARTS` local searches from uniform random starts,
    and the objective's value there.

    `objective(theta) -> (value, gradient_or_None)`, where `gradient()`
    gives a float array; a maximization searches on both negated.  Only
    each start's final iterate counts toward the reduction, not the
    line-search trials it rejected; among equal finite values the least
    point, coordinates compared in order, wins, then the earliest start.
    Each accepted step meets the Armijo condition `value <= value_at_x +
    SUFFICIENT_DECREASE * grad'(step)` in the search's sign.  The returned
    value is the objective's own there.
    """
    gen = rng.generator()
    sign = -1.0 if maximize else 1.0
    x0 = box.lower + gen.random((STARTS, box.dim)) * box.width
    xs, vals = _local_searches(objective, x0, box.lower, box.upper, sign)
    finite = np.flatnonzero(np.isfinite(vals))
    if not finite.size:
        raise OptimizationError("all starts returned non-finite objective values")
    best = finite[np.lexsort((finite, *xs[finite, ::-1].T, vals[finite]))[0]]
    return xs[best], sign * float(vals[best])
