"""Gap estimators for the residual-aggregation loss chain and a gradient
validation harness for the acquisition functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import AcqKind, Family, Incumbent, Mode
from .core import ParameterBox, RngStream, aggregate_signed, aggregate_squared, residual_rows
from .engine import acquisition_objective
from .metamodel import model_at, posterior

__all__ = [
    "GapReport",
    "spatial_variability",
    "aggregate_variance",
    "chain_check",
    "validate_gradients",
    "ALL_ACQ_KINDS",
]

ALL_ACQ_KINDS = tuple(
    AcqKind(family, mode) for family in Family for mode in Mode
)


@dataclass(frozen=True)
class GapReport:
    """The three chained loss quantities and the two gap estimators.

    chain = (mean squared residual norm / m_y, mean S^2, (mean S)^2) is
    non-increasing left to right: the first gap is the within-sample spatial
    variability, the second the across-replication variance of S.
    """

    spatial_variability: float
    aggregate_variance: float
    chain: tuple

    @property
    def ordered(self) -> bool:
        a, b, c = self.chain
        return a >= b - 1e-10 and b >= c - 1e-10


def spatial_variability(samples) -> float:
    """Mean over samples of the within-sample variance of residual components."""
    return float(np.var(residual_rows(samples), axis=1).mean())


def aggregate_variance(samples) -> float:
    """Unbiased sample variance of the signed aggregate across samples."""
    if len(samples) < 2:
        raise ValueError("at least two residual samples required")
    return float(aggregate_signed(residual_rows(samples)).var(ddof=1))


def chain_check(samples) -> GapReport:
    """Evaluate the loss chain; ordering violations are reported, not raised."""
    rows = residual_rows(samples)
    signed = aggregate_signed(rows)
    return GapReport(
        spatial_variability=spatial_variability(rows),
        aggregate_variance=float(signed.var(ddof=1)) if len(rows) >= 2 else 0.0,
        chain=(float(aggregate_squared(rows).mean()), float(np.mean(signed**2)),
               float(signed.mean() ** 2)),
    )


def _random_case(gen):
    """A fitted surrogate, a non-degenerate query point, and an incumbent."""
    dim = int(gen.integers(1, 4))
    n = int(gen.integers(3, 9))
    box = ParameterBox(np.zeros(dim), np.ones(dim))
    lengthscale = float(np.exp(gen.uniform(np.log(0.1), np.log(2.0))))
    while True:
        design = gen.random((n, dim))
        targets = gen.normal(0.0, 1.0, n)
        noise = gen.uniform(0.0, 0.05, n)
        model = model_at(box, design, targets, noise, lengthscale)
        for _ in range(50):
            theta = gen.random(dim)
            post = posterior(model, theta)
            # keep away from degeneracy and from the |mu| kink so central
            # differences stay stable
            if post.std > 1e-3 and abs(post.mean) > 1e-3:
                v = float(gen.normal(0.0, 1.0))
                return model, theta, Incumbent(index=0, value=v)


def _fd_gradient(objective, theta, step):
    grad = np.empty_like(theta)
    for axis in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[axis] += step
        lo[axis] -= step
        grad[axis] = (objective(hi)[0] - objective(lo)[0]) / (2.0 * step)
    return grad


def validate_gradients(cases: int, rng: RngStream, fd_step: float = 1e-5) -> dict:
    """Max |analytical - central-difference| deviation per acquisition of the gradient of
    `acquisition_objective`, the callable that `optimize` gets.  Deterministic per rng."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    gen = rng.generator()
    worst = {kind: 0.0 for kind in ALL_ACQ_KINDS}
    for _ in range(cases):
        model, theta, inc = _random_case(gen)
        for kind in ALL_ACQ_KINDS:
            objective = acquisition_objective(model, kind, inc)
            analytical = objective(theta)[1]()
            numerical = _fd_gradient(objective, theta, fd_step)
            dev = float(np.max(np.abs(analytical - numerical)))
            worst[kind] = max(worst[kind], dev)
    return {f"{k.mode.value}-{k.family.value}": v for k, v in worst.items()}
