"""The six acquisition functions, their analytical gradients, and incumbent rules.

Families LCB / PI / EI each come in a minimization flavor and a root-finding
flavor that targets close-to-zero predictions symmetrically in sign.  Below
the degeneracy floor on the posterior std every acquisition switches to its
noiseless limit form.  Each PI and EI gradient is the acquisition's two
partials in the posterior mean and std, chained through `dmean` and `dstd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from .metamodel import (
    STD_FLOOR,
    DegenerateStdError,
    GpModel,
    Posterior,
    PosteriorGrad,
    posterior,
)

__all__ = [
    "Family",
    "Mode",
    "AcqKind",
    "Incumbent",
    "design_posteriors",
    "select_incumbent",
    "lcb",
    "rf_lcb",
    "pi",
    "rf_pi",
    "ei",
    "rf_ei",
    "acq_value",
    "acq_gradient",
]


class Family(str, Enum):
    LCB = "lcb"
    PI = "pi"
    EI = "ei"


class Mode(str, Enum):
    MIN = "min"
    ROOT = "root"


@dataclass(frozen=True)
class AcqKind:
    family: Family
    mode: Mode
    kappa: float | None = None  # read only by LCB, where None means 1.0

    def __post_init__(self):
        if self.family is not Family.LCB:
            if self.kappa is not None:
                raise ValueError(f"kappa={self.kappa} is read only by lcb, not {self.family.value}")
        elif self.kappa is None:
            object.__setattr__(self, "kappa", 1.0)
        elif not 0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    @property
    def maximize(self) -> bool:
        return self.family is not Family.LCB


@dataclass(frozen=True)
class Incumbent:
    index: int
    value: float


_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def design_posteriors(model: GpModel) -> list:
    """The posterior at each design point, in design order."""
    return [posterior(model, theta) for theta in model.design]


def select_incumbent(model: GpModel, mode: Mode, posts=None) -> Incumbent:
    """Current best value the improvement-based acquisitions compare against.

    Without `posts` (a deterministic surrogate) this ranks the model targets,
    by |value| for ROOT.  With the design posteriors `posts` (a stochastic
    surrogate, see `design_posteriors`) it ranks the predictive mean for MIN
    and mu^2 + sigma^2 for ROOT.  Ties break toward the lowest index.
    """
    if model.size < 1:
        raise ValueError("empty design")
    if posts is None:
        values, root_scores = model.targets, np.abs(model.targets)
    elif len(posts) != model.size:
        raise ValueError(f"{len(posts)} posteriors for {model.size} design points")
    else:
        values, root_scores = [p.mean for p in posts], [p.mean**2 + p.var for p in posts]
    idx = int(np.argmin(values if mode is Mode.MIN else root_scores))
    return Incumbent(index=idx, value=float(values[idx]))


def lcb(post: Posterior, kappa: float) -> float:
    return post.mean - kappa * post.std


def rf_lcb(post: Posterior, kappa: float) -> float:
    return abs(post.mean) - kappa * post.std


def pi(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, v = post.mean, post.std, inc.value
    if sigma < STD_FLOOR:
        return 1.0 if mu < v else 0.0
    return float(ndtr((v - mu) / sigma))


def rf_pi(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, av = post.mean, post.std, abs(inc.value)
    if sigma < STD_FLOOR:
        return 1.0 if abs(mu) < av else 0.0
    return float(ndtr((av - mu) / sigma) - ndtr((-av - mu) / sigma))


def ei(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, v = post.mean, post.std, inc.value
    if sigma < STD_FLOOR:
        return max(0.0, v - mu)
    z = (v - mu) / sigma
    return float((v - mu) * ndtr(z) + sigma * _phi(z))


def rf_ei(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, av = post.mean, post.std, abs(inc.value)
    if sigma < STD_FLOOR:
        return max(0.0, av - abs(mu))
    z_lo = (-av - mu) / sigma
    z_mid = -mu / sigma
    z_hi = (av - mu) / sigma
    P_lo, P_hi = ndtr(z_lo), ndtr(z_hi)
    return float(
        av * (P_hi - P_lo)
        + mu * (2.0 * ndtr(z_mid) - P_hi - P_lo)
        - sigma * (2.0 * _phi(z_mid) - _phi(z_hi) - _phi(z_lo))
    )


def acq_value(kind: AcqKind, post: Posterior, inc: Incumbent | None) -> float:
    if kind.family is Family.LCB:
        return rf_lcb(post, kind.kappa) if kind.mode is Mode.ROOT else lcb(post, kind.kappa)
    if inc is None:
        raise ValueError("PI/EI need an incumbent")
    if kind.family is Family.PI:
        return rf_pi(post, inc) if kind.mode is Mode.ROOT else pi(post, inc)
    return rf_ei(post, inc) if kind.mode is Mode.ROOT else ei(post, inc)


def acq_gradient(kind: AcqKind, post: Posterior, grad: PosteriorGrad,
                 inc: Incumbent | None) -> np.ndarray:
    """Analytical gradient of the named acquisition w.r.t. theta."""
    mu, sigma = post.mean, post.std
    if sigma < STD_FLOOR:
        raise DegenerateStdError("acquisition gradient undefined at degenerate std")

    if kind.family is Family.LCB:
        if kind.mode is Mode.ROOT:
            return np.sign(mu) * grad.dmean - kind.kappa * grad.dstd
        return grad.dmean - kind.kappa * grad.dstd

    if inc is None:
        raise ValueError("PI/EI need an incumbent")
    if kind.mode is Mode.MIN:
        z = (inc.value - mu) / sigma
        p = float(_phi(z))
        if kind.family is Family.PI:
            a_mu, a_sigma = -p / sigma, -z * p / sigma
        else:
            a_mu, a_sigma = -float(ndtr(z)), p
        return a_mu * grad.dmean + a_sigma * grad.dstd

    av = abs(inc.value)
    z_lo, z_mid, z_hi = (-av - mu) / sigma, -mu / sigma, (av - mu) / sigma
    p_lo, p_hi = float(_phi(z_lo)), float(_phi(z_hi))
    if kind.family is Family.PI:
        a_mu, a_sigma = (p_lo - p_hi) / sigma, (z_lo * p_lo - z_hi * p_hi) / sigma
    else:
        a_mu = float(2.0 * ndtr(z_mid) - ndtr(z_hi) - ndtr(z_lo))
        a_sigma = -(2.0 * float(_phi(z_mid)) - p_hi - p_lo)
    return a_mu * grad.dmean + a_sigma * grad.dstd
