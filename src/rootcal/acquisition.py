"""The six acquisition functions, their analytical gradients, and incumbent rules.

Families LCB / PI / EI each come in a minimization flavor and a root-finding
flavor that targets close-to-zero predictions symmetrically in sign.  Below
the degeneracy floor on the posterior std every acquisition switches to its
noiseless limit form.
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
    kappa: float = 1.0

    def __post_init__(self):
        if self.family is Family.LCB and self.kappa <= 0:
            raise ValueError("kappa must be positive")

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


def _Phi(z):
    return ndtr(z)


def select_incumbent(model: GpModel, mode: Mode, stochastic: bool) -> Incumbent:
    """Current best value the improvement-based acquisitions compare against.

    Deterministic mode ranks the model targets, by |value| for ROOT;
    stochastic mode ranks posterior quantities at the design
    points: the predictive mean for MIN, mu^2 + sigma^2 for ROOT.  Ties break
    toward the lowest index.
    """
    if model.size < 1:
        raise ValueError("empty design")
    if not stochastic:
        vals = model.targets
        if mode is Mode.MIN:
            idx = int(np.argmin(vals))
        else:
            idx = int(np.argmin(np.abs(vals)))
        return Incumbent(index=idx, value=float(vals[idx]))
    posts = [posterior(model, model.design[i]) for i in range(model.size)]
    means = np.array([p.mean for p in posts])
    if mode is Mode.MIN:
        idx = int(np.argmin(means))
    else:
        scores = np.array([p.mean**2 + p.var for p in posts])
        idx = int(np.argmin(scores))
    return Incumbent(index=idx, value=float(means[idx]))


def lcb(post: Posterior, kappa: float) -> float:
    return post.mean - kappa * post.std


def rf_lcb(post: Posterior, kappa: float) -> float:
    return abs(post.mean) - kappa * post.std


def pi(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, v = post.mean, post.std, inc.value
    if sigma < STD_FLOOR:
        return 1.0 if mu < v else 0.0
    return float(_Phi((v - mu) / sigma))


def rf_pi(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, av = post.mean, post.std, abs(inc.value)
    if sigma < STD_FLOOR:
        return 1.0 if abs(mu) < av else 0.0
    return float(_Phi((av - mu) / sigma) - _Phi((-av - mu) / sigma))


def ei(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, v = post.mean, post.std, inc.value
    if sigma < STD_FLOOR:
        return max(0.0, v - mu)
    z = (v - mu) / sigma
    return float((v - mu) * _Phi(z) + sigma * _phi(z))


def rf_ei(post: Posterior, inc: Incumbent) -> float:
    mu, sigma, av = post.mean, post.std, abs(inc.value)
    if sigma < STD_FLOOR:
        return max(0.0, av - abs(mu))
    z_lo = (-av - mu) / sigma
    z_mid = -mu / sigma
    z_hi = (av - mu) / sigma
    return float(
        av * (_Phi(z_hi) - _Phi(z_lo))
        + mu * (2.0 * _Phi(z_mid) - _Phi(z_hi) - _Phi(z_lo))
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
    dmu, dsigma = grad.dmean, grad.dstd

    if kind.family is Family.LCB:
        if kind.mode is Mode.ROOT:
            return np.sign(mu) * dmu - kind.kappa * dsigma
        return dmu - kind.kappa * dsigma

    if inc is None:
        raise ValueError("PI/EI need an incumbent")

    if kind.mode is Mode.MIN:
        v = inc.value
        z = (v - mu) / sigma
        if kind.family is Family.PI:
            dz = (-dmu * sigma - (v - mu) * dsigma) / sigma**2
            return _phi(z) * dz
        # EI: d[(v-mu) Phi(z) + sigma phi(z)] collapses to the two-term form
        return -_Phi(z) * dmu + _phi(z) * dsigma

    av = abs(inc.value)
    z_lo = (-av - mu) / sigma
    z_mid = -mu / sigma
    z_hi = (av - mu) / sigma
    dz_hi = (-dmu * sigma - (av - mu) * dsigma) / sigma**2
    dz_lo = (-dmu * sigma + (av + mu) * dsigma) / sigma**2
    if kind.family is Family.PI:
        return _phi(z_hi) * dz_hi - _phi(z_lo) * dz_lo

    dz_mid = (-dmu * sigma + mu * dsigma) / sigma**2
    return (
        av * (dz_hi * _phi(z_hi) - dz_lo * _phi(z_lo))
        + dmu * (2.0 * _Phi(z_mid) - _Phi(z_hi) - _Phi(z_lo))
        + mu * (2.0 * dz_mid * _phi(z_mid) - dz_hi * _phi(z_hi) - dz_lo * _phi(z_lo))
        - dsigma * (2.0 * _phi(z_mid) - _phi(z_hi) - _phi(z_lo))
        - sigma * (
            -2.0 * dz_mid * z_mid * _phi(z_mid)
            + dz_lo * z_lo * _phi(z_lo)
            + dz_hi * z_hi * _phi(z_hi)
        )
    )
