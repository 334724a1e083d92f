"""The six acquisition functions, their analytical gradients, and incumbent rules.

Families LCB / PI / EI each come in a minimization flavor and a root-finding
flavor that targets close-to-zero predictions symmetrically in sign.  Below
the degeneracy floor on the posterior std every acquisition switches to its
noiseless limit form.  The PI and EI gradients evaluate each normal pdf/cdf
term once, then apply the product rule axis by axis on Python floats.
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
        elif not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")

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
        vals = model.targets
        idx = int(np.argmin(vals if mode is Mode.MIN else np.abs(vals)))
        return Incumbent(index=idx, value=float(vals[idx]))
    if len(posts) != model.size:
        raise ValueError(f"{len(posts)} posteriors for {model.size} design points")
    means = np.array([p.mean for p in posts])
    if mode is Mode.MIN:
        idx = int(np.argmin(means))
    else:
        idx = int(np.argmin([p.mean**2 + p.var for p in posts]))
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
    P_lo, P_hi = _Phi(z_lo), _Phi(z_hi)
    return float(
        av * (P_hi - P_lo)
        + mu * (2.0 * _Phi(z_mid) - P_hi - P_lo)
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
    axes = list(zip(grad.dmean.tolist(), grad.dstd.tolist()))
    s2 = sigma**2

    if kind.mode is Mode.MIN:
        v = inc.value
        z = (v - mu) / sigma
        p = float(_phi(z))
        if kind.family is Family.PI:
            return np.array([p * ((-dmu * sigma - (v - mu) * dsigma) / s2)
                             for dmu, dsigma in axes])
        # EI: d[(v-mu) Phi(z) + sigma phi(z)] collapses to the two-term form
        P = float(_Phi(z))
        return np.array([-P * dmu + p * dsigma for dmu, dsigma in axes])

    av = abs(inc.value)
    z_lo = (-av - mu) / sigma
    z_mid = -mu / sigma
    z_hi = (av - mu) / sigma
    p_lo, p_mid, p_hi = float(_phi(z_lo)), float(_phi(z_mid)), float(_phi(z_hi))
    if kind.family is Family.EI:
        dP = float(2.0 * _Phi(z_mid) - _Phi(z_hi) - _Phi(z_lo))
        dp = 2.0 * p_mid - p_hi - p_lo
    out = []
    for dmu, dsigma in axes:
        dz_hi = (-dmu * sigma - (av - mu) * dsigma) / s2
        dz_lo = (-dmu * sigma + (av + mu) * dsigma) / s2
        if kind.family is Family.PI:
            out.append(p_hi * dz_hi - p_lo * dz_lo)
            continue
        dz_mid = (-dmu * sigma + mu * dsigma) / s2
        out.append(
            av * (dz_hi * p_hi - dz_lo * p_lo)
            + dmu * dP
            + mu * (2.0 * dz_mid * p_mid - dz_hi * p_hi - dz_lo * p_lo)
            - dsigma * dp
            - sigma * (-2.0 * dz_mid * z_mid * p_mid + dz_lo * z_lo * p_lo
                       + dz_hi * z_hi * p_hi)
        )
    return np.array(out)
