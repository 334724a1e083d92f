"""The six acquisition functions, their analytical gradients, and incumbent rules.

Families LCB / PI / EI each come in a minimization flavor and a root-finding
flavor that targets close-to-zero predictions symmetrically in sign; the six
are the `AcqKind`s of `acq_value` and `acq_gradient`.  Each PI and EI value
and its two partials in the posterior mean and std come from one set of
terms, and the gradient chains the partials through `dmean` and `dstd`.
Below the degeneracy floor on the posterior std every value switches to its
noiseless limit form, and a gradient there raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from .metamodel import STD_FLOOR, GpModel, Posterior, PosteriorGrad, posterior

__all__ = [
    "Family",
    "Mode",
    "AcqKind",
    "Incumbent",
    "design_posteriors",
    "select_incumbent",
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


# each class lookup of a member (`Family.PI`) is a Python-level descriptor call,
# about 0.2 us on Python 3.11, so the per-point functions below read these
_LCB, _PI, _ROOT = Family.LCB, Family.PI, Mode.ROOT


@dataclass(frozen=True)
class AcqKind:
    family: Family
    mode: Mode
    kappa: float | None = None  # read only by LCB, where None means 1.0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "mode", Mode(self.mode))
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


_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _phi(z: float) -> float:
    return float(np.exp(-0.5 * z * z)) / _SQRT_2PI


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


def _pi_ei(kind: AcqKind, mu: float, sigma: float, inc: Incumbent | None):
    """PI's or EI's value and its partials (a_mu, a_sigma) in the posterior mean
    and std, all from one set of terms; below STD_FLOOR, the noiseless-limit
    value and None."""
    if inc is None:
        raise ValueError("PI/EI need an incumbent")
    is_pi = kind.family is _PI
    if kind.mode is not _ROOT:
        v = inc.value
        if sigma < STD_FLOOR:
            return (1.0 if mu < v else 0.0) if is_pi else max(0.0, v - mu), None
        gap = v - mu
        z = gap / sigma
        P, p = float(ndtr(z)), _phi(z)
        if is_pi:
            return P, (-p / sigma, -z * p / sigma)
        return gap * P + sigma * p, (-P, p)
    av = abs(inc.value)
    if sigma < STD_FLOOR:
        return (1.0 if abs(mu) < av else 0.0) if is_pi else max(0.0, av - abs(mu)), None
    z_lo, z_hi = (-av - mu) / sigma, (av - mu) / sigma
    P_lo, P_hi = float(ndtr(z_lo)), float(ndtr(z_hi))
    p_lo, p_hi = _phi(z_lo), _phi(z_hi)
    if is_pi:
        return P_hi - P_lo, ((p_lo - p_hi) / sigma, (z_lo * p_lo - z_hi * p_hi) / sigma)
    z_mid = -mu / sigma
    a_mu = 2.0 * float(ndtr(z_mid)) - P_hi - P_lo
    dp = 2.0 * _phi(z_mid) - p_hi - p_lo
    return av * (P_hi - P_lo) + mu * a_mu - sigma * dp, (a_mu, -dp)


def acq_value(kind: AcqKind, post: Posterior, inc: Incumbent | None) -> float:
    if kind.family is _LCB:
        return (abs(post.mean) if kind.mode is _ROOT else post.mean) - kind.kappa * post.std
    value, partials = _pi_ei(kind, post.mean, post.std, inc)
    if post.query:
        post.query[2][0] = (kind, inc, post.mean, post.var, partials)
    return value


def acq_gradient(kind: AcqKind, post: Posterior, grad: PosteriorGrad,
                 inc: Incumbent | None) -> np.ndarray:
    """Analytical gradient of the named acquisition w.r.t. theta.  PI and EI reuse
    the partials `acq_value` left on `post` for the same kind and incumbent and the
    same mean and variance objects, so the same bits (`==` also matches -0.0, 0.0)."""
    mu, sigma = post.mean, post.std
    if sigma < STD_FLOOR:
        raise ValueError(f"acquisition gradient undefined at posterior std {sigma} "
                         f"below STD_FLOOR {STD_FLOOR}")
    if kind.family is _LCB:
        return ((np.sign(mu) * grad.dmean if kind.mode is _ROOT else grad.dmean)
                - kind.kappa * grad.dstd)
    memo = post.query[2][0] if post.query else None
    fresh = not (memo and memo[0] is kind and memo[1] is inc
                 and memo[2] is post.mean and memo[3] is post.var)
    a_mu, a_sigma = _pi_ei(kind, mu, sigma, inc)[1] if fresh else memo[4]
    return a_mu * grad.dmean + a_sigma * grad.dstd
