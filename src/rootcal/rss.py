"""Sign-guided search-space reduction and the root-existence probability.

A pair of design points whose signed discrepancies have (probably) opposite
signs brackets a root; the most compact such hyperrectangle, scored by a
hypervolume whose every axis counts at least THETA_FLOOR, replaces the
acquisition optimizer's box for the current iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .metamodel import STD_FLOOR, Posterior

__all__ = ["Subregion", "THETA_FLOOR", "rss_deterministic", "rss_stochastic", "sign_change_prob"]

THETA_FLOOR = 1e-8  # least extent of a hypervolume axis, here and in the engine's active box


@dataclass(frozen=True)
class Subregion:
    lo: np.ndarray
    hi: np.ndarray
    volume: float
    pair: tuple


def _smallest_pair(design, weight, what: str) -> Subregion | None:
    """Smallest weighted-volume pair subregion; ties keep the first pair in (a, b) order.

    `weight[a, b]` scales the pair's floored hypervolume, and is inf where
    the pair is not a candidate.  It is built from one of `what` per design
    point, and ValueError names both counts when they differ.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    if len(weight) != len(design):
        raise ValueError(f"{len(weight)} {what} for {len(design)} design points")
    a, b = np.nonzero(np.triu(weight < np.inf, 1))  # the candidates, in (a, b) order
    if not a.size:
        return None
    vols = np.prod(np.maximum(np.abs(design[a] - design[b]), THETA_FLOOR), axis=1) * weight[a, b]
    k = int(np.argmin(vols))
    ta, tb = design[a[k]], design[b[k]]
    return Subregion(np.minimum(ta, tb), np.maximum(ta, tb), float(vols[k]), (int(a[k]), int(b[k])))


def rss_deterministic(design, signed_values) -> Subregion | None:
    """Smallest sign-changing subregion over all design pairs, or None."""
    f = np.asarray(signed_values, dtype=float)
    return _smallest_pair(
        design, np.where(np.multiply.outer(f, f) < 0, np.abs(np.subtract.outer(f, f)), np.inf),
        "signed values")


def _sign_change_probs(posteriors) -> np.ndarray:
    """P[a, b], the posterior probability that design points a and b bracket a root.

    Treats the posteriors as independent normals; a sign change occurs when
    exactly one of the two latent values is negative.
    """
    q = ndtr(-np.array([p.mean for p in posteriors])
             / np.maximum([p.std for p in posteriors], STD_FLOOR))
    return q[:, None] + q - 2.0 * q[:, None] * q


def sign_change_prob(post_a: Posterior, post_b: Posterior) -> float:
    """Posterior probability that two design points bracket a root (see `_sign_change_probs`)."""
    return float(_sign_change_probs([post_a, post_b])[0, 1])


def rss_stochastic(design, posteriors, alpha: float) -> Subregion | None:
    """Smallest subregion among pairs with sign-change probability >= alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    p = _sign_change_probs(posteriors)
    return _smallest_pair(design, np.where(p >= alpha, 1.0 - p, np.inf), "posteriors")
