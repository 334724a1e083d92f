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


def _smallest_pair(design, weight) -> Subregion | None:
    """Smallest weighted-volume pair subregion; ties keep the first pair in (a, b) order.

    `weight(a, b)` scales the pair's floored hypervolume, or is None when the
    pair is not a candidate.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    best = None
    for a in range(design.shape[0]):
        for b in range(a + 1, design.shape[0]):
            w = weight(a, b)
            if w is None:
                continue
            ta, tb = design[a], design[b]
            vol = float(np.prod(np.maximum(np.abs(ta - tb), THETA_FLOOR)) * w)
            if best is None or vol < best.volume:
                best = Subregion(np.minimum(ta, tb), np.maximum(ta, tb), vol, (a, b))
    return best


def rss_deterministic(design, signed_values) -> Subregion | None:
    """Smallest sign-changing subregion over all design pairs, or None."""
    f = np.asarray(signed_values, dtype=float)
    return _smallest_pair(
        design, lambda a, b: abs(f[a] - f[b]) if f[a] * f[b] < 0 else None)


def sign_change_prob(post_a: Posterior, post_b: Posterior) -> float:
    """Posterior probability that two design points bracket a root.

    Treats the two posteriors as independent normals; a sign change occurs
    when exactly one of the two latent values is negative.
    """
    pa = float(ndtr(-post_a.mean / max(post_a.std, STD_FLOOR)))
    pb = float(ndtr(-post_b.mean / max(post_b.std, STD_FLOOR)))
    return pa + pb - 2.0 * pa * pb


def rss_stochastic(design, posteriors, alpha: float) -> Subregion | None:
    """Smallest subregion among pairs with sign-change probability >= alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")

    def weight(a, b):
        p = sign_change_prob(posteriors[a], posteriors[b])
        return 1.0 - p if p >= alpha else None

    return _smallest_pair(design, weight)
