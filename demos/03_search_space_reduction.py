"""Shrink the acquisition search box around a sign change.

The deterministic reducer picks the smallest rectangle spanned by a pair
of design points whose signed means disagree in sign; the stochastic
reducer does the same with a posterior sign-change probability and
weights the volume by the residual uncertainty.  Both count each axis of a
volume as at least ``rss.THETA_FLOOR`` (1e-8).
"""

import numpy as np

from rootcal import (
    ParameterBox,
    RngStream,
    fit,
    posterior,
    rss_deterministic,
    rss_stochastic,
)
from rootcal.engine import initial_design


def signed_mean(theta):
    # a smooth plane with a zero crossing inside the unit square
    return theta[0] + 0.5 * theta[1] - 0.7


def main():
    box = ParameterBox([0.0, 0.0], [1.0, 1.0])
    design = np.array(initial_design(box, 8, RngStream(3)))
    signed = np.array([signed_mean(t) for t in design])

    print("design points and signed means:")
    for theta, s in zip(design, signed):
        print(f"  ({theta[0]:.3f}, {theta[1]:.3f})  ->  {s:+.3f}")

    sub = rss_deterministic(design, signed)
    print("\ndeterministic reduction:")
    print(f"  pair {sub.pair}, volume {sub.volume:.4f}")
    print(f"  box [{sub.lo[0]:.3f}, {sub.hi[0]:.3f}] x "
          f"[{sub.lo[1]:.3f}, {sub.hi[1]:.3f}]")
    full = np.prod(box.width)
    print(f"  {100 * sub.volume / full:.1f}% of the full box volume scale")

    noise = np.full(len(design), 0.01)
    model = fit(box, design, signed, noise)
    posts = [posterior(model, theta) for theta in design]
    sub = rss_stochastic(design, posts, alpha=0.95)
    print("\nstochastic reduction (alpha = 0.95):")
    if sub is None:
        print("  no pair reaches the confidence threshold; keep the full box")
    else:
        print(f"  pair {sub.pair}, uncertainty-weighted volume {sub.volume:.4f}")
        print(f"  box [{sub.lo[0]:.3f}, {sub.hi[0]:.3f}] x "
              f"[{sub.lo[1]:.3f}, {sub.hi[1]:.3f}]")


if __name__ == "__main__":
    main()
