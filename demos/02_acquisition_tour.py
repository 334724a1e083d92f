"""Score all six acquisition functions along a one-dimensional surrogate.

The surrogate is fit to signed residual means that cross zero, so the
root-finding variants (which reward |mean| near zero) and the standard
variants (which reward low mean) prefer different regions.  For each
acquisition we print the value on a coarse grid and the point chosen by
the multi-start gradient optimizer.
"""

import numpy as np

from rootcal import (
    AcqKind,
    Family,
    Mode,
    ParameterBox,
    RngStream,
    acq_value,
    fit,
    optimize,
    posterior,
    posterior_grad,
    acq_gradient,
    design_posteriors,
    select_incumbent,
)
from rootcal.metamodel import STD_FLOOR


def main():
    box = ParameterBox([0.0], [1.0])
    design = np.linspace(0.05, 0.95, 6)[:, None]
    # signed means falling through zero around theta = 0.6
    targets = np.array([1.2, 0.8, 0.3, -0.1, -0.6, -1.1])
    noise = np.full(6, 0.02)
    model = fit(box, design, targets, noise)

    posts = design_posteriors(model)
    grid = np.linspace(0.0, 1.0, 6)
    print("grid:", "  ".join(f"{g:6.2f}" for g in grid))
    for family in Family:
        for mode in Mode:
            kind = AcqKind(family, mode)
            inc = select_incumbent(model, mode, posts)

            def objective(theta):
                # the optimizer asks for the gradient only at points it steps from
                post = posterior(model, theta)
                if post.std < STD_FLOOR:
                    return acq_value(kind, post, inc), None
                return acq_value(kind, post, inc), lambda: acq_gradient(
                    kind, post, posterior_grad(model, theta, post)[1], inc)

            vals = [acq_value(kind, posterior(model, [g]), inc) for g in grid]
            best, best_val = optimize(objective, box, RngStream(1),
                                      maximize=kind.maximize)
            name = f"{mode.value}-{family.value}"
            line = "  ".join(f"{v:6.3f}" for v in vals)
            print(f"{name:>8}: {line}   -> next point {best[0]:.4f} "
                  f"(value {best_val:.3f})")


if __name__ == "__main__":
    main()
