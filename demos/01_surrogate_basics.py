"""Fit a noise-aware surrogate to replicated simulation output.

We sample a noisy quadratic at a handful of points, average the
replications, and fit a Gaussian-process surrogate whose observation
noise comes from the replication scatter.  The posterior mean should
track the true curve and the posterior std should shrink near the data.
"""

import numpy as np

from rootcal import (
    ParameterBox,
    RngStream,
    fit,
    posterior,
    summarize,
)


def noisy_quadratic(theta, gen, reps=10):
    true = (theta - 0.3) ** 2 - 0.2
    return [np.array([true + gen.normal(0.0, 0.1)]) for _ in range(reps)]


def main():
    box = ParameterBox([0.0], [1.0])
    gen = RngStream(0).generator()

    design = np.linspace(0.05, 0.95, 7)[:, None]
    summaries = [summarize(theta, noisy_quadratic(theta[0], gen))
                 for theta in design]

    targets = np.array([s.signed_mean for s in summaries])
    noise = np.array([s.signed_noise_var for s in summaries])
    model = fit(box, design, targets, noise)
    print(f"fitted lengthscale: {model.lengthscale:.4f}")

    print(f"{'theta':>8} {'truth':>8} {'mean':>8} {'std':>8}")
    for theta in np.linspace(0.0, 1.0, 11):
        post = posterior(model, [theta])
        true = (theta - 0.3) ** 2 - 0.2
        print(f"{theta:8.2f} {true:8.4f} {post.mean:8.4f} {post.std:8.4f}")


if __name__ == "__main__":
    main()
