"""Paired comparison of root-finding vs plain minimization calibration.

Both methods run on the same noisy two-dimensional benchmark with shared
observation and initial-design randomness per macro replication, so the
comparison is paired.  The aggregate table shows the post-evaluated
squared discrepancy per iteration, averaged across replications.
"""

import numpy as np

from rootcal import AcqKind, Family, Mode, RunConfig, macro_sweep


def main():
    configs = [
        RunConfig(stochastic=True, acq=AcqKind(Family.EI, Mode.ROOT), use_rss=True,
                  budget=6, seed=0),
        RunConfig(stochastic=True, acq=AcqKind(Family.EI, Mode.MIN), use_rss=False,
                  budget=6, seed=0),
    ]
    print("methods:", ", ".join(c.label for c in configs))

    # a run that raises fails the whole sweep, so the comparison stays paired
    long_rows, aggregate_rows = macro_sweep(
        "himmelblau2d", None, configs, macro_reps=10, workers=2)

    print(f"\n{'method':>16} {'iter':>4} {'mean':>10} {'ci_half':>10}")
    for method, it, mean, ci in aggregate_rows:
        print(f"{method:>16} {it:>4} {mean:>10.3f} {ci:>10.3f}")

    final = {}
    for method, rep, it, pm in long_rows:
        if it == 6:
            final.setdefault(method, []).append(pm)
    for method, vals in sorted(final.items()):
        print(f"\n{method}: median final objective {np.median(vals):.3f}")


if __name__ == "__main__":
    main()
