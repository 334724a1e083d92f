"""Calibrate the arrival rate of a single-server queue end to end.

A synthetic observation of 100 sojourn times is generated at arrival
rate 6.  The calibration loop then searches [2, 10] for the rate whose
simulated sojourn times match the observation, using the root-finding
expected-improvement acquisition with search-space reduction on a
stochastic-kriging surrogate.
"""

from rootcal import (
    AcqKind,
    Family,
    Mode,
    OBS_KEY,
    RngStream,
    RunConfig,
    make_model,
    run_calibration,
)


def main():
    base = RngStream(0).child(0)
    sim = make_model("mm1", base.child(OBS_KEY), {"arrival_real": 6.0})

    config = RunConfig(
        stochastic=True,
        acq=AcqKind(Family.EI, Mode.ROOT),
        use_rss=True,
        budget=10,
        seed=0,
    )
    print(f"method: {config.label}")
    trace = run_calibration(sim, config)

    print(f"{'iter':>4} {'evaluated':>10} {'recommended':>12} "
          f"{'post_mean':>10} {'box':>16}")
    for rec in trace.records:
        evaluated = "-" if rec.evaluated is None else f"{rec.evaluated[0]:.4f}"
        box = f"[{rec.box_lo[0]:.2f}, {rec.box_hi[0]:.2f}]"
        print(f"{rec.iteration:>4} {evaluated:>10} {rec.recommended[0]:>12.4f} "
              f"{rec.post_mean:>10.4f} {box:>16}")

    final = trace.records[-1]
    print(f"\ntrue arrival rate 6.0, recommended {final.recommended[0]:.4f} "
          f"(post-evaluated objective {final.post_mean:.4f} "
          f"+/- {final.post_ci_half:.4f})")


if __name__ == "__main__":
    main()
