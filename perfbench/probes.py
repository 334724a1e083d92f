"""Layer probes at fixed inputs: the same work on every workload and seed.

Each probe reports the median over five batches of the per-call time.  The
workload a probe should move is recorded in ``baseline.json``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls)
    return statistics.median(per_call) * 1e6


def _fixed_model():
    """A 12-point 2-D stochastic-kriging model on the himmelblau2d box."""
    from rootcal import ParameterBox
    from rootcal.simulators import himmelblau_signed

    rng = np.random.default_rng(12)
    box = ParameterBox([-3.0, -3.0], [3.0, 3.0])
    design = rng.uniform(-3.0, 3.0, (12, 2))
    targets = np.array([himmelblau_signed(t) for t in design])
    noise = np.full(12, 0.05)
    return box, design, targets, noise, rng.uniform(-3.0, 3.0, (50, 2))


def run_probes() -> dict:
    from rootcal import OBS_KEY, RngStream, fit, make_model, posterior_grad

    obs = RngStream(0).child(0).child(OBS_KEY)
    sir = make_model("sir", obs)
    mm1 = make_model("mm1", obs, {"arrival_real": 6.0})
    gen = np.random.default_rng(0)
    out = {}
    for theta in (0.2, 0.95):  # closed-form binomial branch; scalar-binomial loop
        point = np.array([theta])
        out[f"probe.simulators.sir_draw_us.theta_{theta}"] = _per_call_us(
            lambda: sir.draw(point, gen), 1000)
    rate = np.array([6.0])
    out["probe.simulators.mm1_draw_us.lambda_6"] = _per_call_us(
        lambda: mm1.draw(rate, gen), 200)

    box, design, targets, noise, points = _fixed_model()
    model = fit(box, design, targets, noise)

    def grads():
        for p in points:
            posterior_grad(model, p)

    out["probe.metamodel.posterior_grad_us"] = _per_call_us(grads, 4) / len(points)
    out["probe.metamodel.fit_ms"] = _per_call_us(
        lambda: fit(box, design, targets, noise), 4) / 1e3
    return out
