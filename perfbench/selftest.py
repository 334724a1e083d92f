#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark at a tiny protocol.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` untraced and traced, in this
process, with 2 reps per point, 20 post reps and a budget of 2.  It checks
that every metric a run prints is finite (``run.py`` prints the metrics and
units ``BENCHMARK.json`` names for its mode, and fails if one is not
computed); that every run is correct (which includes the
traced-versus-untraced digest check); that the traced run attributes at
least 95% of calibration time to layer spans; and that the traced counts
repeat exactly when the traced run is repeated.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import run

TINY = {"p_init": 2, "budget": 2, "reps_per_point": 2, "post_reps": 20}
EXACT = ("simulators.design_reps", "simulators.post_reps", "acqopt.objective_calls",
         "metamodel.lml_calls", "metamodel.posterior_grad.calls", "kernel.kernel_matrix.calls")


def run_tiny(workload: str, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                         "--trace", str(trace)], protocol=TINY)
    lines = out.getvalue().strip().splitlines()
    if code != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {code}")
    digest = next(ln.split()[-1] for ln in lines if ln.startswith("# digest"))
    return json.loads(lines[-1]), digest


def main() -> int:
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        results = {}
        for trace in (0, 1, 1):
            result, digest = run_tiny(workload, trace)
            results.setdefault(trace, []).append(result)
            bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                errors.append(f"{workload} trace {trace}: non-finite {', '.join(bad)}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace {trace}: incorrect run, digest {digest}")
        first, second = (r["metrics"] for r in results[1])
        if first["trace.coverage_frac"]["value"] < 0.95:
            errors.append(f"{workload}: spans cover under 95% of calibration time")
        for name in EXACT:
            if first[name]["value"] != second[name]["value"] or not first[name]["value"]:
                errors.append(f"{workload}: {name} did not repeat exactly")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
