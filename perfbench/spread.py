#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--trace 0|1] [--baseline]

Runs ``perfbench/run.py`` once per (workload, seed) for every workload of
``BENCHMARK.json``, one at a time, from the root of the checkout.  For every
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median; for
end-to-end metrics it also prints the bound from ``BENCHMARK.json`` and flags
a spread above a third of it.  It also summarises the times before their
scaling by the machine-speed reference (the ``# unscaled`` line of
``run.py``).  ``--baseline`` writes the medians and quartiles into
``perfbench/baseline.json`` under ``baseline``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    unscaled = [ln.split(" ", 2)[2] for ln in lines if ln.startswith("# unscaled ")]
    result["unscaled"] = json.loads(unscaled[0]) if unscaled else {}
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    table = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, bench["run_seconds"], args.trace) for s in seeds]
        walls = [r["wall_s"] for r in runs]
        bad = [s for s, r in zip(seeds, runs) if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"incorrect seeds {bad or 'none'}")
        table[workload] = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            table[workload][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not stats["spread"] < bound / 3:
                flag = "  SPREAD > bound/3"
            print(f"  {name:44s} median {stats['median']:12.6g}  "
                  f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  "
                  f"spread {stats['spread']:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
        for name in runs[0]["unscaled"]:
            stats = summarize([r["unscaled"][name] for r in runs])
            print(f"  {'unscaled ' + name:44s} median {stats['median']:12.6g}  "
                  f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  "
                  f"spread {stats['spread']:7.4f}")
        sys.stdout.flush()
    if args.baseline:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text())
        mode = "end_to_end" if args.trace == 0 else "per_layer"
        entry = doc.setdefault("baseline", {}).setdefault(mode, {})
        entry["seeds"] = args.seeds
        for workload, metrics in table.items():
            entry[workload] = {n: {k: round(v, 6) for k, v in s.items()}
                               for n, s in metrics.items()}
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
