"""Workload definitions and the drivers that run them through rootcal's API and CLI.

Every workload uses the paper protocol (p_init 2, budget 10, 10 reps per
point, 1000 post reps) and the benchmark seed as the calibration seed.  A
workload's config is a regular ``rootcal`` config file, loaded through the
CLI's own loader.  Closed-loop workloads then call ``run_calibration`` for
one macro-replication index after another, deriving every stream exactly
as ``rootcal sweep`` does, and write each run's trace CSV with the CLI's
writer.  The sweep workload runs ``rootcal sweep`` through ``cli.main``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

PAPER_PROTOCOL = {"p_init": 2, "budget": 10, "reps_per_point": 10, "post_reps": 1000}

ROOT_EI_SK_RSS = {"mode": "root", "surrogate": "stochastic", "acq": "ei", "rss": True}
MIN_EI_SK = {"mode": "min", "surrogate": "stochastic", "acq": "ei", "rss": False}
MIN_LCB_KRIG = {"mode": "min", "surrogate": "deterministic", "acq": "lcb", "rss": False}

SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    problem: str
    methods: tuple
    sweep: bool
    size: int  # timed macro indices (closed loop) or macro_reps of one sweep
    traced: int  # leading indices (or macro_reps) that the traced run repeats


# Set sizes fill about 20 s on a 2-core Xeon VM, so that a run averages over
# enough distinct calibrations for its figures to hold from seed to seed.
WORKLOADS = {
    # simulator-bound: post-evaluation (11 x 1000 Lindley draws) dominates
    "mm1-root-sk": Workload("mm1", (ROOT_EI_SK_RSS,), False, 12, 6),
    # acquisition-bound; the only workload using stochastic posteriors at the
    # design points for the incumbent and for RSS
    "himmelblau2d-root-sk": Workload("himmelblau2d", (ROOT_EI_SK_RSS,), False, 32, 16),
    # the same layers on the zero-noise path with no RSS: a gain on the
    # stochastic path must not cost here
    "himmelblau2d-min-krig": Workload("himmelblau2d", (MIN_LCB_KRIG,), False, 28, 14),
    # the paper's paired comparison through the CLI: process pool, binomial
    # simulator, config and CSV I/O
    "sir-sweep": Workload("sir", (ROOT_EI_SK_RSS, MIN_EI_SK), True, 14, 3),
}


def check_trace(trace, box, budget: int) -> bool:
    """budget+1 records, every recommendation inside the box, finite post mean and CI."""
    if len(trace.records) != budget + 1:
        return False
    return all(
        box.contains(rec.recommended)
        and math.isfinite(rec.post_mean) and math.isfinite(rec.post_ci_half)
        for rec in trace.records
    )


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


@dataclass
class Calibration:
    index: int
    unit_s: float  # observation model + run_calibration + trace CSV
    calib_s: float  # run_calibration alone
    digest: str  # SHA-256 of the trace CSV bytes
    final_obj: float
    ok: bool


@dataclass
class Sweep:
    wall_s: float
    digest: str  # SHA-256 of the long and aggregate CSV bytes
    calibrations: int
    failed: int
    final_obj: float


class Runner:
    """Drives one workload at one seed from a private work directory."""

    def __init__(self, name: str, seed: int, workdir: str, protocol=PAPER_PROTOCOL):
        from rootcal import OBS_KEY, RngStream, cli, make_model

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.protocol = dict(protocol)
        self.cli = cli
        self.config_path = os.path.join(workdir, "config.json")
        self.trace_path = os.path.join(workdir, "trace.csv")
        self.write_config(self.workload.size)
        self.load()
        self.box = make_model(self.workload.problem, RngStream(seed).child(0).child(OBS_KEY),
                              self.config.get("problem_params")).box

    def write_config(self, macro_reps: int) -> None:
        config = {
            "problem": self.workload.problem,
            "methods": list(self.workload.methods),
            "macro_reps": macro_reps,
            "seed": self.seed,
            **self.protocol,
            "output": {
                "long": os.path.join(self.workdir, "long.csv"),
                "aggregate": os.path.join(self.workdir, "aggregate.csv"),
            },
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)

    def load(self) -> None:
        """Load and validate the config through the CLI, as ``rootcal`` does."""
        self.config = self.cli.load_config(self.config_path)
        self.run_configs = [self.cli._method_config(m, self.config)
                            for m in self.config["methods"]]

    def calibrate(self, index: int, clock=time.perf_counter) -> Calibration:
        """One macro replication of the first method, with streams derived as in
        ``rootcal sweep``; `clock` times it."""
        from rootcal import OBS_KEY, RngStream, engine, make_model

        run_cfg = self.run_configs[0]
        start = clock()
        sim = make_model(self.workload.problem,
                         RngStream(self.seed).child(index).child(OBS_KEY),
                         self.config.get("problem_params"))
        t0 = clock()
        trace = engine.run_calibration(sim, run_cfg, index)
        calib_s = clock() - t0
        header, rows = self.cli._trace_rows(trace, sim.box.dim)
        self.cli._write_csv(self.trace_path, header, rows)
        unit_s = clock() - start
        with open(self.trace_path, "rb") as fh:
            digest = _sha(fh.read())
        return Calibration(index, unit_s, calib_s, digest, trace.records[-1].post_mean,
                           check_trace(trace, sim.box, run_cfg.budget))

    def sweep(self, workers: int) -> Sweep:
        """One ``rootcal sweep`` through ``cli.main`` at the given worker count."""
        out = self.config["output"]
        for path in out.values():
            if os.path.exists(path):
                os.remove(path)
        os.environ["ROOTCAL_WORKERS"] = str(workers)
        start = time.perf_counter()
        code = self.cli.main(["sweep", self.config_path])
        wall = time.perf_counter() - start
        reps = self.config["macro_reps"]
        expected = len(self.run_configs) * reps
        if code != 0 or not all(os.path.exists(p) for p in out.values()):
            return Sweep(wall, "", expected, expected, math.nan)
        with open(out["long"], "rb") as fh:
            long_bytes = fh.read()
        with open(out["aggregate"], "rb") as fh:
            agg_bytes = fh.read()
        failed, final_obj = self._check_sweep(long_bytes)
        return Sweep(wall, _sha(long_bytes, agg_bytes), expected, failed, final_obj)

    def _check_sweep(self, long_bytes: bytes):
        """Failed runs (missing or non-finite rows) and the mean final objective."""
        budget = self.config["budget"]
        iters = {}
        finals = []
        for line in long_bytes.decode().splitlines()[1:]:
            method, rep, it, post_mean = line.split(",")
            value = float(post_mean)
            key = (method, int(rep))
            if math.isfinite(value):
                iters.setdefault(key, set()).add(int(it))
            if int(it) == budget:
                finals.append(value)
        want = set(range(budget + 1))
        failed = sum(
            iters.get((cfg.label, r)) != want
            for cfg in self.run_configs for r in range(self.config["macro_reps"])
        )
        final_obj = sum(finals) / len(finals) if finals else math.nan
        return failed, final_obj
