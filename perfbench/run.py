#!/usr/bin/env python3
"""Layered benchmark of rootcal's calibration loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rootcal is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it start with
``#`` and give the workload's output digest, sample counts and the machine.

``--trace 0`` measures the end-to-end metrics untraced: set-up, then the
workload's fixed set of macro-replication indices (or whole sweeps) for
about ``--seconds``, at least one full pass, with times scaled by a
machine-speed reference (see Speed).  ``--trace 1`` runs the leading part
of the set untraced and again under the span tracer (a sweep also at
2 workers), checks that all give identical bytes, and reports the per-layer
metrics plus fixed-input probes.  Both modes begin with a warm-up
calibration at a fixed seed and an index outside the set, repeated three
times.  ``setup_s`` is the median warm-up plus the median of three fresh
interpreters' start-ups (imports, the config loaded through the CLI, model
construction), which are timed after the measurement so that
``peak_rss_mb`` does not see them.  Set-up is thus the same work whatever
``--seed`` is.

BLAS is pinned to one thread before numpy is imported.  Exit code 0 means a
result was printed, whether or not ``correct`` is true; a missing source
tree or bad arguments exit 2 without a result.
"""

from __future__ import annotations

import os
import platform
import time

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
SAMPLE_PERIOD = 0.05
REF_LOOPS = 500
REF_SECONDS = 0.0015

# set-up runs at this seed, whatever --seed is, so it is the same work on every run
WARM_SEED = 0


def _metric_units(key: str) -> dict:
    """Metric name -> unit, for the BENCHMARK.json section `key`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[key]}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Run:
    """Counts and checks accumulated over one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str, calibrations: int = 0) -> None:
        self.failed += calibrations
        self.problems.append(message)

    def calibrate(self, runner, index, clock=time.perf_counter):
        self.attempted += 1
        try:
            cal = runner.calibrate(index, clock)
        except Exception:
            traceback.print_exc()
            self.fail(f"calibration {index} raised", 1)
            return None
        if not cal.ok:
            self.fail(f"calibration {index} failed its output checks", 1)
        return cal

    def sweep(self, runner, workers):
        s = runner.sweep(workers)
        self.attempted += s.calibrations
        if s.failed:
            self.fail(f"sweep at {workers} worker(s): {s.failed} failed run(s)", s.failed)
        return s

    def same(self, what: str, a: str, b: str, calibrations: int) -> None:
        if a != b:
            self.fail(f"{what}: digest {b[:16]} != {a[:16]}", calibrations)


class Speed:
    """Machine-speed reference for scaling timings on a shared machine.

    On a shared machine the speed of the same code can drift by 15% or more
    within a second, as other tenants load the cores.  A fixed reference loop (Python
    arithmetic and small-array numpy, like the calibration loop) is timed
    every SAMPLE_PERIOD seconds from a SIGALRM handler, which runs between
    bytecodes of the measured code.  A unit of work is reported as its own
    time (wall time minus the reference loops inside it, see work_clock)
    times REF_SECONDS over the mean reference duration during the unit: the
    seconds it would take where the reference loop takes REF_SECONDS.  During
    a sweep this process only waits, so the sampling moves into the forked
    workers (see workers).  With no timer, or for a unit shorter than the
    period, the reference is sampled once at the unit's end.  Sampling never
    touches rootcal's state or outputs.
    """

    def __init__(self, period: float | None):
        import numpy as np

        self._exp, self._a = np.exp, np.linspace(0.0, 1.0, 12)
        self.samples = []
        self.busy = 0.0
        self.sample()  # the first call pays numpy's one-off costs
        self.samples.clear()
        self.busy = 0.0
        self.sample()
        self.period = period
        self._share = None  # set while a sweep's workers are being forked
        self._fd = None  # in a forked worker: where its samples go
        if period:
            signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, period, period)
            os.register_at_fork(after_in_child=self._forked)

    def close(self) -> None:
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.period = None

    def sample(self) -> float:
        exp, a, s = self._exp, self._a, 0.0
        start = time.perf_counter()
        for i in range(REF_LOOPS):
            s += float(exp(-a * a).sum()) + (i * i) % 7
        took = time.perf_counter() - start
        self.samples.append(took)
        self.busy += took
        return took

    def _alarm(self, *_):
        took = self.sample()
        if self._fd is not None:
            os.write(self._fd, struct.pack("d", took))  # one small O_APPEND write

    def _forked(self):
        if self.period and self._share is not None:
            self._fd = self._share
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    @contextlib.contextmanager
    def workers(self, path: str):
        """Sample in the sweep workers forked inside the block, not here.

        Yields a list that holds the workers' samples after the block.
        """
        shared = []
        if not self.period:
            yield shared
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._share = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        try:
            yield shared
        finally:
            os.close(self._share)
            self._share = None
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        with open(path, "rb") as fh:
            data = fh.read()
        shared.extend(v for (v,) in struct.iter_unpack("d", data))

    def work_clock(self) -> float:
        """perf_counter minus the time spent in reference loops."""
        return time.perf_counter() - self.busy

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, mark: int, during=None) -> float:
        """Scale for the unit that started at `mark`, or that saw the samples `during`."""
        during = during or self.samples[mark:]
        if not during:
            self.sample()
            during = self.samples[mark - 1:]
        return REF_SECONDS / statistics.fmean(during)


def _warm_up(run: Run, warm, workload, speed: Speed):
    """Median of SETUPS calibrations of `warm`, a runner at WARM_SEED, at an
    index outside the timed set.  Returns (scaled, raw) seconds."""
    warm_ups = []
    for _ in range(SETUPS):
        mark = speed.mark()
        cal = run.calibrate(warm, workload.size, clock=speed.work_clock)
        if cal is not None:
            warm_ups.append((cal, speed.factor(mark)))
    for cal, _ in warm_ups[1:]:
        run.same("warm-up repetition", warm_ups[0][0].digest, cal.digest, 1)
    if not warm_ups:
        return math.nan, math.nan
    return (statistics.median(c.unit_s * k for c, k in warm_ups),
            statistics.median(c.unit_s for c, _ in warm_ups))


def _start_up(run: Run, name: str, speed: Speed, workdir: Path):
    """Median of SETUPS fresh interpreters running startup.py, which does what
    this process did before its first calibration, each timed from spawn to
    exit.  Returns (scaled, raw) seconds."""
    cmd = [sys.executable, str(HERE / "startup.py"), name, str(workdir)]
    starts = []
    for _ in range(SETUPS):
        mark = speed.mark()
        start = time.perf_counter()
        code = subprocess.run(cmd, cwd=ROOT).returncode
        wall = time.perf_counter() - start
        if code == 0:
            starts.append((wall, speed.factor(mark)))
        else:
            run.fail(f"start-up exited with code {code}")
    if not starts:
        return math.nan, math.nan
    return (statistics.median(w * k for w, k in starts),
            statistics.median(w for w, _ in starts))


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (ru_maxrss of
    RUSAGE_CHILDREN is the largest single child, not a sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed_closed(run, runner, workload, seconds, speed):
    """Cycle the index set for about `seconds`, at least one full pass.

    Per index the median over its repetitions is used, so every index of the
    set weighs the same however many repetitions fit.
    """
    samples, first = {}, {}  # index -> [(unit_s, calib_s, scale)]
    start = time.perf_counter()
    i = 0
    while True:
        index = i % workload.size
        mark = speed.mark()
        cal = run.calibrate(runner, index, clock=speed.work_clock)
        i += 1
        if cal is not None:
            samples.setdefault(index, []).append((cal.unit_s, cal.calib_s, speed.factor(mark)))
            if index in first:
                run.same(f"repetition of index {index}", first[index], cal.digest, 1)
            else:
                first[index] = cal.digest
        typical = statistics.median(u for v in samples.values() for u, _, _ in v) \
            if samples else 0.0
        if i >= workload.size and time.perf_counter() - start + typical > seconds:
            break

    def metrics(scaled):
        units = [statistics.median(u * (k if scaled else 1.0) for u, _, k in v)
                 for v in samples.values()]
        calibs = [statistics.median(c * (k if scaled else 1.0) for _, c, k in v)
                  for v in samples.values()]
        return {"calib_per_s": _ratio(len(units), sum(units)),
                "calib_s.p50": statistics.median(calibs) if calibs else 0.0}

    return metrics(True), metrics(False), _digest_of(first, workload.size), i


def _digest_of(digests: dict, size: int) -> str:
    joined = "".join(digests.get(i, "missing") for i in range(size))
    return hashlib.sha256(joined.encode()).hexdigest()


def _timed_sweep(run, runner, workload, seconds, speed):
    """Whole sweeps at SWEEP_WORKERS for about `seconds`, at least one.

    The reference is sampled in the workers, which run the calibrations, and
    its time, spread over the workers, is taken out of the sweep's wall time.
    """
    from workloads import SWEEP_WORKERS

    walls, first = [], None
    start = time.perf_counter()
    while True:
        mark = speed.mark()
        with speed.workers(os.path.join(runner.workdir, "reference.bin")) as shared:
            s = run.sweep(runner, SWEEP_WORKERS)
        # the workers' reference loops ran inside the sweep; take out their share of it
        work_s = s.wall_s - sum(shared) / SWEEP_WORKERS
        walls.append((work_s, speed.factor(mark, shared)))
        if first is None:
            first = s
        else:
            run.same("sweep repetition", first.digest, s.digest, s.calibrations)
        if time.perf_counter() - start + statistics.median(w for w, _ in walls) > seconds:
            break

    def metrics(scaled):
        wall = statistics.median(w * (k if scaled else 1.0) for w, k in walls)
        return {"calib_per_s": first.calibrations / wall,
                "calib_s.p50": SWEEP_WORKERS * wall / first.calibrations}

    return metrics(True), metrics(False), first.digest, len(walls)


def _layer_metrics(tracer) -> dict:
    calls, busy, own, children = tracer.totals()
    cnt = tracer.counts
    run_spans = [sid for sid, s in enumerate(tracer.spans) if s[1] == "engine.run_calibration"]
    rss_calls = calls["rss.rss_stochastic"] + calls["rss.rss_deterministic"]

    def per_call_us(name):
        return _ratio(busy[name], calls[name]) * 1e6

    return {
        "simulators.design_reps": cnt["simulators.design_reps"],
        "simulators.post_reps": cnt["simulators.post_reps"],
        "engine.evaluate_point.busy_s": busy["engine.evaluate_point"],
        "engine.post_evaluate.busy_s": busy["engine.post_evaluate"],
        "simulators.design_draw_us":
            _ratio(busy["engine.evaluate_point"], cnt["simulators.design_reps"]) * 1e6,
        "simulators.post_draw_us":
            _ratio(busy["engine.post_evaluate"], cnt["simulators.post_reps"]) * 1e6,
        "acqopt.optimize.busy_s": busy["acqopt.optimize"],
        "acqopt.optimize.self_s": own["acqopt.optimize"],
        "acqopt.objective_calls": calls["acqopt.objective"],
        "acqopt.objective_us": per_call_us("acqopt.objective"),
        "acqopt.degenerate_frac": _ratio(cnt["acqopt.degenerate"], calls["acqopt.objective"]),
        "metamodel.posterior.calls.objective": cnt["metamodel.posterior.objective"],
        "metamodel.posterior.calls.incumbent": cnt["metamodel.posterior.incumbent"],
        "metamodel.posterior.calls.rss": cnt["metamodel.posterior.rss"],
        "metamodel.posterior.calls.other": cnt["metamodel.posterior.other"],
        "metamodel.posterior_us": per_call_us("metamodel.posterior"),
        "metamodel.posterior_grad.calls": calls["metamodel.posterior_grad"],
        "metamodel.posterior_grad_us": per_call_us("metamodel.posterior_grad"),
        "kernel.kernel_matrix.calls": calls["kernel.kernel_matrix"],
        "kernel.kernel_matrix_us": per_call_us("kernel.kernel_matrix"),
        "acquisition.acq_value_us": per_call_us("acquisition.acq_value"),
        "acquisition.acq_gradient_us": per_call_us("acquisition.acq_gradient"),
        "acquisition.select_incumbent.busy_s": busy["acquisition.select_incumbent"],
        "rss.busy_s": busy["rss.rss_stochastic"] + busy["rss.rss_deterministic"],
        "rss.shrink_frac": _ratio(cnt["rss.shrinks"], rss_calls),
        "metamodel.fit.busy_s": busy["metamodel.fit"],
        "metamodel.lml_calls": calls["metamodel.log_marginal_likelihood"],
        "metamodel.lml_us": per_call_us("metamodel.log_marginal_likelihood"),
        "metamodel.lml_neg_inf": cnt["metamodel.lml_neg_inf"],
        "core.generator_calls": calls["core.RngStream.generator"],
        "core.generator_us": per_call_us("core.RngStream.generator"),
        "engine.run_calibration.self_s": own["engine.run_calibration"],
        "cli.load_config_ms": busy["cli.load_config"] * 1e3,
        "cli.write_csv_ms": busy["cli.write_csv"] * 1e3,
        "trace.coverage_frac": _ratio(sum(children[s] for s in run_spans),
                                      busy["engine.run_calibration"]),
        "trace.calibrations": calls["engine.run_calibration"],
    }


def _traced_closed(run, runner, workload, tracer, speed):
    """Each leading index untraced, then traced, so drift hits both alike."""
    pairs = []
    for r in range(workload.traced):
        mark = speed.mark()
        plain = run.calibrate(runner, r)
        plain_scale = speed.factor(mark)
        with tracer:
            tracer.install()
            if r == 0:
                runner.load()
            mark = speed.mark()
            traced = run.calibrate(runner, r)
        traced_scale = speed.factor(mark)
        if plain is not None and traced is not None:
            run.same(f"traced index {r}", plain.digest, traced.digest, 1)
            pairs.append((plain, traced, traced.calib_s * traced_scale
                          / (plain.calib_s * plain_scale)))
    extra = {
        "trace.overhead_frac": statistics.median(p[2] for p in pairs) - 1.0
        if pairs else math.nan,
        "engine.sweep_efficiency": 0.0,
        "final_obj": statistics.fmean(b.final_obj for _, b, _ in pairs) if pairs else math.nan,
    }
    return extra, _digest_of({b.index: b.digest for _, b, _ in pairs}, workload.traced)


def _traced_sweep(run, runner, workload, tracer, speed):
    """Sweeps at SWEEP_WORKERS and serially, then serially under the tracer, in-process."""
    from workloads import SWEEP_WORKERS, check_trace

    runner.write_config(workload.traced)
    runner.load()
    mark = speed.mark()
    parallel = run.sweep(runner, SWEEP_WORKERS)
    parallel_s = parallel.wall_s * speed.factor(mark)
    mark = speed.mark()
    serial = run.sweep(runner, 1)
    serial_s = serial.wall_s * speed.factor(mark)
    budget = runner.config["budget"]

    def check(trace):
        if not check_trace(trace, runner.box, budget):
            run.fail("traced sweep calibration failed its output checks", 1)

    mark = speed.mark()
    with tracer:
        tracer.install(on_calibration=check)
        traced = run.sweep(runner, 1)
    traced_s = traced.wall_s * speed.factor(mark)
    run.same(f"serial vs {SWEEP_WORKERS}-worker sweep", parallel.digest, serial.digest,
             serial.calibrations)
    run.same("traced vs untraced sweep", serial.digest, traced.digest, traced.calibrations)
    extra = {
        "trace.overhead_frac": traced_s / serial_s - 1.0,
        "engine.sweep_efficiency": serial_s / (SWEEP_WORKERS * parallel_s),
        "final_obj": traced.final_obj,
    }
    return extra, traced.digest


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
    }


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None, protocol=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rootcal" / "__init__.py").is_file():
        print(f"rootcal source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import rootcal  # noqa: F401  (import time counts toward set-up)
    from tracer import Tracer
    from workloads import PAPER_PROTOCOL, WORKLOADS, Runner

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    # the traced run times spans itself, so there the reference is only sampled
    # between units, where it cannot land inside a span
    speed = Speed(SAMPLE_PERIOD if args.trace == 0 else None)
    try:
        protocol = protocol or PAPER_PROTOCOL
        runner = Runner(args.workload, args.seed, str(workdir), protocol)
        (workdir / "warm").mkdir()
        warm = Runner(args.workload, WARM_SEED, str(workdir / "warm"), protocol)
        warm_s, warm_raw = _warm_up(run, warm, workload, speed)
        if args.trace == 0:
            timed = _timed_sweep if workload.sweep else _timed_closed
            metrics, raw, digest, samples = timed(run, runner, workload, args.seconds, speed)
            # read before the start-ups, whose interpreters are children too
            metrics["peak_rss_mb"] = _peak_rss_mb()
            (workdir / "startup").mkdir()
            start_s, start_raw = _start_up(run, args.workload, speed, workdir / "startup")
            metrics["setup_s"] = start_s + warm_s
            raw["setup_s"] = start_raw + warm_raw
            units = _metric_units("end_to_end")
            note = (f"{samples} timed {'sweeps' if workload.sweep else 'calibrations'}; "
                    f"reference median {statistics.median(speed.samples) * 1e3:.3f} ms")
        else:
            from probes import run_probes

            tracer = Tracer()
            traced = _traced_sweep if workload.sweep else _traced_closed
            extra, digest = traced(run, runner, workload, tracer, speed)
            metrics = _layer_metrics(tracer)
            metrics.update(extra)
            metrics.update(run_probes())
            tracer.write(OUT / f"spans-{args.workload}.json")
            units = _metric_units("per_layer")
            note, raw = f"{len(tracer.spans)} spans", None
    finally:
        speed.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {note}")
    print(f"# digest {digest}")
    if raw is not None:
        print(f"# unscaled {json.dumps(raw)}")
    print(f"# machine {json.dumps(_machine(), sort_keys=True)}")
    for problem in run.problems:
        print(f"# check failed: {problem}")
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
