"""Sequential calibration loop: initial design, replication, refit, acquisition
optimization with optional search-space reduction, recommendation,
post-evaluation, and macro-replication sweeps.

Macro replication r derives every stream from (seed, r), and all methods
under one macro index share the observation and initial-design streams, so
method comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from . import rss as rss_mod
from .acqopt import OptimizerConfig, optimize
from .acquisition import (
    AcqKind,
    Incumbent,
    Mode,
    acq_gradient,
    acq_value,
    ei,
    lcb,
    pi,
    rf_ei,
    rf_lcb,
    rf_pi,
    select_incumbent,
)
from .core import ObservationSummary, ParameterBox, RngStream, aggregate_squared, summarize
from .metamodel import DegenerateStdError, GpModel, fit, posterior, posterior_grad
from .simulators import RootlessQuadratic, SimulationModel, make_model

__all__ = [
    "RunConfig",
    "IterationRecord",
    "CalibrationTrace",
    "initial_design",
    "evaluate_point",
    "post_evaluate",
    "run_calibration",
    "macro_sweep",
    "rootless_differences",
    "rootless_table",
]

# stream-key roles under one macro replication
_OBS, _INIT, _SIM, _ACQ, _POST = 0, 1, 2, 3, 4

OBS_KEY = _OBS


@dataclass(frozen=True)
class RunConfig:
    objective_mode: Mode
    stochastic: bool
    acq: AcqKind
    use_rss: bool
    p_init: int = 2
    budget: int = 10
    reps_per_point: int = 10
    alpha: float = 0.95
    theta_floor: float = 1e-8
    post_reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.p_init < 2:
            raise ValueError("p_init must be >= 2")
        if self.budget < 0 or self.reps_per_point < 1:
            raise ValueError("invalid budget or replication count")

    @property
    def label(self) -> str:
        parts = [self.objective_mode.value, self.acq.family.value,
                 "sk" if self.stochastic else "krig"]
        if self.use_rss:
            parts.append("rss")
        return "-".join(parts)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    evaluated: np.ndarray | None
    summary: ObservationSummary | None
    lengthscale: float
    acq_value: float
    box_lo: np.ndarray
    box_hi: np.ndarray
    recommended: np.ndarray
    post_mean: float
    post_ci_half: float


@dataclass(frozen=True)
class CalibrationTrace:
    config: RunConfig
    records: list


def initial_design(box: ParameterBox, p: int, rng: RngStream) -> list:
    """Latin hypercube sample: p strata per axis, one uniform draw each."""
    if p < 2:
        raise ValueError("p must be >= 2")
    gen = rng.generator()
    points = np.empty((p, box.dim))
    for axis in range(box.dim):
        perm = gen.permutation(p)
        offsets = gen.random(p)
        points[:, axis] = (perm + offsets) / p
    return [box.from_unit(u) for u in points]


def evaluate_point(model: SimulationModel, theta, reps: int,
                   rng: RngStream) -> ObservationSummary:
    """Draw `reps` independent residual samples at theta and summarize them."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    samples = [model.draw(theta, rng.child(j).generator()) for j in range(reps)]
    return summarize(theta, samples)


def post_evaluate(model: SimulationModel, theta, post_reps: int,
                  rng: RngStream) -> tuple[float, float]:
    """Fresh estimate of the squared-discrepancy objective with a 95% CI half-width."""
    if post_reps < 2:
        raise ValueError("post_reps must be >= 2")
    gen = rng.generator()
    vals = np.array([aggregate_squared(model.draw(theta, gen))
                     for j in range(post_reps)])
    ci_half = 1.96 * float(vals.std(ddof=1)) / np.sqrt(post_reps)
    return float(vals.mean()), ci_half


def _fit_surrogate(box: ParameterBox, summaries,
                   config: RunConfig) -> tuple[GpModel, Incumbent]:
    """Fit the surrogate to the mode's targets and take its incumbent once."""
    design = np.array([s.theta for s in summaries])
    if config.objective_mode is Mode.ROOT:
        targets = np.array([s.signed_mean for s in summaries])
        noise = np.array([s.signed_noise_var for s in summaries])
    else:
        targets = np.array([s.squared_mean for s in summaries])
        noise = np.array([s.squared_noise_var for s in summaries])
    if not config.stochastic:
        noise = np.zeros_like(noise)
    model = fit(box, design, targets, noise)
    return model, select_incumbent(model, config.objective_mode, config.stochastic)


def _active_box(model: GpModel, summaries, config: RunConfig,
                box: ParameterBox) -> ParameterBox:
    if not config.use_rss:
        return box
    design = np.array([s.theta for s in summaries])
    if config.stochastic:
        posts = [posterior(model, theta) for theta in design]
        sub = rss_mod.rss_stochastic(design, posts, config.alpha, config.theta_floor)
    else:
        signed = np.array([s.signed_mean for s in summaries])
        sub = rss_mod.rss_deterministic(design, signed, config.theta_floor)
    if sub is None:
        return box
    # degenerate axes (coincident coordinates) keep a positive extent via the floor
    lo = np.maximum(sub.lo, box.lower)
    hi = np.minimum(np.maximum(sub.hi, lo + config.theta_floor), box.upper)
    lo = np.minimum(lo, hi - config.theta_floor)
    return ParameterBox(lo, hi)


def _next_point(model: GpModel, inc: Incumbent, config: RunConfig,
                active: ParameterBox, rng: RngStream):
    def objective(theta):
        post = posterior(model, theta)
        value = acq_value(config.acq, post, inc)
        try:
            grad = acq_gradient(config.acq, post, posterior_grad(model, theta), inc)
        except DegenerateStdError:
            grad = None
        return value, grad

    theta = optimize(objective, active, OptimizerConfig(), rng,
                     maximize=config.acq.maximize)
    value = acq_value(config.acq, posterior(model, theta), inc)
    return theta, value


def run_calibration(sim: SimulationModel, config: RunConfig,
                    stream_id: int = 0) -> CalibrationTrace:
    """One end-to-end calibration run; a pure function of (sim, config, seed)."""
    base = RngStream(config.seed).child(stream_id)
    box = sim.box

    summaries = []
    for i, theta in enumerate(initial_design(box, config.p_init, base.child(_INIT))):
        summaries.append(
            evaluate_point(sim, theta, config.reps_per_point, base.child(_SIM, i))
        )

    records = []
    model, inc = _fit_surrogate(box, summaries, config)
    rec = summaries[inc.index].theta
    post_mean, ci = post_evaluate(sim, rec, config.post_reps, base.child(_POST, 0))
    records.append(IterationRecord(0, None, None, model.params.lengthscale,
                                   np.nan, box.lower, box.upper, rec, post_mean, ci))

    for t in range(1, config.budget + 1):
        active = _active_box(model, summaries, config, box)
        theta, value = _next_point(model, inc, config, active, base.child(_ACQ, t))
        summary = evaluate_point(sim, theta, config.reps_per_point,
                                 base.child(_SIM, config.p_init + t - 1))
        summaries.append(summary)
        model, inc = _fit_surrogate(box, summaries, config)
        rec = summaries[inc.index].theta
        post_mean, ci = post_evaluate(sim, rec, config.post_reps,
                                      base.child(_POST, t))
        records.append(IterationRecord(t, theta, summary, model.params.lengthscale,
                                       value, active.lower, active.upper, rec,
                                       post_mean, ci))
    return CalibrationTrace(config=config, records=records)


def rootless_differences(eps: float, design_size: int, seed: int,
                         rep: int = 0, reps_per_point: int = 10) -> dict:
    """Root-finding vs standard acquisition gap on a sign-constant objective.

    Fits a noise-aware surrogate to signed means over `design_size` uniformly
    spaced points of [-1, 1] and evaluates both acquisition variants at the
    known optimizer 0.  With eps >= 1 the two variants coincide directly, so
    plain absolute differences are reported.  With small eps the comparison
    uses the limiting correspondences instead: the LCB gap stays a direct
    difference (it is 0 once the predictive mean is one-sided), the PI gap is
    the exact difference Phi((-|v| - mu) / sigma) reported on the log scale
    (it underflows to 0 in linear arithmetic), and the EI gap is measured
    against 2 EI - 2 sigma phi(0).
    """
    if design_size < 2:
        raise ValueError("design_size must be >= 2")
    sim = RootlessQuadratic(eps=eps)
    design = np.linspace(-1.0, 1.0, design_size)[:, None]
    base = RngStream(seed).child(rep)
    summaries = [
        evaluate_point(sim, theta, reps_per_point, base.child(i))
        for i, theta in enumerate(design)
    ]
    targets = np.array([s.signed_mean for s in summaries])
    noise = np.array([s.signed_noise_var for s in summaries])
    model = fit(sim.box, design, targets, noise)

    post = posterior(model, [0.0])
    inc = select_incumbent(model, Mode.ROOT, stochastic=False)
    v_min = select_incumbent(model, Mode.MIN, stochastic=False)

    grid = np.linspace(-1.0, 1.0, 201)[:, None]
    mean_positive = all(posterior(model, g).mean > 0.0 for g in grid)

    lcb_diff = abs(rf_lcb(post, 1.0) - lcb(post, 1.0))
    if eps >= 1.0:
        pi_diff = abs(rf_pi(post, inc) - pi(post, v_min))
        ei_diff = abs(rf_ei(post, inc) - ei(post, v_min))
    else:
        pi_diff = float(log_ndtr((-abs(inc.value) - post.mean) / post.std))
        phi0 = 1.0 / np.sqrt(2.0 * np.pi)
        ei_diff = abs(rf_ei(post, inc)
                      - (2.0 * ei(post, v_min) - 2.0 * post.std * phi0))
    return {
        "design_size": design_size,
        "lcb_diff": float(lcb_diff),
        "pi_diff": float(pi_diff),
        "ei_diff": float(ei_diff),
        "post_mean": post.mean,
        "post_std": post.std,
        "mean_positive": mean_positive,
    }


def rootless_table(eps: float, design_sizes, seed: int, n_seeds: int = 100):
    """Average the per-seed acquisition gaps over `n_seeds` replications."""
    rows = []
    for size in design_sizes:
        recs = [rootless_differences(eps, size, seed, rep)
                for rep in range(n_seeds)]
        rows.append((
            int(size),
            float(np.mean([r["lcb_diff"] for r in recs])),
            float(np.mean([r["pi_diff"] for r in recs])),
            float(np.mean([r["ei_diff"] for r in recs])),
        ))
    return rows


def _run_one(args):
    problem, problem_params, config, stream_id = args
    base = RngStream(config.seed).child(stream_id)
    sim = make_model(problem, base.child(_OBS), problem_params)
    try:
        trace = run_calibration(sim, config, stream_id)
        return [(config.label, stream_id, r.iteration, r.post_mean)
                for r in trace.records], None
    except Exception as exc:  # recorded, not fatal
        return None, f"{config.label}/rep{stream_id}: {exc}"


def macro_sweep(problem: str, problem_params: dict, configs, macro_reps: int,
                workers: int = 1):
    """Run each config across macro replications; returns (long_rows, aggregate_rows, failures).

    long_rows: (method, macro_rep, iter, post_mean), sorted.
    aggregate_rows: (method, iter, mean, ci_half) across macro replications.
    """
    if macro_reps < 1:
        raise ValueError("macro_reps must be >= 1")
    tasks = [(problem, problem_params, cfg, r)
             for cfg in configs for r in range(macro_reps)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]

    long_rows = []
    failures = []
    for rows, err in results:
        if err is not None:
            failures.append(err)
        else:
            long_rows.extend(rows)
    long_rows.sort(key=lambda r: (r[0], r[1], r[2]))

    aggregate_rows = []
    by_key = {}
    for method, _, it, pm in long_rows:
        by_key.setdefault((method, it), []).append(pm)
    for (method, it), vals in sorted(by_key.items()):
        arr = np.array(vals)
        ci = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size) if arr.size > 1 else 0.0
        aggregate_rows.append((method, it, float(arr.mean()), ci))
    return long_rows, aggregate_rows, failures
