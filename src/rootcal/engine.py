"""Sequential calibration loop: initial design, replication, refit, acquisition
optimization with optional search-space reduction, recommendation,
post-evaluation, and macro-replication sweeps.

Macro replication r derives every stream from (seed, r). All methods under
one macro index share the observation, initial-design and per-design-index
post-evaluation streams, so method comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from . import rss as rss_mod
from .acqopt import optimize
from .acquisition import (
    AcqKind,
    Family,
    Incumbent,
    Mode,
    acq_gradient,
    acq_value,
    design_posteriors,
    select_incumbent,
)
from .core import (ObservationSummary, ParameterBox, RngStream, aggregate_squared, at_least,
                   summarize)
from .metamodel import GpModel, fit, posterior, posterior_grad, posterior_means
from .simulators import RootlessQuadratic, SimulationModel, make_model

__all__ = [
    "RunConfig",
    "IterationRecord",
    "CalibrationTrace",
    "observation_model",
    "initial_design",
    "draw_checked",
    "evaluate_point",
    "post_evaluate",
    "acquisition_objective",
    "run_calibration",
    "macro_sweep",
    "rootless_differences",
    "rootless_table",
]

# stream roles of one macro replication; SIM and POST take a design index
OBS_KEY, _INIT, _SIM, _ACQ, _POST = 0, 1, 2, 3, 4

ROOTLESS_REPS = 10  # replications per design point in rootless_differences


@dataclass(frozen=True)
class RunConfig:
    stochastic: bool
    acq: AcqKind  # its mode also sets the surrogate's target: signed (root) or squared (min)
    use_rss: bool  # root mode only: RSS brackets a sign change, which a squared target lacks
    p_init: int = 2
    budget: int = 10
    reps_per_point: int = 10
    alpha: float = 0.95
    post_reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        at_least("p_init", self.p_init, 2)
        at_least("budget", self.budget, 0)
        at_least("reps_per_point", self.reps_per_point, 1)
        at_least("post_reps", self.post_reps, 2)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        at_least("seed", self.seed, 0)
        if self.use_rss and self.acq.mode is not Mode.ROOT:
            raise ValueError(f"rss needs mode root, not {self.acq.mode.value}")

    @property
    def label(self) -> str:
        kappa = "" if self.acq.kappa in (None, 1.0) else f"-kappa{float(self.acq.kappa)!r}"
        parts = [self.acq.mode.value, self.acq.family.value + kappa,
                 "sk" if self.stochastic else "krig"]
        if self.use_rss:
            parts.append("rss")
        return "-".join(parts)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    evaluated: np.ndarray | None
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


def observation_model(problem: str, problem_params: dict | None, seed: int,
                      rep: int = 0) -> SimulationModel:
    """The model of macro replication `rep`, with its fixed observation."""
    return make_model(problem, RngStream(seed).child(rep).child(OBS_KEY), problem_params)


def initial_design(box: ParameterBox, p: int, rng: RngStream) -> list:
    """Latin hypercube sample: p strata per axis, one uniform draw each."""
    at_least("p", p, 2)
    gen = rng.generator()
    points = np.empty((p, box.dim))
    for axis in range(box.dim):
        perm = gen.permutation(p)
        offsets = gen.random(p)
        points[:, axis] = (perm + offsets) / p
    return [box.from_unit(u) for u in points]


def draw_checked(model: SimulationModel, theta, gen, reps: int) -> np.ndarray:
    """`model.draw(theta, gen, reps)`, rejecting a theta of the wrong length,
    non-finite or out of the box before drawing and a non-finite draw after."""
    point = model.box.point(theta, f"{type(model).__name__}: theta")
    where = f"{type(model).__name__}: theta {point.tolist()}"
    if not model.box.contains(point):
        raise ValueError(f"{where} is outside the box "
                         f"[{model.box.lower.tolist()}, {model.box.upper.tolist()}]")
    draws = model.draw(point, gen, reps)
    if not np.all(np.isfinite(draws)):
        raise ValueError(f"{where} gave a non-finite draw")
    return draws


def evaluate_point(model: SimulationModel, theta, reps: int,
                   rng: RngStream) -> ObservationSummary:
    """Draw `reps` independent residual samples at theta from one generator
    and summarize them."""
    at_least("reps", reps, 1)
    return summarize(theta, draw_checked(model, theta, rng.generator(), reps))


def post_evaluate(model: SimulationModel, theta, post_reps: int,
                  rng: RngStream) -> tuple[float, float]:
    """Fresh estimate of the squared-discrepancy objective with a 95% CI half-width."""
    at_least("post_reps", post_reps, 2)
    vals = aggregate_squared(draw_checked(model, theta, rng.generator(), post_reps))
    ci_half = 1.96 * float(vals.std(ddof=1)) / np.sqrt(post_reps)
    return float(vals.mean()), ci_half


def _fit_surrogate(box: ParameterBox, summaries, config: RunConfig):
    """Fit the surrogate to the mode's targets; returns the model, its
    incumbent and the design posteriors (None for a deterministic surrogate),
    which the incumbent and stochastic search-space reduction share."""
    design = np.array([s.theta for s in summaries])
    root = config.acq.mode is Mode.ROOT
    targets = np.array([s.signed_mean if root else s.squared_mean for s in summaries])
    noise = np.array([s.signed_noise_var if root else s.squared_noise_var for s in summaries])
    model = fit(box, design, targets, noise if config.stochastic else None)
    posts = design_posteriors(model) if config.stochastic else None
    return model, select_incumbent(model, config.acq.mode, posts), posts


def _active_box(model: GpModel, posts, config: RunConfig, box: ParameterBox) -> ParameterBox:
    """The box to search: with RSS, the bracket of the fitted surrogate's posteriors or targets."""
    if not config.use_rss:
        return box
    sub = (rss_mod.rss_deterministic(model.design, model.targets) if posts is None
           else rss_mod.rss_stochastic(model.design, posts, config.alpha))
    return box if sub is None else sub.within(box)


def acquisition_objective(model: GpModel, kind: AcqKind, inc: Incumbent | None):
    """theta -> (value, gradient callable, or None where the posterior is degenerate), the
    surface `optimize` searches; the gradient reuses the kernel vector and acq_value's partials."""
    def objective(theta):
        post = posterior(model, theta)
        return acq_value(kind, post, inc), None if post.degenerate else lambda: acq_gradient(
            kind, post, posterior_grad(model, theta, post)[1], inc)

    return objective


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

    records, estimates = [], {}  # design index -> its one post-evaluation
    theta = None
    value, active = np.nan, box
    for t in range(config.budget + 1):
        if t > 0:
            active = _active_box(model, posts, config, box)
            theta, value = optimize(acquisition_objective(model, config.acq, inc), active,
                                    base.child(_ACQ, t), maximize=config.acq.maximize)
            summaries.append(evaluate_point(sim, theta, config.reps_per_point,
                                            base.child(_SIM, config.p_init + t - 1)))
        model, inc, posts = _fit_surrogate(box, summaries, config)
        rec = summaries[inc.index].theta
        if inc.index not in estimates:
            estimates[inc.index] = post_evaluate(sim, rec, config.post_reps,
                                                 base.child(_POST, inc.index))
        post_mean, ci = estimates[inc.index]
        records.append(IterationRecord(t, theta, model.lengthscale,
                                       value, active.lower, active.upper, rec,
                                       post_mean, ci))
    return CalibrationTrace(config=config, records=records)


def rootless_differences(eps: float, design_size: int, seed: int,
                         rep: int = 0) -> dict:
    """Root-finding vs standard acquisition gap on a sign-constant objective.

    Fits a noise-aware surrogate to signed means over `design_size` uniformly
    spaced points of [-1, 1] and evaluates both acquisition variants at the
    known optimizer 0.  With eps >= 1 the two variants coincide directly, so
    plain absolute differences are reported.  With small eps the comparison
    uses the limiting correspondences instead: the LCB gap stays a direct
    difference (it is 0 once the predictive mean is one-sided), the PI gap is
    the exact difference Phi((-|v| - mu) / sigma) reported on the log scale
    (it underflows to 0 in linear arithmetic), and the EI gap is measured
    against 2 EI - 2 sigma phi(0).  Each design point gets `ROOTLESS_REPS`
    replications.
    """
    at_least("design_size", design_size, 2)
    sim = RootlessQuadratic(eps=eps)
    design = np.linspace(-1.0, 1.0, design_size)[:, None]
    base = RngStream(seed).child(rep)
    summaries = [
        evaluate_point(sim, theta, ROOTLESS_REPS, base.child(i))
        for i, theta in enumerate(design)
    ]
    targets = np.array([s.signed_mean for s in summaries])
    noise = np.array([s.signed_noise_var for s in summaries])
    model = fit(sim.box, design, targets, noise)

    post = posterior(model, [0.0])
    inc = select_incumbent(model, Mode.ROOT)
    v_min = select_incumbent(model, Mode.MIN)

    grid_means = posterior_means(model, np.linspace(-1.0, 1.0, 201)[:, None])
    mean_positive = bool(np.all(grid_means > 0.0))

    def value(family, mode, at=inc):
        return acq_value(AcqKind(family, mode), post, at)

    lcb_diff = abs(value(Family.LCB, Mode.ROOT) - value(Family.LCB, Mode.MIN))
    if eps >= 1.0:
        pi_diff = abs(value(Family.PI, Mode.ROOT) - value(Family.PI, Mode.MIN, v_min))
        ei_diff = abs(value(Family.EI, Mode.ROOT) - value(Family.EI, Mode.MIN, v_min))
    else:
        pi_diff = float(log_ndtr((-abs(inc.value) - post.mean) / post.std))
        phi0 = 1.0 / np.sqrt(2.0 * np.pi)
        ei_diff = abs(value(Family.EI, Mode.ROOT)
                      - (2.0 * value(Family.EI, Mode.MIN, v_min) - 2.0 * post.std * phi0))
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
    at_least("n_seeds", n_seeds, 1)
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
    """Long rows of one run; any error is re-raised naming the method and macro rep."""
    problem, problem_params, config, stream_id = args
    try:
        sim = observation_model(problem, problem_params, config.seed, stream_id)
        trace = run_calibration(sim, config, stream_id)
    except Exception as exc:
        raise RuntimeError(f"{config.label}/rep{stream_id}: {exc}") from exc
    return [(config.label, stream_id, r.iteration, r.post_mean) for r in trace.records]


def macro_sweep(problem: str, problem_params: dict, configs, macro_reps: int,
                workers: int = 1):
    """Run each config across macro replications; returns (long_rows, aggregate_rows).

    long_rows: (method, macro_rep, iter, post_mean), sorted.
    aggregate_rows: (method, iter, mean, ci_half) across macro replications.
    Configs sharing a label, which keys the rows, raise a ValueError before any run.
    A run that raises fails the whole sweep with a RuntimeError naming it, so
    the method comparison is never silently unpaired.
    """
    at_least("macro_reps", macro_reps, 1)
    labels = [cfg.label for cfg in configs]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"methods must be distinct: {labels.count(label)} are labeled {label}")
    tasks = [(problem, problem_params, cfg, r)
             for cfg in configs for r in range(macro_reps)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]
    long_rows = sorted((row for rows in results for row in rows), key=lambda r: r[:3])

    aggregate_rows = []
    by_key = {}
    for method, _, it, pm in long_rows:
        by_key.setdefault((method, it), []).append(pm)
    for (method, it), vals in sorted(by_key.items()):
        arr = np.array(vals)
        ci = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size) if arr.size > 1 else 0.0
        aggregate_rows.append((method, it, float(arr.mean()), ci))
    return long_rows, aggregate_rows
