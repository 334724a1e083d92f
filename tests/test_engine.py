import re

import numpy as np
import pytest

from rootcal.acquisition import AcqKind, Family, Incumbent, Mode, acq_gradient, acq_value
from rootcal.core import ParameterBox, RngStream
from rootcal.diagnostics import ALL_ACQ_KINDS, validate_gradients
from rootcal.engine import (
    OBS_KEY,
    RunConfig,
    _active_box,
    acquisition_objective,
    draw_checked,
    evaluate_point,
    initial_design,
    macro_sweep,
    post_evaluate,
    rootless_differences,
    rootless_table,
    run_calibration,
)
from rootcal.metamodel import STD_FLOOR, model_at, posterior, posterior_grad
from rootcal.rss import rss_stochastic
from rootcal.simulators import RootlessQuadratic, SimulationModel, make_model


def _config(**kw):
    defaults = dict(
        stochastic=True,
        acq=AcqKind(Family.EI, Mode.ROOT),
        use_rss=True,
        budget=3,
        post_reps=50,
        seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestInitialDesign:
    def test_latin_hypercube_stratification(self):
        box = ParameterBox([0.0, -2.0], [10.0, 2.0])
        p = 5
        points = np.array(initial_design(box, p, RngStream(0)))
        assert points.shape == (p, 2)
        unit = box.to_unit(points)
        for axis in range(2):
            strata = np.floor(unit[:, axis] * p).astype(int)
            assert sorted(strata) == list(range(p))

    def test_deterministic_per_stream(self):
        box = ParameterBox([0.0], [1.0])
        a = initial_design(box, 4, RngStream(1))
        b = initial_design(box, 4, RngStream(1))
        assert np.array_equal(a, b)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            initial_design(ParameterBox([0.0], [1.0]), 1, RngStream(0))


class TestEvaluation:
    def test_evaluate_point_summary(self, monkeypatch):
        monkeypatch.setattr(RootlessQuadratic, "noise_std", 0.0)
        s = evaluate_point(RootlessQuadratic(eps=1.0), [0.5], 5, RngStream(0))
        assert s.signed_mean == pytest.approx(1.25)
        assert s.signed_noise_var == pytest.approx(0.0, abs=1e-15)

    def test_post_evaluate_matches_noise_free_truth(self, monkeypatch):
        monkeypatch.setattr(RootlessQuadratic, "noise_std", 0.0)
        mean, ci = post_evaluate(RootlessQuadratic(eps=1.0), [0.5], 100, RngStream(0))
        assert mean == pytest.approx(1.25**2)
        assert ci == pytest.approx(0.0, abs=1e-12)

    def test_post_evaluate_ci_shrinks_with_reps(self):
        sim = RootlessQuadratic(eps=1.0)
        _, ci_small = post_evaluate(sim, [0.5], 100, RngStream(1))
        _, ci_big = post_evaluate(sim, [0.5], 1600, RngStream(1))
        assert ci_big < ci_small


def _evaluate_reference(model, theta, reps, rng):
    """Rows from one draw call; one pair of aggregates per row in a scalar loop."""
    rows = model.draw(theta, rng.generator(), reps)
    signed = np.array([float(np.mean(r)) for r in rows])
    squared = np.array([float(np.mean(r**2)) for r in rows])

    def noise_var(v):
        return 0.0 if v.size == 1 else float(np.sum((v - v.mean()) ** 2) / (reps * (reps - 1)))

    return (float(signed.mean()), float(squared.mean()), noise_var(signed),
            noise_var(squared))


def _post_reference(model, theta, post_reps, rng):
    rows = model.draw(theta, rng.generator(), post_reps)
    vals = np.array([float(np.mean(row ** 2)) for row in rows])
    return float(vals.mean()), 1.96 * float(vals.std(ddof=1)) / np.sqrt(post_reps)


POINTS = [("mm1", [6.0]), ("mm1", [9.7]), ("sir", [0.2]), ("sir", [0.95]),
          ("himmelblau2d", [0.5, -1.0]), ("rootless", [0.3])]


class TestBatchedEvaluation:
    @pytest.mark.parametrize("problem,theta", POINTS)
    @pytest.mark.parametrize("reps", [1, 10])
    def test_evaluate_point_equals_scalar_loop(self, problem, theta, reps):
        sim = make_model(problem, RngStream(2).child(OBS_KEY))
        s = evaluate_point(sim, theta, reps, RngStream(6))
        assert (s.signed_mean, s.squared_mean, s.signed_noise_var,
                s.squared_noise_var) == _evaluate_reference(sim, theta, reps, RngStream(6))

    @pytest.mark.parametrize("problem,theta", POINTS)
    def test_post_evaluate_equals_scalar_loop(self, problem, theta):
        sim = make_model(problem, RngStream(2).child(OBS_KEY))
        assert post_evaluate(sim, theta, 200, RngStream(7)) == \
            _post_reference(sim, theta, 200, RngStream(7))

    def test_evaluate_point_builds_one_generator(self, monkeypatch):
        built = []
        generator = RngStream.generator

        def counted(self):
            built.append(self.key)
            return generator(self)

        sim = make_model("mm1", RngStream(2).child(OBS_KEY))
        monkeypatch.setattr(RngStream, "generator", counted)
        evaluate_point(sim, [6.0], 10, RngStream(6).child(2, 1))
        assert built == [(2, 1)]


class TestInputGuard:
    @pytest.mark.parametrize("problem,theta", [
        ("himmelblau2d", [np.nan, 0.0]),
        ("himmelblau2d", [0.0, np.inf]),
        ("himmelblau2d", [3.5, 0.0]),
        ("mm1", [0.0]),
        ("sir", [1.2]),
        ("rootless", [-1.5]),
    ])
    def test_bad_theta_rejected_naming_model_and_theta(self, problem, theta):
        sim = make_model(problem, RngStream(0))
        name = type(sim).__name__
        for call in (lambda: evaluate_point(sim, theta, 3, RngStream(0)),
                     lambda: post_evaluate(sim, theta, 10, RngStream(0))):
            with pytest.raises(ValueError, match=name) as info:
                call()
            assert str([float(v) for v in theta]) in str(info.value)

    @staticmethod
    def _assert_both_reject(sim, theta, message):
        for call in (lambda: evaluate_point(sim, theta, 3, RngStream(0)),
                     lambda: post_evaluate(sim, theta, 20, RngStream(0))):
            with pytest.raises(ValueError, match=message) as info:
                call()
            assert type(sim).__name__ in str(info.value)
            assert str([float(v) for v in theta]) in str(info.value)

    def test_non_finite_draw_on_himmelblau_zero_set_rejected(self):
        # a float root of the Himmelblau discrepancy: the signed log is -inf
        theta = [1.518610398850043, 0.6938224565045132]
        self._assert_both_reject(make_model("himmelblau2d", RngStream(0)), theta,
                                 "non-finite draw")

    def test_non_finite_draw_from_stub_model_rejected(self):
        class InfModel(SimulationModel):
            box = ParameterBox([0.0], [1.0])
            output_dim = 2

            def draw(self, theta, gen, reps=1):
                return np.column_stack([gen.random(reps), np.full(reps, np.inf)])

        self._assert_both_reject(InfModel(), [0.5], "non-finite draw")

    @pytest.mark.parametrize("problem,theta,axes", [
        ("mm1", [6.0, 7.0], 1),
        ("himmelblau2d", [0.5], 2),
        ("himmelblau2d", [0.5, 0.5, 0.5], 2),
    ])
    def test_theta_of_wrong_length_rejected(self, problem, theta, axes):
        self._assert_both_reject(make_model(problem, RngStream(0)), theta,
                                 f"does not match the model's {axes} axes")

    def test_box_edges_accepted(self):
        sim = make_model("sir", RngStream(0))
        for theta in ([0.0], [1.0]):
            evaluate_point(sim, theta, 2, RngStream(0))

    def test_scalar_theta_of_a_one_axis_model_is_drawn_as_checked(self):
        sim = make_model("mm1", RngStream(0))

        def outputs(theta):
            return (draw_checked(sim, theta, RngStream(1).generator(), 2).tobytes(),
                    evaluate_point(sim, theta, 3, RngStream(2)),
                    post_evaluate(sim, theta, 5, RngStream(3)))

        assert outputs(6.0) == outputs([6.0])


def _recommended_indices(sim, cfg, trace, stream_id):
    """Each record's recommendation as an index into the run's design: the
    initial design first, then the evaluated points in order."""
    design = initial_design(sim.box, cfg.p_init,
                            RngStream(cfg.seed).child(stream_id).child(1))
    design += [r.evaluated for r in trace.records[1:]]
    return [next(i for i, d in enumerate(design) if np.array_equal(d, r.recommended))
            for r in trace.records]


class TestRunCalibration:
    def test_trace_shape_and_labels(self):
        cfg = _config(budget=3)
        sim = make_model("rootless", RngStream(0).child(0).child(OBS_KEY),
                         {"eps": 0.5})
        trace = run_calibration(sim, cfg)
        assert cfg.label == "root-ei-sk-rss"
        assert len(trace.records) == cfg.budget + 1
        first = trace.records[0]
        assert first.iteration == 0
        assert first.evaluated is None
        assert np.isnan(first.acq_value)
        assert np.allclose(first.box_lo, sim.box.lower)
        assert np.allclose(first.box_hi, sim.box.upper)
        for t, rec in enumerate(trace.records):
            assert rec.iteration == t
            assert sim.box.contains(rec.recommended)
            if t > 0:
                assert sim.box.contains(rec.evaluated)
                assert np.all(rec.box_lo >= sim.box.lower - 1e-12)
                assert np.all(rec.box_hi <= sim.box.upper + 1e-12)

    def test_deterministic_given_seed(self):
        cfg = _config(budget=2)
        sim = make_model("rootless", RngStream(0).child(0).child(OBS_KEY),
                         {"eps": 0.5})
        a = run_calibration(sim, cfg)
        b = run_calibration(sim, cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.recommended, rb.recommended)
            assert ra.post_mean == rb.post_mean

    def test_deterministic_surrogate_recommends_observed_point(self):
        cfg = _config(stochastic=False, use_rss=False, budget=2,
                      acq=AcqKind(Family.LCB, Mode.ROOT))
        assert cfg.label == "root-lcb-krig"
        sim = make_model("rootless", RngStream(0).child(0).child(OBS_KEY),
                         {"eps": 0.5})
        trace = run_calibration(sim, cfg)
        evaluated = [list(r.evaluated) for r in trace.records if r.evaluated is not None]
        init = initial_design(sim.box, cfg.p_init,
                              RngStream(cfg.seed).child(0).child(1))
        evaluated += [list(t) for t in init]
        for rec in trace.records:
            assert list(rec.recommended) in evaluated

    def test_min_mode_runs(self):
        cfg = _config(acq=AcqKind(Family.EI, Mode.MIN), use_rss=False, budget=2)
        assert cfg.label == "min-ei-sk"
        sim = make_model("rootless", RngStream(0).child(0).child(OBS_KEY),
                         {"eps": 0.5})
        trace = run_calibration(sim, cfg)
        assert len(trace.records) == 3

    def test_one_posterior_per_design_point_per_fit(self, monkeypatch):
        # the incumbent and stochastic search-space reduction share one
        # posterior per design point, and the acquisition optimum's value
        # comes from the optimizer rather than a fresh posterior
        from rootcal import acquisition, engine

        fit_sizes, post_calls, optimizing = [], [], []
        fit, post, optimize = engine.fit, acquisition.posterior, engine.optimize
        engine_post = engine.posterior

        def counting_fit(box, design, *args):
            fit_sizes.append(len(design))
            return fit(box, design, *args)

        def counting_post(model, theta):
            post_calls.append(len(model.design))
            return post(model, theta)

        def optimizer_posterior(model, theta):
            if not optimizing:
                raise AssertionError("engine.posterior called outside optimize")
            return engine_post(model, theta)

        def flagged_optimize(*args, **kwargs):
            optimizing.append(None)
            try:
                return optimize(*args, **kwargs)
            finally:
                optimizing.pop()

        monkeypatch.setattr(engine, "fit", counting_fit)
        monkeypatch.setattr(acquisition, "posterior", counting_post)
        monkeypatch.setattr(engine, "posterior", optimizer_posterior)
        monkeypatch.setattr(engine, "optimize", flagged_optimize)
        cfg = _config(budget=3)
        sim = make_model("rootless", RngStream(0).child(0).child(OBS_KEY),
                         {"eps": 0.5})
        trace = run_calibration(sim, cfg)
        assert len(fit_sizes) == cfg.budget + 1
        assert sorted(post_calls) == sorted(n for n in fit_sizes for _ in range(n))
        assert all(np.isfinite(r.acq_value) for r in trace.records[1:])

    def test_one_post_evaluation_per_recommended_design_point(self, monkeypatch):
        from rootcal import engine

        keys = []

        def counting_post(model, theta, post_reps, rng):
            keys.append(rng.key)
            return post_evaluate(model, theta, post_reps, rng)

        monkeypatch.setattr(engine, "post_evaluate", counting_post)
        cfg = _config(budget=6)
        sim = make_model("mm1", RngStream(0).child(3).child(OBS_KEY))
        trace = run_calibration(sim, cfg, stream_id=3)
        indices = _recommended_indices(sim, cfg, trace, 3)
        # the run stays on a point, and switches back to one it left
        assert any(a == b for a, b in zip(indices, indices[1:]))
        assert any(i in indices[:t - 1] and i != indices[t - 1]
                   for t, i in enumerate(indices) if t > 1)
        assert len(keys) == len(set(keys)) == len(set(indices))
        base = RngStream(cfg.seed).child(3)
        for rec, index in zip(trace.records, indices):
            assert (rec.post_mean, rec.post_ci_half) == post_evaluate(
                sim, rec.recommended, cfg.post_reps, base.child(4, index))

    def test_methods_share_the_estimate_of_an_initial_design_point(self):
        # paired comparison: within a macro rep an initial design point carries
        # one estimate, whichever method recommends it at whichever iteration
        sim = make_model("himmelblau2d", RngStream(0).child(2).child(OBS_KEY))
        pairs = []
        for cfg in (_config(budget=6),
                    _config(budget=6, acq=AcqKind(Family.EI, Mode.MIN), use_rss=False)):
            trace = run_calibration(sim, cfg, stream_id=2)
            pairs.append([(index, rec) for index, rec in
                          zip(_recommended_indices(sim, cfg, trace, 2), trace.records)
                          if index < cfg.p_init])
        shared = [(a, b) for i, a in pairs[0] for j, b in pairs[1] if i == j]
        assert any(a.iteration != b.iteration for a, b in shared)
        for a, b in shared:
            assert (a.post_mean, a.post_ci_half) == (b.post_mean, b.post_ci_half)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            _config(p_init=1)
        with pytest.raises(ValueError):
            _config(reps_per_point=0)

    @pytest.mark.parametrize("name,value", [("post_reps", 1), ("alpha", -0.1), ("alpha", 1.5)])
    def test_post_reps_and_alpha_rejected_naming_the_value(self, name, value):
        # post_reps 1 used to fail only after the initial design was simulated,
        # and an alpha outside [0, 1] only once stochastic reduction ran
        with pytest.raises(ValueError, match=f"{name} .*{value}"):
            _config(**{name: value})

    @pytest.mark.parametrize("stochastic", [True, False])
    @pytest.mark.parametrize("family", list(Family))
    def test_rss_is_root_mode_only(self, family, stochastic):
        # a min-mode surrogate fits the squared discrepancy, which has no sign to bracket
        with pytest.raises(ValueError, match="^rss needs mode root, not min$"):
            _config(acq=AcqKind(family, Mode.MIN), stochastic=stochastic, use_rss=True)


class TestActiveBox:
    BOX = ParameterBox([0.0], [4.0])
    DESIGN = [[2.0], [3.5], [2.6]]

    def test_deterministic_rss_brackets_the_fitted_targets(self):
        model = model_at(self.BOX, self.DESIGN, [-1.0, 2.0, 0.2], np.zeros(3), 0.5)
        cfg = _config(stochastic=False, acq=AcqKind(Family.LCB, Mode.ROOT))
        active = _active_box(model, None, cfg, self.BOX)
        assert (active.lower.tolist(), active.upper.tolist()) == ([2.0], [2.6])

    def test_no_sign_change_or_no_rss_keeps_the_box(self):
        model = model_at(self.BOX, self.DESIGN, [1.0, 2.0, 0.2], np.zeros(3), 0.5)
        for cfg in (_config(stochastic=False), _config(stochastic=False, use_rss=False)):
            assert _active_box(model, None, cfg, self.BOX) is self.BOX


class TestMacroSweep:
    def _configs(self):
        return [
            _config(budget=2, use_rss=True),
            _config(budget=2, use_rss=False),
        ]

    def test_row_counts_and_sorting(self):
        long_rows, agg_rows = macro_sweep(
            "rootless", {"eps": 0.5}, self._configs(), macro_reps=3)
        assert len(long_rows) == 2 * 3 * 3  # methods x reps x (budget + 1)
        assert long_rows == sorted(long_rows, key=lambda r: (r[0], r[1], r[2]))
        assert len(agg_rows) == 2 * 3  # methods x iterations
        by_key = {}
        for method, _, it, pm in long_rows:
            by_key.setdefault((method, it), []).append(pm)
        for method, it, mean, _ in agg_rows:
            assert mean == pytest.approx(np.mean(by_key[(method, it)]))

    def test_methods_share_observations_per_macro_rep(self):
        # paired comparison: both configs see the same initial design results,
        # so their iteration-0 recommendations coincide
        cfgs = [
            _config(budget=1, use_rss=True),
            _config(budget=1, use_rss=False),
        ]
        long_rows, _ = macro_sweep("rootless", {"eps": 0.5}, cfgs, 2)
        at_zero = {}
        for method, rep, it, pm in long_rows:
            if it == 0:
                at_zero.setdefault(rep, []).append(pm)
        for rep, vals in at_zero.items():
            assert vals[0] == vals[1]

    def test_workers_do_not_change_results(self):
        args = ("rootless", {"eps": 0.5}, self._configs(), 2)
        serial = macro_sweep(*args, workers=1)
        parallel = macro_sweep(*args, workers=3)
        assert serial == parallel

    def test_failed_run_raises_naming_it(self, monkeypatch):
        from rootcal import engine

        calibrate = engine.run_calibration

        def fail_rep1(sim, config, stream_id=0):
            if stream_id == 1:
                raise FloatingPointError("boom")
            return calibrate(sim, config, stream_id)

        monkeypatch.setattr(engine, "run_calibration", fail_rep1)
        with pytest.raises(RuntimeError, match="root-ei-sk-rss/rep1: boom"):
            macro_sweep("rootless", {"eps": 0.5}, self._configs(), 2)

    def test_configs_sharing_a_label_raise_before_any_run(self, monkeypatch):
        # RunConfig.label omits kappa: these two would be merged into one method's rows
        from rootcal import engine

        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(engine, "_run_one", no_run)
        cfgs = [_config(stochastic=False, acq=AcqKind(Family.LCB, Mode.MIN, kappa),
                        use_rss=False) for kappa in (1.0, 3.0)]
        with pytest.raises(ValueError,
                           match="^methods must be distinct: 2 are labeled min-lcb-krig$"):
            macro_sweep("himmelblau2d", None, cfgs, 2)


class TestAcquisitionObjective:
    """The objective the loop hands to `optimize`, against the acquisition module's
    value and its gradient assembled without the partials `acq_value` leaves."""

    INC = Incumbent(index=2, value=0.3)

    @pytest.mark.parametrize("kind", ALL_ACQ_KINDS)
    def test_value_and_gradient_match_bytes(self, kind):
        rng = np.random.default_rng(4)
        box = ParameterBox([-1.0, 0.0], [1.0, 2.0])
        model = model_at(box, box.from_unit(rng.random((6, 2))), rng.normal(size=6),
                         np.full(6, 0.01), 0.4)
        objective = acquisition_objective(model, kind, self.INC)
        for theta in box.from_unit(rng.random((20, 2))):
            value, gradient = objective(theta)
            post, grad = posterior_grad(model, theta)
            expected = acq_value(kind, posterior(model, theta), self.INC)
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
            assert gradient().tobytes() == acq_gradient(kind, post, grad, self.INC).tobytes()

    @pytest.mark.parametrize("kind", ALL_ACQ_KINDS)
    def test_no_gradient_below_std_floor(self, kind):
        # one noiseless, unjittered design point: zero posterior variance on it
        model = model_at(ParameterBox([0.0], [1.0]), [[0.5]], [0.2], [0.0], 0.3, jitter=0.0)
        post = posterior(model, [0.5])
        assert post.std < STD_FLOOR
        value, gradient = acquisition_objective(model, kind, self.INC)(np.array([0.5]))
        assert gradient is None
        assert value == acq_value(kind, post, self.INC)


class TestRootless:
    def test_difference_fields(self):
        rec = rootless_differences(eps=10.0, design_size=5, seed=0)
        assert rec["design_size"] == 5
        for key in ("lcb_diff", "pi_diff", "ei_diff", "post_mean", "post_std"):
            assert np.isfinite(rec[key])
        # far from zero the two acquisition variants coincide
        assert rec["lcb_diff"] <= 1e-3
        assert rec["pi_diff"] <= 1e-3
        assert rec["ei_diff"] <= 1e-3

    def test_small_eps_log_scale_pi(self):
        rec = rootless_differences(eps=0.1, design_size=9, seed=0)
        assert rec["mean_positive"]
        assert rec["lcb_diff"] == 0.0
        # pi_diff is the log of the exact PI difference, hence very negative
        assert rec["pi_diff"] < -10.0

    def test_table_shape(self):
        rows = rootless_table(10.0, [5, 9], seed=0, n_seeds=3)
        assert [r[0] for r in rows] == [5, 9]
        assert all(len(r) == 4 for r in rows)

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_table_needs_a_seed(self, n_seeds):
        with pytest.raises(ValueError, match=f"n_seeds must be >= 1, got {n_seeds}"):
            rootless_table(10.0, [5], seed=0, n_seeds=n_seeds)


# (argument, bad value, call): each check names its argument and the value it got
_BAD_COUNTS_AND_LEVELS = [
    ("p_init", 1, lambda: _config(p_init=1)),
    ("budget", -1, lambda: _config(budget=-1)),
    ("reps_per_point", 0, lambda: _config(reps_per_point=0)),
    ("p", 1, lambda: initial_design(ParameterBox([0.0], [1.0]), 1, RngStream(0))),
    ("reps", 0, lambda: evaluate_point(RootlessQuadratic(eps=1.0), [0.0], 0, RngStream(0))),
    ("post_reps", 1,
     lambda: post_evaluate(RootlessQuadratic(eps=1.0), [0.0], 1, RngStream(0))),
    ("design_size", 1, lambda: rootless_differences(1.0, 1, seed=0)),
    ("macro_reps", 0, lambda: macro_sweep("mm1", {}, [_config()], 0)),
    ("alpha", 1.5, lambda: rss_stochastic(np.zeros((0, 1)), [], 1.5)),
    ("cases", 0, lambda: validate_gradients(0, RngStream(0))),
    ("jitter", -1.0, lambda: model_at(ParameterBox([0.0], [1.0]), [[0.2], [0.8]],
                                      [0.0, 1.0], [0.0, 0.0], 0.3, jitter=-1.0)),
]


@pytest.mark.parametrize("name,value,call", _BAD_COUNTS_AND_LEVELS,
                         ids=[case[0] for case in _BAD_COUNTS_AND_LEVELS])
def test_bad_count_or_level_fails_naming_it_and_its_value(name, value, call):
    with pytest.raises(ValueError, match=f"^{name} must .*, got {re.escape(str(value))}$"):
        call()
