"""The benchmark's span tracer still finds every name it patches in rootcal.

``perfbench/tracer.py`` wraps functions at the names that ``engine``,
``acquisition``, ``metamodel``, ``rss``, ``core`` and ``cli`` look up.  A
rename in ``src/`` that it no longer finds would break the traced benchmark,
so this installs the tracer on the current package, checks that each name was
replaced, and checks that restoring puts every original back.
"""

import importlib.util
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_round_trip():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_each_objective_call_crosses_every_layer(monkeypatch):
    """Every acquisition objective call is one posterior span, filed under the
    objective, and one acq_value span; each gradient the optimizer asks for is
    one posterior_grad and one acq_gradient span, never at a degenerate point.
    A fused call that hid a layer from the tracer would show here.  The runs
    cover both optimizer paths: two axes (himmelblau2d) search in lockstep,
    one axis (mm1) start by start."""
    from dataclasses import replace

    from rootcal import AcqKind, Family, Mode, RngStream, engine, make_model
    from rootcal.engine import OBS_KEY, RunConfig, run_calibration

    # calibrations rarely meet a degenerate std, so every seventh call reports one
    posteriors, posterior = [], engine.posterior

    def sometimes_degenerate(model, theta):
        posteriors.append(None)
        post = posterior(model, theta)
        return replace(post, var=0.0) if len(posteriors) % 7 == 0 else post

    monkeypatch.setattr(engine, "posterior", sometimes_degenerate)
    for problem, stochastic, acq in (("himmelblau2d", True, AcqKind(Family.EI, Mode.ROOT)),
                                     ("himmelblau2d", False, AcqKind(Family.LCB, Mode.MIN)),
                                     ("mm1", True, AcqKind(Family.EI, Mode.ROOT))):
        cfg = RunConfig(stochastic=stochastic, acq=acq, use_rss=stochastic, budget=2,
                        reps_per_point=3, post_reps=20)
        sim = make_model(problem, RngStream(0).child(0).child(OBS_KEY))
        tracer = _load_tracer().Tracer()
        try:
            tracer.install()
            run_calibration(sim, cfg)
        finally:
            tracer.restore()
        calls = tracer.totals()[0]
        objective, degenerate = calls["acqopt.objective"], tracer.counts["acqopt.degenerate"]
        assert objective > 0 and degenerate > 0, problem
        assert tracer.counts["metamodel.posterior.objective"] == objective, problem
        assert calls["acquisition.acq_value"] == objective, problem
        gradients = calls["metamodel.posterior_grad"]
        assert calls["acquisition.acq_gradient"] == gradients, problem
        assert 0 < gradients <= objective - degenerate, problem


def test_golden_section_evaluates_through_the_public_lml(monkeypatch):
    """Each golden-section evaluation in fit is one traced
    log_marginal_likelihood span, and each of those plus the final model
    builds one kernel_matrix, so a refinement routed around the public names
    would lose the benchmark's lml and kernel counts."""
    from rootcal import ParameterBox, metamodel

    evaluations, golden_section = [], metamodel._golden_section

    def counted(f, lo, hi, **kwargs):
        def f_counted(l):
            evaluations.append(l)
            return f(l)
        return golden_section(f_counted, lo, hi, **kwargs)

    monkeypatch.setattr(metamodel, "_golden_section", counted)
    rng = np.random.default_rng(0)
    box = ParameterBox([0.0, -1.0], [2.0, 3.0])
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        metamodel.fit(box, box.from_unit(rng.random((8, 2))), rng.normal(size=8),
                      rng.uniform(0.0, 0.05, 8))
    finally:
        tracer.restore()
    calls = tracer.totals()[0]
    assert calls["metamodel.log_marginal_likelihood"] == len(evaluations) > 0
    assert calls["kernel.kernel_matrix"] == calls["metamodel.log_marginal_likelihood"] + 1
