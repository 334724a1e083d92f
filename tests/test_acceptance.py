"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerance inline and enforces a wall-clock budget.
The heavier sweeps run at a reduced scale (30 macro replications) with
4 worker processes.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rootcal.acquisition import AcqKind, Family, Incumbent, Mode, acq_value
from rootcal.cli import EXIT_OK, main
from rootcal.core import ParameterBox, RngStream, aggregate_squared
from rootcal.diagnostics import chain_check, validate_gradients
from rootcal.engine import (
    OBS_KEY,
    RunConfig,
    macro_sweep,
    rootless_differences,
    rootless_table,
    run_calibration,
)
from rootcal.metamodel import (
    Posterior,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    model_at,
    posterior,
)
from rootcal.rss import rss_deterministic, rss_stochastic, sign_change_prob
from rootcal.simulators import make_model as make_sim


def _root_ei_config(**kw):
    return RunConfig(
        stochastic=True,
        acq=AcqKind(Family.EI, Mode.ROOT),
        use_rss=True,
        **kw,
    )


def test_criterion_1_gradient_validation():
    # all six acquisitions, 100 random cases, FD step 1e-5, max dev <= 1e-4
    start = time.monotonic()
    report = validate_gradients(100, RngStream(0), fd_step=1e-5)
    elapsed = time.monotonic() - start
    assert len(report) == 6
    for name, dev in report.items():
        assert dev <= 1e-4, f"{name}: {dev}"
    assert elapsed < 10.0


def test_criterion_2_posterior_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    box = ParameterBox([0.0, 0.0], [1.0, 1.0])
    for _ in range(50):
        design = rng.random((5, 2))
        targets = rng.normal(size=5)
        noise = np.zeros(5)
        interp = model_at(box, design, targets, noise, lengthscale=0.5)
        for x, f in zip(design, targets):
            post = posterior(interp, x)
            assert abs(post.mean - f) <= 1e-6
            assert post.var <= 1e-6
        # noise-aware path with zero noise must coincide with the
        # noise-free path
        plain = fit(box, design, targets)
        noisy = fit(box, design, targets, noise)
        assert plain.lengthscale == noisy.lengthscale
        for _ in range(5):
            x = rng.random(2)
            a, b = posterior(plain, x), posterior(noisy, x)
            assert abs(a.mean - b.mean) <= 1e-10
            assert abs(a.var - b.var) <= 1e-10
    # likelihood against a dense-solve oracle
    for trial in range(10):
        design = rng.random((6, 2))
        targets = rng.normal(size=6)
        noise = rng.uniform(0, 0.1, 6)
        l = float(rng.uniform(0.2, 1.5))
        system = (kernel_matrix(design, design, l)
                  + np.diag(noise) + 1e-10 * np.eye(6))
        sign, logdet = np.linalg.slogdet(system)
        oracle = (-0.5 * targets @ np.linalg.solve(system, targets)
                  - 0.5 * logdet - 3.0 * np.log(2 * np.pi))
        got = log_marginal_likelihood(design, targets, noise, l)
        assert abs(got - oracle) <= 1e-8
    assert time.monotonic() - start < 5.0


def test_criterion_3_acquisition_monte_carlo_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    n = 1_000_000
    for _ in range(20):
        mu = float(rng.normal(0.0, 1.0))
        sigma = float(rng.uniform(0.05, 1.5))
        v = float(rng.normal(0.0, 1.0))
        post = Posterior(mean=mu, var=sigma**2)
        inc = Incumbent(0, v)
        draws = rng.normal(mu, sigma, n)

        # binomial standard errors come from the analytical probability so
        # that near-zero probabilities (all draws miss) stay well posed
        want = acq_value(AcqKind(Family.PI, Mode.ROOT), post, inc)
        se = np.sqrt(want * (1 - want) / n)
        assert abs(want - np.mean(np.abs(draws) < abs(v))) <= 3 * se

        gains = np.maximum(0.0, abs(v) - np.abs(draws))
        se = max(gains.std(ddof=1) / np.sqrt(n), 1e-7)
        assert abs(acq_value(AcqKind(Family.EI, Mode.ROOT), post, inc) - gains.mean()) <= 3 * se

        mu_b = float(rng.normal(0.0, 1.0))
        sigma_b = float(rng.uniform(0.05, 1.5))
        draws_b = rng.normal(mu_b, sigma_b, n)
        flips = (draws < 0) != (draws_b < 0)
        prob = sign_change_prob(post, Posterior(mean=mu_b, var=sigma_b**2))
        se = np.sqrt(prob * (1 - prob) / n)
        assert abs(prob - flips.mean()) <= 3 * se
    assert time.monotonic() - start < 30.0


def test_criterion_4_rss_hand_cases():
    start = time.monotonic()
    design = np.array([[0.0, 0.0], [1.0, 2.0]])

    sub = rss_deterministic(design, [1.0, -1.0])
    assert sub.volume == pytest.approx(4.0)

    coincident = np.array([[0.0, 0.0], [0.0, 2.0]])
    sub = rss_deterministic(coincident, [1.0, -2.0])
    assert sub.volume == pytest.approx(6e-8)

    from scipy.special import ndtri

    a = Posterior(mean=-float(ndtri(0.05)), var=1.0)
    b = Posterior(mean=-50.0, var=1.0)
    assert sign_change_prob(a, b) == pytest.approx(0.95)
    sub = rss_stochastic(design, [a, b], alpha=0.95)
    assert sub.volume == pytest.approx(0.1)

    assert rss_deterministic(design, [1.0, 2.0]) is None
    same_sign = [Posterior(mean=3.0, var=0.01), Posterior(mean=4.0, var=0.01)]
    assert rss_stochastic(design, same_sign, 0.95) is None
    assert time.monotonic() - start < 1.0


@pytest.mark.slow
def test_criterion_5_rootless_acquisition_gaps():
    start = time.monotonic()
    sizes = (5, 9, 13, 17, 21)

    # far from zero, every root-finding acquisition coincides with its
    # standard counterpart to within 1e-3 after averaging over 100 seeds
    for size, lcb_d, pi_d, ei_d in rootless_table(10.0, sizes, seed=0,
                                                  n_seeds=100):
        assert lcb_d <= 1e-3, f"size {size}"
        assert pi_d <= 1e-3, f"size {size}"
        assert ei_d <= 1e-3, f"size {size}"

    # near zero the LCB gap closes exactly once the fitted mean is one-sided,
    # and the PI gap shrinks with the design size (log-scale comparison) in
    # at least 90 of 100 seeds
    wins = 0
    for rep in range(100):
        small = rootless_differences(0.1, 5, seed=0, rep=rep)
        large = rootless_differences(0.1, 21, seed=0, rep=rep)
        for rec in (small, large):
            if rec["mean_positive"]:
                assert rec["lcb_diff"] == 0.0
        if large["pi_diff"] < small["pi_diff"]:
            wins += 1
    assert wins >= 90
    assert time.monotonic() - start < 120.0


@pytest.mark.slow
def test_criterion_6_himmelblau_directional_result():
    start = time.monotonic()
    configs = [
        _root_ei_config(budget=10, seed=0),
        RunConfig(stochastic=True, acq=AcqKind(Family.EI, Mode.MIN), use_rss=False,
                  budget=10, seed=0),
    ]
    long_rows, _ = macro_sweep("himmelblau2d", None, configs,
                               macro_reps=30, workers=4)
    final = {}
    for method, rep, it, pm in long_rows:
        if it == 10:
            final.setdefault(method, {})[rep] = pm
    root = final["root-ei-sk-rss"]
    mins = final["min-ei-sk"]
    assert len(root) == len(mins) == 30
    assert np.median(list(root.values())) <= np.median(list(mins.values()))
    paired_wins = sum(root[r] < mins[r] for r in range(30))
    assert paired_wins >= 18  # 60% of 30 paired replications
    assert time.monotonic() - start < 300.0


def _sir_oracle_gap(rep):
    base = RngStream(0).child(rep)
    sim = make_sim("sir", base.child(OBS_KEY))
    trace = run_calibration(sim, _root_ei_config(budget=10, seed=0),
                            stream_id=rep)
    recommended = float(trace.records[-1].recommended[0])

    gen = base.child(99).generator()
    grid = np.linspace(0.0, 1.0, 201)
    # 1000 rows per grid point from the one shared generator, one call each
    scores = [np.mean(aggregate_squared(sim.draw([g], gen, 1000)))
              for g in grid]
    return abs(recommended - grid[int(np.argmin(scores))])


@pytest.mark.slow
def test_criterion_7_queue_and_epidemic_sanity():
    start = time.monotonic()

    # monotone mean signed discrepancy, 1000 replications per grid point
    queue = make_sim("mm1", RngStream(0).child(OBS_KEY))
    gen = np.random.default_rng(1)
    q_means = [np.mean(queue.draw([t], gen, 1000).mean(axis=1))
               for t in (3.0, 4.5, 6.0, 7.5, 9.0)]
    assert all(a > b for a, b in zip(q_means, q_means[1:]))
    assert q_means[0] > 0 > q_means[-1]

    sir = make_sim("sir", RngStream(0).child(OBS_KEY))
    s_means = [np.mean(sir.draw([t], gen, 1000).mean(axis=1))
               for t in (0.2, 0.45, 0.65, 0.85)]
    assert all(a > b for a, b in zip(s_means, s_means[1:]))
    assert s_means[0] > 0 > s_means[-1]

    # recommendation proximity to a per-replication grid-search oracle
    with ProcessPoolExecutor(max_workers=4) as pool:
        gaps = list(pool.map(_sir_oracle_gap, range(30)))
    close = sum(g <= 0.1 for g in gaps)
    assert close >= 21  # 70% of 30 macro replications
    assert time.monotonic() - start < 600.0


def test_criterion_8_inequality_chain():
    start = time.monotonic()
    gen = np.random.default_rng(2)
    for _ in range(1000):
        m = int(gen.integers(1, 8))
        n = int(gen.integers(2, 12))
        loc = gen.normal(0.0, 2.0)
        scale = gen.uniform(0.05, 3.0)
        samples = list(gen.normal(loc, scale, (n, m)))
        report = chain_check(samples)
        a, b, c = report.chain
        assert a >= b - 1e-10
        assert b >= c - 1e-10
        assert report.spatial_variability >= 0.0
        assert report.aggregate_variance >= 0.0
    assert time.monotonic() - start < 5.0


def test_criterion_9_bitwise_determinism(tmp_path, monkeypatch):
    run_cfg = {
        "problem": "rootless",
        "problem_params": {"eps": 0.5},
        "methods": [
            {"mode": "root", "surrogate": "stochastic", "acq": "ei", "rss": True}
        ],
        "seed": 0,
        "budget": 3,
        "post_reps": 50,
        "output": {
            "trace": str(tmp_path / "trace.csv"),
            "summary": str(tmp_path / "summary.json"),
        },
    }
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_cfg))
    assert main(["run", str(run_path)]) == EXIT_OK
    first = (tmp_path / "trace.csv").read_bytes()
    assert main(["run", str(run_path)]) == EXIT_OK
    assert (tmp_path / "trace.csv").read_bytes() == first

    sweep_cfg = dict(run_cfg)
    sweep_cfg["methods"] = [
        {"mode": "root", "surrogate": "stochastic", "acq": "ei", "rss": True},
        {"mode": "min", "surrogate": "stochastic", "acq": "ei", "rss": False},
    ]
    sweep_cfg["macro_reps"] = 3
    sweep_cfg["output"] = {
        "long": str(tmp_path / "long.csv"),
        "aggregate": str(tmp_path / "agg.csv"),
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_cfg))

    monkeypatch.setenv("ROOTCAL_WORKERS", "1")
    assert main(["sweep", str(sweep_path)]) == EXIT_OK
    serial = [(tmp_path / n).read_bytes() for n in ("long.csv", "agg.csv")]
    monkeypatch.setenv("ROOTCAL_WORKERS", "4")
    assert main(["sweep", str(sweep_path)]) == EXIT_OK
    parallel = [(tmp_path / n).read_bytes() for n in ("long.csv", "agg.csv")]
    assert serial == parallel
