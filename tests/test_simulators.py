import numpy as np
import pytest

from rootcal.core import RngStream
from rootcal.simulators import (
    Himmelblau2D,
    Mm1Queue,
    RootlessQuadratic,
    StochasticSir,
    himmelblau_signed,
    make_model,
    mm1_sojourn_times,
    sir_trajectory,
)


class TestHimmelblau:
    def test_signed_hand_values(self):
        # at (1, 1): (1 + 1 - 3)^2 + (1 + 1 - 2)^2 = 1, log2(1) - 1 = -1
        assert himmelblau_signed([1.0, 1.0]) == pytest.approx(-1.0)
        # at (0, 0): 9 + 4 = 13
        assert himmelblau_signed([0.0, 0.0]) == pytest.approx(np.log2(13.0) - 1.0)

    def test_finite_away_from_zero_set(self):
        gen = np.random.default_rng(5)
        for theta in gen.uniform(-3, 3, (100, 2)):
            assert np.isfinite(himmelblau_signed(theta))

    def test_noise_variance_tracks_signed_value(self):
        sim = Himmelblau2D()
        theta = [0.0, 0.0]
        f = himmelblau_signed(theta)
        gen = np.random.default_rng(0)
        draws = np.array([sim.draw(theta, gen)[0] for _ in range(20000)])
        assert draws.mean() == pytest.approx(f, abs=0.05)
        assert draws.var() == pytest.approx(abs(f), rel=0.05)

    def test_box_and_dim(self):
        sim = Himmelblau2D()
        assert sim.output_dim == 1
        assert np.allclose(sim.box.lower, [-3.0, -3.0])
        assert np.allclose(sim.box.upper, [3.0, 3.0])


class TestMm1:
    def test_sojourn_matches_lindley_by_hand(self):
        class FakeGen:
            def __init__(self):
                self.calls = 0

            def exponential(self, scale, n):
                self.calls += 1
                if self.calls == 1:
                    return np.array([0.5, 1.0, 0.2])  # interarrivals
                return np.array([0.8, 0.4, 0.6])  # services

        sojourn = mm1_sojourn_times(2.0, 4.0, 3, FakeGen())
        # waits: w1 = 0; w2 = max(0, 0 + 0.8 - 1.0) = 0; w3 = max(0, 0 + 0.4 - 0.2) = 0.2
        assert np.allclose(sojourn, [0.8, 0.4, 0.8])

    def test_residual_zero_when_replaying_observation_stream(self):
        obs = RngStream(7)
        sim = Mm1Queue.from_stream(obs, arrival_real=6.0)
        resid = sim.draw([6.0], obs.generator())
        assert sim.output_dim == 100
        assert resid.shape == (100,)
        assert np.allclose(resid, 0.0)

    def test_mean_signed_residual_decreases_in_arrival_rate(self):
        # higher simulated arrival rate means longer simulated sojourns,
        # so observation-minus-simulation falls
        sim = Mm1Queue.from_stream(RngStream(8))
        base = RngStream(9)
        means = []
        for k, theta in enumerate((4.0, 6.0, 8.0)):
            draws = [sim.draw([theta], base.child(k, j).generator()).mean()
                     for j in range(1000)]
            means.append(np.mean(draws))
        assert means[0] > means[1] > means[2]


class TestSir:
    def test_zero_infection_prob_gives_pure_recovery(self):
        # with no new infections, day-1 recovered ~ Binomial(10, 0.7)/100
        gen = np.random.default_rng(10)
        day1 = [sir_trajectory(0.0, gen)[0] for _ in range(5000)]
        assert np.mean(day1) == pytest.approx(0.07, abs=0.003)

    def test_cumulative_output_non_decreasing(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            traj = sir_trajectory(0.5, gen)
            assert traj.shape == (5,)
            assert np.all(np.diff(traj) >= 0)
            assert np.all((traj >= 0) & (traj <= 1))

    def test_final_recovered_monotone_in_infection_prob(self):
        means = []
        for k, p in enumerate((0.2, 0.65, 0.9)):
            gen = np.random.default_rng(100 + k)
            means.append(np.mean([sir_trajectory(p, gen)[-1]
                                  for _ in range(1000)]))
        assert means[0] < means[1] < means[2]

    def test_residual_zero_when_replaying_observation_stream(self):
        obs = RngStream(12)
        sim = StochasticSir.from_stream(obs, infection_real=0.65)
        assert np.allclose(sim.draw([0.65], obs.generator()), 0.0)


class TestRootlessQuadratic:
    def test_mean_is_quadratic_plus_offset(self):
        sim = RootlessQuadratic(eps=0.1)
        gen = np.random.default_rng(13)
        draws = np.array([sim.draw([0.5], gen)[0] for _ in range(20000)])
        assert draws.mean() == pytest.approx(0.25 + 0.1, abs=0.001)
        assert draws.std() == pytest.approx(0.01, rel=0.05)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            RootlessQuadratic(eps=0.0)


class TestMakeModel:
    def test_dispatch(self):
        assert isinstance(make_model("himmelblau2d", RngStream(0)), Himmelblau2D)
        assert isinstance(make_model("mm1", RngStream(0)), Mm1Queue)
        assert isinstance(make_model("sir", RngStream(0)), StochasticSir)
        rl = make_model("rootless", RngStream(0), {"eps": 2.0})
        assert isinstance(rl, RootlessQuadratic)
        assert rl.eps == 2.0

    def test_params_forwarded(self):
        sim = make_model("mm1", RngStream(0),
                         {"arrival_real": 5.0, "service_rate": 6.0, "n_entities": 20})
        assert sim.service_rate == 6.0
        assert sim.output_dim == 20

    def test_observation_is_stream_deterministic(self):
        a = make_model("sir", RngStream(3).child(0))
        b = make_model("sir", RngStream(3).child(0))
        assert np.array_equal(a.observed, b.observed)

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            make_model("nope", RngStream(0))
