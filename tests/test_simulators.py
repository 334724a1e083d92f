import numpy as np
import pytest

from rootcal.core import RngStream
from rootcal.simulators import (
    Himmelblau2D,
    Mm1Queue,
    RootlessQuadratic,
    SimulationModel,
    StochasticSir,
    himmelblau_signed,
    make_model,
    mm1_sojourn_batch,
    mm1_sojourn_times,
    sir_trajectory,
)


# Scalar references: one scalar draw per row, the per-entity Lindley loop and
# the per-infected contact loop, which the batched and chunked simulators must
# reproduce bit for bit.
def himmelblau_reference(theta, gen):
    f = himmelblau_signed(theta)
    return np.array([f + gen.normal(0.0, np.sqrt(abs(f)))])


def rootless_reference(model, theta, gen):
    value = float(theta[0]) ** 2 + model.eps
    return np.array([value + gen.normal(0.0, model.noise_std)])


def lindley_reference(arrival_rate, service_rate, n_entities, gen):
    interarrivals = gen.exponential(1.0 / arrival_rate, n_entities)
    services = gen.exponential(1.0 / service_rate, n_entities)
    sojourn = np.empty(n_entities)
    wait = 0.0
    for k in range(n_entities):
        if k > 0:
            wait = max(0.0, wait + services[k - 1] - interarrivals[k])
        sojourn[k] = wait + services[k]
    return sojourn


def sir_reference(infection_prob, gen, population=100, initial_infected=10,
                  contacts_per_day=2, recovery_prob=0.7, horizon=5):
    """Returns the trajectory and the number of days spent in the contact loop."""
    s, i, r = population - initial_infected, initial_infected, 0
    out = np.empty(horizon)
    loop_days = 0
    for day in range(horizon):
        infected_today = 0
        if i > 0 and s > 0:
            if s >= contacts_per_day * i:
                infected_today = int(gen.binomial(contacts_per_day * i, infection_prob))
            else:
                loop_days += 1
                pool = s
                for _ in range(i):
                    contacts = min(contacts_per_day, pool)
                    if contacts == 0:
                        break
                    new = int(gen.binomial(contacts, infection_prob))
                    pool -= new
                    infected_today += new
        recoveries = int(gen.binomial(i, recovery_prob)) if i > 0 else 0
        s -= infected_today
        i = i - recoveries + infected_today
        r += recoveries
        out[day] = r / population
    return out, loop_days


def scalar_draw(model, theta, gen):
    """One residual row of `model` at theta, drawn by the scalar reference."""
    if isinstance(model, Himmelblau2D):
        return himmelblau_reference(theta, gen)
    if isinstance(model, RootlessQuadratic):
        return rootless_reference(model, theta, gen)
    if isinstance(model, Mm1Queue):
        return model.observed - lindley_reference(
            float(theta[0]), model.service_rate, model.output_dim, gen)
    if isinstance(model, StochasticSir):
        p = min(max(float(theta[0]), 0.0), 1.0)
        return model.observed - sir_reference(p, gen)[0]
    raise TypeError(f"no scalar reference for {type(model).__name__}")


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

            def standard_exponential(self, out):
                # unit-mean draws; the rates 2 and 4 scale them to
                # interarrivals [0.5, 1.0, 0.2] and services [0.8, 0.4, 0.6]
                self.calls += 1
                out[...] = [[[1.0, 2.0, 0.4], [3.2, 1.6, 2.4]]]

        gen = FakeGen()
        sojourn = mm1_sojourn_times(2.0, 4.0, 3, gen)
        assert gen.calls == 1
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


BATCH_CASES = (
    [("mm1", [lam]) for lam in (2.0, 6.0, 9.7)]
    + [("sir", [p]) for p in (0.0, 0.2, 0.65, 0.95, 1.0)]
    + [("himmelblau2d", [0.5, -1.0]), ("rootless", [0.3])]
)


def _twins(seed, n):
    return ([np.random.default_rng(seed + j) for j in range(n)],
            [np.random.default_rng(seed + j) for j in range(n)])


class TestDrawBatch:
    @pytest.mark.parametrize("problem,theta", BATCH_CASES)
    @pytest.mark.parametrize("shared", [True, False])
    def test_rows_equal_sequential_draws(self, problem, theta, shared):
        sim = make_model(problem, RngStream(4))
        reps = 25
        gens, twins = _twins(40, 1 if shared else reps)
        if shared:
            gens, twins = gens * reps, twins * reps
        batch = sim.draw_batch(theta, gens)
        assert batch.shape == (reps, sim.output_dim)
        for row, twin in zip(batch, twins):
            assert np.array_equal(row, scalar_draw(sim, theta, twin))
        for gen, twin in zip(gens, twins):
            assert gen.random() == twin.random()

    @pytest.mark.parametrize("problem,theta", [
        ("mm1", [2.0]), ("mm1", [6.0]), ("mm1", [9.7]),
        ("himmelblau2d", [0.5, -1.0]), ("rootless", [0.3])])
    @pytest.mark.parametrize("pattern", [[0, 0, 1, 0, 0, 0], [2, 2, 1, 1, 0, 0, 2]])
    def test_mixed_runs_equal_scalar_reference(self, problem, theta, pattern):
        # a generator's rows split into several runs, with other rows between
        sim = make_model(problem, RngStream(4))
        gens, twins = _twins(60, 3)
        batch = sim.draw_batch(theta, [gens[k] for k in pattern])
        assert batch.shape == (len(pattern), sim.output_dim)
        for row, k in zip(batch, pattern):
            assert np.array_equal(row, scalar_draw(sim, theta, twins[k]))
        for gen, twin in zip(gens, twins):
            assert gen.random() == twin.random()

    @pytest.mark.parametrize("arrival_rate", [2.0, 6.0, 9.7])
    def test_lindley_batch_equals_scalar_loop(self, arrival_rate):
        gens, twins = _twins(7, 30)
        batch = mm1_sojourn_batch(arrival_rate, 4.0, 100, gens)
        for row, twin in zip(batch, twins):
            assert np.array_equal(row, lindley_reference(arrival_rate, 4.0, 100, twin))
        for gen, twin in zip(gens, twins):
            assert gen.random() == twin.random()

    def test_mm1_observation_and_draw_follow_scalar_loop(self):
        sim = Mm1Queue.from_stream(RngStream(5))
        assert np.array_equal(
            sim.observed, lindley_reference(6.0, 4.0, 100, RngStream(5).generator()))
        gen, twin = _twins(8, 1)
        resid = sim.draw([3.5], gen[0])
        assert np.array_equal(resid, sim.observed
                              - lindley_reference(3.5, 4.0, 100, twin[0]))

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.65, 0.95, 1.0])
    def test_sir_chunks_equal_scalar_loop(self, p):
        gen, twin = np.random.default_rng(9), np.random.default_rng(9)
        loop_days = 0
        for _ in range(300):
            ref, days = sir_reference(p, twin)
            loop_days += days
            assert np.array_equal(sir_trajectory(p, gen), ref)
        assert gen.random() == twin.random()
        if p >= 0.95:
            assert loop_days > 0  # the contact loop ran

    @pytest.mark.parametrize("population,initial", [(7, 3), (9, 4), (30, 12)])
    def test_sir_chunks_equal_scalar_loop_on_odd_pools(self, population, initial):
        # small odd pools leave one susceptible, the single-contact fallback
        gen, twin = np.random.default_rng(10), np.random.default_rng(10)
        for p in (0.5, 0.9, 1.0):
            for _ in range(100):
                ref, _ = sir_reference(p, twin, population, initial)
                out = sir_trajectory(p, gen, population, initial)
                assert np.array_equal(out, ref)
        assert gen.random() == twin.random()

    def test_model_without_draw_is_rejected(self):
        class Empty(SimulationModel):
            pass

        with pytest.raises(NotImplementedError):
            Empty().draw([0.0], np.random.default_rng(0))
