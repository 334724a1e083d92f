import numpy as np
import pytest

from rootcal import simulators
from rootcal.core import RngStream
from rootcal.simulators import (
    Himmelblau2D,
    Mm1Queue,
    RootlessQuadratic,
    SimulationModel,
    StochasticSir,
    himmelblau_signed,
    make_model,
    mm1_sojourns,
    sir_trajectories,
)


# Scalar references: one scalar draw per row, the per-entity Lindley loop and
# SIR's turn passes in scalar loops, which the array simulators reproduce bit
# for bit, and the per-infected contact loop, which the day-by-day array SIR
# matches in distribution.
def himmelblau_reference(theta, gen):
    f = himmelblau_signed(theta)
    return np.array([f + gen.normal(0.0, np.sqrt(abs(f)))])


def rootless_reference(model, theta, gen):
    value = float(theta[0]) ** 2 + model.eps
    return np.array([value + gen.normal(0.0, model.noise_std)])


def lindley_reference(interarrivals, services):
    sojourn = np.empty(len(interarrivals))
    wait = 0.0
    for k in range(len(interarrivals)):
        if k > 0:
            wait = max(0.0, wait + services[k - 1] - interarrivals[k])
        sojourn[k] = wait + services[k]
    return sojourn


def lindley_rows(arrival_rate, service_rate, n_entities, gen, reps):
    """The scalar loop over each replication's column of the entity-major
    ``(n_entities, reps)`` inter-arrival and service draws."""
    interarrivals = gen.exponential(1.0 / arrival_rate, (n_entities, reps))
    services = gen.exponential(1.0 / service_rate, (n_entities, reps))
    return np.array([lindley_reference(interarrivals[:, j], services[:, j])
                     for j in range(reps)])


def mm1_sojourns_reference(arrival_rate, service_rate, n_entities, gen, reps):
    """`mm1_sojourns` by `exponential` draws and a four-operation Lindley step
    on a separate wait row, whose bytes the in-place form must give."""
    times = gen.exponential(1.0 / arrival_rate, (n_entities, reps))
    services = gen.exponential(1.0 / service_rate, (n_entities, reps))
    wait = np.zeros(reps)
    for k in range(n_entities):
        if k > 0:
            wait = np.maximum(0.0, wait + services[k - 1] - times[k])
        times[k] = wait + services[k]
    return times.T


def sir_reference(infection_prob, gen, population=100, initial_infected=10,
                  contacts_per_day=2, recovery_prob=0.7, horizon=5):
    s, i, r = population - initial_infected, initial_infected, 0
    out = np.empty(horizon)
    for day in range(horizon):
        infected_today = 0
        if i > 0 and s > 0:
            if s >= contacts_per_day * i:
                infected_today = int(gen.binomial(contacts_per_day * i, infection_prob))
            else:
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
    return out


def sir_pass_reference(infection_prob, gen, reps, population=100,
                       initial_infected=10, contacts_per_day=2,
                       recovery_prob=0.7, horizon=5):
    """The array SIR's draw order in scalar loops: each day, passes over the
    replications still taking turns, in index order, then every
    replication's recoveries."""
    c = contacts_per_day
    s = [population - initial_infected] * reps
    i = [initial_infected] * reps
    r = [0] * reps
    out = np.empty((reps, horizon))
    for day in range(horizon):
        pool, left = list(s), list(i)
        active = [j for j in range(reps) if left[j] > 0 and pool[j] > 0]
        while active:
            for j in active:
                if pool[j] >= c:
                    k = min(left[j], (pool[j] - c) // c + 1)
                    trials = c * k
                else:
                    k, trials = 1, pool[j]
                pool[j] -= int(gen.binomial(trials, infection_prob))
                left[j] -= k
            active = [j for j in active if left[j] > 0 and pool[j] > 0]
        for j in range(reps):
            recoveries = int(gen.binomial(i[j], recovery_prob))
            i[j] += s[j] - pool[j] - recoveries
            r[j] += recoveries
            out[j, day] = r[j] / population
        s = pool
    return out


def reference_rows(model, theta, gen, reps):
    """`reps` residual rows of `model` at theta, drawn by the scalar reference."""
    if isinstance(model, Himmelblau2D):
        return np.array([himmelblau_reference(theta, gen) for _ in range(reps)])
    if isinstance(model, RootlessQuadratic):
        return np.array([rootless_reference(model, theta, gen) for _ in range(reps)])
    if isinstance(model, Mm1Queue):
        return model.observed - lindley_rows(
            float(theta[0]), model.service_rate, model.output_dim, gen, reps)
    if isinstance(model, StochasticSir):
        p = min(max(float(theta[0]), 0.0), 1.0)
        return model.observed - sir_pass_reference(p, gen, reps)
    raise TypeError(f"no bitwise reference for {type(model).__name__}")


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
        draws = sim.draw(theta, gen, 20000)[:, 0]
        assert draws.mean() == pytest.approx(f, abs=0.05)
        assert draws.var() == pytest.approx(abs(f), rel=0.05)

    def test_box_and_dim(self):
        sim = Himmelblau2D()
        assert sim.output_dim == 1
        assert np.allclose(sim.box.lower, [-3.0, -3.0])
        assert np.allclose(sim.box.upper, [3.0, 3.0])


class TestMm1:
    def test_output_dim_is_the_observation_size(self):
        sim = Mm1Queue(observed=np.zeros(50), service_rate=4.0)
        assert sim.output_dim == 50
        assert sim.draw([6.0], np.random.default_rng(0), 3).shape == (3, 50)

    def test_sojourn_matches_lindley_by_hand(self):
        class FakeGen:
            def __init__(self):
                self.calls = 0

            def standard_exponential(self, size):
                # interarrivals [0.5, 1.0, 0.2] at rate 2, then services
                # [0.8, 0.4, 0.6] at rate 4, one entity-major column each
                assert size == (3, 1)
                self.calls += 1
                unit = [[1.0, 2.0, 0.4], [3.2, 1.6, 2.4]][self.calls - 1]
                return np.array(unit)[:, None]

        gen = FakeGen()
        sojourn = mm1_sojourns(2.0, 4.0, 3, gen)[0]
        assert gen.calls == 2
        # waits: w1 = 0; w2 = max(0, 0 + 0.8 - 1.0) = 0; w3 = max(0, 0 + 0.4 - 0.2) = 0.2
        assert np.allclose(sojourn, [0.8, 0.4, 0.8])

    @pytest.mark.parametrize("reps", [1, 10, 1000])
    def test_sojourns_match_the_array_reference_bytes(self, reps):
        for k, rate in enumerate((2.0, 3.3, 4.0, 6.0, 7.9, 10.0)):
            got = mm1_sojourns(rate, 4.0, 100, RngStream(31, (k,)).generator(), reps)
            want = mm1_sojourns_reference(rate, 4.0, 100, RngStream(31, (k,)).generator(), reps)
            assert got.strides == want.strides, rate
            assert got.tobytes() == want.tobytes(), (rate, reps)

    def test_residual_zero_when_replaying_observation_stream(self):
        obs = RngStream(7)
        sim = Mm1Queue.from_stream(obs, arrival_real=6.0)
        resid = sim.draw([6.0], obs.generator())
        assert sim.output_dim == 100
        assert resid.shape == (1, 100)
        assert np.allclose(resid, 0.0)

    def test_mean_signed_residual_decreases_in_arrival_rate(self):
        # higher simulated arrival rate means longer simulated sojourns,
        # so observation-minus-simulation falls
        sim = Mm1Queue.from_stream(RngStream(8))
        base = RngStream(9)
        means = []
        for k, theta in enumerate((4.0, 6.0, 8.0)):
            means.append(sim.draw([theta], base.child(k).generator(), 1000).mean())
        assert means[0] > means[1] > means[2]


class TestSir:
    def test_zero_infection_prob_gives_pure_recovery(self):
        # with no new infections, day-1 recovered ~ Binomial(10, 0.7)/100
        gen = np.random.default_rng(10)
        day1 = sir_trajectories(0.0, gen, 5000)[:, 0]
        assert np.mean(day1) == pytest.approx(0.07, abs=0.003)

    def test_cumulative_output_non_decreasing(self):
        gen = np.random.default_rng(11)
        traj = sir_trajectories(0.5, gen, 50)
        assert traj.shape == (50, 5)
        assert np.all(np.diff(traj, axis=1) >= 0)
        assert np.all((traj >= 0) & (traj <= 1))

    def test_final_recovered_monotone_in_infection_prob(self):
        means = []
        for k, p in enumerate((0.2, 0.65, 0.9)):
            gen = np.random.default_rng(100 + k)
            means.append(np.mean(sir_trajectories(p, gen, 1000)[:, -1]))
        assert means[0] < means[1] < means[2]

    def test_residual_zero_when_replaying_observation_stream(self):
        obs = RngStream(12)
        sim = StochasticSir.from_stream(obs, infection_real=0.65)
        assert np.allclose(sim.draw([0.65], obs.generator()), 0.0)


class TestRootlessQuadratic:
    def test_mean_is_quadratic_plus_offset(self):
        sim = RootlessQuadratic(eps=0.1)
        gen = np.random.default_rng(13)
        draws = sim.draw([0.5], gen, 20000)[:, 0]
        assert draws.mean() == pytest.approx(0.25 + 0.1, abs=0.001)
        assert draws.std() == pytest.approx(0.01, rel=0.05)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            RootlessQuadratic(eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_eps_naming_it(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            RootlessQuadratic(eps=eps)


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

    @pytest.mark.parametrize("problem,params", [("himmelblau2d", {"eps": 1.0}),
                                                ("mm1", {"infection_real": 0.5}),
                                                ("sir", {"n_entities": 10})])
    def test_param_the_problem_does_not_take_raises_naming_it(self, problem, params):
        with pytest.raises(TypeError, match=next(iter(params))):
            make_model(problem, RngStream(0), params)


BATCH_CASES = (
    [("mm1", [lam]) for lam in (2.0, 6.0, 9.7)]
    + [("sir", [p]) for p in (0.0, 0.2, 0.65, 0.95, 1.0)]
    + [("himmelblau2d", [0.5, -1.0]), ("rootless", [0.3])]
)


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_sir_matches_reference(p, population, initial, reps, seed):
    """Per-day means within 4 standard errors and SDs within 5% of the
    scalar contact loop's, over `reps` replications of each."""
    gen, twin = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    out = sir_trajectories(p, gen, reps, population, initial)
    ref = np.array([sir_reference(p, twin, population, initial) for _ in range(reps)])
    assert out.shape == ref.shape
    se = np.sqrt((out.var(axis=0) + ref.var(axis=0)) / reps)
    assert np.all(np.abs(out.mean(axis=0) - ref.mean(axis=0)) <= 4.0 * se)
    np.testing.assert_allclose(out.std(axis=0), ref.std(axis=0), rtol=0.05)


class TestDrawBatch:
    """Many replications from one generator: ``draw(theta, gen, reps)``."""

    @pytest.mark.parametrize("problem,theta", BATCH_CASES)
    @pytest.mark.parametrize("one_call", [True, False])
    def test_rows_equal_sequential_draws(self, problem, theta, one_call):
        # one call of `reps` rows, or `reps` one-row calls, equals the scalar
        # reference on a twin generator and leaves the generator in its state
        sim = make_model(problem, RngStream(4))
        reps = 25
        gen, twin = _twins(40)
        if one_call:
            rows = sim.draw(theta, gen, reps)
            ref = reference_rows(sim, theta, twin, reps)
        else:
            rows = np.concatenate([sim.draw(theta, gen) for _ in range(reps)])
            ref = np.concatenate([reference_rows(sim, theta, twin, 1)
                                  for _ in range(reps)])
        assert rows.shape == (reps, sim.output_dim)
        assert np.array_equal(rows, ref)
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("arrival_rate", [2.0, 6.0, 9.7])
    def test_lindley_batch_equals_scalar_loop(self, arrival_rate):
        gen, twin = _twins(7)
        batch = mm1_sojourns(arrival_rate, 4.0, 100, gen, 30)
        assert np.array_equal(batch, lindley_rows(arrival_rate, 4.0, 100, twin, 30))
        assert gen.random() == twin.random()

    def test_mm1_observation_and_draw_follow_scalar_loop(self):
        sim = Mm1Queue.from_stream(RngStream(5))
        assert np.array_equal(
            sim.observed, lindley_rows(6.0, 4.0, 100, RngStream(5).generator(), 1)[0])
        gen, twin = _twins(8)
        resid = sim.draw([3.5], gen, 4)
        assert np.array_equal(resid, sim.observed
                              - lindley_rows(3.5, 4.0, 100, twin, 4))

    @pytest.mark.parametrize("population,initial", [(100, 10), (7, 3), (30, 12)])
    def test_sir_passes_equal_scalar_passes(self, population, initial):
        # many replications, each active for a different number of passes
        gen, twin = _twins(21)
        for p in (0.5, 0.95):
            out = sir_trajectories(p, gen, 200, population, initial)
            assert np.array_equal(out, sir_pass_reference(p, twin, 200, population,
                                                          initial))
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.65, 0.95, 1.0])
    def test_sir_chunks_equal_scalar_loop(self, p):
        # in distribution: k full-contact turns drawn as one Binomial(c k, p)
        # per pass over the active replications
        assert_sir_matches_reference(p, 100, 10, 20000, seed=9)

    @pytest.mark.parametrize("population,initial", [(7, 3), (9, 4), (30, 12)])
    def test_sir_chunks_equal_scalar_loop_on_odd_pools(self, population, initial):
        # small odd pools leave one susceptible, the single-contact turn
        for k, p in enumerate((0.2, 0.65, 0.95, 1.0)):
            assert_sir_matches_reference(p, population, initial, 40000, seed=10 + 2 * k)

    def test_model_without_draw_is_rejected(self):
        class Empty(SimulationModel):
            pass

        with pytest.raises(NotImplementedError):
            Empty().draw([0.0], np.random.default_rng(0))

    def test_models_define_draw_not_draw_batch(self):
        models = [cls for cls in vars(simulators).values()
                  if isinstance(cls, type) and issubclass(cls, SimulationModel)
                  and cls is not SimulationModel]
        assert len(models) == 4
        assert not hasattr(SimulationModel, "draw_batch")
        for cls in models:
            assert "draw" in vars(cls), cls.__name__
            assert not hasattr(cls, "draw_batch"), cls.__name__
