"""Benchmark simulation models behind one residual-drawing interface.

Each model class fixes a parameter box; each model has an output dimension
and one method, ``draw(theta, gen, reps=1) -> (reps, output_dim) array``,
whose rows are independent replications all drawn from the one
``numpy.random.Generator`` ``gen``.  Each model makes one sized numpy call
per random quantity: Himmelblau and the rootless quadratic one normal draw,
M/M/1 one call for all inter-arrival and one for all service times, and SIR
one binomial per pass over the replications still active on a day.  The
queueing and epidemic models hold one fixed synthetic observation, generated
from a dedicated stream at the true parameter, so their output dimension is
the observation's size, and return observation-minus-simulation residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterBox, RngStream

__all__ = [
    "SimulationModel",
    "Himmelblau2D",
    "Mm1Queue",
    "StochasticSir",
    "RootlessQuadratic",
    "himmelblau_signed",
    "mm1_sojourns",
    "sir_trajectories",
    "PROBLEMS",
    "make_model",
]


class SimulationModel:
    """Interface: box, output_dim, from_stream(obs_rng, **params), draw(theta, gen, reps)."""

    box: ParameterBox
    output_dim: int

    @classmethod
    def from_stream(cls, obs_rng: RngStream, **params) -> "SimulationModel":
        """The model with these parameters; obs_rng seeds a fixed observation, if any."""
        return cls(**params)

    def draw(self, theta, gen: np.random.Generator, reps: int = 1) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not implement draw")


def himmelblau_signed(theta) -> float:
    """log2((t1^2 + t2 - 3)^2 + (t1 + t2^2 - 2)^2) - 1; -inf on the zero set."""
    t1, t2 = float(theta[0]), float(theta[1])
    arg = (t1**2 + t2 - 3.0) ** 2 + (t1 + t2**2 - 2.0) ** 2
    if arg == 0.0:
        return -np.inf
    return float(np.log2(arg) - 1.0)


@dataclass(frozen=True)
class Himmelblau2D(SimulationModel):
    """Noisy scalar discrepancy with heteroskedastic variance |f(theta)|."""

    box = ParameterBox([-3.0, -3.0], [3.0, 3.0])
    output_dim = 1

    def draw(self, theta, gen: np.random.Generator, reps: int = 1) -> np.ndarray:
        f = himmelblau_signed(theta)
        noise = gen.normal(0.0, np.sqrt(abs(f)), reps)
        # on the zero set f is -inf and the noise +-inf; the engine rejects the nan
        with np.errstate(invalid="ignore"):
            return (f + noise)[:, None]


def mm1_sojourns(arrival_rate: float, service_rate: float, n_entities: int,
                 gen: np.random.Generator, reps: int = 1) -> np.ndarray:
    """``(reps, n_entities)`` sojourn times of a single FIFO server.

    All inter-arrival times, then all service times, are drawn entity-major
    as ``(n_entities, reps)`` standard exponential fills scaled in place, so
    the Lindley recursion steps over contiguous rows, one entity across all
    replications at a time.  The sojourns overwrite the inter-arrival times
    and are returned transposed.
    """
    times = gen.standard_exponential((n_entities, reps))
    times *= 1.0 / arrival_rate
    services = gen.standard_exponential((n_entities, reps))
    services *= 1.0 / service_rate
    times[:1] = services[:1]  # the first entity does not wait
    # two scratch rows, as a ufunc writing over its input is slow on one-row arrays
    gap, wait = np.empty(reps), np.empty(reps)
    for prev, row, service in zip(times, times[1:], services[1:]):
        np.subtract(prev, row, out=gap)  # the previous sojourn less the inter-arrival
        np.maximum(0.0, gap, out=wait)  # is the wait
        np.add(wait, service, out=row)
    return times.T


@dataclass(frozen=True)
class Mm1Queue(SimulationModel):
    """Arrival-rate calibration against observed sojourn times.

    The service rate is known and fixed; the observation is a single
    trajectory of ``n_entities`` entities generated at the true arrival rate.
    Residuals align observation and simulation by entity index.
    """

    observed: np.ndarray
    service_rate: float
    box = ParameterBox([2.0], [10.0])

    @property
    def output_dim(self) -> int:
        return self.observed.size

    @classmethod
    def from_stream(cls, obs_rng: RngStream, arrival_real: float = 6.0,
                    service_rate: float = 4.0, n_entities: int = 100) -> "Mm1Queue":
        for name, rate in (("arrival_real", arrival_real), ("service_rate", service_rate)):
            if not 0 < rate < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {rate}")
        if type(n_entities) is not int or n_entities < 1:
            raise ValueError(f"n_entities must be an integer >= 1, got {n_entities}")
        observed = mm1_sojourns(arrival_real, service_rate, n_entities,
                                obs_rng.generator())[0]
        return cls(observed=observed, service_rate=service_rate)

    def draw(self, theta, gen: np.random.Generator, reps: int = 1) -> np.ndarray:
        sim = mm1_sojourns(float(theta[0]), self.service_rate, self.output_dim,
                           gen, reps)
        # row-major residuals, so each row reduces as one contiguous vector
        return np.subtract(self.observed, sim, order="C")


def sir_trajectories(infection_prob: float, gen: np.random.Generator,
                     reps: int = 1, population: int = 100,
                     initial_infected: int = 10) -> np.ndarray:
    """``(reps, horizon)`` daily cumulative recovered proportions of stochastic SIR runs.

    Within a day, infections resolve first over the start-of-day susceptible
    pool: the infected take turns, each contacting min(c, pool) distinct
    current susceptibles, sampled without replacement.  Then recoveries apply
    only to individuals infected before that day.  Each pass over the
    replications still taking turns is one array binomial: while the pool is
    at least c, the next k = min(left, (pool - c) // c + 1) turns all make
    full contacts and are one Binomial(c * k, p) draw; a smaller pool takes
    one Binomial(pool, p) turn.
    """
    c, recovery_prob, horizon = 2, 0.7, 5  # contacts per day, daily recovery, days observed
    s = np.full(reps, population - initial_infected)
    i = np.full(reps, initial_infected)
    r = np.zeros(reps, dtype=int)
    out = np.empty((reps, horizon))
    for day in range(horizon):
        pool, left = s.copy(), i.copy()
        active = np.flatnonzero((left > 0) & (pool > 0))
        while active.size:
            p_act, left_act = pool[active], left[active]
            full = p_act >= c
            k = np.where(full, np.minimum(left_act, (p_act - c) // c + 1), 1)
            pool[active] -= gen.binomial(np.where(full, c * k, p_act), infection_prob)
            left[active] -= k
            active = active[(left[active] > 0) & (pool[active] > 0)]
        recoveries = gen.binomial(i, recovery_prob)
        i += s - pool - recoveries
        s = pool
        r += recoveries
        out[:, day] = r / population
    return out


@dataclass(frozen=True)
class StochasticSir(SimulationModel):
    """Infection-probability calibration against an observed recovery trajectory."""

    observed: np.ndarray
    box = ParameterBox([0.0], [1.0])

    @property
    def output_dim(self) -> int:
        return self.observed.size

    @classmethod
    def from_stream(cls, obs_rng: RngStream,
                    infection_real: float = 0.65) -> "StochasticSir":
        if not 0 <= infection_real <= 1:
            raise ValueError(f"infection_real must be in [0, 1], got {infection_real}")
        observed = sir_trajectories(infection_real, obs_rng.generator())[0]
        return cls(observed=observed)

    def draw(self, theta, gen: np.random.Generator, reps: int = 1) -> np.ndarray:
        p = min(max(float(theta[0]), 0.0), 1.0)
        sim = sir_trajectories(p, gen, reps)
        return np.subtract(self.observed, sim, out=sim)


@dataclass(frozen=True)
class RootlessQuadratic(SimulationModel):
    """theta^2 + eps plus N(0, 0.01^2) observation noise on [-1, 1]."""

    eps: float = 0.1
    noise_std = 0.01  # a class constant, not a constructor argument
    box = ParameterBox([-1.0], [1.0])
    output_dim = 1

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    def draw(self, theta, gen: np.random.Generator, reps: int = 1) -> np.ndarray:
        value = float(theta[0]) ** 2 + self.eps
        return (value + gen.normal(0.0, self.noise_std, reps))[:, None]


# problem name -> model class; ``problem_params`` are its from_stream keywords
PROBLEMS = {
    "himmelblau2d": Himmelblau2D,
    "mm1": Mm1Queue,
    "sir": StochasticSir,
    "rootless": RootlessQuadratic,
}


def make_model(problem: str, obs_rng: RngStream, params: dict | None = None) -> SimulationModel:
    """Construct a benchmark model by name; obs_rng seeds any fixed observation,
    and a key of params that the problem does not take raises a TypeError."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem: {problem}")
    return PROBLEMS[problem].from_stream(obs_rng, **(params or {}))
