"""Benchmark simulation models behind one residual-drawing interface.

Each model exposes a parameter box, an output dimension and one method,
``draw_batch(theta, gens) -> (len(gens), output_dim) array``, where each
``gen`` is a ``numpy.random.Generator``.  Row ``i`` is drawn from ``gens[i]``,
rows in order, and a generator may appear in several rows, so a batch over
one shared generator equals the same rows drawn one at a time.
``draw(theta, gen)`` is the one-row case.  M/M/1, Himmelblau and the
rootless quadratic draw each run of consecutive rows that share one
generator with one sized numpy call, which consumes the bit stream exactly
as the same number of scalar draws; SIR simulates row by row.  The queueing
and epidemic models hold one fixed synthetic observation, generated from a
dedicated stream at the true parameter, and return observation-minus-
simulation residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .core import ParameterBox, RngStream

__all__ = [
    "SimulationModel",
    "Himmelblau2D",
    "Mm1Queue",
    "StochasticSir",
    "RootlessQuadratic",
    "himmelblau_signed",
    "mm1_sojourn_batch",
    "sir_trajectory",
    "make_model",
]


class SimulationModel:
    """Interface: box, output_dim, draw_batch(theta, gens)."""

    box: ParameterBox
    output_dim: int

    def draw_batch(self, theta, gens) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not implement draw_batch")

    def draw(self, theta, gen: np.random.Generator) -> np.ndarray:
        return self.draw_batch(theta, [gen])[0]


def _runs(gens):
    """``(generator, rows)`` for each run of consecutive rows sharing a generator."""
    for _, run in groupby(gens, key=id):
        yield next(run), 1 + sum(1 for _ in run)


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

    box: ParameterBox = field(
        default_factory=lambda: ParameterBox([-3.0, -3.0], [3.0, 3.0])
    )
    output_dim: int = 1

    def draw_batch(self, theta, gens) -> np.ndarray:
        f = himmelblau_signed(theta)
        sd = np.sqrt(abs(f))
        noise = np.concatenate([gen.normal(0.0, sd, rows) for gen, rows in _runs(gens)])
        # on the zero set f is -inf and the noise +-inf; the engine rejects the nan
        with np.errstate(invalid="ignore"):
            return (f + noise)[:, None]


def mm1_sojourn_batch(arrival_rate: float, service_rate: float,
                      n_entities: int, gens) -> np.ndarray:
    """Per-entity sojourn times of a single FIFO server via the Lindley recursion.

    Row ``i`` holds the inter-arrival then the service draws of ``gens[i]``,
    each run of rows sharing a generator filled by one standard-exponential
    draw and scaled in place, as ``exponential(scale)`` scales element by
    element.  The recursion runs once over entities, across all rows.  The
    sojourns overwrite the inter-arrival half, which is returned.
    """
    draws = np.empty((len(gens), 2, n_entities))
    start = 0
    for gen, rows in _runs(gens):
        gen.standard_exponential(out=draws[start:start + rows])
        start += rows
    times, services = draws[:, 0], draws[:, 1]
    times *= 1.0 / arrival_rate
    services *= 1.0 / service_rate
    wait = np.zeros(len(gens))
    for k in range(n_entities):
        if k > 0:
            wait = np.maximum(0.0, wait + services[:, k - 1] - times[:, k])
        times[:, k] = wait + services[:, k]
    return times


@dataclass(frozen=True)
class Mm1Queue(SimulationModel):
    """Arrival-rate calibration against observed sojourn times.

    The service rate is known and fixed; the observation is a single
    100-entity trajectory generated at the true arrival rate.  Residuals
    align observation and simulation by entity index.
    """

    observed: np.ndarray
    service_rate: float = 4.0
    box: ParameterBox = field(
        default_factory=lambda: ParameterBox([2.0], [10.0])
    )
    output_dim: int = 100

    @classmethod
    def from_stream(cls, obs_rng: RngStream, arrival_real: float = 6.0,
                    service_rate: float = 4.0, n_entities: int = 100) -> "Mm1Queue":
        observed = mm1_sojourn_batch(arrival_real, service_rate, n_entities,
                                     [obs_rng.generator()])[0]
        return cls(observed=observed, service_rate=service_rate,
                   output_dim=n_entities)

    def draw_batch(self, theta, gens) -> np.ndarray:
        sim = mm1_sojourn_batch(float(theta[0]), self.service_rate,
                                self.output_dim, gens)
        return np.subtract(self.observed, sim, out=sim)


def sir_trajectory(infection_prob: float, gen: np.random.Generator,
                   population: int = 100, initial_infected: int = 10,
                   contacts_per_day: int = 2, recovery_prob: float = 0.7,
                   horizon: int = 5) -> np.ndarray:
    """Daily cumulative recovered proportions of a stochastic SIR run.

    Within a day, infections resolve first over the start-of-day susceptible
    pool (each infected contacts up to `contacts_per_day` distinct current
    susceptibles, sampled without replacement), then recoveries apply only
    to individuals infected before that day.
    """
    s = population - initial_infected
    i = initial_infected
    r = 0
    out = np.empty(horizon)
    for day in range(horizon):
        infected_today = 0
        if i > 0 and s > 0:
            if s >= contacts_per_day * i:
                # every infected can find a full set of distinct susceptibles,
                # so the sequential contact process collapses to one binomial
                infected_today = int(gen.binomial(contacts_per_day * i,
                                                  infection_prob))
            else:
                # infected take turns; each contacts min(contacts_per_day, pool)
                # of the remaining pool.  While pool - contacts_per_day * (k - 1)
                # >= contacts_per_day, the next k turns all make full contacts,
                # and one sized draw equals k scalar draws.
                pool, left = s, i
                while left > 0 and pool > 0:
                    if pool < contacts_per_day:
                        new = int(gen.binomial(pool, infection_prob))
                        left -= 1
                    else:
                        k = min(left, (pool - contacts_per_day) // contacts_per_day + 1)
                        new = int(gen.binomial(contacts_per_day, infection_prob,
                                               size=k).sum())
                        left -= k
                    pool -= new
                    infected_today += new
        recoveries = int(gen.binomial(i, recovery_prob)) if i > 0 else 0
        s -= infected_today
        i = i - recoveries + infected_today
        r += recoveries
        out[day] = r / population
    return out


@dataclass(frozen=True)
class StochasticSir(SimulationModel):
    """Infection-probability calibration against an observed recovery trajectory."""

    observed: np.ndarray
    box: ParameterBox = field(
        default_factory=lambda: ParameterBox([0.0], [1.0])
    )
    output_dim: int = 5

    @classmethod
    def from_stream(cls, obs_rng: RngStream,
                    infection_real: float = 0.65) -> "StochasticSir":
        observed = sir_trajectory(infection_real, obs_rng.generator())
        return cls(observed=observed)

    def draw_batch(self, theta, gens) -> np.ndarray:
        p = min(max(float(theta[0]), 0.0), 1.0)
        sim = np.array([sir_trajectory(p, gen) for gen in gens])
        return np.subtract(self.observed, sim, out=sim)


@dataclass(frozen=True)
class RootlessQuadratic(SimulationModel):
    """theta^2 + eps plus N(0, 0.01^2) observation noise on [-1, 1]."""

    eps: float
    noise_std: float = 0.01
    box: ParameterBox = field(
        default_factory=lambda: ParameterBox([-1.0], [1.0])
    )
    output_dim: int = 1

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def draw_batch(self, theta, gens) -> np.ndarray:
        value = float(theta[0]) ** 2 + self.eps
        noise = np.concatenate([gen.normal(0.0, self.noise_std, rows)
                                for gen, rows in _runs(gens)])
        return (value + noise)[:, None]


def make_model(problem: str, obs_rng: RngStream, params: dict | None = None) -> SimulationModel:
    """Construct a benchmark model by name; obs_rng seeds any fixed observation."""
    params = dict(params or {})
    if problem == "himmelblau2d":
        return Himmelblau2D()
    if problem == "mm1":
        return Mm1Queue.from_stream(
            obs_rng,
            arrival_real=params.get("arrival_real", 6.0),
            service_rate=params.get("service_rate", 4.0),
            n_entities=params.get("n_entities", 100),
        )
    if problem == "sir":
        return StochasticSir.from_stream(
            obs_rng, infection_real=params.get("infection_real", 0.65)
        )
    if problem == "rootless":
        return RootlessQuadratic(eps=params.get("eps", 0.1))
    raise ValueError(f"unknown problem: {problem}")
