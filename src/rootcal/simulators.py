"""Benchmark simulation models behind one residual-drawing interface.

Each model exposes a parameter box, an output dimension, and
``draw(theta, gen) -> residual vector``, where ``gen`` is a
``numpy.random.Generator``.  The queueing and epidemic models hold one fixed
synthetic observation, generated from a dedicated stream at the true
parameter, and return observation-minus-simulation residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParameterBox, RngStream

__all__ = [
    "SimulationModel",
    "Himmelblau2D",
    "Mm1Queue",
    "StochasticSir",
    "RootlessQuadratic",
    "himmelblau_signed",
    "mm1_sojourn_times",
    "sir_trajectory",
    "make_model",
]


class SimulationModel:
    """Interface: box, output_dim, draw(theta, gen)."""

    box: ParameterBox
    output_dim: int

    def draw(self, theta, gen: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


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

    def draw(self, theta, gen: np.random.Generator) -> np.ndarray:
        f = himmelblau_signed(theta)
        noise = gen.normal(0.0, np.sqrt(abs(f)))
        return np.array([f + noise])


def mm1_sojourn_times(arrival_rate: float, service_rate: float,
                      n_entities: int, gen: np.random.Generator) -> np.ndarray:
    """Per-entity sojourn times of a single FIFO server via the Lindley recursion."""
    interarrivals = gen.exponential(1.0 / arrival_rate, n_entities)
    services = gen.exponential(1.0 / service_rate, n_entities)
    sojourn = np.empty(n_entities)
    wait = 0.0
    for k in range(n_entities):
        if k > 0:
            wait = max(0.0, wait + services[k - 1] - interarrivals[k])
        sojourn[k] = wait + services[k]
    return sojourn


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
        observed = mm1_sojourn_times(arrival_real, service_rate, n_entities,
                                     obs_rng.generator())
        return cls(observed=observed, service_rate=service_rate,
                   output_dim=n_entities)

    def draw(self, theta, gen: np.random.Generator) -> np.ndarray:
        sim = mm1_sojourn_times(float(theta[0]), self.service_rate,
                                self.output_dim, gen)
        return self.observed - sim


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

    def draw(self, theta, gen: np.random.Generator) -> np.ndarray:
        sim = sir_trajectory(min(max(float(theta[0]), 0.0), 1.0), gen)
        return self.observed - sim


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

    def draw(self, theta, gen: np.random.Generator) -> np.ndarray:
        value = float(theta[0]) ** 2 + self.eps
        return np.array([value + gen.normal(0.0, self.noise_std)])


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
