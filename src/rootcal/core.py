"""Shared domain types: parameter boxes, seeded RNG streams, residual aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParameterBox",
    "RngStream",
    "ObservationSummary",
    "aggregate_signed",
    "aggregate_squared",
    "summarize",
]


@dataclass(frozen=True)
class ParameterBox:
    """Compact hyperrectangular search domain with per-axis bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if lower.size < 1:
            raise ValueError("box must have at least one axis")
        if not np.all(lower < upper):
            raise ValueError("lower bound must be strictly below upper bound on every axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, theta, atol: float = 1e-12) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(
            np.all(theta >= self.lower - atol) and np.all(theta <= self.upper + atol)
        )

    def clip(self, theta) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), self.lower, self.upper)

    def to_unit(self, theta) -> np.ndarray:
        """Affine map of box coordinates onto the unit hypercube."""
        return (np.asarray(theta, dtype=float) - self.lower) / self.width

    def from_unit(self, u) -> np.ndarray:
        return self.lower + np.asarray(u, dtype=float) * self.width


@dataclass(frozen=True)
class RngStream:
    """Hierarchically splittable RNG handle.

    Identical (seed, key) pairs produce bitwise-identical draw sequences.
    Distinct keys are not always distinct streams: ``(seed, *key)`` is the
    ``SeedSequence`` entropy, which numpy zero-pads, so keys that differ only
    by trailing zeros alias (``RngStream(0)``, ``.child(0)`` and
    ``.child(0).child(0)`` draw the same numbers, as do keys ``(1,)`` and
    ``(1, 0)``).  Streams are split with :meth:`child` rather than shared, so
    concurrent workers never contend for generator state.
    """

    seed: int
    key: tuple = field(default=())

    def child(self, *subkeys: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(int(k) for k in subkeys))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, *self.key)))


@dataclass(frozen=True)
class ObservationSummary:
    """Replication summary at one design point.

    signed_mean / squared_mean average the signed and squared residual
    aggregates over replications; the noise variances use the n(n-1)
    normalizer and are defined as 0 for a single replication.
    """

    theta: np.ndarray
    signed_mean: float
    squared_mean: float
    signed_noise_var: float
    squared_noise_var: float
    reps: int


def aggregate_signed(sample) -> float:
    """Average the residual vector across output dimensions into one signed scalar."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("residual sample is empty")
    return float(np.mean(sample))


def aggregate_squared(sample) -> float:
    """Mean of squared residual components."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("residual sample is empty")
    return float(np.mean(sample**2))


def _noise_var(values: np.ndarray) -> float:
    n = values.size
    if n == 1:
        return 0.0
    mean = values.mean()
    return float(np.sum((values - mean) ** 2) / (n * (n - 1)))


def summarize(theta, samples) -> ObservationSummary:
    """Summarize replicated residual samples at a design point."""
    if len(samples) == 0:
        raise ValueError("at least one residual sample required")
    arrays = [np.asarray(s, dtype=float) for s in samples]
    m_y = arrays[0].size
    if any(a.size != m_y for a in arrays):
        raise ValueError("residual samples disagree on output dimension")
    signed = np.array([aggregate_signed(a) for a in arrays])
    squared = np.array([aggregate_squared(a) for a in arrays])
    return ObservationSummary(
        theta=np.atleast_1d(np.asarray(theta, dtype=float)),
        signed_mean=float(signed.mean()),
        squared_mean=float(squared.mean()),
        signed_noise_var=_noise_var(signed),
        squared_noise_var=_noise_var(squared),
        reps=len(arrays),
    )
