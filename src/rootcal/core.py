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
    "residual_rows",
    "summarize",
]

CONTAINS_ATOL = 1e-12  # ParameterBox.contains tolerance on each bound


@dataclass(frozen=True)
class ParameterBox:
    """Compact hyperrectangular search domain with per-axis bounds.

    The bounds are read-only copies of the caller's arrays, and ``width``
    (``upper - lower``) is computed once, so none of them can go stale.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float, ndmin=1)
        upper = np.array(self.upper, dtype=float, ndmin=1)
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if lower.size < 1:
            raise ValueError("box must have at least one axis")
        finite = np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        if not finite or not np.all(lower < upper):
            what = ("lower bound must be strictly below upper bound on every axis" if finite
                    else "lower and upper must be finite")
            raise ValueError(f"{what}, got lower {lower.tolist()}, upper {upper.tolist()}")
        for name, value in (("lower", lower), ("upper", upper), ("width", upper - lower)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.lower.shape and (theta.ndim or self.dim > 1):
            raise ValueError(f"point {theta.tolist()} does not match the box's {self.dim} axes")
        return bool(np.all(theta >= self.lower - CONTAINS_ATOL)
                    and np.all(theta <= self.upper + CONTAINS_ATOL))

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


def _residuals(sample) -> np.ndarray:
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("residual sample is empty")
    return sample


def aggregate_signed(sample):
    """Average the residual vector across output dimensions into one signed scalar.

    A ``(reps, m)`` array gives one aggregate per row.
    """
    return np.mean(_residuals(sample), axis=-1)


def aggregate_squared(sample):
    """Mean of squared residual components; one per row of a ``(reps, m)`` array."""
    return np.mean(_residuals(sample) ** 2, axis=-1)


def _noise_var(values: np.ndarray) -> float:
    n = values.size
    if n == 1:
        return 0.0
    mean = values.mean()
    return float(np.sum((values - mean) ** 2) / (n * (n - 1)))


def residual_rows(samples) -> np.ndarray:
    """Residual samples as one ``(reps, m)`` array, one row per sample."""
    if len(samples) == 0:
        raise ValueError("at least one residual sample required")
    try:
        return np.asarray(samples, dtype=float).reshape(len(samples), -1)
    except ValueError:
        raise ValueError("residual samples disagree on output dimension") from None


def summarize(theta, samples) -> ObservationSummary:
    """Summarize replicated residual samples, one row per replication."""
    samples = residual_rows(samples)
    signed = aggregate_signed(samples)
    squared = aggregate_squared(samples)
    return ObservationSummary(
        theta=np.atleast_1d(np.asarray(theta, dtype=float)),
        signed_mean=float(signed.mean()),
        squared_mean=float(squared.mean()),
        signed_noise_var=_noise_var(signed),
        squared_noise_var=_noise_var(squared),
    )
