"""The paper's approximation gap on a linear-Gaussian toy, where it is exact.

Output j simulates ``a_j theta + eps_j``, with ``eps_j ~ N(0, sigma^2)``
independent, against a fixed observation ``c_j``.  With means, variances and
covariances taken across j, the root of the signed aggregate is
``theta_r = mean(c) / mean(a)``, the minimiser of the squared discrepancy is
``theta_* = mean(a c) / mean(a^2)``, and their gap is
``(mean(c) var(a) - mean(a) cov(a, c)) / (mean(a) mean(a^2))``.  It is zero
when the slopes are equal, but it need not widen as they spread.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from rootcal.core import ParameterBox, RngStream, aggregate_signed, aggregate_squared
from rootcal.diagnostics import chain_check
from rootcal.engine import draw_checked
from rootcal.rss import rss_deterministic
from rootcal.simulators import SimulationModel

BOX = ParameterBox([-10.0], [10.0])
REPS = 4000  # draws per chain check
SE_BOUND = 4.0  # a closed form must lie within this many standard errors


@dataclass(frozen=True)
class LinearGaussian(SimulationModel):
    """Observation-minus-simulation residuals ``c_j - (a_j theta + eps_j)``."""

    a: tuple
    c: tuple
    sigma: float
    box = BOX

    @property
    def output_dim(self) -> int:
        return len(self.a)

    def draw(self, theta, gen, reps=1):
        a, c = np.array(self.a), np.array(self.c)
        return c - a * theta[0] - gen.normal(0.0, self.sigma, (reps, a.size))

    def discrepancy(self, theta: float) -> np.ndarray:
        """The noise-free residuals ``c - a theta``."""
        return np.array(self.c) - np.array(self.a) * theta

    @property
    def root(self) -> float:
        return float(np.mean(self.c) / np.mean(self.a))

    @property
    def minimiser(self) -> float:
        a, c = np.array(self.a), np.array(self.c)
        return float(np.mean(a * c) / np.mean(a**2))

    @property
    def gap(self) -> float:
        a, c = np.array(self.a), np.array(self.c)
        cov = np.mean((a - a.mean()) * (c - c.mean()))
        return float((c.mean() * a.var() - a.mean() * cov) / (a.mean() * np.mean(a**2)))


TOYS = {
    "two-outputs": LinearGaussian((1.0, 3.0), (1.0, 9.0), 0.5),
    "five-outputs": LinearGaussian((0.5, 1.0, 1.5, 2.5, 4.0), (2.0, 1.0, 4.0, 3.0, 8.0), 0.8),
    "equal-slopes": LinearGaussian((2.0, 2.0, 2.0), (1.0, 4.0, 7.0), 0.3),
}


@pytest.mark.parametrize("toy", TOYS.values(), ids=TOYS)
def test_closed_form_gap_is_the_numerical_root_minus_minimiser(toy):
    # the expected signed aggregate, and the expected squared one up to its constant sigma^2
    root = brentq(lambda t: aggregate_signed(toy.discrepancy(t)), -10.0, 10.0, xtol=1e-14)
    opt = minimize_scalar(lambda t: aggregate_squared(toy.discrepancy(t)), bounds=(-10.0, 10.0),
                          method="bounded", options={"xatol": 1e-12})
    assert root == pytest.approx(toy.root, abs=1e-12)
    assert opt.x == pytest.approx(toy.minimiser, abs=1e-6)
    assert toy.root - toy.minimiser == pytest.approx(toy.gap, abs=1e-12)
    assert root - opt.x == pytest.approx(toy.gap, abs=1e-6)


def test_equal_slopes_close_the_gap_and_unequal_ones_need_not_widen_it():
    assert TOYS["equal-slopes"].gap == 0.0
    # a = (2 - s, 2 + s) against c = (1, 9): the gap is (5 s^2 - 8 s) / (8 + 2 s^2)
    gaps = [LinearGaussian((2.0 - s, 2.0 + s), (1.0, 9.0), 0.5).gap for s in (0.5, 1.0, 1.5)]
    assert gaps == pytest.approx([-11 / 34, -0.3, -0.06], abs=1e-15)


@pytest.mark.parametrize("toy", TOYS.values(), ids=TOYS)
def test_chain_check_at_the_root_matches_its_closed_forms(toy):
    sigma2, m = toy.sigma**2, toy.output_dim
    draws = draw_checked(toy, [toy.root], RngStream(20261020).generator(), REPS)
    report = chain_check(draws)

    spatial = np.var(toy.discrepancy(toy.root)) + sigma2 * (1.0 - 1.0 / m)
    spatial_se = np.var(draws, axis=1).std(ddof=1) / np.sqrt(REPS)
    assert abs(report.spatial_variability - spatial) <= SE_BOUND * spatial_se

    # the sample variance of S ~ N(0, sigma^2 / m) has standard error sigma^2/m sqrt(2/(n-1))
    variance_se = sigma2 / m * np.sqrt(2.0 / (REPS - 1))
    assert abs(report.aggregate_variance - sigma2 / m) <= SE_BOUND * variance_se
    assert report.ordered


def test_deterministic_rss_brackets_the_root_not_the_minimiser():
    """Search-space reduction belongs to root mode: the bracket of a sign change
    holds theta_r = 2.5 but not theta_* = 2.8, so it would confine a search for
    the minimiser to the wrong place, and the squared discrepancy, which a
    min-mode surrogate models, has no sign change to bracket at all."""
    toy = TOYS["two-outputs"]
    assert (toy.root, toy.minimiser) == (2.5, pytest.approx(2.8, abs=1e-15))
    design = [[2.0], [2.6]]
    signed = [aggregate_signed(toy.discrepancy(t)) for (t,) in design]
    sub = rss_deterministic(design, signed)
    assert sub is not None and (sub.lo.tolist(), sub.hi.tolist()) == ([2.0], [2.6])
    assert sub.lo[0] <= toy.root <= sub.hi[0]
    assert not sub.lo[0] <= toy.minimiser <= sub.hi[0]
    assert rss_deterministic(design, [aggregate_squared(toy.discrepancy(t)) for (t,) in design]) \
        is None
