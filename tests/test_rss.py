import numpy as np
import pytest
from scipy.special import ndtr

from rootcal.metamodel import Posterior
from rootcal.rss import (
    rss_deterministic,
    rss_stochastic,
    sign_change_prob,
)


class TestDeterministic:
    def test_worked_pair(self):
        design = np.array([[0.0, 0.0], [1.0, 2.0]])
        sub = rss_deterministic(design, [1.0, -1.0])
        assert sub is not None
        assert sub.volume == pytest.approx(4.0)
        assert np.allclose(sub.lo, [0.0, 0.0])
        assert np.allclose(sub.hi, [1.0, 2.0])

    def test_coincident_axis_uses_floor(self):
        design = np.array([[0.0, 0.0], [0.0, 2.0]])
        sub = rss_deterministic(design, [1.0, -2.0])
        assert sub.volume == pytest.approx(6e-8)

    def test_no_sign_change_returns_none(self):
        design = np.array([[0.0], [1.0], [2.0]])
        assert rss_deterministic(design, [1.0, 2.0, 0.5]) is None

    def test_picks_smallest_volume(self):
        design = np.array([[0.0], [10.0], [1.0]])
        # pairs (0,1) and (2,1) change sign; (2,1) spans the smaller region
        sub = rss_deterministic(design, [1.0, -1.0, 1.0])
        assert sub.pair == (1, 2)
        assert sub.volume == pytest.approx(9.0 * 2.0)

    def test_tie_breaks_lexicographically(self):
        design = np.array([[0.0], [1.0], [2.0], [3.0]])
        sub = rss_deterministic(design, [1.0, -1.0, 1.0, -1.0])
        assert sub.pair == (0, 1)


class TestSignChangeProb:
    def test_closed_form(self):
        a = Posterior(mean=0.5, var=0.04)
        b = Posterior(mean=-0.3, var=0.09)
        pa = ndtr(-0.5 / 0.2)
        pb = ndtr(0.3 / 0.3)
        assert sign_change_prob(a, b) == pytest.approx(pa + pb - 2 * pa * pb)

    def test_confident_opposite_signs_near_one(self):
        a = Posterior(mean=5.0, var=1e-4)
        b = Posterior(mean=-5.0, var=1e-4)
        assert sign_change_prob(a, b) == pytest.approx(1.0)

    def test_same_confident_sign_near_zero(self):
        a = Posterior(mean=5.0, var=1e-4)
        b = Posterior(mean=6.0, var=1e-4)
        assert sign_change_prob(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_means_give_half(self):
        # each point is negative with probability 1/2 independently
        a = Posterior(mean=0.0, var=1.0)
        b = Posterior(mean=0.0, var=4.0)
        assert sign_change_prob(a, b) == pytest.approx(0.5)


class TestStochastic:
    def test_worked_rectangle(self):
        from scipy.special import ndtri

        design = np.array([[0.0, 0.0], [1.0, 2.0]])
        # P(neg) = 0.05 at a and 1 at b gives P = 0.05 + 1 - 2*0.05 = 0.95
        a = Posterior(mean=-float(ndtri(0.05)), var=1.0)
        b = Posterior(mean=-50.0, var=1.0)
        assert sign_change_prob(a, b) == pytest.approx(0.95)
        sub = rss_stochastic(design, [a, b], alpha=0.95)
        assert sub is not None
        assert sub.volume == pytest.approx(1.0 * 2.0 * (1.0 - 0.95))
        assert sub.volume == pytest.approx(0.1)

    def test_below_alpha_returns_none(self):
        design = np.array([[0.0], [1.0]])
        a = Posterior(mean=1.0, var=0.01)
        b = Posterior(mean=2.0, var=0.01)
        assert rss_stochastic(design, [a, b], 0.95) is None

    def test_smallest_volume_wins(self):
        from scipy.special import ndtri

        design = np.array([[0.0], [4.0], [1.0]])
        # P(neg) = 0.01 at the positives and 0.99 at the negative keeps the
        # shared sign-change probability below 1, so extents break the tie
        pos = Posterior(mean=-float(ndtri(0.01)), var=1.0)
        neg = Posterior(mean=-float(ndtri(0.99)), var=1.0)
        sub = rss_stochastic(design, [pos, neg, pos], 0.95)
        assert sub.pair == (1, 2)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            rss_stochastic(np.array([[0.0], [1.0]]),
                           [Posterior(0.0, 1.0)] * 2, 1.5)
