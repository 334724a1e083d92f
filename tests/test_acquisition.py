import numpy as np
import pytest
from scipy.special import ndtr

from rootcal.acquisition import (
    AcqKind,
    Family,
    Incumbent,
    Mode,
    acq_gradient,
    acq_value,
    ei,
    lcb,
    pi,
    rf_ei,
    rf_lcb,
    rf_pi,
    select_incumbent,
)
from rootcal.core import ParameterBox
from rootcal.metamodel import Posterior, model_at


def _phi(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)


class TestClosedForms:
    def test_lcb_hand_values(self):
        post = Posterior(mean=2.0, var=4.0)
        assert lcb(post, 1.0) == 0.0
        assert rf_lcb(Posterior(mean=-2.0, var=4.0), 1.0) == 0.0

    def test_pi_hand_value(self):
        post = Posterior(mean=0.0, var=1.0)
        assert pi(post, Incumbent(0, 1.0)) == pytest.approx(ndtr(1.0))

    def test_rf_pi_is_interval_probability(self):
        post = Posterior(mean=0.5, var=0.25)
        inc = Incumbent(0, -0.8)
        want = ndtr((0.8 - 0.5) / 0.5) - ndtr((-0.8 - 0.5) / 0.5)
        assert rf_pi(post, inc) == pytest.approx(want)

    def test_ei_hand_value(self):
        post = Posterior(mean=0.0, var=1.0)
        v = 0.3
        z = v
        want = v * ndtr(z) + _phi(z)
        assert ei(post, Incumbent(0, v)) == pytest.approx(want)

    def test_rf_ei_symmetric_in_mean_sign(self):
        inc = Incumbent(0, 0.4)
        a = rf_ei(Posterior(mean=0.7, var=0.09), inc)
        b = rf_ei(Posterior(mean=-0.7, var=0.09), inc)
        assert a == pytest.approx(b)

    def test_limit_forms_at_degenerate_std(self):
        post = Posterior(mean=0.5, var=0.0)
        assert pi(post, Incumbent(0, 1.0)) == 1.0
        assert pi(post, Incumbent(0, 0.2)) == 0.0
        assert rf_pi(post, Incumbent(0, 0.8)) == 1.0
        assert ei(post, Incumbent(0, 1.0)) == 0.5
        assert rf_ei(post, Incumbent(0, 0.8)) == pytest.approx(0.3)
        assert rf_ei(post, Incumbent(0, 0.2)) == 0.0

    def test_acquisitions_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            post = Posterior(mean=rng.normal(), var=rng.uniform(0.01, 2.0))
            inc = Incumbent(0, rng.normal())
            assert pi(post, inc) >= 0.0
            assert rf_pi(post, inc) >= 0.0
            assert ei(post, inc) >= 0.0
            assert rf_ei(post, inc) >= -1e-12


class TestAcqValueDispatch:
    def test_routes_by_family_and_mode(self):
        post = Posterior(mean=0.3, var=0.04)
        inc = Incumbent(0, 0.5)
        assert acq_value(AcqKind(Family.LCB, Mode.MIN), post, None) == lcb(post, 1.0)
        assert acq_value(AcqKind(Family.LCB, Mode.ROOT), post, None) == rf_lcb(post, 1.0)
        assert acq_value(AcqKind(Family.PI, Mode.ROOT), post, inc) == rf_pi(post, inc)
        assert acq_value(AcqKind(Family.EI, Mode.MIN), post, inc) == ei(post, inc)

    def test_improvement_families_need_incumbent(self):
        post = Posterior(mean=0.0, var=1.0)
        with pytest.raises(ValueError):
            acq_value(AcqKind(Family.EI, Mode.MIN), post, None)

    def test_lcb_is_minimized_others_maximized(self):
        assert not AcqKind(Family.LCB, Mode.ROOT).maximize
        assert AcqKind(Family.PI, Mode.MIN).maximize
        assert AcqKind(Family.EI, Mode.ROOT).maximize


class TestGradients:
    def test_spot_check_against_finite_differences(self):
        box = ParameterBox([0.0, 0.0], [1.0, 1.0])
        rng = np.random.default_rng(1)
        design = rng.random((6, 2))
        targets = rng.normal(size=6)
        model = model_at(box, design, targets, np.full(6, 0.02), 0.5)
        from rootcal.metamodel import posterior, posterior_grad

        inc = Incumbent(0, 0.4)
        x = np.array([0.31, 0.62])
        h = 1e-6
        for family in Family:
            for mode in Mode:
                kind = AcqKind(family, mode)
                grad = acq_gradient(kind, posterior(model, x),
                                    posterior_grad(model, x), inc)
                for axis in range(2):
                    hi, lo = x.copy(), x.copy()
                    hi[axis] += h
                    lo[axis] -= h
                    fd = (acq_value(kind, posterior(model, hi), inc)
                          - acq_value(kind, posterior(model, lo), inc)) / (2 * h)
                    assert grad[axis] == pytest.approx(fd, abs=1e-6)


class TestSelectIncumbent:
    def _model(self):
        box = ParameterBox([0.0], [1.0])
        design = np.array([[0.1], [0.5], [0.9]])
        targets = np.array([2.0, -0.5, 1.0])
        return model_at(box, design, targets, np.full(3, 0.01), 0.3)

    def test_deterministic_min_uses_smallest_value(self):
        inc = select_incumbent(self._model(), Mode.MIN, stochastic=False)
        assert inc.index == 1
        assert inc.value == -0.5

    def test_deterministic_root_keeps_sign(self):
        inc = select_incumbent(self._model(), Mode.ROOT, stochastic=False)
        assert inc.index == 1
        assert inc.value == -0.5

    def test_stochastic_min_uses_posterior_mean(self):
        from rootcal.metamodel import posterior

        model = self._model()
        inc = select_incumbent(model, Mode.MIN, stochastic=True)
        means = [posterior(model, x).mean for x in model.design]
        assert inc.index == int(np.argmin(means))
        assert inc.value == pytest.approx(means[inc.index])

    def test_stochastic_root_penalizes_uncertainty(self):
        from rootcal.metamodel import posterior

        model = self._model()
        inc = select_incumbent(model, Mode.ROOT, stochastic=True)
        scores = [posterior(model, x).mean ** 2 + posterior(model, x).var
                  for x in model.design]
        assert inc.index == int(np.argmin(scores))
