import numpy as np
import pytest

from rootcal.core import RngStream
from rootcal.diagnostics import (
    ALL_ACQ_KINDS,
    aggregate_variance,
    chain_check,
    spatial_variability,
    validate_gradients,
)


class TestSpatialVariability:
    def test_hand_value(self):
        # one sample (1, -1): mean 0, mean squared deviation 1
        assert spatial_variability([[1.0, -1.0]]) == pytest.approx(1.0)

    def test_constant_components_give_zero(self):
        assert spatial_variability([[2.0, 2.0, 2.0], [5.0, 5.0, 5.0]]) == 0.0
        with pytest.raises(ValueError):
            spatial_variability([[2.0, 2.0, 2.0], [5.0, 5.0]])

    def test_averages_across_samples(self):
        # variances 1 and 0 average to 0.5
        assert spatial_variability([[1.0, -1.0], [3.0, 3.0]]) == pytest.approx(0.5)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            spatial_variability([])


class TestAggregateVariance:
    def test_hand_value(self):
        # aggregates 0 and 2, unbiased variance 2
        assert aggregate_variance([[1.0, -1.0], [2.0, 2.0]]) == pytest.approx(2.0)

    def test_identical_aggregates_give_zero(self):
        # different spatial layouts, same signed aggregate
        assert aggregate_variance([[1.0, -1.0], [0.5, -0.5]]) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            aggregate_variance([[1.0, 2.0]])


class TestChainCheck:
    def test_single_antisymmetric_sample(self):
        report = chain_check([[1.0, -1.0], [1.0, -1.0]])
        assert report.chain == pytest.approx((1.0, 0.0, 0.0))
        assert report.spatial_variability == pytest.approx(1.0)
        assert report.aggregate_variance == 0.0
        assert report.ordered

    def test_constant_samples_collapse_the_chain(self):
        report = chain_check([[2.0, 2.0], [2.0, 2.0]])
        assert report.chain == pytest.approx((4.0, 4.0, 4.0))
        assert report.spatial_variability == 0.0
        assert report.aggregate_variance == 0.0

    def test_chain_ordered_on_random_samples(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            m = int(gen.integers(1, 6))
            n = int(gen.integers(2, 10))
            samples = gen.normal(gen.normal(), gen.uniform(0.1, 2.0), (n, m))
            assert chain_check(list(samples)).ordered

    def test_gap_decomposition(self):
        # chain gaps equal the two variability estimators up to bias factors:
        # first gap is the spatial variability, second gap is the biased
        # (ddof=0) variance of the signed aggregates
        samples = [[1.0, 3.0], [2.0, -1.0], [0.5, 0.5]]
        report = chain_check(samples)
        a, b, c = report.chain
        assert a - b == pytest.approx(report.spatial_variability)
        signed = np.array([np.mean(s) for s in samples])
        assert b - c == pytest.approx(signed.var(ddof=0))


class TestValidateGradients:
    def test_all_acquisitions_covered(self):
        report = validate_gradients(3, RngStream(0))
        assert len(report) == len(ALL_ACQ_KINDS) == 6
        assert set(report) == {
            "min-lcb", "root-lcb", "min-pi", "root-pi", "min-ei", "root-ei",
        }

    def test_deviations_small_and_deterministic(self):
        a = validate_gradients(10, RngStream(1))
        b = validate_gradients(10, RngStream(1))
        assert a == b
        for dev in a.values():
            assert dev <= 1e-4

    def test_corrupt_negative_control_trips(self, monkeypatch):
        from rootcal import diagnostics

        exact = diagnostics.acq_gradient
        monkeypatch.setattr(diagnostics, "acq_gradient",
                            lambda *args: exact(*args) + 1.0)
        report = validate_gradients(3, RngStream(2))
        assert all(dev > 1e-4 for dev in report.values())

    def test_coarse_step_degrades_accuracy(self):
        fine = validate_gradients(5, RngStream(3), fd_step=1e-5)
        coarse = validate_gradients(5, RngStream(3), fd_step=1e-2)
        assert max(coarse.values()) > max(fine.values())

    def test_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            validate_gradients(0, RngStream(0))
