import numpy as np
import pytest

from rootcal.core import ParameterBox
from rootcal.metamodel import kernel_matrix, model_at


def rbf(a, b, lengthscale):
    """Oracle: exp(-||a-b||^2 / (2 l^2)) for one pair of points."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    assert a.shape == b.shape
    d2 = float(np.sum((a - b) ** 2))
    return float(np.exp(-d2 / (2.0 * lengthscale**2)))


class TestRbf:
    """The squared-exponential kernel, evaluated through kernel_matrix."""

    def test_unit_at_zero_distance(self):
        X = np.random.default_rng(0).random((5, 2))
        assert np.all(np.diag(kernel_matrix(X, X, 0.7)) == 1.0)

    def test_hand_value(self):
        # distance 1, lengthscale 1 -> exp(-1/2)
        assert kernel_matrix([[0.0]], [[1.0]], 1.0)[0, 0] == pytest.approx(np.exp(-0.5))

    def test_symmetry_and_positivity(self):
        X = np.random.default_rng(1).random((4, 3))
        K = kernel_matrix(X, X, 0.3)
        assert np.array_equal(K, K.T)
        assert np.all((K > 0) & (K <= 1))

    def test_invalid_lengthscale(self):
        box = ParameterBox([0.0], [1.0])
        with pytest.raises(ValueError):
            model_at(box, [[0.2], [0.8]], [1.0, 2.0], np.zeros(2), lengthscale=0.0)


class TestKernelMatrix:
    @pytest.mark.parametrize("lengthscale", [np.inf, 1e300, np.nan, 1e-200, 0.0, -0.3])
    def test_lengthscale_without_finite_positive_2l2_raises_naming_it(self, lengthscale):
        # inf used to give all ones, 1e300 a bare OverflowError from l**2 and
        # -0.3 the kernel of 0.3
        with pytest.raises(ValueError, match="lengthscale") as info:
            kernel_matrix([0.1, 0.5], [0.1, 0.9], lengthscale)
        assert str(float(lengthscale)) in str(info.value)

    def test_matches_pairwise_rbf(self):
        rng = np.random.default_rng(2)
        A = rng.random((4, 2))
        B = rng.random((3, 2))
        K = kernel_matrix(A, B, 0.5)
        for i in range(4):
            for j in range(3):
                assert K[i, j] == pytest.approx(rbf(A[i], B[j], 0.5))

    def test_gram_is_positive_definite(self):
        X = np.random.default_rng(3).random((6, 2))
        K = kernel_matrix(X, X, 0.4) + 1e-10 * np.eye(6)
        assert np.all(np.linalg.eigvalsh(K) > 0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensions"):
            kernel_matrix(np.zeros((2, 2)), np.zeros((3, 3)), 1.0)
