import re
from pathlib import Path

import numpy as np
import pytest

import rootcal
from rootcal.core import (
    ObservationSummary,
    ParameterBox,
    RngStream,
    aggregate_signed,
    aggregate_squared,
    summarize,
)


class TestParameterBox:
    def test_basic_properties(self):
        box = ParameterBox([0.0, -1.0], [2.0, 3.0])
        assert box.dim == 2
        assert np.allclose(box.width, [2.0, 4.0])
        assert box.contains([1.0, 0.0])
        assert not box.contains([3.0, 0.0])

    def test_contains_rejects_a_point_of_another_length(self):
        one, two = ParameterBox([0.0], [1.0]), ParameterBox([0.0, 0.0], [1.0, 1.0])
        assert one.contains(0.5) and one.contains([0.5]) and not one.contains(1.5)
        for box, point in ((one, [0.5, 0.5]), (one, []), (two, [0.5]), (two, 0.5),
                           (two, [[0.5, 0.5]]), (two, [0.5, 0.5, 0.5])):
            with pytest.raises(ValueError, match="axes") as err:
                box.contains(point)
            assert str(np.asarray(point, dtype=float).tolist()) in str(err.value)
            assert f"{box.dim} axes" in str(err.value)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ParameterBox([1.0], [1.0])
        with pytest.raises(ValueError):
            ParameterBox([0.0, 2.0], [1.0, 1.0])

    def test_unit_mapping_roundtrip(self):
        box = ParameterBox([-3.0, 2.0], [3.0, 10.0])
        theta = np.array([1.5, 4.0])
        u = box.to_unit(theta)
        assert np.all(u >= 0) and np.all(u <= 1)
        assert np.allclose(box.from_unit(u), theta)


    def test_bounds_are_copies(self):
        lower, upper = np.array([0.0, -1.0]), np.array([2.0, 3.0])
        box = ParameterBox(lower, upper)
        lower[0], upper[1] = 5.0, -7.0
        assert box.lower.tolist() == [0.0, -1.0]
        assert box.upper.tolist() == [2.0, 3.0]
        assert box.width.tolist() == [2.0, 4.0]

    def test_bounds_and_width_are_read_only(self):
        box = ParameterBox([0.0, -1.0], [2.0, 3.0])
        for array in (box.lower, box.upper, box.width):
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert box.to_unit([1.0, 1.0]).tolist() == [0.5, 0.5]

    def test_repr_and_equality_unchanged(self):
        box = ParameterBox([0.5], [2.0])
        assert repr(box) == "ParameterBox(lower=array([0.5]), upper=array([2.]))"
        assert box == ParameterBox(np.array([0.5]), [2.0])
        assert box != ParameterBox([0.0], [2.0])


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(7).child(1, 2).generator().random(5)
        b = RngStream(7).child(1, 2).generator().random(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = RngStream(7).child(1).generator().random(5)
        b = RngStream(7).child(2).generator().random(5)
        assert not np.array_equal(a, b)

    def test_child_extends_key(self):
        s = RngStream(3).child(4).child(5, 6)
        assert s.key == (4, 5, 6)

    @pytest.mark.xfail(strict=True, reason="SeedSequence zero-pads (seed, *key), "
                       "so keys differing only by trailing zeros alias")
    def test_trailing_zero_keys_differ(self):
        pairs = [(RngStream(0), RngStream(0).child(0)),
                 (RngStream(0).child(0), RngStream(0).child(0).child(0)),
                 (RngStream(0).child(1), RngStream(0).child(1, 0))]
        for a, b in pairs:
            assert not np.array_equal(a.generator().random(5), b.generator().random(5))


class TestAggregation:
    def test_signed_is_component_mean(self):
        assert aggregate_signed([1.0, -1.0]) == 0.0
        assert aggregate_signed([2.0, 4.0]) == 3.0

    def test_squared_is_mean_square(self):
        assert aggregate_squared([1.0, -1.0]) == 1.0
        assert aggregate_squared([3.0]) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_signed([])


class TestSummarize:
    def test_hand_example(self):
        # signed aggregates 0 and 2, squared aggregates 1 and 4
        s = summarize([0.5], [[1.0, -1.0], [2.0, 2.0]])
        assert s.signed_mean == 1.0
        assert s.squared_mean == 2.5
        # n(n-1) normalizer: sum of squared deviations 2, over 2*1
        assert s.signed_noise_var == pytest.approx(1.0)

    def test_single_replication_noise_zero(self):
        s = summarize([0.0], [[1.0, 2.0]])
        assert s.signed_noise_var == 0.0
        assert s.squared_noise_var == 0.0

    def test_noise_var_matches_variance_of_mean(self):
        rng = np.random.default_rng(0)
        samples = [rng.normal(size=3) for _ in range(50)]
        s = summarize([0.0], samples)
        signed = np.array([np.mean(x) for x in samples])
        assert s.signed_noise_var == pytest.approx(signed.var(ddof=1) / 50)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            summarize([0.0], [[1.0, 2.0], [1.0]])


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(encoding="utf-8"),
                      re.MULTILINE)
    assert match is not None
    assert rootcal.__version__ == match.group(1)
