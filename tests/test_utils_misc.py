"""Tests for tables, heatmaps and validation utilities."""

import numpy as np
import pytest

from repro.utils.heatmap import ascii_heatmap, downsample_matrix, log_scale
from repro.utils.tables import format_kv, format_number, format_table
from repro.utils.validation import (
    check_array_shape,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_square_matrix,
)


class TestFormatNumber:
    def test_int(self):
        assert format_number(42) == "42"

    def test_float_precision(self):
        assert format_number(3.14159, precision=2) == "3.14"

    def test_strips_trailing_zeros(self):
        assert format_number(2.5) == "2.5"

    def test_large_scientific(self):
        assert "e" in format_number(1.5e9)

    def test_nan(self):
        assert format_number(float("nan")) == "nan"

    def test_zero(self):
        assert format_number(0.0) == "0"

    def test_bool_passthrough(self):
        assert format_number(True) == "True"


class TestFormatTable:
    def test_contains_all_cells(self):
        out = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        for token in ("name", "value", "a", "bb", "1", "22"):
            assert token in out

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.startswith("My Table")

    def test_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_alignment_is_stable(self):
        out = format_table(["name", "col"], [["a", 1], ["b", 100]])
        lines = out.splitlines()
        assert len({len(l) for l in lines[-2:]}) == 1  # right-aligned numbers


class TestFormatKV:
    def test_renders_pairs(self):
        out = format_kv({"alpha": 1.7, "beta": 2})
        assert "alpha" in out and "1.7" in out and "beta" in out

    def test_empty(self):
        assert format_kv({}, title="t") == "t"


class TestDownsample:
    def test_small_passthrough(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(downsample_matrix(m, max_size=4), m)

    def test_reduces_size(self):
        m = np.ones((100, 100))
        out = downsample_matrix(m, max_size=10)
        assert out.shape == (10, 10)
        assert np.allclose(out, 1.0)

    def test_preserves_mean_structure(self):
        m = np.zeros((64, 64))
        m[:32, :32] = 8.0
        out = downsample_matrix(m, max_size=8)
        assert out[0, 0] == pytest.approx(8.0)
        assert out[-1, -1] == pytest.approx(0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            downsample_matrix(np.ones((3, 4)))


class TestLogScale:
    def test_zeros_mapped_to_floor(self):
        m = np.array([[0.0, 10.0], [100.0, 1000.0]])
        out = log_scale(m)
        assert out[0, 0] == pytest.approx(1.0)  # floor = min positive = 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_scale(np.array([[-1.0]]))

    def test_all_zero(self):
        assert np.array_equal(log_scale(np.zeros((2, 2))), np.zeros((2, 2)))


class TestAsciiHeatmap:
    def test_shape_of_output(self):
        out = ascii_heatmap(np.random.default_rng(0).random((20, 20)) + 0.1, max_size=10, legend=False)
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(len(l) == 10 for l in lines)

    def test_title_and_legend(self):
        out = ascii_heatmap(np.ones((4, 4)), title="T")
        assert out.startswith("T")
        assert "ramp" in out

    def test_constant_matrix_does_not_crash(self):
        ascii_heatmap(np.full((5, 5), 3.0))


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1) == 1
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 0, 0, 10, inclusive=False)

    def test_check_array_shape(self):
        arr = np.zeros((3, 4))
        check_array_shape("a", arr, (3, 4))
        check_array_shape("a", arr, (3, -1))
        with pytest.raises(ValueError):
            check_array_shape("a", arr, (4, 3))
        with pytest.raises(ValueError):
            check_array_shape("a", arr, (3,))

    def test_check_square_matrix(self):
        check_square_matrix("m", np.eye(3))
        check_square_matrix("m", np.eye(3), 3)
        with pytest.raises(ValueError):
            check_square_matrix("m", np.ones((2, 3)))
        with pytest.raises(ValueError):
            check_square_matrix("m", np.eye(3), 4)
