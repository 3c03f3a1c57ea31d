"""Tests for validation helpers and the exception hierarchy."""

import pytest

from repro.common.validation import check_in_range, check_non_negative, check_positive, check_type
from repro import errors


class TestValidationHelpers:
    def test_check_positive_accepts(self):
        assert check_positive("x", 3) == 3

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    @pytest.mark.parametrize("check", [check_positive, check_non_negative])
    def test_nan_rejected(self, check):
        with pytest.raises(ValueError, match="x"):
            check("x", float("nan"))

    @pytest.mark.parametrize("check", [check_positive, check_non_negative])
    def test_infinity_accepted(self, check):
        assert check("x", float("inf")) == float("inf")

    def test_check_in_range(self):
        assert check_in_range("x", 0.5, 0.0, 1.0) == 0.5
        with pytest.raises(ValueError):
            check_in_range("x", 1.5, 0.0, 1.0)

    def test_check_type(self):
        assert check_type("x", 3, int) == 3
        with pytest.raises(TypeError, match="x must be int"):
            check_type("x", "3", int)

    def test_check_type_tuple(self):
        assert check_type("x", 3.0, (int, float)) == 3.0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "SimulationError",
            "DeadlockError",
            "SynchronizationError",
            "DataRaceError",
            "DslError",
            "DslBoundsError",
            "CodegenError",
            "ModelConfigError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_deadlock_error_records_waiting_blocks(self):
        error = errors.DeadlockError("stuck", waiting_blocks=["a", "b"])
        assert error.waiting_blocks == ["a", "b"]

    def test_data_race_is_synchronization_error(self):
        assert issubclass(errors.DataRaceError, errors.SynchronizationError)
