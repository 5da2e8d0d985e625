"""Unit tests for virtual-time helpers."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.timebase import (
    END_OF_TIME,
    START_OF_TIME,
    validate_duration,
    validate_instant,
)


class TestValidateInstant:
    def test_accepts_zero(self):
        assert validate_instant(0.0) == 0.0

    def test_accepts_positive(self):
        assert validate_instant(12.5) == 12.5

    def test_accepts_infinity_as_never(self):
        assert validate_instant(END_OF_TIME) == math.inf

    def test_coerces_int_to_float(self):
        value = validate_instant(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            validate_instant(-0.001)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            validate_instant(float("nan"))

    def test_error_message_uses_name(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            validate_instant(-1, name="deadline")


class TestValidateDuration:
    def test_accepts_zero_by_default(self):
        assert validate_duration(0.0) == 0.0

    def test_rejects_zero_when_disallowed(self):
        with pytest.raises(ConfigurationError):
            validate_duration(0.0, allow_zero=False)

    def test_accepts_positive_when_zero_disallowed(self):
        assert validate_duration(0.5, allow_zero=False) == 0.5

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            validate_duration(-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            validate_duration(float("nan"))


def test_start_of_time_is_zero():
    assert START_OF_TIME == 0.0


def test_end_of_time_sorts_after_everything():
    assert END_OF_TIME > 1e18
