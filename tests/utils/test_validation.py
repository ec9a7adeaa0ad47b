"""Tests for validation helpers."""

import pytest

from repro.utils.errors import ConfigError
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)


class TestScalars:
    def test_positive(self):
        assert require_positive("x", 1.5) == 1.5
        with pytest.raises(ConfigError):
            require_positive("x", 0)
        with pytest.raises(ConfigError):
            require_positive("x", -1)

    def test_non_negative(self):
        assert require_non_negative("x", 0) == 0
        with pytest.raises(ConfigError):
            require_non_negative("x", -0.1)

    def test_in_range(self):
        assert require_in_range("x", 0.5, 0, 1) == 0.5
        assert require_in_range("x", 0, 0, 1) == 0
        with pytest.raises(ConfigError):
            require_in_range("x", 1.1, 0, 1)
