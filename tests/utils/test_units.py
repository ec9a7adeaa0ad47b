"""Tests for units and formatting."""

import pytest

from repro.utils.units import (
    GiB,
    KiB,
    MiB,
    MS,
    NS,
    US,
    format_bytes,
    format_seconds,
)


class TestConstants:
    def test_byte_units(self):
        assert KiB == 1024
        assert MiB == 1024 ** 2
        assert GiB == 1024 ** 3

    def test_time_units(self):
        assert US == pytest.approx(1000 * NS)
        assert MS == pytest.approx(1000 * US)


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(2048) == "2.0 KiB"

    def test_mib(self):
        assert format_bytes(905.8 * MiB) == "905.8 MiB"

    def test_gib(self):
        assert format_bytes(3.6 * GiB) == "3.60 GiB"


class TestFormatSeconds:
    def test_ns(self):
        assert format_seconds(500e-9) == "500 ns"

    def test_us(self):
        assert format_seconds(2.5e-6) == "2.50 us"

    def test_ms(self):
        assert format_seconds(0.25) == "250.0 ms"

    def test_s(self):
        assert format_seconds(90) == "90.00 s"

    def test_negative(self):
        assert format_seconds(-2.5e-6) == "-2.50 us"
