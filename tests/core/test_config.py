"""Tests for configuration types."""

import pytest

from repro.clampi.scores import AppScorePolicy, DefaultScorePolicy, LRUScorePolicy
from repro.core.config import CacheSpec, LCCConfig
from repro.utils.errors import ConfigError


class TestCacheSpec:
    def test_basic(self):
        spec = CacheSpec(offsets_bytes=100, adj_bytes=1000)
        assert isinstance(spec.make_policy(), DefaultScorePolicy)

    def test_score_policies(self):
        assert isinstance(CacheSpec(1, 1, score="degree").make_policy(),
                          AppScorePolicy)
        assert isinstance(CacheSpec(1, 1, score="lru").make_policy(),
                          LRUScorePolicy)

    def test_unknown_score_rejected(self):
        with pytest.raises(ConfigError):
            CacheSpec(1, 1, score="random")

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError):
            CacheSpec(-1, 10)

    def test_both_empty_rejected(self):
        with pytest.raises(ConfigError):
            CacheSpec(0, 0)

    def test_paper_split_shapes(self):
        n = 100_000
        spec = CacheSpec.paper_split(1 << 24, n)
        # C_offsets holds 0.4 n entries of 16 bytes.
        assert spec.offsets_bytes == int(0.4 * n) * 16
        assert spec.offsets_bytes + spec.adj_bytes == 1 << 24

    def test_paper_split_small_budget(self):
        spec = CacheSpec.paper_split(1024, 100_000)
        assert spec.offsets_bytes + spec.adj_bytes <= 1024 + 16
        assert spec.adj_bytes > 0

    def test_relative(self):
        spec = CacheSpec.relative(10_000, 0.1, 0.5)
        assert spec.offsets_bytes == 1000
        assert spec.adj_bytes == 5000


class TestLCCConfig:
    def test_defaults_valid(self):
        cfg = LCCConfig()
        assert cfg.nranks == 8
        assert cfg.method == "hybrid"
        assert cfg.cache is None

    def test_replace(self):
        cfg = LCCConfig(nranks=4)
        cfg2 = cfg.replace(nranks=16, method="ssi")
        assert cfg.nranks == 4
        assert cfg2.nranks == 16
        assert cfg2.method == "ssi"

    def test_validation(self):
        with pytest.raises(ConfigError):
            LCCConfig(nranks=0)
        with pytest.raises(ConfigError):
            LCCConfig(method="quantum")
        with pytest.raises(ConfigError):
            LCCConfig(partition="2d")
        with pytest.raises(ConfigError):
            LCCConfig(threads=0)

    def test_record_ops_is_an_unknown_field(self):
        with pytest.raises(TypeError):
            LCCConfig(record_ops=True)
        with pytest.raises(TypeError):
            LCCConfig().replace(record_ops=True)
