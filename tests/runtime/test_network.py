"""Tests for the network and memory cost models."""


import numpy as np
import pytest

from repro.runtime.network import MemoryModel, NetworkModel
from repro.utils.errors import ConfigError
from repro.utils.units import GiB, KiB, MiB


class TestNetworkModel:
    def test_get_time_affine_in_size(self):
        net = NetworkModel.aries()
        t0 = net.get_time(0)
        t1 = net.get_time(1000)
        t2 = net.get_time(2000)
        assert t0 == pytest.approx(net.alpha)
        assert t2 - t1 == pytest.approx(t1 - t0)

    def test_get_time_monotone(self):
        net = NetworkModel.aries()
        times = [net.get_time(s) for s in (0, 64, 4096, MiB, 32 * MiB)]
        assert times == sorted(times)

    def test_rendezvous_penalty_above_threshold(self):
        net = NetworkModel.aries()
        below = net.get_time(net.rendezvous_threshold)
        above = net.get_time(net.rendezvous_threshold + 1)
        assert above - below > net.rendezvous_penalty * 0.99

    def test_put_matches_get(self):
        net = NetworkModel.aries()
        assert net.put_time(12345) == net.get_time(12345)

    def test_message_time_adds_matching_overhead(self):
        net = NetworkModel.aries()
        assert net.message_time(100) == pytest.approx(
            net.get_time(100) + net.match_overhead
        )

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel.aries().get_time(-1)

    def test_barrier_zero_for_single_rank(self):
        assert NetworkModel.aries().barrier_time(1) == 0.0

    def test_barrier_log_scaling(self):
        net = NetworkModel.aries()
        assert net.barrier_time(8) == pytest.approx(3 * net.barrier_alpha)
        assert net.barrier_time(64) == pytest.approx(6 * net.barrier_alpha)
        assert net.barrier_time(5) == pytest.approx(3 * net.barrier_alpha)

    def test_alltoallv_zero_for_single_rank(self):
        assert NetworkModel.aries().alltoallv_rank_time(100, 100, 1) == 0.0

    def test_alltoallv_scales_with_bytes(self):
        net = NetworkModel.aries()
        small = net.alltoallv_rank_time(KiB, KiB, 8)
        big = net.alltoallv_rank_time(MiB, MiB, 8)
        assert big > small

    def test_alltoallv_latency_grows_with_ranks(self):
        net = NetworkModel.aries()
        assert (net.alltoallv_rank_time(0, 0, 64)
                > net.alltoallv_rank_time(0, 0, 4))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            NetworkModel(alpha=0)
        with pytest.raises(ConfigError):
            NetworkModel(beta=-1)

    def test_presets_distinct(self):
        aries = NetworkModel.aries()
        eth = NetworkModel.ethernet()
        assert eth.alpha > aries.alpha
        assert eth.beta > aries.beta

    def test_zero_latency_preset_is_cheap(self):
        z = NetworkModel.zero_latency()
        assert z.get_time(0) < 1e-9


class TestMemoryModel:
    def test_local_read_affine(self):
        mem = MemoryModel()
        assert mem.local_read_time(0) == pytest.approx(mem.dram_latency)
        assert mem.local_read_time(GiB) > mem.local_read_time(MiB)

    def test_cache_service_cheaper_than_dram(self):
        mem = MemoryModel()
        assert mem.cache_service_time(256) < mem.local_read_time(256)

    def test_cache_hit_far_cheaper_than_network(self):
        # The whole point of CLaMPI: a hit is orders of magnitude cheaper.
        mem, net = MemoryModel(), NetworkModel.aries()
        assert mem.cache_service_time(1024) * 20 < net.get_time(1024)

    def test_negative_sizes_rejected(self):
        mem = MemoryModel()
        with pytest.raises(ValueError):
            mem.local_read_time(-5)
        with pytest.raises(ValueError):
            mem.cache_service_time(-5)


class TestArrayPricingMatchesScalar:
    """``get_times``/``local_read_times`` are the scalar formulas applied
    element-wise — same operations, same order, so the same bits (the
    vectorized kernels' clocks are pinned bit-identical to the loops)."""

    SIZES = [0, 1, 8, 64, 4 * KiB, 16 * MiB - 1, 16 * MiB, 16 * MiB + 1,
             3 * GiB]

    @pytest.mark.parametrize("net", [
        NetworkModel.aries(), NetworkModel.infiniband(),
        NetworkModel.ethernet(), NetworkModel.zero_latency()])
    def test_get_times_bitwise(self, net):
        rng = np.random.default_rng(11)
        sizes = np.concatenate([
            np.array(self.SIZES, dtype=np.int64),
            rng.integers(0, 64 * MiB, 500)])
        vec = net.get_times(sizes)
        assert vec.dtype == np.float64
        assert vec.tolist() == [net.get_time(int(s)) for s in sizes]

    def test_get_times_accepts_float_byte_counts(self):
        # The replay paths pass counts * itemsize as float64 arrays too.
        net = NetworkModel.aries()
        sizes = np.array(self.SIZES, dtype=np.float64)
        assert net.get_times(sizes).tolist() == [
            net.get_time(int(s)) for s in sizes]

    def test_local_read_times_bitwise(self):
        mem = MemoryModel()
        rng = np.random.default_rng(12)
        sizes = np.concatenate([
            np.array(self.SIZES, dtype=np.int64),
            rng.integers(0, 64 * MiB, 500)])
        vec = mem.local_read_times(sizes)
        assert vec.tolist() == [mem.local_read_time(int(s)) for s in sizes]
