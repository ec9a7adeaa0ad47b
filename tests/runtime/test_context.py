"""Tests for SimContext: clock accounting and RMA cost charging."""

import numpy as np
import pytest

from repro.runtime.context import SimContext
from repro.runtime.window import Window
from repro.utils.errors import SimulationError


def make_ctx(rank=0, nranks=2, **kw):
    return SimContext(rank, nranks, **kw)


def make_win():
    return Window("w", [np.arange(50, dtype=np.int64),
                        np.arange(500, 550, dtype=np.int64)])


class TestClock:
    def test_starts_at_zero(self):
        assert make_ctx().now == 0.0

    def test_advance_accumulates(self):
        ctx = make_ctx()
        ctx.advance(1.5)
        ctx.advance(0.5)
        assert ctx.now == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            make_ctx().advance(-0.1)

    def test_set_time_backwards_rejected(self):
        ctx = make_ctx()
        ctx.advance(1.0)
        with pytest.raises(SimulationError):
            ctx.set_time(0.5)

    def test_invalid_rank_rejected(self):
        with pytest.raises(SimulationError):
            SimContext(5, 2)


    def test_recording_switch_is_gone(self):
        with pytest.raises(TypeError):
            SimContext(0, 2, record_ops=True)

class TestCompute:
    def test_compute_charges_clock_and_trace(self):
        ctx = make_ctx()
        ctx.compute(2e-6)
        assert ctx.now == pytest.approx(2e-6)
        assert ctx.trace.comp_time == pytest.approx(2e-6)

    def test_charge_kernel_matches_model(self):
        ctx = make_ctx()
        expected = ctx.compute_model.hybrid_time(10, 20)
        dt = ctx.charge_kernel("hybrid", 10, 20)
        assert dt == pytest.approx(expected)
        assert ctx.now == pytest.approx(expected)


class TestGet:
    def test_local_get_charges_memory_cost(self):
        ctx = make_ctx(rank=0)
        win = make_win()
        data = ctx.get(win, 0, 5, 3)
        np.testing.assert_array_equal(data, [5, 6, 7])
        assert ctx.now == pytest.approx(ctx.memory.local_read_time(24))
        assert ctx.trace.n_local_reads == 1
        assert ctx.trace.n_remote_gets == 0

    def test_remote_get_charges_network_cost(self):
        ctx = make_ctx(rank=0)
        win = make_win()
        win.lock_all(0)
        data = ctx.get(win, 1, 0, 4)
        np.testing.assert_array_equal(data, [500, 501, 502, 503])
        assert ctx.now == pytest.approx(ctx.network.get_time(32))
        assert ctx.trace.n_remote_gets == 1
        assert ctx.trace.bytes_remote == 32
        assert ctx.trace.comm_time == pytest.approx(ctx.now)

    def test_remote_get_slower_than_local(self):
        ctx_l, ctx_r = make_ctx(0), make_ctx(0)
        win = make_win()
        win.lock_all(0)
        ctx_l.get(win, 0, 0, 10)
        ctx_r.get(win, 1, 0, 10)
        assert ctx_r.now > ctx_l.now * 5

    def test_get_nowait_does_not_advance_clock(self):
        ctx = make_ctx(rank=0)
        win = make_win()
        win.lock_all(0)
        data, dt = ctx.get_nowait(win, 1, 0, 4)
        np.testing.assert_array_equal(data, [500, 501, 502, 503])
        assert dt == pytest.approx(ctx.network.get_time(32))
        assert ctx.now == 0.0
        # ...but the trace still records the busy time.
        assert ctx.trace.comm_time == pytest.approx(dt)


class TestPut:
    def test_put_moves_data_and_charges(self):
        ctx = make_ctx(rank=0)
        win = make_win()
        win.lock_all(0)
        ctx.put(win, 1, 0, np.array([9, 9], dtype=np.int64))
        np.testing.assert_array_equal(win.local_part(1)[:3], [9, 9, 502])
        assert ctx.now == pytest.approx(ctx.network.put_time(16))
        assert ctx.trace.n_puts == 1


class TestRequestBuilders:
    def test_send_validates_dest(self):
        ctx = make_ctx()
        with pytest.raises(SimulationError):
            ctx.send(9, "x", 10)

    def test_recv_validates_source(self):
        ctx = make_ctx()
        with pytest.raises(SimulationError):
            ctx.recv(-1)

    def test_alltoallv_requires_full_vectors(self):
        ctx = make_ctx(nranks=4)
        with pytest.raises(SimulationError):
            ctx.alltoallv(["a"], [1])

    def test_request_shapes(self):
        ctx = make_ctx(nranks=2)
        s = ctx.send(1, "hi", 64, tag=3)
        assert (s.dest, s.payload, s.nbytes, s.tag) == (1, "hi", 64, 3)
        r = ctx.recv(1, tag=3)
        assert (r.source, r.tag) == (1, 3)


class TestCacheAttachment:
    def test_attach_and_detach(self):
        ctx = make_ctx()
        win = make_win()

        class FakeCache:
            def __init__(self):
                self.calls = 0

            def access(self, target, offset, count):
                self.calls += 1
                return np.zeros(count, dtype=np.int64), 1e-9, True

            def on_epoch_close(self):
                pass

        cache = FakeCache()
        ctx.attach_cache(win, cache)
        assert ctx.cache_for(win) is cache
        ctx.get(win, 1, 0, 3)
        assert cache.calls == 1
        assert ctx.trace.n_cache_hits == 1
        ctx.detach_cache(win)
        assert ctx.cache_for(win) is None

    def test_local_get_bypasses_cache(self):
        ctx = make_ctx(rank=0)
        win = make_win()

        class Exploding:
            def access(self, *a):
                raise AssertionError("cache must not see local reads")

            def on_epoch_close(self):
                pass

        ctx.attach_cache(win, Exploding())
        ctx.get(win, 0, 0, 2)  # must not raise
