"""Tests for the discrete-event engine: scheduling, matching, deadlocks."""

import pytest

from repro.runtime.engine import Engine
from repro.utils.errors import CommError


class TestPlainFunctions:
    def test_run_plain_function(self):
        eng = Engine(4)

        def fn(ctx):
            ctx.compute(1e-6 * (ctx.rank + 1))
            return ctx.rank * 10

        out = eng.run(fn)
        assert out.results == [0, 10, 20, 30]
        assert out.time == pytest.approx(4e-6)
        assert out.clocks == pytest.approx([1e-6, 2e-6, 3e-6, 4e-6])
        assert out.slowest_rank == 3

    def test_single_rank(self):
        eng = Engine(1)
        out = eng.run(lambda ctx: ctx.rank)
        assert out.results == [0]

    def test_invalid_rank_count(self):
        with pytest.raises(CommError):
            Engine(0)


    def test_recording_switch_is_gone(self):
        with pytest.raises(TypeError):
            Engine(2, record_ops=True)

class TestSendRecv:
    def test_message_delivery(self):
        eng = Engine(2)

        def fn(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, {"k": 42}, 128)
                return "sent"
            msg = yield ctx.recv(0)
            return msg["k"]

        out = eng.run(fn)
        assert out.results == ["sent", 42]

    def test_receiver_waits_for_arrival(self):
        eng = Engine(2)

        def fn(ctx):
            if ctx.rank == 0:
                ctx.compute(1e-3)  # sender is late
                yield ctx.send(1, "x", 64)
                return None
            msg = yield ctx.recv(0)
            return ctx.now

        out = eng.run(fn)
        # Receiver resumed only after send completion + wire time.
        assert out.results[1] > 1e-3
        assert out.traces[1].sync_time > 0

    def test_fifo_per_channel(self):
        eng = Engine(2)

        def fn(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield ctx.send(1, i, 8)
                return None
            got = []
            for _ in range(5):
                got.append((yield ctx.recv(0)))
            return got

        out = eng.run(fn)
        assert out.results[1] == [0, 1, 2, 3, 4]

    def test_tags_separate_channels(self):
        eng = Engine(2)

        def fn(ctx):
            if ctx.rank == 0:
                yield ctx.send(1, "a", 8, tag=1)
                yield ctx.send(1, "b", 8, tag=2)
                return None
            second = yield ctx.recv(0, tag=2)
            first = yield ctx.recv(0, tag=1)
            return (first, second)

        out = eng.run(fn)
        assert out.results[1] == ("a", "b")

    def test_deadlock_detected(self):
        eng = Engine(2)

        def fn(ctx):
            msg = yield ctx.recv(1 - ctx.rank)  # both wait, nobody sends
            return msg

        with pytest.raises(CommError, match="deadlock"):
            eng.run(fn)


class TestBarrier:
    def test_barrier_aligns_clocks(self):
        eng = Engine(3)

        def fn(ctx):
            ctx.compute(1e-6 * (ctx.rank + 1))
            yield ctx.barrier()
            return ctx.now

        out = eng.run(fn)
        assert out.results[0] == out.results[1] == out.results[2]
        assert out.results[0] >= 3e-6  # slowest rank gates everyone

    def test_multiple_barriers(self):
        eng = Engine(2)

        def fn(ctx):
            times = []
            for _ in range(3):
                yield ctx.barrier()
                times.append(ctx.now)
            return times

        out = eng.run(fn)
        assert out.results[0] == out.results[1]
        assert out.results[0] == sorted(out.results[0])


class TestAlltoallv:
    def test_exchange_delivers_by_source(self):
        eng = Engine(3)

        def fn(ctx):
            payloads = [f"{ctx.rank}->{d}" for d in range(3)]
            got = yield ctx.alltoallv(payloads, [16] * 3)
            return got

        out = eng.run(fn)
        assert out.results[1] == ["0->1", "1->1", "2->1"]

    def test_completion_gated_by_slowest(self):
        eng = Engine(2)

        def fn(ctx):
            if ctx.rank == 0:
                ctx.compute(5e-3)
            yield ctx.alltoallv([None, None], [0, 0])
            return ctx.now

        out = eng.run(fn)
        assert out.results[0] == out.results[1]
        assert out.results[1] >= 5e-3
        assert out.traces[1].sync_time >= 5e-3 * 0.99

    def test_mismatched_collectives_rejected(self):
        eng = Engine(2)

        def fn(ctx):
            if ctx.rank == 0:
                yield ctx.barrier()
            else:
                yield ctx.alltoallv([None, None], [0, 0])

        with pytest.raises(CommError, match="mismatch"):
            eng.run(fn)


class TestAllreduce:
    def test_sum(self):
        eng = Engine(4)

        def fn(ctx):
            total = yield ctx.allreduce(float(ctx.rank + 1))
            return total

        out = eng.run(fn)
        assert out.results == [10.0] * 4


class TestOutcome:
    def test_summary_keys(self):
        eng = Engine(2)
        out = eng.run(lambda ctx: ctx.compute(1e-6))
        s = out.summary()
        for key in ("time", "comm_time", "comp_time", "hit_rate",
                    "load_imbalance"):
            assert key in s

    def test_load_imbalance(self):
        eng = Engine(2)

        def fn(ctx):
            ctx.compute(1e-6 if ctx.rank == 0 else 3e-6)

        out = eng.run(fn)
        assert out.load_imbalance == pytest.approx(0.5)
