"""Cooperative engine: parity with the serial oracle, overlap, windows."""

import pytest

from repro.serve.engine import (
    AsyncServeConfig,
    AsyncServingEngine,
    ServeConfig,
    ServingEngine,
    answers_identical,
)
from repro.serve.scheduler import (
    CacheAffinityScheduler,
    FIFOScheduler,
    InterleaveScheduler,
)
from repro.serve.workload import WorkloadSpec, default_catalog, generate_workload
from repro.shardstore import ShardedGraphStore, annotate_shard_sets
from repro.utils.errors import ConfigError


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(scale=0.25)


@pytest.fixture(scope="module")
def requests(catalog):
    # Saturating mixed read/write traffic: the overlap regime.
    return generate_workload(
        WorkloadSpec(n_queries=48, arrival_rate=2500.0, n_tenants=8,
                     graphs=tuple(catalog), kernels=("lcc", "tc"),
                     seed=5, update_mix=0.3), catalog)


@pytest.fixture(scope="module")
def config():
    return AsyncServeConfig(nranks=4, threads=2, pool_capacity=3,
                            workers=4)


@pytest.fixture(scope="module")
def serial_outcome(catalog, requests):
    serial_cfg = ServeConfig(nranks=4, threads=2, pool_capacity=3)
    return ServingEngine(catalog, serial_cfg,
                         FIFOScheduler()).serve(requests)


@pytest.fixture(scope="module")
def coop_outcome(catalog, requests, config):
    return AsyncServingEngine(catalog, config,
                              FIFOScheduler()).serve(requests)


class TestParity:
    def test_bit_identical_to_serial_oracle(self, serial_outcome,
                                            coop_outcome):
        """The headline invariant: overlap changes timing, never answers."""
        assert answers_identical(serial_outcome, coop_outcome)

    def test_every_request_retires_exactly_once(self, coop_outcome,
                                                requests):
        served = sorted([r.qid for r in coop_outcome.records]
                        + [u.qid for u in coop_outcome.update_records])
        assert served == sorted(r.qid for r in requests)
        assert not coop_outcome.rejected

    def test_version_histories_scheduler_independent(self, serial_outcome,
                                                     coop_outcome):
        assert coop_outcome.graph_versions == serial_outcome.graph_versions

    def test_affinity_scheduler_parity(self, catalog, requests, config,
                                       serial_outcome):
        coop = AsyncServingEngine(catalog, config,
                                  CacheAffinityScheduler()).serve(requests)
        assert answers_identical(serial_outcome, coop)

    def test_single_worker_anchor(self, catalog, requests, serial_outcome):
        """workers=1 degenerates to serial service — parity must be free."""
        cfg = AsyncServeConfig(nranks=4, threads=2, pool_capacity=3,
                               workers=1)
        coop = AsyncServingEngine(catalog, cfg,
                                  FIFOScheduler()).serve(requests)
        assert answers_identical(serial_outcome, coop)
        assert coop.aggregates["max_concurrency"] == 1

    def test_sharded_store_parity(self, catalog, requests, config,
                                  serial_outcome):
        """Shard-annotated updates over the fenced store: still identical
        to the *plain* serial oracle — and disjoint writers overlap."""

        def sharded(c):
            return ShardedGraphStore(c, nshards=2, nranks=4)

        annotated = annotate_shard_sets(requests, sharded(catalog))
        serial_cfg = ServeConfig(nranks=4, threads=2, pool_capacity=3)
        serial = ServingEngine(catalog, serial_cfg, FIFOScheduler(),
                               store_factory=sharded).serve(annotated)
        coop = AsyncServingEngine(catalog, config, FIFOScheduler(),
                                  store_factory=sharded).serve(annotated)
        assert answers_identical(serial, coop)
        # Query answers match the unsharded oracle bit for bit too.
        plain = {r.qid: r.digest for r in serial_outcome.records}
        assert {r.qid: r.digest for r in coop.records} == plain


class TestOverlap:
    def test_service_intervals_overlap(self, coop_outcome):
        """The inverse of the serial engine's sequential-server test."""
        spans = sorted((r.start, r.finish) for r in coop_outcome.records)
        overlapped = sum(
            1 for (_, prev_end), (start, _) in zip(spans, spans[1:])
            if start < prev_end - 1e-12)
        assert overlapped > 0
        assert coop_outcome.aggregates["max_concurrency"] > 1
        assert 0.0 < coop_outcome.aggregates["overlap_fraction"] <= 1.0

    def test_worker_bound_respected(self, coop_outcome, config):
        assert coop_outcome.aggregates["max_concurrency"] <= config.workers
        assert {r.worker for r in coop_outcome.records} <= set(
            range(config.workers))

    def test_tail_latency_no_worse_than_serial(self, serial_outcome,
                                               coop_outcome):
        assert (coop_outcome.aggregates["latency_p99_s"]
                <= serial_outcome.aggregates["latency_p99_s"] * 1.1)

    def test_interleave_determinism(self, catalog, requests, config):
        """Same seed, same interleaving, same records — replayable."""
        runs = [AsyncServingEngine(catalog, config,
                                   InterleaveScheduler(seed=9)
                                   ).serve(requests) for _ in range(2)]

        def key(o):
            return [(r.qid, r.start, r.finish, r.worker, r.digest)
                    for r in o.records]

        assert key(runs[0]) == key(runs[1])


class TestCoalescingWindow:
    def test_hold_never_past_deadline(self, coop_outcome, config):
        """A leader's window is bounded by arrival + slo_update_s."""
        for u in coop_outcome.update_records:
            if u.coalesced:
                continue
            deadline = u.arrival + config.slo_update_s
            assert u.held_s <= max(0.0, deadline - u.start) + 1e-12
            assert u.held_s >= 0.0

    def test_riders_accounting(self, coop_outcome):
        heads = [u for u in coop_outcome.update_records if not u.coalesced]
        riders = [u for u in coop_outcome.update_records if u.coalesced]
        assert sum(h.riders for h in heads) == len(riders)
        for r in riders:
            assert r.service_s == 0.0 and r.held_s == 0.0
        assert coop_outcome.aggregates["updates_coalesced"] == len(riders)

    def test_zero_window_disables_holding(self, catalog, requests,
                                          serial_outcome):
        cfg = AsyncServeConfig(nranks=4, threads=2, pool_capacity=3,
                               workers=4, coalesce_window_s=0.0)
        coop = AsyncServingEngine(catalog, cfg,
                                  FIFOScheduler()).serve(requests)
        assert all(u.held_s == 0.0 for u in coop.update_records)
        assert answers_identical(serial_outcome, coop)


class TestValidation:
    def test_needs_async_config(self, catalog):
        with pytest.raises(ConfigError, match="AsyncServeConfig"):
            AsyncServingEngine(catalog, ServeConfig(nranks=4))

    def test_empty_workload_rejected(self, catalog, config):
        with pytest.raises(ConfigError):
            AsyncServingEngine(catalog, config).serve([])

    @pytest.mark.parametrize("kw", [
        {"workers": 0},
        {"max_queue": -1},
        {"overflow": "drop"},
        {"coalesce_window_s": -0.1},
        {"slo_query_s": 0.0},
        {"slo_update_s": -1.0},
        {"starvation_limit": 0},
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ConfigError):
            AsyncServeConfig(**kw)


class TestInvariantBreaks:
    def test_illegal_task_sequence_is_a_simulation_error(
            self, catalog, requests, config, monkeypatch):
        """A task that skips its protocol (a query that runs before it
        acquires) is an engine bug, not a user mistake: it must surface
        as SimulationError, never as ConfigError."""
        import repro.serve.engine as engine
        from repro.serve.tasks import Run, Task
        from repro.utils.errors import SimulationError

        def rogue_query(req):
            yield Run(req)

        def make_task(req):
            if req.is_update:
                return engine_make_task(req)
            task = Task(req, rogue_query(req))
            task.start()
            return task

        engine_make_task = engine.make_task
        monkeypatch.setattr(engine, "make_task", make_task)
        with pytest.raises(SimulationError,
                           match="query task must acquire first") as exc:
            AsyncServingEngine(catalog, config).serve(requests)
        assert not isinstance(exc.value, ConfigError)

    def test_mismatched_commit_payload_is_a_simulation_error(self, requests):
        """An update task resumed with fewer store updates than it has
        group members (leader + riders) was lied to by the runtime."""
        from repro.serve.tasks import Commit, Committed, Hold, update_task
        from repro.utils.errors import SimulationError

        leader, rider = [r for r in requests if r.is_update][:2]
        task = update_task(leader)
        assert isinstance(next(task), Hold)
        assert isinstance(task.send([rider]), Commit)
        short = Committed(updates=("only one",), fields={}, start=0.0,
                          commit_at=0.0, finish=0.0, service_s=0.0,
                          wall_s=0.0, worker=0)
        with pytest.raises(SimulationError, match="mismatched") as exc:
            task.send(short)
        assert not isinstance(exc.value, ConfigError)
