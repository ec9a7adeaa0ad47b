"""Store-keyed serving: per-graph fences, propagation, coalescing."""

import numpy as np
import pytest

from repro.graphstore import GraphStore
from repro.dynamic import UpdateBatch
from repro.serve import (
    ServeConfig,
    ServingEngine,
    UpdateRequest,
    coalescible_updates,
    default_catalog,
    eligible_requests,
    make_scheduler,
)
from repro.serve.engine import answers_identical
from repro.serve.request import QueryRequest


@pytest.fixture(scope="module")
def catalog():
    return default_catalog(scale=0.25)


def query(arrival, qid, graph="g", overrides=(), kernel="lcc"):
    return QueryRequest(arrival=arrival, qid=qid, tenant=0, graph=graph,
                        kernel=kernel, overrides=overrides)


def update(arrival, qid, graph="g", inserts=None, deletes=None):
    return UpdateRequest(arrival=arrival, qid=qid, tenant=0, graph=graph,
                         inserts=inserts, deletes=deletes)


class TestGraphFences:
    def test_update_fences_every_variant_of_its_graph(self):
        """An update barriers the *graph*, not one (graph, variant) key:
        a different variant's later query must wait too."""
        q0 = query(0.0, 0, overrides=(("method", "ssi"),))
        upd = update(1.0, 1)
        q2 = query(2.0, 2, overrides=())   # different session key, same graph
        eligible = eligible_requests([q2, upd, q0])
        assert q0 in eligible
        assert upd not in eligible
        assert q2 not in eligible

    def test_other_graphs_flow_past_the_fence(self):
        upd = update(0.0, 0, graph="a")
        other = query(1.0, 1, graph="b")
        assert set(eligible_requests([upd, other])) == {upd, other}


class TestCoalescibleUpdates:
    def test_consecutive_updates_merge(self):
        u0, u1, u2 = update(0.0, 0), update(1.0, 1), update(2.0, 2)
        q3 = query(3.0, 3)
        assert coalescible_updates([u0, u1, u2, q3], u0) == [u1, u2]

    def test_query_between_updates_stops_the_run(self):
        u0 = update(0.0, 0)
        q1 = query(1.0, 1)
        u2 = update(2.0, 2)
        assert coalescible_updates([u0, q1, u2], u0) == []

    def test_other_graphs_not_merged(self):
        u0 = update(0.0, 0, graph="a")
        u1 = update(1.0, 1, graph="b")
        assert coalescible_updates([u0, u1], u0) == []


def serve(catalog, requests, scheduler="fifo", **cfg):
    config = ServeConfig(nranks=4, threads=2,
                         pool_capacity=cfg.pop("pool_capacity", 2), **cfg)
    return ServingEngine(catalog, config,
                         make_scheduler(scheduler)).serve(requests)


class TestCrossVariantPropagation:
    def test_one_update_reaches_every_variant(self, catalog):
        """Two variants of one graph are warmed, then the graph is
        updated once: both variants' next queries must observe the new
        graph (same post-update answer as a cold engine on v1)."""
        name = next(iter(catalog))
        g = catalog[name]
        va, vb = (), (("method", "ssi"),)
        ins = np.array([[0, g.n - 1], [1, g.n - 2]])
        requests = [
            query(0.0, 0, graph=name, overrides=va),
            query(0.1, 1, graph=name, overrides=vb),
            update(0.2, 2, graph=name, inserts=ins),
            query(0.3, 3, graph=name, overrides=va),
            query(0.4, 4, graph=name, overrides=vb),
        ]
        outcome = serve(catalog, requests)
        [urec] = outcome.update_records
        assert urec.version == 1
        assert urec.sessions_synced == 2      # both variants were resident
        by_qid = {r.qid: r for r in outcome.records}
        assert by_qid[0].version == 0 and by_qid[1].version == 0
        assert by_qid[3].version == 1 and by_qid[4].version == 1
        # Identical post-update answers across variants: same kernel on
        # the same graph version must digest the same.
        assert by_qid[3].digest == by_qid[4].digest
        store = GraphStore({name: g})
        store.apply(name, UpdateBatch.build(ins, None, n=g.n,
                                            directed=g.directed))
        assert outcome.graph_versions[name] == (1, store.digest(name))

    def test_tc2d_sessions_propagate_too(self, catalog):
        name = next(iter(catalog))
        g = catalog[name]
        ins = np.array([[2, g.n - 3]])
        requests = [
            query(0.0, 0, graph=name, kernel="tc2d"),
            update(0.1, 1, graph=name, inserts=ins),
            query(0.2, 2, graph=name, kernel="tc2d"),
        ]
        outcome = serve(catalog, requests)
        from repro.core.tc2d import run_distributed_tc_2d
        from repro.dynamic import apply_delta
        from repro.core.config import LCCConfig

        post = apply_delta(g, UpdateBatch.build(ins, None, n=g.n,
                                                directed=g.directed),
                           strict=False).graph
        # The served post-update digest must reflect the updated graph.
        assert outcome.records[1].version == 1
        ref = run_distributed_tc_2d(post, LCCConfig(nranks=4, threads=2))
        # digest covers global_triangles; recompute it for the reference
        from repro.serve.records import result_digest
        assert outcome.records[1].digest == result_digest(ref, 1)


class TestCoalescing:
    def make_requests(self, catalog, gap):
        name = next(iter(catalog))
        g = catalog[name]
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, g.n, size=(3, 2)) for _ in range(3)]
        reqs = [query(0.0, 0, graph=name)]
        for i, ins in enumerate(batches):
            reqs.append(update(0.1 + i * gap, 1 + i, graph=name, inserts=ins))
        reqs.append(query(5.0, 4, graph=name))
        return name, g, batches, reqs

    def test_adjacent_updates_coalesce_into_one_flush(self, catalog):
        # Simultaneous arrivals (qid breaks ties): all three updates are
        # queued when the server reaches them, so they coalesce.
        name, g, batches, reqs = self.make_requests(catalog, gap=0.0)
        outcome = serve(catalog, reqs)
        assert outcome.aggregates["updates_coalesced"] == 2
        heads = [u for u in outcome.update_records if not u.coalesced]
        riders = [u for u in outcome.update_records if u.coalesced]
        assert len(heads) == 1 and len(riders) == 2
        # Riders retire with the head, at zero marginal service.
        assert all(r.finish == heads[0].finish for r in riders)
        assert all(r.service_s == 0.0 for r in riders)
        # Every member still advanced its own version.
        assert sorted(u.version for u in outcome.update_records) == [1, 2, 3]

    def test_coalesced_equals_sequential(self, catalog):
        """The parity contract, end to end: group flush vs one-by-one."""
        name, g, batches, reqs = self.make_requests(catalog, gap=0.0)
        coalesced = serve(catalog, reqs)
        # Spread arrivals so each update is served alone (same batches).
        name2, _, _, spread = self.make_requests(catalog, gap=2.0)
        sequential = serve(catalog, spread)
        assert coalesced.aggregates["updates_coalesced"] == 2
        assert sequential.aggregates["updates_coalesced"] == 0
        # Same version chain, same history digests, same final answers.
        assert ({u.qid: u.digest for u in coalesced.update_records}
                == {u.qid: u.digest for u in sequential.update_records})
        assert coalesced.graph_versions == sequential.graph_versions
        assert (coalesced.records[-1].digest
                == sequential.records[-1].digest)

    def test_diverged_flush_is_a_simulation_error(self, catalog,
                                                  monkeypatch):
        """Coalesced != sequential is an engine bug, not a user mistake."""
        import itertools

        import repro.serve.engine as engine
        from repro.utils.errors import ConfigError, SimulationError

        ticket = itertools.count()
        monkeypatch.setattr(engine, "graph_digest",
                            lambda graph: next(ticket))  # no two agree
        _, _, _, reqs = self.make_requests(catalog, gap=0.0)
        with pytest.raises(SimulationError, match="diverged") as exc:
            serve(catalog, reqs)
        assert not isinstance(exc.value, ConfigError)

    def test_store_chain_matches_direct_application(self, catalog):
        name, g, batches, reqs = self.make_requests(catalog, gap=0.0)
        outcome = serve(catalog, reqs)
        store = GraphStore({name: g})
        for ins in batches:
            store.apply(name, UpdateBatch.build(ins, None, n=g.n,
                                                directed=g.directed))
        assert outcome.graph_versions[name] == (3, store.digest(name))


class TestSchedulerIndependenceWithVersions:
    def test_mixed_trace_identical_across_schedulers(self, catalog):
        from repro.serve import WorkloadSpec, generate_workload

        spec = WorkloadSpec(n_queries=40, arrival_rate=2000.0, n_tenants=6,
                            graphs=tuple(catalog), seed=5, update_mix=0.3,
                            update_edges=6, kernels=("lcc", "tc2d"))
        reqs = generate_workload(spec, catalog)
        outs = [serve(catalog, reqs, scheduler=s) for s in ("fifo",
                                                            "affinity")]
        assert answers_identical(outs[0], outs[1])
        assert outs[0].graph_versions == outs[1].graph_versions

    def test_delete_heavy_trace_identical(self, catalog):
        from repro.serve import WorkloadSpec, generate_workload

        spec = WorkloadSpec(n_queries=30, arrival_rate=2000.0, n_tenants=4,
                            graphs=tuple(catalog), seed=9, update_mix=0.4,
                            update_edges=8).delete_heavy()
        assert spec.update_delete_fraction == 0.8
        reqs = generate_workload(spec, catalog)
        outs = [serve(catalog, reqs, scheduler=s) for s in ("fifo",
                                                            "affinity")]
        assert answers_identical(outs[0], outs[1])

    def test_delete_heavy_validates_fraction(self, catalog):
        from repro.serve import WorkloadSpec
        from repro.utils.errors import ConfigError

        with pytest.raises(ConfigError, match=">= 75%"):
            WorkloadSpec(graphs=tuple(catalog)).delete_heavy(0.5)
