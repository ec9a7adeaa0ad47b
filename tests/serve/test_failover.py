"""Serving failover: kill a replica mid-burst, re-route, re-seed, rejoin.

The scenario the shard benchmark gates (satellite of the shardstore PR):
a read burst is draining across a replica set when one replica dies.
Its session keys re-route to survivors via the consistent-hash ring; it
later re-seeds from the primary and rejoins.  Because replicas are
digest-converged, the disturbed run's per-query answers must be
bit-identical to an undisturbed run's.
"""

import pytest

from repro.serve import QueryRecord, ServeConfig, ServingEngine
from repro.serve.request import QueryRequest
from repro.serve.workload import WorkloadSpec, generate_workload
from repro.shardstore import ReplicaSet


@pytest.fixture(scope="module")
def catalog():
    from repro.serve import default_catalog

    return default_catalog(scale=0.25)


@pytest.fixture(scope="module")
def burst(catalog):
    return generate_workload(WorkloadSpec(
        n_queries=30, arrival_rate=3000.0, n_tenants=8,
        graphs=tuple(catalog), kernels=("lcc",), update_mix=0.0, seed=17))


CFG = ServeConfig(nranks=4, threads=2, pool_capacity=2)


def make_set(catalog):
    return ReplicaSet(catalog, replicas=3, nshards=2, nranks=4)


class TestFailover:
    def test_kill_reroute_reseed_rejoin_keeps_answers(self, catalog, burst):
        plain = make_set(catalog).serve_reads(burst, CFG)
        victim = max(plain.replica_counts,
                     key=lambda rid: (plain.replica_counts[rid], rid))
        qids = sorted(r.qid for r in plain.records)
        rs = make_set(catalog)
        disturbed = rs.serve_reads(
            burst, CFG, kill_replica=victim,
            kill_at=qids[len(qids) // 3], rejoin_at=qids[2 * len(qids) // 3])
        assert disturbed.killed == victim
        assert disturbed.rejoined is True
        assert rs.reseeds == 1
        # The gate: answers are bit-identical to the undisturbed run.
        assert disturbed.digests() == plain.digests()
        # The victim genuinely served nothing while dead.
        dead = {r.qid for r in disturbed.records
                if qids[len(qids) // 3] <= r.qid < qids[2 * len(qids) // 3]}
        assert all(r.replica != victim for r in disturbed.records
                   if r.qid in dead)
        # Survivors inherited its keys: every query was still served.
        assert len(disturbed.records) == len(burst)
        # Back in the set and converged after the dust settles.
        assert victim in rs.live_ids()
        assert rs.verify() == []

    def test_kill_without_rejoin_still_serves_everything(self, catalog,
                                                         burst):
        plain = make_set(catalog).serve_reads(burst, CFG)
        victim = plain.records[0].replica
        rs = make_set(catalog)
        out = rs.serve_reads(burst, CFG, kill_replica=victim,
                             kill_at=sorted(r.qid for r in burst)[5])
        assert out.killed == victim and out.rejoined is False
        assert len(out.records) == len(burst)
        assert out.digests() == plain.digests()
        assert victim not in rs.live_ids()

    def test_single_query_burst(self, catalog):
        rs = make_set(catalog)
        name = next(iter(catalog))
        out = rs.serve_reads([QueryRequest(
            arrival=0.0, qid=0, tenant=0, graph=name, kernel="lcc")], CFG)
        assert len(out.records) == 1
        assert out.throughput_qps > 0

    def test_reads_are_query_records_with_serial_answers(self, catalog,
                                                         burst):
        """A routed read is built like every served query: a QueryRecord
        plus its replica, whose digest the serial engine reproduces."""
        rs = make_set(catalog)
        out = rs.serve_reads(burst, CFG)
        assert all(isinstance(r, QueryRecord) and r.replica in rs.live_ids()
                   for r in out.records)
        assert out.digests() == ServingEngine(catalog, CFG).serve(
            burst).digests()
