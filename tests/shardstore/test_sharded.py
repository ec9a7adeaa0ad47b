"""The sharded store: commit barrier, version vectors, bit-identity."""

import numpy as np
import pytest

from repro.dynamic.delta import UpdateBatch, random_update_batch
from repro.graph.generators import powerlaw_configuration
from repro.graphstore import GraphStore
from repro.graphstore.store import graph_digest
from repro.serve.request import QueryRequest, UpdateRequest
from repro.shardstore import ShardedGraphStore, annotate_shard_sets
from repro.utils.errors import ConfigError, SimulationError
from repro.utils.rng import derive_seed


@pytest.fixture()
def graph():
    return powerlaw_configuration(100, 600, seed=5, name="g")


def batches(graph, rounds=4, n_edges=24):
    """A deterministic batch sequence over an evolving head."""
    out, head = [], graph
    plain = GraphStore({"g": graph})
    for r in range(rounds):
        batch = random_update_batch(head, n_edges=n_edges,
                                    seed=derive_seed(7, "sharded-test", r))
        out.append(batch)
        head = plain.apply("g", batch).graph
    return out


class TestCommit:
    def test_heads_match_unsharded_at_every_version(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        plain = GraphStore({"g": graph})
        for batch in batches(graph):
            upd = sharded.apply("g", batch)
            ref = plain.apply("g", batch)
            assert upd.version == ref.version
            assert graph_digest(upd.graph) == graph_digest(ref.graph)
        # Historical reconstruction from the shard chains, every version.
        for v in range(sharded.version("g").version + 1):
            assert graph_digest(sharded.graph("g", v)) == \
                graph_digest(plain.graph("g", v))

    def test_version_vector_counts_touched_commits(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        seen = []
        for batch in batches(graph):
            seen.append(sharded.apply("g", batch).shards)
        vec = sharded.version_vector("g")
        for s in range(4):
            assert vec[s] == sum(1 for touched in seen if s in touched)
        assert sharded.check_version_vector("g") == []

    def test_commit_digest_covers_only_touched_shards(self, graph):
        """Two stores taking the same two disjoint-shard commits in
        opposite orders agree on each commit's digest — the property
        that makes shard-fenced serving scheduler-independent."""
        plan_probe = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        lo0, hi0 = plan_probe.plan("g").range_of(0)
        lo3, hi3 = plan_probe.plan("g").range_of(3)
        b_a = UpdateBatch.build([[lo0, lo0 + 1]], None, n=graph.n)
        b_b = UpdateBatch.build([[lo3, lo3 + 1]], None, n=graph.n)
        s1 = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        s2 = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        d1 = {frozenset(u.shards): u.digest
              for u in (s1.apply("g", b_a), s1.apply("g", b_b))}
        d2 = {frozenset(u.shards): u.digest
              for u in (s2.apply("g", b_b), s2.apply("g", b_a))}
        assert d1 == d2
        assert s1.digest("g") == s2.digest("g")

    def test_empty_batch_advances_logical_version_only(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        upd = sharded.apply("g", UpdateBatch.build(None, None, n=graph.n))
        assert upd.version.version == 1
        assert upd.shards == frozenset()
        assert sharded.version_vector("g") == (0, 0, 0, 0)
        assert sharded.check_version_vector("g") == []

    def test_store_digest_deterministic_across_stores(self, graph):
        runs = []
        for _ in range(2):
            s = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
            for batch in batches(graph):
                s.apply("g", batch)
            runs.append((s.digest("g"),
                         tuple(s.shard_digest("g", i) for i in range(4))))
        assert runs[0] == runs[1]


class TestBarrier:
    def test_readers_fenced_mid_commit(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        observed = []

        def probe(name, shard):
            for fn in (lambda: sharded.graph("g"),
                       lambda: sharded.version("g"),
                       lambda: sharded.digest("g"),
                       lambda: sharded.version_vector("g")):
                with pytest.raises(ConfigError, match="mid-commit"):
                    fn()
            observed.append(shard)

        batch = random_update_batch(graph, n_edges=40, seed=2)
        sharded.apply("g", batch, _on_subcommit=probe)
        assert observed  # the hook actually fired mid-barrier
        # The fence lifts after the commit lands.
        assert sharded.version("g").version == 1

    def test_stable_reads_pass_the_fence(self, graph):
        """The cooperative engine's non-blocking probes: ``fenced()``
        answers without raising, and ``stable=True`` reads observe the
        last *committed* state mid-barrier — the head swaps and the
        version count advances only after the barrier drops."""
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        first = random_update_batch(graph, n_edges=20, seed=4)
        sharded.apply("g", first)
        committed_digest = graph_digest(sharded.graph("g"))
        observed = []

        def probe(name, shard):
            assert sharded.fenced("g")
            assert sharded.version("g", stable=True).version == 1
            assert graph_digest(sharded.graph("g", stable=True)) == \
                committed_digest
            # The plain read still refuses mid-commit state.
            with pytest.raises(ConfigError, match="mid-commit"):
                sharded.graph("g")
            # Historical reconstruction honors the fence too: the shard
            # chains are mid-mutation and cannot prove anything.
            with pytest.raises(ConfigError, match="mid-commit"):
                sharded.graph("g", 0)
            observed.append(shard)

        head = sharded.graph("g")
        second = random_update_batch(head, n_edges=20, seed=5)
        sharded.apply("g", second, _on_subcommit=probe)
        assert observed
        assert not sharded.fenced("g")
        assert sharded.version("g", stable=True) == sharded.version("g")
        assert graph_digest(sharded.graph("g", stable=True)) == \
            graph_digest(sharded.graph("g"))

    def test_fence_lifts_after_failed_commit(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)

        def boom(name, shard):
            raise RuntimeError("shard application died")

        with pytest.raises(RuntimeError):
            sharded.apply("g", random_update_batch(graph, seed=1),
                          _on_subcommit=boom)
        # Readers are not wedged behind a dead barrier.
        sharded.version("g")


class TestSnapshotSeed:
    def test_seed_adopts_history_and_converges(self, graph):
        primary = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        seq = batches(graph, rounds=3)
        for batch in seq[:2]:
            primary.apply("g", batch)
        replica = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        replica.seed("g", primary.snapshot("g"))
        assert replica.version("g") == primary.version("g")
        assert replica.version_vector("g") == primary.version_vector("g")
        assert replica.digest("g") == primary.digest("g")
        assert replica.check_version_vector("g") == []
        # Convergence is provable on the next independent commit.
        primary.apply("g", seq[2])
        replica.apply("g", seq[2])
        assert replica.digest("g") == primary.digest("g")

    def test_seed_rejects_mismatched_snapshot(self, graph):
        primary = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        other = ShardedGraphStore({"g": graph}, nshards=2, nranks=8)
        with pytest.raises(ConfigError, match="4 shards"):
            other.seed("g", primary.snapshot("g"))
        with pytest.raises(ConfigError, match="not 'h'"):
            h = ShardedGraphStore({"g": graph, "h": graph},
                                  nshards=4, nranks=8)
            h.seed("h", primary.snapshot("g"))


class TestErrors:
    def test_unknown_graph(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=2)
        for fn in (lambda: sharded.graph("nope"),
                   lambda: sharded.version("nope"),
                   lambda: sharded.digest("nope"),
                   lambda: sharded.plan("nope")):
            with pytest.raises(ConfigError, match="not in the store"):
                fn()

    def test_duplicate_add_needs_overwrite(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=2)
        with pytest.raises(ConfigError, match="already stored"):
            sharded.add("g", graph)
        sharded.add("g", graph, overwrite=True)
        assert sharded.version("g").version == 0

    def test_version_out_of_range(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=2)
        with pytest.raises(ConfigError, match="has versions 0..0"):
            sharded.graph("g", 3)

    def test_bad_geometry(self, graph):
        with pytest.raises(ConfigError, match=">= 1 shard"):
            ShardedGraphStore(nshards=0)

    def test_diverged_assembly_is_a_simulation_error(self, graph,
                                                     monkeypatch):
        """Per-shard != whole-batch application is a store bug, and the
        barrier's fence is released on the way out."""
        import itertools

        import repro.shardstore.sharded as sharded_mod

        ticket = itertools.count()
        monkeypatch.setattr(sharded_mod, "graph_digest",
                            lambda graph: next(ticket))  # no two agree
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        with pytest.raises(SimulationError, match="diverged") as exc:
            sharded.apply("g", batches(graph, rounds=1)[0])
        assert not isinstance(exc.value, ConfigError)
        assert "g" not in sharded._fenced


class TestAnnotation:
    def test_updates_stamped_queries_untouched(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        lo, hi = sharded.plan("g").range_of(0)
        reqs = [
            QueryRequest(arrival=0.0, qid=0, tenant=0, graph="g"),
            UpdateRequest(arrival=1.0, qid=1, tenant=0, graph="g",
                          inserts=np.array([[lo, lo + 1]])),
            UpdateRequest(arrival=2.0, qid=2, tenant=0, graph="other",
                          inserts=np.array([[0, 1]])),
        ]
        out = annotate_shard_sets(reqs, sharded)
        assert out[0] is reqs[0]
        assert out[1].shards == sharded.touched_by(
            "g", inserts=np.array([[lo, lo + 1]]))
        assert out[2] is reqs[2]            # not in the store: untouched

    def test_empty_batch_stays_whole_graph_fence(self, graph):
        sharded = ShardedGraphStore({"g": graph}, nshards=4, nranks=8)
        req = UpdateRequest(arrival=0.0, qid=0, tenant=0, graph="g")
        assert annotate_shard_sets([req], sharded)[0].shards is None
