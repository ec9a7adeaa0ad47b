"""Session pool: residency bound, eviction policies, lifecycle."""

import pytest

from repro.core.config import LCCConfig
from repro.graph.generators import complete_graph, ring_of_cliques
from repro.serve.pool import SessionPool
from repro.utils.errors import ConfigError, SimulationError

CATALOG = {
    "k6": complete_graph(6, name="k6"),
    "k7": complete_graph(7, name="k7"),
    "ring": ring_of_cliques(3, 4, name="ring"),
}


def _config_for(graph, overrides):
    return LCCConfig(nranks=2, **overrides)


def make_pool(capacity=2, policy="lru"):
    return SessionPool(CATALOG, _config_for, capacity=capacity, policy=policy)


def key(graph, **overrides):
    return (graph, tuple(sorted(overrides.items())))


class TestBounds:
    def test_capacity_never_exceeded(self):
        with make_pool(capacity=2) as pool:
            for graph in ("k6", "k7", "ring", "k6", "ring", "k7"):
                pool.acquire(key(graph))
                assert len(pool) <= 2

    def test_reuse_returns_same_session(self):
        with make_pool() as pool:
            first, built_first = pool.acquire(key("k6"))
            again, built_again = pool.acquire(key("k6"))
            assert first is again
            assert built_first and not built_again
            assert pool.stats.builds == 1
            assert pool.stats.reuses == 1

    def test_distinct_overrides_distinct_sessions(self):
        with make_pool() as pool:
            a, _ = pool.acquire(key("k6"))
            b, _ = pool.acquire(key("k6", method="ssi"))
            assert a is not b
            assert len(pool) == 2

    def test_unknown_graph_rejected(self):
        with make_pool() as pool:
            with pytest.raises(ConfigError, match="not in the serving"):
                pool.acquire(key("nope"))

    def test_unknown_graph_does_not_evict(self):
        """A bad key must never cost a warm resident session."""
        with make_pool(capacity=1) as pool:
            resident, _ = pool.acquire(key("k6"))
            with pytest.raises(ConfigError):
                pool.acquire(key("nope"))
            assert not resident._closed
            assert key("k6") in pool
            assert pool.stats.evictions == 0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigError, match="capacity"):
            make_pool(capacity=0)
        with pytest.raises(ConfigError, match="policy"):
            make_pool(policy="fifo")


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        with make_pool(capacity=2, policy="lru") as pool:
            pool.acquire(key("k6"))
            pool.acquire(key("k7"))
            pool.acquire(key("k6"))        # refresh k6: k7 is now LRU
            pool.acquire(key("ring"))      # evicts k7
            assert key("k6") in pool
            assert key("ring") in pool
            assert key("k7") not in pool
            assert pool.stats.evictions == 1

    def test_lfu_evicts_least_used(self):
        with make_pool(capacity=2, policy="lfu") as pool:
            for _ in range(3):
                pool.acquire(key("k6"))    # 3 uses
            pool.acquire(key("k7"))        # 1 use
            pool.acquire(key("ring"))      # evicts k7 (fewest uses)
            assert key("k6") in pool
            assert key("k7") not in pool

    def test_eviction_closes_the_session(self):
        with make_pool(capacity=1) as pool:
            victim, _ = pool.acquire(key("k6"))
            pool.acquire(key("k7"))
            assert victim._closed

    def test_evicted_key_rebuilds_cold(self):
        with make_pool(capacity=1) as pool:
            pool.acquire(key("k6"))
            pool.acquire(key("k7"))
            _, built = pool.acquire(key("k6"))
            assert built
            assert pool.stats.builds == 3

    def test_resident_keys_in_lru_order(self):
        with make_pool(capacity=3) as pool:
            pool.acquire(key("k6"))
            pool.acquire(key("k7"))
            pool.acquire(key("k6"))
            assert pool.resident_keys() == [key("k7"), key("k6")]


class TestPinning:
    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_pinned_session_survives_eviction_pressure(self, policy):
        """The pinned key is both the LRU and the LFU victim-to-be."""
        with make_pool(capacity=2, policy=policy) as pool:
            pinned, _ = pool.acquire(key("k6"))
            pool.pin(key("k6"))
            for graph in ("k7", "k7", "ring", "k7"):
                pool.acquire(key(graph))
                assert key("k6") in pool and not pinned._closed
            assert pool.stats.evictions == 2

    def test_can_admit_counts_only_unpinned_victims(self):
        with make_pool(capacity=2) as pool:
            for graph in ("k6", "k7"):
                pool.acquire(key(graph))
                pool.pin(key(graph))
            assert not pool.can_admit(key("ring"))
            assert pool.can_admit(key("k6"))       # resident: no victim needed
            pool.unpin(key("k7"))
            assert pool.can_admit(key("ring"))
            pool.acquire(key("ring"))              # evicts the unpinned k7
            assert key("k7") not in pool and key("k6") in pool
            pool.unpin(key("k7"))                  # evicted key: a no-op

    def test_acquiring_past_a_fully_pinned_pool_is_an_invariant_violation(self):
        with make_pool(capacity=1) as pool:
            resident, _ = pool.acquire(key("k6"))
            pool.pin(key("k6"))
            with pytest.raises(SimulationError, match="full of pinned"):
                pool.acquire(key("k7"))
            assert not resident._closed and pool.stats.evictions == 0

    def test_evict_where_ignores_pins(self):
        """The failover hook: a dead replica's sessions go, pinned or not."""
        with make_pool(capacity=3) as pool:
            sessions = {g: pool.acquire(key(g))[0]
                        for g in ("k6", "k7", "ring")}
            pool.pin(key("k6"))
            assert pool.evict_where(lambda k: k[0].startswith("k")) == 2
            assert sessions["k6"]._closed and sessions["k7"]._closed
            assert not sessions["ring"]._closed
            assert pool.resident_keys() == [key("ring")]
            assert pool.stats.evictions == 2


class TestLifecycle:
    def test_close_closes_all_sessions(self):
        pool = make_pool(capacity=3)
        a, _ = pool.acquire(key("k6"))
        b, _ = pool.acquire(key("k7"))
        pool.close()
        assert a._closed and b._closed
        assert len(pool) == 0

    def test_queries_counted_per_key(self):
        with make_pool(capacity=3) as pool:
            pool.acquire(key("k6"))
            pool.acquire(key("k6"))
            pool.acquire(key("k7"))
            assert pool.stats.queries[key("k6")] == 2
            assert pool.stats.queries[key("k7")] == 1

    def test_sessions_actually_serve_queries(self):
        with make_pool() as pool:
            session, _ = pool.acquire(key("k6"))
            result = session.run("tc")
            assert result.global_triangles == 20  # C(6,3)
