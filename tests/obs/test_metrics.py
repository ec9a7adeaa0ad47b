"""Typed metrics: registry semantics and the CacheStats delegation."""

import pytest

from repro.clampi.stats import CacheStats
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_accumulates_and_rejects_negative():
    c = Counter("requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge("depth")
    g.set(3.0)
    g.inc(2.0)
    g.dec(4.0)
    assert g.value == 1.0


def test_histogram_quantiles_exact():
    h = Histogram("latency")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == 10.0
    assert snap["min"] == 1.0
    assert snap["max"] == 4.0
    assert snap["mean"] == 2.5
    assert 1.0 <= snap["p50"] <= 3.0
    assert snap["p99"] <= 4.0


def test_registry_get_or_create_and_type_conflict():
    reg = MetricsRegistry()
    c1 = reg.counter("x")
    assert reg.counter("x") is c1
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_registry_snapshot_registration_order():
    reg = MetricsRegistry()
    reg.counter("b").inc(2)
    reg.gauge("a").set(1.5)
    reg.histogram("h").observe(1.0)
    snap = reg.snapshot()
    assert list(snap) == ["b", "a", "h"]
    assert snap["b"] == 2
    assert snap["a"] == 1.5
    assert snap["h"]["count"] == 1


def test_cache_stats_snapshot_is_byte_identical():
    stats = CacheStats(hits=7, misses=3, compulsory_misses=2,
                       capacity_evictions=1, invalidations=4,
                       invalidated_bytes=512, rekeys=2, rekeyed_bytes=128,
                       bytes_served_from_cache=2048, bytes_fetched=1024,
                       mgmt_time=0.25)
    snap = stats.snapshot()
    # The historical hand-built dict, literally.
    expected = {
        "hits": 7, "misses": 3,
        "hit_rate": 0.7, "miss_rate": 0.3,
        "compulsory_miss_rate": 0.2,
        "capacity_evictions": 1, "conflict_evictions": 0,
        "hash_conflicts": 0, "insert_failures": 0, "flushes": 0,
        "invalidations": 4, "invalidated_bytes": 512,
        "rekeys": 2, "rekeyed_bytes": 128,
        "bytes_served_from_cache": 2048, "bytes_fetched": 1024,
        "mgmt_time": 0.25,
    }
    assert snap == expected
    assert list(snap) == list(CacheStats.SNAPSHOT_KEYS)
