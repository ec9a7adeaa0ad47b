"""Micro-benchmarks of the batched cache replay against the scalar loop.

Real wall-clock timings of the hottest path this repo has: cached
distributed LCC/TC.  The ``loop`` variants run the per-edge reference
oracle, the ``batched`` variants the vectorized replay of
:mod:`repro.core.replay` — parity between the two is pinned elsewhere
(``tests/core/test_cached_fast_parity.py``); here we only watch the
speed.  ``repro bench kernels`` records the same comparison into
``BENCH_kernels.json`` per PR.
"""

import numpy as np
import pytest

from repro.clampi.cache import BatchStream, ClampiCache, ClampiConfig
from repro.core.config import CacheSpec, LCCConfig
from repro.graph.generators import powerlaw_configuration
from repro.runtime.window import Window
from repro.session import Session


@pytest.fixture(scope="module")
def graph():
    return powerlaw_configuration(768, 6000, seed=7)


@pytest.fixture(scope="module")
def cache_spec(graph):
    return CacheSpec.relative(graph.nbytes, 0.5, 1.0)


def _config(cache, fast_path):
    return LCCConfig(nranks=8, threads=4, cache=cache, fast_path=fast_path)


@pytest.mark.parametrize("kernel", ["lcc", "tc"])
@pytest.mark.parametrize("fast_path", [False, True],
                         ids=["loop", "batched"])
def test_cached_warm_query(benchmark, graph, cache_spec, kernel, fast_path):
    with Session(graph, _config(cache_spec, fast_path)) as session:
        session.run(kernel, keep_cache=True)  # warm the caches
        result = benchmark(session.run, kernel, keep_cache=True)
    assert result.global_triangles > 0


def test_access_batch_hit_stream(benchmark):
    """A pure-hit stream through access_batch (the vectorized best case)."""
    window = Window("adj", [np.arange(4096, dtype=np.int64)])
    window.lock_all(0)
    cache = ClampiCache(window, 0, ClampiConfig(capacity_bytes=1 << 20,
                                                nslots=8192))
    rng = np.random.default_rng(1)
    offsets = rng.integers(0, 4000, 20000).astype(np.int64)
    stream = BatchStream(np.zeros(20000, dtype=np.int64), offsets,
                         np.full(20000, 8, dtype=np.int64))
    cache.access_batch(stream=stream)  # first pass inserts everything

    def replay():
        return cache.access_batch(stream=stream)

    durations, hits = benchmark(replay)
    assert bool(hits.all())
