"""Micro-benchmarks of the algebraic 2D kernels against their loops.

Real wall-clock timings of the masked-SpGEMM path: ``tc2d_spgemm``
replays packed SUMMA panels vectorized, the ``loop`` variants run the
edge-centric per-round reference (``tc2d`` with ``fast_path=False``).
Parity between the two is pinned elsewhere
(``tests/core/test_linalg.py``); here we only watch the speed.
``repro bench kernels`` records the same comparison into ``BENCH_kernels.json``
per PR (the ``linalg`` section).
"""

import pytest

from repro.core.config import CacheSpec, LCCConfig
from repro.core.linalg import build_round_streams, summa_stats
from repro.graph.generators import powerlaw_configuration
from repro.graph.partition2d import GridPartition2D
from repro.session import Session

NRANKS = 9  # square 3x3 grid: the shape the SUMMA kernels require


@pytest.fixture(scope="module")
def graph():
    return powerlaw_configuration(768, 6000, seed=7)


@pytest.fixture(scope="module")
def cache_spec(graph):
    return CacheSpec.relative(graph.nbytes, 0.5, 1.0)


def _config(cache=None, fast_path=True):
    return LCCConfig(nranks=NRANKS, threads=4, cache=cache,
                     fast_path=fast_path)


@pytest.mark.parametrize("kernel,fast_path",
                         [("tc2d", False), ("tc2d_spgemm", True)],
                         ids=["loop", "spgemm"])
def test_warm_uncached_tc2d(benchmark, graph, kernel, fast_path):
    """Warm resident query: scalar edge-centric loop vs. SUMMA replay."""
    with Session(graph, _config(fast_path=fast_path)) as session:
        session.run(kernel)  # build the grid (and panels) once
        result = benchmark(session.run, kernel)
    assert result.global_triangles > 0


@pytest.mark.parametrize("fast_path", [False, True],
                         ids=["loop", "batched"])
def test_warm_cached_tc2d(benchmark, graph, cache_spec, fast_path):
    """Warm cached query: scalar cache loop vs. batched panel replay."""
    with Session(graph, _config(cache=cache_spec,
                                fast_path=fast_path)) as session:
        session.run("tc2d", keep_cache=True)  # warm the block caches
        result = benchmark(session.run, "tc2d", keep_cache=True)
    assert result.global_triangles > 0


def test_warm_lcc2d(benchmark, graph):
    """Warm resident per-vertex LCC over the SUMMA grid."""
    with Session(graph, _config()) as session:
        session.run("lcc2d")
        result = benchmark(session.run, "lcc2d")
    assert result.lcc is not None


def test_summa_stats_build(benchmark, graph):
    """One-off panel build cost (paid once per resident epoch)."""
    grid = GridPartition2D(graph.n, NRANKS)
    from repro.core.tc2d import build_grid_blocks

    blocks = build_grid_blocks(graph, grid)
    stats = benchmark(summa_stats, graph, grid, blocks)
    assert int(stats.tpv.sum()) % 6 == 0


def test_round_streams_build(benchmark, graph):
    """Per-epoch stream construction for the batched replay."""
    from repro.core.tc2d import BLOCKS_WINDOW, build_grid_blocks, pack_block
    from repro.runtime.engine import Engine
    from repro.runtime.window import Window

    config = _config()
    engine = Engine(NRANKS, network=config.network, memory=config.memory,
                    compute=config.compute)
    grid = GridPartition2D(graph.n, NRANKS)
    blocks = build_grid_blocks(graph, grid)
    win = engine.windows.add(Window(BLOCKS_WINDOW,
                                    [pack_block(b) for b in blocks]))
    streams = benchmark(build_round_streams, grid, win)
    assert len(streams) == NRANKS
