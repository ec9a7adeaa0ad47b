"""Tracer alias, not a code path.

``bench/trace.py:TARGETS`` resolves
``repro.core.lcc_fast:run_distributed_lcc_fast`` by name on every run, so
the name exists until ROADMAP item 1(a)'s ``benchmark`` PR retargets the
tracer and deletes this file.  Nothing under ``src/`` imports it.
"""

from repro.core.lcc import run_distributed_lcc


def run_distributed_lcc_fast(graph, config=None):
    return run_distributed_lcc(graph, config)
