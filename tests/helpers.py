"""Shared helpers importable from any test module."""

from pathlib import Path

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    ego_circles,
    erdos_renyi,
    powerlaw_configuration,
    ring_of_cliques,
    rmat,
)

#: Where the committed ``BENCH_*.json`` reports and README live.
REPO_ROOT = Path(__file__).resolve().parents[1]


def make_graph_suite(seed: int = 42) -> list[CSRGraph]:
    """A diverse set of small graphs for cross-implementation checks."""
    return [
        complete_graph(6),
        ring_of_cliques(3, 4),
        rmat(7, 8, seed=seed),
        erdos_renyi(96, 700, seed=seed),
        powerlaw_configuration(128, 900, seed=seed),
        ego_circles(n_egos=2, circle_size=8, n_circles_per_ego=2, seed=seed),
    ]
