"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    ego_circles,
    erdos_renyi,
    powerlaw_configuration,
    ring_of_cliques,
    rmat,
)
from repro.runtime.engine import Engine
from repro.runtime.window import Window
from tests.helpers import REPO_ROOT


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def k5() -> CSRGraph:
    """Complete graph on 5 vertices: 10 triangles, LCC 1 everywhere."""
    return complete_graph(5)


@pytest.fixture
def cliques() -> CSRGraph:
    """Ring of 4 K5s: 40 triangles."""
    return ring_of_cliques(4, 5)


@pytest.fixture
def small_rmat() -> CSRGraph:
    return rmat(8, 8, seed=7)


@pytest.fixture
def small_er() -> CSRGraph:
    return erdos_renyi(128, 1024, seed=7)


@pytest.fixture
def small_powerlaw() -> CSRGraph:
    return powerlaw_configuration(256, 2048, seed=7)


@pytest.fixture
def small_ego() -> CSRGraph:
    return ego_circles(n_egos=2, circle_size=10, n_circles_per_ego=3, seed=7)


@pytest.fixture
def engine2() -> Engine:
    return Engine(2)


@pytest.fixture
def engine4() -> Engine:
    return Engine(4)


@pytest.fixture
def window_pair(engine2: Engine) -> Window:
    """A 2-rank window with known contents and open epochs."""
    win = engine2.windows.add(Window(
        "data",
        [np.arange(100, dtype=np.int64), np.arange(1000, 1100, dtype=np.int64)],
    ))
    win.lock_all(0)
    win.lock_all(1)
    return win


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


@pytest.fixture(scope="session")
def quick_report_of(tmp_path_factory):
    """``name -> that bench suite's real --quick report``, each computed
    once per session (the report tests and the CLI tests share them).

    Callers must not mutate what they get; doctor a ``copy.deepcopy``.
    """
    from repro.analysis.benchsuite import get_suite

    reports: dict = {}

    def get(name: str) -> dict:
        if name not in reports:
            # The trace suite validates every BENCH_*.json of, and leaves
            # its journal/trace artifacts in, the working directory: give
            # it a scratch copy of the committed reports, not the repo.
            scratch = tmp_path_factory.mktemp(f"bench-{name}")
            for committed in REPO_ROOT.glob("BENCH_*.json"):
                shutil.copy(committed, scratch)
            cwd = os.getcwd()
            os.chdir(scratch)
            try:
                reports[name] = get_suite(name).run(True)
            finally:
                os.chdir(cwd)
        return reports[name]

    return get
