"""The benchmark's untimed correctness pass.

* Kernel workloads: ``global_triangles`` exactly and per-vertex LCC to
  1e-12 against an independent SciPy ``(A.A) o A`` reference.
* Serve workloads: every answer digest and every graph's final version
  history against one serial :class:`~repro.serve.ServingEngine` run.
* ``golden.json`` (seed 7 only): per workload the exact counts and the
  simulated times rounded to 12 significant digits, so a wall-clock
  change that moves the paper's clock is caught.

Every check returns a count of failed operations — a mismatch feeds
``failed``, it never crashes the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from bench.workloads import KernelWorkload
from repro.serve import ServingEngine, answers_identical

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 7
LCC_TOL = 1e-12


def reference(graph) -> tuple[int, np.ndarray]:
    """``(global triangles, per-vertex LCC)`` of an undirected graph."""
    n = graph.offsets.shape[0] - 1
    a = sp.csr_matrix(
        (np.ones(graph.adjacency.shape[0], dtype=np.int64),
         graph.adjacency, graph.offsets), shape=(n, n))
    triplets = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
    deg = np.diff(graph.offsets).astype(np.float64)
    denom = deg * (deg - 1.0)
    lcc = np.divide(triplets, denom, out=np.zeros(n), where=denom > 0)
    return int(triplets.sum()) // 6, lcc


def check_kernel(graph, results: list) -> int:
    """How many kernel runs disagree with the SciPy reference."""
    triangles, lcc = reference(graph)
    failed = 0
    for res in results:
        if res is None:          # raised; already counted as an error
            continue
        ok = int(res.global_triangles) == triangles
        if ok and res.lcc is not None:
            ok = bool(np.max(np.abs(res.lcc - lcc), initial=0.0) <= LCC_TOL)
        failed += not ok
    return failed


def check_serve(state: dict, outcome) -> int:
    """How many requests disagree with the serial engine's answers."""
    serial = ServingEngine(state["catalog"], state["config"],
                           store_factory=state["store_factory"]
                           ).serve(state["requests"])
    if answers_identical(outcome, serial):
        return 0
    got, want = outcome.digests(), serial.digests()
    differing = sum(got.get(q) != want.get(q) for q in got.keys() | want.keys())
    return max(1, differing)   # a version-history mismatch alone still fails


def check(workload, answers) -> int:
    """Failed operations of one repeat's ``Result.answers``."""
    if isinstance(workload, KernelWorkload):
        return check_kernel(*answers)
    return check_serve(*answers)


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def golden_mismatch(name: str, fingerprint: dict) -> list[str]:
    """Top-level fingerprint keys that differ from the committed golden."""
    want = load_golden().get(name)
    if want is None:
        return ["<no golden entry>"]
    # Through JSON so tuples/ints compare the way the file stores them.
    got = json.loads(json.dumps(fingerprint))
    return sorted(k for k in got.keys() | want.keys()
                  if got.get(k) != want.get(k))
