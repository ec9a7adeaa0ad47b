"""OpenMP edge-level parallelisation cost model (paper Section III-C).

The paper parallelises the *intersection itself* with OpenMP — not the
edge loop — to keep thread imbalance low:

* **binary search**: the keys (shorter) array is split into equal chunks,
  one per thread; each thread searches the whole tree, so per-thread work
  is ``ceil(|A|/T) * log2 |B|``;
* **SSI**: the *longer* array is split; every thread intersects its chunk
  with the whole shorter list, so per-thread work is ``|B|/T + |A|`` —
  the ``|A|`` term is why SSI stops scaling (each thread still scans the
  short list) and, together with the per-edge parallel-region entry cost,
  why Figure 6 saturates around 2.7x at 16 threads;
* a **cut-off**: intersections smaller than ``cutoff`` stay sequential
  ("a too-small parallel region would limit performance");
* ``OMP_WAIT_POLICY=active`` keeps threads spinning between regions,
  reducing the region entry cost (the paper measured 2-4% — so the two
  overhead values here differ by a few percent of a typical edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.compute import ComputeModel
from repro.utils.units import US
from repro.utils.validation import require_in_range, require_positive


@dataclass(frozen=True)
class OpenMPModel:
    """Timing model for the (simulated) OpenMP intersection kernels."""

    threads: int = 1
    compute: ComputeModel = field(default_factory=ComputeModel)
    wait_policy: str = "active"      # 'active' | 'passive'
    cutoff: int = 128                # below this total work: sequential
    region_overhead_active: float = 1.8 * US
    region_overhead_passive: float = 2.0 * US
    chunk_imbalance: float = 0.07    # slack for uneven chunk boundaries

    def __post_init__(self) -> None:
        require_positive("threads", self.threads)
        if self.wait_policy not in ("active", "passive"):
            raise ValueError(f"wait_policy must be active|passive, got "
                             f"{self.wait_policy!r}")
        require_in_range("chunk_imbalance", self.chunk_imbalance, 0.0, 1.0)

    @property
    def region_overhead(self) -> float:
        """Parallel-region entry/exit cost under the configured wait policy."""
        if self.wait_policy == "active":
            return self.region_overhead_active
        return self.region_overhead_passive

    # -- kernel costs ------------------------------------------------------------
    def ssi_time(self, len_a: int, len_b: int) -> float:
        """SSI: split the longer list over threads (paper Section III-C)."""
        cm = self.compute
        if self.threads == 1 or (len_a + len_b) < self.cutoff:
            return cm.ssi_time(len_a, len_b)
        short, long_ = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
        per_thread = long_ / self.threads + short
        work = per_thread * (1.0 + self.chunk_imbalance) * cm.c_ssi
        return cm.edge_overhead + self.region_overhead + work

    def binary_search_time(self, len_a: int, len_b: int) -> float:
        """Binary search: split the keys (shorter) array over threads."""
        cm = self.compute
        short, long_ = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
        if self.threads == 1 or short < max(1, self.cutoff // 8):
            return cm.binary_search_time(len_a, len_b)
        keys_per_thread = math.ceil(short / self.threads)
        log_term = max(1.0, math.log2(long_)) if long_ > 1 else 1.0
        work = keys_per_thread * log_term * (1.0 + self.chunk_imbalance) * cm.c_bs
        return cm.edge_overhead + self.region_overhead + work

    def hybrid_time(self, len_a: int, len_b: int) -> float:
        """The cheaper kernel for this pair under the threading model.

        The hybrid "empirically compares frontiers to decide which method
        to apply" (paper Section III-C); under an explicit cost model that
        comparison is a direct cost evaluation (Eq. 3 is its equal-cost
        -per-comparison special case).
        """
        return min(self.ssi_time(len_a, len_b),
                   self.binary_search_time(len_a, len_b))

    def kernel_time(self, method: str, len_a: int, len_b: int) -> float:
        """Dispatch by method name ('ssi' | 'binary' | 'hybrid')."""
        if method == "ssi":
            return self.ssi_time(len_a, len_b)
        if method == "binary":
            return self.binary_search_time(len_a, len_b)
        if method == "hybrid":
            return self.hybrid_time(len_a, len_b)
        raise ValueError(f"unknown intersection method: {method!r}")

    def with_threads(self, threads: int) -> "OpenMPModel":
        """Copy of this model with a different thread count."""
        return OpenMPModel(
            threads=threads,
            compute=self.compute,
            wait_policy=self.wait_policy,
            cutoff=self.cutoff,
            region_overhead_active=self.region_overhead_active,
            region_overhead_passive=self.region_overhead_passive,
            chunk_imbalance=self.chunk_imbalance,
        )


# -- the same cost formulas over arrays of list-length pairs -------------------
#
# The batched replay (:mod:`repro.core.replay`) and the shared-memory
# throughput sweeps need per-edge kernel times for whole edge lists;
# looping :meth:`OpenMPModel.kernel_time` per edge in Python is too slow.
# A unit test pins these forms to the scalar model.

def exact_log2(x: np.ndarray) -> np.ndarray:
    """``log2`` of positive integer values, by :func:`math.log2` per distinct one.

    ``np.log2`` disagrees with ``math.log2`` by one ulp on a sparse set of
    inputs (1621.0 is one), which is enough to break bit-identical parity
    between these vectorized formulas and the scalar :class:`OpenMPModel`.
    The values are list lengths, so a lookup table indexed by the value
    itself is exact, needs no sort and has ``max(x) + 1`` rows, at most a
    vertex count: a presence mask finds the distinct values,
    ``math.log2`` fills their rows.  Raises :class:`ValueError` on a value
    that is not a positive integer.
    """
    x = np.asarray(x)
    if x.size == 0:
        return np.zeros(x.shape, dtype=np.float64)
    if not np.isfinite(x).all():  # NaN and inf have no int64 cast
        raise ValueError("exact_log2 needs positive integer values")
    xi = x.astype(np.int64)
    if not (np.array_equal(xi, x) and xi.min() >= 1):
        raise ValueError("exact_log2 needs positive integer values")
    present = np.zeros(int(xi.max()) + 1, dtype=bool)
    present[xi] = True
    uniq = np.flatnonzero(present)
    lut = np.zeros(present.shape[0], dtype=np.float64)
    lut[uniq] = [math.log2(float(u)) for u in uniq.tolist()]
    return lut[xi]


def _ssi_time_vec(m: OpenMPModel, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    cm = m.compute
    seq = cm.edge_overhead + (la + lb) * cm.c_ssi
    if m.threads == 1:
        return seq
    short = np.minimum(la, lb)
    long_ = np.maximum(la, lb)
    per_thread = long_ / m.threads + short
    par = (cm.edge_overhead + m.region_overhead
           + per_thread * (1.0 + m.chunk_imbalance) * cm.c_ssi)
    return np.where(la + lb < m.cutoff, seq, par)


def _bs_time_vec(m: OpenMPModel, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    cm = m.compute
    short = np.minimum(la, lb)
    long_ = np.maximum(la, lb)
    log_term = np.where(long_ > 1,
                        np.maximum(1.0, exact_log2(np.maximum(long_, 2))), 1.0)
    seq = cm.edge_overhead + short * log_term * cm.c_bs
    # Degenerate tree (<= 1 element): one comparison per key.
    seq = np.where(long_ <= 1, cm.edge_overhead + short * cm.c_bs, seq)
    if m.threads == 1:
        return seq
    keys_per_thread = np.ceil(short / m.threads)
    par = (cm.edge_overhead + m.region_overhead
           + keys_per_thread * log_term * (1.0 + m.chunk_imbalance) * cm.c_bs)
    return np.where(short < max(1, m.cutoff // 8), seq, par)


def kernel_times_vectorized(model: OpenMPModel, method: str,
                            la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Per-edge kernel times for arrays of list-length pairs."""
    la = np.asarray(la, dtype=np.float64)
    lb = np.asarray(lb, dtype=np.float64)
    if method == "ssi":
        return _ssi_time_vec(model, la, lb)
    if method == "binary":
        return _bs_time_vec(model, la, lb)
    if method == "hybrid":
        return np.minimum(_ssi_time_vec(model, la, lb),
                          _bs_time_vec(model, la, lb))
    raise ValueError(f"unknown intersection method: {method!r}")
