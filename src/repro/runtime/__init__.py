"""Simulated distributed-memory runtime (the MPI/RMA substrate).

The paper runs on Cray XC50 nodes with an Aries interconnect and uses MPI-3
RMA passive-target one-sided operations.  Neither real MPI nor the hardware
is available here, so this package provides a **deterministic discrete-event
simulation** of the same programming model:

* :class:`~repro.runtime.network.NetworkModel` — LogGP-style cost model for
  one-sided gets/puts and two-sided messages (``t(s) = alpha + beta * s``,
  exactly the model the paper itself uses to reason about remote reads in
  Section IV-D1).
* :class:`~repro.runtime.window.Window` — an RMA window exposing one NumPy
  array per rank, with passive-target epoch semantics
  (``lock_all``/``flush``/``unlock_all``) and bounds checking.
* :class:`~repro.runtime.context.SimContext` — the per-rank handle: a
  virtual clock plus ``get``/``send``/``recv``/collective operations.
* :class:`~repro.runtime.engine.Engine` — runs one generator (or plain
  function) per rank; fully asynchronous algorithms never block and are run
  directly, synchronizing baselines (TriC) yield communication requests that
  the engine matches and times.

Reported job runtime is the **maximum over rank clocks**, matching the
paper's methodology of reporting the longest-running node.
"""

from repro.runtime.network import NetworkModel, MemoryModel
from repro.runtime.compute import ComputeModel
from repro.runtime.window import Window, WindowRegistry
from repro.runtime.context import SimContext
from repro.runtime.engine import Engine, RunOutcome
from repro.runtime.trace import RankTrace

__all__ = [
    "NetworkModel",
    "MemoryModel",
    "ComputeModel",
    "Window",
    "WindowRegistry",
    "SimContext",
    "Engine",
    "RunOutcome",
    "RankTrace",
]
