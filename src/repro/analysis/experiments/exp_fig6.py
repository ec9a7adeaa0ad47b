"""Figure 6: shared-memory strong scaling of the hybrid kernel.

1 to 16 threads on R-MAT S20 EF16, R-MAT S20 EF32 and Orkut; the paper's
speedups at 16 threads are 2.0x, 2.7x and 1.2x — saturation caused by the
per-edge parallel-region entry cost, which the model reproduces.  Also
reports the active-vs-passive wait-policy delta (paper: 2-4%).
"""

from __future__ import annotations

from repro.analysis.tables import Table, print_tables
from repro.analysis.throughput import edges_per_microsecond
from repro.graph.datasets import load_dataset

#: (dataset, paper speedup at 16 threads).
PAPER_SPEEDUPS = [
    ("rmat-s20-ef16", 2.0),
    ("rmat-s20-ef32", 2.7),
    ("orkut", 1.2),
]

THREAD_COUNTS = [1, 2, 4, 8, 16]


def sweep(scale: float = 1.0, seed: int = 0, fast: bool = False) -> dict:
    """``{graph: edges/us per thread count, the 1 -> 16 thread speedup, and
    the 16-thread active/passive wait-policy pair with its gain}``."""
    out = {}
    for name, _ in PAPER_SPEEDUPS[:1] if fast else PAPER_SPEEDUPS:
        g = load_dataset(name, scale=scale, seed=seed)
        perf = {str(t): edges_per_microsecond(g, "hybrid", threads=t)
                for t in ([1, 16] if fast else THREAD_COUNTS)}
        a = edges_per_microsecond(g, "hybrid", threads=16, wait_policy="active")
        p = edges_per_microsecond(g, "hybrid", threads=16, wait_policy="passive")
        out[name] = {"edges_per_us": perf,
                     "speedup_16_threads": perf["16"] / perf["1"],
                     "active": a, "passive": p, "active_wait_gain": a / p - 1}
    return out


def run(scale: float = 1.0, seed: int = 0, fast: bool = False) -> list[Table]:
    rows = sweep(scale, seed, fast)
    threads = next(iter(rows.values()))["edges_per_us"]
    table = Table(
        ["graph"] + [f"{t}T (e/us)" for t in threads]
        + ["speedup", "paper speedup"],
        title="Figure 6: hybrid-kernel strong scaling on shared memory",
    )
    wait = Table(["graph", "active (e/us)", "passive (e/us)", "gain"],
                 title="OMP_WAIT_POLICY=active effect (paper: 2-4%)")
    paper = dict(PAPER_SPEEDUPS)
    for name, row in rows.items():
        table.add_row(name, *[round(p, 3) for p in row["edges_per_us"].values()],
                      f"{row['speedup_16_threads']:.1f}x", f"{paper[name]}x")
        wait.add_row(name, round(row["active"], 3), round(row["passive"], 3),
                     f"{row['active_wait_gain']:.1%}")
    return [table, wait]


if __name__ == "__main__":
    print_tables(run())
