"""Figure 7: cache behaviour as a function of cache size.

An R-MAT S20 EF16-class graph on 2 nodes; caching enabled on **one**
window at a time while the other window's reads stay uncached.  The paper
observes:

* ``C_offsets``: miss rate falls ~linearly with cache size (fixed-size
  entries, frequency ~ degree);
* ``C_adj``: miss rate falls like a power law — a small cache already
  captures the hub lists (up to ~30% communication-time saving at small
  sizes; 51.6% when the full window is cached);
* a compulsory-miss floor that no cache size removes (the grey band).
"""

from __future__ import annotations

from repro.analysis.experiments import SEED
from repro.analysis.tables import Table, in_order
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import run_distributed_lcc
from repro.graph.datasets import load_dataset

RELATIVE_SIZES = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0]


def measure(quick: bool) -> dict:
    """``{window: {"sizes": {relative size: that run's numbers}, and the
    miss rate / saving at the smallest and the largest size}}``."""
    g = load_dataset("rmat-s20-ef16", seed=SEED)
    base_cfg = LCCConfig(nranks=2, threads=12)
    base_comm = run_distributed_lcc(g, base_cfg).comm_time
    windows = {}
    # Full-need capacities: every (start,end) pair / the whole adjacency.
    for which, full in [("offsets", g.n * 16), ("adj", g.adjacency.nbytes)]:
        sizes = {}
        for rel in [0.1, 1.0] if quick else RELATIVE_SIZES:
            cap = max(64, int(rel * full))
            spec = CacheSpec(**{"offsets_bytes": 0, "adj_bytes": 0,
                                f"{which}_bytes": cap})
            res = run_distributed_lcc(g, base_cfg.replace(cache=spec))
            stats = getattr(res, f"{which}_cache_stats")
            sizes[str(rel)] = {
                "capacity_bytes": cap, "miss_rate": stats["miss_rate"],
                "compulsory_floor": stats["compulsory_miss_rate"],
                "comm_time_s": res.comm_time,
                "saving": 1 - res.comm_time / base_comm}
        smallest, *_, largest = sizes.values()
        windows[f"C_{which}"] = {
            "sizes": sizes,
            "miss_rate_smallest": smallest["miss_rate"],
            "miss_rate_largest": largest["miss_rate"],
            "saving_smallest": smallest["saving"],
            "saving_largest": largest["saving"]}
    return {"graph": g.name, "uncached_comm_s": base_comm, "windows": windows}


def render(r: dict) -> list[Table]:
    tables = []
    for label in in_order(("C_offsets", "C_adj"), r["windows"]):
        window = r["windows"][label]
        t = Table(
            ["relative size", "capacity (B)", "miss rate",
             "compulsory floor", "comm time (s)", "saving vs uncached"],
            title=(f"Figure 7 ({label}): cache-size sweep on {r['graph']}, "
                   f"2 nodes (uncached comm {r['uncached_comm_s']:.3f}s)"),
        )
        for rel in sorted(window["sizes"], key=float):
            row = window["sizes"][rel]
            t.add_row(float(rel), row["capacity_bytes"],
                      f"{row['miss_rate']:.3f}",
                      f"{row['compulsory_floor']:.3f}",
                      round(row["comm_time_s"], 4), f"{row['saving']:.1%}")
        tables.append(t)
    note = Table(["note"], title="")
    note.add_row(
        "paper shapes: C_offsets miss rate falls ~linearly in size "
        "(reproduced); C_adj falls power-law-like, with caching the full "
        "window saving 51.6% of communication (ours saves "
        f"~{r['windows']['C_adj']['saving_largest']:.0%} at full "
        "size). In the small-C_adj regime our scaled hubs' lists are a "
        "large fraction of the cache, so the paper's early savings are "
        "granularity-compressed here.")
    tables.append(note)
    return tables
