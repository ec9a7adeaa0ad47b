"""Ablations for the paper's design choices.

Not figures from the paper, but the knobs the paper discusses in prose:

* **double buffering** (Section III-A) — overlap on/off;
* **block vs cyclic 1D partitioning** (Section III-A cites cyclic as the
  balanced alternative it chose not to use);
* **adaptive tuning** (Section III-B1: why initial sizes matter);
* **DistTC-style precompute** (Section I's scalability criticism);
* **TriC wedge-volume growth** — the mechanism behind the paper's "up to
  100x on scale-free graphs": TriC's query volume grows quadratically in
  hub degree while the async design's read volume grows linearly.
"""

from __future__ import annotations

from repro.analysis.tables import Table, print_tables
from repro.baselines.disttc import DistTCConfig, run_disttc
from repro.baselines.tric import TricConfig, run_tric
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import run_distributed_lcc
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat
from repro.utils.errors import SimulationError


def overlap_sweep(scale: float, seed: int) -> dict:
    """``{node count: LCC time with double buffering on / off, and on/off}``."""
    g = load_dataset("rmat-s21-ef16", scale=scale, seed=seed)
    out = {}
    for p in (4, 16, 64):
        on, off = (run_distributed_lcc(
            g, LCCConfig(nranks=p, threads=12, overlap=overlap)).time
            for overlap in (True, False))
        out[str(p)] = {"on_s": on, "off_s": off, "on_over_off": on / off}
    return out


def ablate_overlap(scale: float, seed: int) -> Table:
    t = Table(["nodes", "overlap on (s)", "overlap off (s)", "gain"],
              title="Ablation: double buffering (Section III-A)")
    for p, row in overlap_sweep(scale, seed).items():
        t.add_row(p, round(row["on_s"], 4), round(row["off_s"], 4),
                  f"{(1 - row['on_over_off']):.1%}")
    return t


def partition_sweep(scale: float, seed: int) -> dict:
    """``{node count: time, load imbalance and triangle count per 1D
    partitioning}``."""
    g = load_dataset("orkut", scale=scale, seed=seed)
    out = {}
    for p in (8, 32):
        row = out[str(p)] = {}
        for partition in ("block", "cyclic"):
            res = run_distributed_lcc(g, LCCConfig(nranks=p, threads=12,
                                                   partition=partition))
            row.update({f"{partition}_s": res.time,
                        f"{partition}_imbalance": res.outcome.load_imbalance,
                        f"{partition}_triangles": int(res.global_triangles)})
    return out


def ablate_partition(scale: float, seed: int) -> Table:
    t = Table(["nodes", "block (s)", "cyclic (s)", "block imbalance",
               "cyclic imbalance"],
              title="Ablation: 1D block vs cyclic partitioning")
    for p, row in partition_sweep(scale, seed).items():
        t.add_row(p, round(row["block_s"], 4), round(row["cyclic_s"], 4),
                  f"{row['block_imbalance']:.2%}",
                  f"{row['cyclic_imbalance']:.2%}")
    return t


def ablate_adaptive(scale: float, seed: int) -> Table:
    from repro.clampi.adaptive import AdaptiveConfig

    g = load_dataset("rmat-s20-ef16", scale=scale, seed=seed)
    t = Table(["C_adj slots seed", "adaptive", "time (s)", "hit rate",
               "resizes"],
              title="Ablation: adaptive hash-table tuning (Section III-B1)")
    cap = max(4096, g.adjacency.nbytes // 4)
    for adaptive in (None, AdaptiveConfig(check_interval=1024)):
        spec = CacheSpec(offsets_bytes=0, adj_bytes=cap)
        cfg = LCCConfig(nranks=8, threads=12, cache=CacheSpec(
            offsets_bytes=0, adj_bytes=cap, adaptive=adaptive))
        res = run_distributed_lcc(g, cfg)
        stats = res.adj_cache_stats
        t.add_row("heuristic", "on" if adaptive else "off",
                  round(res.time, 4), f"{stats['hit_rate']:.3f}",
                  int(stats["flushes"]))
    return t


def ablate_disttc(scale: float, seed: int) -> Table:
    g = load_dataset("rmat-s21-ef16", scale=scale, seed=seed)
    t = Table(["nodes", "total (s)", "precompute (s)", "count (s)",
               "precompute share"],
              title="Ablation: DistTC-style shadow-edge precompute")
    for p in (4, 16, 64):
        res = run_disttc(g, DistTCConfig(nranks=p))
        t.add_row(p, round(res.time, 4), round(res.precompute_time, 4),
                  round(res.count_time, 4),
                  f"{res.precompute_time / res.time:.1%}")
    return t


def tric_volume_sweep(seed: int) -> dict:
    """``{"scales": {R-MAT scale: wire words, their ratio, time ratio},
    "ratio_growth": largest scale's word ratio / smallest scale's}``."""
    scales = {}
    for s in (9, 11, 13):
        g = rmat(s, 16, seed=seed)
        p = 8
        async_res = run_distributed_lcc(g, LCCConfig(nranks=p, threads=12))
        tric_res = run_tric(g, TricConfig(nranks=p))
        async_words = async_res.outcome.total("bytes_remote") / 4
        tric_words = (tric_res.outcome.total("bytes_sent")) / 4
        scales[f"S{s}"] = {
            "async_words": int(async_words), "tric_words": int(tric_words),
            "words_ratio": tric_words / max(async_words, 1),
            "time_ratio": tric_res.time / async_res.time}
    ratios = [row["words_ratio"] for row in scales.values()]
    return {"scales": scales, "ratio_growth": ratios[-1] / ratios[0]}


def tric_volume_growth(scale: float, seed: int) -> Table:
    """The quadratic-volume mechanism behind the paper's 100x claim."""
    t = Table(
        ["R-MAT scale", "async fetch words", "tric query words",
         "ratio", "tric/async time"],
        title=("Ablation: TriC wedge volume vs async fetch volume "
               "(grows with hub degree -> the paper's 100x at S21+)"),
    )
    for label, row in tric_volume_sweep(seed)["scales"].items():
        t.add_row(label, row["async_words"], row["tric_words"],
                  f"{row['words_ratio']:.2f}", f"{row['time_ratio']:.1f}x")
    return t


def ablate_2d_partition(scale: float, seed: int) -> Table:
    """1D vs 2D distribution (the paper's future-work direction i)."""
    from repro.core.tc import run_distributed_tc
    from repro.core.tc2d import run_distributed_tc_2d
    from repro.graph.partition2d import (
        communication_peers_1d,
        communication_peers_2d,
    )

    g = load_dataset("rmat-s21-ef16", scale=scale, seed=seed)
    t = Table(["nodes", "1D time (s)", "2D time (s)", "1D gets", "2D gets",
               "1D peers/rank", "2D peers/rank"],
              title="Ablation: 1D vs 2D distribution for global TC "
                    "(future work i)")
    for p in (16, 64):
        one = run_distributed_tc(g, LCCConfig(nranks=p, threads=12))
        two = run_distributed_tc_2d(g, LCCConfig(nranks=p, threads=12))
        if one.global_triangles != two.global_triangles:
            raise SimulationError(
                f"1D and 2D triangle counts differ at p={p}: "
                f"{one.global_triangles} vs {two.global_triangles}")
        t.add_row(p, round(one.time, 4), round(two.time, 4),
                  one.outcome.total("n_remote_gets"),
                  two.outcome.total("n_remote_gets"),
                  round(communication_peers_1d(g, p), 1),
                  round(communication_peers_2d(p), 1))
    return t


def ablate_score_policies(scale: float, seed: int) -> Table:
    """Extended eviction scores (future work iii)."""
    from repro.clampi.scores import AppScorePolicy
    from repro.clampi.scores_ext import EXTENDED_POLICIES
    from repro.clampi.wrapper import degree_app_score
    from repro.core.lcc import execute_lcc
    from repro.session import Session

    g = load_dataset("rmat-s20-ef16", scale=scale, seed=seed)
    cap = max(4096, g.adjacency.nbytes // 4)
    t = Table(["policy", "time (s)", "C_adj hit rate", "evictions"],
              title="Ablation: application-specific score policies "
                    "(future work iii), C_adj = 25% of adjacency")
    policies = {"default": None, "degree": AppScorePolicy,
                **EXTENDED_POLICIES}
    config = LCCConfig(nranks=8, threads=12, cache=CacheSpec(
        offsets_bytes=0, adj_bytes=cap, score="default"))
    with Session(g, config) as session:
        for name in ["default", "degree"] + sorted(EXTENDED_POLICIES):
            # Fresh caches per policy; swap it in on every rank's C_adj.
            engine, dist, off_caches, adj_caches = session.resident_cluster()
            if policies[name] is not None:
                for cache in adj_caches:
                    cache.config.score_policy = policies[name]()
                    if cache.config.score_policy.uses_app_score:
                        cache.config.app_score_fn = degree_app_score
            res = execute_lcc(engine, dist, config, off_caches, adj_caches)
            stats = res.adj_cache_stats
            t.add_row(name, round(res.time, 4), f"{stats['hit_rate']:.3f}",
                      stats["capacity_evictions"]
                      + stats["conflict_evictions"])
    return t


def seed_stability(scale: float, seed: int) -> Table:
    """LibLSB-style reporting: median + 95% CI over seeds (paper IV-A).

    The simulator is deterministic per seed; across seeds the graph sample
    varies, which is the analogue of the paper's repeated executions.
    """
    from repro.analysis.statistics import repeat_over_seeds
    from repro.graph.datasets import load_dataset as _load

    t = Table(["config", "median time (s)", "95% CI", "CI half-width"],
              title="Measurement methodology: median and 95% CI over 7 seeds")
    for label, p in [("lcc p=8", 8), ("lcc p=32", 32)]:
        def run_one(s: int) -> float:
            g = _load("rmat-s21-ef16", scale=scale, seed=s)
            return run_distributed_lcc(
                g, LCCConfig(nranks=p, threads=12)).time

        ci = repeat_over_seeds(run_one, seeds=range(7))
        t.add_row(label, round(ci.median, 4),
                  f"[{ci.lo:.4f}, {ci.hi:.4f}]",
                  f"{ci.half_width_fraction:.1%}")
    return t


def run(scale: float = 1.0, seed: int = 0, fast: bool = False) -> list[Table]:
    if fast:
        return [ablate_overlap(0.5, seed)]
    return [
        ablate_overlap(scale, seed),
        ablate_partition(scale, seed),
        ablate_adaptive(scale, seed),
        ablate_disttc(scale, seed),
        tric_volume_growth(scale, seed),
        ablate_2d_partition(scale, seed),
        ablate_score_policies(scale, seed),
        seed_stability(scale, seed),
    ]


if __name__ == "__main__":
    print_tables(run())
