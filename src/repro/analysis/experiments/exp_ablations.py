"""Ablations for the paper's design choices.

Not figures from the paper, but the knobs the paper discusses in prose:

* **double buffering** (Section III-A) — overlap on/off;
* **block vs cyclic 1D partitioning** (Section III-A cites cyclic as the
  balanced alternative it chose not to use);
* **adaptive tuning** (Section III-B1: why initial sizes matter);
* **DistTC-style precompute** (Section I's scalability criticism);
* **TriC wedge-volume growth** — the mechanism behind the paper's "up to
  100x on scale-free graphs": TriC's query volume grows quadratically in
  hub degree while the async design's read volume grows linearly;
* **1D vs 2D distribution** and **extended eviction scores** (the paper's
  future-work directions i and iii);
* **seed stability** — the paper's median-and-CI reporting (Section IV-A).
"""

from __future__ import annotations

from repro.analysis.experiments import SEED
from repro.analysis.statistics import repeat_over_seeds
from repro.analysis.tables import Table, in_order
from repro.baselines.disttc import DistTCConfig, run_disttc
from repro.baselines.tric import TricConfig, run_tric
from repro.clampi.adaptive import AdaptiveConfig
from repro.clampi.scores import AppScorePolicy
from repro.clampi.scores_ext import EXTENDED_POLICIES
from repro.clampi.wrapper import degree_app_score
from repro.core.config import CacheSpec, LCCConfig
from repro.core.lcc import execute_lcc, run_distributed_lcc
from repro.core.tc import run_distributed_tc
from repro.core.tc2d import run_distributed_tc_2d
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat
from repro.graph.partition2d import communication_peers_1d, communication_peers_2d
from repro.session import Session
from repro.utils.errors import SimulationError

TRIC_VOLUME_SCALES = [9, 11, 13]
#: The eviction-score policies compared, stock CLaMPI first.
POLICIES = {"default": None, "degree": AppScorePolicy,
            **dict(sorted(EXTENDED_POLICIES.items()))}


def measure(quick: bool) -> dict:
    """Every study's numbers.  ``quick`` runs the gated overlap and
    partition studies at half scale, the TriC volume study on the two
    smaller R-MAT scales and the rest at a quarter."""
    gated, scale = (0.5, 0.25) if quick else (1.0, 1.0)
    return {
        "overlap": overlap_sweep(gated),
        "partition": partition_sweep(gated),
        "tric_volume": tric_volume_sweep(
            TRIC_VOLUME_SCALES[:2] if quick else TRIC_VOLUME_SCALES),
        "adaptive": adaptive_sweep(scale),
        "disttc": disttc_sweep(scale),
        "distribution": distribution_sweep(scale),
        "score_policies": score_policy_sweep(scale),
        "seed_stability": seed_stability_sweep(scale),
    }


def render(section: dict) -> list[Table]:
    return [table(section[key]) for key, table in (
        ("overlap", overlap_table), ("partition", partition_table),
        ("adaptive", adaptive_table), ("disttc", disttc_table),
        ("tric_volume", tric_volume_table),
        ("distribution", distribution_table),
        ("score_policies", score_policy_table),
        ("seed_stability", seed_stability_table))]


def overlap_sweep(scale: float) -> dict:
    """``{node count: LCC time with double buffering on / off, and on/off}``."""
    g = load_dataset("rmat-s21-ef16", scale=scale, seed=SEED)
    out = {}
    for p in (4, 16, 64):
        on, off = (run_distributed_lcc(
            g, LCCConfig(nranks=p, threads=12, overlap=overlap)).time
            for overlap in (True, False))
        out[str(p)] = {"on_s": on, "off_s": off, "on_over_off": on / off}
    return out


def overlap_table(section: dict) -> Table:
    t = Table(["nodes", "overlap on (s)", "overlap off (s)", "gain"],
              title="Ablation: double buffering (Section III-A)")
    for p in sorted(section, key=int):
        row = section[p]
        t.add_row(p, round(row["on_s"], 4), round(row["off_s"], 4),
                  f"{(1 - row['on_over_off']):.1%}")
    return t


def partition_sweep(scale: float) -> dict:
    """``{node count: time, load imbalance and triangle count per 1D
    partitioning}``."""
    g = load_dataset("orkut", scale=scale, seed=SEED)
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


def partition_table(section: dict) -> Table:
    t = Table(["nodes", "block (s)", "cyclic (s)", "block imbalance",
               "cyclic imbalance"],
              title="Ablation: 1D block vs cyclic partitioning")
    for p in sorted(section, key=int):
        row = section[p]
        t.add_row(p, round(row["block_s"], 4), round(row["cyclic_s"], 4),
                  f"{row['block_imbalance']:.2%}",
                  f"{row['cyclic_imbalance']:.2%}")
    return t


def adaptive_sweep(scale: float) -> dict:
    """``{"off" / "on": C_adj at 25% of the adjacency with CLaMPI's adaptive
    hash-table tuning off / on: time, hit rate, flushes}``."""
    g = load_dataset("rmat-s20-ef16", scale=scale, seed=SEED)
    cap = max(4096, g.adjacency.nbytes // 4)
    out = {}
    for label, adaptive in (("off", None),
                            ("on", AdaptiveConfig(check_interval=1024))):
        res = run_distributed_lcc(g, LCCConfig(nranks=8, threads=12, cache=CacheSpec(
            offsets_bytes=0, adj_bytes=cap, adaptive=adaptive)))
        stats = res.adj_cache_stats
        out[label] = {"time_s": res.time, "hit_rate": stats["hit_rate"],
                      "flushes": stats["flushes"]}
    return out


def adaptive_table(section: dict) -> Table:
    t = Table(["C_adj slots seed", "adaptive", "time (s)", "hit rate",
               "resizes"],
              title="Ablation: adaptive hash-table tuning (Section III-B1)")
    for label in in_order(("off", "on"), section):
        row = section[label]
        t.add_row("heuristic", label, round(row["time_s"], 4),
                  f"{row['hit_rate']:.3f}", row["flushes"])
    return t


def disttc_sweep(scale: float) -> dict:
    """``{node count: DistTC's total, shadow-edge precompute and count time}``."""
    g = load_dataset("rmat-s21-ef16", scale=scale, seed=SEED)
    out = {}
    for p in (4, 16, 64):
        res = run_disttc(g, DistTCConfig(nranks=p))
        out[str(p)] = {"time_s": res.time,
                       "precompute_s": res.precompute_time,
                       "count_s": res.count_time}
    return out


def disttc_table(section: dict) -> Table:
    t = Table(["nodes", "total (s)", "precompute (s)", "count (s)",
               "precompute share"],
              title="Ablation: DistTC-style shadow-edge precompute")
    for p in sorted(section, key=int):
        row = section[p]
        t.add_row(p, round(row["time_s"], 4), round(row["precompute_s"], 4),
                  round(row["count_s"], 4),
                  f"{row['precompute_s'] / row['time_s']:.1%}")
    return t


def tric_volume_sweep(rmat_scales: list[int]) -> dict:
    """``{"scales": {R-MAT scale: wire words, their ratio, time ratio},
    "ratio_growth": largest scale's word ratio / smallest scale's}`` over
    ``rmat_scales``, a prefix of :data:`TRIC_VOLUME_SCALES`."""
    scales = {}
    for s in rmat_scales:
        g = rmat(s, 16, seed=SEED)
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


def tric_volume_table(section: dict) -> Table:
    """The quadratic-volume mechanism behind the paper's 100x claim."""
    t = Table(
        ["R-MAT scale", "async fetch words", "tric query words",
         "ratio", "tric/async time"],
        title=("Ablation: TriC wedge volume vs async fetch volume "
               "(grows with hub degree -> the paper's 100x at S21+)"),
    )
    scales = section["scales"]
    for label in in_order((f"S{s}" for s in TRIC_VOLUME_SCALES), scales):
        row = scales[label]
        t.add_row(label, row["async_words"], row["tric_words"],
                  f"{row['words_ratio']:.2f}", f"{row['time_ratio']:.1f}x")
    return t


def distribution_sweep(scale: float) -> dict:
    """1D vs 2D distribution for global TC (the paper's future-work
    direction i): ``{node count: time, remote gets and peers per rank of
    each}``; raises :class:`SimulationError` if the two counts differ."""
    g = load_dataset("rmat-s21-ef16", scale=scale, seed=SEED)
    out = {}
    for p in (16, 64):
        one = run_distributed_tc(g, LCCConfig(nranks=p, threads=12))
        two = run_distributed_tc_2d(g, LCCConfig(nranks=p, threads=12))
        if one.global_triangles != two.global_triangles:
            raise SimulationError(
                f"1D and 2D triangle counts differ at p={p}: "
                f"{one.global_triangles} vs {two.global_triangles}")
        out[str(p)] = {
            "time_1d_s": one.time, "time_2d_s": two.time,
            "gets_1d": one.outcome.total("n_remote_gets"),
            "gets_2d": two.outcome.total("n_remote_gets"),
            "peers_1d": communication_peers_1d(g, p),
            "peers_2d": communication_peers_2d(p)}
    return out


def distribution_table(section: dict) -> Table:
    t = Table(["nodes", "1D time (s)", "2D time (s)", "1D gets", "2D gets",
               "1D peers/rank", "2D peers/rank"],
              title="Ablation: 1D vs 2D distribution for global TC "
                    "(future work i)")
    for p in sorted(section, key=int):
        row = section[p]
        t.add_row(p, round(row["time_1d_s"], 4), round(row["time_2d_s"], 4),
                  row["gets_1d"], row["gets_2d"],
                  round(row["peers_1d"], 1), round(row["peers_2d"], 1))
    return t


def score_policy_sweep(scale: float) -> dict:
    """Extended eviction scores (future work iii): ``{policy: time, C_adj
    hit rate and evictions}`` with C_adj at 25% of the adjacency."""
    g = load_dataset("rmat-s20-ef16", scale=scale, seed=SEED)
    cap = max(4096, g.adjacency.nbytes // 4)
    config = LCCConfig(nranks=8, threads=12, cache=CacheSpec(
        offsets_bytes=0, adj_bytes=cap, score="default"))
    out = {}
    with Session(g, config) as session:
        for name, policy in POLICIES.items():
            # Fresh caches per policy; swap it in on every rank's C_adj.
            engine, dist, off_caches, adj_caches = session.resident_cluster()
            if policy is not None:
                for cache in adj_caches:
                    cache.config.score_policy = policy()
                    if cache.config.score_policy.uses_app_score:
                        cache.config.app_score_fn = degree_app_score
            res = execute_lcc(engine, dist, config, off_caches, adj_caches)
            stats = res.adj_cache_stats
            out[name] = {"time_s": res.time, "hit_rate": stats["hit_rate"],
                         "evictions": stats["capacity_evictions"]
                         + stats["conflict_evictions"]}
    return out


def score_policy_table(section: dict) -> Table:
    t = Table(["policy", "time (s)", "C_adj hit rate", "evictions"],
              title="Ablation: application-specific score policies "
                    "(future work iii), C_adj = 25% of adjacency")
    for name in in_order(POLICIES, section):
        row = section[name]
        t.add_row(name, round(row["time_s"], 4), f"{row['hit_rate']:.3f}",
                  row["evictions"])
    return t


def seed_stability_sweep(scale: float) -> dict:
    """LibLSB-style reporting: ``{node count: median LCC time and its 95% CI
    over the seeds}`` (paper IV-A).

    The simulator is deterministic per seed; across seeds the graph sample
    varies, which is the analogue of the paper's repeated executions.
    """
    out = {}
    for p in (8, 32):
        def run_one(s: int) -> float:
            g = load_dataset("rmat-s21-ef16", scale=scale, seed=s)
            return run_distributed_lcc(
                g, LCCConfig(nranks=p, threads=12)).time

        ci = repeat_over_seeds(run_one, seeds=range(7))
        out[str(p)] = {"median_s": ci.median, "lo_s": ci.lo, "hi_s": ci.hi,
                       "half_width_fraction": ci.half_width_fraction}
    return out


def seed_stability_table(section: dict) -> Table:
    t = Table(["config", "median time (s)", "95% CI", "CI half-width"],
              title="Measurement methodology: median and 95% CI over 7 seeds")
    for p in sorted(section, key=int):
        row = section[p]
        t.add_row(f"lcc p={p}", round(row["median_s"], 4),
                  f"[{row['lo_s']:.4f}, {row['hi_s']:.4f}]",
                  f"{row['half_width_fraction']:.1%}")
    return t
