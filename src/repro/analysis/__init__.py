"""Experiment harness: data-reuse analytics, sweeps, and the per-figure
reproduction records.

Every table and figure of the paper's evaluation section is one record of
:data:`repro.analysis.experiments.EXPERIMENTS`; ``python -m repro bench
paper`` measures them all once into ``BENCH_paper.json`` and gates the
claims they carry (:mod:`repro.analysis.paper`), and ``python -m
repro.analysis.runner`` renders the paper-style tables from that report.
"""

from repro.analysis.tables import Table
from repro.analysis.reuse import (
    remote_read_counts,
    repetition_histogram,
    top_degree_read_share,
)
from repro.analysis.statistics import MedianCI, median_ci, repeat_over_seeds

__all__ = [
    "Table",
    "remote_read_counts",
    "repetition_histogram",
    "top_degree_read_share",
    "MedianCI",
    "median_ci",
    "repeat_over_seeds",
]
