"""Experiment harness: data-reuse analytics, sweeps, and the per-figure
reproduction scripts.

Every table and figure of the paper's evaluation section has a module in
:mod:`repro.analysis.experiments`; ``python -m repro.analysis.runner --all``
regenerates them all and prints paper-style tables; ``python -m repro bench
paper`` gates the claims they carry (:mod:`repro.analysis.paper`).
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
