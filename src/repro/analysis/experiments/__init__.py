"""One module per table/figure of the paper's evaluation section.

Every module exposes ``run(scale=1.0, seed=0, fast=False) -> list[Table]``
and can be executed directly (``python -m
repro.analysis.experiments.exp_fig9``).  Modules that carry a gated claim
split ``run`` in two: ``sweep(...)`` measures and returns plain numbers
(JSON-ready, string keys), ``run`` formats them — so the ``paper`` bench
suite (:mod:`repro.analysis.paper`) gates the very measurement the table
prints and nothing reads a rendered cell back.  ``fast=True`` trims the
sweep for smoke tests and ``--quick`` bench runs; the defaults are the
full-size sweeps.
"""

from repro.analysis.experiments import (  # noqa: F401
    exp_fig1,
    exp_fig4,
    exp_fig5,
    exp_fig6,
    exp_fig7,
    exp_fig8,
    exp_fig9,
    exp_fig10,
    exp_table2,
    exp_table3,
    exp_ablations,
)

ALL_EXPERIMENTS = {
    "table2": exp_table2,
    "table3": exp_table3,
    "fig1": exp_fig1,
    "fig4": exp_fig4,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
    "fig10": exp_fig10,
    "ablations": exp_ablations,
}
