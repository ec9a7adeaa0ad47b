"""The paper's evaluation section, one record per table or figure.

Each ``exp_*`` module is one experiment: ``measure(quick) -> dict`` runs
it and returns plain numbers (JSON-ready, string keys), ``render(section)
-> list[Table]`` formats exactly those numbers.  :data:`EXPERIMENTS`
declares the records in print order, each with the dotted ``section`` its
numbers occupy in the ``paper`` bench report.  ``repro bench paper``
(:mod:`repro.analysis.paper`) is the only caller of ``measure``; the
runner (:mod:`repro.analysis.runner`) renders the tables from the report,
so a table and its gate row share one measurement.  Every graph is drawn
with :data:`SEED`; ``quick`` selects each experiment's CI sizes.  Rows
never follow the report's key order (it is written sorted): numeric keys
sort as numbers, the rest follow their module's declared lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.analysis.tables import Table

#: The graph seed of every experiment (only the seed-stability ablation
#: varies it).
SEED = 0


@dataclass(frozen=True)
class Experiment:
    """One table or figure: where its numbers live and how it shows them."""

    name: str
    #: Dotted key path of the experiment's numbers in the ``paper`` report.
    section: str
    measure: Callable[[bool], dict]
    render: Callable[[Mapping[str, Any]], list[Table]]

    def read(self, report: Mapping[str, Any]) -> Any:
        """This experiment's section of ``report`` (``None`` if absent)."""
        node: Any = report
        for key in self.section.split("."):
            if not isinstance(node, Mapping):
                return None
            node = node.get(key)
        return node


# The modules import SEED from this package, so they load after it.
from repro.analysis.experiments import (  # noqa: E402
    exp_ablations, exp_fig1, exp_fig4, exp_fig5, exp_fig6, exp_fig7, exp_fig8,
    exp_fig9, exp_fig10, exp_table2, exp_table3,
)

EXPERIMENTS = tuple(
    Experiment(name, section, module.measure, module.render)
    for name, section, module in (
        ("table2", "table2", exp_table2),
        ("table3", "table3", exp_table3),
        ("fig1", "fig1", exp_fig1),
        ("fig4", "fig4", exp_fig4),
        ("fig5", "fig5", exp_fig5),
        ("fig6", "fig6", exp_fig6),
        ("fig7", "fig7", exp_fig7),
        ("fig8", "fig8", exp_fig8),
        ("fig9", "scaling.fig9", exp_fig9),
        ("fig10", "scaling.fig10", exp_fig10),
        ("ablations", "ablations", exp_ablations),
    ))
