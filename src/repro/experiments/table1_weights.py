"""Table I — features and weights at the strongest selection point.

The paper reports the six features surviving at lambda = 10^9 with their
beta weights: exclusively memory/swap quantities and slopes ("slopes play
an important role ... memory is a predominant factor"). Absolute weights
differ between testbeds; the reproducible claim is *which kinds* of
features survive maximal shrinkage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import AggregationConfig, DataHistory, LassoFeatureSelector, aggregate_history
from repro.core.feature_selection import DesignAudit, SelectionResult
from repro.experiments.common import EXPERIMENT_WINDOW, default_history
from repro.utils.tables import render_table

#: Feature-name fragments counting as "memory-related" for the shape check.
MEMORY_MARKERS = ("mem_", "swap_")


@dataclass
class Table1Result:
    selection: SelectionResult
    #: The design matrix's exact dependencies: a surviving column also
    #: stands for the dependent columns defined through it.
    audit: DesignAudit

    @property
    def memory_dominated(self) -> bool:
        """True when >= half of the surviving features are memory/swap."""
        selected = self.selection.selected
        n_mem = sum(
            1 for name in selected if any(m in name for m in MEMORY_MARKERS)
        )
        return n_mem * 2 >= len(selected)

    def table(self) -> str:
        rows = [
            [name, f"{w:+.15f}", ", ".join(self.audit.stands_for(name)) or "-"]
            for name, w in self.selection.weight_table()
        ]
        capped = "" if self.selection.converged else " (capped)"
        return render_table(
            ("parameter", "weight", "stands for"),
            rows,
            title=(
                f"Table I — weights at lambda = {self.selection.lam:.0e}{capped} "
                f"(design rank {self.audit.rank} of {self.audit.n_features})"
            ),
        )

    def manifest(self) -> dict:
        """Provenance manifest for the Table I artefact."""
        from repro.experiments.common import driver_manifest

        return driver_manifest(
            "table1_weights",
            extra={
                "lambda": self.selection.lam,
                "weights": {
                    name: w for name, w in self.selection.weight_table()
                },
                "memory_dominated": self.memory_dominated,
            },
        )


def run(
    history: DataHistory | None = None,
    verbose: bool = True,
    min_features: int = 6,
) -> Table1Result:
    if history is None:
        history = default_history()
    dataset = aggregate_history(
        history, AggregationConfig(window_seconds=EXPERIMENT_WINDOW)
    )
    selector = LassoFeatureSelector().fit(dataset)
    selection = selector.strongest_with_at_least(min_features)
    result = Table1Result(selection=selection, audit=selector.audit_)
    if verbose:
        print(result.table())
        print(f"memory/swap-dominated selection: {result.memory_dominated}")
    return result


if __name__ == "__main__":
    run()
