"""Table III — model training time.

Paper shape: the SVM variants train orders of magnitude slower than the
linear/tree methods (SMO iterations over a dense kernel matrix vs a
closed-form solve or a greedy tree build), and the Lasso-selected
training sets train uniformly faster than the all-parameters sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import F2PM, F2PMResult
from repro.experiments.common import default_f2pm_config, default_history


@dataclass
class Table3Result:
    result: F2PMResult

    def train_time(self, name: str, feature_set: str = "all") -> float:
        return self.result.report(name, feature_set).train_time

    def table(self) -> str:
        return self.result.training_time_table()

    def manifest(self) -> dict:
        """Provenance manifest for the Table III artefact."""
        from repro.experiments.common import driver_manifest

        return driver_manifest("table3_training_time", self.result)


def run(f2pm: F2PMResult | None = None, verbose: bool = True) -> Table3Result:
    """Read *f2pm* (default: run F2PM on the shared campaign)."""
    if f2pm is None:
        f2pm = F2PM(default_f2pm_config()).run(default_history())
    result = Table3Result(result=f2pm)
    if verbose:
        print(result.table())
    return result


if __name__ == "__main__":
    run()
