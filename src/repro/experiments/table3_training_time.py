"""Table III — model training time.

Paper shape: the SVM variants train orders of magnitude slower than the
linear/tree methods (SMO iterations over a dense kernel matrix vs a
closed-form solve or a greedy tree build), and the Lasso-selected
training sets train uniformly faster than the all-parameters sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import DataHistory, F2PMResult
from repro.experiments.common import default_history, run_f2pm_cached


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


def run(history: DataHistory | None = None, verbose: bool = True) -> Table3Result:
    if history is None:
        history = default_history()
    result = Table3Result(result=run_f2pm_cached(history))
    if verbose:
        print(result.table())
    return result


if __name__ == "__main__":
    run()
