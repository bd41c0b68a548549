"""Table IV — model validation time.

Time to predict the validation set and compute the error metrics. Paper
shape: all methods validate in fractions of a second, and validation on
Lasso-selected features is uniformly cheaper than on all parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import F2PM, F2PMResult
from repro.experiments.common import default_f2pm_config, default_history


@dataclass
class Table4Result:
    result: F2PMResult

    def validation_time(self, name: str, feature_set: str = "all") -> float:
        return self.result.report(name, feature_set).validation_time

    @property
    def all_sub_second(self) -> bool:
        """Paper shape: validation is fast (sub-second) for every model."""
        return all(r.validation_time < 1.0 for r in self.result.reports)

    def table(self) -> str:
        return self.result.validation_time_table()

    def manifest(self) -> dict:
        """Provenance manifest for the Table IV artefact."""
        from repro.experiments.common import driver_manifest

        return driver_manifest("table4_validation_time", self.result)


def run(f2pm: F2PMResult | None = None, verbose: bool = True) -> Table4Result:
    """Read *f2pm* (default: run F2PM on the shared campaign)."""
    if f2pm is None:
        f2pm = F2PM(default_f2pm_config()).run(default_history())
    result = Table4Result(result=f2pm)
    if verbose:
        print(result.table())
    return result


if __name__ == "__main__":
    run()
