"""Lasso-regularization feature selection (paper Sec. III-C).

For each lambda in a user grid (the paper sweeps 10^0 .. 10^9), the Lasso
of Eq. (2) is fitted to the aggregated training set; features whose beta
weight is exactly zero are filtered out. Larger lambdas zero out more —
and the survivors at large lambda are the features with the most weight
in predicting the RTTF (in the paper: memory/swap quantities and their
slopes, Table I).

The whole grid is read off one exact LARS-Lasso homotopy
(:func:`~repro.ml.lasso.lasso_path`): a weight is zero because
its feature is off the path, never because a solver stopped near zero.
The fit also audits the design matrix (:class:`DesignAudit`): its rank
and the exact linear dependencies among its columns, which decide which
of several interchangeable columns a selection can name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import TrainingSet
from repro.ml.lasso import lasso_path, span_audit
from repro.obs import get_logger, kv, span

_log = get_logger("core.feature_selection")

#: Names the selection algorithm inside the fingerprints of stored
#: results that depend on the selected set (campaign reports); a store
#: filled by another algorithm then misses instead of serving its sets.
SELECTION_SOLVER = "lars-lasso"


def default_lambda_grid() -> np.ndarray:
    """The paper's grid: powers of ten from 10^0 to 10^9."""
    return np.logspace(0, 9, 10)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of Lasso regularization at one lambda."""

    lam: float
    feature_names: tuple[str, ...]
    weights: np.ndarray  # full-length beta, zeros included
    #: False when the path's knot cap stopped it above this lambda.
    converged: bool = True

    @property
    def selected(self) -> tuple[str, ...]:
        """Names of features with non-zero weight."""
        return tuple(
            name
            for name, w in zip(self.feature_names, self.weights)
            if w != 0.0
        )

    @property
    def n_selected(self) -> int:
        return int(np.count_nonzero(self.weights))

    @property
    def count_label(self) -> str:
        """``n_selected`` as a Fig. 4 cell, marked when the path was capped."""
        return str(self.n_selected) if self.converged else f"{self.n_selected} (capped)"

    def weight_table(self) -> list[tuple[str, float]]:
        """(name, weight) pairs of the surviving features, paper Table I
        style, ordered by descending absolute weight."""
        pairs = [
            (name, float(w))
            for name, w in zip(self.feature_names, self.weights)
            if w != 0.0
        ]
        pairs.sort(key=lambda kv: abs(kv[1]), reverse=True)
        return pairs


@dataclass(frozen=True)
class DesignAudit:
    """Rank and exact linear dependencies of the centred design matrix.

    ``dependencies`` lists each dependent column in feature order with
    its combination of earlier independent columns, ``((name, w), ...)``
    meaning ``x_k - mean_k = sum w * (x_j - mean_j)``; a constant column
    has the empty combination. The span test is the selection solver's
    (:func:`~repro.ml.lasso.span_audit`).
    """

    n_features: int
    rank: int
    dependencies: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]

    @classmethod
    def of(cls, dataset: TrainingSet) -> "DesignAudit":
        rank, deps = span_audit(dataset.X)
        names = dataset.feature_names
        return cls(
            n_features=dataset.n_features,
            rank=rank,
            dependencies=tuple(
                (names[k], tuple((names[j], w) for j, w in comb))
                for k, comb in deps
            ),
        )

    def relations(self) -> list[str]:
        """One line per dependent column, e.g. ``swap_free = -1*swap_used``."""
        return [
            f"{name} = " + " ".join(f"{w:+.6g}*{b}" for b, w in comb).lstrip("+")
            if comb else f"{name} is constant"
            for name, comb in self.dependencies
        ]

    def stands_for(self, name: str) -> tuple[str, ...]:
        """Dependent columns whose combination uses *name*."""
        return tuple(
            dep for dep, comb in self.dependencies if any(b == name for b, _ in comb)
        )

    def to_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "rank": self.rank,
            "dependencies": {name: dict(comb) for name, comb in self.dependencies},
        }


class LassoFeatureSelector:
    """Runs the regularization path and exposes per-lambda selections.

    Parameters
    ----------
    lambda_grid : array of lambdas (default: the paper's 10^0..10^9).
    normalize : fit on standardized features (weights are reported on the
        *original* scale either way). The paper fits raw features — its
        Table I weights are ~1e-4 because memory features are in KB — so
        the default is False.
    max_iter : cap on the homotopy's knots.

    Attributes (after ``fit``)
    --------------------------
    results_ : one :class:`SelectionResult` per grid lambda.
    audit_ : the design matrix's :class:`DesignAudit`.
    """

    def __init__(
        self,
        lambda_grid: np.ndarray | None = None,
        *,
        normalize: bool = False,
        max_iter: int = 2000,
    ) -> None:
        self.lambda_grid = (
            default_lambda_grid() if lambda_grid is None else np.asarray(lambda_grid, dtype=np.float64)
        )
        if self.lambda_grid.ndim != 1 or self.lambda_grid.size == 0:
            raise ValueError("lambda_grid must be a non-empty 1-D array")
        self.normalize = normalize
        self.max_iter = max_iter
        self.results_: list[SelectionResult] | None = None
        self.audit_: DesignAudit | None = None

    def fit(self, dataset: TrainingSet) -> "LassoFeatureSelector":
        """Fit the full regularization path on *dataset*."""
        with span(
            "lasso_path",
            n_lambdas=int(self.lambda_grid.size),
            n_samples=dataset.n_samples,
            n_features=dataset.n_features,
        ) as sp:
            path = lasso_path(
                dataset.X,
                dataset.y,
                self.lambda_grid,
                normalize=self.normalize,
                max_iter=self.max_iter,
            )
            self.results_ = [
                SelectionResult(
                    lam=float(lam),
                    feature_names=dataset.feature_names,
                    weights=path.coefs[i],
                    converged=bool(path.converged[i]),
                )
                for i, lam in enumerate(self.lambda_grid)
            ]
            self.audit_ = DesignAudit.of(dataset)
            sp.set(nonzero_max=max(r.n_selected for r in self.results_))
        _log.info(
            "lasso path fitted %s",
            kv(
                n_lambdas=int(self.lambda_grid.size),
                n_samples=dataset.n_samples,
                n_features=dataset.n_features,
                counts=",".join(str(r.n_selected) for r in self.results_),
            ),
        )
        return self

    def _require_fit(self) -> list[SelectionResult]:
        if self.results_ is None:
            raise RuntimeError("selector is not fitted; call fit() first")
        return self.results_

    def selection_counts(self) -> list[tuple[float, int]]:
        """(lambda, #selected) pairs — the series of the paper's Fig. 4."""
        return [(r.lam, r.n_selected) for r in self._require_fit()]

    def result_at(self, lam: float) -> SelectionResult:
        """The selection at the grid lambda closest to *lam*."""
        results = self._require_fit()
        best = min(results, key=lambda r: abs(np.log10(max(r.lam, 1e-300)) - np.log10(max(lam, 1e-300))))
        return best

    def strongest_with_at_least(self, min_features: int) -> SelectionResult:
        """The largest-lambda selection retaining >= *min_features*.

        The paper's Table I operating point (lambda = 10^9) kept six
        features; this picks the analogous point on *this* data's path:
        maximal shrinkage subject to a floor on the surviving set size.
        Falls back to the least-shrunk selection if no lambda satisfies
        the floor.
        """
        if min_features < 1:
            raise ValueError(f"min_features must be >= 1, got {min_features}")
        results = sorted(self._require_fit(), key=lambda r: r.lam, reverse=True)
        for r in results:
            if r.n_selected >= min_features:
                return r
        candidate = max(results, key=lambda r: r.n_selected)
        if candidate.n_selected == 0:
            raise ValueError("every lambda in the grid zeroes out all features")
        return candidate

    def strongest_nonempty(self) -> SelectionResult:
        """The largest-lambda selection that still retains >= 1 feature.

        This is the paper's Table I operating point (lambda = 10^9 there):
        maximal shrinkage short of the empty model.
        """
        results = sorted(self._require_fit(), key=lambda r: r.lam, reverse=True)
        for r in results:
            if r.n_selected > 0:
                return r
        raise ValueError("every lambda in the grid zeroes out all features")
