"""Estimator protocol shared by every learner in :mod:`repro.ml`.

All learners follow the fit/predict convention:

- hyper-parameters are constructor arguments stored verbatim on ``self``;
- ``fit(X, y)`` learns state into attributes suffixed with ``_`` and
  returns ``self``;
- ``predict(X)`` maps an ``(n, p)`` matrix to an ``(n,)`` vector;
- ``get_params()`` / ``clone()`` allow re-instantiating an unfitted copy,
  which the F2PM model zoo and cross-validation rely on.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.utils.validation import check_X_y


class Regressor(ABC):
    """Abstract base class for all regression learners."""

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Regressor":
        """Learn model state from ``(n, p)`` features and ``(n,)`` targets."""

    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``(n, p)`` features."""

    # -- parameter plumbing -------------------------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        """Constructor argument names, introspected from ``__init__``."""
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict[str, Any]:
        """Return the hyper-parameters this estimator was constructed with."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "Regressor":
        """Update hyper-parameters in place; unknown names raise."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    # -- convenience ---------------------------------------------------------

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2 on the given data."""
        from repro.ml.metrics import r2_score

        X, y = check_X_y(X, y)
        return r2_score(y, self.predict(X))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def solver_converged(model: Regressor) -> bool:
    """False when the model's iterative solver stopped at its cap.

    Wrappers (``inner_``) are looked through. ``converged_`` is read with
    ``getattr``, so models pickled before the flag existed, and learners
    without an iterative solver, count as converged.
    """
    inner = getattr(model, "inner_", None)
    if inner is not None:
        return solver_converged(inner)
    return bool(getattr(model, "converged_", True))


def clone(estimator: Regressor) -> Regressor:
    """Return a new unfitted estimator with the same hyper-parameters."""
    return type(estimator)(**estimator.get_params())
