"""Rejuvenation policies: when to force the system to a clean state.

A policy is consulted once per completed aggregation window with the
window's 30-column feature row (the same schema F2PM trains on) and the
current run age; it answers whether to rejuvenate *now*.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.ml.base import Regressor


class RejuvenationPolicy(ABC):
    """Decides, per completed monitoring window, whether to restart."""

    @abstractmethod
    def should_rejuvenate(self, window_row: np.ndarray, run_age: float) -> bool:
        """True to trigger a planned restart now.

        Parameters
        ----------
        window_row : (30,) aggregated feature row of the just-completed
            window (``AGGREGATED_FEATURES`` order).
        run_age : float
            Seconds since the current episode started.
        """

    def time_trigger(self, run_age: float) -> bool:
        """Purely time-based trigger, independent of the monitor stream.

        The controller evaluates this every tick, so a wedged monitor (or
        a sanitizer dropping every sample before the first window
        completes) cannot starve a time-based policy. Stream-driven
        policies return False here and act through
        :meth:`should_rejuvenate` instead.
        """
        return False

    def reset(self) -> None:
        """Called after every restart (planned or crash)."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NoRejuvenation(RejuvenationPolicy):
    """Crash-only baseline: never restart proactively."""

    def should_rejuvenate(self, window_row: np.ndarray, run_age: float) -> bool:
        return False

    @property
    def name(self) -> str:
        return "none"


class PeriodicRejuvenation(RejuvenationPolicy):
    """Classic time-based rejuvenation: restart every ``interval`` seconds.

    The standard pre-F2PM practice (Kolettis & Fulton): robust but blind —
    the interval must be tuned to the *worst-case* anomaly rate, wasting
    useful life on mild runs and still crashing on severe ones.
    """

    def __init__(self, interval_seconds: float) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.interval_seconds = interval_seconds

    def should_rejuvenate(self, window_row: np.ndarray, run_age: float) -> bool:
        return run_age >= self.interval_seconds

    def time_trigger(self, run_age: float) -> bool:
        return run_age >= self.interval_seconds

    @property
    def name(self) -> str:
        return f"periodic({self.interval_seconds:.0f}s)"


class PredictiveRejuvenation(RejuvenationPolicy):
    """F2PM-driven policy: restart when the predicted RTTF drops below a
    margin for ``consecutive`` windows in a row.

    The consecutive-window debounce guards against single-window
    prediction spikes (the model's error far from failure is large —
    paper Fig. 5 — so a lone pessimistic prediction early in a run should
    not trigger a restart).

    Parameters
    ----------
    model : a fitted F2PM regressor (30-feature input).
    rttf_margin : float
        Restart when predicted RTTF < this many seconds.
    consecutive : int
        Number of consecutive sub-margin predictions required.
    feature_indices : optional column subset if the model was trained on
        a Lasso-selected feature set.
    lower_bound_quantile : if set and the model exposes
        ``predict_interval`` (e.g. :class:`~repro.ml.ensemble.BaggingRegressor`),
        act on the lower RTTF bound at this quantile instead of the mean
        prediction — a conservative variant that restarts earlier when
        the ensemble disagrees.
    """

    def __init__(
        self,
        model: Regressor,
        rttf_margin: float,
        consecutive: int = 2,
        feature_indices: "np.ndarray | None" = None,
        lower_bound_quantile: "float | None" = None,
    ) -> None:
        if rttf_margin <= 0:
            raise ValueError(f"rttf_margin must be positive, got {rttf_margin}")
        if consecutive < 1:
            raise ValueError(f"consecutive must be >= 1, got {consecutive}")
        if lower_bound_quantile is not None:
            if not 0.0 < lower_bound_quantile < 0.5:
                raise ValueError(
                    f"lower_bound_quantile must be in (0, 0.5), got "
                    f"{lower_bound_quantile}"
                )
            if not hasattr(model, "predict_interval"):
                raise ValueError(
                    "lower_bound_quantile requires a model exposing "
                    "predict_interval (e.g. BaggingRegressor)"
                )
        self.model = model
        self.rttf_margin = rttf_margin
        self.consecutive = consecutive
        self.feature_indices = feature_indices
        self.lower_bound_quantile = lower_bound_quantile
        self._streak = 0
        #: Mean RTTF prediction of the most recent consult.
        self.last_prediction: float | None = None
        #: Lower RTTF bound of the most recent consult, when
        #: ``lower_bound_quantile`` is set (else None). The *bound* drives
        #: the trigger; the *mean* is what telemetry and episode logs
        #: report — conflating the two would bias every predicted-vs-truth
        #: series by the ensemble spread.
        self.last_lower_bound: float | None = None

    def should_rejuvenate(self, window_row: np.ndarray, run_age: float) -> bool:
        row = np.asarray(window_row, dtype=np.float64)
        if self.feature_indices is not None:
            row = row[self.feature_indices]
        if self.lower_bound_quantile is not None:
            lower, mean, _ = self.model.predict_interval(
                row[None, :], self.lower_bound_quantile
            )
            acted = float(lower[0])
            self.last_prediction = float(mean[0])
            self.last_lower_bound = acted
        else:
            acted = float(self.model.predict(row[None, :])[0])
            self.last_prediction = acted
            self.last_lower_bound = None
        if acted < self.rttf_margin:
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.consecutive

    def reset(self) -> None:
        self._streak = 0
        self.last_prediction = None
        self.last_lower_bound = None

    @property
    def name(self) -> str:
        return f"predictive(margin={self.rttf_margin:.0f}s)"
