"""Datapoint aggregation and added metrics (paper Sec. III-B, Fig. 2).

Raw datapoints are binned into fixed time windows on the ``tgen`` axis.
Per window:

- every feature is **averaged** over the window's datapoints;
- per non-time feature, the **slope** of Eq. (1) is added::

      slope_j = (x_j^end - x_j^start) / n

  where ``x^start``/``x^end`` are the first/last *raw* datapoints in the
  window and ``n`` the number of raw datapoints in it (the paper divides
  by the count, not the elapsed time — a discrete derivative whose
  denominator stretches with the sampling interval, which is deliberate:
  under overload fewer points land in a window, steepening the slope);
- the **inter-generation time** derived metric: the mean spacing of raw
  datapoints in the window (each raw point carries the interval that
  preceded it, so single-point windows remain well-defined);
- the **RTTF label**: fail-event time minus the window's mean ``tgen``.

Aggregation is vectorized with sorted-segment reductions
(``np.add.reduceat``): no Python loop over windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.datapoint import AGGREGATED_FEATURES
from repro.core.dataset import TrainingSet
from repro.core.history import DataHistory, RunRecord


@dataclass(frozen=True)
class AggregationConfig:
    """Aggregation parameters.

    window_seconds : the user-defined aggregation interval (paper Fig. 2).
    min_points : windows with fewer raw datapoints are dropped.
    include_non_crashed : whether truncated (never-failed) runs contribute
        datapoints. They have no fail event, so their RTTF labels would be
        lower bounds only; excluded by default, as in the paper where
        every run ends in a logged fail event.
    """

    window_seconds: float = 60.0
    min_points: int = 1
    include_non_crashed: bool = False

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.min_points < 1:
            raise ValueError(f"min_points must be >= 1, got {self.min_points}")


def aggregate_run(
    run: RunRecord, config: AggregationConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate one run into ``(X, rttf)``.

    ``X`` has columns :data:`~repro.core.datapoint.AGGREGATED_FEATURES`
    (15 window means + 14 slopes + gen_time); ``rttf`` is the remaining
    time to the run's fail event at each window's mean ``tgen``.
    """
    config = config or AggregationConfig()
    feats = run.features
    tgen = feats[:, 0]
    n_raw = feats.shape[0]

    # Inter-generation time per raw point: interval that preceded it.
    # The first point's interval is taken as its own tgen (time since start).
    intervals = np.empty(n_raw)
    intervals[0] = tgen[0]
    np.subtract(tgen[1:], tgen[:-1], out=intervals[1:])

    bins = np.floor_divide(tgen, config.window_seconds).astype(np.int64)
    # tgen is sorted, so bins are non-decreasing: segment boundaries are
    # the positions where the bin id changes. Computed once and shared by
    # every reduction below (this used to run np.unique three times).
    _, all_starts, all_counts = np.unique(bins, return_index=True, return_counts=True)
    keep = all_counts >= config.min_points
    starts, counts = all_starts[keep], all_counts[keep]
    if starts.size == 0:
        return np.empty((0, len(AGGREGATED_FEATURES))), np.empty(0)
    ends = starts + counts - 1

    # Window means of all 15 raw features (segment sums / counts).
    sums = np.add.reduceat(feats, all_starts, axis=0)[keep]
    means = sums / counts[:, None]

    # Eq. (1) slopes for all features except tgen.
    slopes = (feats[ends, 1:] - feats[starts, 1:]) / counts[:, None]

    # Mean inter-generation time per window.
    gen_sums = np.add.reduceat(intervals, all_starts)
    gen_time = (gen_sums[keep] / counts)[:, None]

    X = np.hstack([means, slopes, gen_time])
    rttf = run.fail_time - means[:, 0]  # means[:,0] is the window-mean tgen
    return X, rttf


def aggregate_history(
    history: DataHistory,
    config: AggregationConfig | None = None,
    *,
    sanitize: "str | None" = None,
    sanitize_config=None,
    quality=None,
) -> TrainingSet:
    """Aggregate every (crashed) run and stack into a :class:`TrainingSet`.

    ``sanitize`` routes the history through the
    :mod:`repro.core.sanitize` layer first: ``"strict"`` raises a located
    :class:`~repro.core.sanitize.DataQualityError` on dirty input (and is
    a guaranteed no-op on clean input — bit-identical output), ``"repair"``
    fixes/quarantines, ``"quarantine"`` drops offenders. Pass an existing
    :class:`~repro.core.sanitize.QualityReport` as ``quality`` to collect
    the decisions; ``None`` (default) skips sanitation entirely.
    """
    config = config or AggregationConfig()
    if sanitize is not None:
        from repro.core.sanitize import sanitize_history

        history, _ = sanitize_history(
            history, policy=sanitize, config=sanitize_config, quality=quality
        )
    blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    run_ids: list[np.ndarray] = []
    for i, run in enumerate(history):
        crashed = float(run.metadata.get("crashed", 1.0)) != 0.0
        if not crashed and not config.include_non_crashed:
            continue
        X, rttf = aggregate_run(run, config)
        if X.shape[0] == 0:
            continue
        blocks.append(X)
        labels.append(rttf)
        run_ids.append(np.full(X.shape[0], i, dtype=np.int64))
    if not blocks:
        raise ValueError(
            "aggregation produced no datapoints; check window size and "
            "crash flags"
        )
    return TrainingSet(
        X=np.vstack(blocks),
        y=np.concatenate(labels),
        feature_names=AGGREGATED_FEATURES,
        run_ids=np.concatenate(run_ids),
    )
