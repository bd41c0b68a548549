"""Telemetry sanitize/repair layer (dirty production data -> clean pipeline input).

F2PM trains on *real* monitoring streams, and real streams are dirty:
NaN cells from a crashed exporter, gaps from a wedged monitor, duplicated
rows from an at-least-once transport, out-of-order delivery, NTP clock
resets, runs truncated before their fail event, unit-scale glitches from
a misconfigured collector. Before this layer, those all flowed silently
into training (``float("nan")`` parses!) and poisoned the models.

Every entry point takes a **policy**:

``strict``
    Raise :class:`DataQualityError` on the first category of defect
    found, with a per-cell located diagnostic for every offending value.
    On clean data, strict mode is a guaranteed no-op: the input objects
    flow through *unchanged* (bit-identical fingerprints).
``repair``
    Fix what can be fixed deterministically — interpolate non-finite
    cells, re-sort bounded reordering, de-duplicate, re-base clock
    resets, clamp a too-early fail time — and quarantine what cannot.
    Every decision lands in a :class:`QualityReport` and in the
    ``sanitize.*`` obs counters.
``quarantine``
    Drop offending rows (or, for run-level defects, whole runs) instead
    of repairing them.

The defect catalogue mirrors :mod:`repro.faults` one-to-one; the fault
harness exists to prove this layer converts any of its corruptions into
either a located diagnostic or a finite, ordered, fully-labelled
training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from repro.core.datapoint import FEATURES
from repro.core.history import DataHistory, RunRecord
from repro.obs import get_logger, get_metrics, kv

_log = get_logger("core.sanitize")

#: The three sanitize policies.
STRICT = "strict"
REPAIR = "repair"
QUARANTINE = "quarantine"
POLICIES: tuple[str, ...] = (STRICT, REPAIR, QUARANTINE)

#: Defect catalogue (kinds appearing in issues, reports and metrics).
KINDS: tuple[str, ...] = (
    "bad_timestamp",  # non-finite or negative tgen
    "clock_reset",  # tgen jumps backwards past the reset threshold
    "out_of_order",  # tgen not sorted (bounded reordering)
    "duplicate_row",  # an exact copy of an earlier datapoint
    "non_finite",  # NaN/inf in a feature or response-time cell
    "unit_scale",  # transient scale glitch (cell off by a large factor)
    "gap",  # sampling gap far beyond the run's median interval
    "truncated_run",  # fail event far beyond the last datapoint
    "fail_time",  # fail event before the last datapoint / non-finite
)


def as_policy(value: str) -> str:
    """Validate and normalize a policy name."""
    policy = str(value).strip().lower()
    if policy not in POLICIES:
        raise ValueError(f"unknown sanitize policy {value!r}; choose from {POLICIES}")
    return policy


@dataclass(frozen=True)
class SanitizeConfig:
    """Detection thresholds (defaults calibrated to never fire on clean
    simulator output, whose worst gap ratio is ~5x and worst fail-event
    gap is ~3x the median sampling interval).

    Attributes
    ----------
    clock_reset_fraction : a backwards tgen jump landing below this
        fraction of the running maximum is a clock reset (anything
        shallower is bounded reordering).
    min_reset_drop : a reset must also drop by at least this many median
        intervals, so adjacent-sample swaps never classify as resets.
    max_gap_factor : sampling gaps beyond ``factor x median interval``
        are flagged (``None`` disables gap detection).
    scale_glitch_factor : a cell exceeding both neighbours by this factor
        (or undercutting both by it) is a transient unit-scale glitch.
    scale_abs_floor : only cells whose magnitude (or whose neighbours'
        magnitude, for dips) exceeds this are glitch candidates — keeps
        noisy near-zero CPU percentages out of the detector.
    truncation_factor : a crashed run whose fail event trails the last
        datapoint by more than ``factor x median interval`` is flagged
        as truncated (``None`` disables).
    max_quarantine_fraction : in ``repair`` mode, a run losing more than
        this fraction of its rows is quarantined outright.
    """

    clock_reset_fraction: float = 0.5
    min_reset_drop: float = 4.0
    max_gap_factor: "float | None" = 50.0
    scale_glitch_factor: float = 64.0
    scale_abs_floor: float = 1024.0
    truncation_factor: "float | None" = 25.0
    max_quarantine_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.clock_reset_fraction < 1.0:
            raise ValueError("clock_reset_fraction must be in (0, 1)")
        if self.scale_glitch_factor <= 1.0:
            raise ValueError("scale_glitch_factor must be > 1")
        if not 0.0 < self.max_quarantine_fraction <= 1.0:
            raise ValueError("max_quarantine_fraction must be in (0, 1]")


@dataclass(frozen=True)
class CellIssue:
    """One located data-quality decision."""

    kind: str  # one of KINDS
    action: str  # "repaired" | "quarantined_row" | "quarantined_run" | "noted" | "raised"
    run_index: int
    row: "int | None" = None  # input-order row index within the run
    column: "str | None" = None
    value: "float | None" = None
    detail: str = ""
    label: "str | None" = None  # e.g. a source file path
    row_base: int = 0  # offset mapping row -> human line number

    @property
    def location(self) -> str:
        where = f"run {self.run_index}"
        if self.label is not None:
            where = self.label
        if self.row is not None:
            sep = ":" if self.label is not None else ", row "
            where += f"{sep}{self.row + self.row_base}"
        if self.column is not None:
            where += f", column {self.column}"
        return where

    @property
    def message(self) -> str:
        return f"{self.location}: {self.detail} [{self.kind} -> {self.action}]"


class DataQualityError(ValueError):
    """Strict-mode rejection carrying every located diagnostic."""

    def __init__(self, issues: list[CellIssue]) -> None:
        self.issues = list(issues)
        shown = [i.message for i in self.issues[:8]]
        extra = len(self.issues) - len(shown)
        if extra > 0:
            shown.append(f"... and {extra} more")
        super().__init__(
            f"{len(self.issues)} data-quality issue(s):\n  " + "\n  ".join(shown)
        )


@dataclass
class RunQualityReport:
    """Sanitize outcome for one run."""

    run_index: int
    n_rows_in: int = 0
    n_rows_out: int = 0
    quarantined: bool = False
    issues: list[CellIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def count(self, kind: "str | None" = None, action: "str | None" = None) -> int:
        return sum(
            1
            for i in self.issues
            if (kind is None or i.kind == kind)
            and (action is None or i.action == action)
        )


@dataclass
class QualityReport:
    """Sanitize outcome for a whole history/campaign."""

    policy: str = REPAIR
    runs: list[RunQualityReport] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.runs)

    @property
    def issues(self) -> list[CellIssue]:
        return [i for r in self.runs for i in r.issues]

    @property
    def n_runs_quarantined(self) -> int:
        return sum(1 for r in self.runs if r.quarantined)

    def count(self, kind: "str | None" = None, action: "str | None" = None) -> int:
        return sum(r.count(kind, action) for r in self.runs)

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return out

    def add(self, run_report: RunQualityReport) -> None:
        self.runs.append(run_report)

    def to_dict(self) -> dict:
        """JSON-ready summary (the quality-report schema of ROBUSTNESS.md)."""
        return {
            "schema": "f2pm-quality-report-v1",
            "policy": self.policy,
            "clean": self.clean,
            "n_runs": len(self.runs),
            "n_runs_quarantined": self.n_runs_quarantined,
            "counts_by_kind": self.counts_by_kind(),
            "runs": [
                {
                    "run_index": r.run_index,
                    "rows_in": r.n_rows_in,
                    "rows_out": r.n_rows_out,
                    "quarantined": r.quarantined,
                    "issues": [
                        {
                            "kind": i.kind,
                            "action": i.action,
                            "row": i.row,
                            "column": i.column,
                            "value": None
                            if i.value is None or not np.isfinite(i.value)
                            else float(i.value),
                            "message": i.message,
                        }
                        for i in r.issues
                    ],
                }
                for r in self.runs
            ],
        }

    def summary(self) -> str:
        if self.clean:
            return f"quality: clean ({len(self.runs)} runs, policy={self.policy})"
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.counts_by_kind().items()))
        return (
            f"quality: {len(self.issues)} issue(s) across {len(self.runs)} runs "
            f"(policy={self.policy}; {kinds}; "
            f"{self.n_runs_quarantined} run(s) quarantined)"
        )


# -- array-level sanitizer ---------------------------------------------------------


def _record(report: RunQualityReport, issue: CellIssue) -> None:
    report.issues.append(issue)
    metrics = get_metrics()
    metrics.inc(f"sanitize.issues_total.{issue.kind}")
    metrics.inc(f"sanitize.actions_total.{issue.action}")
    if issue.column is not None:
        # Per-cell (per-feature-column) repair accounting: the basis of
        # the repair-rate series the telemetry layer exposes. Bounded:
        # 15 feature columns x a handful of actions.
        metrics.inc(f"sanitize.cell_actions_total.{issue.action}.col{issue.column}")
    _log.debug("issue %s", kv(kind=issue.kind, action=issue.action, at=issue.location))


def sanitize_arrays(
    features: np.ndarray,
    response_times: "np.ndarray | None" = None,
    fail_time: "float | None" = None,
    *,
    crashed: bool = True,
    policy: str = REPAIR,
    config: "SanitizeConfig | None" = None,
    run_index: int = 0,
    label: "str | None" = None,
    row_base: int = 0,
) -> "tuple[np.ndarray, np.ndarray | None, float | None, bool, RunQualityReport]":
    """Sanitize one run's raw arrays.

    Returns ``(features, response_times, fail_time, crashed, report)``.
    A quarantined run comes back with ``report.quarantined`` set and zero
    output rows. ``fail_time=None`` means "resolve to the last datapoint
    later" and skips the fail-event checks. In ``strict`` mode the first
    defective category raises :class:`DataQualityError` listing every
    offending cell of that category; clean input is returned *unmodified*
    (the same array objects).
    """
    policy = as_policy(policy)
    cfg = config or SanitizeConfig()
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != len(FEATURES):
        raise ValueError(f"features must be (n, {len(FEATURES)}), got {feats.shape}")
    rts = (
        None
        if response_times is None
        else np.asarray(response_times, dtype=np.float64)
    )
    if rts is not None and rts.shape != (feats.shape[0],):
        raise ValueError("response_times must align with datapoints")
    report = RunQualityReport(run_index=run_index, n_rows_in=feats.shape[0])

    def issue(kind, action, row=None, column=None, value=None, detail=""):
        _record(
            report,
            CellIssue(
                kind=kind,
                action=action,
                run_index=run_index,
                row=row,
                column=column,
                value=value,
                detail=detail,
                label=label,
                row_base=row_base,
            ),
        )

    def fail_strict():
        if policy == STRICT and report.issues:
            raise DataQualityError(report.issues)

    def quarantine_run(kind, detail):
        issue(kind, "quarantined_run", detail=detail)
        report.quarantined = True
        report.n_rows_out = 0
        empty = np.empty((0, len(FEATURES)))
        return empty, (None if rts is None else np.empty(0)), fail_time, crashed, report

    dirty = False  # any mutation performed (clean fast path returns inputs as-is)
    rows = np.arange(feats.shape[0])  # original row index, for diagnostics

    # 1. timestamps must be finite and non-negative -------------------------------
    tgen = feats[:, 0]
    bad_t = ~np.isfinite(tgen) | (tgen < 0)
    if bad_t.any():
        for r in np.flatnonzero(bad_t):
            issue(
                "bad_timestamp",
                "raised" if policy == STRICT else "quarantined_row",
                row=int(rows[r]),
                column="tgen",
                value=float(tgen[r]),
                detail=f"unusable timestamp {tgen[r]!r}",
            )
        fail_strict()
        keep = ~bad_t
        feats, rows = feats[keep], rows[keep]
        rts = rts[keep] if rts is not None else None
        dirty = True
        tgen = feats[:, 0]

    if feats.shape[0] == 0:
        return quarantine_run("bad_timestamp", "no rows with usable timestamps")

    # Median sampling interval (robust, from positive diffs only) — the
    # yardstick for clock-reset, gap and truncation detection.
    diffs = np.diff(tgen)
    pos = diffs[diffs > 0]
    med_dt = float(np.median(pos)) if pos.size else 0.0

    # 2. clock resets -------------------------------------------------------------
    running_max = np.maximum.accumulate(tgen)
    drop = running_max - tgen
    reset_mask = (
        (tgen < cfg.clock_reset_fraction * running_max)
        & (drop > max(cfg.min_reset_drop * med_dt, 0.0))
        & (drop > 0)
    )
    if med_dt > 0 and reset_mask.any():
        first = int(np.flatnonzero(reset_mask)[0])
        if policy == STRICT:
            issue(
                "clock_reset",
                "raised",
                row=int(rows[first]),
                column="tgen",
                value=float(tgen[first]),
                detail=(
                    f"clock reset: tgen fell from {running_max[first]:.3f} "
                    f"to {tgen[first]:.3f}"
                ),
            )
            fail_strict()
        elif policy == REPAIR:
            # Re-base each reset tail so time keeps increasing: the reset
            # sample is placed one median interval after the pre-reset max.
            t = tgen.copy()
            n_resets = 0
            i = 1
            high = t[0]
            while i < t.shape[0]:
                if t[i] < cfg.clock_reset_fraction * high and (
                    high - t[i]
                ) > cfg.min_reset_drop * med_dt:
                    offset = high + med_dt - t[i]
                    issue(
                        "clock_reset",
                        "repaired",
                        row=int(rows[i]),
                        column="tgen",
                        value=float(t[i]),
                        detail=(
                            f"clock reset re-based by +{offset:.3f}s "
                            f"(was {t[i]:.3f} after {high:.3f})"
                        ),
                    )
                    t[i:] += offset
                    n_resets += 1
                high = max(high, t[i])
                i += 1
            feats = feats.copy()
            feats[:, 0] = t
            tgen = feats[:, 0]
            dirty = True
        else:  # quarantine: drop the tail from the first reset on
            for r in range(first, feats.shape[0]):
                if r == first:
                    issue(
                        "clock_reset",
                        "quarantined_row",
                        row=int(rows[r]),
                        column="tgen",
                        value=float(tgen[r]),
                        detail=f"clock reset at tgen {tgen[r]:.3f}; tail dropped",
                    )
            keep = np.arange(feats.shape[0]) < first
            feats, rows = feats[keep], rows[keep]
            rts = rts[keep] if rts is not None else None
            dirty = True
            tgen = feats[:, 0]

    # 3. bounded reordering -------------------------------------------------------
    if feats.shape[0] > 1:
        inversions = np.flatnonzero(np.diff(tgen) < 0)
        if inversions.size:
            for r in inversions:
                issue(
                    "out_of_order",
                    "raised" if policy == STRICT else "repaired",
                    row=int(rows[r + 1]),
                    column="tgen",
                    value=float(tgen[r + 1]),
                    detail=(
                        f"out of order: tgen {tgen[r + 1]:.3f} after "
                        f"{tgen[r]:.3f}"
                    ),
                )
            fail_strict()
            order = np.argsort(tgen, kind="stable")
            feats, rows = feats[order], rows[order]
            rts = rts[order] if rts is not None else None
            dirty = True
            tgen = feats[:, 0]

    # 4. duplicated rows ----------------------------------------------------------
    if feats.shape[0] > 1:
        same_t = np.concatenate([[False], np.diff(tgen) == 0])
        dup = same_t & np.concatenate(
            [[False], (feats[1:] == feats[:-1]).all(axis=1)]
        )
        if rts is not None:
            dup = dup & np.concatenate([[False], rts[1:] == rts[:-1]])
        if dup.any():
            for r in np.flatnonzero(dup):
                issue(
                    "duplicate_row",
                    "raised" if policy == STRICT else "quarantined_row",
                    row=int(rows[r]),
                    value=float(tgen[r]),
                    detail=f"exact duplicate of the previous datapoint (tgen {tgen[r]:.3f})",
                )
            fail_strict()
            keep = ~dup
            feats, rows = feats[keep], rows[keep]
            rts = rts[keep] if rts is not None else None
            dirty = True
            tgen = feats[:, 0]

    # 5. non-finite feature / response-time cells ---------------------------------
    nonfinite = ~np.isfinite(feats[:, 1:])
    rt_bad = (
        np.zeros(feats.shape[0], dtype=bool) if rts is None else ~np.isfinite(rts)
    )
    if nonfinite.any() or rt_bad.any():
        action = {STRICT: "raised", REPAIR: "repaired", QUARANTINE: "quarantined_row"}[
            policy
        ]
        for r, c in zip(*np.nonzero(nonfinite)):
            issue(
                "non_finite",
                action,
                row=int(rows[r]),
                column=FEATURES[c + 1],
                value=float(feats[r, c + 1]),
                detail=f"non-finite value {float(feats[r, c + 1])!r}",
            )
        for r in np.flatnonzero(rt_bad):
            issue(
                "non_finite",
                action,
                row=int(rows[r]),
                column="response_time",
                value=float(rts[r]),
                detail=f"non-finite response time {rts[r]!r}",
            )
        fail_strict()
        if policy == REPAIR:
            feats = feats.copy()
            columns = [(j, feats[:, j]) for j in range(1, feats.shape[1])]
            if rts is not None:
                rts = rts.copy()
                columns.append((-1, rts))
            for j, col in columns:
                bad = ~np.isfinite(col)
                if not bad.any():
                    continue
                good = ~bad
                if not good.any():
                    name = "response_time" if j == -1 else FEATURES[j]
                    return quarantine_run(
                        "non_finite", f"column {name} has no finite values to repair from"
                    )
                col[bad] = np.interp(tgen[bad], tgen[good], col[good])
            dirty = True
        else:  # quarantine rows
            keep = ~(nonfinite.any(axis=1) | rt_bad)
            feats, rows = feats[keep], rows[keep]
            rts = rts[keep] if rts is not None else None
            dirty = True
            tgen = feats[:, 0] if feats.shape[0] else tgen[:0]
            if feats.shape[0] == 0:
                return quarantine_run("non_finite", "every row had non-finite cells")

    # 6. transient unit-scale glitches -------------------------------------------
    if feats.shape[0] >= 3:
        spike_rows: list[tuple[int, int]] = []
        for j in range(1, feats.shape[1]):
            v = np.abs(feats[:, j])
            mid, prev, nxt = v[1:-1], v[:-2], v[2:]
            hi = np.maximum(prev, nxt)
            lo = np.minimum(prev, nxt)
            spikes = (mid > cfg.scale_abs_floor) & (
                mid > cfg.scale_glitch_factor * np.maximum(hi, 1e-12)
            )
            dips = (lo > cfg.scale_abs_floor) & (
                mid < lo / cfg.scale_glitch_factor
            )
            for r in np.flatnonzero(spikes | dips):
                spike_rows.append((int(r) + 1, j))
        if spike_rows:
            action = {
                STRICT: "raised",
                REPAIR: "repaired",
                QUARANTINE: "quarantined_row",
            }[policy]
            for r, j in spike_rows:
                issue(
                    "unit_scale",
                    action,
                    row=int(rows[r]),
                    column=FEATURES[j],
                    value=float(feats[r, j]),
                    detail=(
                        f"transient scale glitch: {feats[r, j]:.6g} between "
                        f"{feats[r - 1, j]:.6g} and {feats[r + 1, j]:.6g}"
                    ),
                )
            fail_strict()
            if policy == REPAIR:
                feats = feats.copy()
                for r, j in spike_rows:
                    feats[r, j] = 0.5 * (feats[r - 1, j] + feats[r + 1, j])
            else:
                bad_rows = {r for r, _ in spike_rows}
                keep = np.array(
                    [i not in bad_rows for i in range(feats.shape[0])], dtype=bool
                )
                feats, rows = feats[keep], rows[keep]
                rts = rts[keep] if rts is not None else None
            dirty = True
            tgen = feats[:, 0]

    # 6b. duplicates reconstructed by the repairs above ---------------------------
    # A duplicated row whose copy carried a NaN cell or a scale glitch is
    # *not* an exact duplicate when step 4 runs; interpolation (step 5)
    # or neighbour averaging (step 6) can rebuild the twin's values
    # exactly, so repair mode sweeps duplicates once more after repairing.
    if policy == REPAIR and dirty and feats.shape[0] > 1:
        dup = np.concatenate([[False], (feats[1:] == feats[:-1]).all(axis=1)])
        if rts is not None:
            dup &= np.concatenate([[False], rts[1:] == rts[:-1]])
        if dup.any():
            for r in np.flatnonzero(dup):
                issue(
                    "duplicate_row",
                    "quarantined_row",
                    row=int(rows[r]),
                    value=float(tgen[r]),
                    detail=(
                        "exact duplicate reconstructed by repair "
                        f"(tgen {tgen[r]:.3f})"
                    ),
                )
            keep = ~dup
            feats, rows = feats[keep], rows[keep]
            rts = rts[keep] if rts is not None else None
            tgen = feats[:, 0]

    # 7. sampling gaps (dropped samples) — detectable but not inventable ----------
    if cfg.max_gap_factor is not None and feats.shape[0] > 1 and med_dt > 0:
        gd = np.diff(feats[:, 0])
        for r in np.flatnonzero(gd > cfg.max_gap_factor * med_dt):
            issue(
                "gap",
                "raised" if policy == STRICT else "noted",
                row=int(rows[r + 1]),
                column="tgen",
                value=float(gd[r]),
                detail=(
                    f"sampling gap of {gd[r]:.3f}s "
                    f"(~{gd[r] / med_dt:.0f}x the median interval)"
                ),
            )
        fail_strict()

    # 8. fail-event checks --------------------------------------------------------
    if fail_time is not None and feats.shape[0]:
        last = float(feats[-1, 0])
        if not np.isfinite(fail_time):
            issue(
                "fail_time",
                "raised" if policy == STRICT else "repaired",
                value=float(fail_time),
                detail=f"non-finite fail time {fail_time!r}",
            )
            fail_strict()
            if policy == QUARANTINE:
                return quarantine_run("fail_time", "non-finite fail time")
            fail_time = last
            dirty = True
        elif fail_time < last:
            detail = (
                f"fail time {fail_time:.3f} precedes the last datapoint "
                f"{last:.3f} (would yield negative RTTF labels)"
            )
            if policy == STRICT:
                issue("fail_time", "raised", value=float(fail_time), detail=detail)
                fail_strict()
            elif policy == REPAIR:
                issue(
                    "fail_time",
                    "repaired",
                    value=float(fail_time),
                    detail=detail + "; clamped to the last datapoint",
                )
                fail_time = last
                dirty = True
            else:
                return quarantine_run("fail_time", detail)
        elif (
            crashed
            and cfg.truncation_factor is not None
            and med_dt > 0
            and fail_time - last > cfg.truncation_factor * med_dt
        ):
            detail = (
                f"fail event {fail_time - last:.3f}s after the last datapoint "
                f"(~{(fail_time - last) / med_dt:.0f}x the median interval): "
                "monitoring was truncated"
            )
            if policy == STRICT:
                issue("truncated_run", "raised", value=float(fail_time), detail=detail)
                fail_strict()
            elif policy == REPAIR:
                issue(
                    "truncated_run",
                    "repaired",
                    value=float(fail_time),
                    detail=detail + "; run excluded from RTTF labelling",
                )
                crashed = False
                dirty = True
            else:
                return quarantine_run("truncated_run", detail)

    # 9. did repair give up on too much of the run? -------------------------------
    if (
        policy == REPAIR
        and report.n_rows_in > 0
        and (report.n_rows_in - feats.shape[0]) / report.n_rows_in
        > cfg.max_quarantine_fraction
    ):
        return quarantine_run(
            "non_finite",
            f"repair lost {report.n_rows_in - feats.shape[0]} of "
            f"{report.n_rows_in} rows (beyond max_quarantine_fraction)",
        )

    report.n_rows_out = feats.shape[0]
    if not dirty:
        # Clean fast path: hand back the caller's own arrays so strict
        # mode on clean data is bit-identical by construction.
        return features, response_times, fail_time, crashed, report
    return feats, rts, fail_time, crashed, report


# -- run / history sanitizers ------------------------------------------------------


def sanitize_run(
    run,
    *,
    policy: str = REPAIR,
    config: "SanitizeConfig | None" = None,
    run_index: int = 0,
    label: "str | None" = None,
) -> "tuple[RunRecord | None, RunQualityReport]":
    """Sanitize one run-like object into a validated :class:`RunRecord`.

    Accepts a :class:`RunRecord` or any object with ``features``,
    ``fail_time``, ``response_times`` and ``metadata`` attributes (e.g.
    :class:`repro.faults.DirtyRun`, which can carry defects RunRecord's
    own validation rejects). Returns ``(None, report)`` when the run is
    quarantined. A clean :class:`RunRecord` input is returned unchanged
    (the same object).
    """
    metadata = dict(getattr(run, "metadata", {}) or {})
    crashed = float(metadata.get("crashed", 1.0)) != 0.0
    feats, rts, fail_time, crashed_out, report = sanitize_arrays(
        run.features,
        getattr(run, "response_times", None),
        float(run.fail_time),
        crashed=crashed,
        policy=policy,
        config=config,
        run_index=run_index,
        label=label,
    )
    if report.quarantined:
        return None, report
    if report.clean and isinstance(run, RunRecord):
        return run, report
    if crashed_out != crashed:
        metadata["crashed"] = 1.0 if crashed_out else 0.0
    out = RunRecord(
        features=feats,
        fail_time=float(fail_time),
        response_times=rts,
        metadata=metadata if metadata else getattr(run, "metadata", {}),
    )
    return out, report


def sanitize_history(
    runs: "DataHistory | Iterable",
    *,
    policy: str = REPAIR,
    config: "SanitizeConfig | None" = None,
    quality: "QualityReport | None" = None,
) -> "tuple[DataHistory, QualityReport]":
    """Sanitize every run of a history (or iterable of run-likes).

    Returns ``(history, report)``. With ``policy="strict"`` and clean
    input, the output history holds the *same* :class:`RunRecord`
    objects, so content fingerprints are unchanged. Quarantined runs are
    dropped (strict raises instead). Pass ``quality`` to accumulate into
    an existing report.
    """
    policy = as_policy(policy)
    report = quality if quality is not None else QualityReport(policy=policy)
    report.policy = policy
    out = DataHistory()
    n_in = 0
    for i, run in enumerate(runs):
        n_in += 1
        cleaned, run_report = sanitize_run(
            run, policy=policy, config=config, run_index=i
        )
        report.add(run_report)
        if cleaned is not None:
            out.add_run(cleaned)
    if n_in and not len(out):
        raise DataQualityError(
            [
                i
                for r in report.runs
                for i in r.issues
                if i.action == "quarantined_run"
            ]
            or report.issues
        )
    if not report.clean:
        _log.info(
            "sanitize %s",
            kv(
                policy=policy,
                runs_in=n_in,
                runs_out=len(out),
                issues=len(report.issues),
                **{f"n_{k}": v for k, v in report.counts_by_kind().items()},
            ),
        )
    get_metrics().inc("sanitize.histories_total")
    get_metrics().observe(
        "sanitize.issues_per_history", float(len(report.issues))
    )
    return out, report
