"""Campaign planning and execution (``repro.campaign.manager``).

The ns-3 sem idiom: a campaign is a *database* of desired results (here,
the content-addressed artifact store keyed by canonical fingerprints),
and running a campaign means diffing the declarative spec against that
database and executing only the missing cells — ``run_missing``.

:func:`plan_cells` computes the diff without executing anything;
:class:`CampaignManager` executes the frontier, sharded two ways at
once:

* *within* a driver, each cell's simulation fans out over
  ``repro.parallel`` workers (``jobs=N``) under the bit-identical-for-
  any-worker-count guarantee;
* *across* drivers, cooperating processes sharing one store partition
  the frontier dynamically through per-entry ``flock``: a driver probes
  each missing cell's lock non-blockingly (:class:`~repro.store.EntryBusy`),
  defers cells another driver is already producing, and circles back to
  load them once published. No coordinator, no partition scheme — the
  lock *is* the work queue.

Every cell executes its stage prefix under ``campaign.cell`` /
``campaign.stage.<stage>`` spans; the run increments
``campaign.cells_cached`` / ``campaign.cells_run`` /
``campaign.cells_failed``. A failing cell does not abort the campaign —
the remaining frontier still executes, then :class:`CampaignError`
reports every failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs import get_logger, get_metrics, kv, span
from repro.store import ArtifactStore, EntryBusy
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.stages import CellF2PM, run_stage, stage_artifact

_log = get_logger("campaign.manager")


class CampaignError(RuntimeError):
    """One or more cells failed; the rest of the campaign still ran."""

    def __init__(self, failures: "tuple[tuple[CampaignCell, str], ...]") -> None:
        self.failures = failures
        lines = ", ".join(f"[{c.label()}]: {err}" for c, err in failures)
        super().__init__(f"{len(failures)} campaign cell(s) failed: {lines}")


@dataclass(frozen=True)
class StagePlan:
    """Plan line for one (cell, stage): its artifact and cache state."""

    stage: str
    artifact: str
    fingerprint: str
    cached: bool


@dataclass(frozen=True)
class CellPlan:
    """Diff result for one cell: which stages the store already holds."""

    cell: CampaignCell
    stages: tuple[StagePlan, ...]

    @property
    def cached(self) -> bool:
        """Fully satisfied — running this cell would execute nothing."""
        return all(s.cached for s in self.stages)

    @property
    def missing_stages(self) -> tuple[str, ...]:
        return tuple(s.stage for s in self.stages if not s.cached)


@dataclass(frozen=True)
class CampaignPlan:
    """The spec-vs-store diff: the missing-cell frontier, unexecuted."""

    spec_name: str
    spec_fingerprint: str
    cells: tuple[CellPlan, ...]

    @property
    def cached_cells(self) -> tuple[CellPlan, ...]:
        return tuple(c for c in self.cells if c.cached)

    @property
    def missing_cells(self) -> tuple[CellPlan, ...]:
        return tuple(c for c in self.cells if not c.cached)

    def summary(self) -> str:
        """Human-readable diff table plus greppable totals."""
        lines = [
            f"campaign {self.spec_name} "
            f"(spec fingerprint {self.spec_fingerprint[:16]})",
        ]
        for plan in self.cells:
            state = (
                "cached"
                if plan.cached
                else "missing " + ",".join(plan.missing_stages)
            )
            lines.append(f"  [{plan.cell.index:3d}] {plan.cell.label():40s} {state}")
        lines.append(
            f"total={len(self.cells)} cached={len(self.cached_cells)} "
            f"missing={len(self.missing_cells)}"
        )
        return "\n".join(lines)


@dataclass
class CellOutcome:
    """What executing one cell yielded."""

    cell: CampaignCell
    results: dict[str, Any] = field(default_factory=dict)
    produced_stages: tuple[str, ...] = ()
    error: "str | None" = None

    @property
    def cached(self) -> bool:
        return self.error is None and not self.produced_stages


@dataclass
class CampaignResult:
    """Everything a :meth:`CampaignManager.run` pass yielded."""

    plan: CampaignPlan
    outcomes: tuple[CellOutcome, ...]

    @property
    def cells_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cells_run(self) -> int:
        return sum(1 for o in self.outcomes if o.error is None and not o.cached)

    @property
    def cells_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)

    def outcome(self, index: int) -> CellOutcome:
        for o in self.outcomes:
            if o.cell.index == index:
                return o
        raise KeyError(f"no outcome for cell {index}")


def plan_cells(
    spec: CampaignSpec,
    cells: "tuple[CampaignCell, ...]",
    store: "ArtifactStore | None",
) -> CampaignPlan:
    """Diff *cells* (usually ``spec.cells()``) against the store.

    Pure read: verifies each stage artifact's presence (checksummed — a
    corrupt entry counts as missing) and executes nothing. With no store
    every stage is missing.
    """
    plans = []
    for cell in cells:
        stage_plans = []
        for stage in spec.stages:
            name, fp = stage_artifact(spec, cell, stage)
            cached = store.contains(name) if store is not None else False
            stage_plans.append(
                StagePlan(stage=stage, artifact=name, fingerprint=fp, cached=cached)
            )
        plans.append(CellPlan(cell=cell, stages=tuple(stage_plans)))
    return CampaignPlan(
        spec_name=spec.name,
        spec_fingerprint=spec.fingerprint,
        cells=tuple(plans),
    )


class CampaignManager:
    """Diff-and-execute driver for one :class:`CampaignSpec`.

    Parameters
    ----------
    spec : the declarative campaign.
    store : artifact store to diff against and publish into. ``None``
        disables persistence entirely — every cell executes in memory
        (scratch sweeps, unit tests).
    """

    def __init__(
        self, spec: CampaignSpec, store: "ArtifactStore | None" = None
    ) -> None:
        self.spec = spec
        self.store = store

    # -- read-only ------------------------------------------------------------

    def plan(self) -> CampaignPlan:
        """The current spec-vs-store diff (idempotent, executes nothing)."""
        return plan_cells(self.spec, self.spec.cells(), self.store)

    def status(self) -> dict:
        """JSON-friendly snapshot of the plan (for ``f2pm campaign status``)."""
        plan = self.plan()
        return {
            "schema": "f2pm.campaign-status/1",
            "name": self.spec.name,
            "spec_fingerprint": plan.spec_fingerprint,
            "stages": list(self.spec.stages),
            "cells_total": len(plan.cells),
            "cells_cached": len(plan.cached_cells),
            "cells_missing": len(plan.missing_cells),
            "cells": [
                {
                    "index": p.cell.index,
                    "label": p.cell.label(),
                    "fingerprint": p.cell.fingerprint,
                    "cached": p.cached,
                    "missing_stages": list(p.missing_stages),
                }
                for p in plan.cells
            ],
        }

    # -- execution -------------------------------------------------------------

    def run(
        self,
        *,
        jobs: int = 1,
        cooperate: bool = True,
    ) -> CampaignResult:
        """Execute the missing frontier; load everything else.

        ``cooperate=True`` (the default, meaningful only with a store)
        probes each missing cell non-blockingly first: cells another
        driver is producing are deferred to a second, blocking pass that
        typically just loads the by-then-published artifacts. Cached
        cells are never re-executed — their artifacts are loaded and
        counted under ``campaign.cells_cached``.
        """
        metrics = get_metrics()
        plan = self.plan()
        outcomes: dict[int, CellOutcome] = {}
        deferred: list[CampaignCell] = []
        probe = cooperate and self.store is not None

        with span(
            "campaign.run",
            campaign=self.spec.name,
            cells=len(plan.cells),
            missing=len(plan.missing_cells),
        ) as root:
            for cell_plan in plan.cells:
                cell = cell_plan.cell
                try:
                    outcomes[cell.index] = self._run_cell(
                        cell, jobs=jobs, block=not probe
                    )
                except EntryBusy:
                    _log.info(
                        "cell busy, deferring %s",
                        kv(cell=cell.index, label=cell.label()),
                    )
                    deferred.append(cell)
                except Exception as exc:
                    outcomes[cell.index] = CellOutcome(cell=cell, error=str(exc))
            for cell in deferred:  # blocking pass: usually plain loads
                try:
                    outcomes[cell.index] = self._run_cell(cell, jobs=jobs, block=True)
                except Exception as exc:
                    outcomes[cell.index] = CellOutcome(cell=cell, error=str(exc))
            ordered = tuple(outcomes[c.index] for c in (p.cell for p in plan.cells))
            result = CampaignResult(plan=plan, outcomes=ordered)
            metrics.inc("campaign.cells_cached", result.cells_cached)
            metrics.inc("campaign.cells_run", result.cells_run)
            metrics.inc("campaign.cells_failed", result.cells_failed)
            root.set(
                cached=result.cells_cached,
                run=result.cells_run,
                failed=result.cells_failed,
            )
        _log.info(
            "campaign complete %s",
            kv(
                name=self.spec.name,
                cached=result.cells_cached,
                run=result.cells_run,
                failed=result.cells_failed,
            ),
        )
        failures = tuple(
            (o.cell, o.error) for o in result.outcomes if o.error is not None
        )
        if failures:
            raise CampaignError(failures)
        return result

    def _run_cell(
        self,
        cell: CampaignCell,
        *,
        jobs: int,
        block: bool,
    ) -> CellOutcome:
        """Execute one cell's stage prefix (simulate → … → last stage).

        Raises :class:`~repro.store.EntryBusy` (``block=False`` only)
        *before* recording any outcome, so the caller can defer the
        whole cell and re-enter it later.
        """
        results: dict[str, Any] = {}
        produced_stages: list[str] = []
        f2pm = CellF2PM(self.spec, cell, self.store, jobs=jobs, block=block)
        with span("campaign.cell", index=cell.index, label=cell.label()):
            for stage in self.spec.stages:
                value, produced = run_stage(
                    self.spec,
                    cell,
                    stage,
                    self.store,
                    jobs=jobs,
                    block=block,
                    f2pm=f2pm,
                )
                results[stage] = value
                if produced:
                    produced_stages.append(stage)
        return CellOutcome(
            cell=cell,
            results=results,
            produced_stages=tuple(produced_stages),
        )
