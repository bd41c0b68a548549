"""``repro.parallel`` — deterministic multi-process execution.

The F2PM pipeline is embarrassingly parallel at two layers, and both
dispatch through one worker protocol, :func:`run_tasks`:

campaign (:meth:`repro.system.TestbedSimulator.run_many`)
    Independent simulation runs, one per task. Per-run generators are
    spawned in the parent via the SeedSequence protocol **before**
    dispatch, so the merged :class:`~repro.core.history.DataHistory` is
    bit-identical for any worker count (including the serial path).
training (:meth:`repro.core.F2PM.run`)
    The (model x feature-set) grid, one fit+validate per task, with
    per-model wall-clocks measured inside the worker; each feature
    set's split ships once per worker as the pool ``context``.

:func:`run_tasks` starts each worker with the parent's observability
switches, captures every task's spans/metrics/bus points and merges
them back into the parent in task-index order
(:mod:`repro.parallel.telemetry`), so traces, metric snapshots and run
manifests are complete and deterministic regardless of where the work
ran. The guarantees are documented in ``docs/PARALLELISM.md`` and
exercised by ``tests/parallel/``.
"""

from __future__ import annotations

from repro.parallel.pool import WorkerError, resolve_jobs, run_tasks, worker_context
from repro.parallel.telemetry import WorkerTelemetry

__all__ = [
    "WorkerError",
    "WorkerTelemetry",
    "resolve_jobs",
    "run_tasks",
    "worker_context",
]
