"""The one worker protocol: a process pool whose tasks report back.

Every parallel entry point in the package dispatches through
:func:`run_tasks`, so they all behave identically:

- tasks are submitted with their payload index and results are returned
  **in payload order**, never in completion order — merged artefacts
  (histories, report tables, telemetry) are therefore independent of
  worker scheduling;
- each worker starts with the parent's observability switches, runs
  every task in a fresh capture window, and ships the task's spans,
  metrics and bus points back with its result; the parent merges them
  in payload order once **every** task has succeeded
  (:mod:`repro.parallel.telemetry`);
- the first failing task cancels everything still queued, shuts the
  pool down, and surfaces one :class:`WorkerError` naming the task —
  no hang, no orphaned pool, no half-merged results or telemetry;
- ``jobs=1`` callers keep their in-process serial path and never call
  :func:`run_tasks`, so the single-process behavior — including its
  exception types — is always reachable;
- payload data shared by many tasks can ship **once per worker** via
  ``run_tasks(..., context=...)`` instead of once per task: the context
  object is pickled into each worker at pool start (an initializer) and
  read back with :func:`worker_context` inside the task.

Processes (not threads) are the right default here: the simulator and
the model fits are CPU-bound numpy + pure-Python work that holds the
GIL. See ``docs/PARALLELISM.md`` for the full discussion.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Any, Callable, Sequence

from repro import obs
from repro.parallel import telemetry


class WorkerError(RuntimeError):
    """One task of a parallel batch failed.

    Carries the human label of the failing task and the original
    exception (also chained as ``__cause__``), so a crashed campaign
    reports *which run* died and *why* in a single line.
    """

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(
            f"{label} failed in a worker process: "
            f"{type(cause).__name__}: {cause}"
        )
        self.label = label
        self.cause = cause


#: Per-worker shared payload installed by the pool initializer.
_worker_context: Any = None


def _init_worker(context: Any, switches: tuple[bool, bool, bool]) -> None:
    """Pool initializer: runs once in each worker process."""
    global _worker_context
    _worker_context = context
    telemetry.configure_worker(*switches)


def _run_captured(
    worker: Callable[[Any], Any], payload: Any
) -> tuple[Any, telemetry.WorkerTelemetry]:
    """Run one task in a fresh capture window; return its result and
    the telemetry it recorded."""
    obs.reset()
    return worker(payload), telemetry.collect()


def worker_context() -> Any:
    """The ``context`` object this worker's pool was started with.

    ``None`` when the pool was started without one (or when called in
    the parent process).
    """
    return _worker_context


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``--jobs`` value: ``None`` means all cores, else >= 1."""
    if jobs is None:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_tasks(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    jobs: int,
    labels: "Sequence[str] | None" = None,
    context: Any = None,
) -> list[Any]:
    """Run ``worker(payload)`` for every payload on ``jobs`` processes.

    Returns the results **ordered by payload index** regardless of
    completion order, after merging each task's spans, metrics and bus
    points into this process in the same order — under the caller's
    open span, so worker spans land where the serial path puts them.
    On the first task failure the remaining queued tasks are cancelled,
    the pool is shut down, nothing is merged, and a :class:`WorkerError`
    naming the failing task is raised.

    ``worker`` must be a module-level callable and every payload must be
    picklable (the usual :mod:`multiprocessing` constraints). A non-None
    ``context`` is shipped once to each worker at pool start and is
    available inside ``worker`` via :func:`worker_context` — use it for
    bulky data shared by many payloads (e.g. a training split fitted by
    every model in a grid) instead of repeating it per payload.
    """
    payloads = list(payloads)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not payloads:
        return []
    if labels is not None and len(labels) != len(payloads):
        raise ValueError("labels must align with payloads")

    outcomes: list[Any] = [None] * len(payloads)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(payloads)),
        initializer=_init_worker,
        initargs=(context, telemetry.switches()),
    ) as pool:
        futures = {
            pool.submit(_run_captured, worker, p): i for i, p in enumerate(payloads)
        }
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        failed: "tuple[int, BaseException] | None" = None
        for fut in done:
            exc = fut.exception()
            if exc is not None:
                idx = futures[fut]
                if failed is None or idx < failed[0]:
                    failed = (idx, exc)
        if failed is not None:
            pool.shutdown(wait=True, cancel_futures=True)
            idx, exc = failed
            label = labels[idx] if labels is not None else f"task {idx}"
            raise WorkerError(label, exc) from exc
        # FIRST_EXCEPTION with no exception == ALL_COMPLETED.
        assert not not_done
        for fut, idx in futures.items():
            outcomes[idx] = fut.result()
    for _, captured in outcomes:
        telemetry.merge(captured)
    return [result for result, _ in outcomes]
