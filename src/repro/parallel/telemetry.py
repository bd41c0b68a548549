"""Worker-side observability capture and parent-side merge.

:func:`repro.parallel.run_tasks` is the one caller. Each worker task runs
against the worker process's *own* global tracer, metrics registry and
telemetry bus, and four steps keep the accounting exact:

1. the pool initializer calls :func:`configure_worker` once per worker
   with the parent's :func:`switches`, so ``--no-obs`` and
   ``F2PM_OBS=0`` behave identically under any start method (a
   ``fork``-ed worker inherits them, a ``spawn``-ed one would not);
2. before each task, :func:`repro.obs.reset` opens a fresh window, so
   the task records a clean delta (nothing inherited from the parent
   via ``fork``, nothing left over from the worker's previous task);
3. :func:`collect` exports the delta as a picklable
   :class:`WorkerTelemetry`, shipped back alongside the task result;
4. once every task has succeeded, :func:`merge` folds each delta into
   the parent in payload order — counters add, gauges last-write-wins,
   histograms pool bucket-exactly, span trees are grafted under the
   parent's open span, and time-series points replay through the
   parent bus (feeding any attached exporter). Manifests and telemetry
   streams are therefore deterministic for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs import get_metrics, get_telemetry, get_tracer
from repro.obs.trace import Span


@dataclass
class WorkerTelemetry:
    """One task's observability delta, in transportable form."""

    #: exported span trees (:meth:`Span.to_dict` layout), root-first
    spans: list[dict] = field(default_factory=list)
    #: :meth:`MetricsRegistry.dump_state` payload
    metrics: dict[str, Any] = field(default_factory=dict)
    #: :meth:`TelemetryBus.dump_state` payload (series + events)
    series: dict[str, Any] = field(default_factory=dict)


def switches() -> tuple[bool, bool, bool]:
    """This process's tracer, metrics and bus switches."""
    return get_tracer().enabled, get_metrics().enabled, get_telemetry().enabled


def configure_worker(trace_on: bool, metrics_on: bool, bus_on: bool) -> None:
    """Set this process's obs switches to the parent's :func:`switches`."""
    for instrument, on in zip(
        (get_tracer(), get_metrics(), get_telemetry()),
        (trace_on, metrics_on, bus_on),
    ):
        instrument.enable() if on else instrument.disable()


def collect() -> WorkerTelemetry:
    """Export everything recorded since the task's window opened."""
    tracer = get_tracer()
    registry = get_metrics()
    bus = get_telemetry()
    return WorkerTelemetry(
        spans=[s.to_dict() for s in tracer.roots] if tracer.enabled else [],
        metrics=registry.dump_state() if registry.enabled else {},
        series=bus.dump_state() if bus.enabled else {},
    )


def merge(telemetry: WorkerTelemetry) -> None:
    """Fold one task's telemetry into the parent registry/tracer/bus.

    Span trees are attached under the innermost open span on the
    calling thread (e.g. the ``simulate.campaign`` span that dispatched
    the work), preserving the tree shape the serial path produces.
    Bus points replay through the parent's :meth:`TelemetryBus.emit`,
    so streaming sinks (``--telemetry-jsonl``) see worker points too.
    """
    if telemetry.metrics:
        get_metrics().merge_state(telemetry.metrics)
    if telemetry.series:
        get_telemetry().merge_state(telemetry.series)
    tracer = get_tracer()
    if tracer.enabled:
        for exported in telemetry.spans:
            tracer.attach(Span.from_dict(exported))
