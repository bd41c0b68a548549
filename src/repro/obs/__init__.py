"""``repro.obs`` — observability for the F2PM pipeline.

Three cooperating primitives plus a packaging layer:

:mod:`repro.obs.trace`
    Nestable :func:`span` context managers building a per-run span tree
    (durations, counters, attributes), exportable as JSON or text.
:mod:`repro.obs.metrics`
    Process-wide named counters / gauges / histograms with
    ``snapshot()`` and JSON export; one-branch overhead when disabled.
:mod:`repro.obs.logs`
    The ``repro`` logger hierarchy, ``configure_logging(verbosity)``
    and ``key=value`` event formatting.
:mod:`repro.obs.manifest`
    Run manifests — config + seeds + version + trace + metrics in one
    JSON document persisted next to every output.
:mod:`repro.obs.telemetry`
    Live time-series bus — bounded ring-buffer series + events the
    online layers emit into while running, with streaming JSONL and
    Prometheus-style exporters (``f2pm top`` watches the stream).

Timing
------

Two instruments time the program, and one clock reads each measured
interval: spans time phases, and a hot path records one histogram in
the registry from one ``perf_counter`` pair.

The global switch
-----------------

:func:`enable` / :func:`disable` flip tracing and metrics together;
both default to **on** (the instruments are cheap: a handful of spans
per pipeline phase, one counter bump per datapoint). Set the
environment variable ``F2PM_OBS=0`` to start the process with
observability off; the instrumented code then pays a single attribute
check per call site.
"""

from __future__ import annotations

import os

from repro.obs.logs import (
    KVFormatter,
    configure_logging,
    get_logger,
    kv,
    verbosity_to_level,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    jsonable,
    manifest_path_for,
    read_manifest,
    write_manifest,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, get_metrics
from repro.obs.telemetry import (
    JsonlExporter,
    TelemetryBus,
    TimeSeries,
    get_telemetry,
    prometheus_text,
    read_jsonl,
)
from repro.obs.trace import NULL_SPAN, NullSpan, Span, Tracer, get_tracer, span

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "get_tracer",
    "span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "configure_logging",
    "get_logger",
    "kv",
    "KVFormatter",
    "verbosity_to_level",
    "TelemetryBus",
    "TimeSeries",
    "JsonlExporter",
    "get_telemetry",
    "prometheus_text",
    "read_jsonl",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "jsonable",
    "manifest_path_for",
    "read_manifest",
    "write_manifest",
    "enable",
    "disable",
    "enabled",
    "reset",
]


def enable() -> None:
    """Turn tracing, metrics and telemetry collection on (the default)."""
    get_tracer().enable()
    get_metrics().enable()
    get_telemetry().enable()


def disable() -> None:
    """Turn tracing, metrics and telemetry off; instrumented code becomes
    one-branch no-ops."""
    get_tracer().disable()
    get_metrics().disable()
    get_telemetry().disable()


def enabled() -> bool:
    """True when any of tracing / metrics / telemetry collection is on."""
    return get_tracer().enabled or get_metrics().enabled or get_telemetry().enabled


def reset() -> None:
    """Clear all recorded spans, metrics and telemetry series (a fresh
    measurement window)."""
    get_tracer().reset()
    get_metrics().reset()
    get_telemetry().reset()


if os.environ.get("F2PM_OBS", "").strip().lower() in {"0", "off", "false", "no"}:
    disable()
