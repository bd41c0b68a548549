"""Live telemetry: bounded-memory time series, events, and exporters.

The post-hoc observability primitives (:mod:`repro.obs.trace`,
:mod:`repro.obs.metrics`) answer *where did the time go* after a run
ends. This module is the **streaming** substrate the online layers emit
into while they run: the rejuvenation controller, the stream sanitizer,
the fused simulation engine and the parallel workers all publish named
``(t, value)`` points and discrete events to the process-wide
:class:`TelemetryBus`, and exporters fan the stream out to files an
external process can watch (``f2pm top``).

Memory is bounded by construction:

- every series is a :class:`TimeSeries` — a fixed-capacity buffer with
  a **deterministic decimating downsample**: when the buffer fills, every
  other retained point is dropped and the recording stride doubles, so
  an arbitrarily long emission sequence keeps full-horizon coverage at
  logarithmically decreasing resolution and never exceeds ``capacity``
  points. The retained set is a pure function of the emission sequence
  (no clocks, no randomness), which is what lets parallel workers ship
  their buffers back and merge bit-identically in task-index order.
- the event log keeps the most recent ``events_capacity`` events plus an
  exact total count.

Exporters implement the two-method sink protocol (``point`` / ``event``)
and attach with :meth:`TelemetryBus.add_sink`:

:class:`JsonlExporter`
    streaming JSONL, one line per point/event, line-buffered so an
    external process can ``tail -f`` it while the run is live
    (``--telemetry-jsonl``).
:func:`prometheus_text`
    Prometheus-style text exposition *snapshot* of the metrics registry
    plus the bus's last-seen values (``--telemetry-prom``), written
    atomically at command end.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any, Iterable, TextIO

#: Schema tag written as the first line of every JSONL telemetry stream.
JSONL_SCHEMA = "f2pm.telemetry/1"


class TimeSeries:
    """Fixed-capacity ``(t, value)`` buffer with deterministic decimation.

    Points are recorded every ``stride`` emissions (stride starts at 1).
    When the buffer reaches ``capacity``, every other retained point is
    dropped (even indices kept) and the stride doubles — so the series
    always spans the full emission horizon and never exceeds
    ``capacity`` points, at resolution that halves each time the horizon
    outgrows the buffer. ``last_t``/``last_value`` always track the most
    recent emission exactly, regardless of stride.
    """

    __slots__ = (
        "name",
        "capacity",
        "stride",
        "total",
        "last_t",
        "last_value",
        "_ts",
        "_vs",
        "_skip",
    )

    def __init__(self, name: str, capacity: int = 512) -> None:
        if capacity < 8 or capacity % 2:
            raise ValueError(f"capacity must be an even number >= 8, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.stride = 1  # record every stride-th emission
        self.total = 0  # exact emission count
        self.last_t: float | None = None
        self.last_value: float | None = None
        self._ts: list[float] = []
        self._vs: list[float] = []
        self._skip = 0  # emissions to skip before the next record

    def __len__(self) -> int:
        return len(self._ts)

    def emit(self, t: float, value: float) -> None:
        """Record one observation (O(1) amortized, bounded memory)."""
        t = float(t)
        value = float(value)
        self.total += 1
        self.last_t = t
        self.last_value = value
        if self._skip > 0:
            self._skip -= 1
            return
        self._ts.append(t)
        self._vs.append(value)
        if len(self._ts) >= self.capacity:
            # Deterministic decimation: keep even indices, double stride.
            self._ts = self._ts[::2]
            self._vs = self._vs[::2]
            self.stride *= 2
        self._skip = self.stride - 1

    @property
    def points(self) -> list[tuple[float, float]]:
        """The retained ``(t, value)`` points, oldest first."""
        return list(zip(self._ts, self._vs))

    @property
    def values(self) -> list[float]:
        return list(self._vs)

    @property
    def times(self) -> list[float]:
        return list(self._ts)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of this series."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "stride": self.stride,
            "total": self.total,
            "last": (
                None if self.last_t is None else [self.last_t, self.last_value]
            ),
            "points": [[t, v] for t, v in zip(self._ts, self._vs)],
        }

    def state(self) -> dict[str, Any]:
        """Mergeable transport form (same layout as :meth:`snapshot`)."""
        return self.snapshot()

    def merge_state(self, state: dict[str, Any]) -> None:
        """Replay another series' retained points into this one.

        Replaying through :meth:`emit` keeps the decimation invariant; a
        lossless dump (``stride == 1``, the common case for short-lived
        worker tasks) reproduces the exact emission sequence, so merging
        worker buffers in task-index order is bit-identical to serial
        emission. Emissions the source decimated away stay counted in
        ``total`` but cannot be replayed.
        """
        points = state.get("points") or []
        for t, v in points:
            self.emit(t, v)
        dropped = int(state.get("total", len(points))) - len(points)
        if dropped > 0:
            self.total += dropped
            last = state.get("last")
            if last is not None:
                self.last_t, self.last_value = float(last[0]), float(last[1])


class TelemetryBus:
    """Named :class:`TimeSeries` plus a bounded event log, with sinks.

    The process-wide default bus (:func:`get_telemetry`) is enabled and
    disabled together with tracing/metrics by :func:`repro.obs.enable` /
    ``disable``; while disabled, ``emit``/``event`` cost one branch.
    """

    def __init__(
        self,
        enabled: bool = True,
        series_capacity: int = 512,
        events_capacity: int = 256,
    ) -> None:
        self._enabled = enabled
        self.series_capacity = series_capacity
        self.events_capacity = events_capacity
        self._lock = threading.Lock()
        self._series: dict[str, TimeSeries] = {}
        self._events: list[dict[str, Any]] = []
        self._events_total = 0
        self._sinks: list[Any] = []

    # -- switch ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- emission --------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        s = self._series.get(name)
        if s is None:
            with self._lock:
                s = self._series.setdefault(
                    name, TimeSeries(name, self.series_capacity)
                )
        return s

    def emit(self, name: str, t: float, value: float) -> None:
        """Publish one point to a named series (no-op while disabled)."""
        if not self._enabled:
            return
        self.series(name).emit(t, value)
        for sink in self._sinks:
            sink.point(name, t, value)

    def event(self, t: float, kind: str, **attrs: Any) -> None:
        """Publish one discrete event (no-op while disabled)."""
        if not self._enabled:
            return
        ev = {"t": float(t), "event": str(kind), **attrs}
        self._events_total += 1
        self._events.append(ev)
        if len(self._events) > self.events_capacity:
            del self._events[0]
        for sink in self._sinks:
            sink.event(ev)

    # -- sinks -----------------------------------------------------------------

    def add_sink(self, sink: Any) -> None:
        """Attach a streaming sink (``point(name, t, v)`` / ``event(ev)``)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    # -- views -----------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._series)

    @property
    def events(self) -> list[dict[str, Any]]:
        """The retained (most recent) events, oldest first."""
        return list(self._events)

    @property
    def events_total(self) -> int:
        return self._events_total

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: every series plus the retained events."""
        with self._lock:
            return {
                "series": {
                    k: s.snapshot() for k, s in sorted(self._series.items())
                },
                "events": list(self._events),
                "events_total": self._events_total,
            }

    # -- cross-process transport -----------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """Full mergeable state (picklable), the worker-side export."""
        return self.snapshot()

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a worker's :meth:`dump_state` into this bus.

        Points replay through :meth:`emit` (so attached sinks see them
        too) in the order the worker recorded them; callers merge
        workers in task-index order, making the merged bus deterministic
        for any worker count. No-op while disabled.
        """
        if not self._enabled:
            return
        for name, series_state in (state.get("series") or {}).items():
            points = series_state.get("points") or []
            for t, v in points:
                self.emit(name, t, v)
            dropped = int(series_state.get("total", len(points))) - len(points)
            if dropped > 0:
                series = self.series(name)
                series.total += dropped
                last = series_state.get("last")
                if last is not None:
                    series.last_t = float(last[0])
                    series.last_value = float(last[1])
        for ev in state.get("events") or []:
            attrs = {k: v for k, v in ev.items() if k not in ("t", "event")}
            self.event(ev["t"], ev["event"], **attrs)

    def reset(self) -> None:
        """Drop every series and event (sinks stay attached)."""
        with self._lock:
            self._series.clear()
            self._events.clear()
            self._events_total = 0


#: Process-wide default bus used by all streaming instrumentation.
_DEFAULT = TelemetryBus(enabled=True)


def get_telemetry() -> TelemetryBus:
    """The process-wide telemetry bus."""
    return _DEFAULT


# -- JSONL streaming exporter ------------------------------------------------------


class JsonlExporter:
    """Streaming JSONL sink: one line per point/event, tail-friendly.

    The file is opened line-buffered and every record is one complete
    ``\\n``-terminated JSON object, so an external process (``f2pm top
    --follow``) can consume the stream while the run is live, and a
    killed run leaves at most one torn final line — which
    :func:`read_jsonl` skips.
    """

    def __init__(self, path: "str | Path", meta: "dict[str, Any] | None" = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: TextIO = self.path.open("w", buffering=1, encoding="utf-8")
        header = {"kind": "meta", "schema": JSONL_SCHEMA, **(meta or {})}
        self._write(header)

    def _write(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def point(self, name: str, t: float, value: float) -> None:
        self._write({"kind": "point", "series": name, "t": t, "v": value})

    def event(self, ev: dict[str, Any]) -> None:
        self._write({"kind": "event", **ev})

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path: "str | Path") -> list[dict[str, Any]]:
    """Parse a telemetry JSONL stream, skipping any torn final line.

    A stream written by :class:`JsonlExporter` is append-only; a crash
    mid-write leaves at most one incomplete last line, which is dropped
    (every complete line is still valid JSON).
    """
    records: list[dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # torn tail (or foreign line); skip
        if isinstance(rec, dict):
            records.append(rec)
    return records


# -- Prometheus-style text exposition ----------------------------------------------

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric/series name into the Prometheus charset."""
    cleaned = _PROM_NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"f2pm_{cleaned}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return format(float(value), ".17g")


def prometheus_text(metrics=None, bus: "TelemetryBus | None" = None) -> str:
    """Prometheus text-exposition snapshot of the registry and the bus.

    Counters and gauges export directly; histograms export the standard
    ``_count`` / ``_sum`` / cumulative ``_bucket{le=...}`` triplet from
    the log-bucketed bins; every telemetry series contributes its exact
    last value as ``f2pm_telemetry_last{series="..."}`` plus its exact
    emission count. The output is a *snapshot* (scrape-style), written
    atomically by the CLI at command end.
    """
    from repro.obs.metrics import get_metrics

    registry = metrics if metrics is not None else get_metrics()
    bus = bus if bus is not None else get_telemetry()
    lines: list[str] = []

    state = registry.dump_state()
    for name, value in state.get("counters", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in state.get("gauges", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, hist in state.get("histograms", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for upper, count in hist_buckets_cumulative(hist):
            cumulative = count
            lines.append(
                f'{prom}_bucket{{le="{_prom_value(upper)}"}} {cumulative}'
            )
        lines.append(f'{prom}_bucket{{le="+Inf"}} {int(hist.get("count", 0))}')
        lines.append(f"{prom}_sum {_prom_value(hist.get('total', 0.0))}")
        lines.append(f"{prom}_count {int(hist.get('count', 0))}")

    snap = bus.snapshot()
    if snap["series"]:
        lines.append("# TYPE f2pm_telemetry_last gauge")
        for name, series in snap["series"].items():
            last = series.get("last")
            if last is not None:
                lines.append(
                    f'f2pm_telemetry_last{{series="{name}"}} {_prom_value(last[1])}'
                )
        lines.append("# TYPE f2pm_telemetry_points_total counter")
        for name, series in snap["series"].items():
            lines.append(
                f'f2pm_telemetry_points_total{{series="{name}"}} '
                f"{int(series.get('total', 0))}"
            )
    if snap.get("events_total"):
        lines.append("# TYPE f2pm_telemetry_events_total counter")
        lines.append(f"f2pm_telemetry_events_total {snap['events_total']}")
    return "\n".join(lines) + "\n"


def hist_buckets_cumulative(hist_state: dict[str, Any]) -> Iterable[tuple[float, int]]:
    """Cumulative ``(upper_bound, count)`` pairs from a histogram state.

    Accepts the log-bucketed :meth:`repro.obs.metrics.Histogram.state`
    layout; yields nothing for a state with no positive observations, in
    which case only ``+Inf``/``_sum``/``_count`` are emitted.
    """
    from repro.obs.metrics import bucket_upper_bound

    bins = hist_state.get("buckets")
    if not bins:
        return
    cumulative = int(hist_state.get("nonpositive", 0))
    for idx in sorted(int(k) for k in bins):
        cumulative += int(bins[str(idx)] if str(idx) in bins else bins[idx])
        yield bucket_upper_bound(idx), cumulative
