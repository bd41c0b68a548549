"""``f2pm top``: a live terminal dashboard over a telemetry stream.

The dashboard consumes the JSONL stream a run writes with
``--telemetry-jsonl`` (or an in-process :class:`~repro.obs.telemetry.
TelemetryBus` snapshot) and redraws a compact status frame: controller
health (live capacity, headroom, predicted failures, RTTF error),
sparklines of every series, the sanitizer's drop count, and the most
recent rejuvenation/crash events.

Everything here is deliberately split into pure pieces so it is
testable without a terminal:

:class:`DashboardState`
    folds JSONL records into bounded :class:`~repro.obs.telemetry.
    TimeSeries` buffers — a dashboard watching an arbitrarily long run
    holds O(capacity) memory, same guarantee as the bus itself.
:func:`sparkline`
    values → unicode block characters, no I/O.
:func:`render_frame`
    state → one multi-line string, no I/O.
:func:`run_top`
    the only impure part: tails the file, clears the screen, sleeps.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, TextIO

from repro.obs.telemetry import JSONL_SCHEMA, TimeSeries

#: Unicode block ramp used by :func:`sparkline` (8 levels).
_BLOCKS = "▁▂▃▄▅▆▇█"

#: Series the dashboard knows how to headline, in display order: the
#: ones the control loop emits (any other series renders after them).
_HEADLINE_SERIES = (
    "fleet.live_fraction",
    "fleet.capacity_headroom",
    "fleet.predicted_failures_per_hour",
    "fleet.rttf_error",
    "sanitize.dropped_total",
)


def sparkline(values: "list[float]", width: int = 48) -> str:
    """Render values as a fixed-width unicode sparkline (pure).

    Values are resampled to ``width`` columns (last-value-per-column)
    and scaled to the min..max range; a flat series renders mid-blocks.
    """
    if not values:
        return ""
    if len(values) > width:
        # Deterministic resample: last value of each equal slice.
        step = len(values) / width
        values = [values[min(len(values) - 1, int((i + 1) * step) - 1)] for i in range(width)]
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[3] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[max(0, min(len(_BLOCKS) - 1, idx))])
    return "".join(out)


class DashboardState:
    """Bounded fold of a telemetry record stream (pure data, no I/O)."""

    def __init__(self, series_capacity: int = 512, events_capacity: int = 64) -> None:
        self.series: dict[str, TimeSeries] = {}
        self.events: list[dict[str, Any]] = []
        self.events_capacity = events_capacity
        self.series_capacity = series_capacity
        self.points_total = 0
        self.events_total = 0
        self.meta: dict[str, Any] = {}
        self.schema_ok: "bool | None" = None

    def feed(self, record: "dict[str, Any]") -> None:
        """Fold one JSONL record (``meta`` / ``point`` / ``event``)."""
        kind = record.get("kind")
        if kind == "meta":
            self.meta = {k: v for k, v in record.items() if k != "kind"}
            self.schema_ok = record.get("schema") == JSONL_SCHEMA
        elif kind == "point":
            name = record.get("series")
            if not isinstance(name, str):
                return
            s = self.series.get(name)
            if s is None:
                s = self.series[name] = TimeSeries(name, self.series_capacity)
            try:
                s.emit(float(record.get("t", 0.0)), float(record.get("v", 0.0)))
            except (TypeError, ValueError):
                return
            self.points_total += 1
        elif kind == "event":
            self.events_total += 1
            self.events.append({k: v for k, v in record.items() if k != "kind"})
            if len(self.events) > self.events_capacity:
                del self.events[0]

    def feed_all(self, records: "list[dict[str, Any]]") -> None:
        for rec in records:
            self.feed(rec)

    @classmethod
    def from_bus(cls, bus) -> "DashboardState":
        """Build a state directly from an in-process bus snapshot."""
        state = cls()
        snap = bus.snapshot()
        for name, series in snap.get("series", {}).items():
            for t, v in series.get("points", []):
                state.feed({"kind": "point", "series": name, "t": t, "v": v})
        for ev in snap.get("events", []):
            state.feed({"kind": "event", **ev})
        return state

    def last(self, name: str) -> "float | None":
        s = self.series.get(name)
        return None if s is None else s.last_value


def _fmt(value: "float | None", unit: str = "") -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}{unit}"
    return f"{value:.2f}{unit}"


def render_frame(state: DashboardState, width: int = 78) -> str:
    """Render one dashboard frame as a multi-line string (pure)."""
    bar = "=" * width
    lines = [bar, "f2pm top — live telemetry".center(width), bar]
    src = state.meta.get("command") or state.meta.get("source")
    head = f" stream: {state.points_total} points, {state.events_total} events"
    if src:
        head += f"  ({src})"
    if state.schema_ok is False:
        head += "  [WARNING: unknown schema]"
    lines.append(head)
    lines.append("")

    # Controller health headline.
    live = state.last("fleet.live_fraction")
    headroom = state.last("fleet.capacity_headroom")
    at_risk = state.last("fleet.predicted_failures_per_hour")
    err = state.last("fleet.rttf_error")
    lines.append(
        " controller   "
        f"live fraction {_fmt(live):>8}   "
        f"headroom {_fmt(headroom):>8}   "
        f"RTTF error {_fmt(err, 's'):>10}"
    )
    lines.append(
        "              "
        f"predicted failures/h {_fmt(at_risk):>6}"
    )
    lines.append("")

    # Sparklines for every known series that has data.
    spark_width = max(16, width - 34)
    drew_any = False
    for name in _HEADLINE_SERIES:
        s = state.series.get(name)
        if s is None or len(s) == 0:
            continue
        drew_any = True
        lines.append(
            f" {name:<28} {sparkline(s.values, spark_width)}"
        )
        lines.append(
            f" {'':<28} last {_fmt(s.last_value):>10}  n={s.total}"
        )
    # Any series the headline list does not know about still shows up.
    extras = sorted(set(state.series) - set(_HEADLINE_SERIES))
    for name in extras:
        s = state.series[name]
        if len(s) == 0:
            continue
        drew_any = True
        lines.append(f" {name:<28} {sparkline(s.values, spark_width)}")
    if not drew_any:
        lines.append(" (no points yet)")
    lines.append("")

    # Sanitize counter.
    dropped = state.last("sanitize.dropped_total")
    lines.append(f" sanitize     dropped {_fmt(dropped):>8}")
    lines.append("")

    # Recent events (rejuvenations, crashes, horizons, fallbacks).
    lines.append(f" recent events ({state.events_total} total)")
    recent = state.events[-8:]
    if not recent:
        lines.append("   (none)")
    for ev in recent:
        attrs = ", ".join(
            f"{k}={_fmt(v) if isinstance(v, float) else v}"
            for k, v in ev.items()
            if k not in ("t", "event")
        )
        lines.append(f"   t={ev.get('t', 0.0):>10.1f}s  {ev.get('event', '?'):<14} {attrs}")
    lines.append(bar)
    return "\n".join(lines)


class _Tail:
    """Incremental reader of a growing JSONL file.

    Keeps a byte offset and a partial-line carry so each poll parses
    only what was appended since the previous poll; a torn final line
    is held back until its newline arrives (or dropped at EOF).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._offset = 0
        self._carry = ""

    def poll(self) -> "list[dict[str, Any]]":
        try:
            with self.path.open("r", encoding="utf-8", errors="replace") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except OSError:
            return []
        if not chunk:
            return []
        text = self._carry + chunk
        lines = text.split("\n")
        self._carry = lines.pop()  # "" if chunk ended on a newline
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict):
                records.append(rec)
        return records


def run_top(
    path: "str | Path",
    follow: bool = False,
    interval: float = 1.0,
    once: bool = False,
    out: "TextIO | None" = None,
    max_frames: "int | None" = None,
) -> int:
    """Drive the dashboard over a JSONL stream (the impure shell).

    ``once`` renders a single frame from the file as-is and returns —
    the CI smoke-test mode. ``follow`` keeps tailing and redrawing every
    ``interval`` seconds (ANSI clear between frames) until interrupted
    or, when ``max_frames`` is set, for that many frames.
    """
    out = out if out is not None else sys.stdout
    file = Path(path)
    if not file.exists():
        print(f"error: telemetry stream not found: {path}", file=sys.stderr)
        return 1
    state = DashboardState()
    tail = _Tail(file)
    state.feed_all(tail.poll())
    if once or not follow:
        out.write(render_frame(state) + "\n")
        return 0
    frames = 0
    try:
        while True:
            out.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            out.write(render_frame(state) + "\n")
            out.flush()
            frames += 1
            if max_frames is not None and frames >= max_frames:
                return 0
            time.sleep(interval)
            state.feed_all(tail.poll())
    except KeyboardInterrupt:
        return 0
