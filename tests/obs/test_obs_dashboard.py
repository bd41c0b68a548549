"""``f2pm top``: the dashboard fold, renderer, and CLI smoke test.

The recorded fixture ``data/recorded_telemetry.jsonl`` is a real
``--telemetry-jsonl`` stream captured from a small ``f2pm rejuvenate``
run — the same artifact the CI job regenerates live.
"""

from __future__ import annotations

import inspect
import io
from pathlib import Path

import pytest

from repro.obs.dashboard import (
    _BLOCKS,
    DashboardState,
    _Tail,
    render_frame,
    run_top,
    sparkline,
)
from repro.obs.telemetry import TelemetryBus

FIXTURE = Path(__file__).parent / "data" / "recorded_telemetry.jsonl"


class TestSparkline:
    def test_maps_range_onto_blocks(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_flat_series_renders_midblocks(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_resamples_to_width(self):
        line = sparkline([float(i) for i in range(1000)], width=20)
        assert len(line) == 20
        assert line[-1] == "█"

    def test_empty(self):
        assert sparkline([]) == ""


class TestDashboardState:
    def test_folds_points_events_and_meta(self):
        state = DashboardState()
        state.feed({"kind": "meta", "schema": "f2pm.telemetry/1", "command": "x"})
        state.feed({"kind": "point", "series": "a", "t": 1.0, "v": 2.0})
        state.feed({"kind": "event", "t": 1.5, "event": "crash"})
        assert state.schema_ok is True
        assert state.points_total == 1
        assert state.events_total == 1
        assert state.last("a") == 2.0

    def test_memory_stays_bounded_on_a_long_stream(self):
        state = DashboardState(series_capacity=16, events_capacity=8)
        for i in range(50_000):
            state.feed({"kind": "point", "series": "s", "t": float(i), "v": 1.0})
            if i % 100 == 0:
                state.feed({"kind": "event", "t": float(i), "event": "e"})
        assert len(state.series["s"]) <= 16
        assert len(state.events) <= 8
        assert state.points_total == 50_000

    def test_malformed_records_are_ignored(self):
        state = DashboardState()
        state.feed({"kind": "point"})  # no series
        state.feed({"kind": "point", "series": "a", "t": "zzz", "v": None})
        state.feed({"kind": "???"})
        assert state.points_total == 0

    def test_from_bus(self):
        bus = TelemetryBus()
        bus.emit("a", 1.0, 3.0)
        bus.event(2.0, "crash")
        state = DashboardState.from_bus(bus)
        assert state.last("a") == 3.0
        assert state.events_total == 1


class TestRenderFrame:
    def test_renders_recorded_fixture(self):
        from repro.obs.telemetry import read_jsonl

        state = DashboardState()
        state.feed_all(read_jsonl(FIXTURE))
        frame = render_frame(state)
        assert "f2pm top" in frame
        assert "controller.predicted_rttf" in frame
        assert "recent events" in frame
        assert state.points_total > 100

    def test_recorded_fixture_fits_the_frame(self):
        # Event lines carry the policy, uptime and prediction: clipped
        # with a trailing ellipsis, none runs past the frame.
        from repro.obs.telemetry import read_jsonl

        state = DashboardState()
        state.feed_all(read_jsonl(FIXTURE))
        width = inspect.signature(render_frame).parameters["width"].default
        lines = render_frame(state).splitlines()
        assert max(map(len, lines)) <= width
        assert any(line.endswith("…") for line in lines)

    def test_renders_empty_state(self):
        frame = render_frame(DashboardState())
        assert "(no points yet)" in frame
        assert "(none)" in frame

    def test_flags_unknown_schema(self):
        state = DashboardState()
        state.feed({"kind": "meta", "schema": "something/else"})
        assert "unknown schema" in render_frame(state)

    def test_sparklines_share_a_column_within_width(self):
        # The longest headline name (33 characters) beside a short extra
        # series: both sparklines start in one column, and at the
        # default width no line runs past the frame.
        state = DashboardState()
        for name in ("fleet.predicted_failures_per_hour", "x"):
            for t in range(200):
                state.feed({"kind": "point", "series": name, "t": float(t), "v": t % 7.0})
        width = inspect.signature(render_frame).parameters["width"].default
        lines = render_frame(state).splitlines()
        starts = [
            min(line.index(c) for c in _BLOCKS if c in line)
            for line in lines
            if any(c in line for c in _BLOCKS)
        ]
        assert len(starts) == 2 and starts[0] == starts[1]
        assert max(map(len, lines)) <= width


class TestTail:
    def test_incremental_polls_and_torn_line_carry(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind":"point","series":"a","t":1,"v":1}\n{"kind":"po')
        tail = _Tail(path)
        first = tail.poll()
        assert len(first) == 1  # torn tail held back
        with path.open("a") as fh:
            fh.write('int","series":"a","t":2,"v":2}\n')
        second = tail.poll()
        assert len(second) == 1
        assert second[0]["t"] == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert _Tail(tmp_path / "nope.jsonl").poll() == []


class TestRunTop:
    def test_once_renders_one_frame(self):
        out = io.StringIO()
        rc = run_top(FIXTURE, once=True, out=out)
        assert rc == 0
        assert "f2pm top" in out.getvalue()

    def test_missing_stream_errors(self, tmp_path):
        assert run_top(tmp_path / "nope.jsonl", once=True) == 1

    def test_follow_mode_stops_after_max_frames(self):
        out = io.StringIO()
        rc = run_top(FIXTURE, follow=True, interval=0.0, max_frames=2, out=out)
        assert rc == 0
        assert out.getvalue().count("\x1b[2J") == 2


class TestCli:
    def test_f2pm_top_once_smoke(self, capsys):
        from repro.cli import main

        rc = main(["top", str(FIXTURE), "--once"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "f2pm top" in captured.out
        assert "controller" in captured.out

    def test_f2pm_top_missing_file(self, capsys):
        from repro.cli import main

        rc = main(["top", "/does/not/exist.jsonl", "--once"])
        assert rc == 1

    def test_f2pm_obs_top_ranks_spans(self, tmp_path, capsys):
        import json as _json

        from repro.cli import main

        trace = {
            "spans": [
                {
                    "name": "root",
                    "duration_s": 2.0,
                    "attributes": {},
                    "children": [
                        {
                            "name": "slow",
                            "duration_s": 1.5,
                            "attributes": {},
                            "children": [],
                        },
                        {
                            "name": "fast",
                            "duration_s": 0.1,
                            "attributes": {},
                            "children": [],
                        },
                    ],
                }
            ]
        }
        path = tmp_path / "trace.json"
        path.write_text(_json.dumps(trace))
        rc = main(["obs", str(path), "--top", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slowest spans" in out
        lines = [line for line in out.splitlines() if "|" in line]
        # "slow" (1.5s self) outranks "root" (0.4s self); "fast" is cut.
        body = "\n".join(lines)
        assert "slow" in body
        assert "fast" not in body
        assert body.index("slow") < body.index("root")
