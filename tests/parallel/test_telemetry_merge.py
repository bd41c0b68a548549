"""Telemetry-bus completeness under parallel execution.

Worker bus buffers ship back with the task results and replay through
the parent bus in task-index order. Because each campaign task emits a
small, fixed number of points per series (far below the ring capacity),
worker dumps are lossless — so the merged stream is **bit-identical**
to the serial one for any worker count, the same guarantee the metrics
and spans already carry.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro import obs
from repro.obs import get_telemetry
from repro.parallel import WorkerError
from repro.parallel.telemetry import WorkerTelemetry, merge
from repro.system import TestbedSimulator
from repro.system.failure import FailureCondition

from campaign_util import parallel_campaign


@pytest.fixture(autouse=True)
def fresh_obs_window():
    obs.reset()
    yield
    obs.reset()


def _campaign_bus_snapshot(jobs: int):
    obs.reset()
    TestbedSimulator(parallel_campaign()).run_campaign(jobs=jobs)
    return get_telemetry().snapshot()


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_bus_is_bit_identical_to_serial(jobs):
    serial = _campaign_bus_snapshot(jobs=1)
    parallel = _campaign_bus_snapshot(jobs=jobs)
    assert parallel == serial
    # And the campaign actually emitted: one point per run per series.
    n_runs = parallel_campaign().n_runs
    assert serial["series"]["sim.run_seconds"]["total"] == n_runs
    assert serial["series"]["sim.run_crashed"]["total"] == n_runs


def test_run_series_points_are_indexed_by_task_order():
    snap = _campaign_bus_snapshot(jobs=2)
    ts = snap["series"]["sim.run_seconds"]["points"]
    assert [t for t, _ in ts] == [float(i) for i in range(parallel_campaign().n_runs)]


def test_empty_worker_buffer_merges_as_a_no_op():
    bus = get_telemetry()
    bus.emit("a", 1.0, 1.0)
    before = bus.snapshot()
    merge(WorkerTelemetry())  # a task that emitted nothing
    merge(WorkerTelemetry(series={"series": {}, "events": [], "events_total": 0}))
    assert bus.snapshot() == before


def test_disabled_bus_stays_empty_across_workers():
    obs.disable()
    try:
        TestbedSimulator(parallel_campaign()).run_campaign(jobs=2)
        assert get_telemetry().snapshot()["series"] == {}
    finally:
        obs.enable()


class ExplodingCondition(FailureCondition):
    """Blows up on first evaluation (module-level: pickles into workers)."""

    def is_failed(self, view) -> bool:
        raise RuntimeError("boom: injected mid-campaign fault")


def test_worker_crash_mid_buffer_leaves_parent_bus_clean():
    """A crashing task ships no buffer; the parent bus has no partial points."""
    simulator = TestbedSimulator(
        parallel_campaign(n_runs=4), failure_condition=ExplodingCondition()
    )
    with pytest.raises(WorkerError):
        simulator.run_campaign(jobs=2)
    snap = get_telemetry().snapshot()
    # No completed run ever merged, so the per-run series never appear.
    assert "sim.run_seconds" not in snap["series"]
    # The pool is down — no orphaned workers holding buffers.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and multiprocessing.active_children():
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def test_merged_stream_feeds_parent_sinks_in_task_order():
    seen: list[tuple[str, float]] = []

    class Probe:
        def point(self, name, t, v):
            if name == "sim.run_seconds":
                seen.append((name, t))

        def event(self, ev):
            pass

    bus = get_telemetry()
    probe = Probe()
    bus.add_sink(probe)
    try:
        TestbedSimulator(parallel_campaign()).run_campaign(jobs=2)
    finally:
        bus.remove_sink(probe)
    assert [t for _, t in seen] == [
        float(i) for i in range(parallel_campaign().n_runs)
    ]
