"""Parallel-execution baseline: serial vs ``jobs=4`` wall-clock.

Seeds the perf trajectory for the parallel layer: one pass records the
campaign (``run_campaign``) and training (``F2PM.run``) wall-clocks at
``jobs=1`` and ``jobs=4`` into ``BENCH_parallel.json`` next to this
file, so later PRs can compare against the same shape of measurement.

A speedup is meaningful only where the hardware can actually run
``JOBS`` workers at once: on a box with >= 4 CPUs it is recorded and the
floor is asserted; below that the wall-clocks are still recorded, but
the speedups are written as ``null`` with the reason ("not measured"),
because a 4-worker ratio from a smaller box measures oversubscription,
not the parallel layer. Determinism, by contrast, is asserted
unconditionally: the parallel run must reproduce the serial bytes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core import F2PM, AggregationConfig, F2PMConfig
from repro.system import TestbedSimulator

BENCH_PATH = Path(__file__).parent / "BENCH_parallel.json"
JOBS = 4
SPEEDUP_FLOOR = 1.5


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_parallel_baseline(campaign_config, bench_window):
    serial_history, campaign_serial_s = _timed(
        lambda: TestbedSimulator(campaign_config).run_campaign(jobs=1)
    )
    parallel_history, campaign_parallel_s = _timed(
        lambda: TestbedSimulator(campaign_config).run_campaign(jobs=JOBS)
    )

    # The speedup comparison is only valid if both paths did the same
    # work: bit-identical histories.
    assert len(serial_history) == len(parallel_history)
    for a, b in zip(serial_history, parallel_history):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.fail_time == b.fail_time

    f2pm_config = F2PMConfig(
        aggregation=AggregationConfig(window_seconds=bench_window),
        models=("linear", "m5p", "reptree", "svm2"),
        seed=0,
    )
    serial_result, f2pm_serial_s = _timed(
        lambda: F2PM(f2pm_config).run(serial_history, jobs=1)
    )
    parallel_result, f2pm_parallel_s = _timed(
        lambda: F2PM(f2pm_config).run(serial_history, jobs=JOBS)
    )
    assert parallel_result.smae_table() == serial_result.smae_table()

    campaign_speedup = campaign_serial_s / campaign_parallel_s
    f2pm_speedup = f2pm_serial_s / f2pm_parallel_s
    cpus = os.cpu_count() or 1
    measured = cpus >= JOBS
    record = {
        "bench": "parallel_execution_baseline",
        "cpu_count": cpus,
        "jobs": JOBS,
        "campaign": {
            "n_runs": campaign_config.n_runs,
            "serial_s": round(campaign_serial_s, 4),
            "parallel_s": round(campaign_parallel_s, 4),
            "speedup": round(campaign_speedup, 3) if measured else None,
        },
        "f2pm": {
            "n_grid_cells": 2 * (len(f2pm_config.models) + 10),
            "serial_s": round(f2pm_serial_s, 4),
            "parallel_s": round(f2pm_parallel_s, 4),
            "speedup": round(f2pm_speedup, 3) if measured else None,
        },
        "speedup_note": (
            None
            if measured
            else f"not measured: {cpus} CPUs, fewer than jobs={JOBS}"
        ),
        "deterministic": True,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": measured,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if measured:
        assert campaign_speedup >= SPEEDUP_FLOOR, (
            f"campaign speedup {campaign_speedup:.2f}x at jobs={JOBS} "
            f"below the {SPEEDUP_FLOOR}x floor ({cpus} CPUs)"
        )
