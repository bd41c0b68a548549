"""Substrate benches — simulator and aggregation throughput.

Not paper artefacts; these keep the two hot paths honest:

- the campaign simulator must stay ~10^4 x faster than real time, or the
  "one week of monitoring in seconds" substitution stops being true;
- the fused engine must stay decisively faster than its loop oracle
  (that is its entire reason to exist); one pass records both engines'
  ticks/sec and the ratio into ``BENCH_substrate.json`` next to this
  file (see ``docs/PERFORMANCE.md`` for how to read it). The failure
  condition picks the engine, so the loop runs on a condition with no
  threshold form;
- datapoint aggregation is the per-experiment preprocessing step and is
  implemented with sorted-segment reductions — it must stay linear and
  fast (tens of thousands of raw datapoints per millisecond-scale call);
  its streaming form is the controller's ``FleetStream``, fed one
  datapoint at a time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import AggregationConfig, aggregate_history, aggregate_run
from repro.rejuvenation import FleetStream
from repro.system import MemoryExhaustion, TestbedSimulator

BENCH_PATH = Path(__file__).parent / "BENCH_substrate.json"

#: Minimum fused-over-loop speedup asserted by the bench. The ISSUE
#: target is 5x (the committed baseline measures ~5.9x); the asserted
#: floor leaves headroom for noisy shared CI boxes.
SPEEDUP_FLOOR = 3.0


class LoopMemoryExhaustion(MemoryExhaustion):
    """The default condition without its threshold form: subclasses of the
    built-in conditions do not compile, so runs take the loop."""


def test_simulator_run_throughput(benchmark, campaign_config):
    sim = TestbedSimulator(campaign_config)

    run = benchmark.pedantic(lambda: sim.run_once(seed=123), rounds=1, iterations=1)

    # faster-than-real-time contract: >= 1000 simulated seconds per wall
    # second is ample slack on any hardware (typically ~5000x)
    assert run.fail_time > 100.0
    wall = benchmark.stats.stats.mean
    assert run.fail_time / wall > 1000.0


def test_substrate_speedup(campaign_config):
    """Record ticks/sec for both engines and assert the fused win.

    Best-of-3 per engine: the ratio of best passes is far less noisy
    than single-shot timing, which is what lets this assert a floor at
    all on shared hardware. Both passes verify bit-identical output
    first — a speedup over different work would be meaningless.
    """
    n_measure = 4

    def measure(condition) -> tuple[float, int, list]:
        sim = TestbedSimulator(campaign_config, condition)
        best = float("inf")
        records = []
        ticks = 0
        for _ in range(3):
            rngs = np.random.default_rng(campaign_config.seed).spawn(n_measure)
            start = time.perf_counter()
            records = [sim.run_once(r) for r in rngs]
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            ticks = sum(int(round(r.fail_time / campaign_config.dt)) for r in records)
        return best, ticks, records

    loop_s, loop_ticks, loop_records = measure(LoopMemoryExhaustion())
    fused_s, fused_ticks, fused_records = measure(MemoryExhaustion())

    assert loop_ticks == fused_ticks
    for a, b in zip(loop_records, fused_records):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.fail_time == b.fail_time

    speedup = loop_s / fused_s
    record = {
        "bench": "substrate_speedup",
        "n_runs": n_measure,
        "ticks": loop_ticks,
        "loop": {
            "best_s": round(loop_s, 4),
            "ticks_per_s": round(loop_ticks / loop_s, 1),
        },
        "fused": {
            "best_s": round(fused_s, 4),
            "ticks_per_s": round(fused_ticks / fused_s, 1),
        },
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "bit_identical": True,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    assert speedup >= SPEEDUP_FLOOR, (
        f"fused engine only {speedup:.2f}x over the loop "
        f"(floor {SPEEDUP_FLOOR}x); see {BENCH_PATH.name}"
    )


def test_batch_aggregation_throughput(benchmark, history):
    cfg = AggregationConfig(window_seconds=20.0)

    dataset = benchmark(lambda: aggregate_history(history, cfg))

    assert dataset.n_samples > 100
    n_raw = history.n_datapoints
    wall = benchmark.stats.stats.mean
    # vectorized reduceat path: > 100k raw datapoints per second
    assert n_raw / wall > 100_000.0


def test_online_aggregation_throughput(benchmark, history):
    run = history[0]
    node = np.zeros(1, dtype=np.int64)

    def stream():
        fs = FleetStream(1, 20.0)
        rows = [
            wins[0]
            for raw in run.features
            if len(wins := fs.ingest(node, raw[None, :])[1])
        ]
        return np.vstack(rows)

    online = benchmark(stream)

    # Bit parity with the batch path (the core invariant; also tested in
    # unit tests — asserted here so the bench never drifts from it). A
    # window completes when the next one opens, so nothing completes the
    # run's last window.
    batch, _ = aggregate_run(run, AggregationConfig(window_seconds=20.0))
    np.testing.assert_array_equal(online, batch[:-1])
