"""Observability overhead bench — the <5% guarantee, measured.

The telemetry layer's claim is that a run may leave *everything* on —
metrics, spans, the telemetry bus and a live JSONL exporter — and pay
under 5% wall-clock over a fully dark run (``--no-obs``). This bench
measures both configurations on the fused campaign and records the
result into ``BENCH_obs_overhead.json``; CI's ``obs-overhead`` job
reruns it on every push.

Measurement discipline (the effect is a few percent, smaller than the
raw run-to-run jitter of shared CI hardware, so the harness has to work
for its number):

- **paired samples**: each sample times one full campaign; dark and lit
  samples alternate back-to-back, with the order flipped every pair so
  a load ramp penalizes neither arm systematically;
- **GC control**: collected before and frozen during each sample, so
  one arm never pays the other arm's garbage;
- **median of pairwise ratios**: a ratio per adjacent pair, median
  across pairs — robust to the occasional co-tenant spike that poisons
  a mean or a best-of;
- **retry**: an over-ceiling reading triggers up to two fresh
  measurements (a real regression fails all of them; a noise spike does
  not survive three).
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from repro import obs
from repro.obs.telemetry import JsonlExporter, get_telemetry
from repro.system import TestbedSimulator

BENCH_PATH = Path(__file__).parent / "BENCH_obs_overhead.json"

#: Maximum tolerated fractional wall-clock cost of the full telemetry
#: stack over a dark (``--no-obs``) run of the same campaign.
OVERHEAD_CEILING = 0.05

#: Interleaved dark/lit pairs per measurement attempt.
N_PAIRS = 16

#: Fresh measurement attempts before the assertion gives up.
N_ATTEMPTS = 3


def _timed_campaign(campaign_config) -> float:
    """One timed sample: a full campaign, GC frozen for the duration."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        TestbedSimulator(campaign_config).run_campaign(jobs=1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _measure_once(campaign_config, tmp_path, attempt: int) -> dict:
    """One attempt: N_PAIRS alternating-order pairs, median ratio."""
    bus = get_telemetry()
    exporter = JsonlExporter(tmp_path / f"bench_{attempt}.jsonl")

    def dark() -> float:
        obs.reset()
        obs.disable()
        try:
            return _timed_campaign(campaign_config)
        finally:
            obs.enable()

    points_total = 0

    def lit() -> float:
        nonlocal points_total
        obs.reset()
        bus.add_sink(exporter)
        try:
            elapsed = _timed_campaign(campaign_config)
        finally:
            bus.remove_sink(exporter)
        points_total = sum(bus.series(name).total for name in bus.names())
        return elapsed

    ratios = []
    try:
        for i in range(N_PAIRS):
            if i % 2:
                lit_s, dark_s = lit(), dark()
            else:
                dark_s, lit_s = dark(), lit()
            ratios.append(lit_s / dark_s)
    finally:
        exporter.close()
        obs.reset()
    return {
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "pair_ratios": [round(r - 1.0, 4) for r in sorted(ratios)],
        "telemetry_points": points_total,
    }


def test_full_telemetry_overhead_under_ceiling(campaign_config, tmp_path):
    # Warm both paths (imports, numpy caches) before anything is timed.
    TestbedSimulator(campaign_config).run_campaign(jobs=1)

    attempts = []
    best = None
    for attempt in range(N_ATTEMPTS):
        result = _measure_once(campaign_config, tmp_path, attempt)
        attempts.append(round(result["overhead_fraction"], 4))
        if best is None or result["overhead_fraction"] < best["overhead_fraction"]:
            best = result
        if result["overhead_fraction"] < OVERHEAD_CEILING:
            break

    overhead = best["overhead_fraction"]
    record = {
        "bench": "obs_overhead",
        "campaign_runs": campaign_config.n_runs,
        "pairs_per_attempt": N_PAIRS,
        "attempt_medians": attempts,
        "overhead_fraction": round(overhead, 4),
        "overhead_ceiling": OVERHEAD_CEILING,
        "pair_ratios": best["pair_ratios"],
        "telemetry_points": best["telemetry_points"],
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    # The instrumented run actually instrumented something.
    assert best["telemetry_points"] > 0

    assert overhead < OVERHEAD_CEILING, (
        f"full telemetry costs {overhead:.1%} over a dark run in every "
        f"attempt ({attempts}; ceiling {OVERHEAD_CEILING:.0%}); "
        f"see {BENCH_PATH.name}"
    )
