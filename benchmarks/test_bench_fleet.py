"""Fleet controller benches — 10k nodes in real time, batched scoring.

The fleet layer's reason to exist is cost-per-prediction on the hot
path (the Mantis concern from PAPERS.md): scoring N nodes must not cost
N model calls. Two claims are recorded into ``BENCH_fleet.json``:

- a 10,000-node fleet under a predictive policy simulates (tick, ingest,
  score, arbitrate) faster than real time — comfortably, so a live
  control plane at this scale is plausible on one core;
- batched RTTF scoring — one ``model.predict`` on an ``(n, 30)`` matrix
  — beats n per-row calls by a wide margin while returning bit-identical
  predictions (the fleet equivalence battery in
  ``tests/rejuvenation/test_fleet.py`` pins the same contract end-to-end).

Absolute timings belong to this hardware; the asserted floors are
conservative so shared CI boxes pass on merit, not luck.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.rejuvenation import (
    FleetConfig,
    FleetController,
    ManagedSystemConfig,
    PredictiveRejuvenation,
    SyntheticFleetSource,
    SyntheticFleetSpec,
)

BENCH_PATH = Path(__file__).parent / "BENCH_fleet.json"

#: The fleet must simulate at least this many x real time at 10k nodes.
#: The committed baseline measures ~150x; the floor only asserts the
#: headline claim ("real-time at fleet scale") with CI slack.
REALTIME_FLOOR = 2.0

#: Batched-over-scalar scoring speedup floor. The committed baseline
#: measures two orders of magnitude; 10x keeps the assertion meaningful
#: without tying it to one machine's constant factors.
SCORING_SPEEDUP_FLOOR = 10.0

N_NODES = 10_000


def _update_record(section: str, payload: dict) -> None:
    record = {"bench": "fleet"}
    if BENCH_PATH.exists():
        record = json.loads(BENCH_PATH.read_text())
    record[section] = payload
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def test_fleet_10k_nodes_realtime():
    spec = SyntheticFleetSpec()
    horizon = 600.0
    controller = FleetController(
        SyntheticFleetSource(spec),
        ManagedSystemConfig(horizon_seconds=horizon, window_seconds=20.0),
        PredictiveRejuvenation(spec.linear_model(), rttf_margin=150.0),
        FleetConfig(n_nodes=N_NODES),
    )
    start = time.perf_counter()
    log = controller.run(seed=0)
    wall = time.perf_counter() - start

    assert log.n_episodes >= N_NODES  # every node lived at least one episode
    assert log.scored_rows > 100_000  # scoring genuinely exercised
    # batching: the entire run used far fewer model calls than scored rows
    assert log.scoring_calls < log.scored_rows / 100

    realtime = horizon / wall
    _update_record(
        "fleet_10k_realtime",
        {
            "n_nodes": N_NODES,
            "sim_seconds": horizon,
            "wall_s": round(wall, 3),
            "x_realtime": round(realtime, 1),
            "scored_rows": log.scored_rows,
            "model_calls": log.scoring_calls,
            "episodes": log.n_episodes,
            "realtime_floor": REALTIME_FLOOR,
        },
    )
    assert realtime >= REALTIME_FLOOR, (
        f"10k-node fleet only {realtime:.2f}x real time "
        f"(floor {REALTIME_FLOOR}x); see {BENCH_PATH.name}"
    )


def test_batched_scoring_speedup():
    """One (n, 30) predict vs n per-row predicts: identical bits, floor.

    Best-of-3 per engine; bit-identity is asserted before timing is
    trusted — a speedup over different numbers would be meaningless.
    """
    spec = SyntheticFleetSpec()
    model = spec.linear_model()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N_NODES, 30))
    X[:, 2] = rng.uniform(2e5, 7.8e5, size=N_NODES)
    X[:, 7] = rng.uniform(0, 2.6e5, size=N_NODES)

    batched = model.predict(X)
    scalar = np.array([model.predict(X[k][None, :])[0] for k in range(N_NODES)])
    assert batched.tobytes() == scalar.tobytes()

    best_batched = min(
        _time(lambda: model.predict(X)) for _ in range(3)
    )
    scalar_rows = 500  # timing all 10k per-row calls is pointless per round
    best_scalar_sample = min(
        _time(lambda: [model.predict(X[k][None, :]) for k in range(scalar_rows)])
        for _ in range(3)
    )
    best_scalar = best_scalar_sample * (N_NODES / scalar_rows)

    speedup = best_scalar / best_batched
    _update_record(
        "batched_scoring_speedup",
        {
            "n_rows": N_NODES,
            "batched_best_s": round(best_batched, 6),
            "scalar_extrapolated_s": round(best_scalar, 4),
            "scalar_sampled_rows": scalar_rows,
            "speedup": round(speedup, 1),
            "speedup_floor": SCORING_SPEEDUP_FLOOR,
            "bit_identical": True,
        },
    )
    assert speedup >= SCORING_SPEEDUP_FLOOR, (
        f"batched scoring only {speedup:.1f}x over per-row calls "
        f"(floor {SCORING_SPEEDUP_FLOOR}x); see {BENCH_PATH.name}"
    )


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
