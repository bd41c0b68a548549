"""Parallel campaign execution: fan simulation runs out to a pool.

The parent spawns **all** per-run generators before dispatch (the
SeedSequence spawning protocol, exactly as the serial loop does), so a
run's random stream depends only on the campaign seed and the run
index — never on which worker executes it or in what order. Merged
histories are therefore bit-identical for any worker count; see
``tests/parallel/test_determinism.py``.

Workers return ``(RunRecord, WorkerTelemetry)``; the parent reassembles
both in run-index order, so the campaign's metrics/spans/manifests are
byte-for-byte what the serial path would have produced (modulo wall
clocks).

Each worker runs the serial loop's own per-run body,
``TestbedSimulator.run_indexed``. The execution substrate
(``CampaignConfig.substrate``) rides along in the pickled config, so a
worker runs the same fused/loop engine the serial path would, and
``jobs=N`` x fused stays bit-identical to ``jobs=1`` x loop
(``tests/system/test_substrate_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.parallel import telemetry
from repro.parallel.pool import run_tasks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulator imports us)
    from repro.core.history import RunRecord
    from repro.store.checkpoint import CampaignCheckpoint
    from repro.system.simulator import TestbedSimulator


def _campaign_task(payload: dict[str, Any]) -> tuple:
    """Worker entry point: simulate one run, capture its telemetry."""
    from repro.system.simulator import TestbedSimulator

    telemetry.configure_worker(
        payload["trace_on"], payload["metrics_on"], payload.get("bus_on")
    )
    telemetry.begin_capture()
    simulator = TestbedSimulator(payload["config"], payload["failure_condition"])
    record = simulator.run_indexed(payload["index"], payload["rng"])
    return record, telemetry.collect()


def run_campaign_parallel(
    simulator: "TestbedSimulator",
    rngs: "list[np.random.Generator]",
    *,
    jobs: int,
    start_index: int = 0,
) -> "list[RunRecord]":
    """Execute one pre-seeded run per generator on ``jobs`` processes.

    Called by :meth:`TestbedSimulator.run_many` with the campaign span
    already open, so the merged per-run spans land under it.
    ``start_index`` offsets the telemetry run indices when the batch is
    a resumed or checkpointed slice of a larger campaign.
    """
    from repro.obs import get_metrics, get_telemetry, get_tracer

    tracer = get_tracer()
    registry = get_metrics()
    payloads = [
        {
            "index": start_index + i,
            "config": simulator.config,
            "failure_condition": simulator.failure_condition,
            "rng": rng,
            "trace_on": tracer.enabled,
            "metrics_on": registry.enabled,
            "bus_on": get_telemetry().enabled,
        }
        for i, rng in enumerate(rngs)
    ]
    outcomes = run_tasks(
        _campaign_task,
        payloads,
        jobs=jobs,
        labels=[f"campaign run {start_index + i}" for i in range(len(payloads))],
    )
    records: "list[RunRecord]" = []
    for record, task_telemetry in outcomes:
        telemetry.merge(task_telemetry)
        records.append(record)
    return records


def run_campaign_checkpointed(
    simulator: "TestbedSimulator",
    rngs: "list[np.random.Generator]",
    *,
    done: "list[RunRecord]",
    checkpoint: "CampaignCheckpoint",
    every: int,
    jobs: int,
) -> "list[RunRecord]":
    """Execute the remaining runs in chunks of ``every``, persisting the
    completed prefix after each chunk.

    ``done`` is the already-resumed prefix (its generators were spawned
    and skipped by the caller). Chunking does not perturb determinism:
    each run's stream comes from its own pre-spawned generator, so the
    concatenation of prefix + chunks is bit-identical to one
    uninterrupted dispatch. A killed process loses at most ``every - 1``
    completed runs of work.
    """
    if every < 1:
        raise ValueError(f"checkpoint interval must be >= 1, got {every}")
    records: "list[RunRecord]" = []
    for start in range(0, len(rngs), every):
        chunk = rngs[start : start + every]
        records.extend(
            simulator.run_many(chunk, jobs=jobs, start_index=len(done) + start)
        )
        if start + every < len(rngs):  # final chunk completes the campaign
            checkpoint.save(done + records)
    return records
