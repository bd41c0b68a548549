"""``FleetController`` ≡ ``ReferenceFleetController``, bit for bit.

Each scan of the fleet loop (boots, the running set, ingest and its
scatters, stale holds, time triggers, grants, drains, crashes) runs only
on ticks where it can change something, and ``SimulatedFleetSource``
looks for fresh nodes only when one has booted. The reference
(``control_reference.py``) is the loop and node stepper that ran every
scan on every tick. The two must agree on the whole ``FleetRunLog``,
every telemetry series and event, and every metrics counter, across
both sources, fleet sizes 1 to 40, every policy kind, capacity floors,
drains, off-grid downtimes, faulted streams, short staleness timeouts,
a tick that is no binary fraction and compiled scoring. A line trace
then shows that every guard both fires and skips somewhere in the
battery, so none of them is dead or always on.
"""

import dataclasses
import inspect
import sys

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultProfile
from repro.faults.models import ClockReset
from repro.ml.ensemble import BaggingRegressor
from repro.obs import get_metrics, get_telemetry
from repro.rejuvenation import (
    FleetConfig,
    FleetController,
    FleetStream,
    ManagedSystemConfig,
    NoRejuvenation,
    PeriodicRejuvenation,
    PredictiveRejuvenation,
    SimulatedFleetSource,
    SyntheticFleetSource,
    SyntheticFleetSpec,
)
from repro.system import StepLoad
from tests.conftest import small_campaign
from tests.rejuvenation.control_reference import (
    ReferenceFleetController,
    ReferenceSimulatedFleetSource,
)

SPEC = SyntheticFleetSpec()

#: Fast leaks under a step load: testbed nodes both crash and restart.
FAST_STEP = dict(
    leak_kb_range=(4096.0, 8192.0),
    load_schedule=StepLoad(breakpoints=(700.0, 2100.0), fractions=(1.0, 0.3, 0.8)),
)
#: Downtimes that are not multiples of the tick: nodes reboot off the
#: tick grid, so a node's wall + now trails the global clock.
OFF_GRID = dict(rejuvenation_downtime=17.3, crash_downtime=123.7)


def synthetic_bag():
    """A bagged ensemble fitted to the synthetic aging process."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 30))
    X[:, 2] = rng.uniform(2e5, 7.8e5, size=400)
    X[:, 7] = rng.uniform(0, 2.6e5, size=400)
    y = (SPEC.capacity_kb - X[:, 2] - X[:, 7]) / 600.0 + rng.normal(0, 30.0, 400)
    return BaggingRegressor(n_estimators=8, seed=0).fit(X, y)


POLICIES = {
    "none": lambda m: NoRejuvenation(),
    "periodic": lambda m: PeriodicRejuvenation(400.0),
    "m5p": lambda m: PredictiveRejuvenation(m["m5p"], rttf_margin=150.0),
    "bagged-lower-bound": lambda m: PredictiveRejuvenation(
        m["bagged"], rttf_margin=150.0, lower_bound_quantile=0.1
    ),
    "linear": lambda m: PredictiveRejuvenation(SPEC.linear_model(), rttf_margin=150.0),
    "synthetic-lower-bound": lambda m: PredictiveRejuvenation(
        synthetic_bag(), rttf_margin=150.0, lower_bound_quantile=0.1
    ),
}


@dataclasses.dataclass(frozen=True)
class Case:
    """One fleet run: source ("sim" testbed or "syn" closed-form nodes),
    size, policy, source overrides, ManagedSystemConfig and FleetConfig
    overrides, a fault spec or profile, the seeds to run, and the
    outcomes (see :func:`outcomes`) the run must reach."""

    source: str
    n: int
    policy: str
    source_kw: dict = dataclasses.field(default_factory=dict)
    managed_kw: dict = dataclasses.field(default_factory=dict)
    fleet_kw: dict = dataclasses.field(default_factory=dict)
    faults: "str | FaultProfile | None" = None
    seeds: tuple = (1,)
    expect: tuple = ()


CASES = {
    # Testbed nodes (SimulatedFleetSource).
    "sim-1-periodic": Case(
        "sim", 1, "periodic", FAST_STEP, seeds=(1, 2), expect=("restarts", "crashes")
    ),
    "sim-5-m5p-floor": Case(
        "sim",
        5,
        "m5p",
        fleet_kw=dict(capacity_floor=0.8),
        expect=("restarts", "deferred", "floor_violations"),
    ),
    "sim-5-lower-bound": Case("sim", 5, "bagged-lower-bound", expect=("restarts",)),
    "sim-5-periodic-drain-off-grid": Case(
        "sim",
        5,
        "periodic",
        FAST_STEP,
        OFF_GRID,
        dict(drain_seconds=10.0),
        expect=("restarts", "crashes"),
    ),
    "sim-5-none-off-grid-floor": Case(
        "sim",
        5,
        "none",
        FAST_STEP,
        OFF_GRID,
        dict(capacity_floor=0.8),
        expect=("crashes", "floor_violations"),
    ),
    # ~98% of rows dropped: after the first window, stale holds.
    "sim-5-nan-0.25": Case("sim", 5, "m5p", faults="nan=0.25", expect=("holds", "drops")),
    # Every row dropped: no window ever completes.
    "sim-3-nan-1.0": Case(
        "sim", 3, "periodic", faults="nan=1.0", expect=("restarts", "drops")
    ),
    "sim-5-mixed-faults-floor": Case(
        "sim",
        5,
        "periodic",
        fleet_kw=dict(capacity_floor=0.8),
        faults="nan=0.1,ooo=0.1,dup=0.05",
        expect=("deferred", "drops", "late"),
    ),
    "sim-3-clock-reset": Case(
        "sim",
        3,
        "none",
        faults=FaultProfile(models=(ClockReset(at_fraction=(0.1, 0.3)),)),
        expect=("crashes", "resets"),
    ),
    "sim-2-loop": Case(
        "sim", 2, "periodic", {**FAST_STEP, "substrate": "loop"}, expect=("restarts",)
    ),
    "sim-5-short-staleness": Case(
        "sim",
        5,
        "m5p",
        managed_kw=dict(staleness_timeout=7.0),
        faults="drop=0.1",
        expect=("restarts", "holds"),
    ),
    # Closed-form nodes (SyntheticFleetSource).
    "syn-1-none": Case("syn", 1, "none", expect=("crashes",)),
    "syn-40-linear-floor": Case(
        "syn", 40, "linear", fleet_kw=dict(capacity_floor=0.8), expect=("restarts",)
    ),
    "syn-40-linear-floor-drain-compiled": Case(
        "syn",
        40,
        "linear",
        fleet_kw=dict(capacity_floor=0.8, drain_seconds=10.0, scoring="compiled"),
        expect=("restarts",),
    ),
    "syn-40-none-off-grid": Case("syn", 40, "none", managed_kw=OFF_GRID, expect=("crashes",)),
    "syn-40-periodic-floor-drain": Case(
        "syn",
        40,
        "periodic",
        fleet_kw=dict(capacity_floor=0.8, drain_seconds=10.0),
        expect=("restarts", "deferred"),
    ),
    "syn-12-lower-bound": Case(
        "syn",
        12,
        "synthetic-lower-bound",
        managed_kw=dict(horizon_seconds=1500.0),
        expect=("restarts",),
    ),
    "syn-5-short-staleness-off-grid": Case(
        "syn",
        5,
        "linear",
        managed_kw=dict(staleness_timeout=3.0, **OFF_GRID),
        expect=("restarts", "holds"),
    ),
    # A 0.3 s tick is no binary fraction: the global clock and each
    # node's clock are float sums that round apart, and the 30 s and
    # 300 s downtimes land on the tick grid only up to rounding. Without
    # this case, the boot guard without its 1e-9 and the stale guard
    # without its one-tick slack both pass the battery.
    "syn-5-tick-0.3-short-staleness": Case(
        "syn",
        5,
        "linear",
        dict(dt=0.3, sample_interval=0.9, interval_jitter=0.0),
        dict(staleness_timeout=1.8, window_seconds=3.0, horizon_seconds=1000.0),
        expect=("restarts", "holds"),
    ),
}


def build(case, models, reference):
    """(controller class, source, managed config, policy, fleet config)."""
    faults = case.faults
    if isinstance(faults, str):
        faults = FaultProfile.from_spec(faults)
    if case.source == "sim":
        campaign = dataclasses.replace(small_campaign(n_runs=2), **case.source_kw)
        cls = ReferenceSimulatedFleetSource if reference else SimulatedFleetSource
        source = cls(campaign, fault_profile=faults)
        horizon = 2000.0
    else:
        assert faults is None, "closed-form nodes have no monitor faults"
        source = SyntheticFleetSource(dataclasses.replace(SPEC, **case.source_kw))
        horizon = 2500.0
    managed = ManagedSystemConfig(
        **{"horizon_seconds": horizon, "window_seconds": 20.0, **case.managed_kw}
    )
    fleet = FleetConfig(n_nodes=case.n, **case.fleet_kw)
    controller = ReferenceFleetController if reference else FleetController
    return controller, source, managed, POLICIES[case.policy](models), fleet


def observe(case, models, seed, reference):
    """Everything one run leaves behind that the loop can influence."""
    controller, source, managed, policy, fleet = build(case, models, reference)
    obs.reset()
    log = controller(source, managed, policy, fleet).run(seed=seed)
    metrics = get_metrics().snapshot()
    return {
        "log": log,
        "telemetry": get_telemetry().snapshot(),
        "counters": metrics["counters"],
        "histogram_counts": {k: h["count"] for k, h in metrics["histograms"].items()},
    }


def outcomes(run):
    """Whether the run restarted, deferred, crashed, breached the floor,
    held a stale window, rebased a clock, dropped or late-dropped rows."""
    log, counters = run["log"], run["counters"]
    return dict(
        restarts=log.n_rejuvenations > 0,
        deferred=log.restarts_deferred > 0,
        crashes=log.n_crashes > 0,
        floor_violations=log.floor_violations > 0,
        holds="fleet.stale_holds_total" in counters,
        resets="sanitize.stream_resets_total" in counters,
        drops=log.stream_dropped > 0,
        late=log.late_dropped > 0,
    )


@pytest.mark.parametrize(
    "name, seed",
    [pytest.param(name, s, id=f"{name}-{s}") for name in CASES for s in CASES[name].seeds],
)
def test_matches_reference(name, seed, rttf_models):
    case = CASES[name]
    ref = observe(case, rttf_models, seed, reference=True)
    got = observe(case, rttf_models, seed, reference=False)
    assert got["log"] == ref["log"]
    assert got["telemetry"] == ref["telemetry"]
    assert got["counters"] == ref["counters"]
    assert got["histogram_counts"] == ref["histogram_counts"]
    reached = outcomes(ref)
    assert {e: reached[e] for e in case.expect} == {e: True for e in case.expect}


# -- every guard fires and skips somewhere ---------------------------------------

#: (function, guard line). The guard's body starts on the next line.
GUARDS = [
    (FleetController._run, "if next_boot <= t + 1e-9:"),
    (FleetController._run, "if changed:"),
    (FleetController._run, "if not cont.all():"),
    (FleetController._run, "if sample_ids.size:"),
    (FleetController._run, "if comp_ids.size:"),
    (FleetController._run, "if due_ids.size and t >= stale_from:"),
    (FleetController._run, "if periodic:"),
    (FleetController._run, "if wants.any():"),
    (FleetController._run, "if n_draining:"),
    (FleetController._run, "if crashed.any():"),
    (SimulatedFleetSource.step, "if self._n_fresh:"),
    (FleetStream._ingest_unique, "if low.any():"),
]

#: Cheap cases that together reach both sides of every guard.
TRACED = [
    "syn-5-short-staleness-off-grid",
    "sim-3-clock-reset",
    "sim-5-periodic-drain-off-grid",
]


def guard_lines():
    lines = {}
    for fn, marker in GUARDS:
        src, start = inspect.getsourcelines(fn)
        hits = [start + k for k, text in enumerate(src) if text.strip() == marker]
        assert len(hits) == 1, marker
        lines[(fn.__code__, hits[0])] = marker
    return lines


def test_every_guard_fires_and_skips(rttf_models):
    """A guard fired when the line run right after it is the next source
    line (the first of its body), and skipped when it is any other."""
    lines = guard_lines()
    codes = {code for code, _ in lines}
    seen = {marker: set() for marker in lines.values()}
    last = {}

    def tracer(frame, event, arg):
        if frame.f_code not in codes:
            return None
        if event == "line":
            code = frame.f_code
            prev = last.get(frame)
            if (code, prev) in lines:
                seen[lines[code, prev]].add(frame.f_lineno == prev + 1)
            last[frame] = frame.f_lineno
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        for name in TRACED:
            observe(CASES[name], rttf_models, CASES[name].seeds[0], reference=False)
    finally:
        sys.settrace(old)
    assert {m: sorted(o) for m, o in seen.items()} == {m: [False, True] for m in seen}
