"""Fleet controller equivalence battery.

Two contracts anchor the fleet layer, both bit-exact (the same standard
the ``fused`` substrate holds against the legacy ``loop``):

1. a fleet of one node with no floor and no drain — which is what
   ``ManagedSystem`` runs — reproduces the old single-node loop
   (``ReferenceManagedSystem``) episode-for-episode, and
2. the batched struct-of-arrays plane is indistinguishable from the
   per-node scalar reference plane — same episodes, same predictions —
   across seeds, policies, and faulted monitor streams.

The references live in ``control_reference.py``. On top: the capacity
floor, drain, telemetry and the FleetStream SoA sanitize+aggregate plane.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultProfile
from repro.ml.ensemble import BaggingRegressor
from repro.obs import get_metrics, get_telemetry, get_tracer
from repro.rejuvenation import fleet as fleet_module
from repro.rejuvenation import (
    FleetConfig,
    FleetController,
    FleetSource,
    FleetStream,
    ManagedSystem,
    ManagedSystemConfig,
    NoRejuvenation,
    PeriodicRejuvenation,
    PredictiveRejuvenation,
    SimulatedFleetSource,
    SyntheticFleetSource,
    SyntheticFleetSpec,
    summarize_fleet,
)
from repro.system import DiurnalLoad, StepLoad
from repro.system.failure import FailureCondition
from repro.utils.rng import as_rng
from tests.conftest import small_campaign
from tests.rejuvenation.control_reference import (
    OnlineAggregator,
    ReferenceManagedSystem,
    StreamSanitizer,
    reference_plane,
)

SPEC = SyntheticFleetSpec()

#: The control planes a fleet can run on: the batched plane it ships
#: with, and the per-node scalar reference plane (installed by
#: :func:`on_plane`).
PLANES = ("scalar", "batched")


@contextlib.contextmanager
def on_plane(monkeypatch, plane):
    """Fleets built while open score on ``plane``."""
    with monkeypatch.context() as m:
        if plane == "scalar":
            m.setattr(fleet_module, "_BatchedPlane", reference_plane)
        yield


def managed_config(**kwargs):
    defaults = dict(horizon_seconds=3000.0, window_seconds=20.0)
    defaults.update(kwargs)
    return ManagedSystemConfig(**defaults)


def episode_key(node_log):
    return [
        (e.start, e.end, e.outcome, e.predicted_rttf) for e in node_log.episodes
    ]


def fleet_key(log):
    return [episode_key(nl) for nl in log.node_logs]


def predictive():
    return PredictiveRejuvenation(SPEC.linear_model(), rttf_margin=150.0)


class HalfSwapExhaustion(FailureCondition):
    """Overflow past half the swap: a predicate with no threshold form, so
    the fleet node runs the loop episode."""

    def is_failed(self, view):
        return view.state.overflow_kb > 0.5 * view.state.config.swap_kb


#: Fast leaks: a node crashes within one 400 s restart interval at full
#: load and outlives it at 30% load, so episode outcomes follow the load.
FAST_LEAK = dict(leak_kb_range=(4096.0, 8192.0))
STEP_LOAD = StepLoad(breakpoints=(700.0, 2100.0), fractions=(1.0, 0.3, 0.8))

#: Fleet-of-one inputs beyond the default campaign: (campaign overrides,
#: failure condition). Under periodic restarts later episodes boot at a
#: wall time above zero, which pins the load-schedule offset.
ONE_NODE_INPUTS = {
    "step-load": ({**FAST_LEAK, "load_schedule": STEP_LOAD}, None),
    "diurnal-load": (
        {**FAST_LEAK, "load_schedule": DiurnalLoad(period=900.0)},
        None,
    ),
    "custom-failure": ({}, HalfSwapExhaustion()),
    "loop-substrate": (
        {**FAST_LEAK, "load_schedule": STEP_LOAD, "substrate": "loop"},
        None,
    ),
}


def one_node_cases():
    cases = [
        pytest.param(seed, plane, None, id=f"{seed}-{plane}")
        for seed in (1, 7)
        for plane in ("batched", "scalar")
    ]
    cases += [pytest.param(3, "batched", name, id=name) for name in ONE_NODE_INPUTS]
    return cases


def m5p_policy(models):
    return PredictiveRejuvenation(models["m5p"], rttf_margin=150.0)


#: ManagedSystem ≡ ReferenceManagedSystem inputs: name -> (policy factory,
#: campaign overrides, managed-config overrides, failure condition, fault
#: spec). The off-grid downtimes and horizon are not multiples of the
#: tick; the step load gives that case both crashes and restarts.
REFERENCE_INPUTS = {
    "none": (lambda m: NoRejuvenation(), {}, {}, None, None),
    "periodic": (lambda m: PeriodicRejuvenation(400.0), {}, {}, None, None),
    "predictive-m5p": (m5p_policy, {}, {}, None, None),
    "predictive-bagged-lower-bound": (
        lambda m: PredictiveRejuvenation(
            m["bagged"], rttf_margin=150.0, lower_bound_quantile=0.1
        ),
        {},
        {},
        None,
        None,
    ),
    "nan-0.25": (m5p_policy, {}, {}, None, "nan=0.25"),
    "nan-1.0": (lambda m: PeriodicRejuvenation(400.0), {}, {}, None, "nan=1.0"),
    "mixed-faults": (
        lambda m: PeriodicRejuvenation(400.0),
        {},
        {},
        None,
        "nan=0.1,ooo=0.1,dup=0.05",
    ),
    "off-grid": (
        lambda m: PeriodicRejuvenation(400.0),
        {**FAST_LEAK, "load_schedule": STEP_LOAD},
        dict(
            rejuvenation_downtime=17.3,
            crash_downtime=123.7,
            horizon_seconds=3001.7,
        ),
        None,
        None,
    ),
    "step-load": (
        lambda m: PeriodicRejuvenation(400.0),
        {**FAST_LEAK, "load_schedule": STEP_LOAD},
        {},
        None,
        None,
    ),
    "diurnal-load": (
        lambda m: PeriodicRejuvenation(400.0),
        {**FAST_LEAK, "load_schedule": DiurnalLoad(period=900.0)},
        {},
        None,
        None,
    ),
    "half-swap-exhaustion": (
        lambda m: NoRejuvenation(),
        {},
        {},
        HalfSwapExhaustion(),
        None,
    ),
    "loop-substrate": (
        lambda m: PeriodicRejuvenation(400.0),
        {**FAST_LEAK, "load_schedule": STEP_LOAD, "substrate": "loop"},
        {},
        None,
        None,
    ),
}


class TestFleetOfOne:
    """Fleet-of-1 ≡ ManagedSystem ≡ the old single-node loop."""

    @pytest.mark.parametrize("seed, plane, inputs", one_node_cases())
    def test_matches_managed_system(self, seed, plane, inputs, monkeypatch):
        campaign = small_campaign(n_runs=2)
        condition = None
        if inputs is not None:
            overrides, condition = ONE_NODE_INPUTS[inputs]
            campaign = dataclasses.replace(campaign, **overrides)
        mcfg = managed_config(horizon_seconds=4000.0)
        # The fleet spawns one child stream off the root seed; hand the
        # same child to the single-node runs so all three draw identical
        # bits.
        ref = ReferenceManagedSystem(
            campaign, mcfg, PeriodicRejuvenation(400.0), failure_condition=condition
        ).run(seed=as_rng(seed).spawn(1)[0])
        with on_plane(monkeypatch, plane):
            ms = ManagedSystem(
                campaign,
                mcfg,
                PeriodicRejuvenation(400.0),
                failure_condition=condition,
            ).run(seed=as_rng(seed).spawn(1)[0])
            fl = FleetController(
                SimulatedFleetSource(campaign, failure_condition=condition),
                mcfg,
                PeriodicRejuvenation(400.0),
                FleetConfig(n_nodes=1),
            ).run(seed=seed)
        for log in (ms, fl.node_logs[0]):
            assert episode_key(log) == episode_key(ref)
            assert log.total_uptime == ref.total_uptime
            assert log.total_downtime == ref.total_downtime

    def test_matches_managed_system_under_faults(self):
        campaign = small_campaign(n_runs=2)
        mcfg = managed_config(horizon_seconds=4000.0)
        profile = FaultProfile.from_spec("nan=0.1,ooo=0.1,dup=0.05")
        ref = ReferenceManagedSystem(
            campaign, mcfg, PeriodicRejuvenation(400.0), fault_profile=profile
        ).run(seed=as_rng(9).spawn(1)[0])
        ms = ManagedSystem(
            campaign, mcfg, PeriodicRejuvenation(400.0), fault_profile=profile
        ).run(seed=as_rng(9).spawn(1)[0])
        fl = FleetController(
            SimulatedFleetSource(campaign, fault_profile=profile),
            mcfg,
            PeriodicRejuvenation(400.0),
            FleetConfig(n_nodes=1),
        ).run(seed=9)
        assert episode_key(ms) == episode_key(ref)
        assert episode_key(fl.node_logs[0]) == episode_key(ref)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("inputs", sorted(REFERENCE_INPUTS))
    def test_managed_system_matches_reference(self, inputs, seed, rttf_models):
        policy, overrides, managed, condition, faults = REFERENCE_INPUTS[inputs]
        campaign = dataclasses.replace(small_campaign(n_runs=2), **overrides)
        mcfg = managed_config(**{"horizon_seconds": 2500.0, **managed})
        logs = [
            system(
                campaign,
                mcfg,
                policy(rttf_models),
                failure_condition=condition,
                fault_profile=faults and FaultProfile.from_spec(faults),
            ).run(seed=seed)
            for system in (ReferenceManagedSystem, ManagedSystem)
        ]
        ref, ms = logs
        assert episode_key(ms) == episode_key(ref)
        assert ms.total_uptime == ref.total_uptime
        assert ms.total_downtime == ref.total_downtime
        total = ref.total_uptime + ref.total_downtime
        assert total == pytest.approx(mcfg.horizon_seconds)


class TestBatchedVsScalar:
    """The batched SoA plane against the per-node scalar reference plane."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_predictive(self, seed, monkeypatch):
        logs = {}
        for plane in PLANES:
            with on_plane(monkeypatch, plane):
                logs[plane] = FleetController(
                    SyntheticFleetSource(SPEC),
                    managed_config(),
                    predictive(),
                    FleetConfig(n_nodes=25),
                ).run(seed=seed)
        assert fleet_key(logs["scalar"]) == fleet_key(logs["batched"])
        assert logs["batched"].n_episodes > 25  # nodes actually cycled

    def test_synthetic_crash_only(self, monkeypatch):
        logs = {}
        for plane in PLANES:
            with on_plane(monkeypatch, plane):
                logs[plane] = FleetController(
                    SyntheticFleetSource(SPEC),
                    managed_config(),
                    NoRejuvenation(),
                    FleetConfig(n_nodes=10),
                ).run(seed=5)
        assert fleet_key(logs["scalar"]) == fleet_key(logs["batched"])
        assert logs["batched"].n_crashes > 0

    def test_simulated_faulted_stream(self, monkeypatch):
        campaign = small_campaign(n_runs=2)
        profile = FaultProfile.from_spec("nan=0.1,ooo=0.1,dup=0.05")
        logs = {}
        for plane in PLANES:
            with on_plane(monkeypatch, plane):
                logs[plane] = FleetController(
                    SimulatedFleetSource(campaign, fault_profile=profile),
                    managed_config(horizon_seconds=4000.0),
                    PeriodicRejuvenation(400.0),
                    FleetConfig(n_nodes=4),
                ).run(seed=11)
        assert fleet_key(logs["scalar"]) == fleet_key(logs["batched"])

    def test_lower_bound_quantile(self, monkeypatch):
        rng = np.random.default_rng(0)
        n = 400
        X = rng.normal(size=(n, 30))
        X[:, 2] = rng.uniform(2e5, 7.8e5, size=n)
        X[:, 7] = rng.uniform(0, 2.6e5, size=n)
        y = (SPEC.capacity_kb - X[:, 2] - X[:, 7]) / 600.0
        y += rng.normal(0, 30.0, size=n)
        bag = BaggingRegressor(n_estimators=8, seed=0).fit(X, y)
        logs = {}
        for plane in PLANES:
            pol = PredictiveRejuvenation(
                bag, rttf_margin=150.0, lower_bound_quantile=0.1
            )
            with on_plane(monkeypatch, plane):
                logs[plane] = FleetController(
                    SyntheticFleetSource(SPEC),
                    managed_config(),
                    pol,
                    FleetConfig(n_nodes=12),
                ).run(seed=6)
        assert fleet_key(logs["scalar"]) == fleet_key(logs["batched"])
        assert logs["batched"].n_rejuvenations > 0

    def test_batched_rejects_unknown_policy(self):
        from repro.rejuvenation import RejuvenationPolicy

        class Custom(RejuvenationPolicy):
            def should_rejuvenate(self, window_row, run_age):
                return False

        with pytest.raises(ValueError, match="got Custom$"):
            FleetController(
                SyntheticFleetSource(SPEC),
                managed_config(),
                Custom(),
                FleetConfig(n_nodes=2),
            ).run(seed=0)


class TestCapacityFloor:
    def test_floor_holds_for_planned_restarts(self):
        # Interval chosen so deferred nodes restart long before their
        # earliest possible crash — the floor then fully explains the
        # live-fraction trajectory.
        fl = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            PeriodicRejuvenation(300.0),
            FleetConfig(n_nodes=10, capacity_floor=0.8),
        ).run(seed=4)
        assert fl.n_crashes == 0
        assert fl.floor_violations == 0
        assert fl.min_live_fraction >= 0.8
        assert fl.restarts_deferred > 0  # the floor actually bit
        assert fl.n_rejuvenations > 10  # and everyone still cycled

    def test_no_floor_lets_capacity_collapse(self):
        # All nodes boot together and share one interval: with no floor
        # they all restart at once.
        fl = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            PeriodicRejuvenation(300.0),
            FleetConfig(n_nodes=10, capacity_floor=0.0),
        ).run(seed=4)
        assert fl.min_live_fraction == 0.0
        assert fl.restarts_deferred == 0

    def test_crashes_bypass_floor_and_are_counted(self):
        fl = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            NoRejuvenation(),
            FleetConfig(n_nodes=10, capacity_floor=0.9),
        ).run(seed=5)
        assert fl.n_crashes > 0
        assert fl.floor_violations > 0
        assert fl.min_live_fraction < 0.9


class TestDrain:
    def test_drain_extends_uptime_and_stays_planned(self):
        fl = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            PeriodicRejuvenation(600.0),
            FleetConfig(n_nodes=4, drain_seconds=30.0),
        ).run(seed=4)
        ups = {
            round(e.end - e.start, 1)
            for nl in fl.node_logs
            for e in nl.episodes
            if e.outcome == "rejuvenation"
        }
        # trigger at 600s + 30s drain = 630s of serving time
        assert ups == {630.0}

    def test_zero_drain_kills_at_trigger(self):
        fl = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            PeriodicRejuvenation(600.0),
            FleetConfig(n_nodes=4, drain_seconds=0.0),
        ).run(seed=4)
        ups = {
            round(e.end - e.start, 1)
            for nl in fl.node_logs
            for e in nl.episodes
            if e.outcome == "rejuvenation"
        }
        assert ups == {600.0}


class TestFleetTelemetry:
    def test_series_and_events(self):
        obs.reset()
        fl = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            predictive(),
            FleetConfig(n_nodes=6),
        ).run(seed=2)
        snap = get_telemetry().snapshot()
        assert {
            "fleet.live_fraction",
            "fleet.capacity_headroom",
            "fleet.predicted_failures_per_hour",
        } <= set(snap["series"])
        kinds = {e["event"] for e in snap["events"]}
        assert "rejuvenation" in kinds
        nodes = {e["node"] for e in snap["events"] if "node" in e}
        assert nodes == set(range(6))  # per-node episode events
        assert fl.scoring_calls > 0
        # batching: strictly fewer model calls than rows scored
        assert fl.scored_rows > fl.scoring_calls
        predict = get_metrics().snapshot()["histograms"]["fleet.predict_seconds"]
        assert predict["count"] == fl.scoring_calls

    @pytest.mark.parametrize("inputs", ["fused", "fallback", "loop"])
    def test_simulated_fleet_counter_deltas(self, inputs):
        """Testbed nodes count their monitor samples, a loop fallback once
        per episode, and no campaign-run telemetry."""
        campaign = small_campaign(n_runs=2)
        condition = HalfSwapExhaustion() if inputs == "fallback" else None
        if inputs == "loop":
            campaign = dataclasses.replace(campaign, substrate="loop")
        source = SampleCounter(
            SimulatedFleetSource(campaign, failure_condition=condition)
        )
        obs.reset()
        fl = FleetController(
            source,
            managed_config(horizon_seconds=2000.0),
            PeriodicRejuvenation(400.0),
            FleetConfig(n_nodes=3),
        ).run(seed=5)
        snap = get_metrics().snapshot()
        counters = snap["counters"]
        assert source.samples > 0
        assert counters["monitor.samples_total"] == source.samples
        fallbacks = fl.n_episodes if inputs == "fallback" else 0
        assert counters.get("sim.fused_fallback_total", 0) == fallbacks
        assert not [
            name
            for name in [*counters, *snap["histograms"]]
            if name.startswith("sim.") and name != "sim.fused_fallback_total"
        ]
        names = [sp.name for root in get_tracer().roots for sp in root.walk()]
        assert "fleet.run" in names
        assert not [n for n in names if n.startswith("simulate.run")]

    def test_summarize_fleet_row(self):
        fl = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            NoRejuvenation(),
            FleetConfig(n_nodes=3),
        ).run(seed=1)
        report = summarize_fleet(fl)
        assert len(report.row()) == len(report.HEADERS)
        assert report.n_nodes == 3
        assert 0.0 < report.availability <= 1.0


class SampleCounter(FleetSource):
    """Pass-through source counting the monitor samples its steps report."""

    def __init__(self, inner):
        self.inner = inner
        self.dt = inner.dt
        self.samples = 0

    def bind(self, rngs, horizon):
        self.inner.bind(rngs, horizon)
        self.n_nodes = self.inner.n_nodes

    def boot(self, node):
        self.inner.boot(node)

    def step(self, ids, walls, nows):
        out = self.inner.step(ids, walls, nows)
        self.samples += out[0].size
        return out


class NodeTaggedSource(SyntheticFleetSource):
    """Synthetic fleet whose idle ``cpu_nice`` column carries the node id,
    so every scored window row names its node (the window mean of a
    constant column is that constant)."""

    def _rows(self, ids, tgen):
        rows = super()._rows(ids, tgen)
        rows[:, 10] = ids
        return rows


class RecordingModel:
    """Pass-through model that logs ``(node, window mean tgen, prediction)``
    per scored row, in call order. Rows of every third node predict NaN,
    which no plane may record as a prediction."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        pred = np.array(self.inner.predict(X), dtype=np.float64)
        node = X[:, 10].astype(np.int64)
        pred[node % 3 == 0] = np.nan
        self.rows.extend(zip(node.tolist(), X[:, 0].tolist(), pred.tolist()))
        return pred


def predictions_in_crashed_episodes(log, rows):
    """Non-NaN predictions made during episodes that ended in a crash.

    A node's predictions split into episodes where the window mean tgen
    (episode-local time) drops; only a node's final episode can end
    before its first window completes, so the j-th group is episode j.
    """
    groups = {}
    last_t = {}
    for node, t_mean, pred in rows:
        if node not in groups or t_mean < last_t[node]:
            groups.setdefault(node, []).append([])
        groups[node][-1].append(pred)
        last_t[node] = t_mean
    count = 0
    for node, eps in groups.items():
        episodes = log.node_logs[node].episodes
        assert len(eps) <= len(episodes)
        for preds, ep in zip(eps, episodes):
            if ep.outcome == "crash":
                count += int(np.count_nonzero(~np.isnan(preds)))
    return count


class TestRttfErrorSeries:
    def test_batched_matches_scalar_and_counts_crashed_predictions(
        self, monkeypatch
    ):
        # A 40 s margin lets fast-leaking nodes crash before two
        # sub-margin windows arrive, while slow leakers still restart.
        series, logs = {}, {}
        for plane in PLANES:
            obs.reset()
            model = RecordingModel(SPEC.linear_model())
            with on_plane(monkeypatch, plane):
                log = FleetController(
                    NodeTaggedSource(SPEC),
                    managed_config(),
                    PredictiveRejuvenation(model, rttf_margin=40.0),
                    FleetConfig(n_nodes=8),
                ).run(seed=2)
            s = get_telemetry().snapshot()["series"]["fleet.rttf_error"]
            assert s["stride"] == 1, "test scenario overflowed the series ring"
            points = np.asarray(s["points"], dtype=np.float64)
            assert len(points) == s["total"]
            assert len(points) == predictions_in_crashed_episodes(log, model.rows)
            series[plane], logs[plane] = points, log
        assert fleet_key(logs["scalar"]) == fleet_key(logs["batched"])
        assert logs["batched"].n_crashes > 0
        assert logs["batched"].n_rejuvenations > 0
        assert len(series["batched"]) > 0
        assert series["scalar"][:, 0].tobytes() == series["batched"][:, 0].tobytes()
        assert series["scalar"][:, 1].tobytes() == series["batched"][:, 1].tobytes()


class TestFleetStream:
    """The SoA sanitize+aggregate plane against its scalar references."""

    def _scalar_pipeline(self, n, window):
        sans = [StreamSanitizer() for _ in range(n)]
        aggs = [OnlineAggregator(window, policy="repair") for _ in range(n)]
        return sans, aggs

    def test_matches_scalar_pipeline_on_mixed_stream(self):
        n, window = 5, 10.0
        rng = np.random.default_rng(0)
        stream = FleetStream(n, window)
        sans, aggs = self._scalar_pipeline(n, window)
        got, want = [], []
        t = np.zeros(n)
        for _ in range(400):
            ids = np.flatnonzero(rng.uniform(size=n) < 0.7)
            if ids.size == 0:
                continue
            t[ids] += rng.uniform(0.5, 2.0, size=ids.size)
            rows = rng.normal(10.0, 1.0, size=(ids.size, 15))
            rows[:, 0] = t[ids]
            # sprinkle faults: NaN rows, backwards clocks, duplicates
            u = rng.uniform(size=ids.size)
            rows[u < 0.05, 3] = np.nan
            back = u > 0.93
            rows[back, 0] = np.maximum(t[ids][back] - 3.0, 0.0)
            done, wins = stream.ingest(ids, rows.copy())
            got.extend(zip(done.tolist(), wins))
            for i, raw in zip(ids, rows):
                d = sans[int(i)].process(raw.copy())
                if d.row is None:
                    continue
                win = aggs[int(i)].add(d.row)
                if win is not None:
                    want.append((int(i), win))
        assert len(got) == len(want) > 0
        for (gi, gw), (wi, ww) in zip(got, want):
            assert gi == wi
            assert gw.tobytes() == ww.tobytes()
        assert stream.dropped_total == sum(s.dropped_total for s in sans)
        assert stream.late_dropped == sum(a.late_dropped for a in aggs)

    def test_duplicate_ids_in_one_batch(self):
        # Duplication faults can put several rows for one node in one
        # tick; they must apply in order, exactly like sequential adds.
        # "two_windows" completes two windows (at t=12 and t=25) in one
        # batch, "unsorted" does so for several nodes out of id order:
        # only each node's last window may come back, ids sorted.
        window = 10.0
        inputs = {
            "duplicates": ([0] * 6, [1.0, 4.0, 4.0, 8.0, 12.0, 13.0], 1, [0]),
            "two_windows": ([0] * 3, [1.0, 12.0, 25.0], 2, [0]),
            "unsorted": (
                [3, 1, 3, 0, 1, 3, 2, 1],
                [1.0, 2.0, 12.0, 5.0, 11.0, 25.0, 3.0, 14.0],
                3,
                [1, 3],
            ),
        }
        for name, (ids, times, n_completed, want_ids) in inputs.items():
            ids = np.asarray(ids, dtype=np.int64)
            n = int(ids.max()) + 1
            stream = FleetStream(n, window)
            sans, aggs = self._scalar_pipeline(n, window)
            rows = np.tile(np.arange(15, dtype=float), (ids.size, 1))
            rows[:, 0] = times
            done, wins = stream.ingest(ids, rows.copy())
            want, completed = {}, 0
            for i, raw in zip(ids.tolist(), rows):
                d = sans[i].process(raw.copy())
                w = aggs[i].add(d.row)
                if w is not None:
                    want[i] = w
                    completed += 1
            assert completed == n_completed, name
            assert done.tolist() == sorted(want) == want_ids, name
            assert wins.shape == (len(want_ids), 30), name
            for i, w in zip(done.tolist(), wins):
                assert w.tobytes() == want[i].tobytes(), name

    def test_clock_reset_rebase_matches_scalar(self):
        window = 50.0
        stream = FleetStream(1, window)
        san = StreamSanitizer()
        agg = OnlineAggregator(window, policy="repair")
        times = list(np.arange(1.0, 40.0, 1.0)) + [2.0, 3.0, 4.0]
        for t in times:
            row = np.full(15, 5.0)
            row[0] = t
            stream.ingest(np.zeros(1, dtype=np.int64), row[None, :].copy())
            d = san.process(row.copy())
            if d.row is not None:
                agg.add(d.row)
        assert stream.resets_total == san.resets_total == 1
        assert stream.dropped_total == san.dropped_total

    def test_early_reset_beside_a_steady_node(self):
        # Node 0's clock resets after seven growing intervals, before its
        # 32-slot median ring fills, so the median (and the rebase) reads
        # exactly the intervals appended so far; node 1's steady rows
        # arrive in the same batches.
        window = 50.0
        stream = FleetStream(2, window)
        sans, aggs = self._scalar_pipeline(2, window)
        before = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0]
        after = list(np.arange(2.0, 120.0, 3.0))
        got, want = [], []
        for k, t0 in enumerate(before + after):
            rows = np.full((2, 15), 5.0)
            rows[:, 0] = (t0, 1.0 + 3.0 * k)
            rows[:, 3] = k
            done, wins = stream.ingest(np.arange(2), rows.copy())
            got.extend(zip(done.tolist(), wins))
            for i, raw in enumerate(rows):
                w = aggs[i].add(sans[i].process(raw.copy()).row)
                if w is not None:
                    want.append((i, w))
        assert stream.resets_total == sum(s.resets_total for s in sans) == 1
        assert len(got) == len(want) > 2
        for (gi, gw), (wi, ww) in zip(got, want):
            assert gi == wi and gw.tobytes() == ww.tobytes()

    def test_reset_node_preserves_quality_counters(self):
        stream = FleetStream(2, 10.0)
        bad = np.full((1, 15), np.nan)
        stream.ingest(np.zeros(1, dtype=np.int64), bad)
        assert stream.dropped_total == 1
        stream.reset_node(0)
        assert stream.dropped_total == 1  # cumulative, like the scalar layer

    def test_misshaped_rows_dropped(self):
        stream = FleetStream(1, 10.0)
        done, wins = stream.ingest(np.zeros(1, dtype=np.int64), [np.zeros(7)])
        assert done.size == 0 and wins.shape == (0, 30)
        assert stream.dropped_total == 1

    def test_window_buffer_growth(self):
        # More rows per window than the initial capacity: the SoA buffer
        # must grow, not truncate.
        window = 1000.0
        stream = FleetStream(1, window)
        san = StreamSanitizer()
        agg = OnlineAggregator(window, policy="repair")
        want = None
        for t in list(np.arange(1.0, 150.0)) + [1001.0]:
            row = np.full(15, 2.0)
            row[0] = t
            done, wins = stream.ingest(
                np.zeros(1, dtype=np.int64), row[None, :].copy()
            )
            d = san.process(row.copy())
            w = agg.add(d.row)
            if w is not None:
                want = w
        assert want is not None and done.tolist() == [0]
        assert wins[0].tobytes() == want.tobytes()


class TestValidation:
    def test_fleet_config_validation(self):
        with pytest.raises(ValueError, match="n_nodes"):
            FleetConfig(n_nodes=0)
        with pytest.raises(ValueError, match="capacity_floor"):
            FleetConfig(capacity_floor=1.0)
        with pytest.raises(ValueError, match="drain_seconds"):
            FleetConfig(drain_seconds=-1.0)

    def test_determinism(self):
        a = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            predictive(),
            FleetConfig(n_nodes=8),
        ).run(seed=3)
        b = FleetController(
            SyntheticFleetSource(SPEC),
            managed_config(),
            predictive(),
            FleetConfig(n_nodes=8),
        ).run(seed=3)
        assert fleet_key(a) == fleet_key(b)
