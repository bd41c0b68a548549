"""The control loop's scalar references: the oracles the fleet plane matches.

Moved here from ``src/`` when ``ManagedSystem`` became a fleet of one
(``FleetController`` over one ``SimulatedFleetSource`` node). Only names
and imports changed; the logic is the code that ran before:

- :class:`ReferenceManagedSystem` — the single-node episode loop on the
  object-graph tick (machine, TPC-W pool, app server, FMC) with its own
  sanitizer, streaming aggregator and policy consults;
- :class:`ScalarPlane` — the per-node-object control plane:
  N × (:class:`StreamSanitizer`, :class:`OnlineAggregator`,
  :func:`clone` of the policy). Install it in place of the batched plane
  with ``monkeypatch.setattr(fleet, "_BatchedPlane", reference_plane)``;
- :class:`StreamSanitizer` + ``OnlineAggregator(policy="repair")`` — the
  per-row stream guard and windowing that ``FleetStream`` vectorizes;
- :class:`ReferenceFleetController` over
  :class:`ReferenceSimulatedFleetSource` — the N-node loop and node
  stepper that ran every scan on every tick, before each scan got a
  guard that skips it on ticks where it cannot fire.

``tests/rejuvenation/test_fleet.py`` pins ``ManagedSystem`` and the
batched plane to these bit for bit, and
``tests/rejuvenation/test_fleet_reference.py`` pins ``FleetController``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.datapoint import FEATURES
from repro.core.sanitize import SanitizeConfig
from repro.obs import get_logger, get_metrics, get_telemetry, kv, span
from repro.rejuvenation.controller import (
    Episode,
    ManagedRunLog,
    ManagedSystemConfig,
)
from repro.rejuvenation import fleet
from repro.rejuvenation.fleet import (
    _N_RAW,
    _NO_IDS,
    NODE_DOWN,
    NODE_DRAINING,
    NODE_FINISHED,
    NODE_LIVE,
    FleetController,
    FleetRunLog,
    SimulatedFleetSource,
    _no_windows,
)
from repro.rejuvenation.policy import RejuvenationPolicy
from repro.system.anomalies import AnomalyProfile
from repro.system.failure import FailureCondition, SystemView
from repro.system.monitor import FeatureMonitorClient
from repro.system.resources import MachineState
from repro.system.server import AppServer
from repro.system.simulator import (
    INJECTOR_SWITCHES,
    CampaignConfig,
    resolve_failure,
)
from repro.system.tpcw import EmulatedBrowserPool
from repro.utils.rng import as_rng

_log = get_logger("rejuvenation.controller")


# -- streaming aggregation and its guard (were repro.core) -------------------------


class OnlineAggregator:
    """Streaming counterpart of :func:`aggregate_run` (unlabelled).

    Feed raw datapoints one at a time; whenever a time window closes, the
    completed window's aggregated feature row (same 30-column schema,
    same Eq. 1 slope and gen-time semantics as the batch path — parity is
    tested) is returned. Used by the proactive-rejuvenation controller,
    which must evaluate the RTTF model *during* a run, not after it.

    Parameters
    ----------
    window_seconds : the aggregation interval (same as the batch config).
    min_points : windows with fewer raw datapoints are suppressed, exactly
        as :class:`AggregationConfig.min_points` drops them in the batch
        path (their datapoints still advance the inter-generation-time
        chain, again matching batch semantics).
    policy : ``"strict"`` (default) raises on out-of-order arrivals;
        ``"repair"`` tolerates bounded reordering — a late datapoint still
        belonging to the *current* window is inserted in timestamp order,
        one belonging to an already-closed window is dropped and counted
        in :attr:`late_dropped` (and the ``sanitize.online_late_dropped``
        counter). The bound therefore equals one aggregation window,
        which is also the most the batch path could absorb while keeping
        its windows identical.
    """

    def __init__(
        self,
        window_seconds: float,
        *,
        min_points: int = 1,
        policy: str = "strict",
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if min_points < 1:
            raise ValueError(f"min_points must be >= 1, got {min_points}")
        if policy not in ("strict", "repair"):
            raise ValueError(
                f"policy must be 'strict' or 'repair', got {policy!r}"
            )
        self.window_seconds = window_seconds
        self.min_points = min_points
        self.policy = policy
        #: repair-mode count of datapoints dropped for arriving after
        #: their window had already closed.
        self.late_dropped = 0
        self._rows: list[np.ndarray] = []
        self._intervals: list[float] = []
        self._unsorted = False
        self._bin: int | None = None
        self._last_tgen: float = 0.0
        # Last tgen of the previously finalized window: the anchor the
        # interval chain restarts from when a window needs re-sorting.
        self._window_anchor: float = 0.0

    def _finalize(self) -> "np.ndarray | None":
        block = np.vstack(self._rows)
        if self._unsorted:
            # Bounded reordering happened inside this window: restore the
            # batch path's sorted order and rebuild the interval chain
            # from the previous window's last timestamp (exactly what the
            # batch path computes after its global stable sort).
            order = np.argsort(block[:, 0], kind="stable")
            block = block[order]
            intervals = np.diff(np.concatenate([[self._window_anchor], block[:, 0]]))
        else:
            intervals = np.asarray(self._intervals)
        n = block.shape[0]
        self._rows.clear()
        self._intervals.clear()
        self._unsorted = False
        self._window_anchor = float(block[-1, 0])
        if n < self.min_points:
            return None
        # Sum with np.add.reduceat, exactly like the batch path: np.mean
        # uses pairwise summation, which can differ from the sequential
        # segment sum in the last ulp and break batch<->online bit parity.
        start = np.zeros(1, dtype=np.intp)
        means = np.add.reduceat(block, start, axis=0)[0] / n
        slopes = (block[-1, 1:] - block[0, 1:]) / n
        gen_time = float(np.add.reduceat(np.asarray(intervals, dtype=np.float64), start)[0] / n)
        return np.concatenate([means, slopes, [gen_time]])

    def add(self, datapoint_row: np.ndarray) -> "np.ndarray | None":
        """Ingest one raw datapoint (15-column row, canonical order).

        Returns the completed previous window's aggregated row when this
        datapoint opens a new window (and the window clears
        ``min_points``), else ``None``.
        """
        row = np.asarray(datapoint_row, dtype=np.float64)
        if row.shape != (len(FEATURES),):
            raise ValueError(f"expected a ({len(FEATURES)},) row, got {row.shape}")
        tgen = float(row[0])
        if tgen < self._last_tgen:
            if self.policy == "strict":
                raise ValueError("datapoints must arrive in tgen order")
            new_bin = int(tgen // self.window_seconds)
            if self._bin is None or new_bin < self._bin:
                # The window this datapoint belongs to already closed:
                # beyond the reordering bound — quarantine the point.
                self.late_dropped += 1
                from repro.obs import get_metrics

                get_metrics().inc("sanitize.online_late_dropped")
                return None
            # Late but still inside the open window: insert in order.
            self._rows.append(row)
            self._unsorted = True
            return None
        new_bin = int(tgen // self.window_seconds)
        finished: np.ndarray | None = None
        if self._bin is not None and new_bin != self._bin and self._rows:
            finished = self._finalize()
        self._bin = new_bin
        self._rows.append(row)
        # Batch-path semantics: each point carries the interval that
        # preceded it; the run's first point carries its own tgen (and
        # _last_tgen is 0 right after construction/reset, so the same
        # expression covers it).
        self._intervals.append(tgen - self._last_tgen)
        self._last_tgen = tgen
        return finished

    def flush(self) -> "np.ndarray | None":
        """Finalize the (possibly partial) current window, if any.

        Windows below ``min_points`` are suppressed here too, mirroring
        the batch path's treatment of the run's final window.
        """
        if not self._rows:
            return None
        return self._finalize()

    def reset(self) -> None:
        """Forget all buffered state (after a restart/rejuvenation)."""
        self._rows.clear()
        self._intervals.clear()
        self._unsorted = False
        self._bin = None
        self._last_tgen = 0.0
        self._window_anchor = 0.0


@dataclass
class StreamDecision:
    """What :meth:`StreamSanitizer.process` did with one datapoint."""

    row: "np.ndarray | None"  # sanitized row to feed downstream, or None
    dropped: bool = False
    reset: bool = False  # a clock reset was detected (and re-based)


class StreamSanitizer:
    """Guard in front of a live :class:`~repro.core.aggregation.OnlineAggregator`.

    Applies the repair policy to a datapoint *stream*: rows with
    non-finite cells are dropped (interpolation needs the future),
    clock resets are re-based onto the monotone stream clock, and
    bounded reordering is passed through for the aggregator's own
    repair mode to resolve. Used by the rejuvenation controller so a
    monitor glitch degrades the control loop instead of crashing it.
    """

    def __init__(self, config: "SanitizeConfig | None" = None) -> None:
        self.config = config or SanitizeConfig()
        self.dropped_total = 0
        self.resets_total = 0
        self._offset = 0.0
        self._max_tgen = 0.0
        self._last_intervals: list[float] = []

    def reset(self) -> None:
        """Forget stream state (after a restart/rejuvenation)."""
        self._offset = 0.0
        self._max_tgen = 0.0
        self._last_intervals.clear()

    def _median_interval(self) -> float:
        return float(np.median(self._last_intervals)) if self._last_intervals else 0.0

    def process(self, datapoint_row: np.ndarray) -> StreamDecision:
        row = np.asarray(datapoint_row, dtype=np.float64)
        metrics = get_metrics()
        if row.shape != (len(FEATURES),) or not np.isfinite(row).all() or row[0] < 0:
            self.dropped_total += 1
            metrics.inc("sanitize.stream_dropped_total")
            # Live cumulative-drop series, timestamped on the monotone
            # stream clock (the row's own clock may be the corruption).
            get_telemetry().emit(
                "sanitize.stream_dropped", self._max_tgen, float(self.dropped_total)
            )
            return StreamDecision(row=None, dropped=True)
        tgen = float(row[0]) + self._offset
        med = self._median_interval()
        reset = False
        if (
            med > 0
            and tgen < self.config.clock_reset_fraction * self._max_tgen
            and self._max_tgen - tgen > self.config.min_reset_drop * med
        ):
            # Clock reset: re-base so the downstream clock stays monotone.
            self._offset += self._max_tgen + med - tgen
            tgen = float(row[0]) + self._offset
            self.resets_total += 1
            reset = True
            metrics.inc("sanitize.stream_resets_total")
            get_telemetry().emit(
                "sanitize.stream_resets", tgen, float(self.resets_total)
            )
        if tgen > self._max_tgen:
            if self._max_tgen > 0:
                self._last_intervals.append(tgen - self._max_tgen)
                if len(self._last_intervals) > 32:
                    del self._last_intervals[0]
            self._max_tgen = tgen
        if self._offset != 0.0:
            row = row.copy()
            row[0] = tgen
        return StreamDecision(row=row, reset=reset)


# -- the per-node control plane (was repro.rejuvenation.fleet) ---------------------


def clone(policy: RejuvenationPolicy) -> RejuvenationPolicy:
    """Fresh-state copy for per-node fleet use.

    The copy is shallow — heavyweight immutable collaborators (the
    fitted model) are shared — but decision state is reset, so clones
    of one prototype drive independent nodes.
    """
    twin = copy.copy(policy)
    twin.reset()
    return twin


class ScalarPlane:
    """Per-node-object control plane: the oracle the batched plane matches."""

    def __init__(self, n, window_seconds, sanitize_config, policy) -> None:
        self._san = [StreamSanitizer(sanitize_config) for _ in range(n)]
        self._agg = [
            OnlineAggregator(window_seconds, policy="repair") for _ in range(n)
        ]
        self._pol = [clone(policy) for _ in range(n)]

    def reset_node(self, i: int) -> None:
        self._san[i].reset()
        self._agg[i].reset()
        self._pol[i].reset()

    def ingest(self, ids, rows) -> tuple[np.ndarray, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        for i, raw in zip(ids, rows):
            i = int(i)
            decision = self._san[i].process(raw)
            if decision.row is None:
                continue
            window = self._agg[i].add(decision.row)
            if window is not None:
                out[i] = window
        if not out:
            return _no_windows()
        done = np.asarray(sorted(out), dtype=np.int64)
        return done, np.vstack([out[i] for i in done.tolist()])

    def consult(self, ids, X, ages):
        n = ids.size
        trig = np.zeros(n, dtype=bool)
        preds = np.full(n, np.nan)
        lbs = np.full(n, np.nan)
        for k in range(n):
            pol = self._pol[int(ids[k])]
            trig[k] = pol.should_rejuvenate(X[k], run_age=float(ages[k]))
            pred = getattr(pol, "last_prediction", None)
            if pred is not None:
                preds[k] = pred
            lb = getattr(pol, "last_lower_bound", None)
            if lb is not None:
                lbs[k] = lb
        return trig, preds, lbs

    def time_triggers(self, ids, ages):
        return np.fromiter(
            (
                self._pol[int(i)].time_trigger(float(a))
                for i, a in zip(ids, ages)
            ),
            dtype=bool,
            count=ids.size,
        )

    def last_prediction(self, i: int) -> "float | None":
        return getattr(self._pol[int(i)], "last_prediction", None)

    def predicted_failures(self, ids, horizon_s: float) -> int:
        n = 0
        for i in ids:
            pred = getattr(self._pol[int(i)], "last_prediction", None)
            if pred is not None and pred < horizon_s:
                n += 1
        return n

    def stats(self) -> dict[str, int]:
        return {
            "stream_dropped": sum(s.dropped_total for s in self._san),
            "late_dropped": sum(a.late_dropped for a in self._agg),
        }


def reference_plane(n, window_seconds, sanitize_config, policy, scoring="exact"):
    """Drop-in for ``fleet._BatchedPlane``: the scalar plane (exact scoring)."""
    assert scoring == "exact", "the scalar plane scores exactly"
    return ScalarPlane(n, window_seconds, sanitize_config, policy)


# -- the single-node loop (was ManagedSystem.run) ---------------------------------


class ReferenceManagedSystem:
    """The testbed under a rejuvenation policy, simulated over a horizon."""

    def __init__(
        self,
        campaign: CampaignConfig,
        managed: ManagedSystemConfig,
        policy: RejuvenationPolicy,
        failure_condition: FailureCondition | None = None,
        fault_profile=None,
        sanitize_config=None,
    ) -> None:
        # Its nodes step without the anomaly injectors, so a config that
        # enables one is rejected instead of running as the baseline leak.
        for name in INJECTOR_SWITCHES:
            if getattr(campaign, name):
                raise ValueError(
                    f"ReferenceManagedSystem does not support CampaignConfig.{name}: "
                    "its nodes run without anomaly injectors"
                )
        self.campaign = campaign
        self.managed = managed
        self.policy = policy
        self.failure_condition = resolve_failure(campaign, failure_condition)
        #: Optional :class:`repro.faults.FaultProfile` corrupting the
        #: monitor stream *before* the sanitize layer sees it — the
        #: robustness harness for the control loop.
        self.fault_profile = fault_profile
        #: Optional :class:`repro.core.sanitize.SanitizeConfig` for the
        #: stream sanitizer guarding the aggregator.
        self.sanitize_config = sanitize_config

    def run(self, seed: "int | None | np.random.Generator" = None) -> ManagedRunLog:
        """Simulate the managed system for the configured horizon."""
        cfg = self.campaign
        mcfg = self.managed
        rng = as_rng(seed if seed is not None else cfg.seed)
        log = ManagedRunLog(policy_name=self.policy.name)
        # Repair mode: the live loop tolerates bounded reordering instead
        # of crashing the controller; on a clean in-order stream it is
        # byte-for-byte identical to strict mode.
        aggregator = OnlineAggregator(mcfg.window_seconds, policy="repair")
        metrics = get_metrics()
        # Entered manually so the long episode loop below keeps its
        # indentation; the finally block guarantees the span closes.
        run_span = span(
            "rejuvenation.run",
            policy=self.policy.name,
            horizon_s=mcfg.horizon_seconds,
        ).__enter__()
        try:
            return self._run_episodes(cfg, mcfg, rng, log, aggregator, metrics)
        finally:
            run_span.set(
                episodes=len(log.episodes),
                crashes=log.n_crashes,
                rejuvenations=log.n_rejuvenations,
                availability=log.availability,
            ).__exit__()

    def _run_episodes(self, cfg, mcfg, rng, log, aggregator, metrics) -> ManagedRunLog:
        """Episode loop of :meth:`run` (split out for span bookkeeping)."""
        from repro.obs import get_telemetry

        wall = 0.0  # global wall clock (uptime + downtime)
        sanitizer = StreamSanitizer(self.sanitize_config)
        staleness = mcfg.resolved_staleness_timeout
        bus = get_telemetry()
        while wall < mcfg.horizon_seconds:
            # -- boot a fresh episode ---------------------------------------
            r_profile, r_pool, r_server, r_monitor = rng.spawn(4)
            # The corruptor RNG is spawned *only* when a fault profile is
            # installed, so clean runs consume the exact same seed
            # sequence as before this harness existed (bit-identical).
            corruptor = (
                self.fault_profile.stream(
                    rng.spawn(1)[0], horizon=mcfg.horizon_seconds
                )
                if self.fault_profile is not None
                else None
            )
            profile = AnomalyProfile.draw(
                r_profile,
                p_leak_range=cfg.p_leak_range,
                leak_kb_range=cfg.leak_kb_range,
                p_thread_range=cfg.p_thread_range,
            )
            state = MachineState(cfg.machine)
            pool = EmulatedBrowserPool(
                cfg.n_browsers,
                cfg.mix,
                seed=r_pool,
                use_sessions=cfg.use_session_chain,
            )
            server = AppServer(cfg.server, state, pool, profile, seed=r_server)
            fmc = FeatureMonitorClient(cfg.monitor, seed=r_monitor)
            fmc.reset(0.0)
            aggregator.reset()
            sanitizer.reset()
            self.policy.reset()

            episode_start = wall
            now = 0.0  # episode-local clock (what the features see)
            ewma_rt = 0.0
            outcome = "horizon"
            predicted: float | None = None
            # Hold-last-prediction state: the last completed window, when
            # it completed, and the earliest time a held (stale)
            # re-evaluation may run again.
            last_window: np.ndarray | None = None
            last_window_time = 0.0
            next_held_eval = 0.0
            # Predictions made this episode, kept so the true RTTF can be
            # emitted retrospectively once the episode's end is known:
            # (global time, episode age, predicted RTTF).
            pending_predictions: list[tuple[float, float, float]] = []

            while wall + now < mcfg.horizon_seconds:
                # The load schedule follows global wall time, not episode
                # time: a restart does not reset the time of day.
                fraction = cfg.load_schedule.active_fraction(wall + now)
                stats = server.tick(now, cfg.dt, fraction)
                now += cfg.dt
                if stats.n_completed > 0:
                    ewma_rt += 0.2 * (stats.mean_response_time - ewma_rt)

                if fmc.due(now):
                    t_abs = wall + now  # global telemetry timestamp
                    queue_delay = server.backlog_cpu_s / cfg.machine.n_cpus
                    dp = fmc.sample(now, state, stats.utilization, queue_delay)
                    bus.emit("controller.ewma_rt", t_abs, ewma_rt)
                    bus.emit("controller.utilization", t_abs, stats.utilization)
                    raw_rows = (
                        corruptor.feed(dp.to_array())
                        if corruptor is not None
                        else [dp.to_array()]
                    )
                    window: np.ndarray | None = None
                    for raw in raw_rows:
                        decision = sanitizer.process(raw)
                        if decision.row is None:
                            continue
                        completed = aggregator.add(decision.row)
                        if completed is not None:
                            window = completed
                    # Emitted on *every* monitor sample, not only when a
                    # window completes: when the sanitizer is dropping
                    # everything, no window ever completes — exactly when
                    # the drop counter must not flat-line on the dashboard.
                    bus.emit(
                        "sanitize.dropped_total",
                        t_abs,
                        float(sanitizer.dropped_total),
                    )
                    if window is not None:
                        last_window = window
                        last_window_time = now
                        trigger = self.policy.should_rejuvenate(
                            window, run_age=now
                        )
                        last_pred = getattr(self.policy, "last_prediction", None)
                        if last_pred is not None:
                            bus.emit("controller.predicted_rttf", t_abs, last_pred)
                            pending_predictions.append((t_abs, now, last_pred))
                        if trigger:
                            outcome = "rejuvenation"
                            predicted = last_pred
                            break
                    elif (
                        last_window is not None
                        and now - last_window_time > staleness
                        and now >= next_held_eval
                    ):
                        # Monitor dropout: no window has completed within
                        # the staleness timeout. Hold the last completed
                        # window and keep consulting the policy with it —
                        # degraded but alive — at most once per window
                        # interval, instead of going blind (or crashing).
                        next_held_eval = now + mcfg.window_seconds
                        metrics.inc("sanitize.stale_policy_holds_total")
                        bus.event(
                            t_abs,
                            "stale_hold",
                            policy=self.policy.name,
                            stale_for_s=now - last_window_time,
                        )
                        bus.emit(
                            "controller.stale_holds",
                            t_abs,
                            metrics.counter(
                                "sanitize.stale_policy_holds_total"
                            ).value,
                        )
                        _log.warning(
                            "monitor stream stale; holding last window %s",
                            kv(
                                policy=self.policy.name,
                                stale_for_s=now - last_window_time,
                            ),
                        )
                        trigger = self.policy.should_rejuvenate(
                            last_window, run_age=now
                        )
                        # A held consult is still a prediction: record it
                        # exactly like the normal path, so the truth series
                        # (controller.actual_rttf / rttf_error) covers the
                        # stretches where the controller flew on held data —
                        # the stretches whose accuracy matters most.
                        last_pred = getattr(self.policy, "last_prediction", None)
                        if last_pred is not None:
                            bus.emit("controller.predicted_rttf", t_abs, last_pred)
                            pending_predictions.append((t_abs, now, last_pred))
                        if trigger:
                            outcome = "rejuvenation"
                            predicted = last_pred
                            break

                # Time-based triggers cannot depend on the monitor stream:
                # they are evaluated every tick, so a wedged monitor (or a
                # first-window dropout, which also disables the stale-hold
                # path above) cannot starve a purely time-based policy.
                if self.policy.time_trigger(now):
                    outcome = "rejuvenation"
                    predicted = getattr(self.policy, "last_prediction", None)
                    break

                view = SystemView(
                    state=state,
                    mean_response_time=ewma_rt,
                    last_generation_interval=fmc.last_interval,
                )
                if self.failure_condition.is_failed(view):
                    outcome = "crash"
                    break

            uptime = min(now, mcfg.horizon_seconds - wall)
            log.total_uptime += uptime
            wall += uptime
            log.episodes.append(
                Episode(
                    start=episode_start,
                    end=episode_start + uptime,
                    outcome=outcome,
                    predicted_rttf=predicted,
                )
            )
            if outcome == "crash":
                # The episode's end is now known: emit the true RTTF for
                # every prediction made during it, timestamped where the
                # prediction was made, so predicted-vs-truth trajectories
                # line up on the dashboard's time axis.
                for t_pred, age, pred in pending_predictions:
                    truth = now - age
                    bus.emit("controller.actual_rttf", t_pred, truth)
                    bus.emit("controller.rttf_error", t_pred, pred - truth)
            bus.event(
                episode_start + uptime,
                outcome,
                policy=self.policy.name,
                uptime_s=uptime,
                predicted_rttf=predicted,
            )
            bus.emit("controller.episode_uptime", episode_start + uptime, uptime)
            metrics.inc(f"rejuvenation.episodes_total.{outcome}")
            metrics.observe("rejuvenation.episode_uptime_seconds", uptime)
            _log.info(
                "episode complete %s",
                kv(
                    policy=self.policy.name,
                    outcome=outcome,
                    uptime_s=uptime,
                    predicted_rttf=-1.0 if predicted is None else predicted,
                ),
            )

            if outcome == "horizon":
                break
            downtime = (
                mcfg.rejuvenation_downtime
                if outcome == "rejuvenation"
                else mcfg.crash_downtime
            )
            downtime = min(downtime, mcfg.horizon_seconds - wall)
            log.total_downtime += downtime
            wall += downtime

        return log


# -- the N-node loop before its per-tick guards (was repro.rejuvenation.fleet) -----

_fleet_log = get_logger("rejuvenation.fleet")


class ReferenceSimulatedFleetSource(SimulatedFleetSource):
    """``SimulatedFleetSource`` whose ``step`` scans for fresh nodes on
    every tick."""

    def step(self, ids, walls, nows):
        for i in ids[self._fresh[ids]].tolist():
            self._start(i, float(walls[i]))
        t_end = nows[ids] + self.dt
        pending = self._pending[ids]
        hit = np.flatnonzero(pending <= t_end)
        crashed = np.zeros(ids.size, dtype=bool)
        if hit.size == 0:
            return _NO_IDS, _NO_IDS, [], crashed
        if (pending[hit] != t_end[hit]).any():
            raise RuntimeError(
                "SimulatedFleetSource: a node's clock passed its pending "
                "event; every running node must be stepped on every tick"
            )
        due_ids: list[int] = []
        sample_ids: list[int] = []
        rows: list = []
        for k, i in zip(hit.tolist(), ids[hit].tolist()):
            _, row, _, failed = self._events[i]
            if row is not None:
                due_ids.append(i)
                corruptor = self._corruptors[i]
                if corruptor is None:
                    sample_ids.append(i)
                    rows.append(row)
                else:
                    for raw in corruptor.feed(np.asarray(row, dtype=np.float64)):
                        sample_ids.append(i)
                        rows.append(raw)
            if failed:
                crashed[k] = True
                self._episodes[i] = None
                self._pending[i] = np.inf
            else:
                self._advance(i)
        if due_ids:
            get_metrics().inc("monitor.samples_total", len(due_ids))
        if self.fault_profile is None and rows:
            rows = np.array(rows, dtype=np.float64)
        return (
            np.asarray(due_ids, dtype=np.int64),
            np.asarray(sample_ids, dtype=np.int64),
            rows,
            crashed,
        )


class ReferenceFleetController(FleetController):
    """``FleetController`` whose loop runs every scan on every tick.

    The control plane is looked up on the fleet module, so
    ``reference_plane`` installs here too.
    """

    def _run(self, fcfg, mcfg, log, rngs) -> FleetRunLog:
        from repro.obs import get_telemetry

        n = fcfg.n_nodes
        self.source.bind(rngs, mcfg.horizon_seconds)
        dt = self.source.dt
        horizon = mcfg.horizon_seconds
        staleness = mcfg.resolved_staleness_timeout
        plane = fleet._BatchedPlane(
            n,
            mcfg.window_seconds,
            self.sanitize_config,
            self.policy,
            scoring=fcfg.scoring,
        )
        bus = get_telemetry()
        metrics = get_metrics()

        status = np.full(n, NODE_LIVE, dtype=np.int8)
        walls = np.zeros(n, dtype=np.float64)
        nows = np.zeros(n, dtype=np.float64)
        ep_start = np.zeros(n, dtype=np.float64)
        down_until = np.zeros(n, dtype=np.float64)
        drain_until = np.full(n, np.inf, dtype=np.float64)
        last_window = np.zeros((n, 2 * _N_RAW), dtype=np.float64)
        has_lw = np.zeros(n, dtype=bool)
        lw_time = np.zeros(n, dtype=np.float64)
        next_held = np.zeros(n, dtype=np.float64)
        wants = np.zeros(n, dtype=bool)
        ep_pred: list[float | None] = [None] * n
        # Predictions made per episode, so the true RTTF can be emitted
        # retrospectively on crash: node i's first pred_count[i] records
        # of (global time, episode age, predicted), in the order made.
        pred_log = np.zeros((n, 16, 3), dtype=np.float64)
        pred_count = np.zeros(n, dtype=np.int64)
        allowed_down = int(np.floor((1.0 - fcfg.capacity_floor) * n + 1e-9))

        for i in range(n):
            self.source.boot(i)
            plane.reset_node(i)

        def end_episode(i: int, outcome: str) -> None:
            nl = log.node_logs[i]
            # Python floats, as the log's fields are typed: numpy scalars
            # would leak into reports and reprs of the run.
            uptime = float(min(nows[i], horizon - walls[i]))
            start = float(ep_start[i])
            nl.total_uptime += uptime
            walls[i] += uptime
            predicted = ep_pred[i] if outcome == "rejuvenation" else None
            end_t = start + uptime
            nl.episodes.append(
                Episode(
                    start=start,
                    end=end_t,
                    outcome=outcome,
                    predicted_rttf=predicted,
                )
            )
            if outcome == "crash" and pred_count[i]:
                recs = pred_log[i, : pred_count[i]]
                errors = recs[:, 2] - (nows[i] - recs[:, 1])
                for t_pred, err in zip(recs[:, 0].tolist(), errors.tolist()):
                    bus.emit("fleet.rttf_error", t_pred, err)
            bus.event(
                end_t,
                outcome,
                node=i,
                policy=self.policy.name,
                uptime_s=uptime,
                predicted_rttf=predicted,
            )
            metrics.inc(f"fleet.episodes_total.{outcome}")
            pred_count[i] = 0
            ep_pred[i] = None
            wants[i] = False
            drain_until[i] = np.inf
            if outcome == "horizon":
                status[i] = NODE_FINISHED
                return
            downtime = (
                mcfg.rejuvenation_downtime
                if outcome == "rejuvenation"
                else mcfg.crash_downtime
            )
            downtime = float(min(downtime, horizon - walls[i]))
            nl.total_downtime += downtime
            walls[i] += downtime
            if walls[i] >= horizon:
                status[i] = NODE_FINISHED
            else:
                status[i] = NODE_DOWN
                # A node may reboot once the global clock has covered its
                # consumed wall time (uptime + downtime so far) — exact on
                # the tick grid when downtimes are multiples of dt.
                down_until[i] = walls[i]

        t = 0.0
        it = 0
        max_iters = 4 * int(np.ceil(horizon / dt)) + 64
        while (status != NODE_FINISHED).any():
            if it > max_iters:
                raise RuntimeError(
                    f"fleet loop exceeded {max_iters} iterations — "
                    "a node is not making progress"
                )
            # 1. reboot nodes whose downtime has elapsed
            boots = np.flatnonzero(
                (status == NODE_DOWN) & (down_until <= t + 1e-9)
            )
            for i in boots:
                i = int(i)
                self.source.boot(i)
                plane.reset_node(i)
                nows[i] = 0.0
                ep_start[i] = walls[i]
                has_lw[i] = False
                lw_time[i] = 0.0
                next_held[i] = 0.0
                status[i] = NODE_LIVE
            running = np.flatnonzero(
                (status == NODE_LIVE) | (status == NODE_DRAINING)
            )
            if running.size == 0:
                t += dt
                it += 1
                continue
            # 2. horizon pre-check (mirrors `while wall + now < horizon`)
            cont = walls[running] + nows[running] < horizon
            for i in running[~cont]:
                end_episode(int(i), "horizon")
            running = running[cont]
            if running.size:
                # 3. tick all running nodes
                due_ids, sample_ids, rows, crashed = self.source.step(
                    running, walls, nows
                )
                nows[running] += dt
                # 4. sanitize + aggregate the tick's samples
                comp_ids, comp_w = plane.ingest(sample_ids, rows)
                last_window[comp_ids] = comp_w
                has_lw[comp_ids] = True
                lw_time[comp_ids] = nows[comp_ids]
                # 5. build the scoring set: freshly completed windows of
                # live nodes + stale-hold re-evaluations. A node that just
                # completed a window has lw_time == now, so it is never
                # stale (staleness > 0).
                fresh = status[comp_ids] == NODE_LIVE
                consult_ids = comp_ids[fresh]
                if due_ids.size:
                    d = due_ids[status[due_ids] == NODE_LIVE]
                    stale = d[
                        has_lw[d]
                        & (nows[d] - lw_time[d] > staleness)
                        & (nows[d] >= next_held[d])
                    ]
                else:
                    stale = np.empty(0, dtype=np.int64)
                if stale.size:
                    next_held[stale] = nows[stale] + mcfg.window_seconds
                    metrics.inc("fleet.stale_holds_total", float(stale.size))
                    score_ids = np.concatenate([consult_ids, stale])
                    X = np.concatenate([comp_w[fresh], last_window[stale]])
                else:
                    score_ids, X = consult_ids, comp_w[fresh]
                if score_ids.size:
                    t_predict = perf_counter()
                    trig, preds, _lbs = plane.consult(
                        score_ids, X, nows[score_ids]
                    )
                    metrics.observe(
                        "fleet.predict_seconds", perf_counter() - t_predict
                    )
                    log.scoring_calls += 1
                    log.scored_rows += int(score_ids.size)
                    ok = ~np.isnan(preds)
                    pi = score_ids[ok]
                    if pi.size:
                        slot = pred_count[pi]
                        if slot.max() >= pred_log.shape[1]:
                            pred_log = np.concatenate(
                                [pred_log, np.zeros_like(pred_log)], axis=1
                            )
                        pred_log[pi, slot, 0] = walls[pi] + nows[pi]
                        pred_log[pi, slot, 1] = nows[pi]
                        pred_log[pi, slot, 2] = preds[ok]
                        pred_count[pi] = slot + 1
                    # Fresh policy decisions overwrite any queued request:
                    # a node whose prediction recovered above the margin
                    # withdraws from the restart queue.
                    wants[score_ids] = trig
                # 6. time-based triggers, evaluated every tick
                live = running[status[running] == NODE_LIVE]
                tt = plane.time_triggers(live, nows[live])
                wants[live[tt]] = True
                # 7. grant planned restarts while capacity stays above the
                # floor; the rest wait (and re-request next tick)
                requests = np.flatnonzero(wants & (status == NODE_LIVE))
                if requests.size:
                    committed = int(
                        ((status == NODE_DOWN) | (status == NODE_DRAINING)).sum()
                    )
                    slots = max(0, allowed_down - committed)
                    granted = requests[:slots]
                    log.restarts_deferred += int(requests.size - granted.size)
                    for i in granted:
                        i = int(i)
                        wants[i] = False
                        ep_pred[i] = plane.last_prediction(i)
                        if fcfg.drain_seconds > 0:
                            status[i] = NODE_DRAINING
                            drain_until[i] = nows[i] + fcfg.drain_seconds
                        else:
                            end_episode(i, "rejuvenation")
                # 8. drains that have bled dry restart cleanly
                drained = np.flatnonzero(
                    (status == NODE_DRAINING) & (nows >= drain_until - 1e-9)
                )
                for i in drained:
                    end_episode(int(i), "rejuvenation")
                # 9. crashes (a trigger in the same tick wins, exactly like
                # the single-node loop's break-before-failure-check)
                for k in np.flatnonzero(crashed):
                    i = int(running[k])
                    if status[i] in (NODE_LIVE, NODE_DRAINING):
                        end_episode(i, "crash")
                        n_down = int((status == NODE_DOWN).sum())
                        if n_down > allowed_down:
                            log.floor_violations += 1
                            metrics.inc("fleet.floor_violations_total")
            # 10. capacity bookkeeping + fleet telemetry
            live_frac = 1.0 - float((status == NODE_DOWN).sum()) / n
            if live_frac < log.min_live_fraction:
                log.min_live_fraction = live_frac
            if it % fcfg.telemetry_stride == 0:
                bus.emit("fleet.live_fraction", t, live_frac)
                bus.emit(
                    "fleet.capacity_headroom", t, live_frac - fcfg.capacity_floor
                )
                live_now = np.flatnonzero(status == NODE_LIVE)
                bus.emit(
                    "fleet.predicted_failures_per_hour",
                    t,
                    float(plane.predicted_failures(live_now, 3600.0)),
                )
                # Cumulative, so the drop row stays live while the
                # sanitizer drops every sample and no window completes.
                bus.emit(
                    "sanitize.dropped_total",
                    t,
                    float(plane.stats()["stream_dropped"]),
                )
            t += dt
            it += 1

        stats = plane.stats()
        log.stream_dropped = int(stats["stream_dropped"])
        log.late_dropped = int(stats["late_dropped"])
        _fleet_log.info(
            "fleet run complete %s",
            kv(
                policy=self.policy.name,
                nodes=n,
                scoring=fcfg.scoring,
                episodes=log.n_episodes,
                crashes=log.n_crashes,
                rejuvenations=log.n_rejuvenations,
                availability=log.availability,
                min_live_fraction=log.min_live_fraction,
            ),
        )
        return log
