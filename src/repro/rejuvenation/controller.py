"""Managed-system simulation: the testbed under a rejuvenation policy.

Runs the same components as :class:`~repro.system.simulator.TestbedSimulator`
(machine, TPC-W pool, app server, FMC), but closes the control loop: every
FMC datapoint feeds a streaming aggregator, and each completed window is
handed to the policy. A policy trigger performs a *planned* restart
(short downtime); a failure-condition trigger performs a *crash* restart
(long downtime — state recovery, fsck, cache warm-up). The controller
accounts wall-clock uptime and downtime over a fixed horizon so that
policies can be compared by availability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregation import OnlineAggregator
from repro.obs import get_logger, get_metrics, kv, span
from repro.rejuvenation.policy import RejuvenationPolicy

_log = get_logger("rejuvenation.controller")
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


@dataclass(frozen=True)
class ManagedSystemConfig:
    """Horizon and downtime accounting for a managed simulation."""

    #: Total simulated wall-clock horizon (seconds).
    horizon_seconds: float = 20_000.0
    #: Downtime of a planned (rejuvenation) restart.
    rejuvenation_downtime: float = 30.0
    #: Downtime of an unplanned crash (recovery, fsck, warm-up).
    crash_downtime: float = 300.0
    #: Aggregation window for the online feature stream.
    window_seconds: float = 20.0
    #: Monitor-dropout tolerance: when no aggregation window has
    #: completed for this long (monitor wedged, every sample dropped by
    #: the sanitizer, ...), the controller *holds the last completed
    #: window* and keeps consulting the policy with it — degraded but
    #: alive — instead of going blind. ``None`` resolves to 5 windows.
    staleness_timeout: "float | None" = None

    def __post_init__(self) -> None:
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if self.rejuvenation_downtime < 0 or self.crash_downtime < 0:
            raise ValueError("downtimes must be non-negative")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.staleness_timeout is not None and self.staleness_timeout <= 0:
            raise ValueError("staleness_timeout must be positive (or None)")

    @property
    def resolved_staleness_timeout(self) -> float:
        if self.staleness_timeout is not None:
            return self.staleness_timeout
        return 5.0 * self.window_seconds


@dataclass(frozen=True)
class Episode:
    """One uptime stretch, ended by a crash, a rejuvenation, or the horizon."""

    start: float
    end: float
    outcome: str  # "crash" | "rejuvenation" | "horizon"
    predicted_rttf: "float | None" = None  # at the trigger, if predictive

    @property
    def uptime(self) -> float:
        return self.end - self.start


@dataclass
class ManagedRunLog:
    """Everything a managed simulation produced."""

    policy_name: str
    episodes: list[Episode] = field(default_factory=list)
    total_uptime: float = 0.0
    total_downtime: float = 0.0

    @property
    def n_crashes(self) -> int:
        return sum(1 for e in self.episodes if e.outcome == "crash")

    @property
    def n_rejuvenations(self) -> int:
        return sum(1 for e in self.episodes if e.outcome == "rejuvenation")

    @property
    def availability(self) -> float:
        total = self.total_uptime + self.total_downtime
        return self.total_uptime / total if total > 0 else 1.0


class ManagedSystem:
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
                    f"ManagedSystem does not support CampaignConfig.{name}: "
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
        from repro.core.sanitize import StreamSanitizer
        from repro.obs import get_telemetry
        from repro.obs.profile import get_profiler

        wall = 0.0  # global wall clock (uptime + downtime)
        sanitizer = StreamSanitizer(self.sanitize_config)
        staleness = mcfg.resolved_staleness_timeout
        bus = get_telemetry()
        profiler = get_profiler()
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
                        with profiler.stage("controller.predict"):
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
                        with profiler.stage("controller.predict"):
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
