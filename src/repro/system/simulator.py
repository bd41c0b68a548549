"""Run-until-crash campaign simulator (paper Sec. IV experimental setup).

Mirrors the paper's controlled experiment: the TPC-W VM serves emulated
browsers while request-coupled anomalies accumulate; the FMC samples
features; when the user-defined failure condition fires, the fail event
is logged and the VM restarts with *fresh anomaly rates* (the modified
servlet redraws them at startup) — producing runs of varied length, which
is what gives the RTTF training data its coverage.

The paper ran for one wall-clock week; here a campaign of tens of runs
simulates in seconds. The loop advances in fixed ticks:

    tick -> server.tick()        (arrivals, anomalies, degradation, CPU)
         -> FMC sample if due    (load-stretched interval)
         -> failure check        (fail event -> RunRecord, restart)

Each engine simulates a run as a resumable node *episode*
(:func:`loop_episode` here, :func:`repro.system.fused.fused_episode` on the
fused engine), and the failure condition picks the engine.
:meth:`TestbedSimulator.run_once` runs one episode to its end; the fleet's
``SimulatedFleetSource`` resumes one per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.history import DataHistory, RunRecord
from repro.system.anomalies import (
    AnomalyProfile,
    ConnectionPoolInjector,
    FdLeakInjector,
    HeapFragmentationInjector,
    LockContentionInjector,
    MemoryLeakInjector,
    ThreadLeakInjector,
)
from repro.system.failure import (
    FailureCondition,
    MemoryExhaustion,
    SystemView,
    parse_failure,
)
from repro.system.monitor import FeatureMonitorClient, MonitorConfig
from repro.system.resources import MachineConfig, MachineState
from repro.system.schedule import ConstantLoad, LoadSchedule
from repro.system.server import AppServer, ServerConfig
from repro.system.tpcw import SHOPPING_MIX, EmulatedBrowserPool, TPCWMix
from repro.obs import get_logger, get_metrics, get_telemetry, kv, span
from repro.store.checkpoint import CHECKPOINT_EVERY, CampaignCheckpoint
from repro.utils.rng import as_rng

_log = get_logger("system.simulator")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce a monitoring campaign."""

    n_runs: int = 10
    seed: int | None = 0
    machine: MachineConfig = field(default_factory=MachineConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    mix: TPCWMix = field(default_factory=lambda: SHOPPING_MIX)
    n_browsers: int = 80
    #: Workload-intensity schedule (the paper uses constant full load).
    load_schedule: LoadSchedule = field(default_factory=ConstantLoad)
    #: Drive browsers through the session Markov chain instead of
    #: stationary i.i.d. sampling (off by default for reproducibility of
    #: earlier campaigns; long-run frequencies stay near the mix targets).
    use_session_chain: bool = False
    #: Simulation tick (seconds).
    dt: float = 0.5
    #: Hard cap per run; a run that never fails is truncated and flagged.
    max_run_seconds: float = 20_000.0
    #: Per-run anomaly-profile draw ranges (paper: redrawn at startup).
    p_leak_range: tuple[float, float] = (0.15, 0.32)
    leak_kb_range: tuple[float, float] = (256.0, 4096.0)
    p_thread_range: tuple[float, float] = (0.02, 0.10)
    #: Optional time-based injectors (paper Sec. III-E utilities).
    use_time_injectors: bool = False
    leak_injector_interval_range: tuple[float, float] = (2.0, 20.0)
    thread_injector_interval_range: tuple[float, float] = (5.0, 60.0)
    #: Optional stuck-lock injector (extension; no memory footprint —
    #: degrades response times directly).
    use_lock_injector: bool = False
    lock_injector_interval_range: tuple[float, float] = (30.0, 300.0)
    #: Optional fd/socket-leak injector (extension; fills the process fd
    #: table — service degradation and an ``FdExhaustion`` crash with no
    #: RSS growth).
    use_fd_injector: bool = False
    fd_injector_interval_range: tuple[float, float] = (5.0, 60.0)
    fd_injector_count_range: tuple[int, int] = (8, 128)
    #: Optional connection-pool-depletion injector (extension; requests
    #: queue on the shrinking free set of DB connections).
    use_conn_injector: bool = False
    conn_injector_interval_range: tuple[float, float] = (20.0, 180.0)
    #: Optional heap-fragmentation injector (extension; service-time
    #: degradation without any memory-feature signature).
    use_frag_injector: bool = False
    frag_injector_interval_range: tuple[float, float] = (10.0, 120.0)
    #: Default failure condition as a compact spec string (see
    #: :func:`repro.system.failure.parse_failure`), e.g. ``"mem"``,
    #: ``"rt>8"``, ``"fd|rt>8"``. ``None`` keeps the historical default
    #: (:class:`MemoryExhaustion`). An explicit condition object passed
    #: to :class:`TestbedSimulator` or a rejuvenation controller always
    #: wins (:func:`resolve_failure`). Part of the config so
    #: campaign cells are content-addressed per failure definition.
    failure: "str | None" = None

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.max_run_seconds <= 0:
            raise ValueError(
                f"max_run_seconds must be positive, got {self.max_run_seconds}"
            )
        for name in ("p_leak_range", "p_thread_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(
                    f"{name} must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})"
                )
        lo, hi = self.leak_kb_range
        if not 0.0 <= lo <= hi:
            raise ValueError(
                f"leak_kb_range must satisfy 0 <= lo <= hi, got ({lo}, {hi})"
            )
        for name in (
            "leak_injector_interval_range",
            "thread_injector_interval_range",
            "lock_injector_interval_range",
            "fd_injector_interval_range",
            "conn_injector_interval_range",
            "frag_injector_interval_range",
        ):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi:
                raise ValueError(
                    f"{name} must be positive-increasing, got ({lo}, {hi})"
                )
        lo, hi = self.fd_injector_count_range
        if not 1 <= lo <= hi:
            raise ValueError(
                f"fd_injector_count_range must satisfy 1 <= lo <= hi, got ({lo}, {hi})"
            )
        if self.failure is not None:
            parse_failure(self.failure)  # fail at construction, not mid-run


def resolve_failure(
    config: CampaignConfig, condition: "FailureCondition | None" = None
) -> FailureCondition:
    """The failure condition runs of ``config`` end on: an explicit
    ``condition`` wins, then ``config.failure``, then
    :class:`MemoryExhaustion`."""
    if condition is not None:
        return condition
    if config.failure is not None:
        return parse_failure(config.failure)
    return MemoryExhaustion()


# -- the node episode -------------------------------------------------------------
#
# A run is one *episode*: a node booted from its component streams and
# stepped tick by tick until its failure condition fires. An episode is a
# generator that yields one event per tick on which the monitor sampled or
# the failure condition fired:
#
#     (now, row | None, ewma_rt, crashed)
#
# ``now`` is episode-local time at the tick's end, ``row`` the 15 raw
# features of the sample taken on that tick and ``ewma_rt`` the mean
# response time the failure condition sees. The episode ends after its
# crash event, or when ``now`` reaches ``max_run``, and then returns
# ``(totals, blocks)``: the run's profile draws and request totals, and the
# fused engine's block statistics (None on the loop). The load schedule is
# read at ``t0 + now``, so a controller can resume a node that booted at
# wall time ``t0``; with ``t0 = 0.0`` the sum is ``now`` exactly.
#
# An episode opens no span and emits no metric: telemetry belongs to its
# caller. A node's trajectory depends only on its streams, so a caller may
# run an episode ahead to its next event and drop it unfinished.

#: The anomaly-injector switches of :class:`CampaignConfig`.
INJECTOR_SWITCHES = (
    "use_time_injectors",
    "use_lock_injector",
    "use_fd_injector",
    "use_conn_injector",
    "use_frag_injector",
)


def injectors_on(config: CampaignConfig) -> bool:
    """Whether ``config`` enables any anomaly injector."""
    return any(getattr(config, name) for name in INJECTOR_SWITCHES)


def boot_server(config: CampaignConfig, r_profile, r_pool, r_server) -> AppServer:
    """A freshly booted node: its anomaly profile, machine, browser pool
    and app server (reachable as ``server.profile``/``.state``/``.pool``)."""
    profile = AnomalyProfile.draw(
        r_profile,
        p_leak_range=config.p_leak_range,
        leak_kb_range=config.leak_kb_range,
        p_thread_range=config.p_thread_range,
    )
    pool = EmulatedBrowserPool(
        config.n_browsers,
        config.mix,
        seed=r_pool,
        use_sessions=config.use_session_chain,
    )
    return AppServer(
        config.server, MachineState(config.machine), pool, profile, seed=r_server
    )


def make_injectors(config: CampaignConfig, r_inject) -> tuple:
    """The run's ``(leak, thread, lock, fd, conn, frag)`` injectors, each
    None when its switch is off.

    Each family spawns its stream off ``r_inject`` only when enabled, in
    this fixed order, so toggling one injector never perturbs the
    streams of the others.
    """
    leak = thread = lock = fd = conn = frag = None
    if config.use_time_injectors:
        r_leak, r_thread = r_inject.spawn(2)
        leak = MemoryLeakInjector(
            mean_interval_range=config.leak_injector_interval_range, seed=r_leak
        )
        thread = ThreadLeakInjector(
            mean_interval_range=config.thread_injector_interval_range,
            seed=r_thread,
        )
    if config.use_lock_injector:
        (r_lock,) = r_inject.spawn(1)
        lock = LockContentionInjector(
            mean_interval_range=config.lock_injector_interval_range, seed=r_lock
        )
    if config.use_fd_injector:
        (r_fd,) = r_inject.spawn(1)
        fd = FdLeakInjector(
            count_range=config.fd_injector_count_range,
            mean_interval_range=config.fd_injector_interval_range,
            seed=r_fd,
        )
    if config.use_conn_injector:
        (r_conn,) = r_inject.spawn(1)
        conn = ConnectionPoolInjector(
            mean_interval_range=config.conn_injector_interval_range, seed=r_conn
        )
    if config.use_frag_injector:
        (r_frag,) = r_inject.spawn(1)
        frag = HeapFragmentationInjector(
            mean_interval_range=config.frag_injector_interval_range, seed=r_frag
        )
    return leak, thread, lock, fd, conn, frag


def run_totals(profile: AnomalyProfile, leaked_kb, threads, requests) -> dict:
    """An episode's profile draws and request totals, in RunRecord order."""
    return {
        "p_leak": profile.p_leak,
        "leak_min_kb": profile.leak_min_kb,
        "leak_max_kb": profile.leak_max_kb,
        "p_thread": profile.p_thread,
        "total_leaked_kb": leaked_kb,
        "total_threads_spawned": float(threads),
        "total_requests": float(requests),
    }


def loop_episode(
    cfg: CampaignConfig,
    condition: FailureCondition,
    streams,
    *,
    t0: float = 0.0,
    max_run: float = float("inf"),
):
    """The per-tick object-graph episode: the fused engine's oracle.

    ``streams`` is ``(r_profile, r_pool, r_server, r_monitor, r_inject)``;
    ``r_inject`` is only read when an injector is on.
    """
    r_profile, r_pool, r_server, r_monitor, r_inject = streams
    server = boot_server(cfg, r_profile, r_pool, r_server)
    state = server.state
    fmc = FeatureMonitorClient(cfg.monitor, seed=r_monitor)
    fmc.reset(0.0)
    leak, thread, lock, fd, conn, frag = make_injectors(cfg, r_inject)
    schedule = cfg.load_schedule
    dt = cfg.dt

    now = 0.0
    # Exponentially-weighted mean RT: the "mean client response time"
    # a failure condition may inspect.
    ewma_rt = 0.0
    while now < max_run:
        fraction = schedule.active_fraction(t0 + now)
        stats = server.tick(now, dt, fraction)
        now += dt
        if stats.n_completed > 0:
            ewma_rt += 0.2 * (stats.mean_response_time - ewma_rt)
        if leak is not None:
            leak.advance(state, now)
            thread.advance(state, now)
            state.update_swap()
        if lock is not None:
            lock.advance(server, now)
        # fd/conn/frag families degrade service time without touching
        # memory, so no update_swap() is needed after them.
        if fd is not None:
            fd.advance(state, now)
        if conn is not None:
            conn.advance(server, now)
        if frag is not None:
            frag.advance(server, now)

        row = None
        if fmc.due(now):
            queue_delay = server.backlog_cpu_s / cfg.machine.n_cpus
            row = fmc.read(now, state, stats.utilization, queue_delay).to_array()
        view = SystemView(
            state=state,
            mean_response_time=ewma_rt,
            last_generation_interval=fmc.last_interval,
        )
        if condition.is_failed(view):
            yield now, row, ewma_rt, True
            break
        if row is not None:
            yield now, row, ewma_rt, False
    totals = run_totals(
        server.profile,
        server.total_leaked_kb,
        server.total_threads_spawned,
        server.total_completed,
    )
    return totals, None


def record_episode(episode, max_run: float) -> tuple:
    """Drive ``episode`` to its end and package it as a :class:`RunRecord`,
    counting the run's ``sim.*`` and ``monitor.*`` metrics.

    Returns the record and the episode's block statistics (None on the
    loop). A run that never fails is truncated at ``max_run``.
    """
    rows: list = []
    response_times: list[float] = []
    crashed = False
    fail_time = max_run
    while True:
        try:
            now, row, ewma_rt, failed = next(episode)
        except StopIteration as end:
            totals, blocks = end.value
            break
        if row is not None:
            rows.append(row)
            response_times.append(ewma_rt)
        if failed:
            crashed = True
            fail_time = now
    if not rows:
        raise RuntimeError(
            "run produced no datapoints before failing; "
            "lower anomaly rates or the monitor interval"
        )
    features = np.array(rows, dtype=np.float64)
    n = features.shape[0]
    metrics = get_metrics()
    metrics.inc("sim.runs_total")
    metrics.inc("sim.datapoints_total", n)
    if crashed:
        metrics.inc("sim.fail_events_total")
    else:
        metrics.inc("sim.truncated_runs_total")
    metrics.observe("sim.run_seconds", fail_time)
    metrics.inc("monitor.samples_total", n)
    metrics.inc("monitor.datapoints_total", n)
    record = RunRecord(
        features=features,
        fail_time=fail_time,
        response_times=np.asarray(response_times),
        metadata={"crashed": float(crashed), **totals},
    )
    return record, blocks


class TestbedSimulator:
    """Simulates monitoring campaigns, producing a :class:`DataHistory`."""

    __test__ = False  # starts with "Test" but is not a pytest class

    def __init__(
        self,
        config: CampaignConfig | None = None,
        failure_condition: FailureCondition | None = None,
    ) -> None:
        self.config = config or CampaignConfig()
        self.failure_condition = resolve_failure(self.config, failure_condition)

    def run_once(self, seed: "int | None | np.random.Generator" = None) -> RunRecord:
        """Simulate one run from VM start to fail event (or truncation).

        The failure condition picks the engine: one that compiles to a
        threshold triple runs on the fused engine; any other (a
        user-defined predicate, ``FdExhaustion``) falls back to the loop,
        which evaluates it exactly.
        """
        cfg = self.config
        rng = as_rng(seed)
        limits = self.failure_condition.fused_limits(cfg.machine)
        if limits is not None:
            from repro.system.fused import run_once_fused

            return run_once_fused(cfg, limits, rng)
        get_metrics().inc("sim.fused_fallback_total")
        get_telemetry().event(
            0.0,
            "fused_fallback",
            condition=self.failure_condition.description,
        )
        _log.info(
            "failure condition has no threshold form; using loop substrate %s",
            kv(condition=self.failure_condition.description),
        )
        return self._run_once_loop(rng)

    def _run_once_loop(self, rng: np.random.Generator) -> RunRecord:
        """Drive the loop episode — the fused engine's oracle — for one run."""
        cfg = self.config
        # Independent streams per component (paper: uncorrelated draws).
        episode = loop_episode(
            cfg, self.failure_condition, rng.spawn(5), max_run=cfg.max_run_seconds
        )
        record, _ = record_episode(episode, cfg.max_run_seconds)
        return record

    def run_indexed(self, index: int, rng: np.random.Generator) -> RunRecord:
        """Run ``index`` of a campaign: :meth:`run_once` inside its
        ``simulate.run`` span, then the run's summary points on the bus.

        The serial loop and each worker task run this same body. Bus
        points are indexed by run number, three per run, so every worker
        dump is lossless and the parent's index-ordered replay is exactly
        the serial emission sequence, for any worker count.
        """
        with span("simulate.run", index=index) as run_sp:
            record = self.run_once(rng)
            run_sp.set(
                datapoints=record.n_datapoints,
                fail_time=record.fail_time,
                crashed=bool(record.metadata.get("crashed", 0.0)),
            )
        bus = get_telemetry()
        if bus.enabled:
            t = float(index)
            bus.emit("sim.run_seconds", t, record.fail_time)
            bus.emit("sim.run_datapoints", t, float(record.n_datapoints))
            bus.emit("sim.run_crashed", t, float(record.metadata.get("crashed", 0.0)))
        return record

    def run_many(
        self, rngs: "list[np.random.Generator]", *, jobs: int = 1, start_index: int = 0
    ) -> list[RunRecord]:
        """Simulate one run per (pre-spawned) generator.

        With ``jobs > 1`` the runs fan out to a process pool; results
        come back in generator order either way, and since every
        generator was spawned before dispatch the records are
        bit-identical for any worker count. ``jobs=1`` is the in-process
        serial path (no :mod:`concurrent.futures` involvement at all).
        ``start_index`` only offsets telemetry run indices (resumed or
        chunked campaigns).
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs > 1 and len(rngs) > 1:
            from repro.parallel.campaign import run_campaign_parallel

            runs = run_campaign_parallel(
                self, list(rngs), jobs=jobs, start_index=start_index
            )
        else:
            runs = (
                self.run_indexed(i, rng) for i, rng in enumerate(rngs, start_index)
            )
        records: list[RunRecord] = []
        for i, record in enumerate(runs, start_index):
            records.append(record)
            _log.info(
                "run complete %s",
                kv(
                    run=i,
                    datapoints=record.n_datapoints,
                    fail_time=record.fail_time,
                    crashed=bool(record.metadata.get("crashed", 0.0)),
                ),
            )
        return records

    def run_campaign(
        self,
        jobs: int = 1,
        *,
        checkpoint: "CampaignCheckpoint | None" = None,
        checkpoint_every: int = CHECKPOINT_EVERY,
    ) -> DataHistory:
        """Simulate ``n_runs`` restart cycles (the week-long experiment).

        ``jobs`` workers execute the runs concurrently; the returned
        history (and the merged metrics/spans) is identical for any
        worker count — see ``docs/PARALLELISM.md``.

        With a :class:`~repro.store.CampaignCheckpoint`, the completed
        prefix is persisted every ``checkpoint_every`` runs and a killed
        campaign resumes from it — bit-identically, because every run's
        stream is pre-spawned from the campaign seed regardless of where
        the resume happened. The checkpoint is discarded on completion.
        """
        rngs = as_rng(self.config.seed).spawn(self.config.n_runs)
        done: list[RunRecord] = []
        if checkpoint is not None:
            if checkpoint.total_runs != self.config.n_runs:
                # A caller handed us a checkpoint sized for a different
                # campaign (e.g. the spec was narrowed between runs).
                # Silently replaying its prefix would mislabel runs —
                # evict it and start clean instead.
                _log.warning(
                    "checkpoint sized for different campaign, discarding %s",
                    kv(
                        path=checkpoint.path.name,
                        checkpoint_runs=checkpoint.total_runs,
                        campaign_runs=self.config.n_runs,
                    ),
                )
                checkpoint.discard()
                checkpoint = CampaignCheckpoint(
                    checkpoint.path,
                    key=checkpoint.key,
                    total_runs=self.config.n_runs,
                )
            done, _ = checkpoint.load()
        history = DataHistory()
        with span(
            "simulate.campaign",
            runs=self.config.n_runs,
            seed=self.config.seed,
            jobs=jobs,
            resumed_runs=len(done),
        ) as sp:
            for record in done:
                history.add_run(record)
            remaining = rngs[len(done) :]
            if checkpoint is None:
                new = self.run_many(remaining, jobs=jobs)
            else:
                from repro.parallel.campaign import run_campaign_checkpointed

                new = run_campaign_checkpointed(
                    self,
                    remaining,
                    done=done,
                    checkpoint=checkpoint,
                    every=checkpoint_every,
                    jobs=jobs,
                )
            for record in new:
                history.add_run(record)
            sp.set(
                datapoints=history.n_datapoints,
                mean_run_length=history.mean_run_length,
            )
        if checkpoint is not None:
            checkpoint.discard()
        _log.info(
            "campaign complete %s",
            kv(
                runs=len(history),
                datapoints=history.n_datapoints,
                mean_run_length=history.mean_run_length,
            ),
        )
        return history
