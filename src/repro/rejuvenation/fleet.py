"""Fleet-scale rejuvenation: N managed nodes under one policy engine.

Production deployments run *fleets* — N app-server instances behind a
load balancer — and the control plane must score all of them in real
time. :class:`FleetController` is the one control loop; the single-server
:class:`~repro.rejuvenation.controller.ManagedSystem` is a fleet of one.

- per-node sanitize + aggregate state lives **struct-of-arrays** in a
  :class:`FleetStream` (one ``(N, cap, 15)`` window buffer, one offset /
  anchor / ring-median array each), bit-identical to N independent
  per-row sanitizer + repair-mode streaming aggregator pairs (the scalar
  references in ``tests/rejuvenation/control_reference.py``);
- RTTF scoring is **batched**: one ``model.predict`` call on an
  ``(n_due, 30)`` matrix per tick instead of N scalar predicts, pinned
  bit-identical by tests to a per-node scalar plane — the same contract
  the fused simulation engine holds against its loop oracle;
- a **fleet rejuvenation policy** staggers planned restarts so live
  capacity never drops below ``capacity_floor`` (crashes can still breach
  it — those are counted as floor violations), and drains a node for
  ``drain_seconds`` before killing it;
- fleet telemetry on the existing bus: ``fleet.live_fraction``,
  ``fleet.capacity_headroom``, ``fleet.predicted_failures_per_hour``
  (live nodes whose latest mean RTTF prediction is under one hour),
  ``sanitize.dropped_total``, ``fleet.rttf_error`` on crashes, and one
  per-node episode event per crash / rejuvenation / horizon.

A fleet of one node over a :class:`SimulatedFleetSource`, with
``capacity_floor=0`` and ``drain_seconds=0``, reproduces the old
single-node loop (kept as a test reference) episode-for-episode,
bit-exact — also pinned by tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.datapoint import FEATURES
from repro.obs import get_logger, get_metrics, kv, span
from repro.rejuvenation.controller import (
    Episode,
    ManagedRunLog,
    ManagedSystemConfig,
)
from repro.rejuvenation.policy import (
    NoRejuvenation,
    PeriodicRejuvenation,
    PredictiveRejuvenation,
    RejuvenationPolicy,
)
from repro.system.failure import FailureCondition
from repro.system.fused import fused_episode
from repro.system.simulator import (
    CampaignConfig,
    injectors_on,
    loop_episode,
    resolve_failure,
)
from repro.utils.rng import as_rng

_log = get_logger("rejuvenation.fleet")

_N_RAW = len(FEATURES)


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False
_NO_WINDOWS = (_NO_IDS, np.empty((0, 2 * _N_RAW)))
_NO_WINDOWS[1].flags.writeable = False


def _no_windows() -> tuple[np.ndarray, np.ndarray]:
    """The empty ``(ids, windows)`` ingest result (shared, read-only)."""
    return _NO_WINDOWS


#: Node lifecycle states.
NODE_LIVE = 0  # serving traffic, policy consulted
NODE_DRAINING = 1  # planned restart granted; bleeding connections
NODE_DOWN = 2  # restarting (planned or crash downtime)
NODE_FINISHED = 3  # reached the simulation horizon


# -- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """Fleet topology and restart-staggering policy."""

    #: Number of managed nodes.
    n_nodes: int = 16
    #: Planned restarts are granted only while the fraction of non-down
    #: nodes stays >= this floor; excess requests wait their turn
    #: (re-requested every tick while the policy still wants them).
    #: Crashes ignore the floor — each breach counts a floor violation.
    capacity_floor: float = 0.0
    #: A granted node keeps serving (and can still crash) for this long
    #: before going down — connection draining. 0 kills immediately,
    #: which is what the single-node equivalence contract requires.
    drain_seconds: float = 0.0
    #: RTTF scoring plane: "exact" serves the policy model as-is (the
    #: default — bit-identical to the scalar reference), "compiled" serves
    #: through :func:`repro.ml.serving.compile_predictor` (low-rank /
    #: reduced-precision, accuracy-gated at compile time).
    scoring: str = "exact"
    #: Fleet-level series are emitted every this many ticks.
    telemetry_stride: int = 8

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 0.0 <= self.capacity_floor < 1.0:
            raise ValueError(
                f"capacity_floor must be in [0, 1), got {self.capacity_floor}"
            )
        if self.drain_seconds < 0:
            raise ValueError(
                f"drain_seconds must be >= 0, got {self.drain_seconds}"
            )
        if self.scoring not in ("exact", "compiled"):
            raise ValueError(
                f"scoring must be 'exact' or 'compiled', got {self.scoring!r}"
            )
        if self.telemetry_stride < 1:
            raise ValueError(
                f"telemetry_stride must be >= 1, got {self.telemetry_stride}"
            )


@dataclass
class FleetRunLog:
    """Everything a fleet simulation produced."""

    policy_name: str
    n_nodes: int
    node_logs: list[ManagedRunLog] = field(default_factory=list)
    #: Crashes that pushed live capacity below the configured floor.
    floor_violations: int = 0
    #: Planned-restart requests deferred (node-ticks spent waiting) to
    #: keep capacity above the floor.
    restarts_deferred: int = 0
    #: Lowest live fraction observed at any tick.
    min_live_fraction: float = 1.0
    #: Batched-scoring accounting: model calls made and rows scored.
    scoring_calls: int = 0
    scored_rows: int = 0
    #: Data-quality tallies summed over nodes.
    stream_dropped: int = 0
    late_dropped: int = 0

    @property
    def total_uptime(self) -> float:
        return sum(nl.total_uptime for nl in self.node_logs)

    @property
    def total_downtime(self) -> float:
        return sum(nl.total_downtime for nl in self.node_logs)

    @property
    def availability(self) -> float:
        total = self.total_uptime + self.total_downtime
        return self.total_uptime / total if total > 0 else 1.0

    @property
    def n_crashes(self) -> int:
        return sum(nl.n_crashes for nl in self.node_logs)

    @property
    def n_rejuvenations(self) -> int:
        return sum(nl.n_rejuvenations for nl in self.node_logs)

    @property
    def n_episodes(self) -> int:
        return sum(len(nl.episodes) for nl in self.node_logs)


@dataclass(frozen=True)
class FleetReport:
    """One row of a fleet policy-comparison table."""

    policy: str
    n_nodes: int
    availability: float
    n_crashes: int
    n_rejuvenations: int
    min_live_fraction: float
    restarts_deferred: int
    floor_violations: int

    HEADERS = (
        "policy",
        "nodes",
        "availability",
        "crashes",
        "rejuvenations",
        "min live frac",
        "deferred",
        "floor violations",
    )

    def row(self) -> list[object]:
        return [
            self.policy,
            self.n_nodes,
            self.availability,
            self.n_crashes,
            self.n_rejuvenations,
            self.min_live_fraction,
            self.restarts_deferred,
            self.floor_violations,
        ]


def summarize_fleet(log: FleetRunLog) -> FleetReport:
    """Condense a :class:`FleetRunLog` into a :class:`FleetReport`."""
    return FleetReport(
        policy=log.policy_name,
        n_nodes=log.n_nodes,
        availability=log.availability,
        n_crashes=log.n_crashes,
        n_rejuvenations=log.n_rejuvenations,
        min_live_fraction=log.min_live_fraction,
        restarts_deferred=log.restarts_deferred,
        floor_violations=log.floor_violations,
    )


# -- node sources -----------------------------------------------------------------


class FleetSource(ABC):
    """Produces monitor samples and crash signals for N nodes.

    The controller owns the clocks (per-node wall and episode-local
    ``now``) and the lifecycle; the source owns whatever it needs to
    advance a node by one tick. ``step`` receives the pre-tick ``now``
    values and must mirror the single-node loop's ordering: tick the
    server at ``now``, sample the monitor at ``now + dt``, then evaluate
    the failure condition.
    """

    #: Simulation tick, set by the concrete source.
    dt: float = 0.5
    n_nodes: int = 0

    @abstractmethod
    def bind(self, rngs: list, horizon: float) -> None:
        """Attach per-node RNG streams before the run starts."""

    @abstractmethod
    def boot(self, node: int) -> None:
        """(Re)start one node with fresh state."""

    @abstractmethod
    def step(
        self, ids: np.ndarray, walls: np.ndarray, nows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, "np.ndarray | list", np.ndarray]:
        """Advance the given nodes one tick.

        Returns ``(due_ids, sample_ids, rows, crashed)``: nodes whose
        monitor fired this tick (even if the sample was then eaten by a
        fault), the node id per produced raw row (repeats allowed —
        duplication faults), the raw rows (``(k, 15)`` array, or a list
        when shapes may be corrupted), and a crash flag aligned with
        ``ids``.
        """


class SimulatedFleetSource(FleetSource):
    """N full testbed simulations — machine, TPC-W pool, app server, FMC.

    Each node runs the same resumable episode as a campaign run
    (:func:`repro.system.fused.fused_episode`, or
    :func:`repro.system.simulator.loop_episode` when the failure
    condition has no threshold form), with its load schedule offset by
    the wall time the node booted at.
    ``step`` resumes only the nodes with an event on the tick: an
    episode runs ahead to its next monitor sample or crash, which is
    exact because a node's trajectory depends on its own streams only.

    A boot spawns the four component streams a campaign run spawns, then
    the corruptor stream only when a fault profile is installed, then the
    anomaly-injector stream only when an injector is on — so a clean
    node episode draws the same bits as ``run_once`` on the node's
    generator.
    """

    def __init__(
        self,
        campaign: CampaignConfig,
        failure_condition: "FailureCondition | None" = None,
        fault_profile=None,
    ) -> None:
        self.campaign = campaign
        self.failure_condition = resolve_failure(campaign, failure_condition)
        self.fault_profile = fault_profile
        self.dt = campaign.dt
        # The same dispatch as TestbedSimulator.run_once.
        self._limits = self.failure_condition.fused_limits(campaign.machine)

    def bind(self, rngs: list, horizon: float) -> None:
        self._rngs = rngs
        self._horizon = horizon
        self.n_nodes = n = len(rngs)
        #: Streams spawned at boot; the episode starts on the node's
        #: first step, when its boot wall time is known.
        self._streams: list = [None] * n
        self._fresh = np.zeros(n, dtype=bool)
        self._n_fresh = 0
        self._corruptors: list = [None] * n
        self._episodes: list = [None] * n
        #: Each running episode's next event, and its episode-local time.
        self._events: list = [None] * n
        self._pending = np.full(n, np.inf)

    def boot(self, node: int) -> None:
        cfg = self.campaign
        rng = self._rngs[node]
        streams = rng.spawn(4)
        # Corruptor RNG spawned only when a fault profile is installed, so
        # clean fleets consume the identical seed sequence.
        self._corruptors[node] = (
            self.fault_profile.stream(rng.spawn(1)[0], horizon=self._horizon)
            if self.fault_profile is not None
            else None
        )
        r_inject = rng.spawn(1)[0] if injectors_on(cfg) else None
        self._streams[node] = (*streams, r_inject)
        if not self._fresh[node]:
            self._n_fresh += 1
            self._fresh[node] = True
        # Dropping an unfinished episode emits nothing.
        self._episodes[node] = None

    def _start(self, node: int, t0: float) -> None:
        cfg = self.campaign
        streams = self._streams[node]
        if self._limits is not None:
            episode = fused_episode(cfg, self._limits, streams, t0=t0)
        else:
            get_metrics().inc("sim.fused_fallback_total")
            episode = loop_episode(cfg, self.failure_condition, streams, t0=t0)
        self._episodes[node] = episode
        self._fresh[node] = False
        self._n_fresh -= 1
        self._advance(node)

    def _advance(self, node: int) -> None:
        # Episodes run without max_run: only a crash ends one.
        event = next(self._episodes[node])
        self._events[node] = event
        self._pending[node] = event[0]

    def step(self, ids, walls, nows):
        if self._n_fresh:
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


@dataclass(frozen=True)
class SyntheticFleetSpec:
    """Parametric aging model for cheap 10k-node fleets.

    Each node leaks memory at a per-node rate drawn at boot; it crashes
    when the leak exhausts RAM plus swap. The monitor cadence stretches
    under swap pressure (thrashing slows the exporter), so the
    ``gen_time`` feature carries signal just like in the full testbed.
    Fully vectorized — no per-node Python in the hot path.
    """

    dt: float = 0.5
    sample_interval: float = 1.5
    ram_kb: float = 524_288.0
    swap_kb: float = 262_144.0
    base_mem_kb: float = 200_000.0
    #: Per-node leak rate (KB/s), drawn uniformly at each boot.
    leak_rate_range: tuple[float, float] = (300.0, 900.0)
    #: Per-node monitor-cadence jitter, drawn once per boot.
    interval_jitter: float = 0.02

    @property
    def capacity_kb(self) -> float:
        return self.ram_kb + self.swap_kb

    @property
    def mean_ttf(self) -> float:
        lo, hi = self.leak_rate_range
        return (self.capacity_kb - self.base_mem_kb) / (0.5 * (lo + hi))

    def linear_model(self):
        """Hand-built RTTF model matched to this aging process.

        ``rttf ~= (capacity - mem_used - swap_used) / mean_rate`` — a
        plain :class:`~repro.ml.linear.LinearRegression` with the
        coefficients set directly, so fleet tests and benches get a real
        ``Regressor`` without paying for training.
        """
        from repro.core.datapoint import FEATURE_INDEX
        from repro.ml.linear import LinearRegression

        lo, hi = self.leak_rate_range
        mean_rate = 0.5 * (lo + hi)
        coef = np.zeros(2 * _N_RAW, dtype=np.float64)
        coef[FEATURE_INDEX["mem_used"]] = -1.0 / mean_rate
        coef[FEATURE_INDEX["swap_used"]] = -1.0 / mean_rate
        model = LinearRegression()
        model.coef_ = coef
        model.intercept_ = float(self.capacity_kb / mean_rate)
        return model


class SyntheticFleetSource(FleetSource):
    """Vectorized parametric node fleet (see :class:`SyntheticFleetSpec`)."""

    def __init__(self, spec: "SyntheticFleetSpec | None" = None) -> None:
        self.spec = spec or SyntheticFleetSpec()
        self.dt = self.spec.dt

    def bind(self, rngs: list, horizon: float) -> None:
        self._rngs = rngs
        self.n_nodes = n = len(rngs)
        self._mem = np.zeros(n, dtype=np.float64)
        self._rate = np.zeros(n, dtype=np.float64)
        self._ivl0 = np.zeros(n, dtype=np.float64)
        self._next_sample = np.zeros(n, dtype=np.float64)

    def boot(self, node: int) -> None:
        sp = self.spec
        rng = self._rngs[node]
        lo, hi = sp.leak_rate_range
        self._rate[node] = rng.uniform(lo, hi)
        jitter = sp.interval_jitter * (2.0 * rng.uniform() - 1.0)
        self._ivl0[node] = sp.sample_interval * (1.0 + jitter)
        self._mem[node] = sp.base_mem_kb
        self._next_sample[node] = self._ivl0[node]

    def step(self, ids, walls, nows):
        sp = self.spec
        now2 = nows[ids] + sp.dt
        self._mem[ids] += self._rate[ids] * sp.dt
        due = now2 >= self._next_sample[ids]
        due_ids = ids[due]
        rows = self._rows(due_ids, now2[due])
        # Swap pressure stretches the monitor cadence (thrash).
        press = np.clip(
            (self._mem[due_ids] - sp.ram_kb) / sp.swap_kb, 0.0, 1.0
        )
        self._next_sample[due_ids] = now2[due] + self._ivl0[due_ids] * (
            1.0 + 0.5 * press * press
        )
        crashed = self._mem[ids] >= sp.capacity_kb
        return due_ids, due_ids, rows, crashed

    def _rows(self, ids: np.ndarray, tgen: np.ndarray) -> np.ndarray:
        sp = self.spec
        k = ids.size
        mem = self._mem[ids]
        used = np.minimum(mem, sp.ram_kb)
        swap_used = np.clip(mem - sp.ram_kb, 0.0, sp.swap_kb)
        press = swap_used / sp.swap_kb
        frac = mem / sp.capacity_kb
        rows = np.zeros((k, _N_RAW), dtype=np.float64)
        rows[:, 0] = tgen
        rows[:, 1] = 64.0 + mem / 8192.0  # n_threads
        rows[:, 2] = used  # mem_used
        rows[:, 3] = sp.ram_kb - used  # mem_free
        rows[:, 4] = 12_288.0  # mem_shared
        rows[:, 5] = 8_192.0  # mem_buffers
        rows[:, 6] = 65_536.0 * (1.0 - press)  # mem_cached
        rows[:, 7] = swap_used
        rows[:, 8] = sp.swap_kb - swap_used  # swap_free
        cpu_user = 25.0 + 50.0 * frac
        cpu_sys = 5.0 + 10.0 * press
        cpu_iowait = 30.0 * press
        rows[:, 9] = cpu_user
        rows[:, 11] = cpu_sys
        rows[:, 12] = cpu_iowait
        rows[:, 14] = np.maximum(0.0, 100.0 - cpu_user - cpu_sys - cpu_iowait)
        return rows

    def true_rttf(self, ids: np.ndarray) -> np.ndarray:
        """Ground-truth remaining time to failure (for benches/tests)."""
        sp = self.spec
        return (sp.capacity_kb - self._mem[ids]) / self._rate[ids]


# -- struct-of-arrays sanitize + aggregate plane ----------------------------------


class FleetStream:
    """Struct-of-arrays sanitize+aggregate state for N node streams.

    Bit-identical to N independent per-row sanitizer + repair-mode
    streaming aggregator pairs (the scalar references, pinned by tests):
    same drop rules, same clock-reset rebase arithmetic, same repair-mode
    bounded reordering, same ``np.add.reduceat`` sequential segment sums
    at finalize. A batch may
    contain several rows for one node (duplication faults): it is split
    into rounds of unique node ids so sequential per-node semantics are
    preserved while each round stays fully vectorized.
    """

    _RING = 32  # the sanitizer's last-32-interval median window

    def __init__(
        self,
        n_nodes: int,
        window_seconds: float,
        sanitize_config=None,
        *,
        min_points: int = 1,
        row_capacity: int = 64,
    ) -> None:
        from repro.core.sanitize import SanitizeConfig

        if window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        self.n_nodes = n_nodes
        self.window_seconds = window_seconds
        self.min_points = min_points
        self._cfg = sanitize_config or SanitizeConfig()
        n = n_nodes
        # sanitizer state
        self._offset = np.zeros(n, dtype=np.float64)
        self._smax = np.zeros(n, dtype=np.float64)
        self._ring = np.zeros((n, self._RING), dtype=np.float64)
        # Intervals appended to each ring: the next goes to slot
        # count % _RING, and the ring holds min(count, _RING) of them.
        self._rcount = np.zeros(n, dtype=np.int64)
        # data-quality tallies over all nodes (they survive reset_node)
        self._dropped = 0
        self._resets = 0
        self._late = 0
        # aggregator state
        self._cap = int(row_capacity)
        self._wbuf = np.zeros((n, self._cap, _N_RAW), dtype=np.float64)
        self._wcount = np.zeros(n, dtype=np.int64)
        self._bin = np.zeros(n, dtype=np.int64)
        self._has_bin = np.zeros(n, dtype=bool)
        self._last_tgen = np.zeros(n, dtype=np.float64)
        self._anchor = np.zeros(n, dtype=np.float64)
        self._unsorted = np.zeros(n, dtype=bool)

    @property
    def dropped_total(self) -> int:
        return self._dropped

    @property
    def late_dropped(self) -> int:
        return self._late

    @property
    def resets_total(self) -> int:
        return self._resets

    def reset_node(self, i: int) -> None:
        """Forget one node's stream state (after a restart).

        Cumulative data-quality counters survive the restart.
        """
        self._offset[i] = 0.0
        self._smax[i] = 0.0
        self._rcount[i] = 0
        self._wcount[i] = 0
        self._bin[i] = 0
        self._has_bin[i] = False
        self._last_tgen[i] = 0.0
        self._anchor[i] = 0.0
        self._unsorted[i] = False

    def ingest(
        self, ids: np.ndarray, rows: "np.ndarray | list"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feed a tick's raw rows; return the windows they completed.

        Returns ``(ids, windows)``: the ids of the nodes that completed a
        window, sorted ascending, and their ``(k, 30)`` window rows. When
        one node completes several windows in one batch, only the last
        survives — the same "last completed window wins" the single-node
        loop implements.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            ids, X = self._coerce(ids, rows)
        if ids.size == 0:
            return _no_windows()
        # Clean streams hand over one row per node in id order: one round,
        # already sorted.
        if ids.size < 2 or (ids[1:] > ids[:-1]).all():
            return self._ingest_unique(ids, X)
        # Rounds of unique node ids: per-node sequential semantics with
        # vectorized rounds (duplication faults, out-of-order callers).
        got_ids, got_w = [], []
        while ids.size:
            _, first = np.unique(ids, return_index=True)
            take = np.zeros(ids.size, dtype=bool)
            take[first] = True
            done, wins = self._ingest_unique(ids[take], X[take])
            got_ids.append(done)
            got_w.append(wins)
            ids, X = ids[~take], X[~take]
        # Later rounds hold later windows: keep each node's last one.
        done = np.concatenate(got_ids)[::-1]
        wins = np.concatenate(got_w)[::-1]
        done, last = np.unique(done, return_index=True)
        return done, wins[last]

    def _coerce(self, ids, rows):
        """Shape-screen raw rows into an (k, 15) float64 matrix.

        Mis-shaped rows (truncation faults) are dropped and counted here,
        mirroring the scalar sanitizer's shape check; the remaining
        checks vectorize over the clean matrix.
        """
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] == _N_RAW:
            return ids, rows.astype(np.float64, copy=False)
        good: list[np.ndarray] = []
        gids: list[int] = []
        nbad = 0
        for i, raw in zip(ids, rows):
            arr = np.asarray(raw, dtype=np.float64)
            if arr.shape != (_N_RAW,):
                nbad += 1
                continue
            gids.append(int(i))
            good.append(arr)
        if nbad:
            self._dropped += nbad
            get_metrics().inc("sanitize.stream_dropped_total", float(nbad))
        if not good:
            return np.empty(0, dtype=np.int64), np.empty((0, _N_RAW))
        return np.asarray(gids, dtype=np.int64), np.vstack(good)

    def _ingest_unique(self, ids, X) -> tuple[np.ndarray, np.ndarray]:
        """One round (at most one row per node); returns the windows it
        completed, in ``ids`` order. ``X`` is never written to."""
        metrics = get_metrics()
        # -- sanitizer: drop non-finite / negative-tgen rows. A clean batch
        # passes the whole-matrix test and skips the per-row mask and copy.
        if not (np.isfinite(X).all() and (X[:, 0] >= 0).all()):
            ok = np.isfinite(X).all(axis=1) & (X[:, 0] >= 0)
            nbad = int(ids.size - ok.sum())
            self._dropped += nbad
            metrics.inc("sanitize.stream_dropped_total", float(nbad))
            ids, X = ids[ok], X[ok]
            if not ids.size:
                return _no_windows()
        offset = self._offset[ids]
        smax = self._smax[ids]
        tgen = X[:, 0] + offset
        # -- clock-reset rebase (rare; per-candidate scalar path)
        low = tgen < self._cfg.clock_reset_fraction * smax
        if low.any():
            n_resets = 0
            for k in np.flatnonzero(low & (self._rcount[ids] > 0)):
                i = ids[k]
                ring = self._ring[i, : min(self._rcount[i], self._RING)]
                med = float(np.median(ring))
                if med > 0 and smax[k] - tgen[k] > self._cfg.min_reset_drop * med:
                    self._offset[i] += smax[k] + med - tgen[k]
                    offset[k] = self._offset[i]
                    tgen[k] = X[k, 0] + offset[k]
                    n_resets += 1
            if n_resets:
                self._resets += n_resets
                metrics.inc("sanitize.stream_resets_total", float(n_resets))
        # -- interval ring (median tracker) + monotone max advance
        adv = tgen > smax
        app = adv & (smax > 0)
        ai = ids[app]
        if ai.size:
            count = self._rcount[ai]
            self._ring[ai, count % self._RING] = tgen[app] - smax[app]
            self._rcount[ai] = count + 1
        self._smax[ids[adv]] = tgen[adv]
        # Rewrite the clock column only where an offset is active — the
        # scalar sanitizer leaves untouched rows byte-identical.
        off = offset != 0.0
        if off.any():
            X = X.copy()
            X[off, 0] = tgen[off]
        # -- aggregator, repair mode
        nbin = (tgen // self.window_seconds).astype(np.int64)
        has_bin = self._has_bin[ids]
        cur_bin = self._bin[ids]
        late = tgen < self._last_tgen[ids]
        any_late = bool(late.any())
        if any_late:
            drop_late = late & (~has_bin | (nbin < cur_bin))
            n_late = int(drop_late.sum())
            if n_late:
                self._late += n_late
                metrics.inc("sanitize.online_late_dropped", float(n_late))
            ins_late = late & ~drop_late
            in_order = ~late
            fin = in_order & has_bin & (nbin != cur_bin)
        else:
            fin = has_bin & (nbin != cur_bin)
        fin &= self._wcount[ids] > 0
        done = _no_windows()
        if fin.any():
            done = self._finalize(ids[fin])
        wcount = self._wcount[ids]
        need = int(wcount.max()) + 1
        if need > self._cap:
            self._grow(need)
        if any_late:
            li = ids[ins_late]
            if li.size:
                # Late but inside the open window: buffer out of order; the
                # finalize pass re-sorts, exactly like the scalar repair
                # mode.
                self._wbuf[li, wcount[ins_late]] = X[ins_late]
                self._wcount[li] = wcount[ins_late] + 1
                self._unsorted[li] = True
            ids, X = ids[in_order], X[in_order]
            nbin, tgen, wcount = nbin[in_order], tgen[in_order], wcount[in_order]
        if ids.size:
            self._bin[ids] = nbin
            self._has_bin[ids] = True
            self._wbuf[ids, wcount] = X
            self._wcount[ids] = wcount + 1
            self._last_tgen[ids] = tgen
        return done

    def _grow(self, need: int) -> None:
        new_cap = max(2 * self._cap, need)
        buf = np.zeros((self.n_nodes, new_cap, _N_RAW), dtype=np.float64)
        buf[:, : self._cap] = self._wbuf
        self._wbuf = buf
        self._cap = new_cap

    def _finalize(self, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate the open window of each node in ``sub``.

        One vectorized pass over the concatenated row segments: a stable
        ``lexsort`` restores per-node timestamp order where bounded
        reordering happened, ``np.add.reduceat`` computes the sequential
        segment sums (the exact summation order of the scalar path — not
        ``np.mean``'s pairwise sums), and the interval chain is rebuilt
        from each node's anchor (the previous window's last timestamp),
        which equals the scalar path's stored per-append intervals.
        """
        counts = self._wcount[sub]
        m = sub.size
        maxc = int(counts.max())
        blocks = self._wbuf[sub, :maxc]
        valid = np.arange(maxc)[None, :] < counts[:, None]
        rows = blocks[valid]
        if self._unsorted[sub].any():
            seg = np.repeat(np.arange(m), counts)
            order = np.lexsort((rows[:, 0], seg))
            rows = rows[order]
        starts = np.zeros(m, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        ends = starts + counts - 1
        sums = np.add.reduceat(rows, starts, axis=0)
        means = sums / counts[:, None]
        slopes = (rows[ends, 1:] - rows[starts, 1:]) / counts[:, None]
        tg = rows[:, 0]
        prev = np.empty_like(tg)
        prev[1:] = tg[:-1]
        prev[starts] = self._anchor[sub]
        gen = np.add.reduceat(tg - prev, starts) / counts
        wins = np.concatenate([means, slopes, gen[:, None]], axis=1)
        self._anchor[sub] = tg[ends]
        self._wcount[sub] = 0
        self._unsorted[sub] = False
        keep = counts >= self.min_points
        return sub[keep], wins[keep]


# -- control planes ---------------------------------------------------------------


#: The policies the batched plane vectorizes, by the kind it runs them as.
_POLICY_KINDS = {
    NoRejuvenation: "none",
    PeriodicRejuvenation: "periodic",
    PredictiveRejuvenation: "predictive",
}


class _BatchedPlane:
    """Struct-of-arrays control plane with one model call per tick."""

    def __init__(
        self, n, window_seconds, sanitize_config, policy, scoring="exact"
    ) -> None:
        self.stream = FleetStream(n, window_seconds, sanitize_config)
        self.policy = policy
        self._streak = np.zeros(n, dtype=np.int64)
        self._pred = np.full(n, np.nan)
        self._lb = np.full(n, np.nan)
        self._kind = _POLICY_KINDS[type(policy)]
        # The serving model: exact scoring uses the policy model object
        # itself (preserving the batched == scalar bit-identity
        # contract); compiled scoring serves through the compiled
        # predict plane. An already-compiled model is used as-is so the
        # caller controls budget/gate; otherwise compile ungated — a
        # non-kernel model falls through as a passthrough wrapper.
        self._model = getattr(policy, "model", None)
        if scoring == "compiled" and self._kind == "predictive":
            from repro.ml.serving import CompiledPredictor, compile_predictor

            if not isinstance(self._model, CompiledPredictor):
                self._model = compile_predictor(self._model)

    def reset_node(self, i: int) -> None:
        self.stream.reset_node(i)
        self._streak[i] = 0
        self._pred[i] = np.nan
        self._lb[i] = np.nan

    def ingest(self, ids, rows) -> tuple[np.ndarray, np.ndarray]:
        return self.stream.ingest(ids, rows)

    def consult(self, ids, X, ages):
        n = ids.size
        if self._kind != "predictive" or n == 0:
            if self._kind == "periodic":
                trig = ages >= self.policy.interval_seconds
            else:
                trig = np.zeros(n, dtype=bool)
            return trig, np.full(n, np.nan), np.full(n, np.nan)
        pol = self.policy
        Xs = X[:, pol.feature_indices] if pol.feature_indices is not None else X
        if pol.lower_bound_quantile is not None:
            lower, mean, _ = self._model.predict_interval(
                Xs, pol.lower_bound_quantile
            )
            acted = np.asarray(lower, dtype=np.float64)
            self._pred[ids] = np.asarray(mean, dtype=np.float64)
            self._lb[ids] = acted
        else:
            acted = np.asarray(self._model.predict(Xs), dtype=np.float64)
            self._pred[ids] = acted
            self._lb[ids] = np.nan
        below = acted < pol.rttf_margin
        self._streak[ids] = np.where(below, self._streak[ids] + 1, 0)
        trig = self._streak[ids] >= pol.consecutive
        return trig, self._pred[ids].copy(), self._lb[ids].copy()

    def time_triggers(self, ids, ages):
        if self._kind == "periodic":
            return ages >= self.policy.interval_seconds
        return np.zeros(ids.size, dtype=bool)

    def last_prediction(self, i: int) -> "float | None":
        pred = self._pred[i]
        return None if np.isnan(pred) else float(pred)

    def predicted_failures(self, ids, horizon_s: float) -> int:
        preds = self._pred[ids]
        return int((~np.isnan(preds) & (preds < horizon_s)).sum())

    def stats(self) -> dict[str, int]:
        return {
            "stream_dropped": self.stream.dropped_total,
            "late_dropped": self.stream.late_dropped,
        }


# -- the fleet controller ---------------------------------------------------------


class FleetController:
    """N managed node loops under one policy engine and capacity planner.

    The global loop advances all non-down nodes by one tick per
    iteration, ingests the tick's monitor samples through the control
    plane, scores every node that completed a window (or is flying on a
    held one) with **one** batched model call, and then arbitrates
    restarts: planned restarts are granted in node order while the live
    fraction stays above ``capacity_floor``; crashes are immediate.

    The policy must be a ``NoRejuvenation``, ``PeriodicRejuvenation`` or
    ``PredictiveRejuvenation`` (subclasses excluded: the batched plane
    vectorizes these three decision rules, not overridden methods).
    """

    def __init__(
        self,
        source: FleetSource,
        managed: ManagedSystemConfig,
        policy: RejuvenationPolicy,
        fleet: "FleetConfig | None" = None,
        sanitize_config=None,
    ) -> None:
        if type(policy) not in _POLICY_KINDS:
            raise ValueError(
                "the fleet controller runs NoRejuvenation, PeriodicRejuvenation "
                f"and PredictiveRejuvenation only, got {type(policy).__name__}"
            )
        self.source = source
        self.managed = managed
        self.policy = policy
        self.fleet = fleet or FleetConfig()
        self.sanitize_config = sanitize_config

    def run(self, seed: "int | None | np.random.Generator" = None) -> FleetRunLog:
        """Simulate the fleet for the configured horizon."""
        return self._run_nodes(list(as_rng(seed).spawn(self.fleet.n_nodes)))

    def _run_nodes(self, rngs: list) -> FleetRunLog:
        """Simulate the fleet with node ``i`` driven by ``rngs[i]``."""
        fcfg, mcfg = self.fleet, self.managed
        run_span = span(
            "fleet.run",
            policy=self.policy.name,
            n_nodes=fcfg.n_nodes,
            scoring=fcfg.scoring,
            horizon_s=mcfg.horizon_seconds,
        ).__enter__()
        log = FleetRunLog(
            policy_name=self.policy.name,
            n_nodes=fcfg.n_nodes,
            node_logs=[
                ManagedRunLog(policy_name=self.policy.name)
                for _ in range(fcfg.n_nodes)
            ],
        )
        try:
            return self._run(fcfg, mcfg, log, rngs)
        finally:
            run_span.set(
                episodes=log.n_episodes,
                crashes=log.n_crashes,
                rejuvenations=log.n_rejuvenations,
                availability=log.availability,
                min_live_fraction=log.min_live_fraction,
            ).__exit__()

    def _run(self, fcfg, mcfg, log, rngs) -> FleetRunLog:
        from repro.obs import get_telemetry

        n = fcfg.n_nodes
        self.source.bind(rngs, mcfg.horizon_seconds)
        dt = self.source.dt
        horizon = mcfg.horizon_seconds
        staleness = mcfg.resolved_staleness_timeout
        plane = _BatchedPlane(
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
        # Each scan below runs only on ticks where it can change something.
        # Tallies of `status`, so no tick counts it:
        n_finished = n_down = n_draining = 0
        # The least down_until over down nodes: no boot is due before it.
        next_boot = np.inf
        # Set when a node leaves or joins the running set.
        changed = True
        # No live node's window can be stale before this global time.
        stale_from = np.inf
        periodic = type(self.policy) is PeriodicRejuvenation

        for i in range(n):
            self.source.boot(i)
            plane.reset_node(i)

        def end_episode(i: int, outcome: str) -> None:
            nonlocal n_finished, n_down, n_draining, next_boot, changed
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
            changed = True
            if status[i] == NODE_DRAINING:
                n_draining -= 1
            if outcome == "horizon":
                status[i] = NODE_FINISHED
                n_finished += 1
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
                n_finished += 1
            else:
                status[i] = NODE_DOWN
                n_down += 1
                # A node may reboot once the global clock has covered its
                # consumed wall time (uptime + downtime so far) — exact on
                # the tick grid when downtimes are multiples of dt.
                down_until[i] = walls[i]
                next_boot = min(next_boot, float(walls[i]))

        t = 0.0
        it = 0
        max_iters = 4 * int(np.ceil(horizon / dt)) + 64
        while n_finished < n:
            if it > max_iters:
                raise RuntimeError(
                    f"fleet loop exceeded {max_iters} iterations — "
                    "a node is not making progress"
                )
            # 1. reboot nodes whose downtime has elapsed
            if next_boot <= t + 1e-9:
                boots = np.flatnonzero(
                    (status == NODE_DOWN) & (down_until <= t + 1e-9)
                )
                for i in boots.tolist():
                    self.source.boot(i)
                    plane.reset_node(i)
                    nows[i] = 0.0
                    ep_start[i] = walls[i]
                    has_lw[i] = False
                    lw_time[i] = 0.0
                    next_held[i] = 0.0
                    status[i] = NODE_LIVE
                n_down -= boots.size
                next_boot = (
                    float(down_until[status == NODE_DOWN].min()) if n_down else np.inf
                )
                changed = True
            if changed:
                running = np.flatnonzero(
                    (status == NODE_LIVE) | (status == NODE_DRAINING)
                )
                changed = False
            if running.size == 0:
                t += dt
                it += 1
                continue
            # 2. horizon pre-check (mirrors `while wall + now < horizon`)
            cont = walls[running] + nows[running] < horizon
            if not cont.all():
                for i in running[~cont]:
                    end_episode(int(i), "horizon")
                running = running[cont]
            if running.size:
                # 3. tick all running nodes
                due_ids, sample_ids, rows, crashed = self.source.step(
                    running, walls, nows
                )
                nows[running] += dt
                # 4. sanitize + aggregate the tick's samples; the scoring
                # set starts with the freshly completed windows of live
                # nodes.
                score_ids, X = _NO_WINDOWS
                if sample_ids.size:
                    comp_ids, comp_w = plane.ingest(sample_ids, rows)
                    if comp_ids.size:
                        last_window[comp_ids] = comp_w
                        has_lw[comp_ids] = True
                        lw_time[comp_ids] = nows[comp_ids]
                        fresh = status[comp_ids] == NODE_LIVE
                        score_ids, X = comp_ids[fresh], comp_w[fresh]
                        stale_from = min(stale_from, t + staleness - dt)
                # 5. stale-hold re-evaluations. A node that just completed
                # a window has lw_time == now, so it is never stale
                # (staleness > 0). Every running node steps on every
                # tick, so a window's age nows - lw_time grows by dt per
                # tick, as t does: an age A measured at t passes
                # `staleness` no earlier than t + staleness - A. Ages are
                # node-local, so an off-grid reboot, which leaves a node's
                # walls + nows up to a dt behind t, does not shift them.
                # stale_from is the least such time over the ages
                # measured at the last scan and the windows completed
                # since (age 0), less one dt: t and the nodes' clocks are
                # separate float sums of dt, which round apart when dt is
                # no binary fraction, and the slack keeps the guard from
                # firing a tick late.
                if due_ids.size and t >= stale_from:
                    d = due_ids[status[due_ids] == NODE_LIVE]
                    stale = d[
                        has_lw[d]
                        & (nows[d] - lw_time[d] > staleness)
                        & (nows[d] >= next_held[d])
                    ]
                    if stale.size:
                        next_held[stale] = nows[stale] + mcfg.window_seconds
                        metrics.inc("fleet.stale_holds_total", float(stale.size))
                        score_ids = np.concatenate([score_ids, stale])
                        X = np.concatenate([X, last_window[stale]])
                    held = running[has_lw[running]]
                    stale_from = (
                        t + staleness - float((nows[held] - lw_time[held]).max()) - dt
                        if held.size
                        else np.inf
                    )
                if score_ids.size:
                    t_predict = perf_counter()
                    trig, preds, _lbs = plane.consult(score_ids, X, nows[score_ids])
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
                # 6. time-based triggers, evaluated every tick (only the
                # periodic policy has them)
                if periodic:
                    live = running[status[running] == NODE_LIVE]
                    tt = plane.time_triggers(live, nows[live])
                    wants[live[tt]] = True
                # 7. grant planned restarts while capacity stays above the
                # floor; the rest wait (and re-request next tick)
                if wants.any():
                    requests = np.flatnonzero(wants & (status == NODE_LIVE))
                    slots = max(0, allowed_down - (n_down + n_draining))
                    granted = requests[:slots]
                    log.restarts_deferred += int(requests.size - granted.size)
                    for i in granted.tolist():
                        wants[i] = False
                        ep_pred[i] = plane.last_prediction(i)
                        if fcfg.drain_seconds > 0:
                            status[i] = NODE_DRAINING
                            n_draining += 1
                            drain_until[i] = nows[i] + fcfg.drain_seconds
                        else:
                            end_episode(i, "rejuvenation")
                # 8. drains that have bled dry restart cleanly
                if n_draining:
                    drained = np.flatnonzero(
                        (status == NODE_DRAINING) & (nows >= drain_until - 1e-9)
                    )
                    for i in drained.tolist():
                        end_episode(i, "rejuvenation")
                # 9. crashes (a trigger in the same tick wins, exactly like
                # the single-node loop's break-before-failure-check)
                if crashed.any():
                    for k in np.flatnonzero(crashed).tolist():
                        i = int(running[k])
                        if status[i] in (NODE_LIVE, NODE_DRAINING):
                            end_episode(i, "crash")
                            if n_down > allowed_down:
                                log.floor_violations += 1
                                metrics.inc("fleet.floor_violations_total")
            # 10. capacity bookkeeping + fleet telemetry
            live_frac = 1.0 - float(n_down) / n
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
        _log.info(
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
