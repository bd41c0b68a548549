"""Event-fused execution substrate for the campaign simulator.

The legacy loop (:func:`repro.system.simulator.loop_episode`) pays one full
Python dispatch chain per tick — ``server.tick`` → injector ``advance`` →
``fmc.due`` → a frozen :class:`SystemView` → ``failure_condition.is_failed``
— even though monitor samples fire only every ~1.5 s, injectors every few
seconds, and failure transitions exactly once per run. This module runs
the same simulation as a scalar event loop instead:

- **Events, not objects.** Per-tick work is straight-line float
  arithmetic on hoisted locals; ``Datapoint``/``SystemView``/``TickStats``
  construction, method dispatch, and property chains happen only at
  *events* (monitor sample due, injector firing, load-schedule change,
  failure crossing). The stretch between two events is a *block*
  (``sim.fused_blocks_total``).
- **Compiled failure predicate.** The failure condition is compiled to
  three scalar thresholds by :meth:`FailureCondition.fused_limits`
  (overflow KB / mean RT / generation interval); the per-tick check is
  three float compares. Conditions with no threshold form fall back to
  the loop substrate in :meth:`TestbedSimulator.run_once`.
- **Quiet-gap batching.** A tick with no due browser, no event, and a
  currently-false predicate consumes exactly two Gaussian draws (the
  steal/nice accounting noise). Such gaps are scanned ahead and their
  draws taken in one batched ``Generator.normal`` call — bit-identical
  to the scalar sequence — while the backlog drains tick-by-tick in
  exact float order.
- **Precomputed sampling CDF.** i.i.d. mix draws go through
  :attr:`TPCWMix.sampling_cdf` + ``searchsorted`` — the exact internal
  computation of ``Generator.choice``, hoisted out of the hot loop.
- **Small-batch scalar path.** The typical tick completes only a few
  requests; numpy's per-call overhead dominates arrays that small. For
  ``k < 8`` due browsers the per-request arithmetic runs as a plain
  Python fold (``bisect`` over the same CDFs, sequential sums), which is
  bit-identical because ``np.sum``/``np.cumsum`` only switch to pairwise
  summation at length 8 — below that they are the same left-to-right
  fold. ``k >= 8`` keeps the vectorized mirror of ``AppServer.tick``.

**One episode, two callers.** :func:`fused_episode` is the engine as a
resumable generator (the event contract is documented in
:mod:`repro.system.simulator`). :func:`run_once_fused` runs one to the
end of a campaign run; :class:`repro.rejuvenation.SimulatedFleetSource`
resumes one per fleet node, event by event.

**Bit-identity contract.** The engine consumes every RNG stream in the
same order as the loop and evaluates every float expression in the same
sequence — via the shared pure helpers in ``resources``/``monitor``, or
(for the two hottest per-tick formulas, ``degradation_multiplier`` and
``tick_cpu_inputs``) as commented inline copies — so
``RunRecord``/``DataHistory`` output is bit-identical to the loop
substrate, enforced by ``tests/system/test_substrate_equivalence.py``
across both code paths. All stochastic state
(anomaly profile, browser pool, injectors) lives in the *real* component
objects, so constructor-time draws can never diverge; only the per-tick
arithmetic is fused.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

from repro.core.history import RunRecord
from repro.obs import get_metrics, get_telemetry, span
from repro.system.monitor import stretched_interval
from repro.system.resources import cpu_decomposition, memory_layout
from repro.system.simulator import (
    CampaignConfig,
    boot_server,
    make_injectors,
    record_episode,
    run_totals,
)
from repro.system.tpcw import SERVICE_DEMANDS

_INF = float("inf")

#: Longest quiet gap batched into one Gaussian draw (bounds the
#: preallocated loc/scale tiles; longer gaps simply split).
GAP_MAX_TICKS = 512


class FusedBlocks(NamedTuple):
    """Block statistics of one fused episode (see the module docstring)."""

    blocks: int
    ticks: int
    gap_ticks: int


def run_once_fused(
    cfg: CampaignConfig,
    limits: tuple[float, float, float],
    rng: np.random.Generator,
) -> RunRecord:
    """Simulate one run on the fused substrate: drive :func:`fused_episode`
    to its end and record the run's telemetry.

    ``limits`` is the compiled ``(overflow_kb, mean_rt, generation)``
    threshold triple from :meth:`FailureCondition.fused_limits`. The
    caller (:meth:`TestbedSimulator.run_once`) guarantees it is not None.
    """
    metrics = get_metrics()
    episode = fused_episode(cfg, limits, rng.spawn(5), max_run=cfg.max_run_seconds)
    with span("simulate.run.fused") as run_sp:
        record, blocks = record_episode(episode, cfg.max_run_seconds)
        run_sp.set(
            blocks=blocks.blocks,
            ticks=blocks.ticks,
            gap_ticks=blocks.gap_ticks,
            datapoints=record.n_datapoints,
            crashed=bool(record.metadata["crashed"]),
        )
    metrics.inc("sim.fused_runs_total")
    metrics.inc("sim.fused_blocks_total", blocks.blocks)
    # Per-run summary points for the live bus. One point per run keeps
    # every worker's buffer lossless, preserving the bit-identical-merge
    # guarantee for any worker count.
    bus = get_telemetry()
    if bus.enabled:
        bus.emit("sim.fused_blocks", record.fail_time, float(blocks.blocks))
        bus.emit(
            "sim.fused_ticks_per_block",
            record.fail_time,
            blocks.ticks / blocks.blocks if blocks.blocks else 0.0,
        )
    return record


def fused_episode(
    cfg: CampaignConfig,
    limits: tuple[float, float, float],
    streams,
    *,
    t0: float = 0.0,
    max_run: float = _INF,
):
    """The fused engine as a resumable episode (the event contract is in
    :mod:`repro.system.simulator`).

    ``streams`` is ``(r_profile, r_pool, r_server, r_monitor, r_inject)``;
    ``r_inject`` is only read when an injector is on. The episode returns
    ``(totals, FusedBlocks)``.
    """
    mem_limit, rt_limit, gen_limit = limits
    machine = cfg.machine
    server_cfg = cfg.server
    mon = cfg.monitor
    schedule = cfg.load_schedule
    dt = cfg.dt

    r_profile, r_pool, r_server, r_monitor, r_inject = streams
    # Real component objects: the server owns the stream handed to
    # apply_home_visits and gives the lock/conn/frag injectors their
    # surface. Its tick() is never called here.
    server = boot_server(cfg, r_profile, r_pool, r_server)
    state = server.state
    pool = server.pool
    profile = server.profile
    leak_inj, thread_inj, lock_inj, fd_inj, conn_inj, frag_inj = make_injectors(
        cfg, r_inject
    )
    leak_next = leak_inj.next_fire_time if leak_inj is not None else _INF
    thread_next = thread_inj.next_fire_time if thread_inj is not None else _INF
    lock_next = lock_inj.next_fire_time if lock_inj is not None else _INF
    fd_next = fd_inj.next_fire_time if fd_inj is not None else _INF
    conn_next = conn_inj.next_fire_time if conn_inj is not None else _INF
    frag_next = frag_inj.next_fire_time if frag_inj is not None else _INF

    # -- hoisted constants -------------------------------------------------
    n_b = cfg.n_browsers
    n_cpus = machine.n_cpus
    capacity = n_cpus * dt
    base_demand = machine.os_base_kb + machine.app_working_set_kb
    fixed = machine.buffers_kb + machine.shared_kb
    ram_for_app = machine.ram_kb - fixed - machine.min_cache_kb
    swap_kb = machine.swap_kb
    thread_stack = machine.thread_stack_kb
    base_threads = state.base_threads
    think_mean = pool.THINK_MEAN
    think_cap = pool.THINK_CAP
    sigma_demand = server_cfg.demand_noise_sigma
    io_coef = server_cfg.io_stall_coef
    steal_mean = server_cfg.steal_mean
    thread_over = server_cfg.thread_overhead_per_1k
    lock_per = server_cfg.lock_contention_per_lock
    thrash_coef = server_cfg.swap_thrash_coef
    blowup_coef = server_cfg.swap_blowup_coef
    fd_coef = server_cfg.fd_pressure_coef
    fd_limit = machine.fd_limit
    conn_pool = server_cfg.conn_pool_size
    conn_coef = server_cfg.conn_wait_coef
    frag_per = server_cfg.frag_per_event
    frag_cap = server_cfg.frag_cap
    base_sys_share = server_cfg.base_sys_share
    iowait_coef = server_cfg.iowait_coef
    noise_sigma = mon.noise_sigma
    nominal = mon.nominal_interval

    prng = pool.rng
    srng = server.rng
    mrng = r_monitor
    nrt = pool.next_request_time
    chain = pool.session_chain
    chain_cdf = chain.cdf if chain is not None else None
    mix_cdf = cfg.mix.sampling_cdf
    steal_sd = steal_mean / 2.0

    # Bound-method and Python-list hoists for the scalar fast path.
    prng_random = prng.random
    prng_exponential = prng.exponential
    srng_lognormal = srng.lognormal
    srng_exponential = srng.exponential
    srng_normal = srng.normal
    demand_of = SERVICE_DEMANDS.tolist()
    mix_cdf_list = mix_cdf.tolist()
    chain_rows = (
        [row.tolist() for row in chain_cdf] if chain_cdf is not None else None
    )
    # Session states live as a Python list (the scalar path's native form);
    # the k >= 8 vector path reads/writes the same list.
    states_list = pool.session_states.tolist() if chain is not None else None

    # Steal+nice accounting noise tiles: quiet gaps take g tick-pairs of
    # draws in one batched call, bit-identical to the scalar sequence.
    loc_gap = np.tile(np.array([steal_mean, 0.001]), GAP_MAX_TICKS)
    scale_gap = np.tile(np.array([steal_sd, 0.001]), GAP_MAX_TICKS)

    # -- mutable run state -------------------------------------------------
    leaked_kb = 0.0
    n_leaked_threads = 0
    demand = base_demand + leaked_kb + n_leaked_threads * thread_stack
    overflow = max(0.0, demand - ram_for_app)
    swap_used = 0.0
    s = 0.0  # swap pressure
    backlog = 0.0
    ewma_rt = 0.0
    utilization = 0.0
    busy = sys_share = iowait = 0.0
    steal_d = nice_d = 0.0
    now = 0.0
    next_sample = nominal  # fmc.reset(0.0)
    last_interval = nominal
    # Schedule change times are absolute (t0 + now), like its reads.
    sched_next = 0.0  # force schedule evaluation on the first tick
    n_active = -1
    nrt_active = nrt  # rebound whenever n_active changes
    due_buf = np.empty(n_b, dtype=bool)
    home_leaked_kb = 0.0
    home_threads = 0
    total_completed = 0

    n_blocks = 0
    block_ticks = 0
    total_ticks = 0
    gap_ticks = 0

    def _close_block() -> None:
        """An event (sample / injector firing / run end) ends a block."""
        nonlocal n_blocks, block_ticks
        if block_ticks:
            n_blocks += 1
            block_ticks = 0

    while now < max_run:
        # ---- load schedule (evaluated at tick start, like the loop) --
        if t0 + now >= sched_next:
            frac = schedule.active_fraction(t0 + now)
            sched_next = schedule.next_change_after(t0 + now)
            if not 0.0 <= frac <= 1.0:
                raise ValueError(
                    f"active_fraction must be in [0,1], got {frac}"
                )
            na = int(round(frac * n_b))
            if na != n_active:
                n_active = na
                nrt_active = nrt if n_active >= n_b else nrt[:n_active]
                due_buf = np.empty(nrt_active.shape[0], dtype=bool)

        # ---- due browsers --------------------------------------------
        np.less_equal(nrt_active, now, out=due_buf)
        ready = due_buf.nonzero()[0]
        k = ready.size

        # ---- quiet-gap fast path -------------------------------------
        # A tick is quiet when no browser is due, no event lands in it,
        # and the failure predicate is currently false (its inputs
        # cannot change during a quiet tick). Each quiet tick consumes
        # exactly the two steal/nice draws; batch them.
        t_end = now + dt
        if (
            k == 0
            and t_end < next_sample
            and leak_next > t_end
            and thread_next > t_end
            and lock_next > t_end
            and fd_next > t_end
            and conn_next > t_end
            and frag_next > t_end
            and sched_next > t0 + t_end
            and not (
                overflow > mem_limit
                or ewma_rt > rt_limit
                or last_interval > gen_limit
            )
        ):
            next_arrival = (
                float(nrt_active.min()) if n_active > 0 else _INF
            )
            g = 0
            t = now
            while True:
                g += 1
                t = t + dt  # sequential accumulation, as the loop does
                t2 = t + dt
                if not (
                    t < max_run
                    and next_arrival > t
                    and t2 < next_sample
                    and leak_next > t2
                    and thread_next > t2
                    and lock_next > t2
                    and fd_next > t2
                    and conn_next > t2
                    and frag_next > t2
                    and sched_next > t0 + t2
                    and g < GAP_MAX_TICKS
                ):
                    break
            srng_normal(loc_gap[: 2 * g], scale_gap[: 2 * g])
            for _ in range(g):  # exact per-tick drain order
                if backlog == 0.0:
                    break
                processed = backlog if backlog < capacity else capacity
                backlog -= processed
            now = t
            total_ticks += g
            gap_ticks += g
            block_ticks += g
            continue

        # ---- full tick: server phase ---------------------------------
        # Draw order per stream matches AppServer.tick exactly:
        # pool.rng: interactions, then think times at complete();
        # server.rng: home binomial/uniform/binomial, demand lognormal,
        # io-stall exponential, steal+nice normals. The k < 8 scalar
        # branch and the k >= 8 vector branch consume identical draws
        # and evaluate identical float folds (see module docstring).
        if k:
            if k < 8:
                ready_list = ready.tolist()
                u = prng_random(k).tolist()
                n_home = 0
                inter = []
                if chain_rows is not None:
                    for i, x in zip(ready_list, u):
                        # count of row entries < x == (x > row).sum()
                        v = bisect_left(chain_rows[states_list[i]], x)
                        states_list[i] = v
                        inter.append(v)
                        if v == 0:
                            n_home += 1
                else:
                    for x in u:
                        v = bisect_right(mix_cdf_list, x)
                        inter.append(v)
                        if v == 0:
                            n_home += 1
                interactions = None
            else:
                ready_list = ready.tolist()
                draws = prng_random(k)
                if chain_rows is not None:
                    sel = np.fromiter(
                        (states_list[i] for i in ready_list),
                        dtype=np.int64,
                        count=k,
                    )
                    interactions = (
                        (draws[:, None] > chain_cdf[sel])
                        .sum(axis=1)
                        .astype(np.int64)
                    )
                    for i, v in zip(ready_list, interactions.tolist()):
                        states_list[i] = v
                else:
                    interactions = mix_cdf.searchsorted(draws, side="right")
                n_home = int(np.count_nonzero(interactions == 0))
            if n_home > 0:
                leaked, spawned = profile.apply_home_visits(state, n_home, srng)
                home_leaked_kb += leaked
                home_threads += spawned
                leaked_kb = state.leaked_kb
                n_leaked_threads = state.n_leaked_threads
                demand = base_demand + leaked_kb + n_leaked_threads * thread_stack
                overflow = max(0.0, demand - ram_for_app)

        # state.update_swap(): monotone high-water mark, scalar form
        if overflow > swap_used:
            swap_used = overflow if overflow < swap_kb else swap_kb
        if swap_kb > 0.0:
            s = swap_used / swap_kb
        else:
            s = 1.0 if overflow > 0.0 else 0.0

        if k:
            # degradation_multiplier (server.py), inlined: same
            # expression sequence on hoisted locals. The equivalence
            # battery keeps the copies in sync.
            thread_factor = 1.0 + thread_over * (n_leaked_threads / 1000.0)
            lock_factor = 1.0 + lock_per * server.n_stuck_locks
            swap_factor = 1.0 + thrash_coef * s * s
            if s < 1.0:
                swap_factor += blowup_coef * s / (1.0 - s)
            else:
                swap_factor += blowup_coef * 1e3
            fd_factor = 1.0
            n_fds = state.n_leaked_fds
            if n_fds > 0:
                fill = n_fds / fd_limit
                if fill < 1.0:
                    fd_factor = 1.0 + fd_coef * fill / (1.0 - fill)
                else:
                    fd_factor = 1.0 + fd_coef * 1e3
            conn_factor = 1.0
            n_held = server.n_held_connections
            if n_held > 0:
                free_conn = conn_pool - n_held
                if free_conn > 0:
                    conn_factor = 1.0 + conn_coef * (n_held / free_conn)
                else:
                    conn_factor = 1.0 + conn_coef * 1e3
            frag_factor = 1.0
            n_frag = server.frag_events
            if n_frag > 0:
                frag = n_frag * frag_per
                if frag > frag_cap:
                    frag = frag_cap
                frag_factor = 1.0 / (1.0 - frag)
            multiplier = (
                thread_factor
                * lock_factor
                * swap_factor
                * fd_factor
                * conn_factor
                * frag_factor
            )
            if k < 8:
                # Scalar fold: bit-identical to the vector branch below
                # because np.sum/np.cumsum are plain left-to-right
                # accumulation for fewer than 8 elements.
                noise = srng_lognormal(
                    mean=0.0, sigma=sigma_demand, size=k
                ).tolist()
                if s > 0.0:
                    iob = io_coef * s * s
                    io_l = srng_exponential(0.5, size=k).tolist()
                else:
                    io_l = None
                th = prng_exponential(think_mean, size=k).tolist()
                run = 0.0
                sum_rt = 0.0
                for j in range(k):
                    d = demand_of[inter[j]] * multiplier * noise[j]
                    rt = d + (backlog + run) / n_cpus
                    if io_l is not None:
                        rt = rt + iob * (1.0 + io_l[j])
                    t = th[j]
                    if t > think_cap:
                        t = think_cap
                    nrt[ready_list[j]] = (now + rt) + t
                    run = run + d
                    sum_rt = sum_rt + rt
                backlog = backlog + run
            else:
                noise = srng_lognormal(mean=0.0, sigma=sigma_demand, size=k)
                demands = SERVICE_DEMANDS[interactions] * multiplier * noise
                q = np.empty(k)
                q[0] = 0.0
                np.cumsum(demands[:-1], out=q[1:])
                queue_ahead = backlog + q
                waits = queue_ahead / n_cpus
                if s > 0.0:
                    io = (io_coef * s * s) * (
                        1.0 + srng_exponential(0.5, size=k)
                    )
                    rts = demands + waits + io
                else:
                    rts = demands + waits  # + zeros is a bitwise no-op
                backlog += float(demands.sum())
                think = np.minimum(
                    prng_exponential(think_mean, size=k), think_cap
                )
                nrt[ready] = (now + rts) + think
                sum_rt = float(rts.sum())
            total_completed += k

        processed = backlog if backlog < capacity else capacity
        backlog -= processed
        utilization = processed / capacity
        # tick_cpu_inputs (server.py), inlined; min(c, x) == the
        # conditional for x == c (either returns the same value).
        sched_overhead = n_leaked_threads / 20_000.0
        if sched_overhead > 0.10:
            sched_overhead = 0.10
        sys_share = base_sys_share + sched_overhead
        if sys_share > 0.9:
            sys_share = 0.9
        us = utilization + s
        if us > 1.0:
            us = 1.0
        iowait = iowait_coef * s * s * (0.3 + 0.7 * us)
        busy = utilization + sched_overhead
        if busy > 1.0:
            busy = 1.0
        steal_d = float(srng_normal(steal_mean, steal_sd))
        nice_d = float(srng_normal(0.001, 0.001))

        # ---- tick end: time advance + deferred scalar updates --------
        now = now + dt
        total_ticks += 1
        block_ticks += 1
        if k:
            ewma_rt += 0.2 * (sum_rt / k - ewma_rt)

        # ---- time-based injectors (event-gated) ----------------------
        if leak_inj is not None:
            fired = False
            if leak_next <= now:
                leak_inj.advance(state, now)
                leak_next = leak_inj.next_fire_time
                fired = True
            if thread_next <= now:
                thread_inj.advance(state, now)
                thread_next = thread_inj.next_fire_time
                fired = True
            if fired:
                _close_block()
                leaked_kb = state.leaked_kb
                n_leaked_threads = state.n_leaked_threads
                demand = (
                    base_demand + leaked_kb + n_leaked_threads * thread_stack
                )
                overflow = max(0.0, demand - ram_for_app)
                if overflow > swap_used:
                    swap_used = overflow if overflow < swap_kb else swap_kb
                if swap_kb > 0.0:
                    s = swap_used / swap_kb
                else:
                    s = 1.0 if overflow > 0.0 else 0.0
        if lock_inj is not None and lock_next <= now:
            lock_inj.advance(server, now)
            lock_next = lock_inj.next_fire_time
            _close_block()
        # fd/conn/frag families touch no memory state, so (like the
        # loop substrate) no swap recompute follows their advances.
        if fd_inj is not None and fd_next <= now:
            fd_inj.advance(state, now)
            fd_next = fd_inj.next_fire_time
            _close_block()
        if conn_inj is not None and conn_next <= now:
            conn_inj.advance(server, now)
            conn_next = conn_inj.next_fire_time
            _close_block()
        if frag_inj is not None and frag_next <= now:
            frag_inj.advance(server, now)
            frag_next = frag_inj.next_fire_time
            _close_block()

        # ---- monitor sample (event) ----------------------------------
        row = None
        if now >= next_sample:
            _close_block()
            queue_delay = backlog / n_cpus
            user, nice, sys_, iow, steal, idle = cpu_decomposition(
                busy_frac=busy,
                sys_share=sys_share,
                iowait_frac=iowait,
                steal_frac=steal_d,
                nice_frac=nice_d,
            )
            resident, cached, free, _ = memory_layout(machine, demand)
            row = (
                now,
                float(base_threads + n_leaked_threads),
                resident,
                free,
                machine.shared_kb,
                machine.buffers_kb,
                cached,
                swap_used,
                swap_kb - swap_used,
                user,
                nice,
                sys_,
                iow,
                steal,
                idle,
            )
            noise_m = float(np.exp(mrng.normal(0.0, noise_sigma)))
            step = stretched_interval(mon, utilization, s, queue_delay, noise_m)
            last_interval = step
            next_sample = now + step

        # ---- compiled failure predicate ------------------------------
        if (
            overflow > mem_limit
            or ewma_rt > rt_limit
            or last_interval > gen_limit
        ):
            yield now, row, ewma_rt, True
            break
        if row is not None:
            yield now, row, ewma_rt, False

    _close_block()
    totals = run_totals(profile, home_leaked_kb, home_threads, total_completed)
    return totals, FusedBlocks(n_blocks, total_ticks, gap_ticks)
