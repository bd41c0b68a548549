"""Pinned exact-boundary regressions for the fused substrate.

The quiet-gap batching in :mod:`repro.system.fused` turns on strict
comparisons against event times: a monitor sample due *exactly* at a
tick end (``t_end == next_sample``), an injector firing or a schedule
breakpoint landing *exactly* on a sample tick, or a horizon expiring on
one. An off-by-one in any of those guards (``<`` vs ``<=``) would skip
or double-fire the event only when the times collide — invisible to the
randomized equivalence battery, where collisions have measure zero.

This battery *forces* the collisions: a zero-noise monitor whose
interval is an exact binary multiple of ``dt`` puts every sample on a
tick boundary, and schedules are built with breakpoints on those exact
sample times. Each case is compared loop-vs-fused to the last ULP.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.system import (
    AnyOf,
    FlashCrowdLoad,
    MemoryExhaustion,
    MonitorConfig,
    ResponseTimeLimit,
    StepLoad,
    TestbedSimulator,
)
from repro.system.anomalies import MemoryLeakInjector

from tests.conftest import small_campaign
from tests.system.test_substrate_equivalence import (
    _loop_only,
    _records_equal,
    _run_both,
)


def _exact_monitor() -> MonitorConfig:
    """A monitor whose samples land exactly on tick boundaries.

    With every load-coupling coefficient zeroed and zero noise the
    effective interval is exactly ``nominal_interval``; 1.5 s is an
    exact binary float and an exact multiple of dt=0.5, so every
    ``next_sample`` is hit with ``now == next_sample`` — the equality
    edge of both the loop's ``due()`` and the fused gap guard.
    """
    return MonitorConfig(
        nominal_interval=1.5,
        saturation_coef=0.0,
        thrash_coef=0.0,
        queue_coef=0.0,
        noise_sigma=0.0,
    )


def _exact_base():
    return dataclasses.replace(
        small_campaign(),
        monitor=_exact_monitor(),
        max_run_seconds=1200.0,
    )


# Every schedule edge below is a multiple of 1.5 (the sample interval)
# and of 0.5 (dt): the change lands on a tick that is *also* a sample.
BOUNDARY_MATRIX = {
    "samples-on-ticks": (_exact_base(), MemoryExhaustion()),
    "step-on-sample-tick": (
        dataclasses.replace(
            _exact_base(),
            load_schedule=StepLoad(
                breakpoints=(300.0, 600.0), fractions=(1.0, 0.2, 0.8)
            ),
        ),
        MemoryExhaustion(),
    ),
    "flash-crowd-on-sample-ticks": (
        dataclasses.replace(
            _exact_base(),
            load_schedule=FlashCrowdLoad(
                base=0.4, peak=1.0, start=300.0, ramp=30.0, hold=150.0, decay=60.0
            ),
        ),
        MemoryExhaustion(),
    ),
    "zero-ramp-flash-crowd": (
        # Degenerate ramp/decay: the fraction *jumps* exactly at start
        # and at the hold end — both on sample ticks.
        dataclasses.replace(
            _exact_base(),
            load_schedule=FlashCrowdLoad(
                base=0.3, peak=1.0, start=300.0, ramp=0.0, hold=150.0, decay=0.0
            ),
        ),
        MemoryExhaustion(),
    ),
    "injectors-with-exact-sampling": (
        dataclasses.replace(
            _exact_base(), use_time_injectors=True, use_lock_injector=True
        ),
        AnyOf(MemoryExhaustion(), ResponseTimeLimit(40.0)),
    ),
    "new-families-with-exact-sampling": (
        dataclasses.replace(
            _exact_base(),
            use_fd_injector=True,
            use_conn_injector=True,
            use_frag_injector=True,
        ),
        AnyOf(MemoryExhaustion(), ResponseTimeLimit(40.0)),
    ),
    "horizon-on-sample-tick": (
        # max_run_seconds is itself a sample time: the run must truncate
        # identically (no trailing sample, no extra tick).
        dataclasses.replace(_exact_base(), max_run_seconds=450.0),
        MemoryExhaustion(),
    ),
}


class TestExactBoundaryBitIdentity:
    @pytest.mark.parametrize("case", sorted(BOUNDARY_MATRIX))
    def test_fused_matches_loop_on_boundary(self, case):
        config, condition = BOUNDARY_MATRIX[case]
        for seed in (13, 123):
            loop, fused = _run_both(config, condition, seed)
            assert _records_equal(loop, fused), f"{case} diverged (seed {seed})"

    def test_zero_noise_monitor_samples_every_nominal(self):
        """Sanity: the exact monitor really does sample on the equality
        edge — datapoint times are exact multiples of the interval."""
        config, condition = BOUNDARY_MATRIX["samples-on-ticks"]
        sim = TestbedSimulator(config, _loop_only(config, condition))
        record = sim.run_once(np.random.default_rng(13))
        tgen = record.features[:, 0]
        assert np.array_equal(tgen, 1.5 * np.arange(1, tgen.size + 1))


class TestEventTimeSemantics:
    """Unit pins for the comparisons both substrates must share."""

    def test_injector_fires_at_exact_now(self):
        # events_until uses <=: an event scheduled at exactly `now`
        # fires *this* tick (the fused gate `x_next <= now` matches).
        inj = MemoryLeakInjector(
            mean_interval_range=(10.0, 10.0), seed=np.random.default_rng(0)
        )
        t = inj.next_fire_time
        assert inj._timing.events_until(t - 1e-9) == 0
        assert inj.next_fire_time == t  # no draw consumed by a no-op call
        assert inj._timing.events_until(t) == 1

    def test_step_load_switches_at_exact_breakpoint(self):
        sched = StepLoad(breakpoints=(300.0,), fractions=(1.0, 0.25))
        assert sched.active_fraction(300.0) == 0.25  # switched *at* b
        # next_change_after at the breakpoint is the following one (or
        # inf) — never the breakpoint itself, else the fused engine
        # would re-evaluate forever without advancing.
        assert sched.next_change_after(300.0) == float("inf")
        assert sched.next_change_after(299.9) == 300.0

    def test_flash_crowd_edges(self):
        sched = FlashCrowdLoad(
            base=0.4, peak=1.0, start=300.0, ramp=30.0, hold=150.0, decay=60.0
        )
        assert sched.active_fraction(300.0) == 0.4  # ramp starts at base
        assert sched.active_fraction(330.0) == 1.0  # peak reached
        assert sched.active_fraction(480.0) == 1.0  # decay starts at peak
        assert sched.active_fraction(540.0) == 0.4  # back to base
        assert sched.next_change_after(0.0) == 300.0
        assert sched.next_change_after(310.0) == 310.0  # ramping: per-tick
        assert sched.next_change_after(400.0) == 480.0  # holding: skip ahead
        assert sched.next_change_after(500.0) == 500.0  # decaying: per-tick
        assert sched.next_change_after(600.0) == float("inf")

    def test_flash_crowd_zero_segments(self):
        sched = FlashCrowdLoad(
            base=0.3, peak=1.0, start=300.0, ramp=0.0, hold=150.0, decay=0.0
        )
        assert sched.active_fraction(299.9) == 0.3
        assert sched.active_fraction(300.0) == 1.0  # instant jump, no 0/0
        assert sched.active_fraction(450.0) == 0.3  # instant drop
