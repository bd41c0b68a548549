"""The fused substrate's bit-identity oracle battery.

The fused engine (:mod:`repro.system.fused`) promises *bit-identical*
``RunRecord`` output to the per-tick loop — not "statistically
equivalent", equal to the last ULP. Every test here compares the two
engines with ``np.array_equal`` (exact), across the configuration
matrix the engine special-cases: session chains, time/lock injectors,
non-constant load schedules, non-representable ``dt`` accumulation,
truncated runs, compiled failure conditions, and multi-process fan-out.
The failure condition picks the engine, so the loop side of each pair
runs on the same condition behind :class:`~tests.conftest.LoopOnly`.
The stepper battery holds the fleet's node stepping to the same standard:
a fleet node stepped tick by tick is the campaign run, row for row.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import get_metrics, get_tracer
from repro.rejuvenation import SimulatedFleetSource
from repro.scenarios import SCENARIOS, resolve_scenario
from repro.store.keys import fingerprint
from repro.system import (
    AnyOf,
    CampaignConfig,
    ConstantLoad,
    DiurnalLoad,
    GenerationTimeLimit,
    MemoryExhaustion,
    ResponseTimeLimit,
    StepLoad,
    TestbedSimulator,
)
from repro.system.failure import FailureCondition
from repro.system.simulator import resolve_failure

from tests.conftest import LoopOnly, small_campaign, small_machine


def _records_equal(a, b) -> bool:
    return (
        np.array_equal(a.features, b.features)
        and np.array_equal(a.response_times, b.response_times)
        and a.fail_time == b.fail_time
        and a.metadata == b.metadata
    )


def _loop_only(config: CampaignConfig, condition) -> LoopOnly:
    """The condition runs of ``config`` end on, forced onto the loop."""
    return LoopOnly(resolve_failure(config, condition))


def _run_both(config: CampaignConfig, condition, seed: int):
    """One seed on the loop, and on the engine ``condition`` picks."""
    return tuple(
        TestbedSimulator(config, cond).run_once(np.random.default_rng(seed))
        for cond in (_loop_only(config, condition), condition)
    )


def _base() -> CampaignConfig:
    # Shorter horizon than the shared fixture: every case still crashes
    # or truncates, and the whole matrix stays fast.
    return dataclasses.replace(small_campaign(), max_run_seconds=1500.0)


MATRIX = {
    "default": (_base(), MemoryExhaustion()),
    "session-chain": (
        dataclasses.replace(_base(), use_session_chain=True),
        MemoryExhaustion(),
    ),
    "time-injectors": (
        dataclasses.replace(_base(), use_time_injectors=True),
        MemoryExhaustion(),
    ),
    "lock-injector-rt-limit": (
        dataclasses.replace(_base(), use_lock_injector=True),
        ResponseTimeLimit(30.0),
    ),
    "fd-injector": (
        dataclasses.replace(
            _base(),
            machine=dataclasses.replace(small_machine(), fd_limit=4096),
            use_fd_injector=True,
        ),
        MemoryExhaustion(),
    ),
    "conn-injector-rt-limit": (
        dataclasses.replace(_base(), use_conn_injector=True),
        ResponseTimeLimit(30.0),
    ),
    "frag-injector": (
        dataclasses.replace(_base(), use_frag_injector=True),
        MemoryExhaustion(),
    ),
    "everything-on": (
        dataclasses.replace(
            _base(),
            use_session_chain=True,
            use_time_injectors=True,
            use_lock_injector=True,
            use_fd_injector=True,
            use_conn_injector=True,
            use_frag_injector=True,
        ),
        AnyOf(MemoryExhaustion(), ResponseTimeLimit(40.0)),
    ),
    "step-load": (
        dataclasses.replace(
            _base(),
            load_schedule=StepLoad(
                breakpoints=(300.0, 700.0), fractions=(1.0, 0.25, 0.75)
            ),
        ),
        MemoryExhaustion(),
    ),
    "zero-load-burst": (
        dataclasses.replace(
            _base(),
            load_schedule=StepLoad(
                breakpoints=(200.0, 400.0), fractions=(0.0, 1.0, 0.4)
            ),
        ),
        MemoryExhaustion(),
    ),
    "diurnal-load": (
        dataclasses.replace(
            _base(), load_schedule=DiurnalLoad(period=600.0)
        ),
        MemoryExhaustion(),
    ),
    "half-load": (
        dataclasses.replace(_base(), load_schedule=ConstantLoad(0.5)),
        MemoryExhaustion(),
    ),
    "dt-0.25": (dataclasses.replace(_base(), dt=0.25), MemoryExhaustion()),
    "dt-1.0": (dataclasses.replace(_base(), dt=1.0), MemoryExhaustion()),
    # 0.3 is not representable in binary: exercises the sequential
    # float-time accumulation contract.
    "dt-0.3": (dataclasses.replace(_base(), dt=0.3), MemoryExhaustion()),
    "generation-limit": (_base(), GenerationTimeLimit(8.0)),
    "headroom": (_base(), MemoryExhaustion(headroom_frac=0.05)),
    "anyof": (
        _base(),
        AnyOf(
            MemoryExhaustion(),
            ResponseTimeLimit(45.0),
            GenerationTimeLimit(10.0),
        ),
    ),
    "truncated": (
        dataclasses.replace(_base(), max_run_seconds=120.0),
        MemoryExhaustion(),
    ),
}


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("case", sorted(MATRIX))
    def test_fused_matches_loop(self, case):
        config, condition = MATRIX[case]
        for seed in (13, 123):
            loop, fused = _run_both(config, condition, seed)
            assert _records_equal(loop, fused), f"{case} diverged (seed {seed})"

    def test_truncated_run_is_flagged_identically(self):
        config, condition = MATRIX["truncated"]
        loop, fused = _run_both(config, condition, 13)
        assert loop.metadata["crashed"] == 0.0
        assert fused.metadata["crashed"] == 0.0
        assert fused.fail_time == config.max_run_seconds


#: Every bit-identity case plus every scenario preset, for the stepper.
STEPPER_CASES = {
    **MATRIX,
    **{
        f"scenario-{name}": (resolve_scenario(name, small_campaign()), None)
        for name in SCENARIOS
    },
}


def _counter(name: str) -> float:
    return get_metrics().snapshot()["counters"].get(name, 0.0)


def _bound_node(config, condition, seed):
    source = SimulatedFleetSource(config, failure_condition=condition)
    source.bind([np.random.default_rng(seed)], config.max_run_seconds)
    source.boot(0)
    return source


def _step_node(source, config, until):
    """Step node 0 from episode time 0 tick by tick, until ``until`` or
    until it crashes.

    Returns the raw rows it sampled and the end time of the crash tick
    (None when it did not crash).
    """
    ids = np.zeros(1, dtype=np.int64)
    walls = np.zeros(1)
    nows = np.zeros(1)
    rows = []
    while nows[0] < until:
        _, _, got, crashed = source.step(ids, walls, nows)
        rows.extend(got)
        nows += config.dt
        if crashed[0]:
            return rows, nows[0]
    return rows, None


class TestNodeStepper:
    """A fleet node stepped tick by tick reproduces the campaign run."""

    SEED = 13

    @pytest.mark.parametrize("engine", ["fused", "loop"])
    @pytest.mark.parametrize("case", sorted(STEPPER_CASES))
    def test_stepped_node_matches_run_once(self, case, engine):
        config, condition = STEPPER_CASES[case]
        if engine == "loop":
            condition = _loop_only(config, condition)
        record = TestbedSimulator(config, condition).run_once(
            np.random.default_rng(self.SEED)
        )
        source = _bound_node(config, condition, self.SEED)
        rows, crash_end = _step_node(source, config, config.max_run_seconds)
        assert np.array(rows).tobytes() == record.features.tobytes()
        if record.metadata["crashed"]:
            assert crash_end == record.fail_time
        else:
            assert crash_end is None

    def test_fd_leak_node_takes_the_loop_episode(self):
        config, _ = STEPPER_CASES["scenario-fd-leak"]
        before = _counter("sim.fused_fallback_total")
        source = _bound_node(config, None, self.SEED)
        _step_node(source, config, 10 * config.dt)
        assert _counter("sim.fused_fallback_total") == before + 1

    def test_skipping_past_an_event_raises(self):
        config = _base()
        source = _bound_node(config, None, self.SEED)
        ids = np.zeros(1, dtype=np.int64)
        source.step(ids, np.zeros(1), np.zeros(1))
        with pytest.raises(RuntimeError, match="passed its pending event"):
            source.step(ids, np.zeros(1), np.full(1, 100.0))

    @pytest.mark.parametrize("engine", ["fused", "loop"])
    def test_abandoned_episode_emits_nothing(self, engine):
        config = _base()
        condition = _loop_only(config, None) if engine == "loop" else None
        obs.reset()
        source = _bound_node(config, condition, self.SEED)
        rows, _ = _step_node(source, config, 100.0)
        assert rows  # the episode was running
        source.boot(0)  # re-boot mid-episode: the old one is dropped
        gc.collect()
        _step_node(source, config, 50.0)
        names = [sp.name for root in get_tracer().roots for sp in root.walk()]
        assert not [n for n in names if n.startswith("simulate.run")]
        assert _counter("sim.runs_total") == 0


class TestRandomConfigs:
    """Hypothesis sweep: no hand-picked matrix blind spots."""

    @given(
        n_browsers=st.integers(min_value=4, max_value=48),
        dt=st.sampled_from([0.25, 0.5, 1.0]),
        sessions=st.booleans(),
        time_inj=st.booleans(),
        lock_inj=st.booleans(),
        sched=st.sampled_from(["full", "half", "step"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_campaign_config(
        self, n_browsers, dt, sessions, time_inj, lock_inj, sched, seed
    ):
        schedule = {
            "full": ConstantLoad(),
            "half": ConstantLoad(0.5),
            "step": StepLoad(breakpoints=(250.0,), fractions=(1.0, 0.3)),
        }[sched]
        config = dataclasses.replace(
            _base(),
            n_browsers=n_browsers,
            dt=dt,
            use_session_chain=sessions,
            use_time_injectors=time_inj,
            use_lock_injector=lock_inj,
            load_schedule=schedule,
            max_run_seconds=900.0,
        )
        loop, fused = _run_both(config, MemoryExhaustion(), seed)
        assert _records_equal(loop, fused)


class TestParallelFanout:
    def test_jobs2_fused_matches_serial_loop(self):
        """The full cross-product guarantee: fused x jobs=2 == loop x serial."""
        base = dataclasses.replace(
            small_campaign(n_runs=4), max_run_seconds=1500.0
        )
        serial_loop = TestbedSimulator(base, _loop_only(base, None)).run_campaign(
            jobs=1
        )
        parallel_fused = TestbedSimulator(base).run_campaign(jobs=2)
        assert len(serial_loop) == len(parallel_fused)
        for a, b in zip(serial_loop.runs, parallel_fused.runs):
            assert _records_equal(a, b)


class TestFallback:
    def test_uncompilable_condition_falls_back_to_loop(self):
        class Custom(FailureCondition):
            def is_failed(self, view):
                return view.state.overflow_kb > 0.5 * view.state.config.swap_kb

        config = _base()
        assert Custom().fused_limits(config.machine) is None
        # a simulator with an uncompilable condition must produce
        # exactly what the loop does
        loop, fused = _run_both(config, Custom(), 13)
        assert _records_equal(loop, fused)

    def test_subclass_does_not_inherit_compilation(self):
        class Stricter(MemoryExhaustion):
            def is_failed(self, view):  # overridden predicate
                return view.state.overflow_kb > 0.0

        config = _base()
        # compiling the subclass from the parent's thresholds would
        # miscompile the overridden predicate: it must refuse
        assert Stricter().fused_limits(config.machine) is None
        loop, fused = _run_both(config, Stricter(), 13)
        assert _records_equal(loop, fused)

    def test_anyof_compiles_to_per_channel_min(self):
        config = _base()
        limits = AnyOf(
            MemoryExhaustion(headroom_frac=0.5),
            MemoryExhaustion(headroom_frac=0.1),
            ResponseTimeLimit(20.0),
        ).fused_limits(config.machine)
        assert limits is not None
        assert limits[0] == config.machine.swap_kb * 0.5  # tighter wins
        assert limits[1] == 20.0
        assert limits[2] == float("inf")

    def test_anyof_with_uncompilable_member_refuses(self):
        class Custom(FailureCondition):
            def is_failed(self, view):
                return False

        config = _base()
        assert (
            AnyOf(MemoryExhaustion(), Custom()).fused_limits(config.machine)
            is None
        )


class TestSubstrateConfig:
    def test_substrate_excluded_from_fingerprint(self):
        """The engine is no part of a cache key: a key written while the
        engine was a config field still hits."""
        base = small_campaign()
        assert fingerprint("campaign", base) == (
            "6569214c65834b2e4c80a42108f9ff806bf14c556a0885a3d19a79a2bcccab1d"
        )
        # ...but content fields still change the key
        other = dataclasses.replace(base, n_browsers=base.n_browsers + 1)
        assert fingerprint("campaign", base) != fingerprint("campaign", other)


class TestDrawPrimitiveIdentities:
    """Micro-checks of the RNG identities the fused engine relies on."""

    def test_cdf_searchsorted_equals_choice(self):
        from repro.system.tpcw import SHOPPING_MIX

        cdf = SHOPPING_MIX.sampling_cdf
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        chosen = a.choice(
            len(SHOPPING_MIX.frequencies), size=64, p=SHOPPING_MIX.probabilities
        )
        manual = cdf.searchsorted(b.random(64), side="right")
        assert np.array_equal(chosen, manual)
        # both consumed the stream identically
        assert a.random() == b.random()

    def test_batched_normal_equals_scalar_sequence(self):
        loc = np.tile(np.array([0.004, 0.001]), 16)
        scale = np.tile(np.array([0.002, 0.001]), 16)
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        batched = a.normal(loc, scale)
        scalars = np.array(
            [b.normal(loc[i], scale[i]) for i in range(loc.size)]
        )
        assert np.array_equal(batched, scalars)

    def test_small_sum_is_sequential_fold(self):
        # np.sum switches to pairwise summation at 8 elements; the fused
        # scalar path is gated on k < 8 for exactly this reason.
        rng = np.random.default_rng(3)
        for k in range(1, 8):
            x = rng.lognormal(size=k)
            acc = 0.0
            for v in x.tolist():
                acc = acc + v
            assert acc == float(x.sum())
