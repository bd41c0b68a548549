"""The scenario catalog's smoke battery (ISSUE acceptance grid).

Every preset in :data:`repro.scenarios.SCENARIOS` must (a) resolve to a
runnable ``CampaignConfig``, (b) simulate bit-identically on the engine
its failure condition picks and on the loop oracle (the fused engine, or
its declared loop-fallback counted by ``sim.fused_fallback_total``), (c) survive the ``repro.faults``
corruption battery in repair mode, (d) ride a ``CampaignSpec``
``scenario`` axis with a stable, golden-pinned fingerprint so cached
cells never re-simulate, and (e) reproduce its campaign run as the first
episode of a managed controller.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CampaignManager, CampaignSpec
from repro.core import aggregate_history
from repro.core.sanitize import sanitize_history
from repro.faults import FaultProfile
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.store.keys import fingerprint
from repro.system import TestbedSimulator
from repro.system.tpcw import SHOPPING_MIX
from repro.obs import get_metrics
from repro.rejuvenation import ManagedSystem, ManagedSystemConfig, NoRejuvenation
from repro.system import CampaignConfig
from repro.utils.rng import as_rng

from tests.conftest import small_campaign
from tests.system.test_substrate_equivalence import _records_equal, _run_both

GOLDEN_FINGERPRINT = Path(__file__).parent / "scenario_spec_fingerprint.txt"


def _short_base():
    # Bit-identity needs no crash: a 1200 s horizon keeps the full
    # catalog sweep fast while still crossing schedule/injector events.
    return dataclasses.replace(small_campaign(), max_run_seconds=1200.0)


class TestCatalog:
    def test_catalog_floor(self):
        """The ISSUE floor: >= 8 presets, >= 3 new anomaly families."""
        assert len(SCENARIOS) >= 8
        anomalies = {s.anomaly for s in SCENARIOS.values()}
        assert {"fd/socket leak", "connection-pool depletion",
                "heap fragmentation"} <= anomalies
        profiles = {s.profile for s in SCENARIOS.values()}
        assert len(profiles) >= 3
        schedules = {s.schedule for s in SCENARIOS.values()}
        assert {"diurnal", "flash-crowd"} <= schedules

    def test_names_are_keys_and_sorted_accessor(self):
        assert all(name == s.name for name, s in SCENARIOS.items())
        assert scenario_names() == tuple(sorted(SCENARIOS))
        assert all(s.description for s in SCENARIOS.values())

    def test_get_scenario_unknown_is_one_line_error(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            get_scenario("nope")

    def test_scenario_rejects_unknown_override(self):
        with pytest.raises(ValueError, match="unknown CampaignConfig"):
            Scenario(
                name="x", description="d", workload="w", schedule="s",
                profile="p", anomaly="a", overrides={"not_a_field": 1},
            )

    @pytest.mark.parametrize("reserved", ["seed", "n_runs"])
    def test_scenario_rejects_reserved_override(self, reserved):
        with pytest.raises(ValueError, match=reserved):
            Scenario(
                name="x", description="d", workload="w", schedule="s",
                profile="p", anomaly="a", overrides={reserved: 1},
            )

    def test_apply_keeps_caller_fields(self):
        base = small_campaign(n_runs=11, seed=99)
        for name in SCENARIOS:
            resolved = resolve_scenario(name, base)
            assert resolved.n_runs == 11
            assert resolved.seed == 99

    def test_scenario_aliases_handwritten_config(self):
        """A scenario resolves to the *same* cache key as the equivalent
        hand-written config — old store entries stay valid."""
        base = small_campaign()
        resolved = resolve_scenario("baseline-shopping", base)
        handwritten = dataclasses.replace(base, mix=SHOPPING_MIX)
        assert fingerprint("campaign", resolved) == fingerprint(
            "campaign", handwritten
        )


class TestPresetBitIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fused_matches_loop(self, name):
        config = resolve_scenario(name, _short_base())
        for seed in (13, 123):
            loop, fused = _run_both(config, None, seed)
            assert _records_equal(loop, fused), f"{name} diverged (seed {seed})"

    def test_fd_leak_counts_loop_fallback(self):
        """`fd` has no threshold form: the run must fall back to the loop
        and say so in ``sim.fused_fallback_total``."""
        config = resolve_scenario("fd-leak", _short_base())
        metrics = get_metrics()

        def fallbacks():
            return (
                metrics.snapshot()["counters"].get("sim.fused_fallback_total", 0)
            )

        before = fallbacks()
        TestbedSimulator(config).run_once(13)
        assert fallbacks() == before + 1

    def test_threshold_scenarios_stay_fused(self):
        config = resolve_scenario("lock-contention", _short_base())
        metrics = get_metrics()
        before = metrics.snapshot()["counters"].get("sim.fused_fallback_total", 0)
        TestbedSimulator(config).run_once(13)
        after = metrics.snapshot()["counters"].get("sim.fused_fallback_total", 0)
        assert after == before


class TestControllerFirstEpisode:
    """A managed node boots like a campaign run: its four component
    streams, then the injector stream when an injector is on, are the
    streams ``run_once`` spawns, so with no policy and no faults the
    first episode is that run, crash time and all."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_first_episode_is_the_campaign_run(self, name):
        config = resolve_scenario(name, CampaignConfig(n_runs=1, seed=3))
        record = TestbedSimulator(config).run_once(as_rng(11))
        assert record.metadata["crashed"]
        log = ManagedSystem(
            config,
            ManagedSystemConfig(horizon_seconds=record.fail_time + 1.0),
            NoRejuvenation(),
        ).run(seed=as_rng(11))
        first = log.episodes[0]
        assert first.outcome == "crash"
        assert first.end - first.start == record.fail_time


class TestFaultsBattery:
    """Scenario telemetry through the corruption->repair gauntlet."""

    @pytest.fixture(scope="class")
    def history(self):
        # memory-leak-storm crashes quickly at the full horizon, so the
        # repaired set keeps positive RTTF labels.
        config = resolve_scenario(
            "memory-leak-storm", small_campaign(n_runs=3)
        )
        config = dataclasses.replace(config, max_run_seconds=20_000.0)
        return TestbedSimulator(config).run_campaign()

    def test_scenario_runs_crash(self, history):
        assert all(r.metadata["crashed"] == 1.0 for r in history)

    def test_storm_corruption_repairs_to_training_set(self, history):
        dirty = FaultProfile.preset("storm").apply_history(history, seed=7)
        fixed, report = sanitize_history(dirty, policy="repair")
        assert not report.clean
        dataset = aggregate_history(fixed)
        assert dataset.n_samples > 0
        assert np.isfinite(dataset.X).all()
        assert np.isfinite(dataset.y).all()
        assert (dataset.y > 0).all()

    def test_clean_scenario_history_passes_strict(self, history):
        clean, report = sanitize_history(history, policy="strict")
        assert report.clean
        for a, b in zip(clean, history):
            assert a is b


class TestScenarioAxis:
    """`scenario` as a CampaignSpec axis: coercion, round-trip, caching."""

    def _spec(self):
        return CampaignSpec(
            name="scenario-smoke",
            base=small_campaign(n_runs=1),
            axes={"scenario": ("lock-contention", "memory-leak-storm")},
            stages=("simulate",),
        )

    def test_cells_resolve_preset_overrides(self):
        cells = self._spec().cells()
        assert len(cells) == 2
        by_name = {dict(c.params)["scenario"]: c for c in cells}
        assert by_name["lock-contention"].config.use_lock_injector
        assert by_name["lock-contention"].config.failure == "rt>10"
        assert by_name["memory-leak-storm"].config.use_time_injectors
        assert by_name["memory-leak-storm"].config.machine.ram_kb != (
            self._spec().base.machine.ram_kb
        )

    def test_unknown_scenario_axis_value_fails_at_enumeration(self):
        spec = CampaignSpec(
            base=small_campaign(n_runs=1), axes={"scenario": ("bogus",)}
        )
        with pytest.raises(ValueError, match="unknown scenario"):
            spec.cells()

    def test_explicit_axis_wins_over_preset(self):
        spec = CampaignSpec(
            base=small_campaign(n_runs=1),
            axes={
                "scenario": ("lock-contention",),
                "failure": ("rt>20",),
            },
        )
        (cell,) = spec.cells()
        assert cell.config.failure == "rt>20"  # explicit beats preset
        assert cell.config.use_lock_injector  # preset still applied

    def test_json_round_trip_preserves_fingerprint(self, tmp_path):
        spec = self._spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        loaded = CampaignSpec.from_json_file(path)
        assert loaded.fingerprint == spec.fingerprint
        assert [c.fingerprint for c in loaded.cells()] == [
            c.fingerprint for c in spec.cells()
        ]
        assert [dict(c.params)["scenario"] for c in loaded.cells()] == [
            "lock-contention",
            "memory-leak-storm",
        ]

    def test_profile_and_schedule_coercion_round_trip(self):
        doc = {
            "name": "coercion",
            "base": {
                "machine": "small-vm",
                "load_schedule": {
                    "type": "flash-crowd",
                    "base": 0.4,
                    "peak": 1.0,
                    "start": 300.0,
                    "ramp": 30.0,
                    "hold": 150.0,
                    "decay": 60.0,
                },
            },
            "stages": ["simulate"],
        }
        spec = CampaignSpec.from_dict(doc)
        assert spec.base.machine.ram_kb == 1_048_576.0
        assert spec.base.load_schedule.peak == 1.0
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.fingerprint == spec.fingerprint
        assert spec.to_dict()["base"]["machine"] == "small-vm"
        assert spec.to_dict()["base"]["load_schedule"]["type"] == "flash-crowd"

    def test_spec_fingerprint_matches_golden(self):
        """Catalog/spec stability pin: if this moves, every cached
        scenario cell re-simulates — bump the golden file only for a
        deliberate format break."""
        spec = CampaignSpec(
            name="golden",
            base=small_campaign(n_runs=2, seed=5),
            axes={"scenario": tuple(sorted(SCENARIOS))},
            stages=("simulate", "aggregate"),
            window_seconds=30.0,
        )
        assert spec.fingerprint == GOLDEN_FINGERPRINT.read_text().strip()

    def test_campaign_manager_runs_scenario_cells(self):
        spec = CampaignSpec(
            name="manager-smoke",
            base=dataclasses.replace(
                small_campaign(n_runs=1), max_run_seconds=600.0
            ),
            axes={"scenario": ("heap-fragmentation", "conn-pool-exhaustion")},
            stages=("simulate",),
        )
        result = CampaignManager(spec, None).run()
        assert result.cells_failed == 0
        assert len(result.outcomes) == 2
        for outcome in result.outcomes:
            history = outcome.results["simulate"]
            assert len(history) == 1
