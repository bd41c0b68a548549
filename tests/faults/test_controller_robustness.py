"""The rejuvenation control loop under telemetry faults.

The live loop must (a) behave bit-identically on clean streams whether
or not the robustness harness is plugged in, (b) survive every fault
preset without crashing, and (c) fall back to hold-last-prediction when
the monitor stream goes stale instead of going blind.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.sanitize import SanitizeConfig
from repro.faults import FaultProfile
from repro.obs import get_metrics
from repro.rejuvenation import (
    ManagedSystem,
    ManagedSystemConfig,
    PeriodicRejuvenation,
)
from tests.conftest import small_campaign
from tests.rejuvenation.control_reference import StreamSanitizer


def managed_config(**kwargs):
    defaults = dict(horizon_seconds=4000.0, window_seconds=20.0)
    defaults.update(kwargs)
    return ManagedSystemConfig(**defaults)


def episodes_key(log):
    return [(e.start, e.end, e.outcome) for e in log.episodes]


class TestCleanIdentity:
    def test_harness_args_do_not_change_clean_runs(self):
        campaign = small_campaign(n_runs=2)
        mcfg = managed_config()
        plain = ManagedSystem(campaign, mcfg, PeriodicRejuvenation(400.0)).run(seed=1)
        armed = ManagedSystem(
            campaign,
            mcfg,
            PeriodicRejuvenation(400.0),
            fault_profile=None,
            sanitize_config=SanitizeConfig(),
        ).run(seed=1)
        assert episodes_key(plain) == episodes_key(armed)
        assert plain.availability == armed.availability

    def test_staleness_timeout_validation(self):
        with pytest.raises(ValueError, match="staleness"):
            ManagedSystemConfig(staleness_timeout=0.0)
        assert managed_config().resolved_staleness_timeout == 100.0
        assert managed_config(staleness_timeout=7.0).resolved_staleness_timeout == 7.0


class TestFaultedRuns:
    @pytest.mark.parametrize(
        "spec", ["nan=0.1", "ooo=0.1", "dup=0.05", "scale=0.02", "nan=0.1,ooo=0.1,dup=0.05"]
    )
    def test_controller_survives_faulted_stream(self, spec):
        campaign = small_campaign(n_runs=2)
        log = ManagedSystem(
            campaign,
            managed_config(),
            PeriodicRejuvenation(400.0),
            fault_profile=FaultProfile.from_spec(spec),
        ).run(seed=1)
        assert log.episodes
        assert 0.0 < log.availability <= 1.0
        total = log.total_uptime + log.total_downtime
        assert total == pytest.approx(4000.0, abs=1e-6)

    def test_faulted_run_is_deterministic(self):
        campaign = small_campaign(n_runs=2)
        profile = FaultProfile.from_spec("nan=0.1,ooo=0.1")
        a = ManagedSystem(
            campaign, managed_config(), PeriodicRejuvenation(400.0), fault_profile=profile
        ).run(seed=5)
        b = ManagedSystem(
            campaign, managed_config(), PeriodicRejuvenation(400.0), fault_profile=profile
        ).run(seed=5)
        assert episodes_key(a) == episodes_key(b)

    def test_heavy_dropout_triggers_hold_last_prediction(self):
        # nan=0.25 per cell drops ~98% of rows: after the first window
        # completes, completions starve for far longer than the 100s
        # staleness timeout while samples keep arriving — the hold-last-
        # window fallback must kick in. The long periodic interval keeps
        # the (now tick-evaluated) time trigger from ending episodes
        # before a window ever completes.
        obs.reset()
        campaign = small_campaign(n_runs=2)
        log = ManagedSystem(
            campaign,
            managed_config(),
            PeriodicRejuvenation(1500.0),
            fault_profile=FaultProfile.from_spec("nan=0.25"),
        ).run(seed=1)
        assert log.episodes
        holds = get_metrics().snapshot()["counters"].get(
            "fleet.stale_holds_total", 0
        )
        assert holds >= 1


class TestStreamSanitizer:
    def _row(self, tgen, fill=1.0):
        row = np.full(15, fill)
        row[0] = tgen
        return row

    def test_drops_non_finite_rows(self):
        s = StreamSanitizer()
        bad = self._row(1.0)
        bad[3] = np.nan
        decision = s.process(bad)
        assert decision.dropped and decision.row is None
        assert s.dropped_total == 1

    def test_passes_clean_rows_unchanged(self):
        s = StreamSanitizer()
        row = self._row(2.5)
        decision = s.process(row)
        assert not decision.dropped
        np.testing.assert_array_equal(decision.row, row)

    def test_rebases_clock_reset(self):
        s = StreamSanitizer()
        for t in np.arange(1.0, 50.0, 1.0):
            s.process(self._row(t))
        decision = s.process(self._row(2.0))  # clock jumped back
        assert decision.reset
        assert decision.row[0] > 49.0  # re-based onto the monotone clock
        assert s.resets_total == 1
        follow = s.process(self._row(3.0))
        assert follow.row[0] > decision.row[0]

    def test_reset_clears_state(self):
        s = StreamSanitizer()
        for t in (1.0, 2.0, 3.0):
            s.process(self._row(t))
        s.reset()
        decision = s.process(self._row(1.0))
        assert not decision.reset
        np.testing.assert_array_equal(decision.row, self._row(1.0))
