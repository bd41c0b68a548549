"""Tests for the experiment drivers (repro.experiments.*).

Each driver runs on the fast session campaign (not the big default one),
fed the input ``runall`` would give it — the history, or one F2PM
execution of the default configuration on it — so the default cached
campaign is only exercised by the benchmark harness.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import F2PM, LassoFeatureSelector, aggregate_history
from repro.experiments import (
    ext_rejuvenation_sweep,
    fig3_rt_correlation,
    fig4_lasso_path,
    fig5_fitted_models,
    runall,
    table1_weights,
    table2_smae,
    table3_training_time,
    table4_validation_time,
)
from repro.experiments import common
from repro.obs import get_metrics

#: The sweep's managed horizon in these tests (the default is 40,000 s).
SWEEP_HORIZON = 4000.0


@pytest.fixture(scope="module")
def paper_f2pm(history):
    """The F2PM execution ``runall`` shares, on the session campaign."""
    return F2PM(common.default_f2pm_config()).run(history)


class TestFig3Driver:
    def test_run(self, history, capsys):
        result = fig3_rt_correlation.run(history, verbose=True)
        out = capsys.readouterr().out
        assert "Response Time Correlation" in out
        assert result.r2 > 0.3
        assert np.isfinite(result.slope)

    def test_table_rows(self, history):
        result = fig3_rt_correlation.run(history, verbose=False)
        table = result.table(n_rows=5)
        assert table.count("\n") >= 8  # 5 rows + frame


class TestFig4Driver:
    def test_run(self, paper_f2pm, capsys):
        result = fig4_lasso_path.run(paper_f2pm.selector, verbose=True)
        out = capsys.readouterr().out
        assert "Parameters selected by Lasso" in out
        assert result.lambdas.shape == (10,)
        assert (np.diff(result.counts) <= 0).all()


class TestTable1Driver:
    def test_run(self, paper_f2pm, capsys):
        result = table1_weights.run(paper_f2pm.selector, verbose=True)
        out = capsys.readouterr().out
        assert "Table I" in out
        assert result.selection.n_selected >= 1
        assert isinstance(result.memory_dominated, bool)

    def test_min_features_honored(self, paper_f2pm):
        result = table1_weights.run(paper_f2pm.selector, verbose=False, min_features=3)
        assert result.selection.n_selected >= 3


class TestTable2Driver:
    def test_run(self, paper_f2pm, capsys):
        result = table2_smae.run(paper_f2pm, verbose=True)
        out = capsys.readouterr().out
        assert "Soft Mean Absolute Error" in out
        assert result.smae("linear") > 0.0
        assert isinstance(result.tree_models_best, bool)


class TestTable3Driver:
    def test_run(self, paper_f2pm, capsys):
        result = table3_training_time.run(paper_f2pm, verbose=True)
        assert "Training time" in capsys.readouterr().out
        assert result.train_time("m5p") > 0.0


class TestTable4Driver:
    def test_run(self, paper_f2pm, capsys):
        result = table4_validation_time.run(paper_f2pm, verbose=True)
        assert "Validation time" in capsys.readouterr().out
        assert result.all_sub_second


class TestFig5Driver:
    def test_run(self, paper_f2pm, capsys):
        result = fig5_fitted_models.run(paper_f2pm, verbose=True)
        out = capsys.readouterr().out
        assert "prediction error vs distance" in out
        assert "m5p" in result.bins
        bins = result.bins["m5p"]
        assert bins.mae_near >= 0.0


class TestRejuvenationSweepDriver:
    def test_run(self, paper_f2pm, campaign, capsys):
        result = ext_rejuvenation_sweep.run(
            paper_f2pm, verbose=True, horizon_seconds=SWEEP_HORIZON, campaign=campaign
        )
        out = capsys.readouterr().out
        assert "availability vs RTTF margin" in out
        assert 0.0 < result.baseline.availability <= 1.0
        assert set(result.by_margin) == set(ext_rejuvenation_sweep.MARGIN_FACTORS)
        assert result.best_factor in result.by_margin


class TestIncrementalCurveDriver:
    def test_run(self, campaign, capsys):
        from repro.experiments import ext_incremental_curve

        result = ext_incremental_curve.run(
            campaign, verbose=True, batch_runs=2, max_runs=4, target_smae_frac=0.001
        )
        out = capsys.readouterr().out
        assert "Learning curve" in out
        assert len(result.result.trace) == 2


class TestMixComparisonDriver:
    def test_run(self, campaign, capsys):
        from repro.experiments import ext_mix_comparison

        result = ext_mix_comparison.run(campaign, verbose=True, n_runs=3)
        out = capsys.readouterr().out
        assert "workload mixes" in out
        assert set(result.outcomes) == {"browsing", "shopping", "ordering"}
        for outcome in result.outcomes.values():
            assert outcome.mean_ttf > 0
        # the anomaly coupling claim: more Home hits -> earlier crashes
        assert result.home_rate_orders_ttf


def f2pm_runs() -> int:
    return get_metrics().snapshot()["counters"].get("f2pm.runs_total", 0)


def count_calls(monkeypatch, original, owners) -> list:
    """Route every owner's binding of *original* through a call counter."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, original.__name__, counted)
    return calls


def run_quietly(driver, shared, campaign):
    """Run a paper driver without printing; the sweep gets the short
    test horizon on the session campaign's system."""
    if driver is ext_rejuvenation_sweep:
        return driver.run(
            shared, verbose=False, horizon_seconds=SWEEP_HORIZON, campaign=campaign
        )
    return driver.run(shared, verbose=False)


def mask_times(table: str) -> str:
    return re.sub(r"\d+\.\d+(e[-+]\d+)?", "#", table)


class TestSharedExecution:
    def test_each_phase_runs_once(self, history, campaign, monkeypatch):
        """Fed as ``runall`` feeds them, the drivers run F2PM, the Lasso
        path fit and the aggregation once in total."""
        fits = count_calls(monkeypatch, LassoFeatureSelector.fit, [LassoFeatureSelector])
        aggregations = count_calls(
            monkeypatch,
            aggregate_history,
            [
                module
                for module in list(sys.modules.values())
                if getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "aggregate_history", None) is aggregate_history
            ],
        )
        before = f2pm_runs()
        f2pm = F2PM(common.default_f2pm_config()).run(history)
        for driver, shared in runall.paper_drivers(history, f2pm):
            # A driver that ignored its input would refit on this, not
            # on the default campaign.
            monkeypatch.setattr(driver, "default_history", lambda: history)
            run_quietly(driver, shared, campaign)
        assert f2pm_runs() - before == 1
        assert len(fits) == 1
        assert len(aggregations) == 1

    @pytest.mark.parametrize(
        "driver",
        [
            fig4_lasso_path,
            table1_weights,
            table2_smae,
            table3_training_time,
            table4_validation_time,
            fig5_fitted_models,
            ext_rejuvenation_sweep,
        ],
        ids=lambda d: d.__name__.rsplit(".", 1)[-1],
    )
    def test_shared_input_prints_the_standalone_table(
        self, driver, history, paper_f2pm, campaign, monkeypatch
    ):
        shared = dict(runall.paper_drivers(history, paper_f2pm))[driver]
        monkeypatch.setattr(driver, "default_history", lambda: history)
        standalone = run_quietly(driver, None, campaign).table()
        fed = run_quietly(driver, shared, campaign).table()
        if driver in (table3_training_time, table4_validation_time):
            standalone, fed = mask_times(standalone), mask_times(fed)
        assert fed == standalone


class TestCommon:
    def test_campaign_key_stable(self):
        from repro.campaign.stages import history_name
        from repro.experiments.common import DEFAULT_CAMPAIGN

        assert history_name(DEFAULT_CAMPAIGN) == history_name(DEFAULT_CAMPAIGN)

    def test_history_disk_cache_roundtrip(self, tmp_path, monkeypatch, campaign):
        monkeypatch.setenv("F2PM_CACHE_DIR", str(tmp_path))
        h1 = common.default_history(campaign)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        h2 = common.default_history(campaign)  # now loaded from disk
        assert len(h2) == len(h1)
        assert np.array_equal(h2[0].features, h1[0].features)

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_default_runs_is_one_error(self, value, tmp_path):
        repo = Path(__file__).resolve().parents[2]
        env = dict(os.environ, F2PM_DEFAULT_RUNS=value, F2PM_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = f"{repo / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: F2PM_DEFAULT_RUNS must be a positive integer, got {value!r}\n"
        )


class TestF2PMMemoKeying:
    """The in-process F2PM memo this class guarded is gone; the scan
    keeps identity- and repr-derived cache keys out of the source."""

    def test_no_identity_or_repr_cache_keys_in_source(self):
        import repro

        src = Path(repro.__file__).parent
        for py in sorted(src.rglob("*.py")):
            text = py.read_text()
            assert "id(history)" not in text, py
            assert "repr(config)" not in text, py
