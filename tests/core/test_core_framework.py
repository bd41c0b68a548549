"""Tests for the F2PM orchestrator (repro.core.framework)."""

import numpy as np
import pytest

from repro.core import F2PM, F2PMConfig
from repro.core.aggregation import AggregationConfig


@pytest.fixture(scope="module")
def history_module(request):
    # reuse the session-scoped campaign fixture under a module-local name
    return request.getfixturevalue("history")


@pytest.fixture(scope="module")
def result(history_module):
    cfg = F2PMConfig(
        aggregation=AggregationConfig(window_seconds=30.0),
        models=("linear", "m5p", "reptree"),  # skip slow SVMs in unit tests
        lasso_predictor_lambdas=(1.0, 1e9),
        seed=0,
    )
    return F2PM(cfg).run(history_module)


class TestF2PMRun:
    def test_reports_for_all_jobs_and_sets(self, result):
        names = {r.name for r in result.reports}
        assert {"linear", "m5p", "reptree", "lasso(1e0)", "lasso(1e9)"} == names
        for name in names:
            assert result.report(name, "all") is not None
            assert result.report(name, "selected") is not None

    def test_selected_set_smaller(self, result):
        all_d = result.report("linear", "all").n_features
        sel_d = result.report("linear", "selected").n_features
        assert sel_d < all_d
        assert sel_d == result.selection.n_selected

    def test_smae_threshold_is_10pct_of_mean_run(self, result, history_module):
        assert result.smae_threshold == pytest.approx(
            0.1 * history_module.mean_run_length
        )

    def test_predictions_align_with_validation(self, result):
        n_val = result.y_validation.shape[0]
        for key, pred in result.predictions.items():
            assert pred.shape == (n_val,)

    def test_best_by_smae_is_minimum(self, result):
        best = result.best_by_smae("all")
        others = [r.s_mae for r in result.reports if r.feature_set == "all"]
        assert best.s_mae == min(others)

    def test_unknown_report_raises(self, result):
        with pytest.raises(KeyError):
            result.report("nope")

    def test_tables_render(self, result):
        assert "Soft Mean Absolute Error" in result.smae_table()
        assert "Training time" in result.training_time_table()
        assert "Validation time" in result.validation_time_table()
        assert "F2PM model comparison" in result.comparison_table()
        # every model appears in the two-column tables
        assert "reptree" in result.smae_table()

    def test_manifest_carries_design_audit(self, result):
        design = result.manifest()["design"]
        assert design == result.audit.to_dict()
        assert design["rank"] + len(design["dependencies"]) == design["n_features"]

    def test_lasso_predictor_same_both_feature_sets(self, result):
        # the Lasso-as-predictor is feature-selection-invariant in the
        # paper's Table II (identical columns); ours trains on each set,
        # but the high-lambda model degenerates to the target mean either
        # way, so S-MAE matches
        a = result.report("lasso(1e9)", "all").s_mae
        b = result.report("lasso(1e9)", "selected").s_mae
        assert a == pytest.approx(b, rel=0.01)

    def test_explicit_selection_lambda(self, history_module):
        cfg = F2PMConfig(
            aggregation=AggregationConfig(window_seconds=30.0),
            models=("linear",),
            lasso_predictor_lambdas=(),
            selection_lambda=1.0,
        )
        res = F2PM(cfg).run(history_module)
        assert res.selection.lam == pytest.approx(1.0)

    def test_trees_competitive_with_linear(self, result):
        """On the tiny unit-test campaign the trees must at least be in
        the same league as OLS; the strict paper ordering (trees win) is
        asserted on the full campaign by the integration tests."""
        trees = min(
            result.report("reptree", "all").s_mae,
            result.report("m5p", "all").s_mae,
        )
        assert trees < 1.5 * result.report("linear", "all").s_mae

    def test_lasso_predictor_worst(self, result):
        lasso = result.report("lasso(1e9)", "all").s_mae
        for name in ("linear", "m5p", "reptree"):
            assert lasso > result.report(name, "all").s_mae

    def test_split_by_run_keeps_runs_whole(self, history_module):
        cfg = F2PMConfig(
            aggregation=AggregationConfig(window_seconds=30.0),
            models=("linear",),
            lasso_predictor_lambdas=(),
            split_by_run=True,
            seed=0,
        )
        res = F2PM(cfg).run(history_module)
        # run-wise validation: the leakage-free protocol typically shows
        # a higher error than row-wise shuffling, but must stay usable
        assert res.report("linear").mae > 0.0
        assert res.y_validation.size > 0

    def test_deterministic_errors(self, history_module):
        cfg = F2PMConfig(
            aggregation=AggregationConfig(window_seconds=30.0),
            models=("linear",),
            lasso_predictor_lambdas=(),
            seed=3,
        )
        r1 = F2PM(cfg).run(history_module)
        r2 = F2PM(cfg).run(history_module)
        assert r1.report("linear").mae == r2.report("linear").mae
