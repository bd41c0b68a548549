"""Solver caps are visible: ``converged_``, the capped counters and the
"(capped)" marks of Fig. 4 and Tables I and III."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core import F2PM, F2PMConfig, LassoFeatureSelector
from repro.experiments.fig4_lasso_path import Fig4Result
from repro.experiments.table1_weights import Table1Result
from repro.ml.base import solver_converged
from repro.ml.lasso import Lasso, lasso_path
from repro.ml.pipeline import ScaledModel
from repro.ml.svr import SVR


def _capped(name: str) -> float:
    return obs.get_metrics().snapshot()["counters"].get(f"ml.solver_capped_total.{name}", 0.0)


@pytest.fixture
def fresh_metrics():
    obs.reset()
    yield
    obs.reset()


class TestLasso:
    def test_uncapped_fit_converges(self, linear_data, fresh_metrics):
        X, y = linear_data
        m = Lasso(lam=0.01).fit(X, y)
        assert m.converged_ and solver_converged(m)
        assert _capped("lasso") == 0.0

    def test_knot_cap_is_reported_and_counted(self, linear_data, fresh_metrics):
        X, y = linear_data
        m = Lasso(lam=0.01, max_iter=1).fit(X, y)
        assert m.n_iter_ == 1 and not m.converged_
        assert solver_converged(ScaledModel(Lasso()).fit(X, y))
        assert _capped("lasso") == 1.0

    def test_capped_path_flags_only_lambdas_below_the_stop(self, linear_data):
        X, y = linear_data
        lambdas = np.array([1e6, 1e-3])
        path = lasso_path(X, y, lambdas, max_iter=1)
        assert path.converged.tolist() == [True, False]
        assert not path.coefs[0].any()

    def test_zero_solution_needs_no_knot(self, linear_data):
        X, y = linear_data
        m = Lasso(lam=1e9, max_iter=0).fit(X, y)
        assert m.converged_ and m.n_iter_ == 0 and not m.coef_.any()


class TestSVR:
    def test_iteration_cap_is_reported_and_counted(self, linear_data, fresh_metrics):
        X, y = linear_data
        m = SVR(kernel="linear", max_iter=5).fit(X, y)
        assert m.n_iter_ == 5 and not m.converged_
        assert not solver_converged(ScaledModel(SVR(kernel="linear", max_iter=5)).fit(X, y))
        assert _capped("svr") == 2.0

    def test_converged_fit(self, linear_data, fresh_metrics):
        X, y = linear_data
        m = SVR(kernel="linear", C=1.0, epsilon=0.5).fit(X[:80], y[:80])
        assert m.converged_ and m.n_iter_ < m.max_iter
        assert _capped("svr") == 0.0

    def test_models_pickled_without_the_flag_count_as_converged(self, linear_data):
        X, y = linear_data
        m = SVR(kernel="linear", max_iter=5).fit(X, y)
        del m.converged_  # as pickled before the flag existed
        old = pickle.loads(pickle.dumps(ScaledModel(SVR()).fit(X[:40], y[:40])))
        del old.inner_.converged_
        assert solver_converged(m) and solver_converged(old)


class TestMarks:
    def test_table3_marks_capped_fits(self, history):
        cfg = F2PMConfig(models=("linear",), lasso_predictor_lambdas=(), seed=0)
        result = F2PM(cfg).run(history)
        assert "(capped)" not in result.training_time_table()
        result.reports[0] = replace(result.reports[0], capped=True)
        table = result.training_time_table()
        assert table.count("(capped)") == 1
        assert "(capped)" not in result.smae_table()
        assert result.manifest()["reports"][0]["capped"] is True

    def test_fig4_and_table1_mark_capped_lambdas(self, dataset):
        selector = LassoFeatureSelector(max_iter=2).fit(dataset)
        flags = [r.converged for r in selector.results_]
        assert flags[-1] and not flags[0]  # large lambdas precede the stop
        counts = [r.n_selected for r in selector.results_]
        fig4 = Fig4Result(np.array(selector.lambda_grid), np.array(counts), selector)
        assert fig4.table().count("(capped)") == flags.count(False)
        capped = min(
            (r for r in selector.results_ if not r.converged), key=lambda r: r.lam
        )
        table1 = Table1Result(selection=capped, audit=selector.audit_)
        assert "(capped)" in table1.table()
