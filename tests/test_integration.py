"""End-to-end integration tests: paper shapes on a mid-size campaign.

These run the whole stack — simulator -> aggregation -> selection ->
model zoo -> evaluation — and assert the qualitative findings of the
paper's Sec. IV (the quantities our reproduction is expected to
preserve; see DESIGN.md "shape expectations").
"""

from __future__ import annotations

import ctypes
import sys
import time

import numpy as np
import pytest

from repro.core import (
    AggregationConfig,
    F2PM,
    F2PMConfig,
    LassoFeatureSelector,
    ResponseTimeCorrelator,
    aggregate_history,
)
from repro.ml.base import clone
from repro.system import CampaignConfig, MachineConfig, TestbedSimulator


@pytest.fixture(scope="module")
def campaign_history():
    machine = MachineConfig(
        ram_kb=524_288.0,
        swap_kb=262_144.0,
        os_base_kb=131_072.0,
        app_working_set_kb=65_536.0,
        min_cache_kb=16_384.0,
        shared_kb=8_192.0,
        buffers_kb=4_096.0,
    )
    cfg = CampaignConfig(
        n_runs=10,
        seed=3,
        machine=machine,
        n_browsers=40,
        p_leak_range=(0.3, 0.5),
        leak_kb_range=(1024.0, 4096.0),
        max_run_seconds=3000.0,
    )
    return TestbedSimulator(cfg).run_campaign()


@pytest.fixture(scope="module")
def f2pm_result(campaign_history):
    cfg = F2PMConfig(
        aggregation=AggregationConfig(window_seconds=20.0),
        models=("linear", "m5p", "reptree", "svm2"),
        lasso_predictor_lambdas=(1e0, 1e9),
        seed=0,
    )
    return F2PM(cfg).run(campaign_history)


class TestCampaignRealism:
    def test_all_runs_crash(self, campaign_history):
        assert all(r.metadata["crashed"] == 1.0 for r in campaign_history)

    def test_run_lengths_vary(self, campaign_history):
        lengths = np.array([r.fail_time for r in campaign_history])
        assert lengths.std() / lengths.mean() > 0.1


class TestFig3Shape:
    def test_correlation_holds_on_every_run(self, campaign_history):
        for run in campaign_history:
            series = ResponseTimeCorrelator().fit_run(run)
            assert series.r2 > 0.4, "gen-time/RT correlation collapsed"

    def test_both_series_grow_toward_failure(self, campaign_history):
        series = ResponseTimeCorrelator().fit_run(campaign_history[0])
        k = series.time.size // 4
        assert series.generation_time[-k:].mean() > 1.5 * series.generation_time[:k].mean()
        assert series.response_time[-k:].mean() > 1.5 * series.response_time[:k].mean()


class TestFig4Shape:
    def test_selection_count_non_increasing(self, campaign_history):
        ds = aggregate_history(campaign_history, AggregationConfig(window_seconds=20.0))
        sel = LassoFeatureSelector().fit(ds)
        counts = np.array([c for _, c in sel.selection_counts()])
        assert (np.diff(counts) <= 0).all()
        assert counts[0] > counts[-1]
        assert counts[0] >= 10  # weak penalty keeps a large set

    def test_strongest_selection_memory_dominated(self, campaign_history):
        """Table I shape: memory/swap features and slopes survive."""
        ds = aggregate_history(campaign_history, AggregationConfig(window_seconds=20.0))
        sel = LassoFeatureSelector().fit(ds)
        strongest = sel.strongest_with_at_least(6)
        memoryish = [
            n for n in strongest.selected if "mem_" in n or "swap_" in n
        ]
        assert len(memoryish) * 2 >= len(strongest.selected)
        assert any(n.endswith("_slope") for n in strongest.selected)


class TestTable2Shape:
    def test_trees_beat_linear_family(self, f2pm_result):
        trees = min(
            f2pm_result.report("m5p", "all").s_mae,
            f2pm_result.report("reptree", "all").s_mae,
        )
        linear_family = min(
            f2pm_result.report("linear", "all").s_mae,
            f2pm_result.report("svm2", "all").s_mae,
        )
        assert trees < linear_family

    def test_lssvm_clusters_with_linear(self, f2pm_result):
        """WEKA's linear-kernel default makes SVM ~ Linear Regression."""
        lin = f2pm_result.report("linear", "all").s_mae
        svm2 = f2pm_result.report("svm2", "all").s_mae
        assert svm2 == pytest.approx(lin, rel=0.35)

    def test_lasso_predictor_worst_and_flat(self, f2pm_result):
        worst = f2pm_result.report("lasso(1e9)", "all").s_mae
        for name in ("linear", "m5p", "reptree", "svm2"):
            assert worst > f2pm_result.report(name, "all").s_mae
        # flat: the high-lambda entries barely move with lambda
        low = f2pm_result.report("lasso(1e0)", "all").s_mae
        assert low <= worst


def _openblas_threads() -> "int | None":
    """Threads of the OpenBLAS numpy loaded, read from the library."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _min_fit_seconds(model, X, y, k: int = 5) -> float:
    best = float("inf")
    for _ in range(k):
        fresh = clone(model)
        t0 = time.perf_counter()
        fresh.fit(X, y)
        best = min(best, time.perf_counter() - t0)
    return best


class TestTable3Shape:
    def test_blas_pinned_for_the_session(self):
        """tests/conftest.py pins BLAS to one thread before numpy loads."""
        if not sys.platform.startswith("linux"):
            pytest.skip("reads the loaded libraries from /proc/self/maps")
        threads = _openblas_threads()
        if threads is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        assert threads == 1

    def test_selection_never_slows_training_much(self, f2pm_result):
        # The minimum of k refits: a single sub-millisecond sample can
        # carry a scheduler or thread-pool stall many times its length.
        ds = f2pm_result.dataset
        sel = ds.select_features(f2pm_result.selection.selected)
        for name in ("linear", "m5p", "reptree"):
            model = f2pm_result.models[(name, "all")]
            t_all = _min_fit_seconds(model, ds.X, ds.y)
            t_sel = _min_fit_seconds(model, sel.X, sel.y)
            assert t_sel <= t_all * 1.5  # wall-clock noise tolerance

    def test_tree_training_slower_than_linear(self, f2pm_result):
        assert (
            f2pm_result.report("m5p", "all").train_time
            > f2pm_result.report("linear", "all").train_time
        )


class TestTable4Shape:
    def test_validation_subsecond(self, f2pm_result):
        for r in f2pm_result.reports:
            assert r.validation_time < 1.0


class TestFig5Shape:
    @pytest.mark.parametrize("name", ["linear", "m5p", "reptree", "svm2"])
    def test_error_smaller_near_failure(self, f2pm_result, name):
        y = f2pm_result.y_validation
        pred = f2pm_result.predictions[(name, "all")]
        edges = np.quantile(y, [1 / 3, 2 / 3])
        near = np.abs(pred - y)[y <= edges[0]].mean()
        far = np.abs(pred - y)[y > edges[1]].mean()
        assert near < far

    def test_models_underpredict_far_from_failure(self, f2pm_result):
        """Throughput collapse delays the crash: signed error far from
        failure is negative for the linear-family models (paper Sec. IV-B)."""
        y = f2pm_result.y_validation
        edges = np.quantile(y, 2 / 3)
        signed = []
        for name in ("linear", "svm2"):
            pred = f2pm_result.predictions[(name, "all")]
            signed.append((pred - y)[y > edges].mean())
        assert min(signed) < 0


class TestSVMIntegration:
    def test_svm_trains_and_clusters_with_linear(self, campaign_history):
        """One full SMO run on campaign data (subsampled for speed)."""
        cfg = F2PMConfig(
            aggregation=AggregationConfig(window_seconds=60.0),
            models=("linear", "svm"),
            lasso_predictor_lambdas=(),
            seed=0,
        )
        res = F2PM(cfg).run(campaign_history)
        lin = res.report("linear", "all").s_mae
        svm = res.report("svm", "all").s_mae
        assert svm == pytest.approx(lin, rel=0.5)
        # and the SMO training cost dwarfs the closed-form solve
        assert (
            res.report("svm", "all").train_time
            > 10.0 * res.report("linear", "all").train_time
        )
