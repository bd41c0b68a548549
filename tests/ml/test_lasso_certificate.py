"""KKT certificate battery for the LARS-Lasso selection path.

Every check here is independent of the solver: it recomputes the
correlations ``c = Xc'(yc - Xc beta)`` from the data and tests the
optimality conditions of paper Eq. 2 on *all* columns at every grid
lambda — ``c_k = (n lambda / 2) sign(beta_k)`` where ``beta_k != 0`` and
``|c_k| <= n lambda / 2`` elsewhere. The tolerance is fixed from float64
before looking at any answer: rounding in ``c_k`` is a few ulps of
``||x_k - mean_k|| * ||y - mean_y||`` (Cauchy-Schwarz bounds every term),
so ``KKT_TOL`` of that scale leaves room for thousands of ulps and none
for a solver stopped near the optimum.

Inputs: the session dataset, the benchmark's pinned paper corpus
(whose selection and selected-set SVM fit are pinned too) and
hypothesis problems with planted exact dependencies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggregationConfig, LassoFeatureSelector, aggregate_history
from repro.core.feature_selection import DesignAudit, default_lambda_grid
from repro.core.model_zoo import make_model
from repro.core.framework import F2PMConfig
from repro.ml.lasso import lasso_path, span_audit
from repro.system import CampaignConfig, TestbedSimulator
from repro.utils.rng import as_rng
from tests.ml.lasso_reference import reference_path

KKT_TOL = 1e-12
#: The objective may exceed a converged reference's by rounding only.
OBJECTIVE_SLACK = 1e-12


def kkt_violation(X: np.ndarray, y: np.ndarray, coef: np.ndarray, lam: float) -> np.ndarray:
    """Per-column KKT violation of *coef* at *lam*, in units of
    ``||x_k - mean_k|| * ||y - mean_y||``."""
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    c = Xc.T @ (yc - Xc @ coef)
    g = 0.5 * X.shape[0] * lam
    viol = np.where(
        coef != 0.0, np.abs(c - g * np.sign(coef)), np.maximum(np.abs(c) - g, 0.0)
    )
    scale = np.linalg.norm(Xc, axis=0) * np.linalg.norm(yc)
    return np.where(scale > 0.0, viol / np.where(scale > 0.0, scale, 1.0), viol)


def objective(X: np.ndarray, y: np.ndarray, coef: np.ndarray, lam: float) -> float:
    Xc = X - X.mean(axis=0)
    r = (y - y.mean()) - Xc @ coef
    return float(r @ r / X.shape[0] + lam * np.abs(coef).sum())


def assert_certified(X, y, lambdas, coefs):
    for lam, coef in zip(lambdas, coefs):
        worst = kkt_violation(X, y, coef, lam).max()
        assert worst <= KKT_TOL, f"KKT violated by {worst:.3e} at lambda {lam:g}"


def assert_not_worse_than_reference(X, y, lambdas, coefs, max_iter=2000):
    ref, converged = reference_path(X, y, lambdas, max_iter=max_iter, tol=1e-10)
    for lam, coef, rcoef, ok in zip(lambdas, coefs, ref, converged):
        if not ok:
            continue
        mine, theirs = objective(X, y, coef, lam), objective(X, y, rcoef, lam)
        assert mine <= theirs + OBJECTIVE_SLACK * abs(theirs), (lam, mine, theirs)


def relative_grid(X: np.ndarray, y: np.ndarray, decades: float = 6.0) -> np.ndarray:
    """Eight lambdas from just above the all-zero point down *decades*."""
    Xc = X - X.mean(axis=0)
    lam_max = 2.0 / X.shape[0] * np.abs(Xc.T @ (y - y.mean())).max()
    return max(lam_max, 1e-12) * np.logspace(0.5, -decades, 8)


# -- the session dataset -----------------------------------------------------------


class TestSessionDataset:
    def test_kkt_on_every_column_at_every_grid_lambda(self, dataset):
        lambdas = default_lambda_grid()
        path = lasso_path(dataset.X, dataset.y, lambdas, max_iter=2000)
        assert path.converged.all()
        assert_certified(dataset.X, dataset.y, lambdas, path.coefs)

    def test_objective_not_worse_than_converged_reference(self, dataset):
        lambdas = default_lambda_grid()
        coefs = lasso_path(dataset.X, dataset.y, lambdas, max_iter=2000).coefs
        assert_not_worse_than_reference(dataset.X, dataset.y, lambdas, coefs)

    def test_finer_grid_certified(self, dataset):
        lambdas = np.logspace(-2, 9, 45)
        assert_certified(
            dataset.X, dataset.y, lambdas, lasso_path(dataset.X, dataset.y, lambdas).coefs
        )


# -- the benchmark's pinned paper corpus -------------------------------------------

#: ``e2ebench``'s paper-pipeline corpus: ``PAPER_CORPUS`` aggregated with
#: the default F2PM configuration of the experiment drivers.
PAPER_CORPUS = CampaignConfig(n_runs=10, seed=7)
PAPER_SELECTED = (
    "tgen", "n_threads", "mem_used", "swap_used", "mem_used_slope", "swap_used_slope",
)


@pytest.fixture(scope="module")
def paper_dataset():
    history = TestbedSimulator(PAPER_CORPUS).run_campaign()
    return aggregate_history(history, AggregationConfig(window_seconds=30.0))


class TestPaperCorpus:
    def test_shape(self, paper_dataset):
        assert paper_dataset.X.shape == (1152, 30)

    def test_kkt_and_objective(self, paper_dataset):
        X, y = paper_dataset.X, paper_dataset.y
        lambdas = default_lambda_grid()
        path = lasso_path(X, y, lambdas, max_iter=2000)
        assert path.converged.all()
        assert_certified(X, y, lambdas, path.coefs)
        assert_not_worse_than_reference(X, y, lambdas, path.coefs)

    def test_operating_point_selects_six(self, paper_dataset):
        selector = LassoFeatureSelector().fit(paper_dataset)
        selection = selector.strongest_with_at_least(6)
        assert selection.lam == 1e4
        assert selection.selected == PAPER_SELECTED

    def test_rank_and_dependency_groups(self, paper_dataset):
        audit = DesignAudit.of(paper_dataset)
        assert audit.rank == 18
        deps = {name: dict(comb) for name, comb in audit.dependencies}
        constants = {"mem_shared", "mem_buffers", "mem_shared_slope", "mem_buffers_slope"}
        assert {name for name, comb in deps.items() if not comb} == constants
        for suffix in ("", "_slope"):
            assert deps["mem_free" + suffix] == pytest.approx({"mem_used" + suffix: -0.4})
            assert deps["mem_cached" + suffix] == pytest.approx({"mem_used" + suffix: -0.6})
            assert deps["swap_free" + suffix] == pytest.approx({"swap_used" + suffix: -1.0})
            shares = ("cpu_user", "cpu_nice", "cpu_sys", "cpu_iowait", "cpu_steal")
            assert deps["cpu_idle" + suffix] == pytest.approx(
                {s + suffix: -1.0 for s in shares}
            )
        assert len(deps) == 30 - audit.rank

    def test_selected_svm_iterations(self, paper_dataset):
        """The selected-set SVM of the paper pipeline (same split as
        ``F2PM.run``) takes 21,808 SMO iterations."""
        cfg = F2PMConfig()
        train, _ = paper_dataset.split(
            cfg.validation_fraction, by_run=cfg.split_by_run, seed=as_rng(cfg.seed)
        )
        train_sel = train.select_features(PAPER_SELECTED)
        assert train_sel.X.shape == (806, 6)
        model = make_model("svm").fit(train_sel.X, train_sel.y)
        assert model.inner_.n_iter_ == 21_808
        assert model.inner_.converged_


# -- planted exact dependencies ------------------------------------------------------


@st.composite
def planted(draw, min_rows: int = 12):
    """A random design with exact dependencies appended after their
    sources: a duplicate, a negated mirror, an affine copy, a
    sum-to-constant group and a constant column. Column scales span
    nine decades, like raw KB counts next to CPU shares."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_rows, 60))
    p = draw(st.integers(3, 6))
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 6, size=p)
    base = rng.normal(size=(n, p)) * scales
    shares = rng.uniform(0.0, 1.0, size=(n, 3))
    shares = np.column_stack([shares, 100.0 - shares.sum(axis=1)])  # sums to 100
    a, b = rng.uniform(0.5, 4.0), rng.uniform(-10.0, 10.0) * scales[2]
    X = np.column_stack([
        base,
        base[:, 0],                  # duplicate of column 0
        -base[:, 1],                 # mirror of column 1
        a * base[:, 2] + b,          # affine copy of column 2
        shares,                      # four columns summing to a constant
        np.full(n, rng.uniform(-1e3, 1e3)),  # constant
    ])
    coef = rng.normal(size=X.shape[1] - 1) / X[:, :-1].std(axis=0)
    signal = X[:, :-1] @ coef
    y = signal + rng.normal(scale=0.1, size=n) * np.abs(signal).mean()
    return X, y, p


class TestPlantedDependencies:
    @given(planted())
    @settings(max_examples=60, deadline=None)
    def test_kkt_on_every_column(self, prob):
        X, y, _ = prob
        lambdas = relative_grid(X, y)
        path = lasso_path(X, y, lambdas, max_iter=2000)
        assert path.converged.all()
        assert_certified(X, y, lambdas, path.coefs)

    @given(planted())
    @settings(max_examples=60, deadline=None)
    def test_later_twins_never_enter(self, prob):
        X, y, p = prob
        coefs = lasso_path(X, y, relative_grid(X, y, decades=9.0)).coefs
        # The duplicate and the mirror tie with their earlier sources at
        # every lambda; the constant column is always zero.
        assert not coefs[:, [p, p + 1, X.shape[1] - 1]].any()
        # An affine copy a*x + b is not a tie when |a| != 1 (the raw-scale
        # penalty prefers the larger column), but the two never enter
        # together.
        assert not (coefs[:, 2].astype(bool) & coefs[:, p + 2].astype(bool)).any()

    @given(planted())
    @settings(max_examples=60, deadline=None)
    def test_audit_finds_the_planted_rank(self, prob):
        X, _, p = prob
        rank, deps = span_audit(X)
        # base columns + 3 free shares; twins, the fourth share and the
        # constant are dependent.
        assert rank == p + 3
        assert [k for k, _ in deps] == [p, p + 1, p + 2, p + 6, p + 7]
        twins = dict(deps)
        assert twins[p] == ((0, pytest.approx(1.0)),)
        assert twins[p + 1] == ((1, pytest.approx(-1.0)),)
        assert twins[p + 7] == ()

    @given(planted(), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_more_columns_than_rows(self, prob, n):
        X, y, _ = prob
        X, y = X[: n + 1], y[: n + 1]  # rank <= n after centring
        lambdas = relative_grid(X, y, decades=8.0)
        path = lasso_path(X, y, lambdas, max_iter=2000)
        assert path.converged.all()
        assert_certified(X, y, lambdas, path.coefs)
        assert (path.coefs != 0.0).sum(axis=1).max() <= n

    @given(planted())
    @settings(max_examples=25, deadline=None)
    def test_objective_not_worse_than_converged_reference(self, prob):
        X, y, _ = prob
        lambdas = relative_grid(X, y, decades=3.0)
        assert_not_worse_than_reference(
            X, y, lambdas, lasso_path(X, y, lambdas).coefs, max_iter=500
        )


class TestShuffledColumns:
    @given(planted(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kkt_whatever_the_column_order(self, prob, seed):
        X, y, _ = prob
        X = X[:, np.random.default_rng(seed).permutation(X.shape[1])]
        lambdas = relative_grid(X, y)
        assert_certified(X, y, lambdas, lasso_path(X, y, lambdas).coefs)
