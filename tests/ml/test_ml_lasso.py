"""Tests for repro.ml.lasso (coordinate descent, paper Eq. 2)."""

import numpy as np
import pytest

from repro.ml.lasso import Lasso, lasso_path
from repro.ml.linear import LinearRegression


class TestLassoFit:
    def test_zero_lambda_matches_ols(self, linear_data):
        X, y = linear_data
        lasso = Lasso(lam=0.0, max_iter=5000).fit(X, y)
        ols = LinearRegression().fit(X, y)
        assert np.allclose(lasso.coef_, ols.coef_, atol=1e-6)
        assert lasso.intercept_ == pytest.approx(ols.intercept_, abs=1e-6)

    def test_huge_lambda_zeroes_everything(self, linear_data):
        X, y = linear_data
        lasso = Lasso(lam=1e9).fit(X, y)
        assert np.count_nonzero(lasso.coef_) == 0
        # intercept falls back to the target mean
        assert lasso.intercept_ == pytest.approx(y.mean())

    def test_sparsity_increases_with_lambda(self, linear_data):
        X, y = linear_data
        nnz = [
            np.count_nonzero(Lasso(lam=lam).fit(X, y).coef_)
            for lam in (0.001, 0.1, 10.0, 1000.0)
        ]
        assert nnz == sorted(nnz, reverse=True)

    def test_irrelevant_features_zeroed_first(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 6))
        y = 5.0 * X[:, 0] + rng.normal(scale=0.01, size=200)
        m = Lasso(lam=0.5).fit(X, y)
        assert m.coef_[0] != 0.0
        assert np.count_nonzero(m.coef_[1:]) == 0

    def test_selected_features_property(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 4))
        y = 3.0 * X[:, 2] + rng.normal(scale=0.01, size=100)
        m = Lasso(lam=0.5).fit(X, y)
        assert m.selected_features_.tolist() == [2]

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            Lasso(lam=-1.0)

    def test_objective_never_worse_than_zero_vector(self, linear_data):
        X, y = linear_data
        lam = 1.0
        m = Lasso(lam=lam).fit(X, y)
        yc = y - y.mean()
        Xc = X - X.mean(axis=0)
        n = X.shape[0]

        def objective(beta):
            r = yc - Xc @ beta
            return (r @ r) / n + lam * np.abs(beta).sum()

        assert objective(m.coef_) <= objective(np.zeros(X.shape[1])) + 1e-9

    def test_normalize_equivalence_of_predictions(self, linear_data):
        # normalize=True must still report coefficients on the raw scale
        X, y = linear_data
        m = Lasso(lam=0.0, normalize=True, max_iter=5000).fit(X, y)
        ols = LinearRegression().fit(X, y)
        assert np.allclose(m.predict(X), ols.predict(X), atol=1e-5)

    def test_constant_feature_gets_zero_weight(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.full(80, 3.0), rng.normal(size=80)])
        y = 2.0 * X[:, 1]
        m = Lasso(lam=0.001).fit(X, y)
        assert m.coef_[0] == 0.0

    def test_convergence_reported(self, linear_data):
        X, y = linear_data
        m = Lasso(lam=0.1).fit(X, y)
        assert 1 <= m.n_iter_ <= m.max_iter


class TestLassoPath:
    def test_shape(self, linear_data):
        X, y = linear_data
        lams = np.logspace(-3, 3, 7)
        coefs = lasso_path(X, y, lams).coefs
        assert coefs.shape == (7, X.shape[1])

    def test_matches_individual_fits(self, linear_data):
        X, y = linear_data
        lams = np.array([0.01, 1.0, 100.0])
        coefs = lasso_path(X, y, lams, max_iter=5000).coefs
        for lam, path_coef in zip(lams, coefs):
            solo = Lasso(lam=lam, max_iter=5000).fit(X, y)
            assert np.allclose(path_coef, solo.coef_, atol=1e-6)

    def test_order_independent(self, linear_data):
        X, y = linear_data
        asc = lasso_path(X, y, np.array([0.1, 1.0, 10.0])).coefs
        desc = lasso_path(X, y, np.array([10.0, 1.0, 0.1])).coefs
        assert np.allclose(asc, desc[::-1], atol=1e-8)

    def test_sparsity_monotone_along_path(self, linear_data):
        X, y = linear_data
        lams = np.logspace(-3, 6, 10)
        coefs = lasso_path(X, y, lams).coefs
        nnz = (np.abs(coefs) > 0).sum(axis=1)
        assert (np.diff(nnz) <= 0).all()

    def test_negative_lambda_rejected(self, linear_data):
        X, y = linear_data
        with pytest.raises(ValueError):
            lasso_path(X, y, np.array([1.0, -2.0]))
