"""Property-based tests for the Lasso coordinate-descent solver."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.lasso import Lasso, lasso_path


def problem(draw, n_min=20, n_max=60, p_max=6):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    p = draw(st.integers(min_value=1, max_value=p_max))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    coef = rng.normal(scale=3.0, size=p)
    y = X @ coef + rng.normal(scale=0.1, size=n)
    return X, y


problems = st.composite(problem)()


class TestLassoProperties:
    @given(problems, st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_objective_not_worse_than_zero(self, prob, lam):
        """The paper's Eq. 2 objective at the solution never exceeds the
        objective of the all-zeros vector (which CD starts from)."""
        X, y = prob
        m = Lasso(lam=lam).fit(X, y)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        n = X.shape[0]

        def obj(beta):
            r = yc - Xc @ beta
            return (r @ r) / n + lam * np.abs(beta).sum()

        assert obj(m.coef_) <= obj(np.zeros(X.shape[1])) + 1e-6

    @given(problems)
    @settings(max_examples=30, deadline=None)
    def test_path_sparsity_monotone(self, prob):
        X, y = prob
        lams = np.logspace(-2, 5, 8)
        coefs = lasso_path(X, y, lams).coefs
        nnz = (np.abs(coefs) > 0).sum(axis=1)
        assert (np.diff(nnz) <= 0).all()

    @given(problems, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30, deadline=None)
    def test_prediction_finite(self, prob, lam):
        X, y = prob
        m = Lasso(lam=lam).fit(X, y)
        assert np.isfinite(m.predict(X)).all()

    @given(problems)
    @settings(max_examples=30, deadline=None)
    def test_selected_features_match_nonzero_coef(self, prob):
        X, y = prob
        m = Lasso(lam=1.0).fit(X, y)
        assert np.array_equal(m.selected_features_, np.flatnonzero(m.coef_))

    @given(problems, st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_kkt_conditions_hold(self, prob, lam):
        """Subgradient optimality: |2/n X_k'r| <= lam (+tol) for zero
        coefficients; equality (sign-matched) for active ones."""
        X, y = prob
        m = Lasso(lam=lam, max_iter=5000).fit(X, y)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        n = X.shape[0]
        r = yc - Xc @ m.coef_
        grad = 2.0 / n * (Xc.T @ r)
        tol = 1e-4 * max(1.0, np.abs(grad).max())
        for k in range(X.shape[1]):
            if m.coef_[k] == 0.0:
                assert abs(grad[k]) <= lam + tol
            else:
                assert grad[k] == np.sign(m.coef_[k]) * lam + np.clip(
                    grad[k] - np.sign(m.coef_[k]) * lam, -tol, tol
                )
