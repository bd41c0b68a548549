"""Tests for repro.ml.svr (SMO epsilon-SVR)."""

from unittest import mock

import numpy as np
import pytest

from repro.ml import svr
from repro.ml.metrics import mean_absolute_error
from repro.ml.svr import SVR


class TestSVRLinearKernel:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 3))
        y = 2.0 * X[:, 0] - X[:, 1] + 0.5
        m = SVR(C=10.0, epsilon=0.01, kernel="linear").fit(X, y)
        assert mean_absolute_error(y, m.predict(X)) < 0.05

    def test_intercept_learned(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 2))
        y = X[:, 0] + 100.0  # large offset must land in the bias
        m = SVR(C=10.0, epsilon=0.01, kernel="linear").fit(X, y)
        assert mean_absolute_error(y, m.predict(X)) < 0.1


class TestSVRRBF:
    def test_fits_nonlinear_function(self, nonlinear_data):
        X, y = nonlinear_data
        m = SVR(C=50.0, epsilon=0.05, kernel="rbf", gamma=1.0).fit(X, y)
        assert mean_absolute_error(y, m.predict(X)) < 0.8

    def test_beats_linear_model_on_nonlinear_data(self, nonlinear_data):
        from repro.ml.linear import LinearRegression

        X, y = nonlinear_data
        rbf = SVR(C=50.0, epsilon=0.05, kernel="rbf", gamma=1.0).fit(X, y)
        lin = LinearRegression().fit(X, y)
        assert mean_absolute_error(y, rbf.predict(X)) < mean_absolute_error(
            y, lin.predict(X)
        )


class TestSVRMechanics:
    def test_epsilon_tube_limits_support_vectors(self):
        # with a wide tube around a flat function, few/no SVs are needed
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = 0.01 * X[:, 0]
        m = SVR(C=1.0, epsilon=1.0, kernel="rbf").fit(X, y)
        assert m.support_.size == 0
        # prediction falls back to the bias
        assert np.allclose(m.predict(X), m.intercept_)

    def test_support_vector_count_grows_with_smaller_epsilon(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 2))
        y = np.sin(X[:, 0]) + rng.normal(scale=0.05, size=150)
        wide = SVR(C=10.0, epsilon=0.5, kernel="rbf").fit(X, y)
        narrow = SVR(C=10.0, epsilon=0.01, kernel="rbf").fit(X, y)
        assert narrow.support_.size > wide.support_.size

    def test_dual_coefficients_bounded_by_C(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 2))
        y = X[:, 0] + rng.normal(scale=0.3, size=80)
        C = 0.7
        m = SVR(C=C, epsilon=0.05, kernel="rbf").fit(X, y)
        assert (np.abs(m.dual_coef_) <= C + 1e-9).all()

    def test_dual_constraint_sums_to_zero(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 2))
        y = X[:, 0] ** 2
        m = SVR(C=5.0, epsilon=0.05, kernel="rbf").fit(X, y)
        assert m.dual_coef_.sum() == pytest.approx(0.0, abs=1e-8)

    def test_max_iter_cap_respected(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        m = SVR(C=100.0, epsilon=0.0001, kernel="rbf", max_iter=50).fit(X, y)
        assert m.n_iter_ <= 50

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SVR(C=0.0)
        with pytest.raises(ValueError):
            SVR(epsilon=-0.1)

    def test_small_kernel_cache_same_answer(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 2))
        y = np.cos(X[:, 0])
        big = SVR(C=5.0, epsilon=0.05, kernel="rbf", cache_columns=10_000).fit(X, y)
        tiny = SVR(C=5.0, epsilon=0.05, kernel="rbf", cache_columns=2).fit(X, y)
        # An evicted column is recomputed by the same call, so the cache
        # size cannot change the SMO trajectory: the fits are identical.
        assert big.n_iter_ == tiny.n_iter_
        assert big.support_.tobytes() == tiny.support_.tobytes()
        assert big.dual_coef_.tobytes() == tiny.dual_coef_.tobytes()
        assert np.float64(big.intercept_).tobytes() == np.float64(tiny.intercept_).tobytes()

    def test_signed_column_cache_bounded(self):
        # The solver's per-epoch caches (active kernel columns and WSS2
        # denominators, both filled by _epoch_put) obey the same bound.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 2))
        y = np.cos(X[:, 0])
        sizes = []
        caches = []
        real = svr._SMOSolver._epoch_put

        def spy(self, cache, *args):
            value = real(self, cache, *args)
            sizes.append(len(cache))
            if not any(cache is c for c in caches):
                caches.append(cache)
            return value

        with mock.patch.object(svr._SMOSolver, "_epoch_put", spy):
            SVR(C=5.0, epsilon=0.05, kernel="rbf", cache_columns=2).fit(X, y)
        assert max(sizes) == 2
        # Two caches per epoch, both filled through the helper.
        assert len(caches) >= 2 and len(caches) % 2 == 0

    def test_duplicate_points_handled(self):
        X = np.repeat(np.arange(5.0)[:, None], 4, axis=0)
        y = np.repeat(np.arange(5.0), 4)
        m = SVR(C=10.0, epsilon=0.01, kernel="rbf", gamma=0.5).fit(X, y)
        assert mean_absolute_error(y, m.predict(X)) < 0.5

    def test_shrinking_agrees_with_reference_quality(self):
        # shrinking is a heuristic: the final model must still satisfy the
        # global KKT gap, i.e. be as good as an unshrunk reference fit
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 3))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        m = SVR(C=10.0, epsilon=0.05, kernel="rbf", gamma=0.5).fit(X, y)
        assert mean_absolute_error(y, m.predict(X)) < 0.12


class TestNormCachePredict:
    """The RBF predict fast path (cached support-vector norms)."""

    def _fit(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 3))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1]
        return SVR(C=10.0, epsilon=0.05, kernel="rbf", gamma=0.5).fit(X, y), X

    def test_cached_norms_populated_for_rbf_only(self):
        m, _ = self._fit()
        assert m._sv_sq_norms_ is not None
        assert m._sv_sq_norms_.shape == (m.support_vectors_.shape[0],)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 2))
        lin = SVR(C=10.0, epsilon=0.05, kernel="linear").fit(X, X[:, 0])
        assert lin._sv_sq_norms_ is None

    def test_fast_path_bit_identical_to_generic_kernel(self):
        m, X = self._fit()
        fast = m.predict(X)
        generic = m._kernel(X, m.support_vectors_) @ m.dual_coef_ + m.intercept_
        assert np.array_equal(fast, generic)

    def test_legacy_pickle_without_cache_still_predicts(self):
        # models pickled before the cache existed lack the attribute:
        # predict must fall through to the generic kernel, same answer
        m, X = self._fit()
        expected = m.predict(X)
        del m._sv_sq_norms_
        assert np.array_equal(m.predict(X), expected)

    def test_state_round_trip_keeps_fast_path(self):
        # simulate model persistence: a state-restored clone must keep
        # the cached norms and predict identically through the fast path
        m, X = self._fit()
        clone = SVR.__new__(SVR)
        clone.__dict__.update(m.__dict__)
        assert clone._sv_sq_norms_ is not None
        assert np.array_equal(clone.predict(X), m.predict(X))
