"""The SMO solver reproduces the reference loop byte for byte.

``repro.ml.svr._SMOSolver.solve`` keeps its masks and signed kernel
columns across the iterations of an epoch and does the pair update on
Python floats; ``tests/ml/smo_reference.py`` is the loop it replaced,
which rebuilds everything on every iteration. Both run here in one
process (the BLAS thread count can change an SVR's bits, so solvers run
under different settings are not comparable), and every case asserts
byte-equal ``(a, rho, n_iter)`` from the solver and ``support_``,
``dual_coef_`` and ``intercept_`` from the fitted model.
"""

from __future__ import annotations

import inspect
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model_zoo import make_model
from repro.ml import svr
from repro.ml.svr import SVR
from tests.ml.smo_reference import ReferenceSMOSolver

#: (C, epsilon): mostly bounded support vectors, a mix of free and
#: bounded ones, and a tube wide enough to leave no support vectors.
C_EPS = ((0.3, 0.05), (2.0, 0.2), (1.0, 50.0))


def _data(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] + rng.normal(scale=0.1, size=n)
    return X, y


def _fit(solver_cls, model, X, y):
    """Fit ``model`` with ``solver_cls``; returns the model and the
    solver's raw ``(a, rho, n_iter)``."""
    out = []

    class Recording(solver_cls):
        def solve(self):
            out.append(super().solve())
            return out[-1]

    with mock.patch.object(svr, "_SMOSolver", Recording):
        model.fit(X, y)
    (result,) = out
    return model, result


def _bits(x) -> tuple:
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def assert_same_fit(make, X, y) -> SVR:
    """Fit ``make()`` with both solvers; assert byte equality."""
    fast, (a, rho, n_iter) = _fit(svr._SMOSolver, make(), X, y)
    ref, (a_ref, rho_ref, n_iter_ref) = _fit(ReferenceSMOSolver, make(), X, y)
    assert n_iter == n_iter_ref
    assert _bits(a) == _bits(a_ref)
    assert _bits(rho) == _bits(rho_ref)
    fast_svr = getattr(fast, "inner_", fast)
    ref_svr = getattr(ref, "inner_", ref)
    assert _bits(fast_svr.support_) == _bits(ref_svr.support_)
    assert _bits(fast_svr.dual_coef_) == _bits(ref_svr.dual_coef_)
    assert _bits(fast_svr.intercept_) == _bits(ref_svr.intercept_)
    return fast_svr


@pytest.mark.parametrize("kernel", ["linear", "rbf", "poly"])
@pytest.mark.parametrize("n", [12, 60, 200])
@pytest.mark.parametrize("C,epsilon", C_EPS)
@pytest.mark.parametrize("cache_columns", [2, 512])
def test_case_matrix(kernel, n, C, epsilon, cache_columns):
    X, y = _data(n, seed=n)
    m = assert_same_fit(
        lambda: SVR(C=C, epsilon=epsilon, kernel=kernel, cache_columns=cache_columns),
        X,
        y,
    )
    if epsilon == C_EPS[-1][1]:
        assert m.support_.size == 0


@pytest.mark.parametrize("kernel", ["linear", "rbf", "poly"])
@pytest.mark.parametrize("n", [60, 200])
def test_iteration_cap_mid_epoch(kernel, n):
    # 50 iterations end the first epoch (SHRINK_PERIOD = 1000) early.
    X, y = _data(n, seed=n + 1)
    m = assert_same_fit(
        lambda: SVR(C=10.0, epsilon=0.01, kernel=kernel, max_iter=50), X, y
    )
    assert m.n_iter_ == 50


def _duplicated_rows() -> tuple[np.ndarray, np.ndarray]:
    # Five copies of each of six points with scattered targets: Q is
    # singular, and a pair of copies in opposite blocks has quad == 0.
    rng = np.random.default_rng(5)
    X = np.repeat(np.arange(6.0)[:, None], 5, axis=0)
    y = np.repeat(np.arange(6.0), 5) + rng.normal(scale=0.3, size=30)
    return X, y


def _duplicated_svr(kernel: str = "linear") -> SVR:
    return SVR(C=10.0, epsilon=0.01, kernel=kernel, gamma=0.5)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_duplicated_rows(kernel):
    X, y = _duplicated_rows()
    assert_same_fit(lambda: _duplicated_svr(kernel), X, y)


def test_model_zoo_svm_on_campaign_data(dataset):
    # The paper's SVM (linear kernel, scaled) on small_campaign() windows.
    m = assert_same_fit(lambda: make_model("svm"), dataset.X, dataset.y)
    assert m.n_iter_ > svr._SMOSolver.SHRINK_PERIOD  # more than one epoch


def _flat_problem() -> tuple[np.ndarray, np.ndarray]:
    # A zero target solved to tol = 0 with no tube: a = 0 is optimal but
    # the gap is 0, not below 0, so the solver never stops early. The
    # pair search finds no candidate, j falls back to index 0 == i, and
    # every shrink keeps nothing and so keeps everything.
    X, _ = _data(12, seed=12)
    return X, np.zeros(12)


def _flat_svr(kernel: str = "linear") -> SVR:
    return SVR(C=1.0, epsilon=0.0, kernel=kernel, tol=0.0, max_iter=2500)


@pytest.mark.parametrize("kernel", ["linear", "rbf", "poly"])
def test_degenerate_shrink(kernel):
    X, y = _flat_problem()
    m = assert_same_fit(lambda: _flat_svr(kernel), X, y)
    assert m.n_iter_ == 2500


def _lines_run(fn, code) -> set[int]:
    """Line numbers of ``code`` executed while ``fn()`` runs."""
    seen: set[int] = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            seen.add(frame.f_lineno)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
    return seen


@pytest.mark.parametrize(
    "problem,make,marker",
    [
        # None of the case matrix's problems shrink to fewer than two.
        (_flat_problem, _flat_svr, "keep[:] = True"),
        (_duplicated_rows, _duplicated_svr, "quad = _TAU"),
    ],
)
def test_problem_reaches_branch(problem, make, marker):
    """The constructed problems take the branch they are there for (the
    first ``quad = _TAU`` is the opposite-sign pair's)."""
    lines, start = inspect.getsourcelines(svr._SMOSolver.solve)
    line = start + next(k for k, text in enumerate(lines) if marker in text)
    X, y = problem()
    assert line in _lines_run(lambda: make().fit(X, y), svr._SMOSolver.solve.__code__)


@st.composite
def _problem(draw):
    n = draw(st.integers(min_value=8, max_value=40))
    p = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    X = rng.normal(size=(n, p))
    if draw(st.booleans()):  # duplicate a block of rows
        X[n // 2 :] = X[: n - n // 2]
    y = rng.normal(size=n)
    return X, y


@given(
    _problem(),
    st.sampled_from(["linear", "rbf", "poly"]),
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_random_problems(prob, kernel, C, epsilon):
    X, y = prob
    assert_same_fit(lambda: SVR(C=C, epsilon=epsilon, kernel=kernel), X, y)
