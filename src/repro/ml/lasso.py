"""Lasso regression by the exact LARS-Lasso homotopy (Efron, Hastie,
Johnstone & Tibshirani 2004).

The paper uses the Lasso twice (Sec. III-C/III-D):

1. **Regularization** — for each lambda in a grid, fit the Lasso and drop
   every feature whose weight is exactly zero; the surviving features form
   a reduced training set (Fig. 4, Table I).
2. **As a predictor** — the beta vector found for a given lambda *is* the
   model, evaluated as a closed-form linear equation (Table II's
   ``Lasso (lambda = 10^k)`` rows).

Objective (paper Eq. 2)::

    (1/n) * sum_j (y_j - <beta, x_j>)^2  +  lambda * ||beta||_1

With centred columns, correlations ``c = X'(y - X beta)`` and
``g = n * lambda / 2``, ``beta`` is optimal exactly when the KKT
conditions hold: ``c_k = g * sign(beta_k)`` where ``beta_k != 0`` and
``|c_k| <= g`` elsewhere. The solution is piecewise linear in ``g``.
The homotopy starts at the smallest ``g`` that zeroes every weight and
walks down the path knot by knot. Between two knots the active set and
its signs are fixed and the active weights are affine in ``g``; a knot
is where an inactive column's correlation reaches the bound (it enters)
or an active weight reaches zero (it leaves). Each requested lambda is
read off its segment with an exact active-set solve, so the answer is
the optimum up to rounding, with no tolerance to tune; ``max_iter``
caps the number of knots, and ``converged_`` reports whether the cap
stopped the path.

The solver works on unit-norm columns and keeps an orthonormal basis of
the active ones (Gram-Schmidt, re-orthogonalised), so a knot costs a
small triangular solve and one product with the data. A column whose
distance from the span of the active columns is at most ``SPAN_TOL``
never enters: in exact arithmetic it can only tie, and entering it
would make the active set singular. Exact ties are broken by feature
order, so of two mirrored columns the later one never enters, and every
weight outside the active set is exactly ``0.0``.

:func:`span_audit` runs the same span test over all columns in feature
order: the rank of the centred design matrix and each column's exact
linear dependency on earlier ones.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from repro.ml.base import Regressor
from repro.obs.metrics import get_metrics
from repro.utils.validation import check_array, check_is_fitted, check_X_y

#: A unit-norm column at most this far from the span of other columns
#: counts as lying in it. Exact dependencies in float64 data sit near
#: 1e-15; on the benchmark's paper corpus the nearest independent
#: column is 5e-2 away.
SPAN_TOL = 1e-9

#: Two entries whose knots differ by at most this fraction of the
#: current ``g`` are a tie, broken by feature order.
TIE_TOL = 1e-12


def _solve_r(R: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
    return scipy.linalg.solve_triangular(R, b, trans=trans, check_finite=False)


class _ActiveBasis:
    """Orthonormal basis ``Q`` of a set of columns of ``Z``, ``Z_S = Q R``."""

    def __init__(self, Z: np.ndarray, y: np.ndarray) -> None:
        self.Z = Z
        self.y = y
        n, p = Z.shape
        self.cols: list[int] = []
        self._Q = np.empty((n, p))
        self._R = np.zeros((p, p))
        self._qy = np.zeros(p)

    @property
    def Q(self) -> np.ndarray:
        return self._Q[:, : len(self.cols)]

    @property
    def R(self) -> np.ndarray:
        k = len(self.cols)
        return self._R[:k, :k]

    @property
    def qy(self) -> np.ndarray:
        return self._qy[: len(self.cols)]

    def residual(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """``(e, h)`` with ``z_j = Q h + e`` and ``e`` orthogonal to ``Q``."""
        Q = self.Q
        z = self.Z[:, j]
        h = Q.T @ z
        e = z - Q @ h
        h2 = Q.T @ e  # "twice is enough" (Kahan-Parlett)
        return e - Q @ h2, h + h2

    def add(self, j: int, e: np.ndarray, h: np.ndarray) -> None:
        k = len(self.cols)
        d = float(np.linalg.norm(e))
        self._Q[:, k] = e / d
        self._R[:k, k] = h
        self._R[k, k] = d
        self._qy[k] = self._Q[:, k] @ self.y
        self.cols.append(j)

    def remove(self, pos: int) -> None:
        """Drop the column at *pos*; the basis of the columns before it
        is unchanged, the ones after it are re-orthogonalised."""
        later = self.cols[pos + 1:]
        del self.cols[pos:]
        for j in later:
            self.add(j, *self.residual(j))


def _homotopy(
    Z: np.ndarray,
    y: np.ndarray,
    live: np.ndarray,
    omega: np.ndarray,
    gammas: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Lasso weights at each threshold in *gammas* (any order).

    ``Z`` has unit-norm columns where *live* and all-zero (constant)
    ones elsewhere; column k's bound is ``g * omega[k]``. Returns
    ``(B, steps, converged)``: one row of ``Z``-scale weights and one
    flag per threshold. A capped path stops at its last knot, whose
    (exact) solution the thresholds below it receive, flagged False.
    """
    n, p = Z.shape
    B = np.zeros((gammas.size, p))
    converged = np.ones(gammas.size, dtype=bool)
    todo = [int(i) for i in np.argsort(-gammas, kind="stable")]
    basis = _ActiveBasis(Z, y)
    signs = np.zeros(p)
    c = Z.T @ y
    ratio = np.abs(c[live]) / omega[live]
    g = float(ratio.max()) if ratio.size else 0.0
    if gammas.min() >= g:  # every weight is zero
        return B, 0, converged
    steps = 0
    blocked: set[int] = set()
    entered = dropped = -1
    dropped_sign = 0.0
    while True:
        A = basis.cols
        R, qy = basis.R, basis.qy
        # beta_A(g') = u - g' v and c(g') = p0 + g' q on this segment.
        a = _solve_r(R, omega[A] * signs[A], trans="T")
        u = _solve_r(R, qy)
        v = _solve_r(R, a)
        Q = basis.Q
        p0, q = (Z.T @ np.column_stack([y - Q @ qy, Q @ a])).T
        c = p0 + g * q
        beta = u - g * v

        # Entries: an inactive column's |c_j| reaches g * omega_j after
        # the path has moved down by t.
        t_in = np.full(p, np.inf)
        cand = live.copy()
        cand[A] = False
        for j in blocked:
            cand[j] = False
        for sign in (1.0, -1.0):
            slack = np.maximum(omega * g - sign * c, 0.0)
            rate = omega - sign * q
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(cand & (rate > 0.0), slack / rate, np.inf)
            if sign == dropped_sign:
                # It has just left this bound and moves inward.
                t[dropped] = np.inf
            t_in = np.minimum(t_in, t)
        # Exits: an active weight reaches zero.
        sv = signs[A] * v
        with np.errstate(divide="ignore", invalid="ignore"):
            t_out = np.where(sv < 0.0, np.maximum(signs[A] * beta, 0.0) / -sv, np.inf)
        if entered >= 0:
            # Its weight has just left zero and moves away from it.
            t_out[A.index(entered)] = np.inf

        join = leave = -1
        t_next = g  # no event: the segment runs to g = 0
        while True:
            t_best = float(t_in.min())
            if not t_best < t_next:
                break
            ties = np.flatnonzero(t_in <= t_best + TIE_TOL * g)
            j = int(ties[0])  # lowest feature index among the tie
            e, h = basis.residual(j)
            if np.linalg.norm(e) > SPAN_TOL:
                join, t_next = j, max(t_best, 0.0)
                break
            blocked.add(j)  # in the active span: it can only tie
            t_in[j] = np.inf
        if t_out.size and float(t_out.min()) <= t_next:
            leave = int(t_out.argmin())
            t_next = float(t_out[leave])
            join = -1
        g_next = g - t_next

        # Read every requested threshold on [g_next, g] off the segment.
        while todo and gammas[todo[0]] >= g_next:
            i = todo.pop(0)
            B[i, A] = _solve_r(R, qy - gammas[i] * a)
        if not todo:
            return B, steps, converged
        if steps >= max_iter:
            B[np.ix_(todo, A)] = u - g_next * v
            converged[todo] = False
            return B, steps, converged

        steps += 1
        g = g_next
        entered = dropped = -1
        dropped_sign = 0.0
        if join >= 0:
            signs[join] = 1.0 if c[join] - t_next * q[join] > 0.0 else -1.0
            basis.add(join, e, h)
            entered = join
        else:
            dropped = A[leave]
            dropped_sign, signs[dropped] = signs[dropped], 0.0
            basis.remove(leave)
            blocked.clear()


def _unit_columns(
    X: np.ndarray, y: np.ndarray, fit_intercept: bool, normalize: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(Z, yw, norms, omega)``: the (centred) columns scaled to unit
    norm, the (centred) target, each column's norm (0 for a constant
    column, whose ``Z`` column is zero) and its penalty weight on the
    unit-norm scale.

    Eq. 2 penalises raw weights; with ``normalize`` it penalises the
    weights of unit-variance columns, i.e. raw weights times the column
    standard deviation.
    """
    n, p = X.shape
    x_mean = X.mean(axis=0) if fit_intercept else np.zeros(p)
    Xw = X - x_mean
    yw = y - y.mean() if fit_intercept else y
    sq = np.einsum("ij,ij->j", Xw, Xw)
    # A column within SPAN_TOL of the intercept's span is constant: what
    # centring leaves of it is the rounding of its mean.
    live = sq > SPAN_TOL**2 * (sq + n * x_mean**2)
    norms = np.sqrt(sq)
    norms[~live] = 0.0
    safe = np.where(live, norms, 1.0)
    Z = Xw / safe
    Z[:, ~live] = 0.0
    scale = Xw.std(axis=0) if normalize else np.ones(p)
    omega = np.where(live, scale / safe, 1.0)
    return Z, yw, norms, omega


class LassoPath(NamedTuple):
    """One homotopy's answer on a lambda grid."""

    #: ``(len(lambdas), p)`` weights on the original feature scale, rows
    #: in the caller's order.
    coefs: np.ndarray
    #: Knots passed.
    n_iter: int
    #: Per lambda: False where ``max_iter`` stopped the path above it.
    converged: np.ndarray


def lasso_path(
    X: np.ndarray,
    y: np.ndarray,
    lambdas: np.ndarray,
    *,
    fit_intercept: bool = True,
    normalize: bool = False,
    max_iter: int = 1000,
) -> LassoPath:
    """The Lasso at every lambda of a grid from one homotopy."""
    X, y = check_X_y(X, y)
    lambdas = check_array(np.asarray(lambdas, dtype=np.float64), ndim=1, name="lambdas")
    if (lambdas < 0).any():
        raise ValueError("lambdas must be non-negative")
    Z, yw, norms, omega = _unit_columns(X, y, fit_intercept, normalize)
    live = norms > 0.0
    B, steps, converged = _homotopy(
        Z, yw, live, omega, 0.5 * X.shape[0] * lambdas, max_iter
    )
    if not converged.all():
        get_metrics().inc("ml.solver_capped_total.lasso")
    return LassoPath(B / np.where(live, norms, 1.0), steps, converged)


def span_audit(X: np.ndarray) -> tuple[int, list[tuple[int, tuple[tuple[int, float], ...]]]]:
    """Rank of the centred design matrix and its exact dependencies.

    Columns are visited in feature order with the solver's span test. A
    column within ``SPAN_TOL`` of the span of the earlier independent
    columns is dependent; it is reported as ``(k, ((j, w_j), ...))``
    with ``x_k - mean_k = sum_j w_j (x_j - mean_j)``. A constant column
    has the empty combination.
    """
    X = check_array(X)
    Z, _, norms, _ = _unit_columns(X, np.zeros(X.shape[0]), True, False)
    basis = _ActiveBasis(Z, np.zeros(X.shape[0]))
    dependencies = []
    for k in range(X.shape[1]):
        if norms[k] == 0.0:
            dependencies.append((k, ()))
            continue
        e, h = basis.residual(k)
        if np.linalg.norm(e) > SPAN_TOL:
            basis.add(k, e, h)
            continue
        w = _solve_r(basis.R, h)
        dependencies.append((k, tuple(
            (j, float(wj * norms[k] / norms[j]))
            for j, wj in zip(basis.cols, w)
            if abs(wj) > SPAN_TOL
        )))
    return len(basis.cols), dependencies


class Lasso(Regressor):
    """L1-regularized linear regression (paper Eq. 2 objective).

    Parameters
    ----------
    lam : float
        Regularization strength lambda (the paper sweeps 10^0 .. 10^9).
    fit_intercept : bool
        Learn an unpenalized intercept by centring (default True).
    normalize : bool
        If True, penalise the weights of unit-variance features and fold
        the scaling back into ``coef_``. The paper's experiments run on
        raw feature scales (hence the tiny weights in its Table I), so
        the default is False.
    max_iter : int
        Cap on the homotopy's knots.

    Attributes
    ----------
    coef_ : (p,) weights on the original feature scale.
    intercept_ : float
    n_iter_ : knots passed by the last fit.
    converged_ : False when ``max_iter`` stopped the path before ``lam``.
    """

    def __init__(
        self,
        lam: float = 1.0,
        fit_intercept: bool = True,
        normalize: bool = False,
        max_iter: int = 1000,
    ) -> None:
        if lam < 0:
            raise ValueError(f"lam must be non-negative, got {lam}")
        self.lam = lam
        self.fit_intercept = fit_intercept
        self.normalize = normalize
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self.converged_: bool = True

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Lasso":
        X, y = check_X_y(X, y)
        path = lasso_path(
            X, y, [float(self.lam)], fit_intercept=self.fit_intercept,
            normalize=self.normalize, max_iter=self.max_iter,
        )
        self.coef_ = path.coefs[0]
        self.n_iter_, self.converged_ = path.n_iter, bool(path.converged[0])
        self.intercept_ = (
            float(y.mean() - X.mean(axis=0) @ self.coef_) if self.fit_intercept else 0.0
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "coef_")
        X = check_array(X)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted on "
                f"{self.coef_.shape[0]}"
            )
        return X @ self.coef_ + self.intercept_

    @property
    def selected_features_(self) -> np.ndarray:
        """Indices of features with non-zero weight (the Lasso selection)."""
        check_is_fitted(self, "coef_")
        return np.flatnonzero(self.coef_)
