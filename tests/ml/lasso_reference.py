"""Reference Lasso solver for the certificate battery.

``_coordinate_descent`` is the cyclic coordinate-descent loop
:mod:`repro.ml.lasso` ran before the exact LARS-Lasso homotopy replaced
it, kept verbatim (Tibshirani 1994; soft-threshold rule
``beta_k = S(x_k . r_k, n*lambda/2) / ||x_k||^2``, convergence declared
when the largest coefficient change in a sweep falls below ``tol``).
``reference_path`` is the old warm-started ``lasso_path`` on centred,
raw-scale features. The battery compares Eq. 2 objectives against it
wherever it converges (``test_lasso_certificate``).
"""

from __future__ import annotations

import numpy as np


def _soft_threshold(value: float, threshold: float) -> float:
    """The soft-thresholding (shrinkage) operator S(value, threshold)."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iter: int,
    tol: float,
    coef_init: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Minimize the paper's Eq. 2 objective. Returns (coef, n_sweeps)."""
    n, p = X.shape
    sq_norms = np.einsum("ij,ij->j", X, X)
    coef = np.zeros(p) if coef_init is None else coef_init.copy()
    # Residual r = y - X @ coef, maintained incrementally.
    residual = y - X @ coef if coef_init is not None else y.copy()
    # Eq. 2 divides the quadratic term by n, so the per-coordinate
    # threshold is n*lambda/2.
    threshold = 0.5 * n * lam
    n_sweeps = 0
    for sweep in range(max_iter):
        n_sweeps = sweep + 1
        max_delta = 0.0
        for k in range(p):
            if sq_norms[k] == 0.0:
                continue  # constant (all-zero after centring) feature
            old = coef[k]
            # rho = x_k . (residual + x_k * old) without forming the sum.
            rho = X[:, k] @ residual + sq_norms[k] * old
            new = _soft_threshold(rho, threshold) / sq_norms[k]
            if new != old:
                residual += X[:, k] * (old - new)
                coef[k] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta <= tol:
            break
    return coef, n_sweeps


def reference_path(
    X: np.ndarray, y: np.ndarray, lambdas: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Warm-started coordinate descent on centred raw features.

    Returns ``(coefs, converged)``: one coefficient row and one flag per
    lambda, in the caller's order; a flag is False where the sweep cap
    stopped the solve.
    """
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    coefs = np.zeros((lambdas.size, X.shape[1]))
    converged = np.zeros(lambdas.size, dtype=bool)
    warm = None
    for idx in np.argsort(lambdas)[::-1]:
        coef, sweeps = _coordinate_descent(
            Xc, yc, float(lambdas[idx]), max_iter, tol, coef_init=warm
        )
        warm = coef
        coefs[idx] = coef
        converged[idx] = sweeps < max_iter
    return coefs, converged
