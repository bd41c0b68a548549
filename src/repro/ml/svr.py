"""Epsilon-insensitive Support Vector Regression via SMO.

This is the paper's "SVM" method (Sec. III-D, WEKA's SMOreg). The dual
problem is solved with a from-scratch Sequential Minimal Optimization
solver in the LIBSVM formulation:

The epsilon-SVR dual over ``alpha, alpha*`` is folded into a single
2n-variable box-constrained QP::

    min_a  1/2 a' Q a + p' a
    s.t.   z' a = 0,   0 <= a_t <= C

with ``z = (+1,...,+1, -1,...,-1)``, ``Q[s,t] = z_s z_t K(s%n, t%n)``,
``p = (eps - y, eps + y)``. The regression coefficients are
``beta = a[:n] - a[n:]`` and the prediction is
``f(x) = sum_i beta_i K(x_i, x) + b``.

The working set is chosen as in LIBSVM (WSS2, Fan, Chen & Lin, JMLR
2005): ``i`` is the maximal KKT violator among the variables that can
move up, and ``j`` maximizes the second-order objective decrease of the
pair step among those that can move down. The analytic two-variable
update is followed by an incremental gradient update with Q's columns
``i`` and ``j``. Kernel columns are computed on demand through a bounded
FIFO cache (LIBSVM's kernel cache), so memory stays
O(cache_columns * n); Q columns are assembled from them using the block
structure.

A fit costs its SMO iteration count times a per-iteration cost that is
mostly vector work over the active set; kernel columns are seldom
recomputed. On the benchmark's pinned paper corpus the all-feature fit
(806 x 30) takes 110,754 iterations and the Lasso-selected fit (806 x 8)
39,113, at about the same cost per iteration. So the iteration count of
SMO on the rank-deficient linear-kernel Gram matrix, not the feature
count, sets both the paper's Table III gap to the other learners and
the all/selected ratio.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.kernels import (
    KernelExpansion,
    rbf_kernel,
    resolve_gamma,
    resolve_kernel,
    resolve_kernel_diag,
    squared_norms,
)
from repro.obs.metrics import get_metrics
from repro.utils.validation import check_array, check_is_fitted, check_X_y

_TAU = 1e-12


class _KernelColumnCache:
    """LIBSVM-style kernel cache: columns of K computed on demand.

    One ``K[:, t] = k(X, x_t)`` per column index, kept in a FIFO-bounded
    dict, so memory stays O(max_columns * n) instead of O(n^2). An
    evicted column is recomputed by the same call, so the bound changes
    how long a fit takes, never its result.
    """

    def __init__(self, X: np.ndarray, kernel, max_columns: int = 512) -> None:
        self.X = X
        self.kernel = kernel
        self.max_columns = max(1, max_columns)
        self._columns: dict[int, np.ndarray] = {}

    def column(self, t: int) -> np.ndarray:
        col = self._columns.get(t)
        if col is None:
            col = self.kernel(self.X, self.X[t : t + 1])[:, 0]
            if len(self._columns) >= self.max_columns:
                # FIFO eviction: drop the oldest inserted column.
                self._columns.pop(next(iter(self._columns)))
            self._columns[t] = col
        return col


class _SMOSolver:
    """LIBSVM-style SMO for ``min 1/2 a'Qa + p'a, z'a = 0, 0 <= a <= C``."""

    def __init__(
        self,
        cache: _KernelColumnCache,
        n: int,
        p: np.ndarray,
        z: np.ndarray,
        C: float,
        tol: float,
        max_iter: int,
        k_diag: np.ndarray,
    ) -> None:
        self.cache = cache
        self.n = n
        self.p = p
        self.z = z
        self.C = C
        self.tol = tol
        self.max_iter = max_iter
        # Diagonal of Q: Q_tt = z_t^2 K_tt = K_tt, duplicated for both blocks.
        self.QD = np.concatenate([k_diag, k_diag])
        #: Set by ``solve``: the final KKT gap fell below ``tol``.
        self.converged = False

    #: Re-examine the active set every this many inner iterations.
    SHRINK_PERIOD = 1000

    def _epoch_column(
        self, columns: dict, t: int, act_mod: np.ndarray, za: np.ndarray
    ) -> np.ndarray:
        """``za * K[act_mod, t]``: kernel column ``t`` signed for the active set.

        ``Q[s, u] = z_s z_u K[s%n, u%n]``, so for any ``u`` with
        ``u % n == t`` the active entries of Q's column ``u`` are
        ``z_u * column`` — an exact sign flip the caller folds into its
        scalar multipliers. ``columns`` lives for one epoch (the active
        set is fixed within it) and holds at most ``max_columns``
        entries, evicted FIFO like the kernel cache.
        """
        if len(columns) >= self.cache.max_columns:
            columns.pop(next(iter(columns)))
        col = columns[t] = za * self.cache.column(t)[act_mod]
        return col

    def _full_gradient(self, a: np.ndarray) -> np.ndarray:
        """Reconstruct G = Qa + p from scratch (unshrinking step).

        Uses only the support columns: O(n * nSV) kernel work.
        """
        n = self.n
        beta = a[:n] - a[n:]
        sv = np.flatnonzero(beta)
        G = self.p.copy()
        if sv.size:
            kb = self.cache.kernel(self.cache.X, self.cache.X[sv]) @ beta[sv]
            G[:n] += kb
            G[n:] -= kb
        return G

    def solve(self) -> tuple[np.ndarray, float, int]:
        """Run SMO with shrinking. Returns (a, rho, n_iter); bias = -rho.

        The solver iterates on a shrinking *active set*: variables pinned
        at a bound with no prospect of violating the KKT conditions are
        dropped from the working-set search. Whenever the active problem
        converges, the full gradient is reconstructed and the global KKT
        gap checked — shrinking is a heuristic; the final answer always
        satisfies the full-problem stopping rule (or the iteration cap).

        An *epoch* is the run of iterations between two shrink or
        unshrink steps; the active set is fixed within it. The inner
        loop keeps the ``up``/``low`` feasibility masks across
        iterations and patches them at ``i`` and ``j`` only, takes Q's
        columns from a per-epoch cache of signed columns with the
        ``z_i``/``z_j`` signs folded into scalar multipliers, and does
        the two-variable update on Python floats. None of this changes
        the arithmetic: ``(a, rho, n_iter)`` equal, byte for byte, those
        of a loop that rebuilds every mask and column on every iteration
        (``docs/PERFORMANCE.md``, "SMO solver inner loop").
        """
        n = self.n
        m2 = 2 * n
        a = np.zeros(m2)
        G = self.p.copy()  # gradient of the objective at a = 0
        z = self.z
        C = float(self.C)  # the pair update keeps a as Python floats
        tol = self.tol
        n_iter = 0
        neg_inf = -np.inf

        active = np.arange(m2)
        while True:
            # Views over the active set (copied; written back on exit).
            act_mod = active % n
            za = z[active]
            nza = -za
            aa = a[active]
            Ga = G[active]
            QDa = self.QD[active]
            pos = za > 0
            # Feasibility masks, patched at i and j after each pair step.
            up_mask = np.where(pos, aa < C, aa > 0.0)
            low_mask = np.where(pos, aa > 0.0, aa < C)
            # Scalar access goes through Python lists within the epoch.
            al = aa.tolist()
            zl = za.tolist()
            tl = act_mod.tolist()
            qdl = QDa.tolist()
            columns: dict[int, np.ndarray] = {}
            budget = self.SHRINK_PERIOD
            converged_active = False
            last_m = np.inf
            last_M = -np.inf

            while n_iter < self.max_iter and budget > 0:
                g = nza * Ga
                up_vals = np.where(up_mask, g, neg_inf)
                i = int(up_vals.argmax())
                g_i = up_vals.item(i)
                low_vals = np.where(low_mask, g, np.inf)
                last_m = g_i
                # The minimum up to the sign of a zero, which only ever
                # enters comparisons.
                last_M = low_vals.item(low_vals.argmin())
                if g_i - last_M < tol:
                    converged_active = True
                    break
                n_iter += 1
                budget -= 1

                # Second-order working-set selection (LIBSVM WSS2).
                # Q's column i is z_i * Si; z_i = +-1 flips signs exactly.
                zi = zl[i]
                Si = columns.get(tl[i])
                if Si is None:
                    Si = self._epoch_column(columns, tl[i], act_mod, za)
                # Outside the low set b_t = g_i - inf, never positive, so
                # b_t > 0 selects exactly the low entries below g_i.
                b_t = g_i - low_vals
                denom = qdl[i] + QDa - (2.0 * zi) * Si
                np.maximum(denom, _TAU, out=denom)
                # j = first argmax of b^2 / denom over the candidates,
                # i.e. the first argmin of the objective change -b^2/denom.
                obj = np.where(b_t > 0.0, (b_t * b_t) / denom, neg_inf)
                j = int(obj.argmax())
                zj = zl[j]
                Sj = columns.get(tl[j])
                if Sj is None:
                    Sj = self._epoch_column(columns, tl[j], act_mod, za)
                ai = old_ai = al[i]
                aj = old_aj = al[j]
                Gi = Ga.item(i)
                Gj = Ga.item(j)

                if zi != zj:
                    quad = zi * Si.item(i) + zj * Sj.item(j) + 2.0 * (zi * Si.item(j))
                    if quad <= 0.0:
                        quad = _TAU
                    delta = (-Gi - Gj) / quad
                    diff = ai - aj
                    ai += delta
                    aj += delta
                    if diff > 0.0:
                        if aj < 0.0:
                            aj = 0.0
                            ai = diff
                    else:
                        if ai < 0.0:
                            ai = 0.0
                            aj = -diff
                    if diff > 0.0:  # C_i == C_j == C
                        if ai > C:
                            ai = C
                            aj = C - diff
                    else:
                        if aj > C:
                            aj = C
                            ai = C + diff
                else:
                    quad = zi * Si.item(i) + zj * Sj.item(j) - 2.0 * (zi * Si.item(j))
                    if quad <= 0.0:
                        quad = _TAU
                    delta = (Gi - Gj) / quad
                    total = ai + aj
                    ai -= delta
                    aj += delta
                    if total > C:
                        if ai > C:
                            ai = C
                            aj = total - C
                    else:
                        if aj < 0.0:
                            aj = 0.0
                            ai = total
                    if total > C:
                        if aj > C:
                            aj = C
                            ai = total - C
                    else:
                        if ai < 0.0:
                            ai = 0.0
                            aj = total
                al[i] = ai
                al[j] = aj
                up_mask[i] = ai < C if zi > 0.0 else ai > 0.0
                low_mask[i] = ai > 0.0 if zi > 0.0 else ai < C
                up_mask[j] = aj < C if zj > 0.0 else aj > 0.0
                low_mask[j] = aj > 0.0 if zj > 0.0 else aj < C

                # Incremental gradient update on the active set.
                Ga += Si * (zi * (ai - old_ai)) + Sj * (zj * (aj - old_aj))

            # Write the active block back into the full vectors.
            aa = np.array(al)
            a[active] = aa
            G[active] = Ga

            if converged_active or n_iter >= self.max_iter:
                # Unshrink: rebuild the full gradient and re-check globally.
                G = self._full_gradient(a)
                g = -(z * G)
                up_mask = np.where(z > 0, a < C, a > 0.0)
                low_mask = np.where(z > 0, a > 0.0, a < C)
                g_max = float(np.max(np.where(up_mask, g, neg_inf)))
                g_min = float(np.min(np.where(low_mask, g, np.inf)))
                self.converged = g_max - g_min < tol
                if self.converged or n_iter >= self.max_iter:
                    break
                active = np.arange(m2)  # restart on the full problem
                continue

            # Shrink: keep free variables and bound variables that can
            # still violate the KKT conditions at the current (m, M).
            g = nza * Ga
            free = (aa > 0.0) & (aa < C)
            keep = free | (up_mask & (g > last_M)) | (low_mask & (g < last_m))
            if keep.sum() < 2:
                keep[:] = True
            active = active[keep]

        rho = self._calculate_rho(a, G)
        return a, rho, n_iter

    def _calculate_rho(self, a: np.ndarray, G: np.ndarray) -> float:
        """LIBSVM rho: average z*G over free variables, else midpoint."""
        zG = self.z * G
        free = (a > 0.0) & (a < self.C)
        if free.any():
            return float(zG[free].mean())
        at_upper = a >= self.C
        at_lower = a <= 0.0
        # Upper bound candidates: z=-1 at C, or z=+1 at 0.
        ub_mask = (at_upper & (self.z < 0)) | (at_lower & (self.z > 0))
        lb_mask = (at_upper & (self.z > 0)) | (at_lower & (self.z < 0))
        ub = float(zG[ub_mask].min()) if ub_mask.any() else np.inf
        lb = float(zG[lb_mask].max()) if lb_mask.any() else -np.inf
        if not np.isfinite(ub) or not np.isfinite(lb):
            return 0.0
        return (ub + lb) / 2.0


class SVR(Regressor):
    """Epsilon-insensitive Support Vector Regression.

    Parameters
    ----------
    C : float
        Box constraint (regularization strength; larger fits harder).
    epsilon : float
        Width of the insensitive tube in target units.
    kernel : {"rbf", "linear", "poly"}
    gamma : float or "scale"
        RBF/poly kernel coefficient; "scale" uses the LIBSVM
        ``1/(p * var(X))`` rule.
    degree, coef0 :
        Polynomial kernel parameters.
    tol : float
        KKT violation tolerance for the SMO stopping rule.
    max_iter : int
        Hard cap on SMO iterations.
    cache_columns : int
        Kernel-cache capacity (columns kept resident).

    Attributes
    ----------
    support_ : indices of support vectors (non-zero dual coefficients).
    dual_coef_ : beta values at the support vectors.
    intercept_ : float bias.
    n_iter_ : SMO iterations used.
    converged_ : False when ``max_iter`` stopped SMO with the final KKT
        gap still at or above ``tol``.
    """

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        kernel: str = "rbf",
        gamma: "float | str" = "scale",
        degree: int = 3,
        coef0: float = 1.0,
        tol: float = 1e-3,
        max_iter: int = 100_000,
        cache_columns: int = 512,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.C = C
        self.epsilon = epsilon
        self.kernel = kernel
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.tol = tol
        self.max_iter = max_iter
        self.cache_columns = cache_columns
        self.support_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self.converged_: bool = True

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVR":
        X, y = check_X_y(X, y)
        n = X.shape[0]
        gamma = resolve_gamma(self.gamma, X)
        params = dict(gamma=gamma, degree=self.degree, coef0=self.coef0)
        self._kernel = resolve_kernel(self.kernel, **params)
        cache = _KernelColumnCache(X, self._kernel, max_columns=self.cache_columns)
        p = np.concatenate([self.epsilon - y, self.epsilon + y])
        z = np.concatenate([np.ones(n), -np.ones(n)])
        k_diag = resolve_kernel_diag(self.kernel, **params)(X)
        solver = _SMOSolver(
            cache, n, p, z, self.C, self.tol, self.max_iter, k_diag
        )
        a, rho, self.n_iter_ = solver.solve()
        self.converged_ = solver.converged
        if not self.converged_:
            get_metrics().inc("ml.solver_capped_total.svr")
        beta = a[:n] - a[n:]
        support = np.flatnonzero(np.abs(beta) > 1e-12)
        self.support_ = support
        self.support_vectors_ = X[support]
        self.dual_coef_ = beta[support]
        self.intercept_ = -rho
        self._n_features = X.shape[1]
        self._gamma_ = gamma
        # Support vectors are frozen at fit time, so their squared norms
        # (half of the RBF distance expansion) are too.
        self._sv_sq_norms_ = (
            squared_norms(self.support_vectors_) if self.kernel == "rbf" else None
        )
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # resolve_kernel returns a closure (unpicklable); predict
        # rebuilds it on demand from the stored hyperparameters.
        state.pop("_kernel", None)
        return state

    def kernel_expansion(self) -> KernelExpansion:
        """The fitted dual form, for the serving compiler
        (:mod:`repro.ml.serving`)."""
        check_is_fitted(self, "dual_coef_")
        return KernelExpansion(
            ref=self.support_vectors_,
            coef=self.dual_coef_,
            intercept=self.intercept_,
            kernel=self.kernel,
            gamma=self._gamma_,
            degree=self.degree,
            coef0=self.coef0,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "dual_coef_")
        X = check_array(X)
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted on {self._n_features}"
            )
        if self.support_.size == 0:
            return np.full(X.shape[0], self.intercept_)
        # getattr: models pickled before norm caching lack the attribute
        sv_sq = getattr(self, "_sv_sq_norms_", None)
        if self.kernel == "rbf" and sv_sq is not None:
            K = rbf_kernel(
                X, self.support_vectors_, gamma=self._gamma_, sq_y=sv_sq
            )
        else:
            kernel = getattr(self, "_kernel", None)
            if kernel is None:  # unpickled model: rebuild the closure
                kernel = self._kernel = resolve_kernel(
                    self.kernel,
                    gamma=self._gamma_,
                    degree=self.degree,
                    coef0=self.coef0,
                )
            K = kernel(X, self.support_vectors_)
        return K @ self.dual_coef_ + self.intercept_
