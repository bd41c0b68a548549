"""Reference SMO inner loop for the SVR equivalence battery.

``ReferenceSMOSolver.solve`` is the loop :class:`repro.ml.svr._SMOSolver`
ran before its inner loop was rewritten for speed, kept verbatim: masks
rebuilt from ``aa`` and both signed kernel columns gathered on every
iteration, the two-variable update done on numpy scalars. The
production solver must reproduce its ``(a, rho, n_iter)`` byte for
byte on every input (``test_smo_equivalence``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.svr import _TAU, _SMOSolver


class ReferenceSMOSolver(_SMOSolver):
    """``_SMOSolver`` with the original per-iteration loop."""

    def _q_column_active(
        self, t_global: int, active_mod: np.ndarray, z_active: np.ndarray
    ) -> np.ndarray:
        """Entries ``Q[active, t]`` without materializing Q.

        ``Q[s, t] = z_s z_t K[s%n, t%n]``; one cached kernel column serves
        both blocks.
        """
        col = self.cache.column(t_global % self.n)
        return (self.z[t_global] * z_active) * col[active_mod]

    def solve(self) -> tuple[np.ndarray, float, int]:
        m2 = 2 * self.n
        a = np.zeros(m2)
        G = self.p.copy()  # gradient of the objective at a = 0
        z = self.z
        C = self.C
        tol = self.tol
        n_iter = 0
        neg_inf = -np.inf

        active = np.arange(m2)
        while True:
            # Views over the active set (copied; written back on exit).
            act_mod = active % self.n
            za = z[active]
            aa = a[active]
            Ga = G[active]
            QDa = self.QD[active]
            pos = za > 0
            budget = self.SHRINK_PERIOD
            converged_active = False
            last_m = np.inf
            last_M = -np.inf

            while n_iter < self.max_iter and budget > 0:
                g = -(za * Ga)
                up_mask = np.where(pos, aa < C, aa > 0.0)
                low_mask = np.where(pos, aa > 0.0, aa < C)
                up_vals = np.where(up_mask, g, neg_inf)
                i = int(np.argmax(up_vals))
                g_i = float(up_vals[i])
                low_vals = np.where(low_mask, g, np.inf)
                last_m, last_M = g_i, float(np.min(low_vals))
                if g_i - last_M < tol:
                    converged_active = True
                    break
                n_iter += 1
                budget -= 1

                # Second-order working-set selection (LIBSVM WSS2).
                Qi = self._q_column_active(int(active[i]), act_mod, za)
                b_t = g_i - g
                cand = low_mask & (b_t > 0.0)
                denom = QDa[i] + QDa - 2.0 * Qi
                np.maximum(denom, _TAU, out=denom)
                obj = np.where(cand, -(b_t * b_t) / denom, np.inf)
                j = int(np.argmin(obj))
                Qj = self._q_column_active(int(active[j]), act_mod, za)
                old_ai, old_aj = aa[i], aa[j]

                if za[i] != za[j]:
                    quad = Qi[i] + Qj[j] + 2.0 * Qi[j]
                    if quad <= 0.0:
                        quad = _TAU
                    delta = (-Ga[i] - Ga[j]) / quad
                    diff = aa[i] - aa[j]
                    aa[i] += delta
                    aa[j] += delta
                    if diff > 0.0:
                        if aa[j] < 0.0:
                            aa[j] = 0.0
                            aa[i] = diff
                    else:
                        if aa[i] < 0.0:
                            aa[i] = 0.0
                            aa[j] = -diff
                    if diff > 0.0:  # C_i == C_j == C
                        if aa[i] > C:
                            aa[i] = C
                            aa[j] = C - diff
                    else:
                        if aa[j] > C:
                            aa[j] = C
                            aa[i] = C + diff
                else:
                    quad = Qi[i] + Qj[j] - 2.0 * Qi[j]
                    if quad <= 0.0:
                        quad = _TAU
                    delta = (Ga[i] - Ga[j]) / quad
                    total = aa[i] + aa[j]
                    aa[i] -= delta
                    aa[j] += delta
                    if total > C:
                        if aa[i] > C:
                            aa[i] = C
                            aa[j] = total - C
                    else:
                        if aa[j] < 0.0:
                            aa[j] = 0.0
                            aa[i] = total
                    if total > C:
                        if aa[j] > C:
                            aa[j] = C
                            aa[i] = total - C
                    else:
                        if aa[i] < 0.0:
                            aa[i] = 0.0
                            aa[j] = total

                # Incremental gradient update on the active set.
                Ga += Qi * (aa[i] - old_ai) + Qj * (aa[j] - old_aj)

            # Write the active block back into the full vectors.
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
                if g_max - g_min < tol or n_iter >= self.max_iter:
                    break
                active = np.arange(m2)  # restart on the full problem
                continue

            # Shrink: keep free variables and bound variables that can
            # still violate the KKT conditions at the current (m, M).
            g = -(za * Ga)
            free = (aa > 0.0) & (aa < C)
            up_mask = np.where(pos, aa < C, aa > 0.0)
            low_mask = np.where(pos, aa > 0.0, aa < C)
            keep = free | (up_mask & (g > last_M)) | (low_mask & (g < last_m))
            if keep.sum() < 2:
                keep[:] = True
            active = active[keep]

        rho = self._calculate_rho(a, G)
        return a, rho, n_iter
