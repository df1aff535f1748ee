"""Bounded-variable revised simplex for equality-form LPs.

Solves min c'x s.t. Ax = b, l <= x <= u with a two-phase method:
artificial columns give the starting basis, phase 1 drives their sum to
zero, phase 2 optimizes the true objective with artificials pinned at zero.
Pricing is Dantzig with a Bland fallback after a stall, which guarantees
termination under degeneracy. Dense algebra throughout: this is the
reference engine that tests compare HiGHS against, not a production solver.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .solve import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, UNBOUNDED


def _initial_point(lower, upper):
    """Each variable at its finite bound nearest zero; free variables at 0."""
    x = np.zeros(len(lower))
    for j, (lo, hi) in enumerate(zip(lower, upper)):
        if np.isfinite(lo) and np.isfinite(hi):
            x[j] = lo if abs(lo) <= abs(hi) else hi
        elif np.isfinite(lo):
            x[j] = lo
        elif np.isfinite(hi):
            x[j] = hi
    return x


class _Tableau:
    def __init__(self, a, b, c, lower, upper, basis, x, feas_tol, opt_tol):
        self.a = a
        self.b = b
        self.c = c
        self.lower = lower
        self.upper = upper
        self.basis = basis
        self.x = x
        self.feas_tol = feas_tol
        self.opt_tol = opt_tol
        self.iterations = 0

    def _refresh_basics(self, lu):
        nonbasic = np.setdiff1d(np.arange(self.a.shape[1]), self.basis,
                                assume_unique=False)
        rhs = self.b - self.a[:, nonbasic] @ self.x[nonbasic]
        self.x[self.basis] = scipy.linalg.lu_solve(lu, rhs)

    def run(self, max_iter):
        m, n = self.a.shape
        stall = 0
        bland = False
        last_obj = np.inf
        while self.iterations < max_iter:
            self.iterations += 1
            basis = self.basis
            lu = scipy.linalg.lu_factor(self.a[:, basis])
            self._refresh_basics(lu)

            y = scipy.linalg.lu_solve(lu, self.c[basis], trans=1)
            reduced = self.c - self.a.T @ y
            in_basis = np.zeros(n, dtype=bool)
            in_basis[basis] = True

            at_lower = np.abs(self.x - self.lower) <= self.feas_tol
            at_upper = np.abs(self.x - self.upper) <= self.feas_tol
            free = ~np.isfinite(self.lower) & ~np.isfinite(self.upper)
            movable = ~in_basis & (self.upper > self.lower)
            can_increase = movable & (at_lower | free) & (reduced < -self.opt_tol)
            can_decrease = movable & (at_upper | free) & (reduced > self.opt_tol)
            eligible = np.flatnonzero(can_increase | can_decrease)
            if not len(eligible):
                return OPTIMAL

            if bland:
                enter = int(eligible[0])
            else:
                enter = int(eligible[np.argmax(np.abs(reduced[eligible]))])
            sigma = 1.0 if can_increase[enter] else -1.0

            w = scipy.linalg.lu_solve(lu, self.a[:, enter])
            step, leave = self._ratio_test(enter, sigma, w, bland)
            if step is None:
                return UNBOUNDED

            self.x[enter] += sigma * step
            self.x[basis] -= sigma * step * w
            if leave is not None:
                out = basis[leave]
                # snap the leaving variable exactly onto its bound
                delta = -sigma * w[leave]
                self.x[out] = self.lower[out] if delta < 0 else self.upper[out]
                basis[leave] = enter

            obj = float(self.c @ self.x)
            if obj < last_obj - self.opt_tol * max(1.0, abs(last_obj)):
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > 2 * n:
                    bland = True
            last_obj = obj
        return ITERATION_LIMIT

    def _ratio_test(self, enter, sigma, w, bland):
        """Max step for the entering variable; returns (step, leaving_row).

        Ties go to the largest pivot magnitude for stability, or to the
        smallest variable index in Bland mode (anti-cycling).
        """
        best = np.inf
        leave = None
        span = self.upper[enter] - self.lower[enter]  # bound-flip limit
        if np.isfinite(span):
            best = span
        for i, var in enumerate(self.basis):
            delta = -sigma * w[i]  # d x_basic / d t
            if delta < -self.feas_tol:
                if np.isfinite(self.lower[var]):
                    limit = (self.x[var] - self.lower[var]) / -delta
                else:
                    continue
            elif delta > self.feas_tol:
                if np.isfinite(self.upper[var]):
                    limit = (self.upper[var] - self.x[var]) / delta
                else:
                    continue
            else:
                continue
            limit = max(limit, 0.0)
            if limit < best - 1e-12:
                best, leave = limit, i
            elif leave is not None and limit <= best + 1e-12:
                if bland:
                    if self.basis[i] < self.basis[leave]:
                        leave = i
                elif abs(w[i]) > abs(w[leave]):
                    leave = i
        if not np.isfinite(best):
            return None, None
        return best, leave


def simplex_solve(c, a, b, lower, upper, feas_tol=1e-7, opt_tol=1e-7,
                  max_iter=None):
    """Two-phase bounded simplex on min c'x s.t. ax = b, lower <= x <= upper.

    Returns (status, x, objective, iterations).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, n = a.shape
    if max_iter is None:
        max_iter = 50 * (n + m) + 1000

    x0 = _initial_point(lower, upper)
    residual = b - a @ x0
    art_sign = np.where(residual >= 0, 1.0, -1.0)
    a_full = np.hstack([a, np.diag(art_sign)])
    x = np.concatenate([x0, np.abs(residual)])
    lo = np.concatenate([lower, np.zeros(m)])
    hi = np.concatenate([upper, np.full(m, np.inf)])

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    tab = _Tableau(a_full, b, c1, lo, hi, basis, x, feas_tol, opt_tol)
    status = tab.run(max_iter)
    if status == ITERATION_LIMIT:
        return ITERATION_LIMIT, x[:n], float(c @ x[:n]), tab.iterations
    art_level = float(x[n:].sum())
    if art_level > feas_tol * max(1.0, float(np.abs(b).sum())):
        return INFEASIBLE, x[:n], float("nan"), tab.iterations

    # phase 2: pin artificials at zero, restore the true objective
    hi[n:] = 0.0
    x[n:] = np.maximum(x[n:], 0.0)
    c2 = np.concatenate([c, np.zeros(m)])
    tab2 = _Tableau(a_full, b, c2, lo, hi, basis, x, feas_tol, opt_tol)
    status = tab2.run(max_iter)
    iters = tab.iterations + tab2.iterations
    if status == OPTIMAL:
        return OPTIMAL, x[:n], float(c @ x[:n]), iters
    return status, x[:n], float(c @ x[:n]), iters
