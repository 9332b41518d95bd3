"""Dense two-phase simplex for small linear programs.

Solves  minimize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.
Bland's rule everywhere, so the method cannot cycle; problems here are tiny
(tens of rows), so a dense tableau recomputing reduced costs per pivot is
plenty fast and easy to audit.  A pivot is one rank-1 update of the rows
with a nonzero entry in its column, bitwise equal to eliminating row by row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9
# Pivots per phase before giving up with "iteration-limit".
_MAX_ITER = 20000

__all__ = ["LpResult", "solve_lp"]


class LpResult(NamedTuple):
    status: str  # "optimal", "infeasible", "unbounded", "iteration-limit"
    x: np.ndarray | None
    objective: float | None


def _pivot(rows: np.ndarray, rhs: np.ndarray, basis: list[int], row: int, col: int) -> None:
    piv = rows[row, col]
    rows[row] /= piv
    rhs[row] /= piv
    factor = rows[:, col].copy()
    factor[row] = 0.0
    nz = np.flatnonzero(factor)
    rows[nz] -= factor[nz, None] * rows[row]
    rhs[nz] -= factor[nz] * rhs[row]
    basis[row] = col


def _iterate(
    rows: np.ndarray,
    rhs: np.ndarray,
    basis: list[int],
    cost: np.ndarray,
    allowed: np.ndarray,
) -> str:
    for _ in range(_MAX_ITER):
        reduced = cost - cost[basis] @ rows
        reduced[~allowed] = 0.0
        entering = -1
        for j in np.flatnonzero(reduced < -_PIVOT_TOL):
            entering = int(j)
            break
        if entering < 0:
            return "optimal"
        col = rows[:, entering]
        candidates = np.flatnonzero(col > _PIVOT_TOL)
        if candidates.size == 0:
            return "unbounded"
        ratios = rhs[candidates] / col[candidates]
        best = ratios.min()
        # Bland tie-break: smallest basis column index among minimal ratios
        leaving = min(
            (int(i) for i in candidates[ratios <= best + _PIVOT_TOL]),
            key=lambda i: basis[i],
        )
        _pivot(rows, rhs, basis, leaving, entering)
    return "iteration-limit"


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> LpResult:
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    blocks = []
    if a_ub is not None:
        blocks.append((np.atleast_2d(np.asarray(a_ub, dtype=np.float64)), np.atleast_1d(b_ub), True))
    if a_eq is not None:
        blocks.append((np.atleast_2d(np.asarray(a_eq, dtype=np.float64)), np.atleast_1d(b_eq), False))
    if not blocks:
        if (c < 0.0).any():
            return LpResult("unbounded", None, None)
        return LpResult("optimal", np.zeros(n), 0.0)

    body = []
    rhs_parts = []
    slack_flags = []
    for a, b, is_ub in blocks:
        body.append(a)
        rhs_parts.append(np.asarray(b, dtype=np.float64))
        slack_flags.extend([is_ub] * a.shape[0])
    a_all = np.vstack(body)
    rhs = np.concatenate(rhs_parts).copy()
    m = a_all.shape[0]

    n_slack = sum(slack_flags)
    rows = np.zeros((m, n + n_slack + m))
    rows[:, :n] = a_all
    s = 0
    for i, is_ub in enumerate(slack_flags):
        if is_ub:
            rows[i, n + s] = 1.0
            s += 1
    # sign-normalize so every right-hand side is nonnegative
    for i in range(m):
        if rhs[i] < 0.0:
            rows[i] *= -1.0
            rhs[i] *= -1.0
    art0 = n + n_slack
    for i in range(m):
        rows[i, art0 + i] = 1.0

    basis = [art0 + i for i in range(m)]
    cost1 = np.zeros(n + n_slack + m)
    cost1[art0:] = 1.0
    allowed = np.ones(n + n_slack + m, dtype=bool)

    status = _iterate(rows, rhs, basis, cost1, allowed)
    if status != "optimal":
        return LpResult(status, None, None)
    if float(cost1[basis] @ rhs) > _FEAS_TOL:
        return LpResult("infeasible", None, None)

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= art0:
            pivots = np.flatnonzero(np.abs(rows[i, :art0]) > _PIVOT_TOL)
            if pivots.size:
                _pivot(rows, rhs, basis, i, int(pivots[0]))
            else:
                keep[i] = False
    if not keep.all():
        rows = rows[keep]
        rhs = rhs[keep]
        basis = [b for b, k in zip(basis, keep) if k]

    allowed[art0:] = False
    cost2 = np.zeros(n + n_slack + m)
    cost2[:n] = c
    status = _iterate(rows, rhs, basis, cost2, allowed)
    if status != "optimal":
        return LpResult(status, None, None)

    x = np.zeros(n)
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rhs[i]
    return LpResult("optimal", x, float(c @ x))
