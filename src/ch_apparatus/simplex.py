"""Dense two-phase simplex for the one linear program of the package.

The program asks whether a vector v is a convex mixture of the columns of a
matrix M (d rows, k columns): minimize t subject to

    M w - t <= v,   -M w - t <= -v,   sum(w) = 1,   w >= 0,

so its optimum t is the smallest largest residual |M w - v| over the mixture
weights w.  In standard form the tableau has 2d + 1 rows, the d upper bounds,
the d lower bounds and the sum, each row negated where its right-hand side is
negative, and its columns are the k weights, t, one slack per bound row and
one artificial per row.  Each bound row has its own slack and the sum row is
nonzero, so no row is ever redundant.

Bland's rule everywhere, so the method cannot cycle; the programs are tiny
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
    # "optimal"; any other status ("infeasible", "unbounded",
    # "iteration-limit") can only come from rounding: every mixture with t
    # its largest residual is feasible, and t is bounded below by 0.
    status: str
    weights: np.ndarray | None


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


def _iterate(rows: np.ndarray, rhs: np.ndarray, basis: list[int], cost: np.ndarray) -> str:
    for _ in range(_MAX_ITER):
        reduced = cost - cost[basis] @ rows
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


def solve_lp(matrix: np.ndarray, vector: np.ndarray) -> LpResult:
    """The mixture weights w >= 0, sum(w) = 1, that minimize the largest
    entry of |matrix @ w - vector|."""
    d, k = matrix.shape
    bounds = 2 * d
    art0 = k + 1 + bounds
    rows = np.zeros((bounds + 1, art0 + bounds + 1))
    rows[:d, :k] = matrix
    rows[d:bounds, :k] = -matrix
    rows[:bounds, k] = -1.0
    rows[bounds, :k] = 1.0
    rows[:bounds, k + 1 : art0] = np.eye(bounds)
    rhs = np.concatenate([vector, -vector, [1.0]])
    # sign-normalize so every right-hand side is nonnegative
    negative = rhs < 0.0
    rows[negative] *= -1.0
    rhs[negative] *= -1.0
    basis = list(range(art0, art0 + bounds + 1))
    rows[range(bounds + 1), basis] = 1.0

    cost = np.zeros(rows.shape[1])
    cost[art0:] = 1.0
    status = _iterate(rows, rhs, basis, cost)
    if status != "optimal":
        return LpResult(status, None)
    if float(cost[basis] @ rhs) > _FEAS_TOL:
        return LpResult("infeasible", None)
    # drive leftover artificials out of the basis; a row with no other entry
    # would be redundant, which this program's rows never are
    for i in range(bounds + 1):
        if basis[i] >= art0:
            pivots = np.flatnonzero(np.abs(rows[i, :art0]) > _PIVOT_TOL)
            if not pivots.size:
                return LpResult("infeasible", None)
            _pivot(rows, rhs, basis, i, int(pivots[0]))

    cost = np.zeros(art0)
    cost[k] = 1.0
    status = _iterate(rows[:, :art0], rhs, basis, cost)
    if status != "optimal":
        return LpResult(status, None)
    weights = np.zeros(k)
    for i, b in enumerate(basis):
        if b < k:
            weights[b] = rhs[i]
    return LpResult("optimal", weights)
