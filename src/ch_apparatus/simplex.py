"""Dense one-phase simplex for the one linear program of the package.

The program asks whether a vector v is a convex mixture of the columns of a
matrix M (d rows, k columns): minimize t subject to

    M w - t <= v,   -M w - t <= -v,   sum(w) = 1,   w >= 0,

so its optimum t is the smallest largest residual |M w - v| over the mixture
weights w.  In standard form the tableau has 2d + 1 rows, the d upper bounds,
the d lower bounds and the sum, and its columns are the k weights, t and one
slack per bound row; there are no artificial columns.

The program is feasible by construction, so the start is built rather than
searched for.  The slacks start basic in the bound rows, and the sum row is
pivoted onto the weight of the column e_j nearest v in the largest entry,
which leaves v - M e_j and M e_j - v as the bound rows' right-hand sides.
Then t enters at the most negative of them, -max|M e_j - v|, which adds that
largest residual to every bound row and so leaves every right-hand side
nonnegative: the start is the feasible vertex w = e_j, t = max|M e_j - v|,
and one phase with cost t finishes the job.

Bland's rule everywhere, so the method cannot cycle; the programs are tiny
(tens of rows), so a dense tableau recomputing reduced costs per pivot is
plenty fast and easy to audit.  A pivot is one rank-1 update of the rows
with a nonzero entry in its column, bitwise equal to eliminating row by row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_PIVOT_TOL = 1e-10
# Pivots before giving up with "iteration-limit".
_MAX_ITER = 20000

__all__ = ["LpResult", "solve_lp"]


class LpResult(NamedTuple):
    # "optimal"; any other status ("unbounded", "iteration-limit") can only
    # come from rounding: the crash start is feasible, and t is bounded
    # below by 0.
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
    rows = np.zeros((bounds + 1, k + 1 + bounds))
    rows[:d, :k] = matrix
    rows[d:bounds, :k] = -matrix
    rows[:bounds, k] = -1.0
    rows[bounds, :k] = 1.0
    rows[:bounds, k + 1 :] = np.eye(bounds)
    rhs = np.concatenate([vector, -vector, [1.0]])
    # the sum row has no slack; the crash pivot below gives it its column
    basis = [*range(k + 1, k + 1 + bounds), -1]

    # crash start: the best pure strategy, with t its largest residual
    best = int(np.abs(matrix - vector[:, None]).max(axis=0).argmin())
    _pivot(rows, rhs, basis, bounds, best)
    _pivot(rows, rhs, basis, int(rhs[:bounds].argmin()), k)

    cost = np.zeros(rows.shape[1])
    cost[k] = 1.0
    status = _iterate(rows, rhs, basis, cost)
    if status != "optimal":
        return LpResult(status, None)
    weights = np.zeros(k)
    for i, b in enumerate(basis):
        if b < k:
            weights[b] = max(rhs[i], 0.0)
    return LpResult("optimal", weights)
