"""Local-hidden-variable feasibility of two-party behavior tables.

A behavior table gives a 2x2 outcome distribution for each of the four
setting pairs.  It admits a local model exactly when it is a convex mixture
of the sixteen deterministic strategies; this module decides that question
two independent ways, by linear programming over the strategy mixtures and
by the full battery of CH inequalities, which agree on no-signaling tables.

The settings are the two-stop setups of apparatus in TWO_STOP_SETUPS order,
with its CELLS.  Which side of a setting is primed comes from its stop lines
through one table, _PRIMED; no setting label is parsed or built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, NamedTuple

import numpy as np

from .apparatus import _SETUP_LINES, CELLS, TWO_STOP_SETUPS, _not_a_count, _not_a_number
from .exact_engine import ConsistencyError
from .simplex import solve_lp

SETTINGS = TWO_STOP_SETUPS

# Each setting's (left primed, right primed) flags from its stop lines (A' is
# line 1, B' line 3), and the setting of each pair of flags.
_PRIMED = {s: (_SETUP_LINES[s][0], _SETUP_LINES[s][1] - 2) for s in SETTINGS}
_SETTING = {primed: s for s, primed in _PRIMED.items()}

# The one-side marginals that no-signaling equates, as (their two cells, one
# setting, the other): left across the right setting, then right across left.
_NS_PAIRS = [(("11", "10"), _SETTING[x, 0], _SETTING[x, 1]) for x in (0, 1)]
_NS_PAIRS += [(("11", "01"), _SETTING[0, y], _SETTING[1, y]) for y in (0, 1)]

NORM_TOL = 1e-9

__all__ = [
    "SETTINGS",
    "NORM_TOL",
    "DeterministicStrategy",
    "BehaviorTable",
    "FeasibilityResult",
    "BatteryResult",
    "enumerate_strategies",
    "strategy_table",
    "mixture_table",
    "no_signaling_deviation",
    "feasible_joint",
    "ch_battery",
    "pr_box_table",
    "singlet_table",
    "random_no_signaling_table",
]


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcome (0 or 1) for every local setting."""

    a: int
    a_prime: int
    b: int
    b_prime: int

    def left(self, setting: str) -> int:
        return self.a_prime if _PRIMED[setting][0] else self.a

    def right(self, setting: str) -> int:
        return self.b_prime if _PRIMED[setting][1] else self.b


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All sixteen strategies, in binary counting order on (a, a', b, b')."""
    return [
        DeterministicStrategy((k >> 3) & 1, (k >> 2) & 1, (k >> 1) & 1, k & 1)
        for k in range(16)
    ]


@dataclass(frozen=True)
class BehaviorTable:
    """Outcome distributions per setting pair, cells keyed by CELLS; checked when built."""

    tables: dict[str, dict[str, float]]

    def validate(self) -> "BehaviorTable":
        for setting in SETTINGS:
            table = self.tables.get(setting, {})
            if any(map(_not_a_number, map(table.get, CELLS))):
                raise ValueError(
                    f"cells for setting {setting!r} must be finite: a number in each of {CELLS!r}, got {table!r}"
                )
            if any(table[c] < -NORM_TOL for c in CELLS):
                raise ValueError(f"cells for setting {setting!r} must be nonnegative: {table!r}")
            if abs(sum(table[c] for c in CELLS) - 1.0) > NORM_TOL:
                raise ValueError(f"cells for setting {setting!r} must sum to 1: {table!r}")
        return self
    __post_init__ = validate

    def left_marginal(self, setting: str) -> float:
        t = self.tables[setting]
        return t["11"] + t["10"]

    def right_marginal(self, setting: str) -> float:
        t = self.tables[setting]
        return t["11"] + t["01"]

    def vector(self) -> np.ndarray:
        return np.array([self.tables[s][c] for s in SETTINGS for c in CELLS])

    @classmethod
    def from_vector(cls, vec: Iterable[float]) -> "BehaviorTable":
        values = list(map(float, vec))
        tables = {
            s: dict(zip(CELLS, values[4 * i : 4 * i + 4])) for i, s in enumerate(SETTINGS)
        }
        return cls(tables=tables)

    @classmethod
    def from_full_tables(cls, full_tables: dict[str, dict[str, float]]) -> "BehaviorTable":
        return cls(tables={s: dict(table) for s, table in full_tables.items()})


def strategy_table(strategy: DeterministicStrategy) -> BehaviorTable:
    tables = {}
    for setting in SETTINGS:
        cell = f"{strategy.left(setting)}{strategy.right(setting)}"
        tables[setting] = {c: 1.0 if c == cell else 0.0 for c in CELLS}
    return BehaviorTable(tables=tables)


def mixture_table(weights: Iterable[float]) -> BehaviorTable:
    """Convex mixture of the sixteen strategies in canonical order."""
    w = np.asarray(list(weights), dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite: {w.tolist()!r}")
    if w.size != 16 or w.min() < -NORM_TOL or abs(w.sum() - 1.0) > NORM_TOL:
        raise ValueError("weights must be 16 nonnegative numbers summing to 1")
    vec = _strategy_matrix() @ w
    return BehaviorTable.from_vector(vec)


@cache
def _strategy_matrix() -> np.ndarray:
    return np.column_stack([strategy_table(s).vector() for s in enumerate_strategies()])


def no_signaling_deviation(table: BehaviorTable) -> float:
    """Largest shift of a one-side marginal caused by the remote setting."""
    t = table.tables
    return max(abs((t[s][c] + t[s][d]) - (t[u][c] + t[u][d])) for (c, d), s, u in _NS_PAIRS)


class FeasibilityResult(NamedTuple):
    feasible: bool
    max_residual: float
    weights: tuple[float, ...] | None


def feasible_joint(table: BehaviorTable) -> FeasibilityResult:
    """Decide membership in the local polytope by linear programming.

    Minimizes the largest entry-wise residual between the table, checked
    when built, and a mixture of the sixteen strategies; the table is feasible
    when that minimum is at most NORM_TOL, and the optimal weights are the witness.
    """
    m, v = _strategy_matrix(), table.vector()
    result = solve_lp(m, v)
    if result.status != "optimal":
        raise ConsistencyError(f"feasibility program ended with status {result.status!r}")
    weights = result.weights
    residual = float(np.abs(m @ weights - v).max())
    feasible = residual <= NORM_TOL
    return FeasibilityResult(
        feasible=feasible,
        max_residual=residual,
        weights=tuple(float(w) for w in weights) if feasible else None,
    )


class BatteryResult(NamedTuple):
    values: dict[str, float]
    max_value: float
    passes: bool


def ch_battery(table: BehaviorTable) -> BatteryResult:
    """Evaluate every sign and relabeling image of the CH inequality.

    The eight entries are generated from the base combination by swapping
    the primed and unprimed settings on either side and by flipping to the
    lower bound; a table passes when every entry is at most zero (within
    NORM_TOL).  For no-signaling tables, passing is equivalent to local
    feasibility.  One-side marginals are averaged over the remote setting,
    unambiguous for no-signaling tables.  The table was checked when built.
    """
    joint = {primed: table.tables[s]["11"] for primed, s in _SETTING.items()}
    m_left = {x: 0.5 * (table.left_marginal(_SETTING[x, 0]) + table.left_marginal(_SETTING[x, 1])) for x in (0, 1)}
    m_right = {y: 0.5 * (table.right_marginal(_SETTING[0, y]) + table.right_marginal(_SETTING[1, y])) for y in (0, 1)}
    values: dict[str, float] = {}
    for swap_a in (0, 1):
        for swap_b in (0, 1):
            value = (
                joint[(swap_a, swap_b)]
                - joint[(swap_a, 1 ^ swap_b)]
                + joint[(1 ^ swap_a, swap_b)]
                + joint[(1 ^ swap_a, 1 ^ swap_b)]
                - m_left[1 ^ swap_a]
                - m_right[swap_b]
            )
            label = f"swap{'A' if swap_a else ''}{'B' if swap_b else ''}" if swap_a or swap_b else "base"
            values[f"{label}:upper"] = value
            values[f"{label}:lower"] = -1.0 - value
    max_value = max(values.values())
    return BatteryResult(values=values, max_value=max_value, passes=max_value <= NORM_TOL)


def pr_box_table(variant: int = 0) -> BehaviorTable:
    """Extremal no-signaling box: outcomes satisfy l xor r = x.y (variant 0).

    Demo plumbing for the feasibility routines.  The eight variants add the
    affine terms alpha.x, beta.y and a global flip.
    """
    if _not_a_count(variant) or not 0 <= variant < 8:
        raise ValueError(f"variant must be an integer in 0..7, got {variant!r}")
    alpha = (variant >> 2) & 1
    beta = (variant >> 1) & 1
    flip = variant & 1
    tables = {}
    for setting, (x, y) in _PRIMED.items():
        target = (x * y + alpha * x + beta * y + flip) % 2
        tables[setting] = {
            f"{l}{r}": 0.5 if (l ^ r) == target else 0.0 for l in (1, 0) for r in (1, 0)
        }
    return BehaviorTable(tables=tables)


def singlet_table() -> BehaviorTable:
    """Spin-singlet behavior at four analyzer angles (demo plumbing).

    Outcome 1 on each side has probability 1/2 and the joint probability is
    sin((alpha - beta) / 2)^2 / 2.  The angles a = 0, a' = pi/2, b = pi/4
    and b' = -pi/4 maximize the CH battery at (sqrt(2) - 1) / 2.
    """
    left, right = (0.0, 0.5 * math.pi), (0.25 * math.pi, -0.25 * math.pi)
    tables = {}
    for setting, (x, y) in _PRIMED.items():
        p11 = 0.5 * math.sin(0.5 * (left[x] - right[y])) ** 2
        tables[setting] = {"11": p11, "10": 0.5 - p11, "01": 0.5 - p11, "00": p11}
    return BehaviorTable(tables=tables)


@cache
def _ns_projector() -> np.ndarray:
    """Orthogonal projector onto the normalization/no-signaling null space."""

    # the cells of each setting, four in a row of vector(), sum to one
    rows = list(np.kron(np.eye(4), np.ones(4)))
    for cells, first, second in _NS_PAIRS:
        row = np.zeros((len(SETTINGS), len(CELLS)))
        columns = [CELLS.index(cell) for cell in cells]
        row[SETTINGS.index(first), columns] = 1.0
        row[SETTINGS.index(second), columns] = -1.0
        rows.append(row.ravel())
    a = np.vstack(rows)
    return np.eye(16) - np.linalg.pinv(a) @ a


def random_no_signaling_table(rng: np.random.Generator) -> BehaviorTable:
    """Random no-signaling table (test plumbing).

    Draws a strategy mixture, sometimes blends toward a random extremal box
    so both feasible and infeasible tables occur, then adds noise projected
    onto the no-signaling subspace, shrinking it until all cells stay
    nonnegative.
    """
    v = _strategy_matrix() @ rng.dirichlet(np.ones(16))
    if rng.random() < 0.5:
        box = pr_box_table(int(rng.integers(8))).vector()
        beta = 0.9 * rng.random()
        v = (1.0 - beta) * v + beta * box
    sigma = 0.05
    projector = _ns_projector()
    for _ in range(10):
        noisy = v + projector @ rng.normal(0.0, sigma, 16)
        if noisy.min() >= 0.0:
            return BehaviorTable.from_vector(noisy)
        sigma *= 0.5
    return BehaviorTable.from_vector(v)
