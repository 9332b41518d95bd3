"""Exact event probabilities as arc measures of the uniform start angle.

Every outcome field of a trial is piecewise constant in the start angle phi,
with breakpoints only at the engraved lines and stops shifted by the rotation
budgets.  Partitioning the circle at a generous superset of those breakpoints
therefore reduces any event probability to a finite sum of arc extents.  A
constancy check on interior points of every arc guards the superset
assumption at runtime.

The breakpoints sit exactly at the shifted angles, but each event boundary
lies in a rounding band next to its breakpoint: membership tests carry an
EPS_ANGLE slack, a near-full turn in ccw_delta collapses to 0, and a point
rounded onto 2*pi normalizes to 0.0, the start of the next arc.  The guard
ignores a band of 4*EPS_ANGLE at each arc end and classifies arcs narrower
than two bands by their midpoint alone, so each probability is off by at
most (number of arcs) * 8*EPS_ANGLE / 2*pi, about 4e-11 for 30 arcs, well
below TABLE_TOL.

The partition is built over Python floats, a few dozen at most, where numpy
calls cost more than their arithmetic, and handed on as arrays: breakpoints,
arc extents and (arcs x 3) guard points.  One function, _guarded, reads every
table: it partitions once, runs one kinematics call, then guards and sums
every row.  It also returns the extents, guard points and event bits, from
which the Monte Carlo builds its counting tables (monte_carlo._lookups).  In
the modified device the stops sit on the engraved lines, so every setup of
one engraving has the same breakpoints: conditional_table and the Monte
Carlo read their setups as rows of one run_setups call, and the other
readers take a configuration's own stops through run_trials.  Every call
reads all its events as one stacked boolean array: conditional_table takes
a batch's stop-cell stack as it is, crossing_probability_set one expression over its four lines' crossings, and
the readers of arbitrary events stack each event's read.  So
conditional_table, which reads stop cells, computes no crossing or rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Sequence

import numpy as np

from .apparatus import (
    _SETUP_LINES,
    ALL_SETUPS,
    CELLS,
    MODIFIED,
    SINGLE_STOP_SETUPS,
    TWO_STOP_SETUPS,
    ApparatusConfig,
    EngravedLines,
    TrialBatch,
    _fig2_domain,
    _not_a_count,
    _not_a_number,
    config_for_setup,
    fig2_lines,
    run_setups,
    run_trials,
)
from .circle_geometry import EPS_ANGLE, TWO_PI, guarded_partition, normalize

# Distance from each arc end to the outer points of the constancy guard.  It
# clears the rounding band around a breakpoint (EPS_ANGLE plus a few ulps).
_GUARD_MARGIN = 4.0 * EPS_ANGLE

# A probability table (stop-reach cells, setting frequencies) must sum to 1
# within this; each entry of a ConditionalTable must lie in
# [-TABLE_TOL, 1 + TABLE_TOL].
TABLE_TOL = 1e-9

# The closed forms of the standard engraving (closed_form_fig2) and its arc
# measures must agree within this: both add the same few arc extents, so
# they differ by rounding only.
CLOSED_FORM_TOL = 1e-12

__all__ = [
    "CELLS",
    "TABLE_TOL",
    "CLOSED_FORM_TOL",
    "ConsistencyError",
    "EventPredicate",
    "ConditionalTable",
    "lines_crossed",
    "stop_cell",
    "event_probabilities",
    "grid_oracle",
    "stop_reached",
    "closed_form_fig2",
    "conditional_table",
    "conditional_table_exact",
]


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


@dataclass(frozen=True)
class EventPredicate:
    """Named event on trial outcomes, evaluated over a whole TrialBatch.

    ``batch`` maps a TrialBatch to a boolean array with one entry per trial.
    The exact engine, the grid oracle and the Monte Carlo counts all use it,
    on batches of the one kinematics of apparatus, whose one-row case is
    run_trial.
    """

    name: str
    batch: Callable[[TrialBatch], np.ndarray]


def lines_crossed(*names: str) -> EventPredicate:
    def batch(b: TrialBatch) -> np.ndarray:
        out = b.crossed[names[0]]
        for n in names[1:]:
            out = out & b.crossed[n]
        return out

    return EventPredicate(name="crossed(" + ",".join(names) + ")", batch=batch)


# The event of each stop cell, in CELLS order
_CELL_EVENTS = [EventPredicate(f"stops:{cell}", lambda b, k=k: b.stop_cells[k]) for k, cell in enumerate(CELLS)]


def stop_cell(left: bool, right: bool) -> EventPredicate:
    return _CELL_EVENTS[CELLS.index(f"{int(left)}{int(right)}")]


# The stacked read of _CELL_EVENTS
_stop_cells = attrgetter("stop_cells")


def _critical_angles(config: ApparatusConfig) -> list[float]:
    lines, stops = config.lines, config.stops
    anchors = [lines.A, lines.A_prime, lines.B, lines.B_prime]
    # a stop that sits exactly on a line adds only repeats
    anchors += [x for x in (stops.left, stops.right) if x is not None and x not in anchors]
    shifts = (0.0,)
    if config.mode == MODIFIED:
        g = config.gamma
        shifts += (g, -g, 0.5 * g, -0.5 * g)
    if config.gamma1 is not None:
        g1 = config.gamma1
        shifts += (g1, -g1)
    # normalize(-2*pi) is -0.0, and -0.0 + 0.0 is 0.0: no arc starts at -0.0
    return [normalize(a + s) + 0.0 for a in anchors for s in shifts]


def _partition(config: ApparatusConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return guarded_partition(_critical_angles(config), _GUARD_MARGIN)


def _guarded(
    config: ApparatusConfig,
    setups: Sequence[str] | None,
    events: Sequence[EventPredicate],
    names: Sequence[Sequence[str]] | None = None,
    read: Callable[[TrialBatch], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Guarded arcs and exact probabilities of the same events on rows that
    share the partition of config: one row per setup label of setups, all in
    one run_setups call, or config's own stops in one run_trials call when
    setups is None.

    Returns the arc extents; the guard points, ``guard[k, 0]`` the midpoint
    of arc k and ``guard[k, 1:]`` its outer guard angles; ``bits[s, k, e]``,
    event e of row s on arc k; and its probability ``probabilities[s][e]``.

    All events are read as one boolean array, axis 0 the event: read(batch)
    when given, which must stack what each event's batch function returns,
    such as a batch's stop_cells for _CELL_EVENTS; otherwise each event is
    read on its own and stacked.

    An event that differs among the guard points of an arc is not constant
    there, so the breakpoint set is incomplete.  The guard ignores the band
    of width _GUARD_MARGIN (4*EPS_ANGLE) at each arc end, where a boundary
    may sit off its breakpoint by rounding; an event that changes value
    farther inside an arc still trips it.  A failure raises ConsistencyError
    for the first failing row, naming the first arc in circle order, then
    the first event in list order, with the arc, its guard angles and the
    row's config.  ``names[s]`` names the events of row s in that message;
    the default is the events' own names.

    Each arc takes its midpoint value, and each probability is the extent of
    the arcs where its event holds over 2*pi, added one by one in arc order:
    add.accumulate runs left to right, whereas sum() of floats is compensated
    from Python 3.12 on and np.sum is pairwise, either of which would change
    the last bits of the reports.  So each probability is accurate to
    (number of arcs) * 2 * _GUARD_MARGIN / 2*pi, about 4e-11 for 30 arcs.
    """
    starts, extents, guard = _partition(config)
    if setups is None:
        batch, rows = run_trials(config, guard.ravel()), 1
    else:
        batch, rows = run_setups(config, setups, guard.ravel()), len(setups)
    values = read(batch) if read else np.array([event.batch(batch) for event in events], dtype=bool)
    # points[i, j]: guard point j of the arc of i, which runs over (event,
    # row, arc) in C order, so that each comparison is one strided pass
    points = values.reshape(-1, 3)
    differs = (points[:, 1] != points[:, 0]) | (points[:, 2] != points[:, 0])
    # bits[e, s, k]: event e of row s on arc k
    bits = points[:, 0].reshape(len(events), rows, -1)
    probabilities = (np.add.accumulate(np.where(bits, extents, 0.0), axis=-1)[..., -1] / TWO_PI).T.tolist()
    if differs.any():
        names = names or [[event.name for event in events]] * rows
        bad = differs.reshape(bits.shape).swapaxes(0, 1)
        s = int(np.flatnonzero(bad.any(axis=(1, 2)))[0])
        k = int(np.flatnonzero(bad[s].any(axis=0))[0])
        name = names[s][int(np.flatnonzero(bad[s, :, k])[0])]
        row_config = config if setups is None else config_for_setup(config.lines, config.gamma, setups[s])
        raise ConsistencyError(
            f"event {name} is not constant on the arc starting at "
            f"{float(starts[k])!r} (extent {float(extents[k])!r}), guard angles "
            f"{guard[k].tolist()!r}, config {row_config!r}; breakpoint set incomplete"
        )
    return extents, guard, bits.transpose(1, 2, 0), probabilities


def event_probabilities(
    config: ApparatusConfig, events: Sequence[EventPredicate]
) -> list[float]:
    """Exact probabilities of several events from one partition: the
    summed extent of the arcs on which each event holds, over 2*pi.  See
    _guarded for their accuracy, the guard and its ConsistencyError.
    """
    return _guarded(config, None, events)[-1][0]


def grid_oracle(config: ApparatusConfig, event: EventPredicate, n_points: int) -> float:
    """Brute-force check value: frequency of the event on a midpoint phi grid.

    The grid phi_k = 2*pi*(k + 1/2)/n avoids the breakpoint angles, so the
    frequency converges to the arc measure at rate 1/n.
    """
    if _not_a_count(n_points) or n_points < 1:
        raise ValueError(f"need an integer number of grid points >= 1, got {n_points!r}")
    hits = 0
    chunk = 1 << 20
    for start in range(0, n_points, chunk):
        stop = min(start + chunk, n_points)
        k = np.arange(start, stop, dtype=np.float64)
        phis = (k + 0.5) * (TWO_PI / n_points)
        hits += int(np.count_nonzero(event.batch(run_trials(config, phis))))
    return hits / n_points


_P_MIN, _P_MAX = -TABLE_TOL, 1.0 + TABLE_TOL


def _not_a_probability(x: object) -> bool:
    """Whether x cannot be a table entry: no number by _not_a_number's rule,
    or outside [-TABLE_TOL, 1 + TABLE_TOL].  A plain float, the common case,
    takes one chained comparison, which NaN fails."""
    return (type(x) is not float and _not_a_number(x)) or not _P_MIN <= x <= _P_MAX


@dataclass(frozen=True)
class ConditionalTable:
    """Conditional probabilities for the eight stop setups, checked when built.

    ``joint`` holds p(both stops reached | two-stop setup), ``singles`` holds
    p(stop reached | single-stop setup) (None when no trials inform it), and
    ``full_tables`` the complete 2x2 stop-reach tables per two-stop setup.
    Each entry is a number in [-TABLE_TOL, 1 + TABLE_TOL] (_not_a_probability),
    each 2x2 table sums to 1, and its cell 11 is the setup's joint entry.
    """

    joint: dict[str, float]
    singles: dict[str, float | None]
    full_tables: dict[str, dict[str, float]]

    def validate(self) -> "ConditionalTable":
        for setup in TWO_STOP_SETUPS:
            table, joint = self.full_tables.get(setup, {}), self.joint.get(setup)
            if len(table) != len(CELLS) or any(map(_not_a_probability, map(table.get, CELLS))):
                raise ConsistencyError(
                    f"table for setup {setup!r} needs a probability in each of the cells {CELLS!r}: {table!r}"
                )
            if abs(sum(table.values()) - 1.0) > TABLE_TOL:
                raise ConsistencyError(f"table for setup {setup!r} does not normalize: {table!r}")
            if _not_a_probability(joint) or abs(table["11"] - joint) > TABLE_TOL:
                raise ConsistencyError(f"joint entry for setup {setup!r} disagrees with its table: {joint!r}")
        for setup in SINGLE_STOP_SETUPS:
            if setup not in self.singles:
                raise ConsistencyError(f"no single entry for setup {setup!r}")
            p = self.singles[setup]
            if p is not None and _not_a_probability(p):
                raise ConsistencyError(f"single entry for setup {setup!r} out of range: {p!r}")
        return self
    __post_init__ = validate


_joints, _singles = itemgetter(*TWO_STOP_SETUPS), itemgetter(*SINGLE_STOP_SETUPS)


def _entries(table: ConditionalTable) -> tuple[float | None, ...]:
    """The eight entries of a table in ALL_SETUPS order."""
    return _joints(table.joint) + _singles(table.singles)


def _table_difference(left: ConditionalTable, right: ConditionalTable) -> float:
    """The largest |difference| of the entries both tables hold and of their
    two-stop cells; NaN if one difference is NaN."""
    diffs = [abs(lv - rv) for lv, rv in zip(_entries(left), _entries(right)) if lv is not None and rv is not None]
    for s in TWO_STOP_SETUPS:
        diffs += [abs(value - right.full_tables[s][cell]) for cell, value in left.full_tables[s].items()]
    return float(np.max(diffs))


def closed_form_fig2(gamma: float, theta: float) -> ConditionalTable:
    """Closed-form conditional table for the standard engraving.

    On the two setups whose stops sit gamma apart the bodies either both
    reach or both miss, giving joint weight gamma/2*pi.  Stops gamma + theta
    apart can never both be reached; stops gamma - theta apart are both
    reached on an arc of that width.  A lone reachable stop is met from an
    approach arc of width gamma/2.  gamma and theta are as in fig2_lines.
    """
    _fig2_domain(gamma, theta)
    j = gamma / TWO_PI
    half = gamma / (2.0 * TWO_PI)
    near = (gamma - theta) / TWO_PI
    spill = max(0.0, theta - 0.5 * gamma) / TWO_PI
    correlated = {"11": j, "10": 0.0, "01": 0.0, "00": 1.0 - j}
    return ConditionalTable(
        joint={"ab": j, "ab'": 0.0, "a'b": near, "a'b'": j},
        singles={s: half for s in SINGLE_STOP_SETUPS},
        full_tables={
            "ab": dict(correlated),
            "ab'": {"11": 0.0, "10": half, "01": half, "00": 1.0 - 2.0 * half},
            "a'b": {"11": near, "10": spill, "01": spill, "00": 1.0 - near - 2.0 * spill},
            "a'b'": dict(correlated),
        },
    )


def stop_reached(side: str) -> EventPredicate:
    """The active stop on the given side ('left' or 'right') was reached."""
    if side == "left":
        return EventPredicate(name="stops:1x", batch=lambda b: b.reached_left_stop)
    if side == "right":
        return EventPredicate(name="stops:x1", batch=lambda b: b.reached_right_stop)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# The one event of each single-stop setup, in SINGLE_STOP_SETUPS order, and
# the index of the stop cell equal to it: a setup never reaches the stop it
# lacks, and one with no left stop (index 4 of _SETUP_LINES) has a right one.
_LONE = [
    (stop_reached("right"), CELLS.index("01")) if _SETUP_LINES[s][0] == 4 else (stop_reached("left"), CELLS.index("10"))
    for s in SINGLE_STOP_SETUPS
]

# The names of conditional_table's events in its errors, row by row
_TABLE_NAMES = [[event.name for event in _CELL_EVENTS]] * len(TWO_STOP_SETUPS) + [
    [event.name] * len(_CELL_EVENTS) for event, _ in _LONE
]


def _table(rows: Sequence[Sequence[float] | None]) -> ConditionalTable:
    """The conditional table of the stop-cell rows (CELLS order)
    of the eight setups in ALL_SETUPS order, None for a single-stop setup
    that ran no trials.  A single-stop setup's entry is its lone cell.  The
    arc-measure and Monte Carlo tables are both built here."""
    pairs = len(TWO_STOP_SETUPS)
    full = {setup: dict(zip(CELLS, row)) for setup, row in zip(TWO_STOP_SETUPS, rows)}
    return ConditionalTable(
        joint={setup: table["11"] for setup, table in full.items()},
        singles={s: None if row is None else row[k] for s, (_, k), row in zip(SINGLE_STOP_SETUPS, _LONE, rows[pairs:])},
        full_tables=full,
    )


def conditional_table(lines: EngravedLines, gamma: float) -> ConditionalTable:
    """Arc-measure conditional table for an arbitrary engraving.

    The stops sit on the engraved lines, so all eight setups share one
    breakpoint set: the circle is partitioned once, and the guard points of
    every setup go through one run_setups call.  Every row evaluates the
    stop cells; a single-stop setup reads its entry from cell 10 or 01, and
    its errors name its one event.  Errors name the first failing setup in
    TWO_STOP_SETUPS then SINGLE_STOP_SETUPS order.
    """
    config = config_for_setup(lines, gamma, ALL_SETUPS[0])
    return _table(_guarded(config, ALL_SETUPS, _CELL_EVENTS, _TABLE_NAMES, read=_stop_cells)[-1])


def conditional_table_exact(gamma: float, theta: float) -> ConditionalTable:
    """Arc-measure conditional table for the standard engraving."""
    return conditional_table(fig2_lines(gamma, theta), gamma)
