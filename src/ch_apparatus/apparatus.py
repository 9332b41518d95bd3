"""The two-body rotation device: engraved lines, stops, and trial kinematics.

A trial starts with both bodies' zero marks coincident at a shared angle phi.
Body 1 rotates counterclockwise, body 2 clockwise, at equal rates.  In the
unmodified device both run freely for a fixed angle gamma1.  In the modified
device a mutual constraint keeps the sum of the two rotations at or below
gamma, and each side may carry a mechanical stop placed on one of its two
engraved lines: the left stop at A or A', the right stop at B or B'.

The kinematics are written once, over arrays: _run_rows computes the
stop-reach flags, _travel the rotations and _crossings the line crossings.
run_trials and run_setups return their outcomes as a TrialBatch, which
computes the stop-reach flags at once and every other field on first read,
in one array pass: a read of any line's crossings computes all four lines.
run_trial is the one-row run_trials, as a TrialOutcome.

It owns the bookkeeping the other modules read: the setup labels, whose
TWO_STOP_SETUPS order is also the order of the settings and their
frequencies, each setup's stop lines (_SETUP_LINES), the stop cells
(CELLS, in the order of TrialBatch.stop_cells), the integer rule for
counts and seeds (_not_a_count) and the number rule for angles and
probabilities (_not_a_number).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .circle_geometry import EPS_ANGLE, TWO_PI, ccw_delta, normalize

UNMODIFIED = "unmodified"
MODIFIED = "modified"

# Blocking cause tags for each body at the end of a trial.
STOP = "stop"
MUTUAL_CONSTRAINT = "mutual-constraint"
FREE_ROTATION_END = "free-rotation-end"

LINE_NAMES = ("A", "A'", "B", "B'")

# Canonical setup labels: which stops are active during a sequence of trials.
TWO_STOP_SETUPS = ("ab", "ab'", "a'b", "a'b'")
SINGLE_STOP_SETUPS = ("a", "a'", "b", "b'")
ALL_SETUPS = TWO_STOP_SETUPS + SINGLE_STOP_SETUPS

# Each setup's left and right stop as an index into [A, A', B, B', NaN];
# 4, the NaN, stands for no stop.  The primed lines are 1 and 3.
_SETUP_LINES = {
    "ab": (0, 2), "ab'": (0, 3), "a'b": (1, 2), "a'b'": (1, 3),
    "a": (0, 4), "a'": (1, 4), "b": (4, 2), "b'": (4, 3),
}
_LINE_FIELDS = dict(zip(LINE_NAMES, ("A", "A_prime", "B", "B_prime")))

__all__ = [
    "UNMODIFIED",
    "MODIFIED",
    "STOP",
    "MUTUAL_CONSTRAINT",
    "FREE_ROTATION_END",
    "LINE_NAMES",
    "TWO_STOP_SETUPS",
    "SINGLE_STOP_SETUPS",
    "ALL_SETUPS",
    "CELLS",
    "ConfigError",
    "EngravedLines",
    "StopPlacement",
    "ApparatusConfig",
    "TrialOutcome",
    "TrialBatch",
    "validate_config",
    "run_trial",
    "run_trials",
    "run_setups",
    "fig2_lines",
    "fig2_config",
    "unmodified_config",
    "setup_stops",
    "config_for_setup",
]


class ConfigError(ValueError):
    """Raised when an apparatus configuration violates its constraints."""


@dataclass(frozen=True)
class EngravedLines:
    """Angles of the four lines engraved on the measuring cylinder.

    A and A' are read against body 1 (left side), B and B' against body 2
    (right side).  All four must be normalized; the two lines on one side
    must be distinct.
    """

    A: float
    A_prime: float
    B: float
    B_prime: float

    def by_name(self, name: str) -> float:
        return getattr(self, _LINE_FIELDS[name])


@dataclass(frozen=True)
class StopPlacement:
    """Stop angles for the two sides; None means no stop on that side."""

    left: float | None = None
    right: float | None = None


@dataclass(frozen=True)
class ApparatusConfig:
    """A device configuration, checked by validate_config when built."""

    mode: str
    lines: EngravedLines
    gamma1: float | None = None
    gamma: float | None = None
    stops: StopPlacement = StopPlacement()

    def __post_init__(self) -> None:
        validate_config(self)


def _not_a_count(n: object) -> bool:
    """Whether n cannot be a count, an index or a seed: a bool is an int to
    Python."""
    return isinstance(n, bool) or not isinstance(n, Integral)


_FLOAT_MAX = sys.float_info.max


def _not_a_number(x: object) -> bool:
    """Whether x cannot be a finite real: a bool is not a number, and the
    range test, exact for an int, rejects one beyond float range with NaN and
    the infinities.  A plain float, the common case, skips the type tests."""
    return type(x) is not float and (isinstance(x, bool) or not isinstance(x, (int, float))) or not abs(x) <= _FLOAT_MAX


def _on_circle(x: float) -> bool:
    return not _not_a_number(x) and 0.0 <= x < TWO_PI


def _is_line(x: float, candidates: tuple[float, float]) -> bool:
    # a candidate off the circle is a problem of its own, reported for its line
    return x in candidates or any(
        _on_circle(c) and min(ccw_delta(x, c), ccw_delta(c, x)) <= EPS_ANGLE for c in candidates
    )


def validate_config(config: ApparatusConfig) -> ApparatusConfig:
    """Check every configuration constraint, reporting all violations at once.

    Returns the same object.  ApparatusConfig runs it when built.
    """
    problems: list[str] = []
    if config.mode not in (UNMODIFIED, MODIFIED):
        problems.append(f"mode must be {UNMODIFIED!r} or {MODIFIED!r}, got {config.mode!r}")

    lines, stops = config.lines, config.stops
    if not (isinstance(lines, EngravedLines) and isinstance(stops, StopPlacement)):
        kinds = (("lines", lines, EngravedLines), ("stops", stops, StopPlacement))
        problems += [f"{name} must be of type {kind.__name__}, got {value!r}" for name, value, kind in kinds
                     if not isinstance(value, kind)]
        raise ConfigError("; ".join(problems))  # the checks below read their fields
    for name, value in zip(LINE_NAMES, (lines.A, lines.A_prime, lines.B, lines.B_prime)):
        if not _on_circle(value):
            problems.append(f"line {name} must be a normalized angle in [0, 2*pi), got {value!r}")
    if lines.A == lines.A_prime:
        problems.append("lines A and A' must be distinct")
    if lines.B == lines.B_prime:
        problems.append("lines B and B' must be distinct")

    has_stop = stops.left is not None or stops.right is not None
    if config.mode == UNMODIFIED:
        if has_stop:
            problems.append("unmodified mode admits no stops (mode/stop mismatch)")
        g1 = config.gamma1
        if _not_a_number(g1) or not 0.0 < g1 <= TWO_PI:
            problems.append(f"unmodified mode needs free-rotation angle gamma1 in (0, 2*pi], got {g1!r}")
    elif config.mode == MODIFIED:
        g = config.gamma
        if _not_a_number(g) or not 0.0 < g < TWO_PI:
            problems.append(f"modified mode needs mutual-rotation budget gamma in (0, 2*pi), got {g!r}")
        left = stops.left
        if left is not None and not (_on_circle(left) and _is_line(left, (lines.A, lines.A_prime))):
            problems.append(f"left stop must sit on line A or A', got {left!r}")
        right = stops.right
        if right is not None and not (_on_circle(right) and _is_line(right, (lines.B, lines.B_prime))):
            problems.append(f"right stop must sit on line B or B', got {right!r}")

    if problems:
        raise ConfigError("; ".join(problems))
    return config


def _fits_budget(g: float, span, d_sum):
    """Whether a body can reach an angle and its partner a stop within the
    mutual budget g.  ``span`` is the ccw distance from the partner's stop
    (or the right-hand angle) to the left-hand angle, and d_sum the sum of
    the two bodies' distances to them from phi.

    That sum is the constant span when phi lies on the arc between the two
    angles, and a full turn more elsewhere.  The test uses the span itself,
    not d_sum <= g: rounding of the per-phi sum would otherwise flip the
    outcome along a whole arc whose span is g + about EPS_ANGLE.  Takes
    floats or arrays.
    """
    return (span <= g + EPS_ANGLE) & (d_sum < span + math.pi)


class TrialOutcome(NamedTuple):
    """Final state of one trial."""

    r1: float
    r2: float
    blocked1: str
    blocked2: str
    reached_left_stop: bool
    reached_right_stop: bool
    crossed: frozenset[str]


def _wrap_turn(d: np.ndarray) -> np.ndarray:
    """The scalar ccw_delta's operations in its order on end - start, in place."""
    np.add(d, TWO_PI, out=d, where=d < 0.0)
    d[d >= TWO_PI] = 0.0
    return d


def _stop_columns(lefts: list[float], rights: list[float], ndim: int) -> np.ndarray:
    """Per-row left stop, right stop and ccw span from the right stop to the
    left one (_fits_budget), each shaped (rows, 1, ..., 1) for ndim phi axes.
    NaN stands for an absent stop and stays NaN in ccw_delta's span: every
    comparison with it is false."""
    spans = list(map(ccw_delta, rights, lefts))
    return np.array(lefts + rights + spans).reshape((3, len(lefts)) + (1,) * ndim)


class _lazy(cached_property):
    """cached_property without the class-wide lock that Python 3.10 and 3.11
    take on each first read; the value it stores shadows this descriptor."""

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


# The stop cells, each the left then the right stop's reach, in the order
# TrialBatch.stop_cells stacks them: both stops, left only, right only, neither.
CELLS = ("11", "10", "01", "00")


class TrialBatch:
    """Struct-of-arrays form of many trial outcomes (run_trials, run_setups).

    reached_left_stop and reached_right_stop are computed with the batch,
    every other field on first read, in one array pass, then cached: r1 and
    r2; crossings, the crossing flags of the four lines stacked in LINE_NAMES
    order, which crossed maps by line name, so reading any line computes all
    four; stop_cells, the flags of the stop cells stacked in CELLS order.
    """

    def __init__(self, config: ApparatusConfig, phis: np.ndarray, reached: np.ndarray, kinematics, row):
        # _run_rows' state over all its rows; row picks the rows that show
        self._config, self._phis, self._reached, self._kinematics, self._row = config, phis, reached, kinematics, row
        self.reached_left_stop, self.reached_right_stop = reached[:, row]

    _rotations = _lazy(lambda self: _travel(self))
    r1 = _lazy(lambda self: self._rotations[0][0, self._row])
    r2 = _lazy(lambda self: self._rotations[0][1, self._row])
    crossings = _lazy(lambda self: _crossings(self)[:, self._row])
    crossed = _lazy(lambda self: dict(zip(LINE_NAMES, self.crossings)))

    @_lazy
    def stop_cells(self) -> np.ndarray:
        left, right = self.reached_left_stop, self.reached_right_stop
        return np.array([left & right, left > right, left < right, ~(left | right)])


def _run_rows(
    config: ApparatusConfig, lefts: list[float], rights: list[float], phis: np.ndarray, row=slice(None)
) -> TrialBatch:
    """Kinematics of config over phis with per-row stops: row i of every
    field runs the stops (lefts[i], rights[i]), NaN meaning no stop on that
    side.  The one kinematics of the package, with _travel and _crossings;
    run_trials, run_setups and run_trial all run it.  Computes the stop-reach
    flags of a TrialBatch with fields shaped (rows, *phis.shape), or
    phis.shape for row=0.  Unmodified configs take one row with no stops."""
    # a leading row axis, so that no array below is 0-d
    phis = np.asarray(phis, dtype=np.float64)[None]
    if config.mode == UNMODIFIED:
        return TrialBatch(config, phis, np.zeros((2,) + phis.shape, dtype=bool), None, row)
    g = config.gamma
    columns = _stop_columns(lefts, rights, phis.ndim - 1)
    # axis 0 is the body, so each step below is one call for both: d is
    # each body's distance to its own stop, body 1 turning ccw from phi
    # and body 2 clockwise, and [::-1] swaps the bodies
    d = np.empty((2, len(lefts)) + phis.shape[1:])
    np.subtract(columns[0], phis, out=d[0])
    np.subtract(phis, columns[1], out=d[1])
    _wrap_turn(d)
    # a body meets its stop first, body 1 winning ties, unless the other
    # body's stop is nearer: each test is false where a distance is NaN, so
    # an absent stop counts as infinitely far
    first = np.empty(d.shape, dtype=bool)
    np.less(d[1], d[0], out=first[0])
    np.less_equal(d[0], d[1], out=first[1])
    np.greater(d <= 0.5 * g + EPS_ANGLE, first, out=first)
    # false where a stop is absent: its span is NaN
    partner_fits = _fits_budget(g, columns[2], d[0] + d[1])
    reached = first | (first[::-1] & partner_fits)
    return TrialBatch(config, phis, reached, (columns, d, first, partner_fits), row)


def _travel(batch: TrialBatch) -> tuple[np.ndarray, np.ndarray | None]:
    """Both bodies' rotations on every row of _run_rows, axis 0 the body, and
    where each turned gamma minus its partner's stop distance (None in the
    unmodified device, where both turn gamma1)."""
    if batch._kinematics is None:
        return np.full(batch._reached.shape, batch._config.gamma1), None
    g = batch._config.gamma
    _columns, d, first, partner_fits = batch._kinematics
    after = first[::-1] & ~partner_fits
    return np.where(batch._reached, d, np.where(after, g - d[::-1], 0.5 * g)), after


def _crossings(batch: TrialBatch) -> np.ndarray:
    """Crossings of the four lines on every row of _run_rows, in LINE_NAMES
    order, from one expression over (side, line, row, *phis.shape) arrays:
    side 0 is body 1 with A and A', side 1 body 2 with B and B', and body 2
    turns clockwise, so its distances run from the line to phi."""
    config, phis = batch._config, batch._phis
    lines = config.lines
    lines = np.array([lines.A, lines.A_prime, lines.B, lines.B_prime]).reshape((2, 2) + (1,) * phis.ndim)
    d = np.empty((2, 2) + phis.shape)
    np.subtract(lines[0], phis, out=d[0])
    np.subtract(phis, lines[1], out=d[1])
    _wrap_turn(d)
    if batch._kinematics is None:
        # both bodies turn gamma1 on every trial, so gamma1 stands for r1 and r2
        return (d <= config.gamma1 + EPS_ANGLE).reshape((4,) + phis.shape)
    g = config.gamma
    columns, d_stop = batch._kinematics[:2]
    r, after = batch._rotations
    r = r[:, None]
    hit = d <= r + EPS_ANGLE
    # spans[side, 0] from the side's own stop to its lines, spans[side, 1]
    # from the partner stop, each in the turn of the side's body
    spans = np.empty((2, 2, 2) + columns.shape[1:])
    np.subtract(lines[0], columns[:2, None], out=spans[0])
    np.subtract(columns[1::-1, None], lines[1], out=spans[1])
    own, partner = _wrap_turn(spans).swapaxes(0, 1)
    # a body held at its own stop crosses a line on its path or at most
    # EPS_ANGLE past the stop, a span constant along any arc; d <= r +
    # EPS_ANGLE decides the same unless the span from some row's stop to the
    # line is in (0, 2 * EPS_ANGLE], so only such a line takes the exact test
    near = ((0.0 < own) & (own <= 2.0 * EPS_ANGLE)).any(axis=2, keepdims=True)
    if near.any():
        held = (d <= r) | (own <= EPS_ANGLE)
        hit = np.where(batch._reached[:, None] & near, held, hit)
    # a body that turned gamma minus its partner's stop distance crosses a
    # line when the budget spans the arc from the partner's stop to it
    fits = _fits_budget(g, partner, d + d_stop[::-1, None])
    return np.where(after[:, None], fits, hit).reshape((4,) + hit.shape[2:])


def run_trials(config: ApparatusConfig, phis: np.ndarray) -> TrialBatch:
    """Kinematics of config over an array of normalized start angles.

    The one-row case of the per-row kinematics that run_setups also uses,
    so there is one kinematics path; see TrialBatch for the fields computed
    when first read.
    """
    left, right = config.stops.left, config.stops.right
    return _run_rows(config, [math.nan if left is None else left], [math.nan if right is None else right], phis, 0)


def run_trial(config: ApparatusConfig, phi: float) -> TrialOutcome:
    """Deterministic kinematics of one trial with start angle phi, any finite
    angle: the one-row run_trials, as a TrialOutcome.

    Rotations are resolved in time order: whichever body meets its stop
    first is blocked there, the other continues until its own stop or until
    the mutual budget gamma is exhausted.  Ties between reaching a stop and
    exhausting the budget resolve in favor of the stop, so in the modified
    device each body is blocked by its stop if it reached it and by the
    mutual constraint otherwise.
    """
    batch = run_trials(config, normalize(phi))
    reached = bool(batch.reached_left_stop), bool(batch.reached_right_stop)
    if config.mode == UNMODIFIED:
        blocked = (FREE_ROTATION_END, FREE_ROTATION_END)
    else:
        blocked = tuple(STOP if flag else MUTUAL_CONSTRAINT for flag in reached)
    crossed = frozenset(name for name in LINE_NAMES if batch.crossed[name])
    return TrialOutcome(float(batch.r1), float(batch.r2), *blocked, *reached, crossed)


def run_setups(config: ApparatusConfig, setups: Sequence[str], phis: np.ndarray) -> TrialBatch:
    """run_trials of one engraving under several stop setups in one call.

    Every field has one row per setup: row i equals
    run_trials(config_for_setup(config.lines, config.gamma, setups[i]), phis)
    bit for bit.  As there, the fields other than the stop-reach flags are
    computed, for every row, when first read.  config must be a validated
    modified-mode configuration; its own stops are ignored.  Stops sit on the
    engraved lines, so the setups need no further validation.
    """
    if config.mode != MODIFIED:
        raise ConfigError(f"run_setups needs a modified-mode configuration, got {config.mode!r}")
    lines = config.lines
    angles = (lines.A, lines.A_prime, lines.B, lines.B_prime, math.nan)
    index = [_setup_lines(setup) for setup in setups]
    return _run_rows(config, [angles[i] for i, _ in index], [angles[j] for _, j in index], phis)


def fig2_lines(gamma: float, theta: float) -> EngravedLines:
    """Standard engraving: B' = 0, B = theta, A' = gamma, A = gamma + theta.

    Requires 0 < theta < gamma and gamma + theta < 2*pi so the four lines
    keep their cyclic order, and each side's lines more than 2*EPS_ANGLE
    apart, outside the window where a held body crosses a line (_crossings).
    """
    if _not_a_number(gamma) or _not_a_number(theta):
        raise ConfigError(f"gamma and theta must be finite numbers, got {gamma!r}, {theta!r}")
    if not (0.0 < theta < gamma and gamma + theta < TWO_PI):
        raise ConfigError(
            f"need 0 < theta < gamma and gamma + theta < 2*pi, got gamma={gamma!r}, theta={theta!r}"
        )
    lines = EngravedLines(
        A=normalize(gamma + theta),
        A_prime=normalize(gamma),
        B=normalize(theta),
        B_prime=0.0,
    )
    if min(lines.A - lines.A_prime, lines.B) <= 2.0 * EPS_ANGLE:
        raise ConfigError(
            f"theta={theta!r} is below the angular resolution: lines A and A' or B and B' lie within "
            f"2*EPS_ANGLE of each other (gamma={gamma!r})"
        )
    return lines


def _setup_lines(setup: str) -> tuple[int, int]:
    """The (left, right) index pair of _SETUP_LINES of a setup label."""
    if setup not in ALL_SETUPS:
        raise ConfigError(f"unknown setup label {setup!r}")
    return _SETUP_LINES[setup]


def setup_stops(lines: EngravedLines, setup: str) -> StopPlacement:
    """Stop placement named by a setup label such as "ab'" or "a"."""
    angles = (lines.A, lines.A_prime, lines.B, lines.B_prime, None)
    return StopPlacement(*(angles[i] for i in _setup_lines(setup)))


def config_for_setup(lines: EngravedLines, gamma: float, setup: str) -> ApparatusConfig:
    """Modified-mode configuration with the stops named by a setup label."""
    return ApparatusConfig(mode=MODIFIED, lines=lines, gamma=gamma, stops=setup_stops(lines, setup))


def fig2_config(gamma: float, theta: float, setup: str) -> ApparatusConfig:
    """Modified-mode configuration on the standard engraving."""
    return config_for_setup(fig2_lines(gamma, theta), gamma, setup)


def unmodified_config(lines: EngravedLines, gamma1: float) -> ApparatusConfig:
    """Free-rotation configuration: both bodies turn by gamma1, no stops."""
    return ApparatusConfig(mode=UNMODIFIED, lines=lines, gamma1=gamma1)
