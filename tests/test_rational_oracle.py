"""An exact-arithmetic oracle for the arc-measure probabilities.

Angles are measured in turns, and the lines and the budget are Fractions on
a grid of 1/q turn.  The kinematics then compare only sums and differences
of the inputs, so every probability is an exact rational, computed here with
no float and no code of the package: the trial rules of the device with
EPS_ANGLE = 0, and a breakpoint set built independently of
exact_engine._critical_angles.  The float engine must agree within a bound
derived from its rounding (arc_sum_bound).
"""

import math
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ch_apparatus import exact_engine
from ch_apparatus.apparatus import (
    ALL_SETUPS,
    LINE_NAMES,
    SINGLE_STOP_SETUPS,
    TWO_STOP_SETUPS,
    EngravedLines,
    config_for_setup,
    unmodified_config,
)
from ch_apparatus.circle_geometry import TWO_PI
from ch_apparatus.exact_engine import CELLS, conditional_table
from ch_apparatus.inequality_analysis import crossing_probability_set
from ch_apparatus.monte_carlo import _COUNTED, COUNT_KEYS

# One turn: each float angle is its turns times this, rounded once.
TURN = Fraction(TWO_PI)

# The stops of each setup label, by line name
STOP_LINES = {
    "ab": ("A", "B"), "ab'": ("A", "B'"), "a'b": ("A'", "B"), "a'b'": ("A'", "B'"),
    "a": ("A", None), "a'": ("A'", None), "b": (None, "B"), "b'": (None, "B'"),
}


def ccw(start, end):
    return (end - start) % 1


def trial(lines, gamma, stops, phi):
    """Stop reaches (left, right) and crossings (LINE_NAMES order) of one
    trial in the modified device; stops names the left and right stop lines.

    The rules of the device with EPS_ANGLE = 0: whichever body meets its
    stop first within half the budget is held there, body 1 winning ties;
    its partner then reaches its own stop if the two distances fit the
    budget, and otherwise turns the rest of it; with no stop met, each body
    turns half the budget.  Without the tolerance, the rounding-proof forms
    of the package reduce to these: the span test of _fits_budget to
    d1 + d2 <= gamma, and every crossing rule, the held body's included, to
    the line lying within the body's rotation (crossings).
    """
    angle = dict(zip(LINE_NAMES, lines))
    left, right = (None if name is None else angle[name] for name in stops)
    d1 = math.inf if left is None else ccw(phi, left)
    d2 = math.inf if right is None else ccw(right, phi)
    fits = left is not None and right is not None and d1 + d2 <= gamma
    half = gamma / 2
    if d1 <= d2 and d1 <= half:
        r1, r2, reached = (d1, d2, (True, True)) if fits else (d1, gamma - d1, (True, False))
    elif d2 < d1 and d2 <= half:
        r1, r2, reached = (d1, d2, (True, True)) if fits else (gamma - d2, d2, (False, True))
    else:
        r1 = r2 = half
        reached = (False, False)
    return reached, crossings(lines, r1, r2, phi)


def crossings(lines, r1, r2, phi):
    """Whether each line lies within its body's rotation from phi: body 1
    turns ccw past A and A', body 2 clockwise past B and B'."""
    a, ap, b, bp = lines
    return ccw(phi, a) <= r1, ccw(phi, ap) <= r1, ccw(b, phi) <= r2, ccw(bp, phi) <= r2


def breakpoints(lines, budget):
    """Every line shifted by k * budget / 2 for k in -2..2, and the midpoint
    of every pair of lines and its antipode, sorted: a superset of the angles
    where an outcome can change."""
    points = {(x + k * budget / 2) % 1 for x in lines for k in range(-2, 3)}
    for x, y in combinations(lines, 2):
        mid = (x + y) / 2
        points.update((mid % 1, (mid + Fraction(1, 2)) % 1))
    return sorted(points)


def arc_measures(lines, budget, outcome):
    """The exact measure, in turns, of the start angles where each value of
    outcome(phi), a tuple of booleans, holds: each arc between breakpoints
    takes the value at its midpoint."""
    points = breakpoints(lines, budget)
    ends = points[1:] + [points[0] + 1]
    arcs = [(end - start, outcome(((start + end) / 2) % 1)) for start, end in zip(points, ends)]
    return [sum((extent for extent, values in arcs if values[i]), Fraction(0)) for i in range(len(arcs[0][1]))]


def count_key_measures(lines, gamma, setup):
    """Exact probabilities of the COUNT_KEYS events in one setup."""

    def outcome(phi):
        (left, right), crossed = trial(lines, gamma, STOP_LINES[setup], phi)
        cells = (left and right, left and not right, right and not left, not (left or right))
        return (*cells, left, right, *crossed)

    return arc_measures(lines, gamma, outcome)


def crossing_set_measures(lines, gamma1):
    """Exact probabilities of the unmodified device's crossing pairs AB, AB',
    A'B, A'B' and single crossings A, A', B, B' (ProbabilitySet order)."""

    def outcome(phi):
        a, ap, b, bp = crossings(lines, gamma1, gamma1, phi)
        return (a and b, a and bp, ap and b, ap and bp, a, ap, b, bp)

    return arc_measures(lines, gamma1, outcome)


def radians(turns):
    return float(turns * TURN)


def engraving(lines):
    return EngravedLines(*map(radians, lines))


# Half an ulp of an angle in [4, 8): the largest rounding of an angle below
# 2*pi, and half the largest of one below 4*pi.
ROUNDING = 2.0**-51


def off(x, p):
    """|x - p| in exact arithmetic, for a float x and a Fraction p."""
    return abs(Fraction(x) - p)


def arc_sum_bound(arcs):
    """How far a probability that the float engine sums over a partition of
    this many arcs may lie from the exact one, on a grid of 1/q turn.

    Each float breakpoint lies within 5 * ROUNDING of its exact position:
    one rounding of the line, one of the budget shift, two of their sum (below
    4*pi) and one of the 2*pi that normalize adds.  So each arc's extent is
    within 12 * ROUNDING of the exact one: both ends, and one more rounding
    of their difference, or two for the arc that wraps.  That covers an arc
    between two breakpoints that coincide exactly, whose exact extent is 0
    and whose float value may be anything.  Every other arc is at least
    1/(2q) turn wide, so its midpoint lies far outside EPS_ANGLE of every
    event boundary, and the float kinematics decide it as the oracle does.
    Adding the extents rounds once per arc (each partial sum is below 2*pi),
    and dividing the sum by 2*pi rounds once more, by at most 2**-53.
    """
    return 13 * arcs * ROUNDING / TWO_PI + 2.0**-53


@st.composite
def rational_engravings(draw):
    """Lines (A, A', B, B') and a budget in (0, 1) turn on a grid of 1/q
    turn, q at most 10 000: arbitrary lines, or each line a few steps of the
    grid from the one before or from its shift by the budget or about half
    of it, which makes exact and near ties."""
    q = draw(st.integers(min_value=2, max_value=10_000))
    budget = draw(st.integers(min_value=1, max_value=q - 1))
    grid = st.integers(min_value=0, max_value=q - 1)
    steps = [draw(grid)]
    near = draw(st.booleans())
    for _ in range(3):
        if near:
            shift = draw(st.sampled_from([0, budget, -budget, budget // 2, -(budget // 2)]))
            steps.append(steps[-1] + shift + draw(st.integers(min_value=-3, max_value=3)))
        else:
            steps.append(draw(grid))
    lines = tuple(Fraction(k % q, q) for k in steps)
    assume(lines[0] != lines[1] and lines[2] != lines[3])
    return lines, Fraction(budget, q)


# The standard engraving at gamma = 1/6 turn, theta = 1/12: line A' lies
# exactly gamma/2 from stop B, and stops A and B span exactly gamma.  On the
# second, line A lies gamma/2 from stop B' and stops A' and B span gamma.
FIG2_TURNS = ((Fraction(3, 12), Fraction(2, 12), Fraction(1, 12), Fraction(0)), Fraction(2, 12))
TIES_TURNS = ((Fraction(50, 360), Fraction(200, 360), Fraction(100, 360), Fraction(0)), Fraction(100, 360))
# On a grid of 1/10**7 turn, stops A and B span gamma plus one step, about
# 6.3e-7 rad: finer than any grid that rational_engravings draws, and far
# above EPS_ANGLE, so the span test of _fits_budget must refuse the pair.
# arc_sum_bound holds at this q too: each arc that is not degenerate is at
# least 1/(2q) turn, about 3e-7 rad, still far wider than EPS_ANGLE.
FINE_Q = 10**7
FINE_SPAN_TURNS = (
    (Fraction(1, 10) + Fraction(1666667 + 1, FINE_Q), Fraction(7, 10), Fraction(1, 10), Fraction(4, 10)),
    Fraction(1666667, FINE_Q),
)


@given(rational_engravings())
@settings(max_examples=60, deadline=None)
@example(FIG2_TURNS)
@example(TIES_TURNS)
@example(FINE_SPAN_TURNS)
def test_modified_device_matches_the_oracle(rational):
    lines, gamma = rational
    exact = {setup: count_key_measures(lines, gamma, setup) for setup in ALL_SETUPS}
    float_lines, budget = engraving(lines), radians(gamma)
    arcs = len(exact_engine._partition(config_for_setup(float_lines, budget, "ab"))[1])
    bound = arc_sum_bound(arcs)
    # the stop tables: a two-stop setup's four cells, a single-stop setup's
    # entry, which is its stop's reach
    table = conditional_table(float_lines, budget)
    for setup in TWO_STOP_SETUPS:
        for cell, p in zip(CELLS, exact[setup]):
            assert off(table.full_tables[setup][cell], p) <= bound, (setup, cell)
    for setup in SINGLE_STOP_SETUPS:
        p = exact[setup][COUNT_KEYS.index("left_stop" if "a" in setup else "right_stop")]
        assert off(table.singles[setup], p) <= bound, setup
    # every COUNT_KEYS event of every setup, summed over its guarded arcs
    extents, _guard, rows, _ = exact_engine._guarded(config_for_setup(float_lines, budget, "ab"), ALL_SETUPS, _COUNTED)
    assert len(extents) == arcs
    for setup, row in zip(ALL_SETUPS, rows):
        for key, bits, p in zip(COUNT_KEYS, row.T, exact[setup]):
            assert off(sum(extents[bits].tolist()) / TWO_PI, p) <= bound, (setup, key)


@given(rational_engravings(), st.booleans())
@settings(max_examples=60, deadline=None)
@example(FIG2_TURNS, False)
@example(FIG2_TURNS, True)
def test_unmodified_crossing_set_matches_the_oracle(rational, full_turn):
    lines, gamma = rational
    gamma1 = Fraction(1) if full_turn else gamma
    exact = crossing_set_measures(lines, gamma1)
    config = unmodified_config(engraving(lines), radians(gamma1))
    bound = arc_sum_bound(len(exact_engine._partition(config)[1]))
    got = astuple(crossing_probability_set(config))
    assert all(off(x, p) <= bound for x, p in zip(got, exact)), (got, exact)


def table_entries(table):
    return [table.full_tables[s][c] for s in TWO_STOP_SETUPS for c in CELLS] + [
        table.singles[s] for s in SINGLE_STOP_SETUPS
    ]


@given(rational_engravings(), st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True))
@settings(max_examples=60, deadline=None)
@example(FIG2_TURNS, 1.0)
@example(TIES_TURNS, math.pi)
def test_rotation_moves_no_entry(rational, angle):
    # turning the whole engraving leaves every exact probability as it is
    # and every gap between breakpoints too, so each float entry stays
    # within arc_sum_bound of the same exact value on both sides
    lines, gamma = rational
    turns = Fraction(angle) / TURN
    budget = radians(gamma)
    bounds = []
    entries = []
    for engraved in (engraving(lines), engraving([(x + turns) % 1 for x in lines])):
        config = config_for_setup(engraved, budget, "ab")
        bounds.append(arc_sum_bound(len(exact_engine._partition(config)[1])))
        entries.append(table_entries(conditional_table(engraved, budget)))
        unmodified = unmodified_config(engraved, budget)
        bounds.append(arc_sum_bound(len(exact_engine._partition(unmodified)[1])))
        entries.append(astuple(crossing_probability_set(unmodified)))
    for i in (0, 1):
        gap = max(off(x, Fraction(y)) for x, y in zip(entries[i], entries[i + 2]))
        assert gap <= bounds[i] + bounds[i + 2], float(gap)


# Reflecting the start angle, phi -> -phi, turns body 1's counterclockwise
# path into a clockwise one, so the bodies trade places.  The mirror of an
# engraving has lines (A, A', B, B') = (-B, -B', -A, -A'); a stop at A becomes
# a right stop at -A, so each setup maps to the one with the sides swapped,
# each stop cell to the one with the reaches swapped, and each line's
# crossing to its image's.
MIRROR_SETUP = {"ab": "ab", "ab'": "a'b", "a'b": "ab'", "a'b'": "a'b'", "a": "b", "a'": "b'", "b": "a", "b'": "a'"}
MIRROR_CELL = {"11": "11", "10": "01", "01": "10", "00": "00"}
# The image of each COUNT_KEYS event (11, 10, 01, 00, left_stop, right_stop,
# A, A', B, B') and of each ProbabilitySet entry (ab, abp, apb, apbp, a, ap,
# b, bp), by index
MIRROR_KEYS = (0, 2, 1, 3, 5, 4, 8, 9, 6, 7)
MIRROR_CROSSINGS = (0, 2, 1, 3, 6, 7, 4, 5)


def mirror(lines):
    """The engraving reflected by phi -> -phi: k -> q - k on the grid."""
    a, ap, b, bp = lines
    return tuple((-x) % 1 for x in (b, bp, a, ap))


def mirrored_entries(table):
    """table_entries of a table, each read at its mirror image."""
    return [table.full_tables[MIRROR_SETUP[s]][MIRROR_CELL[c]] for s in TWO_STOP_SETUPS for c in CELLS] + [
        table.singles[MIRROR_SETUP[s]] for s in SINGLE_STOP_SETUPS
    ]


@given(rational_engravings())
@settings(max_examples=60, deadline=None)
@example(FIG2_TURNS)
@example(TIES_TURNS)
def test_mirror_swaps_the_bodies(rational):
    # The one asymmetry of the rules, body 1 winning a tie of stop distances,
    # decides only where the two distances are equal: a midpoint of two lines
    # or its antipode, which is a breakpoint, so no arc's value depends on it.
    lines, gamma = rational
    mirrored = mirror(lines)
    for setup in ALL_SETUPS:
        image = count_key_measures(mirrored, gamma, MIRROR_SETUP[setup])
        assert [image[i] for i in MIRROR_KEYS] == count_key_measures(lines, gamma, setup), setup
    image = crossing_set_measures(mirrored, gamma)
    assert [image[i] for i in MIRROR_CROSSINGS] == crossing_set_measures(lines, gamma)
    # each float entry lies within arc_sum_bound of the exact value, which the
    # two sides share
    budget = radians(gamma)
    entries, bounds = [], []
    for engraved in (engraving(lines), engraving(mirrored)):
        modified, unmodified = config_for_setup(engraved, budget, "ab"), unmodified_config(engraved, budget)
        bounds += [arc_sum_bound(len(exact_engine._partition(config)[1])) for config in (modified, unmodified)]
        entries.append((conditional_table(engraved, budget), astuple(crossing_probability_set(unmodified))))
    (table, crossing), (mirror_table, mirror_crossing) = entries
    gap = max(off(x, Fraction(y)) for x, y in zip(table_entries(table), mirrored_entries(mirror_table)))
    assert gap <= bounds[0] + bounds[2], float(gap)
    gap = max(off(crossing[j], Fraction(mirror_crossing[i])) for j, i in enumerate(MIRROR_CROSSINGS))
    assert gap <= bounds[1] + bounds[3], float(gap)
