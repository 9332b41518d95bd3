"""Exact arc-measure probabilities against frozen values and a brute-force grid.

Expected numbers for the demo engraving (gamma = pi/3, theta = pi/6) come
from the arc picture directly: a joint weight gamma/2pi = 1/6 for the two
perfectly correlated setups, (gamma - theta)/2pi = 1/12 for the near pair,
zero for the far pair, and gamma/4pi = 1/12 for every lone stop.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ch_apparatus import exact_engine
from ch_apparatus.apparatus import (
    ALL_SETUPS,
    MODIFIED,
    SINGLE_STOP_SETUPS,
    TWO_STOP_SETUPS,
    ApparatusConfig,
    ConfigError,
    EngravedLines,
    StopPlacement,
    fig2_config,
    fig2_lines,
    config_for_setup,
    run_setups,
    run_trials,
    unmodified_config,
    validate_config,
)
from ch_apparatus.circle_geometry import EPS_ANGLE, TWO_PI, normalize, partition_circle
from ch_apparatus.exact_engine import (
    _CELL_EVENTS,
    CELLS,
    ConditionalTable,
    ConsistencyError,
    EventPredicate,
    closed_form_fig2,
    conditional_table,
    conditional_table_exact,
    event_probabilities,
    grid_oracle,
    lines_crossed,
    stop_cell,
    stop_reached,
)
from ch_apparatus.inequality_analysis import _CROSSING_EVENTS, ProbabilitySet, _crossing_values, crossing_probability_set
from ch_apparatus.monte_carlo import _COUNTED
from test_circle_geometry import numpy_partition
from test_monte_carlo import NEAR_BUDGET

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0

# Values that are no finite real: a str, None, a bool, NaN and an int beyond
# float range.
NOT_A_NUMBER = ["1.0", None, True, math.nan, 10**400]
NOT_A_NUMBER_IDS = ["str", "None", "True", "nan", "huge-int"]
MISSING = object()  # a key left out

SQUARE_LINES = EngravedLines(A=math.pi / 4, A_prime=3 * math.pi / 4, B=7 * math.pi / 4, B_prime=5 * math.pi / 4)

DEMO_JOINT = {"ab": 1.0 / 6.0, "ab'": 0.0, "a'b": 1.0 / 12.0, "a'b'": 1.0 / 6.0}
DEMO_FULL = {
    "ab": {"11": 1 / 6, "10": 0.0, "01": 0.0, "00": 5 / 6},
    "ab'": {"11": 0.0, "10": 1 / 12, "01": 1 / 12, "00": 5 / 6},
    "a'b": {"11": 1 / 12, "10": 0.0, "01": 0.0, "00": 11 / 12},
    "a'b'": {"11": 1 / 6, "10": 0.0, "01": 0.0, "00": 5 / 6},
}


class TestDemoEngraving:
    def test_joint_table_per_setup(self):
        table = conditional_table_exact(GAMMA, THETA)
        for setup, expected in DEMO_JOINT.items():
            assert table.joint[setup] == pytest.approx(expected, abs=1e-12), setup

    def test_full_tables(self):
        table = conditional_table_exact(GAMMA, THETA)
        for setup, cells in DEMO_FULL.items():
            for cell, expected in cells.items():
                assert table.full_tables[setup][cell] == pytest.approx(expected, abs=1e-12), (setup, cell)

    def test_singles(self):
        table = conditional_table_exact(GAMMA, THETA)
        for setup in ("a", "a'", "b", "b'"):
            assert table.singles[setup] == pytest.approx(1.0 / 12.0, abs=1e-12), setup

    def test_full_table_normalizes(self):
        table = conditional_table_exact(GAMMA, THETA).full_tables["a'b"]
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
        assert list(table) == list(CELLS)


class TestEventProbability:
    def test_unmodified_single_line(self):
        # body 1 sweeps gamma1, so it crosses A from an approach arc of the
        # same width: p = gamma1/2pi = 1/4 for a quarter turn
        config = unmodified_config(SQUARE_LINES, math.pi / 2.0)
        p = event_probabilities(config, [lines_crossed("A")])[0]
        assert p == pytest.approx(0.25, abs=1e-12)
        assert grid_oracle(config, lines_crossed("A"), 100_000) == pytest.approx(p, abs=1e-4)

    def test_unmodified_joint_crossing(self):
        # on the square engraving with a quarter turn the approach arcs of
        # A (ccw) and B (cw) coincide exactly
        config = unmodified_config(SQUARE_LINES, math.pi / 2.0)
        assert event_probabilities(config, [lines_crossed("A", "B")])[0] == pytest.approx(0.25, abs=1e-12)
        assert event_probabilities(config, [lines_crossed("A", "B'")])[0] == pytest.approx(0.0, abs=1e-12)

    def test_batch_events_match_single_calls(self):
        config = fig2_config(GAMMA, THETA, "ab")
        events = [stop_cell(True, True), lines_crossed("A'"), lines_crossed("A", "B")]
        combined = event_probabilities(config, events)
        for event, p in zip(events, combined):
            assert event_probabilities(config, [event]) == [p]

    def test_complement_sums_to_one(self):
        config = fig2_config(GAMMA, THETA, "ab'")
        event = lines_crossed("B'")
        p = event_probabilities(config, [event])[0]
        q = event_probabilities(config, [EventPredicate("not(crossed(B'))", lambda b: ~event.batch(b))])[0]
        assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_joint_below_marginal(self):
        config = fig2_config(GAMMA, THETA, "a'b")
        p_joint = event_probabilities(config, [lines_crossed("A'", "B")])[0]
        p_single = event_probabilities(config, [lines_crossed("A'")])[0]
        assert p_joint <= p_single + 1e-15

    def test_non_constant_event_is_rejected(self):
        # r1 varies continuously within arcs, so thresholding it cannot be
        # piecewise constant on the breakpoint partition.  The left stop at
        # A = pi/2 is met first from the arc [pi/3, pi/2], where r1 = pi/2 - phi
        # crosses 0.3; the first guard angle is its midpoint 5pi/12.
        config = fig2_config(GAMMA, THETA, "ab")
        bogus = EventPredicate(name="r1-threshold", batch=lambda b: b.r1 > 0.3)
        with pytest.raises(ConsistencyError, match="breakpoint set incomplete") as info:
            event_probabilities(config, [bogus])
        message = str(info.value)
        assert re.search(r"r1-threshold is not constant on the arc starting at 1\.04719755119659\d*", message)
        assert re.search(r"guard angles \[1\.30899693899574\d*, ", message)
        assert repr(config) in message


class TestGridOracle:
    def test_converges_to_exact_value(self):
        config = fig2_config(GAMMA, THETA, "ab")
        event = stop_cell(True, True)
        exact = event_probabilities(config, [event])[0]
        for n, tol in ((1_000, 5e-3), (100_000, 5e-5)):
            assert grid_oracle(config, event, n) == pytest.approx(exact, abs=tol)

    def test_rejects_empty_grid(self):
        config = fig2_config(GAMMA, THETA, "ab")
        with pytest.raises(ValueError):
            grid_oracle(config, lines_crossed("A"), 0)

    @pytest.mark.parametrize("n_points", [True, False, 2.0, 1.5, "10", None])
    def test_rejects_non_integer_grid(self, n_points):
        # True used to return 0.0 from one grid point, and a float ended in a
        # TypeError from range()
        config = fig2_config(GAMMA, THETA, "ab")
        message = f"need an integer number of grid points >= 1, got {n_points!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid_oracle(config, lines_crossed("A"), n_points)

    def test_numpy_integer_grid_accepted(self):
        config = fig2_config(GAMMA, THETA, "ab")
        assert grid_oracle(config, lines_crossed("A"), np.int64(1000)) == grid_oracle(config, lines_crossed("A"), 1000)


gammas = st.floats(min_value=0.2, max_value=5.5, allow_nan=False)
ratios = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


@st.composite
def fig2_params(draw):
    gamma = draw(gammas)
    theta = gamma * draw(ratios)
    if gamma + theta >= TWO_PI - 1e-9:
        gamma, theta = gamma / 2.0, theta / 2.0
    return gamma, theta


def assert_closed_form_matches_arc_measures(gamma, theta):
    closed = closed_form_fig2(gamma, theta)
    exact = conditional_table_exact(gamma, theta)
    for setup in DEMO_JOINT:
        assert closed.joint[setup] == pytest.approx(exact.joint[setup], abs=1e-12)
        for cell in CELLS:
            assert closed.full_tables[setup][cell] == pytest.approx(
                exact.full_tables[setup][cell], abs=1e-12
            ), (setup, cell)
    for setup in ("a", "a'", "b", "b'"):
        assert closed.singles[setup] == pytest.approx(exact.singles[setup], abs=1e-12)


class TestClosedForm:
    @given(fig2_params())
    @settings(max_examples=100, deadline=None)
    # an 8.9e-16 sliver at the left stop where stops:11 straddled the
    # rounding band and tripped the constancy guard
    @example(params=(4.115437219104934, 2.057718609552467))
    def test_matches_arc_measures(self, params):
        assert_closed_form_matches_arc_measures(*params)

    # theta at the angular resolution: the three inputs where the arc
    # measures disagreed with the closed form, by 0.167, 0.011 and 0.70
    @given(gammas, st.floats(min_value=0.0, max_value=8.0 * EPS_ANGLE, exclude_min=True))
    @settings(max_examples=100, deadline=None)
    @example(gamma=1.0471975511965976, theta=1e-12)
    @example(gamma=0.072, theta=5e-13)
    @example(gamma=4.4111407968578975, theta=1.0002938623520508e-12)
    def test_theta_below_the_angular_resolution_is_a_config_error(self, gamma, theta):
        # the lines A' = gamma and A = gamma + theta, B' = 0 and B = theta
        if min((gamma + theta) - gamma, theta) <= 2.0 * EPS_ANGLE:
            with pytest.raises(ConfigError, match=f"theta={theta!r} is below the angular resolution"):
                conditional_table_exact(gamma, theta)
        else:
            assert_closed_form_matches_arc_measures(gamma, theta)

    def test_wide_theta_has_spill(self):
        # theta > gamma/2: in setup a'b a lone body can still reach its stop
        # while the partner misses, with weight (theta - gamma/2)/2pi each way
        closed = closed_form_fig2(1.0, 0.9)
        spill = (0.9 - 0.5) / TWO_PI
        assert closed.full_tables["a'b"]["10"] == pytest.approx(spill, abs=1e-15)
        assert closed.full_tables["a'b"]["01"] == pytest.approx(spill, abs=1e-15)
        exact = conditional_table_exact(1.0, 0.9)
        assert exact.full_tables["a'b"]["10"] == pytest.approx(spill, abs=1e-12)

    def test_degenerate_theta_near_gamma(self):
        gamma = 1.0
        theta = gamma * (1.0 - 1e-6)
        closed = closed_form_fig2(gamma, theta)
        exact = conditional_table_exact(gamma, theta)
        assert closed.joint["a'b"] == pytest.approx(gamma * 1e-6 / TWO_PI, rel=1e-6)
        assert exact.joint["a'b"] == pytest.approx(closed.joint["a'b"], abs=1e-12)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            closed_form_fig2(1.0, 1.0)
        with pytest.raises(ConfigError):
            closed_form_fig2(4.0, 3.0)


class TestConditionalTable:
    def test_generic_engraving_agrees_with_standard(self):
        lines = fig2_lines(GAMMA, THETA)
        via_lines = conditional_table(lines, GAMMA)
        via_shape = conditional_table_exact(GAMMA, THETA)
        assert via_lines.joint == via_shape.joint
        assert via_lines.singles == via_shape.singles

    # A table checks itself when built, so each invalid one is built inside
    # pytest.raises.
    def test_validate_rejects_unnormalized_table(self):
        with pytest.raises(ConsistencyError, match="normalize"):
            ConditionalTable(
                joint={"ab": 0.5, "ab'": 0.0, "a'b": 0.0, "a'b'": 0.0},
                singles={"a": None, "a'": None, "b": None, "b'": None},
                full_tables={
                    s: {"11": 0.5, "10": 0.0, "01": 0.0, "00": 0.0}
                    for s in ("ab", "ab'", "a'b", "a'b'")
                },
            )

    @pytest.mark.parametrize("excess, raises", [(2e-9, True), (5e-10, False)], ids=["past", "inside"])
    def test_normalization_bound_is_table_tol(self, excess, raises):
        # TABLE_TOL is 1e-9: a table summing to 1 + 2e-9 is rejected, one at 1 + 5e-10 is not
        def build():
            return ConditionalTable(
                joint={s: 0.25 for s in ("ab", "ab'", "a'b", "a'b'")},
                singles={"a": None, "a'": None, "b": None, "b'": None},
                full_tables={
                    s: {"11": 0.25, "10": 0.25, "01": 0.25, "00": 0.25 + excess}
                    for s in ("ab", "ab'", "a'b", "a'b'")
                },
            )

        if raises:
            with pytest.raises(ConsistencyError, match="normalize"):
                build()
        else:
            table = build()
            assert table.validate() is table

    def test_validate_rejects_joint_mismatch(self):
        full = {s: {"11": 0.2, "10": 0.1, "01": 0.1, "00": 0.6} for s in ("ab", "ab'", "a'b", "a'b'")}
        with pytest.raises(ConsistencyError, match="disagrees"):
            ConditionalTable(
                joint={"ab": 0.9, "ab'": 0.2, "a'b": 0.2, "a'b'": 0.2},
                singles={"a": 0.5, "a'": 0.5, "b": 0.5, "b'": 0.5},
                full_tables=full,
            )

    @pytest.mark.parametrize("p", [-1e-6, 1.0 + 1e-6, 2.0])
    def test_validate_rejects_a_single_entry_out_of_range(self, p):
        full = {s: {"11": 0.2, "10": 0.1, "01": 0.1, "00": 0.6} for s in ("ab", "ab'", "a'b", "a'b'")}
        with pytest.raises(ConsistencyError, match=rf"^single entry for setup 'b' out of range: {re.escape(repr(p))}$"):
            ConditionalTable(
                joint={s: 0.2 for s in ("ab", "ab'", "a'b", "a'b'")},
                singles={"a": 0.5, "a'": None, "b": p, "b'": 0.5},
                full_tables=full,
            )

    @pytest.mark.parametrize(
        "part, bad",
        [
            pytest.param(part, bad, id=f"{part}-{bad_id}")
            for part in ("cell", "joint", "single")
            for bad, bad_id in zip(NOT_A_NUMBER + [MISSING], NOT_A_NUMBER_IDS + ["missing"])
            if not (part == "single" and bad is None)  # None is a single entry that no trials inform
        ],
    )
    def test_table_names_the_entry_that_is_no_number(self, part, bad):
        # a str, None or an int beyond float range in a cell or joint entry, or
        # a missing key, used to end in a raw TypeError, OverflowError or
        # KeyError, and True was the probability 1
        table = closed_form_fig2(GAMMA, THETA)
        joint, singles = dict(table.joint), dict(table.singles)
        full = {s: dict(cells) for s, cells in table.full_tables.items()}
        entries, key = {"cell": (full["a'b"], "10"), "joint": (joint, "a'b"), "single": (singles, "b")}[part]
        if bad is MISSING:
            del entries[key]
        else:
            entries[key] = bad
        rule = {
            "cell": "table for setup \"a'b\" needs a probability in each of the cells ('11', '10', '01', '00'): ",
            "joint": f"joint entry for setup \"a'b\" disagrees with its table: {None if bad is MISSING else bad!r}",
            "single": "no single entry for setup 'b'" if bad is MISSING else f"single entry for setup 'b' out of range: {bad!r}",
        }[part]
        with pytest.raises(ConsistencyError, match=f"^{re.escape(rule)}"):
            ConditionalTable(joint=joint, singles=singles, full_tables=full)

    @pytest.mark.parametrize(
        "cells",
        [
            {"11": 1.5, "10": -0.5, "01": 0.0, "00": 0.0},
            {"11": 0.25, "10": -1e-6, "01": 0.25, "00": 0.500001},
            {"11": 0.25, "10": 1.0 + 2e-9, "01": -0.25, "00": -2e-9},
        ],
        ids=["past-one", "below-zero", "just-past-one"],
    )
    def test_cell_outside_the_unit_interval_is_rejected(self, cells):
        # each sums to 1, with its joint entry on cell 11: the first used to
        # build, and analyze printed a naive CH of 1.611 from it
        table = closed_form_fig2(1.0, 0.3)
        rule = f"table for setup 'ab' needs a probability in each of the cells {CELLS!r}: {cells!r}"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(rule)}$"):
            ConditionalTable({**table.joint, "ab": cells["11"]}, table.singles, {**table.full_tables, "ab": cells})

    def test_entries_within_table_tol_of_the_unit_interval_pass(self):
        # rounding slivers of a closed form are probabilities
        table = closed_form_fig2(1.0, 0.3)
        cells = {"11": 1.0 + 0.5e-9, "10": -0.5e-9, "01": 0.0, "00": 0.0}
        singles = {**table.singles, "b": -0.5e-9}
        assert ConditionalTable({**table.joint, "ab": cells["11"]}, singles, {**table.full_tables, "ab": cells})

    def test_table_of_nothing_names_its_first_setup(self):
        # used to end in a raw KeyError
        with pytest.raises(ConsistencyError, match=r"^table for setup 'ab' needs a probability in each of the cells .*: \{\}$"):
            ConditionalTable(joint={}, singles={}, full_tables={})

    def test_table_of_nan_is_rejected(self):
        # every comparison with NaN is false, so this table used to pass
        with pytest.raises(ConsistencyError, match="^table for setup 'ab' needs a probability in each of the cells"):
            ConditionalTable(
                joint=dict.fromkeys(TWO_STOP_SETUPS, math.nan),
                singles=dict.fromkeys(SINGLE_STOP_SETUPS, math.nan),
                full_tables={s: dict.fromkeys(CELLS, math.nan) for s in TWO_STOP_SETUPS},
            )

    def test_replace_checks_the_new_table(self):
        # a joint entry moved without its cell is no table
        table = closed_form_fig2(GAMMA, THETA)
        joint = {**table.joint, "ab": table.joint["ab"] + 1e-6}
        rule = f"joint entry for setup 'ab' disagrees with its table: {joint['ab']!r}"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(rule)}$"):
            dataclasses.replace(table, joint=joint)

    def test_stop_reached_sides(self):
        with pytest.raises(ValueError):
            stop_reached("up")
        config = fig2_config(GAMMA, THETA, "b")
        p = event_probabilities(config, [stop_reached("right")])[0]
        assert p == pytest.approx(1.0 / 12.0, abs=1e-12)


def _list_breakpoints(config, order=None):
    """The partition from independent routes: every anchor shifted by every
    budget, normalized one by one and -0.0 taken as 0.0, partitioned by the
    numpy reference of test_circle_geometry, then each guard point
    normalized.  ``order`` rearranges the shifts."""
    lines = config.lines
    anchors = [lines.A, lines.A_prime, lines.B, lines.B_prime]
    anchors += [stop for stop in (config.stops.left, config.stops.right) if stop is not None]
    shifts = {0.0}
    if config.mode == MODIFIED:
        g = config.gamma
        shifts.update((g, -g, 0.5 * g, -0.5 * g))
    if config.gamma1 is not None:
        shifts.update((config.gamma1, -config.gamma1))
    shifts = list(shifts) if order is None else order(shifts)
    starts, extents = numpy_partition([normalize(a + s) or 0.0 for a in anchors for s in shifts])
    margin = exact_engine._GUARD_MARGIN
    guard = np.array(
        [
            [normalize(s + 0.5 * e), normalize(s + margin), normalize(s + (e - margin))]
            for s, e in zip(starts.tolist(), extents.tolist())
        ]
    )
    narrow = extents < 2.0 * margin
    guard[narrow, 1:] = guard[narrow, :1]
    return starts, extents, guard


budgets = st.floats(min_value=1e-3, max_value=TWO_PI - 1e-3)


@st.composite
def engraved_lines(draw, budget):
    """Arbitrary lines, or each line a few EPS_ANGLE from the one before or
    from its shift by the budget or half of it."""
    angle = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
    a = draw(angle)
    if draw(st.booleans()):
        angles = [a] + [draw(angle) for _ in range(3)]
    else:
        angles = [a]
        for _ in range(3):
            shift = draw(st.sampled_from([0.0, budget, -budget, 0.5 * budget, -0.5 * budget]))
            angles.append(normalize(angles[-1] + shift + draw(st.integers(-3, 3)) * EPS_ANGLE))
    lines = EngravedLines(*angles)
    assume(lines.A != lines.A_prime and lines.B != lines.B_prime)
    return lines


@st.composite
def breakpoint_configs(draw):
    """Validated configs of both devices on arbitrary or near-coincident lines,
    with stops on a line or up to EPS_ANGLE off it."""
    budget = draw(budgets)
    lines = draw(engraved_lines(budget))
    kind = draw(st.sampled_from(["setup", "offset stops", "unmodified"]))
    if kind == "unmodified":
        return unmodified_config(lines, draw(st.sampled_from([budget, TWO_PI])))
    setup = draw(st.sampled_from(ALL_SETUPS))
    config = config_for_setup(lines, budget, setup)
    if kind == "setup":
        return config
    nudge = draw(st.sampled_from([-0.5 * EPS_ANGLE, 0.5 * EPS_ANGLE]))
    stops = StopPlacement(*(None if x is None else normalize(x + nudge) for x in (config.stops.left, config.stops.right)))
    return validate_config(ApparatusConfig(mode=MODIFIED, lines=lines, gamma=budget, stops=stops))


# A - gamma is a tiny negative that rounds onto 2*pi and normalizes to 0.0; a
# line at 0.0 with gamma1 = 2*pi yields both 0.0 and -0.0 as breakpoints, and
# the partition keeps 0.0
@given(breakpoint_configs())
@settings(max_examples=200)
@example(config_for_setup(EngravedLines(1.0, 2.0, 3.0, 4.0), math.nextafter(1.0, 2.0), "ab"))
@example(unmodified_config(EngravedLines(1.0, 2.0, 0.0, 4.0), TWO_PI))
@example(unmodified_config(EngravedLines(0.0, 2.0, 3.0, 4.0), TWO_PI))
def test_partition_equals_the_list_breakpoints(config):
    got = exact_engine._partition(config)
    # no arc starts at -0.0, whichever order the shifts come in
    assert not np.signbit(got[0]).any(), config
    for order in (None, sorted, lambda shifts: sorted(shifts, reverse=True)):
        want = _list_breakpoints(config, order)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), (config, order)


def _critical_without_half_shifts(config):
    """The breakpoint set with the +-gamma/2 shifts left out: incomplete."""
    lines = config.lines
    anchors = [lines.A, lines.A_prime, lines.B, lines.B_prime]
    anchors += [stop for stop in (config.stops.left, config.stops.right) if stop is not None]
    g = config.gamma
    return [normalize(a + s) for a in anchors for s in (0.0, g, -g)]


# Engravings whose partition without the +-gamma/2 shifts fails first in a
# two-stop setup, and first in a single-stop setup
FAILS_IN_A_PAIR = (
    EngravedLines(0.37261016614881004, 0.21487387664823115, 0.15773628950057886, 0.0),
    0.21487387664823115,
)
FAILS_IN_A_SINGLE = (
    EngravedLines(1.1739329721253928, 1.8074990466082548, 3.968375288727041, 4.186544520997088),
    5.696916767739077,
)


class TestSharedPartition:
    # Messages frozen from the engine that partitioned each setup on its own
    @pytest.mark.parametrize(
        "lines, gamma, message",
        [
            (
                *FAILS_IN_A_PAIR,
                "event stops:01 is not constant on the arc starting at 0.0 (extent "
                "0.15773628950057886), guard angles [0.07886814475028943, 4e-12, "
                "0.15773628949657886], config ApparatusConfig(mode='modified', lines=EngravedLines("
                "A=0.37261016614881004, A_prime=0.21487387664823115, B=0.15773628950057886, "
                "B_prime=0.0), gamma1=None, gamma=0.21487387664823115, stops=StopPlacement("
                "left=0.37261016614881004, right=0.0)); breakpoint set incomplete",
            ),
            (
                *FAILS_IN_A_SINGLE,
                "event stops:1x is not constant on the arc starting at 4.554643828167551 (extent "
                "0.21816923227004636), guard angles [4.663728444302574, 4.554643828171551, "
                "4.772813060433597], config ApparatusConfig(mode='modified', lines=EngravedLines("
                "A=1.1739329721253928, A_prime=1.8074990466082548, B=3.968375288727041, "
                "B_prime=4.186544520997088), gamma1=None, gamma=5.696916767739077, stops="
                "StopPlacement(left=1.1739329721253928, right=None)); breakpoint set incomplete",
            ),
        ],
    )
    def test_incomplete_breakpoints_raise_the_frozen_message(self, monkeypatch, lines, gamma, message):
        monkeypatch.setattr(exact_engine, "_critical_angles", _critical_without_half_shifts)
        with pytest.raises(ConsistencyError) as info:
            conditional_table(lines, gamma)
        assert str(info.value) == message

    def test_stop_tables_must_normalize(self, monkeypatch):
        # four copies of the 11 cell sum to 4/6 on the demo engraving; the
        # table reads the stacked stop cells through _stop_cells and fails in
        # ConditionalTable.validate
        monkeypatch.setattr(exact_engine, "_stop_cells", lambda batch: batch.stop_cells[[0, 0, 0, 0]])
        with pytest.raises(ConsistencyError, match=r"^table for setup 'ab' does not normalize: \{'11': 0\.1666"):
            conditional_table_exact(GAMMA, THETA)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), min_size=4, max_size=4),
        st.floats(min_value=1e-3, max_value=TWO_PI - 1e-3),
    )
    @settings(max_examples=40)
    @example(angles=[4.642336908210131, 1.642336908211131, 2.6423369082111305, 0.6423369082091311], gamma=4.0)
    def test_table_equals_midpoint_sums_per_setup(self, angles, gamma):
        # every entry is the one-by-one sum, in arc order, of the arcs of the
        # setup's own list partition whose midpoint trial has the event
        lines = EngravedLines(*angles)
        if lines.A == lines.A_prime or lines.B == lines.B_prime:
            return
        table = conditional_table(lines, gamma)
        for setup in ALL_SETUPS:
            config = config_for_setup(lines, gamma, setup)
            arcs = partition_circle(exact_engine._critical_angles(config))
            batch = run_trials(config, np.array([normalize(arc.start + 0.5 * arc.extent) for arc in arcs]))
            cells = {
                "11": batch.reached_left_stop & batch.reached_right_stop,
                "10": batch.reached_left_stop & ~batch.reached_right_stop,
                "01": ~batch.reached_left_stop & batch.reached_right_stop,
                "00": ~batch.reached_left_stop & ~batch.reached_right_stop,
                "1x": batch.reached_left_stop,
                "x1": batch.reached_right_stop,
            }
            sums = {}
            for cell, hits in cells.items():
                total = 0.0
                for arc, hit in zip(arcs, hits.tolist()):
                    if hit:
                        total += arc.extent
                sums[cell] = total / TWO_PI
            if setup in table.full_tables:
                assert table.full_tables[setup] == {c: sums[c] for c in CELLS}, setup
            else:
                assert table.singles[setup] == sums["1x" if setup.startswith("a") else "x1"], setup


def _reads(calls):
    """The results of calls, made in order up to the first that raises
    ConsistencyError, and that error's message (None if none raises)."""
    results = []
    for call in calls:
        try:
            results.append(call())
        except ConsistencyError as exc:
            return results, str(exc)
    return results, None


def _assert_shared_read(shared_call, own_calls, same):
    """The shared call reads what the calls on their own read, or raises the
    message of the first of them that raises; returns that message."""
    own, failure = _reads(own_calls)
    if failure is not None:
        with pytest.raises(ConsistencyError) as info:
            shared_call()
        assert str(info.value) == failure
        return failure
    shared = shared_call()
    assert len(shared) == len(own)
    for got, want in zip(shared, own):
        same(got, want)
    return None


def _same_rows(got, want):
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def _same_repr(got, want):
    assert repr(got) == repr(want)


def _shared_table(lines, gamma):
    table = conditional_table(lines, gamma)
    return [table.full_tables[s] for s in TWO_STOP_SETUPS] + [table.singles[s] for s in SINGLE_STOP_SETUPS]


def _own_table_calls(lines, gamma):
    """Per setup in ALL_SETUPS order, the call that reads its conditional_table
    entry on its own partition: the full table, or the one stop's event."""
    def own(setup):
        config = config_for_setup(lines, gamma, setup)
        if setup in TWO_STOP_SETUPS:
            return dict(zip(CELLS, event_probabilities(config, _CELL_EVENTS)))
        return event_probabilities(config, [stop_reached("left" if setup.startswith("a") else "right")])[0]

    return [lambda setup=setup: own(setup) for setup in ALL_SETUPS]


def _guarded_rows(config, setups):
    """The arc extents, guard points and event bits of each row of _guarded."""
    extents, guard, bits, _ = exact_engine._guarded(config, setups, _COUNTED)
    return [(extents, guard, row) for row in bits]


def _assert_rows_read_their_own(lines, gamma, order):
    """Every row of a shared partition reads what the setup's own partition
    reads, bits of arcs under two guard margins included; returns the
    messages both routes raised (None where they raised nothing)."""
    rows = _assert_shared_read(
        lambda: _guarded_rows(config_for_setup(lines, gamma, order[0]), order),
        [lambda setup=setup: _guarded_rows(config_for_setup(lines, gamma, setup), None)[0] for setup in order],
        _same_rows,
    )
    return rows, _assert_shared_read(lambda: _shared_table(lines, gamma), _own_table_calls(lines, gamma), _same_repr)


# Arbitrary and near-coincident engravings, and those where per-phi sums of
# stop distances flip by rounding along whole arcs
engravings = st.one_of(
    budgets.flatmap(lambda budget: st.tuples(engraved_lines(budget), st.just(budget))),
    st.sampled_from(NEAR_BUDGET),
)


@given(engravings, st.permutations(ALL_SETUPS))
@settings(max_examples=100, deadline=None)
@example(engraving=FAILS_IN_A_PAIR, order=list(ALL_SETUPS))
@example(engraving=FAILS_IN_A_SINGLE, order=list(ALL_SETUPS))
def test_setup_rows_read_what_one_config_reads(engraving, order):
    _assert_rows_read_their_own(*engraving, order)
    _assert_stacked_reads_are_the_event_reads(*engraving, order)


def _same_bytes(got, want):
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _assert_stacked_reads_are_the_event_reads(lines, gamma, order):
    """The stacked reads of the stop cells and of the crossing set equal the
    events read one by one and stacked, on the guard points of the setup rows
    and of the unmodified device, and so do the probabilities read from them."""
    config = config_for_setup(lines, gamma, order[0])
    rows = run_setups(config, order, exact_engine._partition(config)[2].ravel())
    _same_bytes(exact_engine._stop_cells(rows), np.array([event.batch(rows) for event in exact_engine._CELL_EVENTS]))
    honest = unmodified_config(lines, gamma)
    batch = run_trials(honest, exact_engine._partition(honest)[2].ravel())
    _same_bytes(_crossing_values(batch), np.array([event.batch(batch) for event in _CROSSING_EVENTS]))
    _assert_shared_read(
        lambda: [crossing_probability_set(honest)],
        [lambda: ProbabilitySet(*event_probabilities(honest, _CROSSING_EVENTS))],
        _same_repr,
    )


@pytest.mark.parametrize("engraving", [FAILS_IN_A_PAIR, FAILS_IN_A_SINGLE])
@pytest.mark.parametrize("order", [ALL_SETUPS, ALL_SETUPS[::-1]])
def test_setup_rows_raise_what_one_config_raises(monkeypatch, engraving, order):
    monkeypatch.setattr(exact_engine, "_critical_angles", _critical_without_half_shifts)
    rows, table = _assert_rows_read_their_own(*engraving, list(order))
    assert rows is not None and table is not None


def test_grid_oracle_whole_table():
    # one brute-force pass over every demo setup at moderate resolution
    exact = conditional_table_exact(GAMMA, THETA)
    for setup in ("ab", "ab'", "a'b", "a'b'"):
        config = fig2_config(GAMMA, THETA, setup)
        p = grid_oracle(config, stop_cell(True, True), 200_000)
        assert p == pytest.approx(exact.joint[setup], abs=5e-5), setup
