"""Trial kinematics of the two-body device.

The package has one kinematics, the array code behind run_trials and
run_setups; run_trial is its one-row case.  The scalar statement of the same
rules in scalar_reference (scalar_trial) is the reference it must match bit
for bit.  Example traces below were worked out by hand on the standard
engraving with gamma = pi/3, theta = pi/6: lines A = pi/2, A' = pi/3,
B = pi/6, B' = 0, stops for setup "ab" at A and B.
"""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ch_apparatus.apparatus as apparatus
from ch_apparatus.apparatus import (
    ALL_SETUPS,
    FREE_ROTATION_END,
    LINE_NAMES,
    MODIFIED,
    MUTUAL_CONSTRAINT,
    STOP,
    UNMODIFIED,
    ApparatusConfig,
    ConfigError,
    EngravedLines,
    StopPlacement,
    TrialBatch,
    _fits_budget,
    config_for_setup,
    crossed_events,
    fig2_config,
    fig2_lines,
    run_trial,
    run_setups,
    run_trials,
    setup_stops,
    unmodified_config,
    validate_config,
)
from ch_apparatus.circle_geometry import EPS_ANGLE, TWO_PI, ccw_delta, normalize
from ch_apparatus.exact_engine import _CELL_EVENTS, _stop_cells, conditional_table, grid_oracle, stop_cell
from ch_apparatus.inequality_analysis import _CROSSING_EVENTS, _crossing_values, crossing_probability_set
from scalar_reference import scalar_trial
from test_exact_engine import NOT_A_NUMBER, NOT_A_NUMBER_IDS, budgets, engraved_lines

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0

SQUARE_LINES = EngravedLines(A=math.pi / 4, A_prime=3 * math.pi / 4, B=7 * math.pi / 4, B_prime=5 * math.pi / 4)


def demo_config(setup="ab"):
    return fig2_config(GAMMA, THETA, setup)


# ----------------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------------


def test_fig2_lines_layout():
    lines = fig2_lines(GAMMA, THETA)
    assert lines.B_prime == 0.0
    assert lines.B == pytest.approx(THETA, abs=1e-15)
    assert lines.A_prime == pytest.approx(GAMMA, abs=1e-15)
    assert lines.A == pytest.approx(GAMMA + THETA, abs=1e-15)


@pytest.mark.parametrize(
    "gamma, theta",
    [(1.0, 1.0), (1.0, 1.5), (1.0, 0.0), (1.0, -0.2), (4.0, 3.0), (math.nan, 0.5)],
)
def test_fig2_lines_rejects_bad_shape(gamma, theta):
    with pytest.raises(ConfigError):
        fig2_lines(gamma, theta)


def test_setup_stops_labels():
    lines = fig2_lines(GAMMA, THETA)
    assert setup_stops(lines, "ab") == StopPlacement(left=lines.A, right=lines.B)
    assert setup_stops(lines, "a'b'") == StopPlacement(left=lines.A_prime, right=lines.B_prime)
    assert setup_stops(lines, "a'") == StopPlacement(left=lines.A_prime, right=None)
    assert setup_stops(lines, "b'") == StopPlacement(left=None, right=lines.B_prime)
    with pytest.raises(ConfigError):
        setup_stops(lines, "ba")


def test_unmodified_rejects_stops():
    with pytest.raises(ConfigError, match="no stops"):
        ApparatusConfig(mode=UNMODIFIED, lines=SQUARE_LINES, gamma1=1.0, stops=StopPlacement(left=SQUARE_LINES.A))


def test_modified_requires_budget():
    with pytest.raises(ConfigError, match="gamma"):
        ApparatusConfig(mode=MODIFIED, lines=SQUARE_LINES, gamma=None)


def test_stop_must_sit_on_a_line():
    with pytest.raises(ConfigError, match="left stop"):
        ApparatusConfig(mode=MODIFIED, lines=SQUARE_LINES, gamma=1.0, stops=StopPlacement(left=0.123))


@pytest.mark.parametrize("right", [SQUARE_LINES.A, SQUARE_LINES.A_prime, 0.123])
def test_right_stop_must_sit_on_b_or_b_prime(right):
    # a line of the left side is no place for the right stop
    with pytest.raises(ConfigError, match=rf"^right stop must sit on line B or B', got {right!r}$"):
        ApparatusConfig(mode=MODIFIED, lines=SQUARE_LINES, gamma=1.0, stops=StopPlacement(right=right))


def test_all_violations_reported_together():
    with pytest.raises(ConfigError) as err:
        ApparatusConfig(mode="sideways", lines=EngravedLines(A=1.0, A_prime=1.0, B=9.0, B_prime=0.0), gamma=1.0)
    message = str(err.value)
    assert "mode" in message
    assert "A and A'" in message
    assert "line B" in message


@pytest.mark.parametrize("gamma1, ok", [(0.0, False), (TWO_PI, True), (7.0, False), (None, False)])
def test_gamma1_range(gamma1, ok):
    if ok:
        config = ApparatusConfig(mode=UNMODIFIED, lines=SQUARE_LINES, gamma1=gamma1)
        assert validate_config(config) is config
    else:
        with pytest.raises(ConfigError):
            ApparatusConfig(mode=UNMODIFIED, lines=SQUARE_LINES, gamma1=gamma1)


def test_gamma_must_be_below_full_turn():
    with pytest.raises(ConfigError):
        ApparatusConfig(mode=MODIFIED, lines=SQUARE_LINES, gamma=TWO_PI)


@pytest.mark.parametrize(
    "change, rule",
    [
        ({"gamma": 50.0}, "modified mode needs mutual-rotation budget gamma in (0, 2*pi), got 50.0"),
        ({"stops": StopPlacement(left=0.123, right=0.3)}, "left stop must sit on line A or A', got 0.123"),
        ({"lines": EngravedLines(1.3, 1.3, 0.3, 0.0)}, "lines A and A' must be distinct"),
    ],
    ids=["gamma", "stops", "lines"],
)
def test_replace_checks_the_new_config(change, rule):
    # a copy made by dataclasses.replace is built, so it is checked; each of
    # these used to run, gamma=50.0 into a ConsistencyError from the engine
    with pytest.raises(ConfigError, match=f"^{re.escape(rule)}$"):
        dataclasses.replace(fig2_config(1.0, 0.3, "ab"), **change)


@pytest.mark.parametrize(
    "change, rule",
    [
        ({"lines": None}, "lines must be of type EngravedLines, got None"),
        ({"lines": (1.0, 2.0, 3.0, 4.0)}, "lines must be of type EngravedLines, got (1.0, 2.0, 3.0, 4.0)"),
        ({"stops": None}, "stops must be of type StopPlacement, got None"),
        (
            {"mode": "sideways", "lines": "fig2", "stops": 1.0},
            "mode must be 'unmodified' or 'modified', got 'sideways'; lines must be of type EngravedLines, "
            "got 'fig2'; stops must be of type StopPlacement, got 1.0",
        ),
    ],
    ids=["lines-none", "lines-tuple", "stops-none", "all-three"],
)
def test_config_names_lines_or_stops_of_the_wrong_type(change, rule):
    # lines=None used to end in a raw AttributeError from reading lines.A
    with pytest.raises(ConfigError, match=f"^{re.escape(rule)}$"):
        ApparatusConfig(**{"mode": MODIFIED, "lines": fig2_lines(1.0, 0.3), "gamma": 1.0, **change})


def _config_with(field, bad):
    lines = fig2_lines(1.2, 0.3)
    if field == "gamma":
        return ApparatusConfig(mode=MODIFIED, lines=lines, gamma=bad)
    if field == "gamma1":
        return ApparatusConfig(mode=UNMODIFIED, lines=lines, gamma1=bad)
    if field == "line":
        # B' is no stop of setup ab, so only the line's own rule is broken
        return dataclasses.replace(fig2_config(1.2, 0.3, "ab"), lines=dataclasses.replace(lines, B_prime=bad))
    if field == "line-under-a-stop":
        # the left stop sat on A: it now sits on no line, and its check must
        # not meet the non-number A
        return dataclasses.replace(fig2_config(1.2, 0.3, "ab"), lines=dataclasses.replace(lines, A=bad))
    return dataclasses.replace(fig2_config(1.2, 0.3, "ab"), stops=StopPlacement(left=bad, right=lines.B))


_FIELD_RULES = {
    "gamma": "modified mode needs mutual-rotation budget gamma in (0, 2*pi), got {bad!r}",
    "gamma1": "unmodified mode needs free-rotation angle gamma1 in (0, 2*pi], got {bad!r}",
    "line": "line B' must be a normalized angle in [0, 2*pi), got {bad!r}",
    "line-under-a-stop": (
        "line A must be a normalized angle in [0, 2*pi), got {bad!r}; left stop must sit on line A or A', got 1.5"
    ),
    "stop": "left stop must sit on line A or A', got {bad!r}",
}


@pytest.mark.parametrize(
    "field, bad",
    [
        pytest.param(field, bad, id=f"{field}-{bad_id}")
        for field in _FIELD_RULES
        for bad, bad_id in zip(NOT_A_NUMBER, NOT_A_NUMBER_IDS)
        if not (field == "stop" and bad is None)  # a stop of None is no stop
    ],
)
def test_config_names_the_field_that_is_no_number(field, bad):
    # each of these used to end in a raw TypeError or OverflowError, or, for
    # True, to build
    rule = _FIELD_RULES[field].format(bad=bad)
    with pytest.raises(ConfigError, match=f"^{re.escape(rule)}$"):
        _config_with(field, bad)


@pytest.mark.parametrize("bad", NOT_A_NUMBER, ids=NOT_A_NUMBER_IDS)
@pytest.mark.parametrize("side", ["gamma", "theta"])
def test_fig2_lines_names_a_value_that_is_no_number(side, bad):
    gamma, theta = (bad, 0.3) if side == "gamma" else (1.0, bad)
    with pytest.raises(ConfigError, match=f"^gamma and theta must be finite numbers, got {re.escape(f'{gamma!r}, {theta!r}')}$"):
        fig2_lines(gamma, theta)


def test_config_takes_no_validation_mark():
    # validity is not a field: no argument can claim it
    with pytest.raises(TypeError):
        ApparatusConfig(mode=MODIFIED, lines=SQUARE_LINES, gamma=1.0, _validated=True)


# ----------------------------------------------------------------------------
# hand-checked trials on the standard engraving
# ----------------------------------------------------------------------------


def test_trial_both_stops_reached():
    # phi = pi/4: body 2 meets B first after pi/12, body 1 then just reaches A
    # as the budget runs out; the stop wins the tie
    out = run_trial(demo_config("ab"), math.pi / 4.0)
    assert out.r1 == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert out.r2 == pytest.approx(math.pi / 12.0, abs=1e-15)
    assert out.blocked1 == STOP and out.blocked2 == STOP
    assert out.reached_left_stop and out.reached_right_stop
    assert out.crossed == frozenset({"A", "A'", "B"})


def test_trial_mutual_constraint_only():
    # phi = pi: both stops are far away, each body gets half the budget
    out = run_trial(demo_config("ab"), math.pi)
    assert out.r1 == pytest.approx(GAMMA / 2.0, abs=1e-15)
    assert out.r2 == pytest.approx(GAMMA / 2.0, abs=1e-15)
    assert out.blocked1 == MUTUAL_CONSTRAINT and out.blocked2 == MUTUAL_CONSTRAINT
    assert not out.reached_left_stop and not out.reached_right_stop
    assert out.crossed == frozenset()


def test_trial_zero_rotation_stop():
    # phi = pi/6 sits exactly on B: body 2 is blocked immediately, body 1
    # spends the whole budget and just reaches A
    out = run_trial(demo_config("ab"), math.pi / 6.0)
    assert out.r2 == 0.0
    assert out.reached_right_stop
    assert out.r1 == pytest.approx(GAMMA, abs=1e-15)
    assert out.reached_left_stop
    assert out.crossed == frozenset({"A", "A'", "B"})


def test_trial_one_stop_blocks_partner():
    # phi = 0.4 rad before A, stops at A and B': body 1 blocks at A quickly,
    # B' is too far for body 2, which takes the rest of the budget instead
    phi = normalize(demo_config().stops.left - 0.4)
    out = run_trial(demo_config("ab'"), phi)
    assert out.r1 == pytest.approx(0.4, abs=1e-12)
    assert out.blocked1 == STOP
    assert out.blocked2 == MUTUAL_CONSTRAINT
    assert out.r2 == pytest.approx(GAMMA - 0.4, abs=1e-12)
    assert not out.reached_right_stop


def test_trial_partner_stop_exactly_at_budget_edge():
    # in setup "ab" the stops sit exactly gamma apart, so when body 1 reaches
    # A the budget leaves body 2 exactly at B; the tie resolves to the stop
    phi = normalize(demo_config().stops.left - 0.4)
    out = run_trial(demo_config("ab"), phi)
    assert out.blocked1 == STOP and out.blocked2 == STOP
    assert out.reached_left_stop and out.reached_right_stop
    assert out.r2 == pytest.approx(GAMMA - 0.4, abs=1e-12)


def test_trial_unmodified_full_turn_crosses_everything():
    config = unmodified_config(SQUARE_LINES, TWO_PI)
    out = run_trial(config, 1.234)
    assert out.r1 == out.r2 == TWO_PI
    assert out.blocked1 == out.blocked2 == FREE_ROTATION_END
    assert not out.reached_left_stop and not out.reached_right_stop
    assert out.crossed == frozenset({"A", "A'", "B", "B'"})


def test_trial_unmodified_quarter_turn():
    # phi = 0 on the square engraving: body 1 sweeps ccw over A only,
    # body 2 sweeps cw over B only
    config = unmodified_config(SQUARE_LINES, math.pi / 2.0)
    out = run_trial(config, 0.0)
    assert out.crossed == frozenset({"A", "B"})
    assert crossed_events(out) == (True, False, True, False)


def test_crossed_events_order_matches_line_names():
    out = run_trial(demo_config("ab"), math.pi / 4.0)
    assert crossed_events(out) == (True, True, True, False)


# ----------------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------------

gammas = st.floats(min_value=0.2, max_value=5.5, allow_nan=False)
ratios = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
phis = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def fig2_params(draw):
    gamma = draw(gammas)
    theta = gamma * draw(ratios)
    if gamma + theta >= TWO_PI - 1e-9:
        gamma, theta = gamma / 2.0, theta / 2.0
    return gamma, theta


@given(fig2_params(), st.sampled_from(ALL_SETUPS), phis)
def test_budget_is_respected(params, setup, phi):
    gamma, theta = params
    out = run_trial(fig2_config(gamma, theta, setup), phi)
    assert out.r1 >= 0.0 and out.r2 >= 0.0
    assert out.r1 + out.r2 <= gamma + 1e-12


@given(fig2_params(), st.sampled_from(ALL_SETUPS), phis)
def test_budget_exhausted_unless_both_stopped(params, setup, phi):
    gamma, theta = params
    out = run_trial(fig2_config(gamma, theta, setup), phi)
    if not (out.blocked1 == STOP and out.blocked2 == STOP):
        assert out.r1 + out.r2 == pytest.approx(gamma, abs=1e-12)


@given(fig2_params(), phis)
def test_reached_stop_implies_crossing_its_line(params, phi):
    gamma, theta = params
    out = run_trial(fig2_config(gamma, theta, "a'b"), phi)
    if out.reached_left_stop:
        assert "A'" in out.crossed
    if out.reached_right_stop:
        assert "B" in out.crossed


@given(fig2_params())
def test_stop_wins_tie_with_mutual_constraint(params):
    # place phi so body 1 meets its stop exactly when the budget would split
    gamma, theta = params
    config = fig2_config(gamma, theta, "a")
    phi = normalize(config.stops.left - gamma / 2.0)
    out = run_trial(config, phi)
    assert out.blocked1 == STOP
    assert out.reached_left_stop


@given(fig2_params(), st.sampled_from(ALL_SETUPS), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_batch_matches_scalar_bitwise(params, setup, seed):
    gamma, theta = params
    config = fig2_config(gamma, theta, setup)
    rng = np.random.default_rng(seed)
    sample = rng.uniform(0.0, TWO_PI, size=64)
    batch = run_trials(config, sample)
    for i, phi in enumerate(sample):
        out = scalar_trial(config, phi)
        assert batch.r1[i] == out.r1, f"r1 differs at phi={phi!r}"
        assert batch.r2[i] == out.r2, f"r2 differs at phi={phi!r}"
        assert bool(batch.reached_left_stop[i]) == out.reached_left_stop
        assert bool(batch.reached_right_stop[i]) == out.reached_right_stop
        for name in ("A", "A'", "B", "B'"):
            assert bool(batch.crossed[name][i]) == (name in out.crossed)


@given(fig2_params(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_batch_matches_scalar_unmodified(params, seed):
    gamma, theta = params
    lines = fig2_lines(gamma, theta)
    config = unmodified_config(lines, gamma)
    rng = np.random.default_rng(seed)
    sample = rng.uniform(0.0, TWO_PI, size=64)
    batch = run_trials(config, sample)
    for i, phi in enumerate(sample):
        out = scalar_trial(config, phi)
        assert batch.r1[i] == out.r1 and batch.r2[i] == out.r2
        for name in ("A", "A'", "B", "B'"):
            assert bool(batch.crossed[name][i]) == (name in out.crossed)


# Stop A sits gamma + 1e-12 from stop B', and line A' gamma + about 1e-12
# from stop B.  Along the arc [0.6423369082111305, +1.0] the per-phi sums of
# stop distances round to either side of gamma + EPS_ANGLE, so partner fits
# and budget-limited crossings decided from them flip from point to point.
NEAR_BUDGET_LINES = EngravedLines(
    4.642336908210131, 1.642336908211131, 2.6423369082111305, 0.6423369082091311
)


# Line A sits 1e-12 (one EPS_ANGLE, give or take rounding) past line A' at
# 1.2e-38.  Body 1 held at a stop on A' crosses A when that span is at most
# EPS_ANGLE; decided from per-phi distances as d <= r1 + EPS_ANGLE, crossed(A)
# flipped by rounding along the arc [4.970462346140627, +1.0277].
HELD_LINES = EngravedLines(1e-12, 1.175494351e-38, 6.070388223748898, 5.998185184663431)
HELD_GAMMA = 2.62544592207992
# The mirror image: body 2 held at B' = 0 and line B 1e-12 clockwise past it.
HELD_MIRROR = EngravedLines(
    *(normalize(-x) for x in (HELD_LINES.B, HELD_LINES.B_prime, HELD_LINES.A, HELD_LINES.A_prime))
)


def assert_constant_along(config, sample):
    """Every outcome flag is constant over the sample, and scalar_trial
    agrees with run_trials at every 250th angle."""
    batch = run_trials(config, sample)
    fields = {"left": batch.reached_left_stop, "right": batch.reached_right_stop, **batch.crossed}
    for name, values in fields.items():
        assert values.all() or not values.any(), name
    for i in range(0, len(sample), 250):
        out = scalar_trial(config, sample[i])
        assert (batch.r1[i], batch.r2[i]) == (out.r1, out.r2)
        assert bool(batch.reached_left_stop[i]) == out.reached_left_stop
        assert bool(batch.reached_right_stop[i]) == out.reached_right_stop
        assert {n for n in LINE_NAMES if batch.crossed[n][i]} == out.crossed


@pytest.mark.parametrize("setup", ALL_SETUPS)
def test_near_budget_outcomes_are_constant_along_the_arc(setup):
    assert_constant_along(config_for_setup(NEAR_BUDGET_LINES, 4.0, setup), np.linspace(0.65, 1.63, 4001))


@pytest.mark.parametrize("setup", ALL_SETUPS)
@pytest.mark.parametrize("lines, lo, hi", [(HELD_LINES, 4.9705, 5.9981), (HELD_MIRROR, 0.2851, 1.3127)],
                         ids=["left", "right"])
def test_held_body_outcomes_are_constant_along_the_arc(lines, lo, hi, setup):
    assert_constant_along(config_for_setup(lines, HELD_GAMMA, setup), np.linspace(lo, hi, 4001))


def test_perfect_correlation_in_setup_ab():
    # with stops at A and B, one mark reaches its stop iff the other does
    phis_grid = TWO_PI * (np.arange(200_000) + 0.37) / 200_000
    for gamma, theta in [(GAMMA, THETA), (1.0, 0.9), (2.0, 0.3), (5.0, 1.2)]:
        batch = run_trials(fig2_config(gamma, theta, "ab"), phis_grid)
        assert np.array_equal(batch.reached_left_stop, batch.reached_right_stop)


def test_removing_right_stop_never_helps_body_one():
    phis_grid = TWO_PI * (np.arange(100_000) + 0.37) / 100_000
    for gamma, theta in [(GAMMA, THETA), (1.0, 0.9), (2.0, 0.3)]:
        both = run_trials(fig2_config(gamma, theta, "ab"), phis_grid)
        left_only = run_trials(fig2_config(gamma, theta, "a"), phis_grid)
        assert (left_only.r1 <= both.r1 + 1e-12).all()


def test_config_for_setup_round_trips_all_labels():
    lines = fig2_lines(GAMMA, THETA)
    for setup in ALL_SETUPS:
        config = config_for_setup(lines, GAMMA, setup)
        assert config.mode == MODIFIED
        assert config.stops == setup_stops(lines, setup)


@st.composite
def engravings(draw):
    angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
    a, ap, b, bp = (draw(angles) for _ in range(4))
    assume(a != ap and b != bp)
    gamma = draw(st.floats(min_value=1e-3, max_value=TWO_PI - 1e-3))
    return EngravedLines(a, ap, b, bp), gamma


def normalized(angles):
    """normalize over a flat array of angles."""
    return np.array([normalize(x) for x in angles.tolist()])


def probe_angles(lines, gamma, seed):
    """Random angles, plus every breakpoint candidate and its neighbouring floats."""
    anchors = np.array([lines.by_name(name) for name in LINE_NAMES])
    shifts = np.array([0.0, gamma, -gamma, 0.5 * gamma, -0.5 * gamma])
    near = normalized((anchors[:, None] + shifts).ravel())
    return np.concatenate(
        [
            np.random.default_rng(seed).uniform(0.0, TWO_PI, 64),
            near,
            normalized(np.nextafter(near, -1.0)),
            normalized(np.nextafter(near, 7.0)),
        ]
    )


@given(engravings(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
@example(engraving=(NEAR_BUDGET_LINES, 4.0), seed=0)
@example(engraving=(EngravedLines(0.0, 2.0, 3.0, 4.5), 1.5), seed=1)
@example(engraving=(EngravedLines(1.0, 2.0, math.nextafter(TWO_PI, 0.0), 4.5), 1.5), seed=2)
@example(engraving=(HELD_LINES, HELD_GAMMA), seed=3)
def test_setup_rows_match_run_trials(engraving, seed):
    lines, gamma = engraving
    phis = probe_angles(lines, gamma, seed)
    rows = run_setups(config_for_setup(lines, gamma, "ab"), ALL_SETUPS, phis)
    for i, setup in enumerate(ALL_SETUPS):
        one = run_trials(config_for_setup(lines, gamma, setup), phis)
        assert rows.r1[i].tobytes() == one.r1.tobytes(), setup
        assert rows.r2[i].tobytes() == one.r2.tobytes(), setup
        assert np.array_equal(rows.reached_left_stop[i], one.reached_left_stop), setup
        assert np.array_equal(rows.reached_right_stop[i], one.reached_right_stop), setup
        for name in LINE_NAMES:
            assert np.array_equal(rows.crossed[name][i], one.crossed[name]), (setup, name)


@given(engravings(), st.integers(0, 3), st.sampled_from([1.0, -1.0]), st.integers(-3, 3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
@example(engraving=(HELD_LINES, HELD_GAMMA), line=1, sign=1.0, ulps=0, seed=0)
def test_held_body_batch_matches_scalar(engraving, line, sign, ulps, seed):
    # the other line of one side moved EPS_ANGLE, give or take a few ulps,
    # from this one: run_trials takes the exact held-body test only for
    # spans near EPS_ANGLE, scalar_trial always
    lines, gamma = engraving
    angles = [lines.by_name(name) for name in LINE_NAMES]
    moved = normalize(angles[line] + sign * EPS_ANGLE)
    for _ in range(abs(ulps)):
        moved = math.nextafter(moved, math.copysign(math.inf, ulps))
    angles[line ^ 1] = normalize(moved)
    assume(angles[0] != angles[1] and angles[2] != angles[3])
    lines = EngravedLines(*angles)
    shifts = np.array([0.0, gamma, -gamma, 0.5 * gamma, -0.5 * gamma])
    near = normalized((np.array(angles)[:, None] + shifts).ravel())
    phis = np.concatenate([np.random.default_rng(seed).uniform(0.0, TWO_PI, 16), near,
                           normalized(np.nextafter(near, -1.0)), normalized(np.nextafter(near, 7.0))])
    for setup in ALL_SETUPS:
        config = config_for_setup(lines, gamma, setup)
        batch = run_trials(config, phis)
        for i, phi in enumerate(phis.tolist()):
            out = scalar_trial(config, phi)
            assert (batch.r1[i], batch.r2[i]) == (out.r1, out.r2), (setup, phi)
            assert {n for n in LINE_NAMES if batch.crossed[n][i]} == out.crossed, (setup, phi)


def test_run_setups_needs_modified_mode():
    config = unmodified_config(fig2_lines(GAMMA, THETA), 1.0)
    with pytest.raises(ConfigError, match="modified-mode"):
        run_setups(config, ALL_SETUPS, np.zeros(3))


def parsed_stops(lines, setup):
    """setup_stops as it read a label before the label table."""
    left = right = None
    rest = setup
    if rest.startswith("a'"):
        left, rest = lines.A_prime, rest[2:]
    elif rest.startswith("a"):
        left, rest = lines.A, rest[1:]
    if rest == "b":
        right = lines.B
    elif rest == "b'":
        right = lines.B_prime
    return StopPlacement(left=left, right=right)


@given(engravings(), st.permutations(ALL_SETUPS))
@settings(max_examples=40)
def test_run_setups_takes_the_stops_of_setup_stops(engraving, order):
    # both read one label table; each row of run_setups gets its label's stops
    lines, gamma = engraving
    seen = []
    run_rows = apparatus._run_rows

    def spy(config, lefts, rights, phis):
        seen.append((lefts, rights))
        return run_rows(config, lefts, rights, phis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(apparatus, "_run_rows", spy)
        run_setups(config_for_setup(lines, gamma, "ab"), order, np.zeros(1))
    stops = [setup_stops(lines, setup) for setup in order]
    assert stops == [parsed_stops(lines, setup) for setup in order]
    [(lefts, rights)] = seen
    # NaN stands for an absent stop
    assert [repr(x) for x in lefts] == [repr(math.nan if stop.left is None else stop.left) for stop in stops]
    assert [repr(x) for x in rights] == [repr(math.nan if stop.right is None else stop.right) for stop in stops]


@pytest.mark.parametrize("label", ["ba", "", "ab ", "A", "a'b'b"])
def test_unknown_setup_label_raises_the_same_config_error(label):
    lines = fig2_lines(GAMMA, THETA)
    with pytest.raises(ConfigError) as from_table:
        setup_stops(lines, label)
    with pytest.raises(ConfigError) as from_rows:
        run_setups(config_for_setup(lines, GAMMA, "ab"), ["ab", label], np.zeros(1))
    assert str(from_table.value) == str(from_rows.value) == f"unknown setup label {label!r}"


# ----------------------------------------------------------------------------
# line crossings computed when first read
# ----------------------------------------------------------------------------


def eager_ccw_delta_vec(start, end):
    d = end - start
    d = np.where(d < 0.0, d + TWO_PI, d)
    return np.where(d >= TWO_PI, 0.0, d)


def stop_column(stops, ndim):
    """Per-row stop angles, 0.0 for an absent stop, and the rows that have a
    stop (None when every row has one), as _run_rows built them before."""
    shape = (len(stops),) + (1,) * ndim
    angles = np.array([0.0 if x is None else x for x in stops]).reshape(shape)
    if all(x is not None for x in stops):
        return angles, None
    return angles, np.array([x is not None for x in stops]).reshape(shape)


def eager_fields(config, lefts, rights, phis):
    """r1, r2 and every line's crossings, by name, as _run_rows computed them
    on each call before they were computed on read: its kinematics and
    crossing loop, kept as the reference for the lazily read fields."""
    lines = config.lines
    if config.mode == UNMODIFIED:
        r1 = np.full((1, *phis.shape), config.gamma1)
        r2 = r1
        reached_left = np.zeros(r1.shape, dtype=bool)
        reached_right = reached_left
        after_right = after_left = None
    else:
        g = config.gamma
        half = 0.5 * g
        left, has_left = stop_column(lefts, phis.ndim)
        right, has_right = stop_column(rights, phis.ndim)
        d1 = eager_ccw_delta_vec(phis, left)
        if has_left is not None:
            d1 = np.where(has_left, d1, np.inf)
        d2 = eager_ccw_delta_vec(right, phis)
        if has_right is not None:
            d2 = np.where(has_right, d2, np.inf)
        first_left = (d1 <= d2) & (d1 <= half + EPS_ANGLE)
        first_right = (d2 < d1) & (d2 <= half + EPS_ANGLE)
        partner_fits = _fits_budget(g, eager_ccw_delta_vec(right, left), d1 + d2)
        r1 = np.where(first_left, d1, np.where(first_right, np.where(partner_fits, d1, g - d2), half))
        r2 = np.where(first_right, d2, np.where(first_left, np.where(partner_fits, d2, g - d1), half))
        reached_left = first_left | (first_right & partner_fits)
        reached_right = first_right | (first_left & partner_fits)
        after_right = first_right & ~partner_fits if has_right is None or has_right.any() else None
        after_left = first_left & ~partner_fits if has_left is None or has_left.any() else None

    reach1 = r1 + EPS_ANGLE
    reach2 = r2 + EPS_ANGLE
    crossed = {}
    for name in ("A", "A'"):
        line = lines.by_name(name)
        d = eager_ccw_delta_vec(phis, line)
        crossed[name] = d <= reach1
        if any(0.0 < ccw_delta(x, line) <= 2.0 * EPS_ANGLE for x in lefts if x is not None):
            held = (d <= r1) | (eager_ccw_delta_vec(left, line) <= EPS_ANGLE)
            crossed[name] = np.where(reached_left, held, crossed[name])
        if after_right is not None:
            fits = _fits_budget(g, eager_ccw_delta_vec(right, line), d + d2)
            crossed[name] = np.where(after_right, fits, crossed[name])
    for name in ("B", "B'"):
        line = lines.by_name(name)
        d = eager_ccw_delta_vec(line, phis)
        crossed[name] = d <= reach2
        if any(0.0 < ccw_delta(line, x) <= 2.0 * EPS_ANGLE for x in rights if x is not None):
            held = (d <= r2) | (eager_ccw_delta_vec(line, right) <= EPS_ANGLE)
            crossed[name] = np.where(reached_right, held, crossed[name])
        if after_left is not None:
            fits = _fits_budget(g, eager_ccw_delta_vec(line, left), d + d1)
            crossed[name] = np.where(after_left, fits, crossed[name])
    return {"r1": r1, "r2": r2, **crossed}


def read_field(batch, name):
    return getattr(batch, name) if name in ("r1", "r2") else batch.crossed[name]


def assert_lazy_matches_eager(batch, eager, names, row=None):
    """Each field of names, read in that order, equals the eager one byte for
    byte, and a second read returns the same object; then the stacked reads
    of the stop cells and of the crossing set equal their events read one by
    one and stacked."""
    for name in names:
        got = read_field(batch, name)
        want = eager[name] if row is None else eager[name][row]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        assert read_field(batch, name) is got, f"{name} is computed again on a second read"
    crossed = batch.crossed
    assert list(crossed) == list(LINE_NAMES) and len(crossed) == len(LINE_NAMES)
    assert dict(**crossed).keys() == set(LINE_NAMES)
    for read, events in ((_stop_cells, _CELL_EVENTS), (_crossing_values, _CROSSING_EVENTS)):
        got, want = read(batch), np.array([event.batch(batch) for event in events])
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), read


# the examples run the budget-limited crossings near gamma + EPS_ANGLE and the
# held-body rule on either side; the draws are arbitrary engravings and lines
# a few EPS_ANGLE from the line before or from its budget or half-budget shift
@given(
    st.one_of(engravings(), budgets.flatmap(lambda gamma: st.tuples(engraved_lines(gamma), st.just(gamma)))),
    st.permutations(LINE_NAMES),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
@example(engraving=(NEAR_BUDGET_LINES, 4.0), order=list(LINE_NAMES), seed=0)
@example(engraving=(HELD_LINES, HELD_GAMMA), order=["B'", "A", "B", "A'"], seed=1)
@example(engraving=(HELD_MIRROR, HELD_GAMMA), order=["A'", "B", "B'", "A"], seed=2)
def test_lazy_crossings_match_the_eager_loop(engraving, order, seed):
    lines, gamma = engraving
    phis = probe_angles(lines, gamma, seed)
    stops = [setup_stops(lines, setup) for setup in ALL_SETUPS]
    lefts, rights = [s.left for s in stops], [s.right for s in stops]
    config = config_for_setup(lines, gamma, "ab")
    rows = run_setups(config, ALL_SETUPS, phis)
    # travel read after the crossings, which compute it first
    assert_lazy_matches_eager(rows, eager_fields(config, lefts, rights, phis), [*order, "r1", "r2"])
    configs = [config_for_setup(lines, gamma, setup) for setup in ALL_SETUPS]
    configs.append(unmodified_config(lines, gamma))
    for i, one in enumerate(configs):
        # each run_trials batch reads its lines in a different rotation of the
        # order, and every other one reads its travel before any line
        turn = order[i % 4:] + order[: i % 4]
        names = ["r2", "r1", *turn] if i % 2 else [*turn, "r1", "r2"]
        eager = eager_fields(one, [one.stops.left], [one.stops.right], phis)
        assert_lazy_matches_eager(run_trials(one, phis), eager, names, row=0)


def spy_on(monkeypatch, name):
    """Replace the apparatus function name by a spy; returns the list of
    its results, one per call."""
    results, compute = [], getattr(apparatus, name)

    def spy(batch):
        results.append(compute(batch))
        return results[-1]

    monkeypatch.setattr(apparatus, name, spy)
    return results


def test_stop_events_compute_no_crossing(monkeypatch):
    crossings, travel = spy_on(monkeypatch, "_crossings"), spy_on(monkeypatch, "_travel")
    conditional_table(fig2_lines(GAMMA, THETA), GAMMA)
    conditional_table(NEAR_BUDGET_LINES, 4.0)
    conditional_table(HELD_LINES, HELD_GAMMA)
    # run_trials reads the stop cells of its one row without crossings as well
    grid_oracle(demo_config("ab"), stop_cell(True, True), 1000)
    assert crossings == [] and travel == []
    # the spy does see the lines that an event reads: all four in one call
    crossing_probability_set(unmodified_config(SQUARE_LINES, 1.0))
    [stack] = crossings
    assert stack.shape[0] == len(LINE_NAMES) and stack.dtype == bool


def test_lazy_fields_are_computed_once_per_batch(monkeypatch):
    crossings, travel = spy_on(monkeypatch, "_crossings"), spy_on(monkeypatch, "_travel")
    lines = fig2_lines(GAMMA, THETA)
    phis = probe_angles(lines, GAMMA, 0)
    fields = ("stop_cells", "crossed", "crossings", "r2", "r1")
    batches = [
        run_setups(demo_config(), ALL_SETUPS, phis),
        run_trials(demo_config("a'b"), phis),
        run_trials(unmodified_config(lines, GAMMA), phis),
    ]
    for k, batch in enumerate(batches, start=1):
        for name in fields:
            first = getattr(batch, name)
            assert getattr(batch, name) is first, f"{name} is computed again on a second read"
        # one rotation pass and one crossing pass per batch, whatever it reads
        assert (len(travel), len(crossings)) == (k, k)
    for name in fields:
        # read on the class, a field is its descriptor, not a computed value
        assert getattr(TrialBatch, name) is vars(TrialBatch)[name]
        assert hasattr(vars(TrialBatch)[name], "__get__") and not hasattr(vars(TrialBatch)[name], "__set__")


def frozen_engravings():
    """300 seeded engravings: standard, arbitrary, and near-coincident ones
    whose lines sit a few EPS_ANGLE from another line or its gamma shift."""
    rng = np.random.default_rng(2024)
    out = []
    for k in range(300):
        gamma = float(rng.uniform(0.2, TWO_PI - 0.2))
        if k % 3 == 0:
            lines = fig2_lines(gamma, min(gamma, TWO_PI - gamma) * float(rng.uniform(0.05, 0.95)))
        elif k % 3 == 1:
            lines = EngravedLines(*(float(x) for x in rng.uniform(0.0, TWO_PI, 4)))
        else:
            a = float(rng.uniform(0.0, TWO_PI))
            nudge = [float(j) * EPS_ANGLE for j in rng.choice([-2, -1, 1, 2], size=3)]
            ap = normalize(a + nudge[0])
            b = normalize(ap + float(rng.choice([gamma, -gamma, 0.5 * gamma])) + nudge[1])
            lines = EngravedLines(a, ap, b, normalize(b + nudge[2]))
        out.append((lines, gamma, float(rng.uniform(0.05, TWO_PI))))
    return out


def test_frozen_exact_tables():
    # digest taken while run_setups still computed every crossing on every
    # call: computing them on read must leave each probability bitwise the same
    text = "\n".join(
        f"{conditional_table(lines, gamma)!r}\n{crossing_probability_set(unmodified_config(lines, gamma1))!r}"
        for lines, gamma, gamma1 in frozen_engravings()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "19dfc24289df7c592f4c14841f97073f0211d782b2edbf43098b6d8d89cae5f8"
    )


@pytest.mark.parametrize("config", [demo_config("ab"), demo_config("a'"), unmodified_config(SQUARE_LINES, 1.0)])
def test_run_trials_takes_a_scalar_angle(config):
    out = scalar_trial(config, 0.7)
    batch = run_trials(config, 0.7)
    assert (batch.r1, batch.r2) == (out.r1, out.r2)
    assert {n for n in LINE_NAMES if batch.crossed[n]} == out.crossed


# ----------------------------------------------------------------------------
# run_trial, the one-row batch
# ----------------------------------------------------------------------------


def assert_same_outcome(got, want):
    """Equal field for field, the floats bit for bit, and of the same types:
    float, str, bool and frozenset."""
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert (got.r1.hex(), got.r2.hex()) == (want.r1.hex(), want.r2.hex())


# a run_trial call is a one-row batch, about 100 us, so few draws run here
@given(engravings(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=4, deadline=None)
@example(engraving=(HELD_LINES, HELD_GAMMA), seed=0)
@example(engraving=(HELD_MIRROR, HELD_GAMMA), seed=1)
@example(engraving=(NEAR_BUDGET_LINES, 4.0), seed=2)
def test_run_trial_is_the_scalar_reference(engraving, seed):
    lines, gamma = engraving
    phis = probe_angles(lines, gamma, seed).tolist()
    # the eight setups, then the unmodified device
    for config in [*(config_for_setup(lines, gamma, setup) for setup in ALL_SETUPS), unmodified_config(lines, gamma)]:
        for phi in phis:
            assert_same_outcome(run_trial(config, phi), scalar_trial(config, phi))


@given(engravings(), st.sampled_from([*ALL_SETUPS, None]), phis)
def test_run_trial_normalizes_its_angle(engraving, setup, phi):
    lines, gamma = engraving
    config = unmodified_config(lines, gamma) if setup is None else config_for_setup(lines, gamma, setup)
    assert_same_outcome(run_trial(config, phi), scalar_trial(config, phi))


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("config", [demo_config("ab"), demo_config("b'"), unmodified_config(SQUARE_LINES, 1.0)])
def test_run_trial_rejects_a_non_finite_angle(config, phi):
    with pytest.raises(ValueError, match="finite"):
        run_trial(config, phi)
