"""Angle arithmetic and arc partitions.

The whole exact engine rests on three facts checked here: normalization lands
in [0, 2*pi), directed distances around the circle are consistent in both
directions, and a partition by critical angles tiles the circle exactly once.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ch_apparatus.circle_geometry import (
    EPS_ANGLE,
    TWO_PI,
    Arc,
    arc_contains,
    ccw_delta,
    guarded_partition,
    normalize,
    partition_circle,
)
from ch_apparatus.exact_engine import _GUARD_MARGIN as GUARD_MARGIN

raw_angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
unit_angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True, allow_nan=False)

# The largest angle below 2*pi, and a tiny negative that normalizes by rounding
# onto 2*pi: the ends of arcs near them round onto 2*pi as well
_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)
_EDGES = [0.0, -0.0, _BELOW_TWO_PI, normalize(-1e-18), math.nextafter(0.0, 1.0), math.pi]


@st.composite
def breakpoint_lists(draw):
    """Normalized angles with repeats, neighbours one ulp apart, angles next
    to 0 and 2*pi, and 0.0 with -0.0, in any order."""
    points = draw(st.lists(unit_angles, max_size=10)) + draw(st.lists(st.sampled_from(_EDGES), max_size=4))
    for p in draw(st.lists(st.sampled_from(points), max_size=6)) if points else []:
        step = draw(st.sampled_from([0.0, TWO_PI, -1.0]))
        near = p if step == 0.0 else math.nextafter(p, step)
        points.append(near if 0.0 <= near < TWO_PI else p)
    return draw(st.permutations(points))


class TestNormalize:
    def test_canonical_values(self):
        assert normalize(0.0) == 0.0
        assert normalize(math.pi) == math.pi
        assert normalize(TWO_PI) == 0.0
        assert normalize(5.0 * math.pi / 2.0) == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert normalize(-math.pi / 6.0) == pytest.approx(11.0 * math.pi / 6.0, abs=1e-12)

    def test_tiny_negative_rounds_to_zero(self):
        # fmod(-1e-18, 2*pi) + 2*pi rounds to exactly 2*pi; must map to 0
        assert normalize(-1e-18) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            normalize(bad)

    @given(raw_angles)
    def test_range_and_idempotence(self, x):
        r = normalize(x)
        assert 0.0 <= r < TWO_PI
        assert normalize(r) == r


class TestCcwDelta:
    def test_examples(self):
        assert ccw_delta(math.pi / 4.0, math.pi / 2.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert ccw_delta(math.pi / 2.0, math.pi / 4.0) == pytest.approx(7.0 * math.pi / 4.0, abs=1e-15)
        assert ccw_delta(1.5, 1.5) == 0.0

    @given(unit_angles, unit_angles)
    def test_round_trip_is_zero_or_full_turn(self, x, y):
        # the total collapses toward 0 only when x and y coincide to rounding
        total = ccw_delta(x, y) + ccw_delta(y, x)
        assert total <= 1e-12 or abs(total - TWO_PI) <= 1e-12

    @given(unit_angles, unit_angles)
    def test_range(self, x, y):
        d = ccw_delta(x, y)
        assert 0.0 <= d < TWO_PI


class TestArcContains:
    def test_wrapping_arc(self):
        arc = Arc(start=3.0 * math.pi / 2.0, extent=math.pi)
        assert arc_contains(arc, 0.0)
        assert arc_contains(arc, math.pi / 4.0)
        assert arc_contains(arc, 7.0 * math.pi / 4.0)
        assert not arc_contains(arc, math.pi)

    def test_closed_boundaries(self):
        arc = Arc(start=1.0, extent=0.5)
        assert arc_contains(arc, 1.0)
        assert arc_contains(arc, 1.5)
        assert not arc_contains(arc, 1.5 + 1e-9)

    @given(unit_angles, st.floats(min_value=1e-6, max_value=TWO_PI - 1e-6), st.floats(min_value=0.1, max_value=0.9))
    def test_invariant_under_full_turns(self, start, extent, fraction):
        # membership of points away from the boundary survives adding whole turns
        arc = Arc(start, extent)
        inside = arc.point_at(fraction)
        outside = normalize(arc.start + extent + fraction * (TWO_PI - extent))
        for x, expected in ((inside, True), (outside, False)):
            if min(ccw_delta(arc.start, x), ccw_delta(x, arc.start)) < 1e-9:
                continue
            assert arc_contains(arc, x) == expected
            assert arc_contains(arc, x + TWO_PI) == expected
            assert arc_contains(arc, x - TWO_PI) == expected

    @given(unit_angles, st.floats(min_value=1e-6, max_value=TWO_PI - 1e-6))
    def test_interior_points_contained(self, start, extent):
        arc = Arc(start, extent)
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert arc_contains(arc, arc.point_at(f))


class TestPartitionCircle:
    def test_empty_input_gives_full_circle(self):
        assert partition_circle([]) == [Arc(0.0, TWO_PI)]

    def test_single_point(self):
        assert partition_circle([math.pi / 6.0]) == [Arc(math.pi / 6.0, TWO_PI)]

    def test_duplicates_collapse(self):
        assert partition_circle([math.pi / 6.0, math.pi / 6.0]) == [Arc(math.pi / 6.0, TWO_PI)]

    def test_ulp_sliver_keeps_full_measure(self):
        # two points one ulp apart must not swallow the wrap-around arc
        arcs = partition_circle([0.0, 2.3e-18])
        assert len(arcs) == 2
        assert sum(a.extent for a in arcs) == pytest.approx(TWO_PI, abs=1e-12)

    def test_two_points(self):
        arcs = partition_circle([math.pi / 2.0, 0.0])
        assert arcs == [Arc(0.0, math.pi / 2.0), Arc(math.pi / 2.0, 3.0 * math.pi / 2.0)]

    @given(st.lists(raw_angles, max_size=12))
    def test_extents_tile_the_circle(self, points):
        arcs = partition_circle(points)
        assert sum(a.extent for a in arcs) == pytest.approx(TWO_PI, abs=1e-12)
        starts = [a.start for a in arcs]
        assert starts == sorted(starts)
        for p in points:
            assert normalize(p) in starts

    @given(st.lists(unit_angles, min_size=2, max_size=8, unique=True))
    # the end of the first arc rounds onto 2*pi and normalizes to 0.0, one
    # ulp below the next start: equal on the circle, far apart on the line
    @example(points=[1.9769467204986113, 6.283185307179585])
    def test_arcs_are_consecutive(self, points):
        arcs = partition_circle(points)
        for a, b in zip(arcs, arcs[1:]):
            end = normalize(a.start + a.extent)
            assert min(ccw_delta(end, b.start), ccw_delta(b.start, end)) <= 1e-12

    @given(st.lists(raw_angles, max_size=30))
    @example(points=[0.0, 2.3e-18])
    @example(points=[1.9769467204986113, 6.283185307179585])
    @example(points=[0.0, math.nextafter(TWO_PI, 0.0)])
    # the breakpoints of the standard engraving at gamma = 2 * theta =
    # 4.115437219104934, with slivers of 4.4e-16 and 8.9e-16
    @example(
        points=[
            0.0, 1.9476891310302822, 2.057718609552467, 2.0577186095524675, 2.167748088074652,
            4.005407740582751, 4.115437219104934, 4.115437219104935, 4.22546669762712, 6.173155828657402,
        ]
    )
    @example(points=[1.0, 1.0000000000000009, 3.2831853071795845, -1e-18])
    def test_arrays_match_the_list_partition(self, points):
        normalized = [normalize(p) for p in points]
        starts, extents = guarded_partition(normalized, 0.0)[:2]
        reference = _list_partition(normalized)
        assert starts.tolist() == [arc.start for arc in reference]
        assert extents.tolist() == [arc.extent for arc in reference]
        assert partition_circle(points) == reference

    @given(breakpoint_lists(), st.booleans())
    @example(points=[], as_array=False)
    @example(points=[], as_array=True)
    @example(points=[1.0, 1.0000000000000002, 1.0, _BELOW_TWO_PI], as_array=False)
    @example(points=[1.9769467204986113, 6.283185307179585], as_array=True)
    @example(points=[-0.0, 0.0, 2.0], as_array=False)
    @example(points=[0.0, -0.0, 2.0], as_array=True)
    @example(points=[-0.0], as_array=True)
    # the breakpoints of the standard engraving at gamma = 2 * theta =
    # 4.115437219104934, with slivers of 4.4e-16 and 8.9e-16
    @example(
        points=[
            0.0, 1.9476891310302822, 2.057718609552467, 2.0577186095524675, 2.167748088074652,
            4.005407740582751, 4.115437219104934, 4.115437219104935, 4.22546669762712, 6.173155828657402,
        ],
        as_array=False,
    )
    def test_builders_match_the_numpy_reference(self, points, as_array):
        # np.sort leaves the order of 0.0 and -0.0 open; the builders keep the
        # first zero in input order
        want_starts, want_extents = numpy_partition(points)
        zeros = [p for p in points if p == 0.0]
        if zeros:
            want_starts[0] = zeros[0]
        starts, extents = guarded_partition(points, 0.0)[:2]
        for got, want in ((starts, want_starts), (extents, want_extents)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        arcs = partition_circle(np.array(points) if as_array else points)
        assert [(math.copysign(1.0, a.start), a) for a in arcs] == [
            (math.copysign(1.0, s), Arc(s, e)) for s, e in zip(want_starts.tolist(), want_extents.tolist())
        ]
        got = guarded_partition(points, GUARD_MARGIN)
        want = (want_starts, want_extents, numpy_guard(want_starts, want_extents, GUARD_MARGIN))
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())

    def test_boundary_tolerance_is_tiny(self):
        # EPS_ANGLE guards boundary membership only; it must stay far below
        # any probability tolerance used downstream
        assert EPS_ANGLE <= 1e-12


def _list_partition(points):
    """Reference for the partition's starts and extents, one Arc at a time:
    sorted distinct points, each arc running to the next, the last one
    wrapping to the first."""
    points = sorted(set(points))
    if not points:
        return [Arc(0.0, TWO_PI)]
    arcs = [Arc(p, q - p) for p, q in zip(points, points[1:])]
    return arcs + [Arc(points[-1], TWO_PI - (points[-1] - points[0]))]


def numpy_partition(points):
    """Reference for the partition builders: guarded_partition's starts and
    extents as numpy array formulas, which leave the order of 0.0 and -0.0 to
    np.sort."""
    starts = np.sort(np.asarray(points, dtype=np.float64))
    if starts.size == 0:
        return np.array([0.0]), np.array([TWO_PI])
    starts = starts[np.concatenate(([True], starts[1:] != starts[:-1]))]
    extents = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=extents[:-1])
    extents[-1] = TWO_PI - (starts[-1] - starts[0])
    return starts, extents


def numpy_guard(starts, extents, margin):
    """Reference for guarded_partition's guard points as array formulas: every
    arc's three points computed, then the narrow arcs' outer two replaced."""
    guard = np.empty((starts.size, 3))
    np.multiply(extents, 0.5, out=guard[:, 0])
    guard[:, 1] = margin
    np.subtract(extents, margin, out=guard[:, 2])
    guard = np.fmod(np.add(starts[:, None], guard, out=guard), TWO_PI, out=guard)
    narrow = extents < 2.0 * margin
    guard[narrow, 1:] = guard[narrow, :1]
    return guard
