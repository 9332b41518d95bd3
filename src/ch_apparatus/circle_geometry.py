"""Angles, directed arcs, and arc partitions on the unit circle.

Angles are plain floats in radians, normalized to [0, 2*pi).  Arcs are swept
counterclockwise from their start angle and treated as closed sets; boundary
membership uses a fixed tolerance, which is harmless for measure computations
because boundaries have measure zero.
"""

from __future__ import annotations

import math
from math import fmod
from typing import Iterable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerance for boundary classification (arc membership, stop-reach ties).
EPS_ANGLE = 1e-12

__all__ = [
    "TWO_PI",
    "EPS_ANGLE",
    "Arc",
    "normalize",
    "ccw_delta",
    "arc_contains",
    "partition_circle",
    "guarded_partition",
]


def normalize(x: float) -> float:
    """Reduce an angle in radians to the canonical range [0, 2*pi)."""
    if 0.0 <= x < TWO_PI:
        return x  # what fmod returns for it, with no call
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    r = fmod(x, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        # fmod of a tiny negative rounds up to exactly 2*pi
        r = 0.0
    return r


def ccw_delta(start: float, end: float) -> float:
    """Counterclockwise distance from ``start`` to ``end``, in [0, 2*pi).

    Both arguments must already be normalized.  ccw_delta(x, x) is 0, and
    ccw_delta(x, y) + ccw_delta(y, x) is one full turn unless the angles
    coincide to within rounding, where it collapses toward 0.
    """
    d = end - start
    if d < 0.0:
        d += TWO_PI
    if d >= TWO_PI:
        d = 0.0
    return d


class Arc(NamedTuple):
    """Closed arc swept counterclockwise from ``start`` by ``extent``."""

    start: float
    extent: float

    def point_at(self, fraction: float) -> float:
        """Interior point at the given fraction of the sweep."""
        return normalize(self.start + fraction * self.extent)

    def midpoint(self) -> float:
        return self.point_at(0.5)


def arc_contains(arc: Arc, x: float) -> bool:
    """Whether the normalized angle ``x`` lies on the closed arc."""
    return ccw_delta(arc.start, normalize(x)) <= arc.extent + EPS_ANGLE


def guarded_partition(points: list[float], margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs bounded by a list of normalized angles, over Python floats:
    the sorted distinct points (of 0.0 and -0.0, the first given), each one's
    extent to the next, the last wrapping around, and its guard points, the
    midpoint and the points one margin inside its ends (the midpoint thrice
    if narrower than two margins), as rows of an (arcs, 3) array."""
    ordered = sorted(points)
    starts = ordered[:1] + [q for p, q in zip(ordered, ordered[1:]) if q != p] or [0.0]
    extents = [q - p for p, q in zip(starts, starts[1:])]
    # not ccw_delta: for a sliver span it would round up to a full turn and
    # then collapse to zero, losing the whole circle
    extents.append(TWO_PI - (starts[-1] - starts[0]))
    guard: list[float] = []
    # each point is its arc's start plus an offset of at least 0: fmod alone normalizes it
    for s, e in zip(starts, extents):
        mid = fmod(s + e * 0.5, TWO_PI)
        if e < 2.0 * margin:
            guard += (mid, mid, mid)
        else:
            guard += (mid, fmod(s + margin, TWO_PI), fmod(s + (e - margin), TWO_PI))
    return np.array(starts), np.array(extents), np.array(guard).reshape(-1, 3)


def partition_circle(critical: Iterable[float]) -> list[Arc]:
    """Split the circle into disjoint arcs bounded by the critical angles.

    Input angles are normalized and deduplicated.  The returned arcs start
    exactly at the sorted critical angles, cover the circle once, and their
    extents sum to a full turn.  An empty input yields one full-circle arc.
    """
    starts, extents, _ = guarded_partition([normalize(p) for p in critical], 0.0)
    return [Arc(s, e) for s, e in zip(starts.tolist(), extents.tolist())]
