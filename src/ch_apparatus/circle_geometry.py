"""Angles, directed arcs, and arc partitions on the unit circle.

Angles are plain floats in radians, normalized to [0, 2*pi).  Arcs are swept
counterclockwise from their start angle and treated as closed sets; boundary
membership uses a fixed tolerance, which is harmless for measure computations
because boundaries have measure zero.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerance for boundary classification (arc membership, stop-reach ties).
EPS_ANGLE = 1e-12

__all__ = [
    "TWO_PI",
    "EPS_ANGLE",
    "Arc",
    "normalize",
    "normalize_array",
    "ccw_delta",
    "arc_contains",
    "partition_circle",
    "partition_arrays",
]


def normalize(x: float) -> float:
    """Reduce an angle in radians to the canonical range [0, 2*pi)."""
    if 0.0 <= x < TWO_PI:
        return x  # what fmod returns for it, with no call
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    r = math.fmod(x, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        # fmod of a tiny negative rounds up to exactly 2*pi
        r = 0.0
    return r


def normalize_array(x: np.ndarray) -> np.ndarray:
    """normalize over an array of finite angles, bit for bit: np.fmod is the
    exact C fmod, and it returns an angle already in [0, 2*pi) unchanged."""
    r = np.fmod(x, TWO_PI)
    r = np.where(r < 0.0, r + TWO_PI, r)
    return np.where(r >= TWO_PI, 0.0, r)


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


def partition_arrays(points: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and extents of the arcs bounded by a flat array of normalized angles.

    The starts are the sorted distinct points; each extent runs to the next
    start, and the last one wraps around to the first.  The extents sum to a
    full turn.  No points yield one full-circle arc starting at 0.
    """
    starts = np.sort(np.asarray(points, dtype=np.float64))
    if starts.size == 0:
        return np.array([0.0]), np.array([TWO_PI])
    # what np.unique does, without the first call's import of numpy.ma
    starts = starts[np.concatenate(([True], starts[1:] != starts[:-1]))]
    extents = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=extents[:-1])
    # not ccw_delta: for a sliver span it would round up to a full turn and
    # then collapse to zero, losing the whole circle
    extents[-1] = TWO_PI - (starts[-1] - starts[0])
    return starts, extents


def partition_circle(critical: Iterable[float]) -> list[Arc]:
    """Split the circle into disjoint arcs bounded by the critical angles.

    Input angles are normalized and deduplicated.  The returned arcs start
    exactly at the sorted critical angles, cover the circle once, and their
    extents sum to a full turn.  An empty input yields one full-circle arc.
    """
    starts, extents = partition_arrays([normalize(p) for p in critical])
    return [Arc(s, e) for s, e in zip(starts.tolist(), extents.tolist())]
