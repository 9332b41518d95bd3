"""The kinematics of one trial in scalar floats, the reference for the
package's array kinematics (apparatus._run_rows, _travel and _crossings),
which must match it bit for bit.

It states the rules of the device branch by branch for one start angle, the
way the array code cannot.  apparatus.run_trial is a one-row batch of the
array code, about twenty times slower per call than this, so the tests that
compare many angles with the batches call scalar_trial.
"""

import math

from ch_apparatus.apparatus import (
    FREE_ROTATION_END,
    MUTUAL_CONSTRAINT,
    STOP,
    UNMODIFIED,
    ApparatusConfig,
    TrialOutcome,
    _fits_budget,
)
from ch_apparatus.circle_geometry import EPS_ANGLE, ccw_delta, normalize


def scalar_trial(config: ApparatusConfig, phi: float) -> TrialOutcome:
    """Deterministic kinematics of one trial with start angle phi.

    Rotations are resolved in time order: whichever body meets its stop
    first is blocked there, the other continues until its own stop or until
    the mutual budget gamma is exhausted.  Ties between reaching a stop and
    exhausting the budget resolve in favor of the stop.  A body held at its
    own stop crosses a line of its side that lies on its path or at most
    EPS_ANGLE past the stop, a span that is constant along any arc.
    """
    phi = normalize(phi)
    lines = config.lines

    if config.mode == UNMODIFIED:
        g1 = config.gamma1
        r1 = r2 = g1
        blocked1 = blocked2 = FREE_ROTATION_END
        reached_left = reached_right = False
    else:
        g = config.gamma
        half = 0.5 * g
        left = config.stops.left
        right = config.stops.right
        d1 = ccw_delta(phi, left) if left is not None else math.inf
        d2 = ccw_delta(right, phi) if right is not None else math.inf
        partner_fits = (
            left is not None and right is not None and _fits_budget(g, ccw_delta(right, left), d1 + d2)
        )
        if d1 <= d2 and d1 <= half + EPS_ANGLE:
            r1, blocked1, reached_left = d1, STOP, True
            if partner_fits:
                r2, blocked2, reached_right = d2, STOP, True
            else:
                r2, blocked2, reached_right = g - d1, MUTUAL_CONSTRAINT, False
        elif d2 < d1 and d2 <= half + EPS_ANGLE:
            r2, blocked2, reached_right = d2, STOP, True
            if partner_fits:
                r1, blocked1, reached_left = d1, STOP, True
            else:
                r1, blocked1, reached_left = g - d2, MUTUAL_CONSTRAINT, False
        else:
            r1 = r2 = half
            blocked1 = blocked2 = MUTUAL_CONSTRAINT
            reached_left = reached_right = False

    # a body that turned gamma minus its partner's stop distance crosses a
    # line when the budget spans the arc from the partner's stop to it
    after_right = blocked1 == MUTUAL_CONSTRAINT and reached_right
    after_left = blocked2 == MUTUAL_CONSTRAINT and reached_left
    crossed = []
    for name in ("A", "A'"):
        line = lines.by_name(name)
        d = ccw_delta(phi, line)
        if after_right:
            hit = _fits_budget(g, ccw_delta(right, line), d + d2)
        elif reached_left:
            hit = d <= r1 or ccw_delta(left, line) <= EPS_ANGLE
        else:
            hit = d <= r1 + EPS_ANGLE
        if hit:
            crossed.append(name)
    for name in ("B", "B'"):
        line = lines.by_name(name)
        d = ccw_delta(line, phi)
        if after_left:
            hit = _fits_budget(g, ccw_delta(line, left), d + d1)
        elif reached_right:
            hit = d <= r2 or ccw_delta(line, right) <= EPS_ANGLE
        else:
            hit = d <= r2 + EPS_ANGLE
        if hit:
            crossed.append(name)

    return TrialOutcome(
        r1=r1,
        r2=r2,
        blocked1=blocked1,
        blocked2=blocked2,
        reached_left_stop=reached_left,
        reached_right_stop=reached_right,
        crossed=frozenset(crossed),
    )
