"""The cross-validation suite behind the ``check`` command.

Each check holds an engine to an independent route: the closed forms, the
grid oracle, a seeded campaign, the LP against the CH battery.  The suite is
one ordered table, CHECKS, of Check(name, measure, bounds).  A measure
returns its deviations and the detail text; the check passes iff every
deviation is <= its bound, a rule written once, in run_checks.  Deviations
are reduced with _span, which keeps a NaN, and a NaN is not <= any bound.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

import numpy as np

from .apparatus import ALL_SETUPS, TWO_STOP_SETUPS, EngravedLines, config_for_setup, fig2_lines, unmodified_config
from .circle_geometry import TWO_PI
from .exact_engine import (
    CLOSED_FORM_TOL, ConditionalTable, _LONE, _entries, _table_difference, closed_form_fig2, conditional_table_exact,
    grid_oracle, stop_cell,
)
from .inequality_analysis import (
    FLAG_TOL, SettingFrequencies, _fixed_lambda_checks, analyze, ch_primed_value, ch_value, crossing_probability_set,
)
from .lhv_feasibility import (
    NORM_TOL, BehaviorTable, ch_battery, feasible_joint, mixture_table, no_signaling_deviation, pr_box_table,
    random_no_signaling_table, singlet_table,
)
from .monte_carlo import CampaignPlan, kinematic_counts, phi_samples, run_campaign, run_sequence

__all__ = ["CHECKS", "Check", "CheckResult", "run_checks"]

# The demo point of the standard engraving.
_GAMMA, _THETA = math.pi / 3.0, math.pi / 6.0

# A midpoint grid of n points puts within one point of its share into each
# arc, so its frequency of an event made of k arcs is within k/n of the arc
# measure: this allows ten arcs at n = 10**6.
_GRID_ORACLE_TOL = 1e-5

# Two float expressions of one quantity built from a few probabilities
# differ by rounding only.
_ROUNDING_TOL = 1e-12

Measured = tuple[tuple[float, ...], str]


class Check(NamedTuple):
    """measure(perturb_closed_form) returns one deviation per bound and the detail text."""

    name: str
    measure: Callable[[float], Measured]
    bounds: tuple[float, ...]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of this check alone


def _span(values) -> tuple[float, float]:
    """The least and the largest of values, both NaN if one of them is NaN
    (builtin min and max keep a NaN only when it comes first)."""
    array = np.asarray(values, dtype=float)
    return float(array.min()), float(array.max())


def _random_fig2_pair(rng: np.random.Generator) -> tuple[float, float]:
    while True:
        gamma = float(rng.uniform(1e-3, TWO_PI - 2e-3))
        theta = float(rng.uniform(0.0, gamma))
        if theta > 1e-6 and gamma - theta > 1e-6 and gamma + theta < TWO_PI - 1e-6:
            return gamma, theta


def _random_unmodified(rng: np.random.Generator):
    while True:
        a, ap, b, bp = (float(x) for x in rng.uniform(0.0, TWO_PI, 4))
        if a != ap and b != bp:
            return unmodified_config(EngravedLines(a, ap, b, bp), float(rng.uniform(1e-3, TWO_PI)))


def _closed_form(gamma: float, theta: float, perturb: float) -> ConditionalTable:
    """closed_form_fig2 with perturb of its ab table moved from cell 00 to 11."""
    table = closed_form_fig2(gamma, theta)
    if perturb:
        cells = table.full_tables["ab"]
        ab = {**cells, "11": cells["11"] + perturb, "00": cells["00"] - perturb}
        table = ConditionalTable({**table.joint, "ab": ab["11"]}, table.singles, {**table.full_tables, "ab": ab})
    return table


def _closed_vs_exact_demo(perturb: float) -> Measured:
    diff = _table_difference(_closed_form(_GAMMA, _THETA, perturb), conditional_table_exact(_GAMMA, _THETA))
    return (diff,), f"max|diff|={diff:.3e}"


def _closed_vs_exact_random(perturb: float) -> Measured:
    rng = np.random.default_rng(101)
    pairs = [_random_fig2_pair(rng) for _ in range(100)]
    worst = _span([_table_difference(_closed_form(g, t, perturb), conditional_table_exact(g, t)) for g, t in pairs])[1]
    return (worst,), f"max|diff|={worst:.3e} over 100 pairs"


def _exact_vs_grid_oracle(perturb: float) -> Measured:
    lines, exact = fig2_lines(_GAMMA, _THETA), conditional_table_exact(_GAMMA, _THETA)
    events = [stop_cell(True, True)] * len(TWO_STOP_SETUPS) + [event for event, _ in _LONE]
    oracle = [grid_oracle(config_for_setup(lines, _GAMMA, s), e, 10**6) for s, e in zip(ALL_SETUPS, events)]
    worst = _span(np.abs(np.subtract(oracle, _entries(exact))))[1]
    return (worst,), f"max|diff|={worst:.3e} at 1e6 grid points"


def _exact_vs_monte_carlo(perturb: float) -> Measured:
    exact = conditional_table_exact(_GAMMA, _THETA)
    plan = CampaignPlan.from_params(_GAMMA, fig2_lines(_GAMMA, _THETA), n_trials=10**5, master_seed=20260816)
    sampled = _entries(run_campaign(plan).table)
    gaps = [(abs(s - p), math.sqrt(p * (1.0 - p) / 10**5)) for p, s in zip(_entries(exact), sampled)]
    worst = _span([gap / sigma if sigma > 0.0 else (0.0 if gap == 0.0 else math.inf) for gap, sigma in gaps])[1]
    return (worst,), f"max deviation {worst:.2f} sigma at n=1e5"


def _reduced_identity_random(perturb: float) -> Measured:
    rng = np.random.default_rng(202)
    residuals, values = [], []
    for _ in range(1000):
        g, t = _random_fig2_pair(rng)
        r = analyze(closed_form_fig2(g, t), SettingFrequencies(*map(float, rng.dirichlet(np.ones(4)))))
        residuals.append(r.identity_residual)
        values.append(r.reduced_ch)
    worst, (low, high) = _span(residuals)[1], _span(values)
    return (worst, -1.0 - low, high), f"max residual={worst:.3e}, range [{low:.4f}, {high:.4f}]"


def _naive_closed_values(perturb: float) -> Measured:
    rng = np.random.default_rng(303)
    diffs = []
    for _ in range(1000):
        g, t = _random_fig2_pair(rng)
        r = analyze(closed_form_fig2(g, t), SettingFrequencies.uniform())
        diffs += [r.ch - (2.0 * g - t) / TWO_PI, r.ch_primed - t / TWO_PI, r.ch_sum - 2.0 * g / TWO_PI]
        diffs += [cond.value - 2.0 for cond in r.bayes.values()]
    worst = _span(np.abs(diffs))[1]
    return (worst,), f"max|diff|={worst:.3e} over 1000 pairs"


def _strategy_mixtures_feasible(perturb: float) -> Measured:
    rng = np.random.default_rng(404)
    results = [feasible_joint(mixture_table(rng.dirichlet(np.ones(16)))) for _ in range(100)]
    worst = _span([r.max_residual for r in results])[1]
    return (sum(not r.feasible for r in results), worst), f"max residual={worst:.3e}"


def _fine_equivalence(perturb: float) -> Measured:
    rng = np.random.default_rng(505)
    tables = (random_no_signaling_table(rng) for _ in range(1000))
    disagreements = sum(feasible_joint(table).feasible != ch_battery(table).passes for table in tables)
    return (disagreements,), f"{disagreements} disagreements in 1000 tables"


def _infeasible_examples(perturb: float) -> Measured:
    demo = BehaviorTable.from_full_tables(conditional_table_exact(_GAMMA, _THETA).full_tables)
    deviation, feasible = no_signaling_deviation(demo), feasible_joint(demo).feasible
    pr, singlet = ch_battery(pr_box_table()).max_value, ch_battery(singlet_table()).max_value
    deviations = (feasible, 1.0 / 12.0 - deviation, abs(pr - 0.5), abs(singlet - (math.sqrt(2.0) - 1.0) / 2.0))
    return deviations, f"demo deviation={deviation:.6f}, pr max={pr:.6f}, singlet max={singlet:.6f}"


def _fixed_lambda_grid(perturb: float) -> Measured:
    config = _random_unmodified(np.random.default_rng(606))
    n_grid = 10**5
    residual, value = _fixed_lambda_checks(config, (np.arange(n_grid) + 0.5) * TWO_PI / n_grid)
    worst, (low, high) = _span(residual)[1], _span(value)
    return (worst, -1.0 - low, high), f"max residual={worst:.1e}, range [{low:.1f}, {high:.1f}]"


def _honest_ch_sweep(perturb: float) -> Measured:
    rng = np.random.default_rng(707)
    sets = [crossing_probability_set(_random_unmodified(rng)) for _ in range(2000)]
    low, high = _span([value(s) for s in sets for value in (ch_value, ch_primed_value)])
    return (-1.0 - low, high), f"value range [{low:.4f}, {high:.4f}] over 2000 configs"


def _mc_chunk_split(perturb: float) -> Measured:
    """A sequence over three chunks, the last one short, counts as the
    kinematics do on the same trials sampled in pieces cut at seeded points."""
    n, lines = 2 * (1 << 16) + 17, fig2_lines(_GAMMA, _THETA)
    rng = np.random.default_rng(808)
    mismatched = []
    for spec in CampaignPlan.from_params(_GAMMA, lines, n_trials=n, master_seed=7).sequences:
        config = config_for_setup(lines, _GAMMA, spec.setup)
        cuts = [0, *sorted(rng.integers(1, n, 3).tolist()), n]
        pieces = sum(kinematic_counts(config, phi_samples(spec.seed, lo, hi)) for lo, hi in zip(cuts, cuts[1:]))
        if list(run_sequence(lines, _GAMMA, spec).counts.values()) != pieces.tolist():
            mismatched.append(spec.setup)
    detail = f"counts differ for setups {mismatched}" if mismatched else "map counts equal kinematic counts"
    return (len(mismatched),), f"{detail} on {n} trials per setup, cut at 3 seeded points"


def _report_determinism(perturb: float) -> Measured:
    from .cli import cmd_exact, render_report  # cli imports this module
    first, second = (render_report(cmd_exact(_GAMMA, _THETA)) for _ in range(2))
    differing = sum(a != b for a, b in zip(first, second)) + abs(len(first) - len(second))
    return (differing,), "exact report bytes identical on repeat"


CHECKS = (
    Check("closed-form-vs-exact-demo", _closed_vs_exact_demo, (CLOSED_FORM_TOL,)),
    Check("closed-form-vs-exact-random", _closed_vs_exact_random, (CLOSED_FORM_TOL,)),
    Check("exact-vs-grid-oracle", _exact_vs_grid_oracle, (_GRID_ORACLE_TOL,)),
    Check("exact-vs-monte-carlo", _exact_vs_monte_carlo, (5.0,)),  # sigmas per entry
    # the corrected expansion's residual against its reduced form, the least
    # reduced CH below -1 and the largest above 0; analyze makes every report
    Check("reduced-identity-random", _reduced_identity_random, (_ROUNDING_TOL, FLAG_TOL, FLAG_TOL)),
    Check("naive-closed-values", _naive_closed_values, (_ROUNDING_TOL,)),
    Check("strategy-mixtures-feasible", _strategy_mixtures_feasible, (0, NORM_TOL)),  # infeasible ones, max residual
    Check("fine-equivalence", _fine_equivalence, (0,)),  # LP and battery verdicts that differ
    # the demo table feasible, its signaling below 1/12, the PR box's and the
    # singlet's battery maxima off 1/2 and (sqrt 2 - 1)/2
    Check("infeasible-examples", _infeasible_examples, (0, NORM_TOL, NORM_TOL, NORM_TOL)),
    # the CH kernel at fixed hidden state: its factorisation residual, its
    # least value below -1 and its largest above 0
    Check("fixed-lambda-grid", _fixed_lambda_grid, (0, 0, 0)),
    Check("honest-ch-sweep", _honest_ch_sweep, (FLAG_TOL, FLAG_TOL)),  # least CH or CH' below -1, largest above 0
    Check("mc-chunk-split", _mc_chunk_split, (0,)),  # setups whose counts differ
    Check("report-determinism", _report_determinism, (0,)),  # characters that differ
)


def run_checks(perturb_closed_form: float = 0.0) -> list[CheckResult]:
    """Run CHECKS in order, timing each.  A check passes iff every deviation
    its measure returns is <= its bound; a NaN deviation is not, so it fails.
    perturb_closed_form moves that much of the closed form's ab table from
    cell 00 to 11, for the two closed-form checks to notice."""
    results = []
    for name, measure, bounds in CHECKS:
        started = time.perf_counter()
        deviations, detail = measure(perturb_closed_form)
        passed = all(deviation <= bound for deviation, bound in zip(deviations, bounds, strict=True))
        results.append(CheckResult(name, passed, detail, time.perf_counter() - started))
    return results
