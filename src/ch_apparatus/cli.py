"""Command-line workflows and machine-readable reports.

Subcommands: demo (full pipeline on one configuration), exact (no Monte
Carlo), simulate (campaign driven by a JSON config file), sweep (CSV scan
over gamma and theta), check (internal cross-validation suite).  Exit codes:
0 success, 1 usage or configuration error, 2 internal consistency failure.

exact, demo and simulate print what one builder, _report, makes of their
inputs: the arc measures always; the closed form, checked against them, when
theta is given; a campaign when a CampaignPlan is given.  demo builds its
plan from its flags, and a simulate config parses to an ExperimentConfig
that holds one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterator, NamedTuple

import numpy as np

from .apparatus import (
    ALL_SETUPS,
    TWO_STOP_SETUPS,
    ConfigError,
    EngravedLines,
    LINE_NAMES,
    _not_a_count,
    _not_a_number,
    config_for_setup,
    fig2_lines,
    unmodified_config,
)
from .circle_geometry import TWO_PI, normalize
from .exact_engine import (
    CLOSED_FORM_TOL,
    ConditionalTable,
    ConsistencyError,
    _LONE,
    _entries,
    closed_form_fig2,
    conditional_table,
    conditional_table_exact,
    grid_oracle,
    stop_cell,
)
from .inequality_analysis import (
    FLAG_TOL,
    AnalysisReport,
    SettingFrequencies,
    _fixed_lambda_checks,
    analyze,
    ch_primed_value,
    ch_value,
    ch_violated,
    crossing_probability_set,
)
from .lhv_feasibility import (
    NORM_TOL,
    BehaviorTable,
    ch_battery,
    feasible_joint,
    mixture_table,
    no_signaling_deviation,
    pr_box_table,
    random_no_signaling_table,
    singlet_table,
)
from .monte_carlo import (
    CampaignPlan,
    EstimateReport,
    PlanError,
    check_seed,
    kinematic_counts,
    phi_samples,
    run_campaign,
    run_sequence,
)

SCHEMA = "ch-apparatus/1"

__all__ = [
    "SCHEMA",
    "ExperimentConfig",
    "CheckResult",
    "parse_config",
    "render_report",
    "report_to_csv",
    "cmd_demo",
    "cmd_exact",
    "cmd_simulate",
    "cmd_sweep",
    "run_checks",
    "cmd_check",
    "main",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated contents of a JSON experiment description: the campaign
    plan, and how to analyse and report it."""

    plan: CampaignPlan
    theta: float | None
    frequencies: SettingFrequencies | None  # None means: use empirical frequencies
    out_format: str
    out_path: str | None


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _expect_mapping(obj: Any, path: str, allowed: set[str]) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)!r} (allowed: {sorted(allowed)!r})")
    return obj


def _expect_number(obj: Any, path: str) -> float:
    if _not_a_number(obj):
        _fail(path, f"expected a finite number, got {obj!r}")
    return float(obj)


def _check_int(obj: Any, path: str) -> None:
    if _not_a_count(obj):
        _fail(path, f"expected an integer, got {obj!r}")


def _expect_int(obj: Any, path: str, minimum: int = 0) -> int:
    _check_int(obj, path)
    if obj < minimum:
        _fail(path, f"must be >= {minimum}, got {obj}")
    return obj


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment description, filling defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # malformed JSON, or an integer literal too long to convert
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc

    top = _expect_mapping(raw, "config", {"apparatus", "campaign", "frequencies", "output"})
    if "apparatus" not in top:
        _fail("config", "missing required 'apparatus' block")
    app = _expect_mapping(top["apparatus"], "apparatus", {"gamma", "theta", "lines"})
    if "gamma" not in app:
        _fail("apparatus.gamma", "required")
    gamma = _expect_number(app["gamma"], "apparatus.gamma")
    if not 0.0 < gamma < TWO_PI:
        _fail("apparatus.gamma", f"need 0 < gamma < 2*pi, got {gamma!r}")

    has_theta = "theta" in app
    has_lines = "lines" in app
    if has_theta == has_lines:
        _fail("apparatus", "exactly one of 'theta' or 'lines' must be given")
    theta = None
    lines = None
    if has_theta:
        theta = _expect_number(app["theta"], "apparatus.theta")
        try:
            lines = fig2_lines(gamma, theta)
        except ConfigError as exc:  # out of range, or lines within the angular resolution
            _fail("apparatus.theta", str(exc))
    else:
        block = _expect_mapping(app["lines"], "apparatus.lines", set(LINE_NAMES))
        values = []
        for name in LINE_NAMES:
            if name not in block:
                _fail(f"apparatus.lines.{name}", "required")
            values.append(normalize(_expect_number(block[name], f"apparatus.lines.{name}")))
        lines = EngravedLines(*values)
        try:
            config_for_setup(lines, gamma, "ab")
        except ConfigError as exc:  # coinciding lines on one side
            _fail("apparatus.lines", str(exc))

    trials = {s: 10**6 for s in ALL_SETUPS}
    seed = 0
    if "campaign" in top:
        camp = _expect_mapping(top["campaign"], "campaign", {"trials", "seed"})
        if "trials" in camp:
            t = camp["trials"]
            if isinstance(t, dict):
                _expect_mapping(t, "campaign.trials", set(ALL_SETUPS))
                trials = {s: 0 for s in ALL_SETUPS}
                for s, n in t.items():
                    trials[s] = _expect_int(n, f"campaign.trials.{s}")
                if not any(trials[s] for s in TWO_STOP_SETUPS):
                    _fail("campaign.trials", "no two-stop trials: setting frequencies are undefined")
            else:
                n = _expect_int(t, "campaign.trials", minimum=1)
                trials = {s: n for s in ALL_SETUPS}
        if "seed" in camp:
            seed = _expect_int(camp["seed"], "campaign.seed")
            try:
                check_seed(seed)
            except PlanError as exc:
                _fail("campaign.seed", str(exc))

    frequencies: SettingFrequencies | None = SettingFrequencies.uniform()
    if "frequencies" in top:
        f = top["frequencies"]
        if f == "empirical":
            frequencies = None
        else:
            block = _expect_mapping(f, "frequencies", set(TWO_STOP_SETUPS))
            vals = []
            for s in TWO_STOP_SETUPS:
                if s not in block:
                    _fail(f"frequencies.{s}", "required")
                vals.append(_expect_number(block[s], f"frequencies.{s}"))
            try:
                frequencies = SettingFrequencies(*vals)
            except ValueError as exc:
                _fail("frequencies", str(exc))

    out_format = "json"
    out_path = None
    if "output" in top:
        out = _expect_mapping(top["output"], "output", {"format", "path"})
        if "format" in out:
            if out["format"] not in ("json", "csv"):
                _fail("output.format", f"must be 'json' or 'csv', got {out['format']!r}")
            out_format = out["format"]
        if "path" in out and out["path"] is not None:
            if not isinstance(out["path"], str):
                _fail("output.path", f"expected a string, got {out['path']!r}")
            out_path = out["path"]

    plan = CampaignPlan(gamma, lines, tuple(trials[s] for s in ALL_SETUPS), seed)
    return ExperimentConfig(plan, theta, frequencies, out_format, out_path)


def _table_json(table: ConditionalTable) -> dict[str, Any]:
    out = asdict(table)
    exact_only = [s for s, p in table.singles.items() if p is None]
    if exact_only:
        out["exact_only"] = exact_only
    return out


def _analysis_json(report: AnalysisReport) -> dict[str, Any]:
    return {
        "naive": {
            "probabilities": report.naive.as_dict(),
            "ch": report.ch,
            "ch_flagged": report.ch_flagged,
            "ch_primed": report.ch_primed,
            "ch_primed_flagged": report.ch_primed_flagged,
            "ch_sum": report.ch_sum,
            "ch_sum_positive": report.ch_sum_positive,
            "bayes": {
                key: {"value": cond.value, "exceeds_one": cond.exceeds_one}
                for key, cond in report.bayes.items()
            },
        },
        "frequencies": report.frequencies.as_dict(),
        "corrected": {
            "probabilities": report.corrected.as_dict(),
            "ch": report.corrected_ch,
            "ch_flagged": report.corrected_ch_flagged,
            "reduced_ch": report.reduced_ch,
            "identity_residual": report.identity_residual,
        },
    }


def _estimates_json(campaign: EstimateReport) -> dict[str, Any]:
    per_setup: dict[str, Any] = {}
    for setup in ALL_SETUPS:
        result = campaign.results[setup]
        entry: dict[str, Any] = {"n_trials": result.n_trials, "counts": dict(result.counts)}
        if result.n_trials > 0:
            entry["estimates"] = {key: e._asdict() for key, e in result.estimates().items()}
        per_setup[setup] = entry
    return {
        "master_seed": campaign.plan.master_seed,
        "empirical_frequencies": campaign.frequencies.as_dict(),
        "per_setup": per_setup,
    }


def _feasibility_json(table: ConditionalTable) -> dict[str, Any]:
    behavior = BehaviorTable.from_full_tables(table.full_tables)
    return {
        "no_signaling_deviation": no_signaling_deviation(behavior),
        "joint": feasible_joint(behavior)._asdict(),
        "battery": ch_battery(behavior)._asdict(),
    }


def _table_difference(left: ConditionalTable, right: ConditionalTable) -> float:
    diffs = [abs(lv - rv) for lv, rv in zip(_entries(left), _entries(right)) if lv is not None and rv is not None]
    for s in TWO_STOP_SETUPS:
        for cell, value in left.full_tables[s].items():
            diffs.append(abs(value - right.full_tables[s][cell]))
    return max(diffs)


def _leaves(obj: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """Yield (dotted path, value) for each scalar of a report, keys sorted and
    list items by index, as the sorted JSON encoder meets them.  The first
    non-finite float raises ConsistencyError naming its path."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}.{k}" if path else str(k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ConsistencyError(f"non-finite number at report.{path}")
    else:
        yield path, obj


def render_report(report: dict[str, Any], out_format: str = "json") -> str:
    if out_format == "json":
        try:  # the encoder rejects NaN and infinities; the walk then names the path
            return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:
            for _ in _leaves(report):
                pass
            raise
    if out_format == "csv":
        return report_to_csv(report)
    raise ConfigError(f"unknown report format {out_format!r}")


def report_to_csv(report: dict[str, Any]) -> str:
    """Flatten a report to sorted dotted-path key,value rows."""
    rows = [f"{key},{_csv_value(value)}" for key, value in _leaves(report)]
    return "\n".join(["key,value", *rows]) + "\n"


def _csv_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report(
    command: str,
    gamma: float,
    theta: float | None,
    lines: EngravedLines,
    frequencies: SettingFrequencies | None,
    plan: CampaignPlan | None = None,
) -> dict[str, Any]:
    """The report of one engraving: its arc-measure table, analysis and
    feasibility; with theta, the closed form, checked against the arc
    measures before any campaign runs; with plan, the campaign and its
    distance from the arc measures, analysed at the campaign's empirical
    frequencies when frequencies is None."""
    exact = conditional_table(lines, gamma)
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "command": command,
        "apparatus": {"mode": "modified", "gamma": gamma, "lines": asdict(lines)},
        "tables": {"exact": _table_json(exact)},
        "analysis": {},
        "consistency": {},
    }
    if theta is not None:
        closed = closed_form_fig2(gamma, theta)
        diff = _table_difference(closed, exact)
        if diff > CLOSED_FORM_TOL:
            raise ConsistencyError(f"closed form and arc measures disagree by {diff!r}")
        report["apparatus"]["theta"] = theta
        report["tables"]["closed_form"] = _table_json(closed)
        report["consistency"]["closed_vs_exact_max_abs"] = diff
    if plan is not None:
        campaign = run_campaign(plan)
        mc = campaign.table
        report["frequencies_source"] = "explicit" if frequencies is not None else "empirical"
        frequencies = frequencies if frequencies is not None else campaign.frequencies
        report["estimates"] = _estimates_json(campaign)
        report["tables"]["monte_carlo"] = _table_json(mc) if mc is not None else None
        # the naive analysis needs all eight entries
        complete = mc is not None and None not in mc.singles.values()
        report["analysis"]["monte_carlo"] = _analysis_json(analyze(mc, frequencies)) if complete else None
        report["consistency"]["exact_vs_monte_carlo_max_abs"] = _table_difference(exact, mc) if mc is not None else None
    report["analysis"]["exact"] = _analysis_json(analyze(exact, frequencies))
    report["feasibility"] = _feasibility_json(exact)
    return report


def cmd_exact(gamma: float, theta: float) -> dict[str, Any]:
    """Closed-form and arc-measure tables plus full analysis, no sampling."""
    return _report("exact", gamma, theta, fig2_lines(gamma, theta), SettingFrequencies.uniform())


def cmd_demo(gamma: float, theta: float, seed: int = 0, trials: int = 10**6, workers: int = 1) -> dict[str, Any]:
    """The simulate pipeline on the standard engraving, with equal trials per
    sequence and uniform frequencies, plus the closed-form cross-check.
    ``workers`` must be at least 1 and changes nothing: the campaign runs its
    sequences on every usable CPU (run_campaign).  It stays only because the
    committed benchmark passes it; the command line has no such option."""
    _check_int(trials, "trials")
    _check_int(workers, "workers")
    if trials < 1:
        raise ConfigError("demo needs at least one trial per sequence")
    lines = fig2_lines(gamma, theta)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    plan = CampaignPlan.from_params(gamma, lines, n_trials=trials, master_seed=seed)
    return _report("demo", gamma, theta, lines, SettingFrequencies.uniform(), plan)


def cmd_simulate(config: ExperimentConfig) -> dict[str, Any]:
    """Campaign and analysis as described by a parsed experiment config."""
    plan = config.plan
    return _report("simulate", plan.gamma, config.theta, plan.lines, config.frequencies, plan)


SWEEP_HEADER = "gamma,theta,ch_naive,ch_primed,ch_sum,bayes_max,ch_corrected,naive_violated,corrected_violated"


class SweepStats(NamedTuple):
    rows: int
    skipped: int


def _check_sweep(gamma_range: tuple[float, float], theta_range: tuple[float, float], steps: int) -> None:
    """Reject a sweep grid that cmd_sweep cannot scan, before it writes."""
    _check_int(steps, "steps")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if not all(math.isfinite(x) for x in (*gamma_range, *theta_range)):
        raise ConfigError(f"sweep bounds must be finite, got gamma {gamma_range!r}, theta {theta_range!r}")


def cmd_sweep(
    gamma_range: tuple[float, float],
    theta_range: tuple[float, float],
    steps: int,
    out: Any,
) -> SweepStats:
    """Scan the closed forms over a (gamma, theta) grid and write CSV rows.

    Each row formats analyze() of the closed-form table at uniform
    frequencies: ch, ch_primed, ch_sum, the largest Bayes conditional and
    reduced_ch, then whether ch, ch_primed or ch_sum is flagged, and whether
    reduced_ch leaves [-1, 0].  Grid points violating 0 < theta < gamma (or
    gamma + theta < 2*pi) are skipped and counted in a trailing '#' comment.
    Rows are written as they are made, after the grid is checked.
    """
    _check_sweep(gamma_range, theta_range, steps)
    gammas = np.linspace(gamma_range[0], gamma_range[1], steps)
    thetas = np.linspace(theta_range[0], theta_range[1], steps)
    rows = 0
    skipped = 0
    out.write(SWEEP_HEADER + "\n")
    for g in gammas.tolist():
        for t in thetas.tolist():
            try:
                closed = closed_form_fig2(g, t)
            except ConfigError:
                skipped += 1
                continue
            r = analyze(closed, SettingFrequencies.uniform())
            bayes_max = max(c.value for c in r.bayes.values() if c.value is not None)
            naive_violated = r.ch_flagged or r.ch_primed_flagged or r.ch_sum_positive
            cells = [g, t, r.ch, r.ch_primed, r.ch_sum, bayes_max, r.reduced_ch, naive_violated, ch_violated(r.reduced_ch)]
            out.write(",".join(map(_csv_value, cells)) + "\n")
            rows += 1
    out.write(f"# skipped {skipped} invalid grid points\n")
    return SweepStats(rows=rows, skipped=skipped)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of this check alone


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
            lines = EngravedLines(a, ap, b, bp)
            return unmodified_config(lines, float(rng.uniform(1e-3, TWO_PI)))


# A midpoint grid of n points puts within one point of its share into each
# arc, so its frequency of an event made of k arcs is within k/n of the arc
# measure: this allows ten arcs at n = 10**6.
_GRID_ORACLE_TOL = 1e-5

# Two float expressions of one quantity built from a few probabilities
# differ by rounding only.
_ROUNDING_TOL = 1e-12


def run_checks(perturb_closed_form: float = 0.0) -> list[CheckResult]:
    """Internal cross-validation suite; the fault-injection knob moves that
    much of the closed form's ab table from cell 00 to 11, for the checks to
    notice.  CH values come from analyze, the function behind every report."""
    demo_gamma, demo_theta = math.pi / 3.0, math.pi / 6.0
    results: list[CheckResult] = []
    started = [time.perf_counter()]

    def record(name: str, passed: bool, detail: str) -> None:
        now = time.perf_counter()
        results.append(CheckResult(name=name, passed=passed, detail=detail, seconds=now - started[0]))
        started[0] = now

    def perturbed_closed(gamma: float, theta: float) -> ConditionalTable:
        table = closed_form_fig2(gamma, theta)
        if perturb_closed_form:
            cells = table.full_tables["ab"]
            ab = {**cells, "11": cells["11"] + perturb_closed_form, "00": cells["00"] - perturb_closed_form}
            table = ConditionalTable({**table.joint, "ab": ab["11"]}, table.singles, {**table.full_tables, "ab": ab})
        return table

    # closed form against the arc engine, on the demo point and at random
    diff = _table_difference(perturbed_closed(demo_gamma, demo_theta), conditional_table_exact(demo_gamma, demo_theta))
    record("closed-form-vs-exact-demo", diff <= CLOSED_FORM_TOL, f"max|diff|={diff:.3e}")
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        g, t = _random_fig2_pair(rng)
        worst = max(worst, _table_difference(perturbed_closed(g, t), conditional_table_exact(g, t)))
    record("closed-form-vs-exact-random", worst <= CLOSED_FORM_TOL, f"max|diff|={worst:.3e} over 100 pairs")

    # arc engine against the brute-force grid oracle on the demo setups
    demo_lines = fig2_lines(demo_gamma, demo_theta)
    exact = conditional_table_exact(demo_gamma, demo_theta)
    events = [stop_cell(True, True)] * len(TWO_STOP_SETUPS) + [event for event, _ in _LONE]
    worst = 0.0
    for setup, event, p in zip(ALL_SETUPS, events, _entries(exact)):
        oracle = grid_oracle(config_for_setup(demo_lines, demo_gamma, setup), event, 10**6)
        worst = max(worst, abs(oracle - p))
    record("exact-vs-grid-oracle", worst <= _GRID_ORACLE_TOL, f"max|diff|={worst:.3e} at 1e6 grid points")

    # arc engine against a seeded campaign, 5 sigma per entry
    plan = CampaignPlan.from_params(demo_gamma, demo_lines, n_trials=10**5, master_seed=20260816)
    campaign = run_campaign(plan)
    worst_sigma = 0.0
    for p, sampled in zip(_entries(exact), _entries(campaign.table)):
        sigma = math.sqrt(p * (1.0 - p) / 10**5)
        gap = abs(sampled - p)
        worst_sigma = max(worst_sigma, gap / sigma if sigma > 0.0 else (math.inf if gap > 0 else 0.0))
    record("exact-vs-monte-carlo", worst_sigma <= 5.0, f"max deviation {worst_sigma:.2f} sigma at n=1e5")

    # the corrected expansion collapses to its reduced form identically
    rng = np.random.default_rng(202)
    worst = 0.0
    low, high = 0.0, -1.0
    for _ in range(1000):
        g, t = _random_fig2_pair(rng)
        table = closed_form_fig2(g, t)
        f = rng.dirichlet(np.ones(4))
        r = analyze(table, SettingFrequencies(*map(float, f)))
        worst = max(worst, r.identity_residual)
        low = min(low, r.reduced_ch)
        high = max(high, r.reduced_ch)
    ok = worst <= _ROUNDING_TOL and low >= -1.0 - FLAG_TOL and high <= FLAG_TOL
    record("reduced-identity-random", ok, f"max residual={worst:.3e}, range [{low:.4f}, {high:.4f}]")

    # naive plug-in values match their closed expressions
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        g, t = _random_fig2_pair(rng)
        r = analyze(closed_form_fig2(g, t), SettingFrequencies.uniform())
        worst = max(worst, abs(r.ch - (2.0 * g - t) / TWO_PI))
        worst = max(worst, abs(r.ch_primed - t / TWO_PI))
        worst = max(worst, abs(r.ch_sum - 2.0 * g / TWO_PI))
        for cond in r.bayes.values():
            worst = max(worst, abs(cond.value - 2.0))
    record("naive-closed-values", worst <= _ROUNDING_TOL, f"max|diff|={worst:.3e} over 1000 pairs")

    # strategy mixtures must come back feasible with a faithful witness
    rng = np.random.default_rng(404)
    worst = 0.0
    all_feasible = True
    for _ in range(100):
        table = mixture_table(rng.dirichlet(np.ones(16)))
        result = feasible_joint(table)
        all_feasible &= result.feasible
        worst = max(worst, result.max_residual)
    record("strategy-mixtures-feasible", all_feasible and worst <= NORM_TOL, f"max residual={worst:.3e}")

    # LP feasibility and the CH battery must agree on no-signaling tables
    rng = np.random.default_rng(505)
    disagreements = 0
    for _ in range(1000):
        table = random_no_signaling_table(rng)
        if feasible_joint(table).feasible != ch_battery(table).passes:
            disagreements += 1
    record("fine-equivalence", disagreements == 0, f"{disagreements} disagreements in 1000 tables")

    # named infeasible examples keep their certified battery maxima
    demo_behavior = BehaviorTable.from_full_tables(exact.full_tables)
    demo_dev = no_signaling_deviation(demo_behavior)
    demo_feasible = feasible_joint(demo_behavior).feasible
    pr = ch_battery(pr_box_table())
    singlet = ch_battery(singlet_table())
    ok = (
        not demo_feasible
        and demo_dev >= 1.0 / 12.0 - NORM_TOL
        and abs(pr.max_value - 0.5) <= NORM_TOL
        and abs(singlet.max_value - (math.sqrt(2.0) - 1.0) / 2.0) <= NORM_TOL
    )
    record(
        "infeasible-examples",
        ok,
        f"demo deviation={demo_dev:.6f}, pr max={pr.max_value:.6f}, singlet max={singlet.max_value:.6f}",
    )

    # factorisability and range of the CH kernel at fixed hidden state
    rng = np.random.default_rng(606)
    config = _random_unmodified(rng)
    n_grid = 10**5
    residual, value = _fixed_lambda_checks(config, (np.arange(n_grid) + 0.5) * TWO_PI / n_grid)
    worst_res = float(residual.max())
    low, high = min(0.0, float(value.min())), max(-1.0, float(value.max()))
    ok = worst_res == 0.0 and low >= -1.0 and high <= 0.0
    record("fixed-lambda-grid", ok, f"max residual={worst_res:.1e}, range [{low:.1f}, {high:.1f}]")

    # honest one-space probabilities never leave the CH band
    rng = np.random.default_rng(707)
    low, high = 0.0, -1.0
    for _ in range(2000):
        s = crossing_probability_set(_random_unmodified(rng))
        for value in (ch_value(s), ch_primed_value(s)):
            low = min(low, value)
            high = max(high, value)
    ok = low >= -1.0 - FLAG_TOL and high <= FLAG_TOL
    record("honest-ch-sweep", ok, f"value range [{low:.4f}, {high:.4f}] over 2000 configs")

    # counts must not depend on how the index range is cut: a sequence over
    # three chunks, the last one short, counts as the kinematics do on the
    # same trials sampled in pieces cut at seeded points
    n = 2 * (1 << 16) + 17
    plan = CampaignPlan.from_params(demo_gamma, demo_lines, n_trials=n, master_seed=7)
    rng = np.random.default_rng(808)
    mismatched = []
    for spec in plan.sequences:
        config = config_for_setup(demo_lines, demo_gamma, spec.setup)
        cuts = [0, *sorted(rng.integers(1, n, 3).tolist()), n]
        pieces = sum(kinematic_counts(config, phi_samples(spec.seed, lo, hi)) for lo, hi in zip(cuts, cuts[1:]))
        if list(run_sequence(demo_lines, demo_gamma, spec).counts.values()) != pieces.tolist():
            mismatched.append(spec.setup)
    detail = f"counts differ for setups {mismatched}" if mismatched else "map counts equal kinematic counts"
    record("mc-chunk-split", not mismatched, f"{detail} on {n} trials per setup, cut at 3 seeded points")

    # report rendering must be deterministic
    first = render_report(cmd_exact(demo_gamma, demo_theta))
    second = render_report(cmd_exact(demo_gamma, demo_theta))
    record("report-determinism", first == second, "exact report bytes identical on repeat")

    return results


def cmd_check(perturb_closed_form: float = 0.0, out=None, err=None) -> int:
    """Run the cross-validation suite; exit 0 when everything passes.

    The report goes to out (stdout); the wall time of each check goes to err
    (stderr), one "time <name>: <seconds>s" line per check, so the report
    lines stay free of timings.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    started = time.perf_counter()
    results = run_checks(perturb_closed_form=perturb_closed_form)
    for result in results:
        err.write(f"time {result.name}: {result.seconds:.3f}s\n")
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        out.write(f"{status} {result.name}: {result.detail}\n")
    elapsed = time.perf_counter() - started
    failed = [r.name for r in results if not r.passed]
    if failed:
        out.write(f"FAILED checks: {', '.join(failed)} ({elapsed:.1f}s)\n")
        return 2
    out.write(f"all {len(results)} checks passed ({elapsed:.1f}s)\n")
    return 0


def _output(out_path: str | None):
    """stdout, or the file at out_path opened for writing, as a context manager."""
    return contextlib.nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8", newline="")


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as out:
        out.write(text)


def _seed_flag(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return check_seed(seed)
    except PlanError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ch-apparatus",
        description="Classical two-body rotation device versus the Clauser-Horne inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="full pipeline on one configuration")
    exact = sub.add_parser("exact", help="closed-form and arc-measure tables, no sampling")
    for p in (demo, exact):
        p.add_argument("--gamma", type=float, default=math.pi / 3.0, help="mutual rotation budget")
        p.add_argument("--theta", type=float, default=math.pi / 6.0, help="engraving offset")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    demo.add_argument("--seed", type=_seed_flag, default=0, help="campaign master seed, 0 <= seed < 2**64")
    demo.add_argument("--trials", type=int, default=10**6, help="trials per setup")

    simulate = sub.add_parser("simulate", help="campaign driven by a JSON config file")
    simulate.add_argument("--config", type=str, required=True)
    simulate.add_argument("--out", type=str, default=None)
    simulate.add_argument("--format", choices=("json", "csv"), default=None)

    sweep = sub.add_parser("sweep", help="closed-form scan over gamma and theta")
    sweep.add_argument("--gamma-min", type=float, default=math.pi / 6.0)
    sweep.add_argument("--gamma-max", type=float, default=5.0 * math.pi / 6.0)
    sweep.add_argument("--theta-min", type=float, default=math.pi / 24.0)
    sweep.add_argument("--theta-max", type=float, default=2.0 * math.pi / 3.0)
    sweep.add_argument("--steps", type=int, default=8, help="grid points per axis")
    sweep.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")

    sub.add_parser("check", help="run the internal cross-validation suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "demo":
            report = cmd_demo(args.gamma, args.theta, seed=args.seed, trials=args.trials)
            _emit(render_report(report, args.format), args.out)
        elif args.command == "exact":
            report = cmd_exact(args.gamma, args.theta)
            _emit(render_report(report, args.format), args.out)
        elif args.command == "simulate":
            config = parse_config(args.config)
            report = cmd_simulate(config)
            out_format = args.format if args.format is not None else config.out_format
            out_path = args.out if args.out is not None else config.out_path
            _emit(render_report(report, out_format), out_path)
        elif args.command == "sweep":
            ranges = (args.gamma_min, args.gamma_max), (args.theta_min, args.theta_max)
            # checked before --out is opened, so that a rejected sweep leaves it untouched
            _check_sweep(*ranges, args.steps)
            with _output(args.out) as out:
                cmd_sweep(*ranges, args.steps, out)
        elif args.command == "check":
            return cmd_check()
        return 0
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed early (`sweep | head`), which is not an error; the
        # rest of stdout goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ConfigError, PlanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
