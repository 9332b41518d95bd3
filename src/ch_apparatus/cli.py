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
    ALL_SETUPS, TWO_STOP_SETUPS, ConfigError, EngravedLines, LINE_NAMES, _not_a_count, _not_a_number, config_for_setup,
    fig2_lines,
)
from .checks import CheckResult, run_checks
from .circle_geometry import TWO_PI, normalize
from .exact_engine import (
    CLOSED_FORM_TOL, ConditionalTable, ConsistencyError, _table_difference, closed_form_fig2, conditional_table,
)
from .inequality_analysis import AnalysisReport, SettingFrequencies, analyze, ch_violated
from .lhv_feasibility import BehaviorTable, ch_battery, feasible_joint, no_signaling_deviation
from .monte_carlo import CampaignPlan, EstimateReport, check_seed, run_campaign

SCHEMA = "ch-apparatus/1"

__all__ = [
    "SCHEMA", "ExperimentConfig", "CheckResult", "parse_config", "render_report", "report_to_csv", "cmd_demo",
    "cmd_exact", "cmd_simulate", "cmd_sweep", "run_checks", "cmd_check", "main",
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


def _at(path: str, build: Any, *args: Any) -> Any:
    """build(*args), a value's own builder, with its ValueError (a
    ConfigError or PlanError too) raised as a ConfigError at the key path."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _expect_mapping(obj: Any, path: str, allowed: set[str], required: tuple[str, ...] = ()) -> dict:
    """obj as an object with only the allowed keys and all the required ones;
    path "config" is the whole file, whose keys are their own paths."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)!r} (allowed: {sorted(allowed)!r})")
    for key in required:
        if key not in obj:
            _fail(key if path == "config" else f"{path}.{key}", "required")
    return obj


def _expect_number(obj: Any, path: str) -> float:
    if _not_a_number(obj):
        _fail(path, f"expected a finite number, got {obj!r}")
    return float(obj)


def _expect_int(obj: Any, path: str, minimum: int = 0) -> int:
    if _not_a_count(obj):
        _fail(path, f"expected an integer, got {obj!r}")
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

    top = _expect_mapping(raw, "config", {"apparatus", "campaign", "frequencies", "output"}, ("apparatus",))
    app = _expect_mapping(top["apparatus"], "apparatus", {"gamma", "theta", "lines"}, ("gamma",))
    gamma = _expect_number(app["gamma"], "apparatus.gamma")
    if not 0.0 < gamma < TWO_PI:
        _fail("apparatus.gamma", f"need 0 < gamma < 2*pi, got {gamma!r}")

    has_theta = "theta" in app
    has_lines = "lines" in app
    if has_theta == has_lines:
        _fail("apparatus", "exactly one of 'theta' or 'lines' must be given")
    theta = None
    if has_theta:
        theta = _expect_number(app["theta"], "apparatus.theta")
        lines = _at("apparatus.theta", fig2_lines, gamma, theta)
    else:
        block = _expect_mapping(app["lines"], "apparatus.lines", set(LINE_NAMES), LINE_NAMES)
        values = [normalize(_expect_number(block[name], f"apparatus.lines.{name}")) for name in LINE_NAMES]
        lines = EngravedLines(*values)
        _at("apparatus.lines", config_for_setup, lines, gamma, "ab")  # coinciding lines on one side

    trials = 10**6
    seed = 0
    if "campaign" in top:
        camp = _expect_mapping(top["campaign"], "campaign", {"trials", "seed"})
        if "trials" in camp:
            trials = camp["trials"]
            if isinstance(trials, dict):
                for s, n in _expect_mapping(trials, "campaign.trials", set(ALL_SETUPS)).items():
                    _expect_int(n, f"campaign.trials.{s}")
            else:
                _expect_int(trials, "campaign.trials", minimum=1)
        if "seed" in camp:
            seed = _at("campaign.seed", check_seed, camp["seed"])
    plan = _at("campaign.trials", CampaignPlan.from_params, gamma, lines, trials, seed)  # all else is checked above

    frequencies: SettingFrequencies | None = SettingFrequencies.uniform()
    if "frequencies" in top:
        f = top["frequencies"]
        if f == "empirical":
            frequencies = None
        else:
            block = _expect_mapping(f, "frequencies", set(TWO_STOP_SETUPS), TWO_STOP_SETUPS)
            vals = [_expect_number(block[s], f"frequencies.{s}") for s in TWO_STOP_SETUPS]
            frequencies = _at("frequencies", SettingFrequencies, *vals)

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
    _expect_int(trials, "trials", minimum=1)
    _expect_int(workers, "workers", minimum=1)
    lines = fig2_lines(gamma, theta)
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
    _expect_int(steps, "steps", minimum=1)
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


def cmd_check(perturb_closed_form: float = 0.0, out=None, err=None) -> int:
    """Run the cross-validation suite (checks.CHECKS); exit 0 when every
    check passes, 2 otherwise.  A check passes iff each of its measured
    deviations is <= its bound, so a NaN deviation fails it.

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
    demo.add_argument("--seed", type=int, default=0, help="campaign master seed, 0 <= seed < 2**64")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
