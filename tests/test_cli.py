"""Config parsing, report rendering, the sweep CSV, and exit codes.

Reports must be byte-deterministic: same inputs, same bytes, regardless of
worker count or repetition.  Exit codes: 0 success, 1 bad input, 2 internal
consistency failure.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ch_apparatus import cli, monte_carlo, simplex
from ch_apparatus.apparatus import ALL_SETUPS, LINE_NAMES, TWO_STOP_SETUPS, ConfigError, EngravedLines, fig2_lines
from ch_apparatus.cli import (
    SCHEMA,
    SWEEP_HEADER,
    cmd_check,
    cmd_demo,
    cmd_exact,
    cmd_simulate,
    cmd_sweep,
    main,
    parse_config,
    render_report,
)
from ch_apparatus.exact_engine import ConsistencyError
from ch_apparatus.inequality_analysis import SettingFrequencies
from ch_apparatus.monte_carlo import _CHUNK, CampaignPlan, run_campaign

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_shorthand_expands_to_lines(self, tmp_path):
        path = write_config(tmp_path, {"apparatus": {"gamma": GAMMA, "theta": THETA}})
        config = parse_config(path)
        assert config.plan.gamma == GAMMA
        assert config.theta == THETA
        assert config.plan.lines.A == pytest.approx(GAMMA + THETA, abs=1e-12)
        assert config.plan.lines.B_prime == 0.0

    def test_defaults(self, tmp_path):
        path = write_config(tmp_path, {"apparatus": {"gamma": GAMMA, "theta": THETA}})
        config = parse_config(path)
        assert config.plan.trials == (10**6,) * len(ALL_SETUPS)
        assert config.plan.master_seed == 0
        assert config.frequencies == SettingFrequencies.uniform()
        assert config.out_format == "json"
        assert config.out_path is None

    def test_explicit_lines(self, tmp_path):
        payload = {
            "apparatus": {
                "gamma": 1.0,
                "lines": {"A": 1.5, "A'": 1.0, "B": 0.5, "B'": 0.0},
            }
        }
        config = parse_config(write_config(tmp_path, payload))
        assert config.theta is None
        assert config.plan.lines.A == 1.5

    def test_empirical_frequencies(self, tmp_path):
        payload = {
            "apparatus": {"gamma": GAMMA, "theta": THETA},
            "frequencies": "empirical",
        }
        assert parse_config(write_config(tmp_path, payload)).frequencies is None

    def test_explicit_frequencies(self, tmp_path):
        payload = {
            "apparatus": {"gamma": GAMMA, "theta": THETA},
            "frequencies": {"ab": 1.0, "ab'": 0.0, "a'b": 0.0, "a'b'": 0.0},
        }
        config = parse_config(write_config(tmp_path, payload))
        assert config.frequencies == SettingFrequencies(1.0, 0.0, 0.0, 0.0)

    def test_trials_dict_fills_missing_with_zero(self, tmp_path):
        payload = {
            "apparatus": {"gamma": GAMMA, "theta": THETA},
            "campaign": {"trials": {"ab": 10, "ab'": 10, "a'b": 10, "a'b'": 10}, "seed": 5},
        }
        config = parse_config(write_config(tmp_path, payload))
        assert config.plan.trials == (10, 10, 10, 10, 0, 0, 0, 0)
        assert config.plan.master_seed == 5

    @pytest.mark.parametrize(
        "campaign, n_trials, seed",
        [
            ({}, 10**6, 0),
            ({"trials": 7, "seed": 3}, 7, 3),
            ({"trials": {"ab": 2, "a'b'": 1, "b": 4}, "seed": 2**64 - 1}, {"ab": 2, "a'b'": 1, "b": 4}, 2**64 - 1),
        ],
    )
    @pytest.mark.parametrize(
        "apparatus, lines",
        [({"theta": THETA}, fig2_lines(GAMMA, THETA)),
         ({"lines": {"A": 1.5, "A'": 1.0, "B": 0.5, "B'": 0.0}}, EngravedLines(1.5, 1.0, 0.5, 0.0))],
        ids=["theta", "lines"],
    )
    def test_plan_equals_from_params(self, tmp_path, apparatus, lines, campaign, n_trials, seed):
        payload = {"apparatus": {"gamma": GAMMA, **apparatus}, "campaign": campaign}
        config = parse_config(write_config(tmp_path, payload))
        assert config.plan == CampaignPlan.from_params(GAMMA, lines, n_trials=n_trials, master_seed=seed)

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"apparatus": {"gamma": GAMMA, "theta": GAMMA}}, "apparatus.theta"),
            ({"apparatus": {"gamma": 5.0, "theta": 1.5}}, "apparatus.theta"),
            ({"apparatus": {"gamma": GAMMA}}, "exactly one"),
            (
                {"apparatus": {"gamma": GAMMA, "theta": THETA, "lines": {}}},
                "exactly one",
            ),
            ({"apparatus": {"gamma": 9.0, "theta": 1.0}}, "apparatus.gamma"),
            ({"apparatus": {"gamma": GAMMA, "theta": THETA}, "campaign": {"trials": -3}}, "campaign.trials"),
            (
                {"apparatus": {"gamma": GAMMA, "theta": THETA}, "campaign": {"trials": {"xy": 1}}},
                "campaign.trials",
            ),
            (
                {
                    "apparatus": {"gamma": GAMMA, "theta": THETA},
                    "frequencies": {"ab": 0.7, "ab'": 0.7, "a'b": 0.0, "a'b'": 0.0},
                },
                "frequencies",
            ),
            ({"apparatus": {"gamma": GAMMA, "theta": THETA}, "extra": 1}, "unknown keys"),
            (
                {"apparatus": {"gamma": GAMMA, "theta": THETA}, "output": {"format": "xml"}},
                "output.format",
            ),
            ({"apparatus": {"gamma": GAMMA, "theta": True}}, "apparatus.theta"),
        ],
    )
    def test_rejections_name_the_key_path(self, tmp_path, payload, fragment):
        with pytest.raises(ConfigError, match=fragment.replace("'", ".")):
            parse_config(write_config(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(str(path))


class TestReports:
    def test_exact_report_values(self):
        report = cmd_exact(GAMMA, THETA)
        assert report["schema"] == SCHEMA
        analysis = report["analysis"]["exact"]
        assert analysis["naive"]["ch"] == pytest.approx(0.25, abs=1e-12)
        assert analysis["naive"]["ch_flagged"] is True
        assert analysis["naive"]["bayes"]["B|A"]["value"] == pytest.approx(2.0, abs=1e-12)
        assert analysis["corrected"]["ch"] == pytest.approx(-1 / 48, abs=1e-12)
        assert analysis["corrected"]["ch_flagged"] is False
        assert analysis["corrected"]["reduced_ch"] == pytest.approx(-1 / 48, abs=1e-12)
        assert report["feasibility"]["joint"]["feasible"] is False
        assert report["feasibility"]["no_signaling_deviation"] == pytest.approx(1 / 12, abs=1e-12)
        assert report["consistency"]["closed_vs_exact_max_abs"] <= 1e-12

    def test_demo_report_is_byte_deterministic(self):
        one = render_report(cmd_demo(GAMMA, THETA, seed=4, trials=6000), "json")
        two = render_report(cmd_demo(GAMMA, THETA, seed=4, trials=6000), "json")
        assert one == two
        assert one.endswith("\n")

    def test_demo_worker_count_invisible_in_output(self):
        lone = render_report(cmd_demo(GAMMA, THETA, seed=9, trials=70_000, workers=1), "json")
        pooled = render_report(cmd_demo(GAMMA, THETA, seed=9, trials=70_000, workers=4), "json")
        assert lone == pooled

    def test_demo_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            cmd_demo(GAMMA, THETA, trials=0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_demo_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ConfigError, match=f"^workers must be at least 1, got {workers}$"):
            cmd_demo(GAMMA, THETA, trials=1000, workers=workers)

    @pytest.mark.parametrize("name", ["trials", "workers"])
    @pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "2", None])
    def test_demo_rejects_non_integer_counts(self, name, value):
        # as parse_config does: True used to run as 1 worker, and as a trial
        # count it ended in a PlanError naming it once per setup
        counts = {"trials": 1000, "workers": 1, name: value}
        with pytest.raises(ConfigError, match=f"^{name}: expected an integer, got {re.escape(repr(value))}$"):
            cmd_demo(GAMMA, THETA, **counts)

    def test_demo_accepts_numpy_integer_counts(self):
        numpy_counts = cmd_demo(GAMMA, THETA, trials=np.int64(1000), workers=np.int64(2))
        assert render_report(numpy_counts) == render_report(cmd_demo(GAMMA, THETA, trials=1000))

    def test_csv_rendering(self):
        text = render_report(cmd_exact(GAMMA, THETA), "csv")
        lines = text.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("schema,") for line in lines)
        assert "\r" not in text
        # floats round-trip exactly through repr
        for line in lines[1:]:
            key, _, value = line.partition(",")
            if value not in ("", "true", "false") and not value.startswith(("ch-", "exact", "demo")):
                try:
                    float(value)
                except ValueError:
                    pass

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(cmd_exact(GAMMA, THETA), "yaml")

    @pytest.mark.parametrize("out_format", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_numbers_name_their_path(self, value, out_format):
        nested = {
            "report.tables.exact.joint.ab'": {"tables": {"exact": {"joint": {"ab": 0.5, "ab'": value}}}},
            "report.rows[1][1]": {"schema": SCHEMA, "rows": [{"x": 1.0}, [0.0, value]]},
        }
        for path, report in nested.items():
            with pytest.raises(ConsistencyError) as info:
                render_report(report, out_format)
            assert str(info.value) == f"non-finite number at {path}"

    @pytest.mark.parametrize("out_format", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_report_exits_2(self, monkeypatch, capsys, value, out_format):
        # JSON finds a non-finite number in its encoder and only then walks
        # the report for its path; CSV walks as it writes rows.  Both name the
        # first one in sorted key order, the one the encoder rejected:
        # "later" sorts before "rows"
        report = {"schema": SCHEMA, "rows": [{"x": [1.0, [0.5, value]]}], "later": [math.nan]}
        monkeypatch.setattr(cli, "cmd_exact", lambda gamma, theta: report)
        assert main(["exact", "--format", out_format]) == 2
        captured = capsys.readouterr()
        assert captured.err == "internal consistency failure: non-finite number at report.later[0]\n"
        assert captured.out == ""

    def test_stopped_simplex_exits_2(self, monkeypatch, capsys):
        # the feasibility program of the exact report stops after one pivot
        monkeypatch.setattr(simplex, "_MAX_ITER", 1)
        assert main(["exact"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("internal consistency failure: ")
        assert "'iteration-limit'" in captured.err
        assert captured.out == ""

    def test_encoder_errors_of_finite_reports_pass_through(self):
        # an integer too long for str() fails in the encoder with every
        # number finite: the walk finds nothing and the encoder's error stands
        with pytest.raises(ValueError, match="integer string conversion"):
            render_report({"schema": SCHEMA, "rows": [1.0, [10**5000]]}, "json")


class TestSimulate:
    def test_small_campaign(self, tmp_path):
        payload = {
            "apparatus": {"gamma": GAMMA, "theta": THETA},
            "campaign": {"trials": 4000, "seed": 1},
        }
        report = cmd_simulate(parse_config(write_config(tmp_path, payload)))
        assert report["command"] == "simulate"
        assert report["frequencies_source"] == "explicit"
        assert report["tables"]["monte_carlo"]["joint"]["ab"] == pytest.approx(1 / 6, abs=0.05)
        assert report["analysis"]["monte_carlo"] is not None
        assert report["consistency"]["exact_vs_monte_carlo_max_abs"] < 0.05

    def test_empirical_frequencies_flow_into_analysis(self, tmp_path):
        payload = {
            "apparatus": {"gamma": GAMMA, "theta": THETA},
            "campaign": {"trials": {"ab": 2000, "ab'": 1000, "a'b": 1000, "a'b'": 1000}, "seed": 2},
            "frequencies": "empirical",
        }
        report = cmd_simulate(parse_config(write_config(tmp_path, payload)))
        assert report["frequencies_source"] == "empirical"
        freqs = report["analysis"]["exact"]["frequencies"]
        assert freqs["ab"] == pytest.approx(0.4)
        assert freqs["ab'"] == pytest.approx(0.2)

    def test_degenerate_explicit_frequencies(self, tmp_path):
        # f = (1,0,0,0): the corrected joint equals the conditional one
        payload = {
            "apparatus": {"gamma": GAMMA, "theta": THETA},
            "campaign": {"trials": {"ab": 500, "ab'": 500, "a'b": 500, "a'b'": 500}},
            "frequencies": {"ab": 1.0, "ab'": 0.0, "a'b": 0.0, "a'b'": 0.0},
        }
        report = cmd_simulate(parse_config(write_config(tmp_path, payload)))
        corrected = report["analysis"]["exact"]["corrected"]["probabilities"]
        assert corrected["AB"] == pytest.approx(report["tables"]["exact"]["joint"]["ab"], abs=1e-12)
        assert corrected["AB'"] == 0.0
        assert corrected["A'B"] == 0.0
        assert corrected["A'B'"] == 0.0

    def test_line_within_eps_of_a_stop_exits_0(self, tmp_path, capsys):
        # A sits 1e-12 past A': a body held at a stop on A' crosses A by that
        # span, so the maps of a'b and a'b' build and the campaign runs
        lines = {"A": 1e-12, "A'": 1.175494351e-38, "B": 6.070388223748898, "B'": 5.998185184663431}
        payload = {"apparatus": {"gamma": 2.62544592207992, "lines": lines}, "campaign": {"trials": 2000, "seed": 5}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["command"] == "simulate"

    def test_zero_single_stop_trials_marked_exact_only(self, tmp_path):
        payload = {
            "apparatus": {"gamma": GAMMA, "theta": THETA},
            "campaign": {"trials": {"ab": 500, "ab'": 500, "a'b": 500, "a'b'": 500}},
        }
        report = cmd_simulate(parse_config(write_config(tmp_path, payload)))
        mc = report["tables"]["monte_carlo"]
        assert mc["singles"]["a"] is None
        assert set(mc["exact_only"]) == {"a", "a'", "b", "b'"}
        # naive analysis needs all eight entries, so the sampled side is absent
        assert report["analysis"]["monte_carlo"] is None

    def test_closed_form_is_checked_before_the_campaign(self, monkeypatch, tmp_path, capsys):
        # a simulate config with theta prints the closed form, so it is held
        # to the arc measures as exact and demo are, and no campaign runs
        closed_form = cli.closed_form_fig2

        def off(gamma, theta):
            # p(11|ab) with its joint entry up by 1e-9, p(00|ab) down by as much
            table = closed_form(gamma, theta)
            cells = table.full_tables["ab"]
            ab = {**cells, "11": cells["11"] + 1e-9, "00": cells["00"] - 1e-9}
            return dataclasses.replace(
                table, joint={**table.joint, "ab": ab["11"]}, full_tables={**table.full_tables, "ab": ab}
            )

        monkeypatch.setattr(cli, "closed_form_fig2", off)
        monkeypatch.setattr(cli, "run_campaign", lambda plan: pytest.fail("the campaign ran"))
        path = write_config(tmp_path, README_CONFIG)
        with pytest.raises(ConsistencyError, match="^closed form and arc measures disagree by "):
            cmd_simulate(parse_config(path))
        assert main(["simulate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("internal consistency failure: closed form and arc measures disagree by ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


REPORT_KEYS = {"schema", "command", "apparatus", "tables", "analysis", "feasibility", "consistency"}
CAMPAIGN_KEYS = REPORT_KEYS | {"frequencies_source", "estimates"}
CLOSED_VS_EXACT = "closed_vs_exact_max_abs"
EXACT_VS_MC = "exact_vs_monte_carlo_max_abs"


@pytest.mark.parametrize(
    "make, keys, tables, consistency",
    [
        (lambda tmp: cmd_exact(GAMMA, THETA), REPORT_KEYS, {"closed_form", "exact"}, {CLOSED_VS_EXACT}),
        (
            lambda tmp: cmd_demo(GAMMA, THETA, trials=1000),
            CAMPAIGN_KEYS, {"closed_form", "exact", "monte_carlo"}, {CLOSED_VS_EXACT, EXACT_VS_MC},
        ),
        (
            lambda tmp: cmd_simulate(parse_config(write_config(tmp, {
                "apparatus": {"gamma": GAMMA, "theta": THETA}, "campaign": {"trials": 1000}}))),
            CAMPAIGN_KEYS, {"closed_form", "exact", "monte_carlo"}, {CLOSED_VS_EXACT, EXACT_VS_MC},
        ),
        (
            lambda tmp: cmd_simulate(parse_config(write_config(tmp, {
                "apparatus": {"gamma": 1.0, "lines": {"A": 1.5, "A'": 1.0, "B": 0.5, "B'": 0.0}},
                "campaign": {"trials": 1000}}))),
            CAMPAIGN_KEYS, {"exact", "monte_carlo"}, {EXACT_VS_MC},
        ),
    ],
    ids=["exact", "demo", "simulate-theta", "simulate-lines"],
)
def test_report_sections_follow_the_inputs(make, keys, tables, consistency, tmp_path):
    # theta brings the closed form and its check, a campaign its estimates
    # and the frequency source, whatever the command
    report = make(tmp_path)
    assert set(report) == keys
    assert set(report["tables"]) == tables
    assert set(report["consistency"]) == consistency


class TestSweep:
    def test_header_and_footer(self):
        out = io.StringIO()
        stats = cmd_sweep((0.5, 1.5), (0.1, 0.4), 3, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert lines[-1] == "# skipped 0 invalid grid points"
        assert stats.rows == 9
        assert stats.skipped == 0
        assert "\r" not in out.getvalue()

    def test_single_point_matches_exact_report(self):
        out = io.StringIO()
        stats = cmd_sweep((GAMMA, GAMMA), (THETA, THETA), 1, out)
        assert stats.rows == 1
        row = out.getvalue().splitlines()[1].split(",")
        assert float(row[0]) == pytest.approx(GAMMA)
        assert float(row[1]) == pytest.approx(THETA)
        assert float(row[2]) == pytest.approx(0.25, abs=1e-12)
        assert float(row[3]) == pytest.approx(1 / 12, abs=1e-12)
        assert float(row[4]) == pytest.approx(1 / 3, abs=1e-12)
        assert float(row[5]) == pytest.approx(2.0, abs=1e-12)
        assert float(row[6]) == pytest.approx(-1 / 48, abs=1e-12)
        assert row[7] == "true"
        assert row[8] == "false"

    def test_invalid_points_are_skipped_with_note(self):
        out = io.StringIO()
        stats = cmd_sweep((0.5, 0.5), (0.9, 0.9), 1, out)
        assert stats.rows == 0
        assert stats.skipped == 1
        assert out.getvalue().splitlines()[-1] == "# skipped 1 invalid grid points"

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ConfigError):
            cmd_sweep((0.5, 1.5), (0.1, 0.4), 0, io.StringIO())

    @pytest.mark.parametrize("steps", [True, 2.5, 3.0, "3", None])
    def test_rejects_non_integer_steps(self, steps):
        # True used to write a one-point grid, and 2.5 ended in a TypeError
        # from np.linspace
        out = io.StringIO()
        with pytest.raises(ConfigError, match=f"^steps: expected an integer, got {re.escape(repr(steps))}$"):
            cmd_sweep((0.5, 1.5), (0.1, 0.4), steps, out)
        assert out.getvalue() == ""


class TestChecksAndExitCodes:
    def test_cmd_check_reports_failure_with_exit_2(self):
        out = io.StringIO()
        err = io.StringIO()
        code = cmd_check(perturb_closed_form=1e-6, out=out, err=err)
        assert code == 2
        text = out.getvalue()
        assert "FAIL closed-form-vs-exact-demo" in text
        assert "FAILED checks:" in text
        # the report lines carry no timings; each check's time goes to err
        lines = text.splitlines()
        assert len(lines) == 14
        names = [re.fullmatch(r"(?:PASS|FAIL) ([a-z0-9-]+): .*", line).group(1) for line in lines[:13]]
        failed = re.fullmatch(r"FAILED checks: ([a-z0-9, -]+) \(\d+\.\ds\)", lines[13]).group(1).split(", ")
        assert "closed-form-vs-exact-demo" in failed
        times = [re.fullmatch(r"time ([a-z0-9-]+): \d+\.\d{3}s", line) for line in err.getvalue().splitlines()]
        assert len(times) == 13 and all(times)
        assert [m.group(1) for m in times] == names

    def test_each_check_fails_past_its_bound(self, monkeypatch):
        # twice each bound, or one wrong verdict, count or byte, fails the
        # check it feeds and no other; half each bound passes all of them.
        # The bounds are literals here, so that a loosened constant in the
        # package fails this test.
        grid_oracle, analyze, run_campaign = cli.grid_oracle, cli.analyze, cli.run_campaign
        mixture_table, singlet_table, crossing_probability_set = (
            cli.mixture_table, cli.singlet_table, cli.crossing_probability_set,
        )

        def moved(table, setting, by):
            # table with each cell of one setting moved by by[cell]
            cells = table.tables[setting]
            return cli.BehaviorTable({**table.tables, setting: {c: cells[c] + by.get(c, 0.0) for c in cells}})

        def shift(times):
            # each engine side off by times its check's bound
            monkeypatch.setattr(cli, "grid_oracle", lambda *args: grid_oracle(*args) + times * 1e-5)

            def shifted(table, frequencies):
                r, by = analyze(table, frequencies), times * 1e-12
                return dataclasses.replace(r, ch=r.ch + by, identity_residual=r.identity_residual + by)

            def campaign(plan):
                # p(11|ab) sampled times 5 sigma from its arc measure, the
                # cell moved with its joint entry and p(00|ab) by the opposite
                report = run_campaign(plan)
                p = cli.conditional_table(plan.lines, plan.gamma).joint["ab"]
                cells = report.table.full_tables["ab"]
                up = p + times * 5.0 * math.sqrt(p * (1.0 - p) / plan.trials[0]) - cells["11"]
                ab = {**cells, "11": cells["11"] + up, "00": cells["00"] - up}
                table = dataclasses.replace(
                    report.table, joint={**report.table.joint, "ab": ab["11"]}, full_tables={**report.table.full_tables, "ab": ab}
                )
                return dataclasses.replace(report, table=table)

            def honest(config):
                # the CH value times FLAG_TOL above 0, through p(B), which CH' does not read
                s = crossing_probability_set(config)
                return dataclasses.replace(s, b=s.b + cli.ch_value(s) - times * 1e-9)

            by = times * 1e-9
            monkeypatch.setattr(cli, "analyze", shifted)
            monkeypatch.setattr(cli, "run_campaign", campaign)
            # 4 by moved from p(01|ab) to p(11|ab) parts the left marginals of
            # ab and ab' by 4 by; the nearest local table moves each of their
            # four cells by a quarter, so a mixture of all sixteen strategies
            # ends by off the local polytope
            monkeypatch.setattr(
                cli, "mixture_table", lambda w: moved(mixture_table(w), "ab", {"11": 4.0 * by, "01": -4.0 * by})
            )
            # the singlet's battery maximum, swapA:lower, rises with p(11|a'b')
            # at fixed one-side marginals
            monkeypatch.setattr(
                cli, "singlet_table", lambda: moved(singlet_table(), "a'b'", {"11": by, "00": by, "10": -by, "01": -by})
            )
            monkeypatch.setattr(cli, "crossing_probability_set", honest)

        def on_first_call(name, change):
            original, calls = getattr(cli, name), []

            def wrapped(*args):
                calls.append(None)
                result = original(*args)
                return change(result) if len(calls) == 1 else result

            monkeypatch.setattr(cli, name, wrapped)

        def first_of(array):
            return np.arange(array.size) == 0

        shift(2.0)
        on_first_call("ch_battery", lambda r: r._replace(passes=not r.passes))
        on_first_call("kinematic_counts", lambda counts: counts + first_of(counts))
        on_first_call("_fixed_lambda_checks", lambda checks: (checks[0] + first_of(checks[0]), checks[1]))
        on_first_call("render_report", lambda text: text + " ")
        results = {r.name: r for r in cli.run_checks()}
        failed = {name for name, r in results.items() if not r.passed}
        assert failed == {
            "exact-vs-grid-oracle", "exact-vs-monte-carlo", "reduced-identity-random", "naive-closed-values",
            "strategy-mixtures-feasible", "fine-equivalence", "infeasible-examples", "fixed-lambda-grid",
            "honest-ch-sweep", "mc-chunk-split", "report-determinism",
        }
        assert results["exact-vs-monte-carlo"].detail == "max deviation 10.00 sigma at n=1e5"
        assert results["strategy-mixtures-feasible"].detail == "max residual=2.000e-09"
        assert results["fine-equivalence"].detail == "1 disagreements in 1000 tables"
        assert results["fixed-lambda-grid"].detail == "max residual=1.0e+00, range [-1.0, 0.0]"
        assert results["mc-chunk-split"].detail.startswith("counts differ for setups ['ab'] on ")

        monkeypatch.undo()
        shift(0.5)
        results = cli.run_checks()
        assert len(results) == 13
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_sweep_into_a_closed_pipe_exits_0(self):
        # `ch-apparatus sweep --steps 200 | head -n 1`: the reader closes after
        # the header while megabytes of rows are still to come, which is no
        # error, so no exit 1 and no "error:" line
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # what the console script runs
        entry = "import sys; from ch_apparatus.cli import main; sys.exit(main())"
        proc = subprocess.Popen(
            [sys.executable, "-c", entry, "sweep", "--steps", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
        assert first.decode() == SWEEP_HEADER + "\n"

    def test_main_demo_writes_file(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["demo", "--trials", "3000", "--seed", "6", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["schema"] == SCHEMA

    def test_main_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["sweep", "--gamma-min", "0.5", "--gamma-max", "1.5", "--theta-min", "0.1",
             "--theta-max", "0.4", "--steps", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == SWEEP_HEADER

    def test_sweep_memory_does_not_grow_with_the_grid(self, tmp_path):
        # rows are written as they are made, so the peak of traced memory
        # stays put when the grid has 16 times the rows
        out = str(tmp_path / "scan.csv")
        assert main(["sweep", "--steps", "2", "--out", out]) == 0  # first-call caches, outside the measure
        peaks = []
        for steps in ("20", "80"):
            tracemalloc.start()
            try:
                assert main(["sweep", "--steps", steps, "--out", out]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_main_bad_parameters_exit_1(self, capsys):
        assert main(["exact", "--gamma", "2.0", "--theta", "3.0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["2", "0"])
    def test_main_demo_rejects_the_workers_flag_exit_1(self, workers, capsys):
        # a campaign runs on every usable CPU: the command line has no --workers
        assert main(["demo", "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: --workers {workers}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers", [1, 4])
    def test_main_simulate_rejects_campaign_workers_exit_1(self, workers, tmp_path, capsys):
        payload = {**README_CONFIG, "campaign": {**README_CONFIG["campaign"], "workers": workers}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: campaign: unknown keys ['workers'] (allowed: ['seed', 'trials'])\n"
        assert captured.out == ""

    def test_main_bad_flag_exit_1(self, capsys):
        assert main(["exact", "--bogus"]) == 1

    def test_main_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "ch-apparatus" in capsys.readouterr().out

    def test_main_simulate_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


BAD_SEEDS = ["-1", str(2**64), str(2**64 + 1)]


class TestInputValidation:
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_demo_rejects_out_of_range_seed_exit_1(self, seed, capsys):
        assert main(["demo", "--trials", "1000", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_simulate_rejects_out_of_range_seed_exit_1(self, seed, tmp_path, capsys):
        payload = {"apparatus": {"gamma": GAMMA, "theta": THETA}, "campaign": {"trials": 1000, "seed": int(seed)}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert "error: campaign.seed" in captured.err
        assert captured.out == ""

    def test_largest_seed_is_accepted(self, tmp_path):
        payload = {"apparatus": {"gamma": GAMMA, "theta": THETA}, "campaign": {"trials": 1000, "seed": 2**64 - 1}}
        assert parse_config(write_config(tmp_path, payload)).plan.master_seed == 2**64 - 1

    @pytest.mark.parametrize("flag", ["--gamma-min", "--gamma-max", "--theta-min", "--theta-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sweep_rejects_non_finite_bounds_exit_1(self, flag, value, capsys):
        assert main(["sweep", "--steps", "3", flag, value]) == 1
        captured = capsys.readouterr()
        assert "error: sweep bounds must be finite" in captured.err
        assert captured.out == ""


    def test_rejected_sweep_leaves_out_file_untouched(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        out.write_text("kept\n", encoding="utf-8")
        assert main(["sweep", "--gamma-min", "nan", "--out", str(out)]) == 1
        assert out.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize(
        "content",
        [b"[" * 200_000 + b"]" * 200_000, b"\xff\xfe{}"],
        ids=["deeply-nested-json", "not-utf-8"],
    )
    def test_unreadable_config_names_its_path_exit_1(self, content, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["simulate", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "lines, pair",
        [
            ({"A": 1.0, "A'": 1.0, "B": 0.5, "B'": 0.0}, "A and A'"),
            ({"A": 1.5, "A'": 1.0, "B": 0.5, "B'": 0.5}, "B and B'"),
        ],
    )
    def test_coinciding_lines_name_their_key_exit_1(self, lines, pair, tmp_path, capsys):
        payload = {"apparatus": {"gamma": 1.0, "lines": lines}, "campaign": {"trials": 10}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: apparatus.lines: lines {pair} must be distinct\n"
        assert captured.out == ""

    # standard engravings whose lines of one side lie within 2*EPS_ANGLE: the
    # exact engine disagreed with the closed form, and exact exited 2
    @pytest.mark.parametrize(
        "gamma, theta",
        [("1.0471975511965976", "1e-12"), ("0.072", "5e-13"), ("4.4111407968578975", "1.0002938623520508e-12")],
    )
    def test_theta_below_the_angular_resolution_exits_1(self, gamma, theta, tmp_path, capsys):
        for command in (["exact"], ["demo", "--trials", "1000"]):
            assert main([*command, "--gamma", gamma, "--theta", theta]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: theta={theta} is below the angular resolution")
            assert "Traceback" not in captured.err
            assert captured.out == ""
        payload = {"apparatus": {"gamma": float(gamma), "theta": float(theta)}, "campaign": {"trials": 10}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 1
        assert capsys.readouterr().err.startswith(f"error: apparatus.theta: theta={theta} is below")

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"apparatus": {"gamma": 1.0, "lines": {"A": 1.5, "A'": 1.0, "B'": 0.0}}},
                "apparatus.lines.B: required",
            ),
            (
                {"apparatus": {"gamma": GAMMA, "theta": THETA}, "frequencies": {"ab": 0.5, "ab'": 0.25, "a'b'": 0.25}},
                "frequencies.a'b: required",
            ),
            (
                {"apparatus": {"gamma": GAMMA, "theta": THETA}, "output": {"path": 5}},
                "output.path: expected a string, got 5",
            ),
        ],
        ids=["missing-line", "missing-frequency", "path-not-a-string"],
    )
    def test_missing_or_mistyped_keys_name_their_path_exit_1(self, payload, message, tmp_path, capsys):
        payload = {**payload, "campaign": {"trials": 10}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_output_path_gets_the_stdout_bytes(self, tmp_path, capsys):
        payload = {"apparatus": {"gamma": GAMMA, "theta": THETA}, "campaign": {"trials": 500, "seed": 3}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report.json"
        payload["output"] = {"path": str(out)}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")
        assert out.read_bytes() == printed.encode("utf-8")

    def test_demo_rejects_a_seed_that_is_no_integer_exit_1(self, capsys):
        assert main(["demo", "--trials", "1000", "--seed", "abc"]) == 1
        captured = capsys.readouterr()
        assert "argument --seed: invalid int value: 'abc'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_trials_without_two_stop_setups_name_their_key_exit_1(self, tmp_path, capsys):
        payload = {"apparatus": {"gamma": GAMMA, "theta": THETA}, "campaign": {"trials": {"a": 5, "ab": 0, "b'": 3}}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: campaign.trials: no two-stop trials: ")
        assert captured.out == ""


# Valid configs that run in a few milliseconds: at most 64 trials per setup.
VALID_APPARATUS = st.one_of(
    st.builds(lambda g, r: {"gamma": g, "theta": r * g}, st.floats(0.05, 3.1), st.floats(0.01, 0.99)),
    st.builds(
        lambda g, angles: {"gamma": g, "lines": dict(zip(LINE_NAMES, angles))},
        st.floats(0.01, 6.27),
        st.tuples(*[st.floats(-10.0, 10.0)] * 4),
    ),
)
VALID_CAMPAIGN = st.fixed_dictionaries(
    {"trials": st.one_of(st.integers(1, 64), st.dictionaries(st.sampled_from(ALL_SETUPS), st.integers(0, 64)))},
    optional={"seed": st.integers(0, 2**64 - 1)},
)
VALID_CONFIGS = st.fixed_dictionaries(
    {"apparatus": VALID_APPARATUS, "campaign": VALID_CAMPAIGN},
    optional={
        "frequencies": st.one_of(st.just("empirical"), st.fixed_dictionaries(dict.fromkeys(TWO_STOP_SETUPS, st.just(0.25)))),
        "output": st.fixed_dictionaries({}, optional={"format": st.sampled_from(["json", "csv"]), "path": st.none()}),
    },
)

# Values of every JSON type, NaN, infinities and ints beyond the float range.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
BAD = st.one_of(
    JUNK,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400), 2**64]),
)
# no large trial counts, which would run for long
BAD_TRIALS = st.one_of(JUNK, st.floats(allow_nan=True, allow_infinity=True), st.integers(-(2**70), 64))
# no strings, which would write a file wherever the test runs
BAD_PATH = st.one_of(st.booleans(), st.integers(), st.lists(st.integers(), max_size=2))
FAULT_PATHS = [
    (),
    ("apparatus",),
    ("apparatus", "gamma"),
    ("apparatus", "theta"),
    ("apparatus", "lines"),
    *[("apparatus", "lines", name) for name in LINE_NAMES],
    ("campaign", "trials"),
    ("campaign", "trials", "ab"),
    ("campaign", "seed"),
    ("campaign", "workers"),
    ("frequencies",),
    *[("frequencies", s) for s in TWO_STOP_SETUPS],
    ("output",),
    ("output", "format"),
    ("output", "path"),
]


@st.composite
def config_files(draw):
    """A valid config with up to three faults: a key removed, a key added, or
    a value replaced by one of the wrong type or range."""
    config = draw(VALID_CONFIGS)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(FAULT_PATHS))
        action = draw(st.sampled_from(["remove", "add", "replace"]))
        if not path:
            if action == "replace":
                config = draw(JUNK)
            elif isinstance(config, dict):
                config["bogus"] = draw(JUNK)
            continue
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        key = path[-1]
        # removing campaign.trials would run the default 10**6 trials per setup
        if action == "remove" and path != ("campaign", "trials"):
            parent.pop(key, None)
        elif action == "add" and isinstance(parent.get(key), dict):
            parent[key]["bogus"] = draw(JUNK)
        else:
            parent[key] = draw(BAD_TRIALS if "trials" in path else BAD_PATH if key == "path" else BAD)
    return json.dumps(config).encode("utf-8")


class TestConfigFuzz:
    @settings(max_examples=100, deadline=None)
    @given(config_files())
    @example(b"[" * 200_000 + b"]" * 200_000)
    @example(b"\xff\xfe{}")
    @example(json.dumps({"apparatus": {"gamma": 10**400, "theta": 0.5}, "campaign": {"trials": 8}}).encode())
    def test_simulate_exits_cleanly_on_any_config(self, content):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_bytes(content)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["simulate", "--config", str(path)])
        if code == 0:
            assert err.getvalue() == ""
            assert out.getvalue()
        else:
            assert code == 1, err.getvalue()
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
            assert "Traceback" not in err.getvalue()
            assert out.getvalue() == ""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


README_CONFIG = {
    "apparatus": {"gamma": 1.047, "theta": 0.524},
    "campaign": {
        "trials": {"ab": 200000, "ab'": 100000, "a'b": 100000, "a'b'": 0},
        "seed": 42,
    },
    "frequencies": "empirical",
    "output": {"format": "json"},
}
LINES_CONFIG = {
    "apparatus": {"gamma": 1.0, "lines": {"A": 1.5, "A'": 1.0, "B": 0.5, "B'": 0.0}},
    "campaign": {"trials": 100000, "seed": 3},
}
README_DIGEST = "49fbc79b30838049f640bd45dc04d158b8fa201665b95dfc05c59f443c4a046a"
# only two-stop trials, so the Monte Carlo table marks every single-stop
# entry exact_only
TWO_STOP_CONFIG = {
    "apparatus": {"gamma": 2.0, "lines": {"A": 1.0, "A'": 2.5, "B": 0.3, "B'": 4.0}},
    "campaign": {"trials": {"ab": 30000, "ab'": 30000, "a'b": 30000, "a'b'": 30000}, "seed": 11},
    "frequencies": {"ab": 0.1, "ab'": 0.2, "a'b": 0.3, "a'b'": 0.4},
}


# one long sequence and three short ones, and no single-stop trials: the
# thread that takes ab finishes after the others have run the rest
UNEQUAL_CONFIG = {
    "apparatus": {"gamma": 1.047, "theta": 0.524},
    "campaign": {"trials": {"ab": 20 * _CHUNK, "ab'": 3, "a'b": 2, "a'b'": 1}, "seed": 5},
    "frequencies": "empirical",
}


class TestFrozenReports:
    """Digests of what the commands print, pinned so that refactors of the
    demo, simulate, sweep and exact pipelines keep every byte."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["sweep"], "c78e68cc0dc2e8ff86303a0b3f1dccf3556e0760cf345a0d280d8bdc2d5b3a35"),
            (
                ["sweep", "--steps", "9", "--gamma-min", "0.1", "--gamma-max", "6.2",
                 "--theta-min", "0.01", "--theta-max", "3.1"],
                "8faad2114d0e5fd2e766af4b8287670b69b2e3f0eea66a38136aef8b206f21f8",
            ),
            # the sweep that a reader closing early cuts short
            (["sweep", "--steps", "200"], "36d2c53dbc91fd646ab164067956e7807226b65c9f0465dd9a1f6e01999bed05"),
            (["exact"], "9f7b90d12ef2ef8ec87de01fbee0f51fb96c25363284f260e8341d50b3105573"),
            (["exact", "--format", "csv"], "3401eeba92f56daebd01529a49b6eadf5c18dce4bb4e40997370081a5236b723"),
        ],
        ids=["sweep-default", "sweep-wide", "sweep-200", "exact-json", "exact-csv"],
    )
    def test_stdout(self, argv, digest, capsys):
        assert main(argv) == 0
        assert sha256(capsys.readouterr().out) == digest

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "b294366d11788c205bca729dcd6fe3befb5577786cd5fa9a749d362589a06d42"),
            (7, "235f54ebe2b95ac37d62c128d58f7b342d560045d70c4246fc24e9ff34a5ddca"),
            (123, "df1cab1b2e5c5df5733eb478c6fc8f697fb4106316355b5c47f02a419064814b"),
        ],
        ids=["seed0", "seed7", "seed123"],
    )
    def test_demo_json(self, seed, digest, workers):
        assert sha256(render_report(cmd_demo(GAMMA, THETA, seed=seed, trials=10**6, workers=workers))) == digest

    def test_demo_csv(self):
        text = render_report(cmd_demo(GAMMA, THETA, seed=7, trials=10**6, workers=2), "csv")
        assert sha256(text) == "db17fd4c56bfdce7ea98b7575862f308c03aa62437ffd4a4bbc4cf01dd96ea56"

    @pytest.mark.parametrize(
        "payload, out_format, digest",
        [
            (README_CONFIG, "json", README_DIGEST),
            (LINES_CONFIG, "json", "1f8a5b0aa65473f7a5a8440afaad5836e29eb1dca7cad7822aafd5ccb2a03db9"),
            (TWO_STOP_CONFIG, "json", "a38ef659bd232e27bd16a61d95723cc5474d89001bd41a5b3f66898cf4454602"),
            (TWO_STOP_CONFIG, "csv", "1b55e3b345a1be431b958d514743238682b048a3fd63cab64e6f2504ee9f28cf"),
        ],
        ids=["readme", "explicit-lines", "two-stop-json", "two-stop-csv"],
    )
    def test_simulate(self, payload, out_format, digest, tmp_path):
        report = cmd_simulate(parse_config(write_config(tmp_path, payload)))
        assert sha256(render_report(report, out_format)) == digest


class TestThreadCount:
    """run_campaign runs its sequences on one thread per usable CPU; the
    counts and the printed bytes do not depend on how many there are."""

    @pytest.mark.parametrize("plan_name", ["demo", "unequal"])
    def test_counts_and_bytes_equal_on_one_two_and_three_cpus(self, plan_name, monkeypatch, tmp_path):
        if plan_name == "demo":
            plan = CampaignPlan.from_params(GAMMA, fig2_lines(GAMMA, THETA), n_trials=10**6, master_seed=7)
            printed = lambda: render_report(cmd_demo(GAMMA, THETA, seed=7, trials=10**6))  # noqa: E731
        else:
            config = parse_config(write_config(tmp_path, UNEQUAL_CONFIG))
            plan = config.plan
            printed = lambda: render_report(cmd_simulate(config))  # noqa: E731
        seen = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda n=cpus: n)
            report = run_campaign(plan)
            # results in ALL_SETUPS order, not in the order they finished
            assert list(report.results) == list(ALL_SETUPS)
            seen[cpus] = (report.results, printed())
        assert seen[1] == seen[2] == seen[3]
        if plan_name == "demo":
            assert sha256(seen[1][1]) == "235f54ebe2b95ac37d62c128d58f7b342d560045d70c4246fc24e9ff34a5ddca"
