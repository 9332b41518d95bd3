"""The benchmark's workloads: seeded inputs, the timed program call, and the
correctness gate of each.

A workload is driven by one client in a closed loop (``run.py``): it makes a
fixed set of ``n_inputs`` inputs from the seed, then calls the program on them
in order, pass after pass, timing and checking every call.  Program functions
are looked up as module attributes at call time, so the tracer's wrappers are
the ones called in a traced run.
See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from typing import Any, NamedTuple

import numpy as np

import ch_apparatus.apparatus as apparatus
import ch_apparatus.cli as cli
import ch_apparatus.exact_engine as exact_engine
import ch_apparatus.inequality_analysis as inequality_analysis
import ch_apparatus.lhv_feasibility as lhv_feasibility
from ch_apparatus.circle_geometry import TWO_PI

DEMO_GAMMA = math.pi / 3.0
DEMO_THETA = math.pi / 6.0

# Gate tolerances, taken from the statements they check.
CLOSED_FORM_TOL = 1e-12  # closed forms against the arc engine (cmd_exact, check)
IDENTITY_TOL = 1e-12  # reduced-form identity residual (reduced-identity-random)
CH_BAND_TOL = 1e-9  # honest CH values in [-1, 0] (honest-ch-sweep)
LHV_TOL = 1e-9  # LP witness residual and certified battery maxima (NORM_TOL)
MC_SIGMAS = 5.0  # Monte Carlo against exact (exact-vs-monte-carlo)
SELFCHECK_COUNT = 13


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_difference(left: exact_engine.ConditionalTable, right: exact_engine.ConditionalTable) -> float:
    """Largest absolute difference over joints, singles and full 2x2 tables."""
    diffs = [abs(left.joint[s] - right.joint[s]) for s in left.joint]
    for s, lv in left.singles.items():
        rv = right.singles[s]
        if lv is not None and rv is not None:
            diffs.append(abs(lv - rv))
    for s, cells in left.full_tables.items():
        diffs.extend(abs(v - right.full_tables[s][c]) for c, v in cells.items())
    return max(diffs)


class Workload:
    """One closed-loop workload; subclasses fill in the program call and gate."""

    #: what one unit of ``items`` is, for the throughput line
    item = "operation"
    #: size of the input set that every pass of a run goes through
    n_inputs = 1
    #: traced runs alternate blocks of this many untraced and traced calls,
    #: so that both halves see the same mix of inputs
    trace_block = 1
    #: the input set, made by ``prepare``
    inputs: list

    def first_call(self) -> None:
        """Cheapest call that warms the program's lazy state (set-up time)."""

    def prepare(self) -> None:
        """Untimed work before the loop: the input set and warm-up."""
        self.inputs = [self.make_input(k) for k in range(self.n_inputs)]
        self.first_call()

    def make_input(self, k: int) -> Any:
        """Input ``k`` of the set; called in order k = 0, 1, ..."""
        raise NotImplementedError

    def call(self, inp: Any) -> Any:
        raise NotImplementedError

    def items(self, inp: Any) -> int:
        return 1

    def timed_s(self, out: Any, call_s: float) -> float:
        """Seconds of one call that the end-to-end metrics count."""
        return call_s

    def report(self, out: Any) -> str:
        """Canonical text of one output; its sha256 is the recorded digest."""
        raise NotImplementedError

    def parts(self, out: Any) -> dict[str, tuple[int, float]]:
        """Items and seconds of the named parts of one call, if it has parts."""
        return {}

    def check(self, inp: Any, out: Any, digest: str) -> list[str]:
        """Problems with one output; empty when it is correct."""
        raise NotImplementedError


class Campaign(Workload):
    """The ``demo`` pipeline (cmd_demo + render_report) at gamma=pi/3,
    theta=pi/6 with ``trials`` trials per sequence, run with workers=1 and
    then with workers=2 on the same seed; one call is that pair.  The
    end-to-end metrics count the workers=1 half: the workers=2 half uses both
    cores of a 2-core host, so its time follows other load on the host."""

    item = "trial"
    n_inputs = 2
    trace_block = 2
    workers = (1, 2)
    timed_workers = 1

    def __init__(self, seed: int, trials: int = 10**6):
        rng = np.random.default_rng([seed, 1])
        self.mc_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.n_inputs)]
        self.trials = trials
        self.reference: dict[int, str] = {}

    def _demo(self, mc_seed: int, workers: int, trials: int) -> str:
        report = cli.cmd_demo(DEMO_GAMMA, DEMO_THETA, seed=mc_seed, trials=trials, workers=workers)
        return cli.render_report(report)

    def first_call(self) -> None:
        for workers in self.workers:
            self._demo(0, workers, 1 << 16)

    def make_input(self, k: int) -> int:
        return self.mc_seeds[k]

    def call(self, mc_seed: int) -> tuple[tuple[int, float, str], ...]:
        """(workers, seconds, report) for each worker count."""
        out = []
        for workers in self.workers:
            t0 = time.perf_counter()
            text = self._demo(mc_seed, workers, self.trials)
            out.append((workers, time.perf_counter() - t0, text))
        return tuple(out)

    def items(self, mc_seed: int) -> int:
        return len(apparatus.ALL_SETUPS) * self.trials

    def timed_s(self, out, call_s: float) -> float:
        return next(seconds for workers, seconds, _text in out if workers == self.timed_workers)

    def report(self, out) -> str:
        return out[0][2]

    def parts(self, out) -> dict[str, tuple[int, float]]:
        trials = len(apparatus.ALL_SETUPS) * self.trials
        return {f"workers={workers}": (trials, seconds) for workers, seconds, _text in out}

    def check(self, mc_seed: int, out, digest: str) -> list[str]:
        # the first report of a seed is the reference for every later one
        reference = self.reference.setdefault(mc_seed, digest)
        problems = self._mc_vs_exact(out[0][2])
        for workers, _seconds, text in out:
            if sha256_hex(text) != reference:
                problems.append(
                    f"report bytes for seed {mc_seed} with workers={workers} differ from the "
                    "first report of that seed"
                )
        return problems

    def _mc_vs_exact(self, text: str) -> list[str]:
        tables = json.loads(text)["tables"]
        exact, mc = tables["exact"], tables["monte_carlo"]
        pairs = [(f"joint[{s}]", exact["joint"][s], mc["joint"][s]) for s in exact["joint"]]
        pairs += [(f"singles[{s}]", exact["singles"][s], mc["singles"][s]) for s in exact["singles"]]
        for s, cells in exact["full_tables"].items():
            pairs += [(f"full[{s}][{c}]", p, mc["full_tables"][s][c]) for c, p in cells.items()]
        problems = []
        for label, p, q in pairs:
            sigma = math.sqrt(p * (1.0 - p) / self.trials)
            if abs(q - p) > MC_SIGMAS * sigma:
                problems.append(f"{label}: Monte Carlo {q!r} is more than 5 sigma from exact {p!r}")
        return problems


class ExactInput(NamedTuple):
    gamma: float
    theta: float | None  # None for an arbitrary engraving
    lines: apparatus.EngravedLines
    freqs: inequality_analysis.SettingFrequencies
    gamma1: float


class ExactScan(Workload):
    """Exact route with no LP, one configuration per call: conditional_table
    (modified device) + analyze + crossing_probability_set (unmodified
    device).  Even inputs use the standard engraving, odd ones arbitrary
    lines."""

    item = "config"
    n_inputs = 512
    trace_block = 2

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])

    def first_call(self) -> None:
        self.call(
            ExactInput(
                DEMO_GAMMA,
                DEMO_THETA,
                apparatus.fig2_lines(DEMO_GAMMA, DEMO_THETA),
                inequality_analysis.SettingFrequencies.uniform(),
                1.0,
            )
        )

    def make_input(self, k: int) -> ExactInput:
        rng = self.rng
        gamma = float(rng.uniform(0.2, TWO_PI - 0.2))
        if k % 2 == 0:
            theta = min(gamma, TWO_PI - gamma) * float(rng.uniform(0.05, 0.95))
            lines = apparatus.fig2_lines(gamma, theta)
        else:
            theta = None
            lines = apparatus.EngravedLines(*(float(x) for x in rng.uniform(0.0, TWO_PI, 4)))
        freqs = inequality_analysis.SettingFrequencies(*(float(f) for f in rng.dirichlet(np.ones(4))))
        return ExactInput(gamma, theta, lines, freqs, float(rng.uniform(0.05, TWO_PI)))

    def call(self, inp: ExactInput):
        table = exact_engine.conditional_table(inp.lines, inp.gamma)
        analysis = inequality_analysis.analyze(table, inp.freqs)
        honest = inequality_analysis.crossing_probability_set(
            apparatus.unmodified_config(inp.lines, inp.gamma1)
        )
        return table, analysis, honest

    def report(self, out) -> str:
        table, analysis, honest = out
        body = {
            "table": dataclasses.asdict(table),
            "analysis": dataclasses.asdict(analysis),
            "honest": honest.as_dict(),
        }
        return json.dumps(body, sort_keys=True)

    def check(self, inp: ExactInput, out, digest: str) -> list[str]:
        table, analysis, honest = out
        problems = []
        if inp.theta is not None:
            diff = table_difference(exact_engine.closed_form_fig2(inp.gamma, inp.theta), table)
            if diff > CLOSED_FORM_TOL:
                problems.append(f"closed form and arc measures differ by {diff!r} at {inp!r}")
        if analysis.identity_residual > IDENTITY_TOL:
            problems.append(f"identity residual {analysis.identity_residual!r} at {inp!r}")
        if analysis.reduced_ch > 0.0:
            problems.append(f"reduced CH {analysis.reduced_ch!r} > 0 at {inp!r}")
        for label, value in (
            ("CH", inequality_analysis.ch_value(honest)),
            ("CH'", inequality_analysis.ch_primed_value(honest)),
        ):
            if not -1.0 - CH_BAND_TOL <= value <= CH_BAND_TOL:
                problems.append(f"honest {label} {value!r} outside [-1, 0] at {inp!r}")
        return problems


class LhvInput(NamedTuple):
    kind: str  # "random", "pr", "singlet" or "demo"
    table: lhv_feasibility.BehaviorTable


def perturb_table(table: lhv_feasibility.BehaviorTable, eps: float) -> lhv_feasibility.BehaviorTable:
    """Move ``eps`` of weight from the largest to the smallest cell of setting ab."""
    tables = {s: dict(cells) for s, cells in table.tables.items()}
    ab = tables["ab"]
    hi = max(ab, key=ab.get)
    lo = min(ab, key=ab.get)
    ab[hi] -= eps
    ab[lo] += eps
    return lhv_feasibility.BehaviorTable(tables=tables)


class LhvTables(Workload):
    """feasible_joint + ch_battery on one behavior table per call.  Of every
    16 inputs, 13 are seeded random no-signaling tables (feasible and
    infeasible mixed), one is a PR box, one the singlet table and one the
    demo behavior table.  ``perturb`` injects a fault into every input."""

    item = "table"
    n_inputs = 256
    trace_block = 16

    def __init__(self, seed: int, perturb: float = 0.0):
        self.rng = np.random.default_rng([seed, 3])
        self.perturb = perturb
        self.demo_table: lhv_feasibility.BehaviorTable | None = None
        strategies = lhv_feasibility.enumerate_strategies()
        self.strategy_matrix = np.column_stack(
            [lhv_feasibility.strategy_table(s).vector() for s in strategies]
        )

    def first_call(self) -> None:
        self.call(LhvInput("pr", lhv_feasibility.pr_box_table()))

    def prepare(self) -> None:
        exact = exact_engine.conditional_table_exact(DEMO_GAMMA, DEMO_THETA)
        self.demo_table = lhv_feasibility.BehaviorTable.from_full_tables(exact.full_tables)
        super().prepare()

    def make_input(self, k: int) -> LhvInput:
        slot = k % 16
        if slot == 0:
            inp = LhvInput("pr", lhv_feasibility.pr_box_table((k // 16) % 8))
        elif slot == 5:
            inp = LhvInput("singlet", lhv_feasibility.singlet_table())
        elif slot == 10:
            inp = LhvInput("demo", self.demo_table)
        else:
            inp = LhvInput("random", lhv_feasibility.random_no_signaling_table(self.rng))
        if self.perturb:
            inp = LhvInput(inp.kind, perturb_table(inp.table, self.perturb))
        return inp

    def call(self, inp: LhvInput):
        return lhv_feasibility.feasible_joint(inp.table), lhv_feasibility.ch_battery(inp.table)

    def report(self, out) -> str:
        lp, battery = out
        body = {
            "feasible": lp.feasible,
            "max_residual": lp.max_residual,
            "weights": lp.weights,
            "battery": battery.values,
            "passes": battery.passes,
        }
        return json.dumps(body, sort_keys=True)

    def check(self, inp: LhvInput, out, digest: str) -> list[str]:
        lp, battery = out
        kind, table = inp
        problems = []
        deviation = lhv_feasibility.no_signaling_deviation(table)
        if kind == "demo":
            if deviation < 1.0 / 12.0 - LHV_TOL:
                problems.append(f"demo table deviation {deviation!r} below 1/12")
        elif deviation > LHV_TOL:
            problems.append(f"{kind} table signals (deviation {deviation!r})")
        elif lp.feasible != battery.passes:
            problems.append(
                f"{kind} table: LP says feasible={lp.feasible}, battery max {battery.max_value!r}"
            )
        if lp.feasible:
            w = np.asarray(lp.weights)
            residual = float(np.abs(self.strategy_matrix @ w - table.vector()).max())
            if residual > LHV_TOL or w.min() < -LHV_TOL or abs(w.sum() - 1.0) > LHV_TOL:
                problems.append(f"{kind} table: witness residual {residual!r}, weights {lp.weights!r}")
        expected_max = {"pr": 0.5, "singlet": (math.sqrt(2.0) - 1.0) / 2.0}.get(kind)
        if expected_max is not None and abs(battery.max_value - expected_max) > LHV_TOL:
            problems.append(f"{kind} battery max {battery.max_value!r}, expected {expected_max!r}")
        if kind != "random" and lp.feasible:
            problems.append(f"{kind} table reported feasible")
        return problems


class SelfCheck(Workload):
    """cli.run_checks(), the ``check`` command.  Its seeds are internal to the
    program, so the workload seed does not change its inputs."""

    item = "suite"

    def __init__(self, seed: int, perturb_closed_form: float = 0.0):
        self.perturb_closed_form = perturb_closed_form

    def first_call(self) -> None:
        cli.render_report(cli.cmd_exact(DEMO_GAMMA, DEMO_THETA))

    def make_input(self, k: int) -> float:
        return self.perturb_closed_form

    def call(self, perturb_closed_form: float):
        return cli.run_checks(perturb_closed_form=perturb_closed_form)

    def report(self, results) -> str:
        return "".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in results)

    def check(self, inp: float, results, digest: str) -> list[str]:
        problems = [f"check {r.name} failed: {r.detail}" for r in results if not r.passed]
        if len(results) != SELFCHECK_COUNT:
            problems.append(f"{len(results)} checks ran, expected {SELFCHECK_COUNT}")
        return problems


WORKLOADS = {
    "campaign": Campaign,
    "exact_scan": ExactScan,
    "lhv_tables": LhvTables,
    "selfcheck": SelfCheck,
}
