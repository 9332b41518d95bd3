"""Acceptance suite: one test per numbered criterion, one line of output each.

Every test prints ``criterion NN PASS/FAIL: ...`` with the measured numbers
and the tolerance it was held to (visible with ``pytest -s``), then asserts.
Runtime budgets are enforced where stated.  Tolerances are pinned here and
must not be loosened to make a failing criterion pass.
"""

import io
import math
import time

import numpy as np

from ch_apparatus import monte_carlo
from ch_apparatus.apparatus import (
    EngravedLines,
    fig2_config,
    fig2_lines,
    unmodified_config,
)
from ch_apparatus.circle_geometry import TWO_PI
from ch_apparatus.cli import cmd_check, cmd_demo, render_report
from ch_apparatus.exact_engine import (
    ConditionalTable,
    conditional_table_exact,
    grid_oracle,
    stop_cell,
)
from ch_apparatus.inequality_analysis import (
    SettingFrequencies,
    _fixed_lambda_checks,
    analyze,
    bayes_conditionals,
    ch_primed_value,
    ch_sum_value,
    ch_value,
    ch_violated,
    crossing_probability_set,
    fixed_lambda_check,
    naive_plug,
    reduced_ch_value,
)
from ch_apparatus.lhv_feasibility import (
    BehaviorTable,
    ch_battery,
    feasible_joint,
    mixture_table,
    no_signaling_deviation,
    pr_box_table,
    random_no_signaling_table,
    singlet_table,
)
from ch_apparatus.exact_engine import closed_form_fig2

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0
SEED = 20260816


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _random_pairs(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    pairs = []
    while len(pairs) < count:
        gamma = float(rng.uniform(0.01, TWO_PI - 0.02))
        theta = float(rng.uniform(0.0, gamma))
        if theta > 1e-4 and gamma - theta > 1e-4 and gamma + theta < TWO_PI - 1e-4:
            pairs.append((gamma, theta))
    return pairs


def test_criterion_01_demo_joint_conditionals():
    # p(A,B|a,b) = p(A',B'|a',b') = 1/6, p(A,B'|a,b') = 0, p(A',B|a'b) = 1/12,
    # each within 1e-12 exactly and 1e-5 against a 1e6-point grid; < 1 s
    started = time.perf_counter()
    table = conditional_table_exact(GAMMA, THETA)
    expected = {"ab": 1 / 6, "ab'": 0.0, "a'b": 1 / 12, "a'b'": 1 / 6}
    exact_err = max(abs(table.joint[s] - v) for s, v in expected.items())
    grid_err = 0.0
    for setup, value in expected.items():
        config = fig2_config(GAMMA, THETA, setup)
        grid_err = max(grid_err, abs(grid_oracle(config, stop_cell(True, True), 10**6) - value))
    elapsed = time.perf_counter() - started
    ok = exact_err <= 1e-12 and grid_err <= 1e-5 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"two-stop joints at demo point: exact err {exact_err:.2e} (tol 1e-12), "
        f"grid err {grid_err:.2e} (tol 1e-5), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_02_demo_single_stop_conditionals():
    # all four singles gamma/4pi = 1/12 within 1e-12 exactly and within
    # 5 sigma by Monte Carlo at n = 1e6 per sequence; < 10 s
    from ch_apparatus.monte_carlo import SequenceSpec, run_sequence, sequence_seed

    started = time.perf_counter()
    table = conditional_table_exact(GAMMA, THETA)
    exact_err = max(abs(table.singles[s] - 1 / 12) for s in ("a", "a'", "b", "b'"))
    n = 10**6
    sigma = math.sqrt((1 / 12) * (11 / 12) / n)
    worst_pull = 0.0
    for setup in ("a", "a'", "b", "b'"):
        spec = SequenceSpec(setup=setup, n_trials=n, seed=sequence_seed(SEED, setup))
        result = run_sequence(fig2_lines(GAMMA, THETA), GAMMA, spec)
        key = "left_stop" if setup.startswith("a") else "right_stop"
        worst_pull = max(worst_pull, abs(result.counts[key] / n - 1 / 12) / sigma)
    elapsed = time.perf_counter() - started
    ok = exact_err <= 1e-12 and worst_pull <= 5.0 and elapsed < 10.0
    _verdict(
        2,
        ok,
        f"single-stop conditionals 1/12: exact err {exact_err:.2e} (tol 1e-12), "
        f"worst MC pull {worst_pull:.2f} sigma (tol 5), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_03_naive_ch_value():
    # naive plug-in CH value equals (2*gamma - theta)/2pi and is flagged;
    # demo value 0.25; 1e3 random shapes at 1e-12
    rng = np.random.default_rng(SEED)
    worst = 0.0
    all_flagged = True
    for gamma, theta in [(GAMMA, THETA)] + _random_pairs(rng, 1000):
        naive = naive_plug(closed_form_fig2(gamma, theta))
        value = ch_value(naive)
        worst = max(worst, abs(value - (2 * gamma - theta) / TWO_PI))
        all_flagged = all_flagged and ch_violated(value)
    demo = ch_value(naive_plug(conditional_table_exact(GAMMA, THETA)))
    worst = max(worst, abs(demo - 0.25))
    ok = worst <= 1e-12 and all_flagged
    _verdict(
        3,
        ok,
        f"naive CH = (2g-t)/2pi over 1000 random shapes + demo 0.25: "
        f"max err {worst:.2e} (tol 1e-12), all flagged: {all_flagged}",
    )


def test_criterion_04_primed_and_sum_values():
    # primed combination theta/2pi and the sum gamma/pi, both positive and
    # flagged, same sweep and tolerance as criterion 3
    rng = np.random.default_rng(SEED)
    worst = 0.0
    all_flagged = True
    for gamma, theta in [(GAMMA, THETA)] + _random_pairs(rng, 1000):
        naive = naive_plug(closed_form_fig2(gamma, theta))
        primed = ch_primed_value(naive)
        total = ch_sum_value(naive)
        worst = max(worst, abs(primed - theta / TWO_PI), abs(total - gamma / math.pi))
        all_flagged = all_flagged and ch_violated(primed) and total > 1e-9
    ok = worst <= 1e-12 and all_flagged
    _verdict(
        4,
        ok,
        f"primed = t/2pi and sum = g/pi over the same sweep: "
        f"max err {worst:.2e} (tol 1e-12), all positive and flagged: {all_flagged}",
    )


def test_criterion_05_bayes_conditionals_equal_two():
    # all four naive Bayes conditionals equal 2 within 1e-12 and are flagged
    rng = np.random.default_rng(SEED)
    worst = 0.0
    all_flagged = True
    for gamma, theta in [(GAMMA, THETA)] + _random_pairs(rng, 1000):
        bayes = bayes_conditionals(naive_plug(closed_form_fig2(gamma, theta)))
        for key in ("B|A", "A|B", "B'|A'", "A'|B'"):
            worst = max(worst, abs(bayes[key].value - 2.0))
            all_flagged = all_flagged and bayes[key].exceeds_one
    ok = worst <= 1e-12 and all_flagged
    _verdict(
        5,
        ok,
        f"naive conditionals equal 2.0: max err {worst:.2e} (tol 1e-12), "
        f"all flagged above 1: {all_flagged}",
    )


def test_criterion_06_corrected_reduction():
    # uniform frequencies: reduced CH = -(gamma - theta)/8pi (demo -1/48)
    # within 1e-12; identity residual < 1e-12 over 1e3 random tables and
    # frequencies; value always in [-1, 0]
    uniform = SettingFrequencies.uniform()
    demo = reduced_ch_value(closed_form_fig2(GAMMA, THETA), uniform)
    demo_err = max(abs(demo + 1 / 48), abs(demo + (GAMMA - THETA) / (8 * math.pi)))

    rng = np.random.default_rng(SEED + 1)
    setups = ("ab", "ab'", "a'b", "a'b'")
    worst_residual = 0.0
    in_band = True
    for _ in range(1000):
        joints = rng.uniform(0.0, 1.0, 4)
        table = ConditionalTable(
            joint=dict(zip(setups, joints)),
            singles={"a": 0.5, "a'": 0.5, "b": 0.5, "b'": 0.5},
            full_tables={
                s: {"11": j, "10": 0.0, "01": 0.0, "00": 1.0 - j} for s, j in zip(setups, joints)
            },
        )
        freqs = SettingFrequencies(*rng.dirichlet(np.ones(4)))
        worst_residual = max(worst_residual, analyze(table, freqs).identity_residual)
        value = reduced_ch_value(table, freqs)
        in_band = in_band and -1.0 <= value <= 0.0
    ok = demo_err <= 1e-12 and worst_residual < 1e-12 and in_band
    _verdict(
        6,
        ok,
        f"reduced CH: demo err {demo_err:.2e} (tol 1e-12), identity residual "
        f"{worst_residual:.2e} over 1000 random tables (tol 1e-12), in [-1,0]: {in_band}",
    )


def test_criterion_07_honest_apparatus():
    # 1e4 random unmodified configurations satisfy the inequality exactly,
    # and single-trial factorisability holds on a 1e5-point grid; < 60 s
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    lo = hi = None
    violations = 0
    for _ in range(10_000):
        a, ap, b, bp = rng.uniform(0.0, TWO_PI, 4)
        if a == ap or b == bp:
            continue
        config = unmodified_config(EngravedLines(a, ap, b, bp), float(rng.uniform(1e-3, TWO_PI)))
        s = crossing_probability_set(config)
        for value in (ch_value(s), ch_primed_value(s)):
            lo = value if lo is None else min(lo, value)
            hi = value if hi is None else max(hi, value)
            if not -1.0 - 1e-12 <= value <= 1e-12:
                violations += 1

    grid_config = unmodified_config(
        EngravedLines(A=math.pi / 4, A_prime=3 * math.pi / 4, B=7 * math.pi / 4, B_prime=5 * math.pi / 4),
        1.9,
    )
    # the 1e5 angles in one batch; the one-angle API reads the same rows
    phis = TWO_PI * (np.arange(100_000) + 0.5) / 100_000
    residual, value = _fixed_lambda_checks(grid_config, phis)
    for k in (0, 1, 31_416, 99_999):
        assert fixed_lambda_check(grid_config, TWO_PI * (k + 0.5) / 100_000) == (residual[k], value[k])
    max_residual = float(residual.max())
    kernel_ok = bool(((-1 <= value) & (value <= 0)).all())
    elapsed = time.perf_counter() - started
    ok = violations == 0 and max_residual == 0.0 and kernel_ok and elapsed < 60.0
    _verdict(
        7,
        ok,
        f"honest device: CH range [{lo:.4f}, {hi:.4f}] over 1e4 configs "
        f"({violations} violations), factorisability residual {max_residual} on 1e5 grid, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_08_worker_reproducibility(monkeypatch):
    # identical bytes from a campaign on 1, 4 and 8 threads at a fixed master
    # seed: the pool has one thread per usable CPU, up to the eight sequences
    reports = {}
    for threads in (1, 4, 8):
        monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda n=threads: n)
        reports[threads] = render_report(cmd_demo(GAMMA, THETA, seed=SEED, trials=100_000), "json")
    ok = reports[1] == reports[4] == reports[8]
    _verdict(
        8,
        ok,
        f"campaign at seed {SEED}, n=1e5 per setup: bytes equal on 1/4/8 threads: {ok}",
    )


def test_criterion_09_feasibility_module():
    rng = np.random.default_rng(SEED + 3)

    # (a) strategy mixtures are feasible with a working witness
    witness_err = 0.0
    mixtures_ok = True
    for _ in range(100):
        table = mixture_table(rng.dirichlet(np.ones(16)))
        result = feasible_joint(table)
        mixtures_ok = mixtures_ok and result.feasible
        if result.weights is not None:
            rebuilt = mixture_table(result.weights)
            witness_err = max(witness_err, float(np.abs(rebuilt.vector() - table.vector()).max()))

    # (b) the demo behavior is infeasible and signals by at least 1/12
    demo = BehaviorTable.from_full_tables(closed_form_fig2(GAMMA, THETA).full_tables)
    demo_result = feasible_joint(demo)
    deviation = no_signaling_deviation(demo)

    # (c) PR box and singlet battery maxima
    pr_max = ch_battery(pr_box_table()).max_value
    singlet_max = ch_battery(singlet_table()).max_value
    pr_err = abs(pr_max - 0.5)
    singlet_err = abs(singlet_max - (math.sqrt(2.0) - 1.0) / 2.0)

    # (d) Fine equivalence over 1e3 random no-signaling tables
    disagreements = 0
    for _ in range(1000):
        table = random_no_signaling_table(rng)
        if feasible_joint(table).feasible != ch_battery(table).passes:
            disagreements += 1

    ok = (
        mixtures_ok
        and witness_err < 1e-9
        and not demo_result.feasible
        and deviation >= 1 / 12 - 1e-9
        and pr_err <= 1e-9
        and singlet_err <= 1e-9
        and disagreements == 0
    )
    _verdict(
        9,
        ok,
        f"mixtures feasible (witness err {witness_err:.2e}, tol 1e-9); demo infeasible "
        f"with deviation {deviation:.6f} >= 1/12 - 1e-9; battery maxima PR {pr_max:.9f} "
        f"(err {pr_err:.1e}), singlet {singlet_max:.9f} (err {singlet_err:.1e}, tol 1e-9); "
        f"equivalence disagreements {disagreements}/1000",
    )


def test_criterion_10_check_command():
    started = time.perf_counter()
    out = io.StringIO()
    code = cmd_check(out=out)
    elapsed = time.perf_counter() - started
    ok = code == 0 and elapsed < 60.0
    _verdict(
        10,
        ok,
        f"cmd_check exit code {code} in {elapsed:.1f}s (budget 60s); "
        f"last line: {out.getvalue().splitlines()[-1]!r}",
    )
