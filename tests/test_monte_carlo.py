"""Counter-based sampling, binomial estimates, and campaign bookkeeping.

The phi stream is a pure function of (seed, trial index).  The first values
under seed 0 are frozen here: any change to them silently invalidates every
recorded campaign, so a change must be loud.
"""

import dataclasses
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ch_apparatus import exact_engine, monte_carlo
from ch_apparatus.apparatus import (
    ALL_SETUPS,
    TWO_STOP_SETUPS,
    ConfigError,
    EngravedLines,
    config_for_setup,
    fig2_config,
    fig2_lines,
    run_trials,
)
from ch_apparatus.circle_geometry import TWO_PI, normalize
from ch_apparatus.exact_engine import (
    _critical_angles,
    _GUARD_MARGIN,
    ConsistencyError,
    closed_form_fig2,
    conditional_table,
    event_probabilities,
)
from ch_apparatus.inequality_analysis import SettingFrequencies
from ch_apparatus.monte_carlo import (
    _CELL_SHIFT,
    _CHUNK,
    _COUNTED,
    _GRID,
    COUNT_KEYS,
    Z95,
    CampaignPlan,
    EstimateError,
    PlanError,
    SequenceResult,
    SequenceSpec,
    _finish,
    _grid,
    _lookups,
    _Tally,
    estimate,
    kinematic_counts,
    phi_samples,
    run_campaign,
    run_sequence,
    sequence_seed,
)

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0
FIG2 = fig2_lines(GAMMA, THETA)
TOP = 1 << 53
MASK64 = (1 << 64) - 1


def splitmix64(seed, index):
    """Pure-Python splitmix64 output of trial index under seed."""
    z = ((index + 1) * 0x9E3779B97F4A7C15 + seed) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def oracle_outputs(seed, start, stop):
    return np.array([splitmix64(seed, i) >> 11 for i in range(start, stop)], dtype=np.uint64)


def angle(m):
    """Start angle of 53-bit sampler outputs m (any integer, -1 and 2**53 too)."""
    return np.asarray(m, dtype=np.float64) * 2.0**-53 * TWO_PI


def least_output(edges):
    """t(e) = min{m in [0, 2**53] : angle(m) >= e} of each edge e in
    [0, 2*pi], by bisection over the whole range: 2**53 when no output
    reaches e.  angle(-1) < 0 and angle(2**53) = 2*pi bracket every such e."""
    edges = np.asarray(edges, dtype=np.float64)
    lo = np.full(edges.shape, -1, dtype=np.int64)
    hi = np.full(edges.shape, TOP, dtype=np.int64)
    while (hi - lo > 1).any():
        mid = (lo + hi) >> 1
        reached = angle(mid) >= edges
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    return hi


class TestPhiSamples:
    def test_frozen_first_values(self):
        expected = [
            5.550005491840885,
            2.7113703706918337,
            0.16608828528395128,
            6.1002313801415875,
        ]
        assert phi_samples(0, 0, 4).tolist() == expected

    def test_stream_can_be_cut_anywhere(self):
        whole = phi_samples(42, 0, 1000)
        pieces = np.concatenate([phi_samples(42, lo, lo + 250) for lo in range(0, 1000, 250)])
        assert np.array_equal(whole, pieces)

    def test_range(self):
        v = phi_samples(7, 0, 100_000)
        assert v.min() >= 0.0
        assert v.max() < TWO_PI

    def test_seeds_decorrelate(self):
        a = phi_samples(0, 0, 100)
        b = phi_samples(1, 0, 100)
        assert not np.array_equal(a, b)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            phi_samples(0, 5, 3)

    @pytest.mark.parametrize("start, stop", [(0, 3.0), (0.0, 3), (1.5, 3), (True, 3), (0, True), ("0", 3), (0, None)])
    def test_bounds_must_be_integers(self, start, stop):
        # a float used to end in a numpy TypeError, and True ran as index 1
        message = f"bad index range [{start!r}, {stop!r})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            phi_samples(0, start, stop)

    @pytest.mark.parametrize("seed", [2**64, -1, 2**64 + 3])
    def test_seed_outside_64_bits_rejected(self, seed):
        # 2**64 used to sample the angles of seed 0, and -1 those of 2**64 - 1
        with pytest.raises(PlanError, match=rf"^seed must satisfy 0 <= seed < 2\*\*64, got {seed}$"):
            phi_samples(seed, 0, 3)

    @pytest.mark.parametrize("seed", [True, 1.5, 1.0, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        # True used to run as seed 1
        with pytest.raises(PlanError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            phi_samples(seed, 0, 3)

    def test_numpy_integer_seed_and_bounds_accepted(self):
        # numpy bounds past the first chunk used to overflow in the counter offset
        got = phi_samples(np.uint64(42), np.int64(70_000), np.int64(70_004))
        assert np.array_equal(got, phi_samples(42, 70_000, 70_004))

    def test_matches_pure_python_splitmix64(self):
        seed = sequence_seed(3, "a'b")
        expected = angle(oracle_outputs(seed, 5, 200_003))
        assert np.array_equal(phi_samples(seed, 5, 200_003), expected)

    def test_cells_are_read_before_the_last_xorshift(self):
        # z ^= z >> 31 leaves the top 31 bits alone, so chunks take each
        # output's grid cell before finishing the mix
        rng = np.random.default_rng(8)
        z = np.concatenate([rng.integers(0, MASK64, 10_000, dtype=np.uint64, endpoint=True),
                            np.array([0, MASK64, 1 << 63, (1 << 52) - 1], dtype=np.uint64)])
        shift = np.uint64(_CELL_SHIFT + 11)
        assert 64 - (_CELL_SHIFT + 11) <= 31
        assert np.array_equal(_finish(z.copy(), np.empty_like(z)) >> shift, z >> shift)

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=50)
    def test_uniform_enough_mean(self, seed):
        v = phi_samples(seed, 0, 4096)
        # mean of uniform[0, 2pi) is pi with sd 2pi/sqrt(12*4096) ~ 0.028
        assert abs(v.mean() - math.pi) < 0.2

    def test_sequence_seeds_distinct(self):
        seeds = {sequence_seed(0, s) for s in ALL_SETUPS}
        assert len(seeds) == len(ALL_SETUPS)
        assert sequence_seed(0, "ab") == 6238072747940578789

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_sequence_seed_rejects_master_seed_outside_64_bits(self, seed):
        # 2**64 used to give the sequence seed of master seed 0
        with pytest.raises(PlanError, match=rf"^seed must satisfy 0 <= seed < 2\*\*64, got {seed}$"):
            sequence_seed(seed, "ab")

    @pytest.mark.parametrize("seed", [1.5, True, 1.0, None])
    def test_sequence_seed_master_seed_must_be_an_integer(self, seed):
        # 1.5 used to end in a TypeError from &, and True ran as seed 1
        with pytest.raises(PlanError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            sequence_seed(seed, "ab")

    @pytest.mark.parametrize("setup", ["xy", "A", ""])
    def test_sequence_seed_rejects_unknown_setup(self, setup):
        # used to end in a bare ValueError from tuple.index
        with pytest.raises(PlanError, match=f"^unknown setup label {re.escape(repr(setup))}$"):
            sequence_seed(0, setup)

    def test_sequence_seed_numpy_integer_accepted(self):
        assert sequence_seed(np.uint64(2**64 - 1), "b'") == sequence_seed(2**64 - 1, "b'")


class TestEstimate:
    def test_point_estimate_and_stderr(self):
        e = estimate(166700, 10**6)
        assert e.p_hat == 0.1667
        assert e.stderr == pytest.approx(math.sqrt(0.1667 * 0.8333 / 10**6), abs=1e-18)
        assert e.ci95[0] < e.p_hat < e.ci95[1]

    def test_wilson_interval_stays_in_unit_range(self):
        zeros = estimate(0, 10)
        assert zeros.p_hat == 0.0
        assert zeros.ci95[0] == 0.0
        assert zeros.ci95[1] == pytest.approx(Z95**2 / (10 + Z95**2), abs=1e-12)
        ones = estimate(10, 10)
        assert ones.p_hat == 1.0
        assert ones.ci95[1] <= 1.0
        assert ones.ci95[0] == pytest.approx(10 / (10 + Z95**2), abs=1e-12)

    def test_rejects_empty_and_overfull(self):
        with pytest.raises(EstimateError):
            estimate(0, 0)
        with pytest.raises(EstimateError):
            estimate(0, -3)
        with pytest.raises(ValueError):
            estimate(11, 10)

    @pytest.mark.parametrize("count, n", [(1.5, 3), (1, 2.5), (True, 2), (1, True), (2.0, 4), (1, 4.0), ("1", 2)])
    def test_rejects_non_integer_count_or_n(self, count, n):
        # estimate(1.5, 3) used to give p_hat 0.5, and estimate(1, 2.5) 0.4
        message = f"count and n must be integers, got count={count!r}, n={n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            estimate(count, n)
        assert not isinstance(info.value, EstimateError)

    def test_numpy_integers_accepted(self):
        assert estimate(np.int64(1), np.uint32(4)) == estimate(1, 4)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50)
    def test_interval_brackets_p_hat(self, n):
        count = n // 3
        e = estimate(count, n)
        assert 0.0 <= e.ci95[0] <= e.p_hat <= e.ci95[1] <= 1.0


def wilson_coverage(p, n):
    """Exact coverage of the 95% Wilson score interval at n trials when the
    true value is p: the binomial weight of the counts whose interval holds
    p, 0 < p < 1, with z the normal quantile itself rather than Z95."""
    k = np.arange(n + 1)
    log_comb = np.concatenate(([0.0], np.cumsum(np.log(n - k[1:] + 1) - np.log(k[1:]))))
    pmf = np.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))
    z = NormalDist().inv_cdf(0.975)
    q = k / n
    center = (q + z * z / (2 * n)) / (1 + z * z / n)
    half = z * np.sqrt(q * (1 - q) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return float(pmf[(center - half <= p) & (p <= center + half)].sum())


class TestWilsonCoverage:
    """The printed ci95 intervals must hold the exact value at the Wilson
    interval's own rate, end to end: sequence seeds, sampler, map counting
    and estimate, against the arc measures of the exact engine.

    An entry is one count of one setup of one engraving, estimated at master
    seeds 0-999 with 2000 trials per sequence.  The seeds are independent,
    so the number of seeds whose interval holds the exact value p is
    Binomial(1000, c), c = wilson_coverage(p, 2000), and it must lie within
    5 of its standard deviations of 1000 c.  Entries of one sequence are
    correlated, so each is bounded on its own.  An entry with p = 0 or 1
    counts 0 or 2000 at every seed, so its coverage is no rate: its interval
    must hold p at every seed.
    """

    SEEDS = 1000
    TRIALS = 2000

    @pytest.mark.parametrize(
        "gamma, lines",
        [(GAMMA, fig2_lines(GAMMA, THETA)), (1.3, EngravedLines(2.3, 0.9, 5.1, 3.7))],
        ids=["fig2", "arbitrary"],
    )
    def test_each_entry_covers_at_its_binomial_rate(self, gamma, lines):
        exact = np.array([event_probabilities(config_for_setup(lines, gamma, s), _COUNTED) for s in ALL_SETUPS])
        covered = np.zeros(exact.shape, dtype=np.int64)
        for seed in range(self.SEEDS):
            report = run_campaign(CampaignPlan.from_params(gamma, lines, n_trials=self.TRIALS, master_seed=seed))
            intervals = [[e.ci95 for e in report.results[s].estimates().values()] for s in ALL_SETUPS]
            covered += [[lo <= p <= hi for p, (lo, hi) in zip(*row)] for row in zip(exact, intervals)]
        inner = (exact > 0.0) & (exact < 1.0)
        assert np.count_nonzero(~inner) >= 10
        assert (covered[~inner] == self.SEEDS).all(), [
            (ALL_SETUPS[i], COUNT_KEYS[j], exact[i, j], int(covered[i, j])) for i, j in zip(*np.nonzero(~inner))
        ]
        rows, cols = np.nonzero(inner)
        assert len(rows) >= 40
        rate = np.array([wilson_coverage(p, self.TRIALS) for p in exact[rows, cols]])
        expected = self.SEEDS * rate
        outside = np.abs(covered[rows, cols] - expected) > 5.0 * np.sqrt(expected * (1.0 - rate))
        assert not outside.any(), [
            (ALL_SETUPS[i], COUNT_KEYS[j], exact[i, j], int(covered[i, j]), e)
            for i, j, e in zip(rows[outside], cols[outside], expected[outside])
        ]

    # The Wilson formula rounds the lower end of a count of 0 to just above 0
    # (1.08e-19 at n = 2000, 4.2e-22 at n = 10**6) and the upper end of a
    # count of n to just below 1, which would miss an exact value of 0 or 1.
    @pytest.mark.parametrize("n", [1, 7, TRIALS, 10**6])
    def test_interval_of_a_zero_count_reaches_zero(self, n):
        assert estimate(0, n).ci95[0] == 0.0
        assert estimate(n, n).ci95[1] == 1.0


class TestRunSequence:
    def test_counts_are_consistent(self):
        spec = SequenceSpec(setup="ab", n_trials=50_000, seed=123)
        result = run_sequence(FIG2, GAMMA, spec)
        c = result.counts
        assert set(c) == set(COUNT_KEYS)
        assert c["11"] + c["10"] + c["01"] + c["00"] == 50_000
        assert c["left_stop"] == c["11"] + c["10"]
        assert c["right_stop"] == c["11"] + c["01"]
        # reaching the stop on A implies crossing A
        assert c["A"] >= c["left_stop"]
        assert c["B"] >= c["right_stop"]

    def test_frozen_counts(self):
        # pins which event feeds which key: a swap of the 10 and 01 cells
        # still passes test_counts_are_consistent
        result = run_sequence(FIG2, GAMMA, SequenceSpec(setup="ab'", n_trials=200_000, seed=77))
        assert result.counts == {
            "11": 0,
            "10": 16689,
            "01": 16703,
            "00": 166608,
            "left_stop": 16689,
            "right_stop": 16703,
            "A": 16689,
            "A'": 33428,
            "B": 33414,
            "B'": 16703,
        }

    def test_chunks_count_the_oracle_stream(self):
        # three whole chunks and a tail, each from its own counter offset
        config = fig2_config(GAMMA, THETA, "a'b'")
        result = run_sequence(FIG2, GAMMA, SequenceSpec(setup="a'b'", n_trials=200_003, seed=2**64 - 5))
        expected = kinematic_reference(config, angle(oracle_outputs(2**64 - 5, 0, 200_003)))
        assert list(result.counts.values()) == expected

    def test_single_trial(self):
        result = run_sequence(FIG2, GAMMA, SequenceSpec(setup="a'b", n_trials=1, seed=9))
        assert all(v in (0, 1) for v in result.counts.values())

    @pytest.mark.parametrize("seed", [2**64, -1, 2**64 + 7])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the counter stream keeps the low 64 bits: 2**64 used to return
        # exactly the counts of seed 0, and -1 those of 2**64 - 1
        with pytest.raises(PlanError, match=rf"^seed must satisfy 0 <= seed < 2\*\*64, got {seed}$"):
            run_sequence(FIG2, GAMMA, SequenceSpec(setup="ab", n_trials=50_000, seed=seed))

    @pytest.mark.parametrize("seed", [True, 1.5, 5.0, "5", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(PlanError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            run_sequence(FIG2, GAMMA, SequenceSpec(setup="ab", n_trials=10, seed=seed))

    @pytest.mark.parametrize("count", [1000.0, True, False, 2.5, "10"])
    def test_trial_count_must_be_an_integer(self, count):
        # 1000.0 used to fail in range() with a TypeError, and True ran one
        # trial reported as n_trials True
        message = f"n_trials must be a nonnegative integer, got {count!r}"
        with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
            run_sequence(FIG2, GAMMA, SequenceSpec(setup="ab", n_trials=count, seed=3))

    @pytest.mark.parametrize("n", [1000, _CHUNK + 1])
    def test_numpy_integer_count_and_seed_accepted(self, n):
        # a numpy seed used to overflow in the counter offset of every chunk
        # but the first
        spec = SequenceSpec(setup="ab", n_trials=np.int64(n), seed=np.uint64(3))
        assert run_sequence(FIG2, GAMMA, spec).counts == run_sequence(FIG2, GAMMA, SequenceSpec("ab", n, 3)).counts

    def test_step_table_is_one_read_only_chunk(self):
        # every sequence of every campaign thread reads the one table
        assert np.array_equal(monte_carlo._STEPS, monte_carlo._steps(_CHUNK))
        with pytest.raises(ValueError, match="read-only"):
            monte_carlo._STEPS[:1] = 0

    def test_zero_trials(self):
        result = run_sequence(FIG2, GAMMA, SequenceSpec(setup="ab", n_trials=0, seed=0))
        assert all(v == 0 for v in result.counts.values())
        with pytest.raises(EstimateError):
            result.estimates()

    def test_matches_exact_value_within_5_sigma(self):
        closed = closed_form_fig2(GAMMA, THETA)
        result = run_sequence(FIG2, GAMMA, SequenceSpec(setup="ab", n_trials=100_000, seed=20260816))
        e = result.estimates()["11"]
        assert abs(e.p_hat - closed.joint["ab"]) <= 5.0 * max(e.stderr, 1e-9)

    def test_5_sigma_budget_over_many_seeds(self):
        closed = closed_form_fig2(GAMMA, THETA)
        p = closed.joint["ab"]
        n = 20_000
        sigma = math.sqrt(p * (1.0 - p) / n)
        outliers = 0
        for seed in range(40):
            result = run_sequence(FIG2, GAMMA, SequenceSpec(setup="ab", n_trials=n, seed=seed))
            if abs(result.counts["11"] / n - p) > 5.0 * sigma:
                outliers += 1
        assert outliers <= 1, f"{outliers} of 40 seeds outside 5 sigma"


def own_lookup(config):
    """The lookup that run_sequence builds for a configuration on its own."""
    return _lookups(config, None)[0]


def near_breakpoints(config, ulps=3):
    """Angles at every breakpoint and every guard-band end, give or take a
    few ulps, plus 0 and the top of [0, 2*pi)."""
    centers = []
    for p in [*_critical_angles(config), 0.0, TWO_PI]:
        centers += [p, p - _GUARD_MARGIN, p + _GUARD_MARGIN]
    phis = []
    for x in centers:
        up = down = x
        phis.append(x)
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            phis += [up, down]
    phis = np.array(phis)
    return phis[(phis >= 0.0) & (phis < TWO_PI)]


def near_outputs(config, lookup, steps=3):
    """Sampler outputs at the least output reaching every angle of
    near_breakpoints and every edge of the lookup, and at every grid-cell
    boundary, give or take a few outputs, plus 0 and 2**53 - 1."""
    cell_starts = np.arange(_GRID + 1, dtype=np.int64) << _CELL_SHIFT
    centers = np.concatenate([least_output(near_breakpoints(config)), least_output(lookup.edges),
                              cell_starts, [0, TOP - 1]])
    ms = (centers[:, None] + np.arange(-steps, steps + 1)).ravel()
    return np.unique(ms[(ms >= 0) & (ms < TOP)]).astype(np.uint64)


def sampled_outputs(seed, n):
    return np.random.default_rng(seed).integers(0, TOP, n, dtype=np.uint64)


def map_counts(config, lookup, ms):
    """Counts of outputs ms binned as one chunk, fed in as states before the
    last xorshift (whose inverse is y ^ y >> 31 ^ y >> 62); the low 11 bits
    are junk."""
    y = (ms << np.uint64(11)) | np.uint64(0x5A5)
    z = y ^ (y >> np.uint64(31)) ^ (y >> np.uint64(62))
    tally = _Tally(config, lookup)
    tally.add(z, np.empty_like(z))
    return tally.counts().tolist()


def in_band(lookup, ms):
    return np.searchsorted(lookup.edges, angle(ms), side="right") % 2 == 0


def kinematic_reference(config, phis):
    batch = run_trials(config, phis)
    return [int(np.count_nonzero(event.batch(batch))) for event in _COUNTED]


# Engravings with a line or stop gamma + about EPS_ANGLE from a stop.  Partner
# fits and budget-limited crossings decided from per-phi sums of stop
# distances flip by rounding along whole arcs there: the outcome map then
# raises ConsistencyError, or misses the flips and disagrees with the
# kinematics.
NEAR_BUDGET = [
    (EngravedLines(4.642336908210131, 1.642336908211131, 2.6423369082111305, 0.6423369082091311), 4.0),
    (EngravedLines(5.132928638048742, 1.3282556213789987, 0.8659660402068364, 6.181083101548878), 5.235030843678451),
    (EngravedLines(1.988132142447492, 5.88660546083404, 2.796318383575111, 2.039065513379905), 5.474999066050966),
    (EngravedLines(3.05312821183076, 2.7598507514360984, 4.298073712880316, 5.304068275937621), 5.038239806129029),
]

engraving_angles = st.lists(
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True, allow_nan=False), min_size=4, max_size=4
)


class TestOutcomeMapCounts:
    @given(st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False))
    @settings(max_examples=200)
    @example(0.0)
    @example(TWO_PI)
    @example(float(np.nextafter(TWO_PI, 0.0)))
    @example(5e-324)
    def test_threshold_is_the_least_output_reaching_the_edge(self, e):
        t = int(least_output([e])[0])
        assert 0 <= t <= TOP
        assert angle(t - 1) < e <= angle(t)

    @given(st.lists(st.tuples(st.integers(0, _GRID), st.integers(-2, 2), st.integers(-1, 1)), min_size=1, max_size=12))
    @settings(max_examples=200)
    @example([(0, -2, -1), (0, 0, 0), (0, 0, 1), (0, 1, -1)])
    @example([(_GRID, -2, 0), (_GRID, -1, 0), (_GRID, 0, -1), (_GRID, 0, 0), (_GRID, 0, 1)])
    # the first output of cell 2833 shares its angle with the last of cell
    # 2832, so that cell is not shared but its first output reaches the edge
    @example([(2833, 0, 0)])
    def test_grid_is_the_integer_rule_on_least_outputs(self, marks):
        # edges at the angles of outputs within 2 of a cell boundary, each
        # also an ulp either way; the reference places each edge's least
        # output in its cell by a shift and the cell starts among them
        edges = []
        for cell, step, ulp in marks:
            e = angle(min(max((cell << _CELL_SHIFT) + step, 0), TOP))
            edges.append(min(max(np.nextafter(e, ulp * np.inf) if ulp else e, 0.0), TWO_PI))
        edges = np.unique(edges)
        t = least_output(edges)
        shared = np.zeros(_GRID + 1, dtype=bool)
        shared[t >> _CELL_SHIFT] = True
        shared = shared[:_GRID]
        segment = np.searchsorted(t, np.arange(_GRID, dtype=np.int64) << _CELL_SHIFT, side="right")
        segment[shared] = 0
        cell_segment, got_shared = _grid(edges)
        assert np.array_equal(got_shared, shared)
        assert cell_segment.dtype == segment.dtype and np.array_equal(cell_segment, segment)

    @pytest.mark.parametrize("setup", ALL_SETUPS)
    def test_fig2_map_counts_match_kinematics(self, setup):
        config = fig2_config(GAMMA, THETA, setup)
        lookup = own_lookup(config)
        ms = np.concatenate([near_outputs(config, lookup), sampled_outputs(5, 20_000)])
        # the hand-made outputs reach the guard bands; sampled ones almost never do
        assert in_band(lookup, ms).any()
        assert map_counts(config, lookup, ms) == kinematic_reference(config, angle(ms))

    @pytest.mark.parametrize("lines, gamma", [(FIG2, GAMMA), *NEAR_BUDGET])
    def test_fixed_engravings_hold_arcs_narrower_than_two_margins(self, lines, gamma):
        # such an arc has three equal guard points, so its interior is two
        # equal edges and an empty segment: the fixed inputs of the map-count
        # tests meet it, not only hypothesis draws
        config = config_for_setup(lines, gamma, "ab")
        narrow = np.count_nonzero(exact_engine._partition(config)[1] < 2.0 * _GUARD_MARGIN)
        assert narrow >= 2
        edges = own_lookup(config).edges
        assert np.count_nonzero(edges[0::2] == edges[1::2]) == narrow

    def test_bands_are_cyclic(self):
        # B' = 0 is a breakpoint: the first output and the outputs just below
        # 2*pi lie in its band
        config = fig2_config(GAMMA, THETA, "ab'")
        lookup = own_lookup(config)
        ends = np.array([0, TOP - 1, least_output([TWO_PI - 0.5 * _GUARD_MARGIN])[0]], dtype=np.uint64)
        assert in_band(lookup, ends).all()
        assert map_counts(config, lookup, ends) == kinematic_reference(config, angle(ends))

    @given(engraving_angles, st.floats(min_value=0.05, max_value=TWO_PI - 0.05), st.sampled_from(ALL_SETUPS))
    @settings(max_examples=60, deadline=None)
    # A - gamma/2 = 0: the left stop is reached from [2*pi - EPS_ANGLE, 2*pi)
    @example(angles=[1.0, 2.5, 4.0, 5.0], gamma=2.0, setup="ab")
    @example(angles=[1.0, 2.5, 4.0, 1e-13], gamma=2.0, setup="ab'")
    @example(angles=[1.0, 2.5, 4.0, TWO_PI - 1e-13], gamma=2.0, setup="ab'")
    # A 1e-12 past the stop A': crossed(A) of the held body is decided from
    # that span, not from rounded per-phi distances
    @example(angles=[1e-12, 1.175494351e-38, 6.070388223748898, 5.998185184663431], gamma=2.62544592207992,
             setup="a'b")
    def test_arbitrary_map_counts_match_kinematics(self, angles, gamma, setup):
        try:
            config = config_for_setup(EngravedLines(*angles), gamma, setup)
        except ConfigError:
            return  # coinciding lines on one side
        lookup = own_lookup(config)
        ms = np.concatenate([near_outputs(config, lookup), sampled_outputs(11, 4096)])
        assert map_counts(config, lookup, ms) == kinematic_reference(config, angle(ms))

    @pytest.mark.parametrize("setup", ALL_SETUPS)
    @pytest.mark.parametrize("lines, gamma", NEAR_BUDGET)
    def test_near_budget_map_counts_match_kinematics(self, lines, gamma, setup):
        config = config_for_setup(lines, gamma, setup)
        lookup = own_lookup(config)
        ms = np.concatenate([near_outputs(config, lookup), sampled_outputs(1, 4096)])
        assert map_counts(config, lookup, ms) == kinematic_reference(config, angle(ms))

    def test_near_budget_engraving_runs(self):
        lines, gamma = NEAR_BUDGET[0]
        table = conditional_table(lines, gamma)
        assert table.joint["ab'"] == pytest.approx(4.0 / TWO_PI, abs=1e-9)
        for setup in ALL_SETUPS:
            config = config_for_setup(lines, gamma, setup)
            result = run_sequence(lines, gamma, SequenceSpec(setup=setup, n_trials=5000, seed=4))
            phis = phi_samples(4, 0, 5000)
            assert list(result.counts.values()) == kinematic_reference(config, phis), setup


class TestDeferredSearch:
    """A sequence keeps the states of its shared cells and searches them once
    _CHUNK are kept, and once more when counted.  With a small _CHUNK a
    sequence searches many times, and its counts must still be those of
    every trial."""

    TRIALS = 200_003
    SMALL_CHUNK = 64  # about 490 shared-cell outputs in TRIALS fig2 trials

    def run(self, lines, gamma, setup, seed):
        """The counts of the sequence and the states kept after each add."""
        kept = []
        add = _Tally.add

        def recording_add(tally, z, tmp):
            add(tally, z, tmp)
            kept.append(sum(map(len, tally.pending)))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monte_carlo, "_CHUNK", self.SMALL_CHUNK)
            patch.setattr(_Tally, "add", recording_add)
            result = run_sequence(lines, gamma, SequenceSpec(setup, self.TRIALS, seed))
        expected = kinematic_counts(config_for_setup(lines, gamma, setup), phi_samples(seed, 0, self.TRIALS))
        assert list(result.counts.values()) == expected.tolist()
        assert len(kept) == -(-self.TRIALS // self.SMALL_CHUNK)
        assert max(kept) <= 2 * self.SMALL_CHUNK
        return kept

    @pytest.mark.parametrize("setup", ["ab", "a'b", "a"])
    def test_fig2_counts_after_many_searches(self, setup):
        kept = self.run(FIG2, GAMMA, setup, seed=31)
        # states were searched before the end, and some were left for counts
        assert sum(b < a for a, b in zip(kept, kept[1:])) >= 3
        assert kept[-1] > 0

    @given(engraving_angles, st.floats(min_value=0.05, max_value=TWO_PI - 0.05), st.sampled_from(ALL_SETUPS),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=10, deadline=None)
    @example(angles=dataclasses.astuple(NEAR_BUDGET[0][0]), gamma=NEAR_BUDGET[0][1], setup="ab'", seed=0)
    @example(angles=dataclasses.astuple(NEAR_BUDGET[1][0]), gamma=NEAR_BUDGET[1][1], setup="a'b'", seed=1)
    @example(angles=dataclasses.astuple(NEAR_BUDGET[2][0]), gamma=NEAR_BUDGET[2][1], setup="b", seed=2)
    @example(angles=dataclasses.astuple(NEAR_BUDGET[3][0]), gamma=NEAR_BUDGET[3][1], setup="ab", seed=3)
    def test_arbitrary_counts_after_many_searches(self, angles, gamma, setup, seed):
        lines = EngravedLines(*angles)
        if lines.A == lines.A_prime or lines.B == lines.B_prime:
            return
        self.run(lines, gamma, setup, seed)


def assert_lookups_equal(shared, own):
    for field in shared._fields:
        a, b = getattr(shared, field), getattr(own, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def shared_lookups(lines, gamma, setups):
    return dict(zip(setups, _lookups(config_for_setup(lines, gamma, setups[0]), setups)))


def critical_without_half_shifts(config):
    """The breakpoint set with the +-gamma/2 shifts left out: incomplete."""
    lines = config.lines
    anchors = [lines.A, lines.A_prime, lines.B, lines.B_prime]
    anchors += [stop for stop in (config.stops.left, config.stops.right) if stop is not None]
    g = config.gamma
    return [normalize(a + s) for a in anchors for s in (0.0, g, -g)]


def per_sequence_counts(plan):
    """Counts of each sequence of a plan, each run on its own lookup."""
    return {spec.setup: run_sequence(plan.lines, plan.gamma, spec).counts for spec in plan.sequences}


# Configurations frozen from the campaign that built one outcome map per
# sequence; the engravings are those of test_exact_engine's TestSharedPartition.
PROVOKED = [
    (
        EngravedLines(0.37261016614881004, 0.21487387664823115, 0.15773628950057886, 0.0),
        0.21487387664823115,
        100,
        "event crossed(A') is not constant on the arc starting at 0.0 (extent 0.15773628950057886), guard "
        "angles [0.07886814475028943, 4e-12, 0.15773628949657886], config ApparatusConfig(mode='modified', "
        "lines=EngravedLines(A=0.37261016614881004, A_prime=0.21487387664823115, B=0.15773628950057886, "
        "B_prime=0.0), gamma1=None, gamma=0.21487387664823115, stops=StopPlacement(left=0.37261016614881004, "
        "right=0.15773628950057886)); breakpoint set incomplete",
    ),
    (
        EngravedLines(0.37261016614881004, 0.21487387664823115, 0.15773628950057886, 0.0),
        0.21487387664823115,
        {"ab": 0, "ab'": 5, "a'b": 5, "a'b'": 5},
        "event stops:01 is not constant on the arc starting at 0.0 (extent 0.15773628950057886), guard "
        "angles [0.07886814475028943, 4e-12, 0.15773628949657886], config ApparatusConfig(mode='modified', "
        "lines=EngravedLines(A=0.37261016614881004, A_prime=0.21487387664823115, B=0.15773628950057886, "
        "B_prime=0.0), gamma1=None, gamma=0.21487387664823115, stops=StopPlacement(left=0.37261016614881004, "
        "right=0.0)); breakpoint set incomplete",
    ),
    (
        EngravedLines(1.1739329721253928, 1.8074990466082548, 3.968375288727041, 4.186544520997088),
        5.696916767739077,
        100,
        "event stops:10 is not constant on the arc starting at 4.554643828167551 (extent 0.21816923227004636), "
        "guard angles [4.663728444302574, 4.554643828171551, 4.772813060433597], config ApparatusConfig("
        "mode='modified', lines=EngravedLines(A=1.1739329721253928, A_prime=1.8074990466082548, "
        "B=3.968375288727041, B_prime=4.186544520997088), gamma1=None, gamma=5.696916767739077, "
        "stops=StopPlacement(left=1.1739329721253928, right=None)); breakpoint set incomplete",
    ),
    (
        EngravedLines(1.1739329721253928, 1.8074990466082548, 3.968375288727041, 4.186544520997088),
        5.696916767739077,
        {"ab": 5, "ab'": 5, "a'b": 5, "a'b'": 5, "a": 0, "b": 7},
        "event crossed(B') is not constant on the arc starting at 0.5876644326848837 (extent "
        "0.5862685394405092), guard angles [0.8807987024051382, 0.5876644326888837, 1.173932972121393], "
        "config ApparatusConfig(mode='modified', lines=EngravedLines(A=1.1739329721253928, "
        "A_prime=1.8074990466082548, B=3.968375288727041, B_prime=4.186544520997088), gamma1=None, "
        "gamma=5.696916767739077, stops=StopPlacement(left=None, right=3.968375288727041)); breakpoint set "
        "incomplete",
    ),
]


class TestSharedLookup:
    """run_campaign builds the lookups of all its sequences from one
    partition; each must read exactly what the sequence's own lookup reads."""

    def test_fig2_setups_read_their_own_lookup(self):
        lines = fig2_lines(GAMMA, THETA)
        shared = shared_lookups(lines, GAMMA, ALL_SETUPS)
        for setup in ALL_SETUPS:
            assert_lookups_equal(shared[setup], own_lookup(config_for_setup(lines, GAMMA, setup)))
        # every field but the weights is one array for all setups
        first = shared[ALL_SETUPS[0]]
        assert all(lookup.edges is first.edges for lookup in shared.values())

    @given(engraving_angles, st.floats(min_value=0.05, max_value=TWO_PI - 0.05), st.permutations(ALL_SETUPS),
           st.integers(1, len(ALL_SETUPS)))
    @settings(max_examples=40, deadline=None)
    @example(angles=[1.0, 2.5, 4.0, 1e-13], gamma=2.0, order=list(ALL_SETUPS), live=8)
    # A 1e-12 past A': the lookups of a'b' and a'b, where body 1 is held at A',
    # build, since crossed(A) is decided from that span
    @example(
        angles=[1e-12, 1.175494351e-38, 6.070388223748898, 5.998185184663431],
        gamma=2.62544592207992,
        order=["b", "ab'", "a'b'", "b'", "a", "a'", "ab", "a'b"],
        live=4,
    )
    def test_arbitrary_setups_read_their_own_lookup(self, angles, gamma, order, live):
        lines = EngravedLines(*angles)
        if lines.A == lines.A_prime or lines.B == lines.B_prime:
            return
        own = {}
        for setup in order[:live]:
            try:
                own[setup] = own_lookup(config_for_setup(lines, gamma, setup))
            except ConsistencyError as exc:
                # the shared route names the same first failing setup
                with pytest.raises(ConsistencyError) as info:
                    shared_lookups(lines, gamma, order[:live])
                assert str(info.value) == str(exc)
                return
        shared = shared_lookups(lines, gamma, order[:live])
        for setup, lookup in own.items():
            assert_lookups_equal(shared[setup], lookup)

    @pytest.mark.parametrize("lines, gamma", NEAR_BUDGET)
    def test_near_budget_setups_read_their_own_lookup(self, lines, gamma):
        shared = shared_lookups(lines, gamma, ALL_SETUPS)
        for setup in ALL_SETUPS:
            assert_lookups_equal(shared[setup], own_lookup(config_for_setup(lines, gamma, setup)))

    @pytest.mark.parametrize(
        "trials",
        [
            {"ab": 1, "ab'": _CHUNK - 1, "a'b": _CHUNK, "a'b'": _CHUNK + 1},
            {"ab": 3 * _CHUNK + 17, "ab'": 1, "a'b": 2, "a'b'": _CHUNK, "a": 0, "a'": 1, "b": _CHUNK + 1, "b'": 0},
            {s: 1 for s in ALL_SETUPS},
        ],
    )
    @pytest.mark.parametrize(
        "lines, gamma",
        [(fig2_lines(GAMMA, THETA), GAMMA), (EngravedLines(1.5, 1.0, 0.5, 0.0), 1.0), NEAR_BUDGET[0]],
        ids=["fig2", "explicit", "near-budget"],
    )
    def test_campaign_counts_equal_per_sequence_counts(self, lines, gamma, trials):
        plan = CampaignPlan.from_params(gamma, lines, n_trials=trials, master_seed=99)
        report = run_campaign(plan)
        assert {s: r.counts for s, r in report.results.items()} == per_sequence_counts(plan)
        assert {s: r.n_trials for s, r in report.results.items()} == {s: trials.get(s, 0) for s in ALL_SETUPS}

    @pytest.mark.parametrize("lines, gamma, trials, message", PROVOKED)
    def test_incomplete_breakpoints_name_the_first_live_setup(self, monkeypatch, lines, gamma, trials, message):
        monkeypatch.setattr(exact_engine, "_critical_angles", critical_without_half_shifts)
        with pytest.raises(ConsistencyError) as info:
            run_campaign(CampaignPlan.from_params(gamma, lines, n_trials=trials, master_seed=1))
        assert str(info.value) == message


class TestCampaignThreads:
    """run_campaign's thread pool: every sequence runs once, on a pool
    thread, and an error raised on any thread reaches the caller, the first
    in ALL_SETUPS order."""

    PLAN = CampaignPlan.from_params(GAMMA, FIG2, n_trials=1000, master_seed=3)

    def _failing(self, monkeypatch, failing):
        """Patch run_sequence so that the setups in failing raise.  Returns
        the names of the threads that ran each setup."""
        real, ran_on = monte_carlo.run_sequence, {}

        def run_sequence(lines, gamma, spec, **private):
            ran_on[spec.setup] = threading.current_thread().name
            if spec.setup in failing:
                raise RuntimeError(f"sequence {spec.setup} failed")
            return real(lines, gamma, spec, **private)

        monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(monte_carlo, "run_sequence", run_sequence)
        return ran_on

    @pytest.mark.parametrize("failing", [("b",), ("a'b", "b"), ("b", "a'b")], ids=["one", "two", "two-reversed"])
    def test_first_error_in_setup_order_reaches_the_caller(self, monkeypatch, failing):
        ran_on = self._failing(monkeypatch, failing)
        first = min(failing, key=ALL_SETUPS.index)
        with pytest.raises(RuntimeError, match=f"^sequence {re.escape(first)} failed$"):
            run_campaign(self.PLAN)
        # every sequence ran on a pool thread, and every pool thread was joined
        assert set(ran_on) == set(ALL_SETUPS)
        assert all(name.startswith("campaign_") for name in ran_on.values())
        assert not any(thread.name.startswith("campaign_") for thread in threading.enumerate())

    def test_more_threads_than_cpus_under_fast_switching(self, monkeypatch):
        # eight threads on however many cores, switching every microsecond:
        # a sequence taken twice or a result lost would show in the counts
        serial = run_campaign(self.PLAN).results
        real, ran = monte_carlo.run_sequence, []

        def run_sequence(lines, gamma, spec, **private):
            ran.append(spec.setup)
            return real(lines, gamma, spec, **private)

        monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(monte_carlo, "run_sequence", run_sequence)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                assert run_campaign(self.PLAN).results == serial
                assert sorted(ran) == sorted(ALL_SETUPS)
        finally:
            sys.setswitchinterval(interval)

    def test_thread_count_follows_the_usable_cpus_and_the_live_sequences(self, monkeypatch):
        # each sequence waits until every one is submitted, so no pool thread
        # is idle, and could take the next one, when the pool decides whether
        # to start another
        started, submitted = [], threading.Event()
        real_start, real_shutdown, real_run = threading.Thread.start, ThreadPoolExecutor.shutdown, monte_carlo.run_sequence

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        def shutdown(pool, *args, **kwargs):
            submitted.set()
            real_shutdown(pool, *args, **kwargs)

        def run_sequence(lines, gamma, spec, **private):
            assert submitted.wait(timeout=30), "the pool never shut down"
            return real_run(lines, gamma, spec, **private)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", shutdown)
        monkeypatch.setattr(monte_carlo, "run_sequence", run_sequence)
        for cpus, trials, threads in [(1, 1000, 1), (4, 1000, 4), (16, 1000, 8), (16, {"ab": 5, "b": 2}, 2)]:
            started.clear()
            submitted.clear()
            monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda n=cpus: n)
            run_campaign(CampaignPlan.from_params(GAMMA, FIG2, n_trials=trials, master_seed=3))
            assert len(started) == threads, (cpus, trials)
            assert all(name.startswith("campaign_") for name in started)

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(monte_carlo.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert monte_carlo._usable_cpus() == 2
        monkeypatch.delattr(monte_carlo.os, "sched_getaffinity")
        monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: 6)
        assert monte_carlo._usable_cpus() == 6
        monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: None)
        assert monte_carlo._usable_cpus() == 1


class TestCampaignPlan:
    def test_from_params_defaults(self):
        plan = CampaignPlan.from_params(GAMMA, FIG2, n_trials=100)
        assert len(plan.sequences) == 8
        assert {s.setup for s in plan.sequences} == set(ALL_SETUPS)
        assert all(s.n_trials == 100 for s in plan.sequences)

    def test_dict_trials_fill_missing_with_zero(self):
        plan = CampaignPlan.from_params(GAMMA, FIG2, n_trials={"ab": 5, "ab'": 5, "a'b": 5, "a'b'": 5})
        by_setup = {s.setup: s.n_trials for s in plan.sequences}
        assert by_setup["ab"] == 5
        assert by_setup["a"] == 0

    def test_unknown_labels_and_non_integer_counts_rejected(self):
        # each is named, not dropped or cut to an integer
        trials = {"ab": 5, "ab'": 5, "a'b": 5, "a'b'": 5, "A": 100, "b": 2.9}
        message = "n_trials: unknown setup label 'A'; count 2.9 for setup 'b' is not a nonnegative integer"
        with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials=trials)

    @pytest.mark.parametrize("count", [True, False, 2.0, 2.5, "5", None, -3])
    def test_one_count_must_be_an_integer(self, count):
        with pytest.raises(PlanError, match=f"^n_trials: {re.escape(repr(count))} is not a nonnegative integer$"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials=count)

    @pytest.mark.parametrize("count", [True, 1.0, "1"])
    def test_counts_by_setup_must_be_integers(self, count):
        trials = {"ab": 1, "ab'": count, "a'b": 1, "a'b'": 1}
        message = f"n_trials: count {count!r} for setup \"ab'\" is not a nonnegative integer"
        with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials=trials)

    def test_numpy_integer_counts_accepted(self):
        plan = CampaignPlan.from_params(GAMMA, FIG2, n_trials=np.int64(3))
        assert plan.trials == (3,) * 8
        assert [s.n_trials for s in plan.sequences] == [3] * 8
        assert all(type(s.n_trials) is int for s in plan.sequences)

    def test_hand_built_plan_equals_from_params(self):
        # every sequence seed derives from the printed master seed, so a
        # hand-built plan reproduces the report of from_params
        plan = CampaignPlan(GAMMA, FIG2, (10_000,) * 8, 0)
        reference = CampaignPlan.from_params(GAMMA, FIG2, n_trials=10_000, master_seed=0)
        assert plan == reference
        assert plan.sequences == reference.sequences
        assert [(s.setup, s.seed) for s in plan.sequences] == [(s, sequence_seed(0, s)) for s in ALL_SETUPS]
        report, expected = run_campaign(plan), run_campaign(reference)
        assert list(report.results) == list(expected.results) == list(ALL_SETUPS)
        assert report.results == expected.results
        assert report.plan is plan and expected.plan is reference

    @pytest.mark.parametrize(
        "trials",
        [(1,) * 7, (1,) * 9, (1, 1, 1, -1, 1, 1, 1, 1), (1, True, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 2.0),
         [1] * 8, 8, None],
        ids=["seven", "nine", "negative", "bool", "float", "list", "int", "none"],
    )
    def test_validate_rejects_bad_counts(self, trials):
        message = f"trials must be one nonnegative integer per setup of {ALL_SETUPS!r}, got {trials!r}"
        with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
            CampaignPlan(GAMMA, FIG2, trials, 0)

    def test_negative_count_by_setup_rejected(self):
        with pytest.raises(PlanError, match="nonnegative"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials={"ab": 1, "ab'": 1, "a'b": 1, "a'b'": -1})

    def test_negative_count_named_by_its_setup(self):
        # used to fall through to validate, whose text names no setup
        message = "n_trials: count -1 for setup 'ab' is not a nonnegative integer"
        with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials={"ab": -1, "ab'": 2})

    def test_negative_trials_rejected(self):
        with pytest.raises(PlanError, match="nonnegative"):
            SequenceSpec(setup="ab", n_trials=-1, seed=0)

    def test_unknown_setup_rejected(self):
        with pytest.raises(PlanError, match="unknown setup"):
            SequenceSpec(setup="xy", n_trials=1, seed=0)

    @pytest.mark.parametrize("n_trials", [{"a": 5}, {"ab": 0, "a'b'": 0, "b'": 3}, {}], ids=["single", "zeros", "empty"])
    def test_plan_without_two_stop_trials_rejected_when_built(self, n_trials):
        # each used to build, and failed only in run_campaign
        with pytest.raises(PlanError, match="^no two-stop trials: setting frequencies are undefined$"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials=n_trials)
        with pytest.raises(PlanError, match="^no two-stop trials: "):
            dataclasses.replace(CampaignPlan(GAMMA, FIG2, (1,) * 8, 0), trials=(0,) * 4 + (1,) * 4)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        # sequence_seed keeps the low 64 bits: 2**64 + 1 would alias seed 1
        with pytest.raises(PlanError, match="0 <= seed < 2"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials=1, master_seed=seed)
        assert CampaignPlan.from_params(GAMMA, FIG2, n_trials=1, master_seed=2**64 - 1)

    @pytest.mark.parametrize("seed", [1.5, True, 1.0, "1", None])
    def test_master_seed_must_be_an_integer(self, seed):
        # 1.5 used to end in a TypeError from sequence_seed, and True ran as
        # seed 1
        with pytest.raises(PlanError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials=10, master_seed=seed)

    @pytest.mark.parametrize("seed", [2**64, -1, True])
    def test_hand_built_plan_checks_its_master_seed(self, seed):
        with pytest.raises(PlanError, match="^seed must"):
            CampaignPlan(GAMMA, FIG2, (1,) * 8, seed)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"gamma": 50.0}, "modified mode needs mutual-rotation budget gamma in (0, 2*pi), got 50.0"),
            ({"lines": EngravedLines(1.3, 1.3, 0.3, 0.0)}, "lines A and A' must be distinct"),
        ],
        ids=["gamma", "lines"],
    )
    def test_plan_checks_its_gamma_and_lines(self, change, message):
        # both used to build, and failed only when run_campaign built its
        # first configuration
        plan = CampaignPlan(GAMMA, FIG2, (1,) * 8, 0)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(plan, **change)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            CampaignPlan(change.get("gamma", GAMMA), change.get("lines", FIG2), (1,) * 8, 0)

    @pytest.mark.parametrize(
        "value, change, error, message",
        [
            (SettingFrequencies.uniform(), {"ab": 2.0}, ValueError, "setting frequencies must sum to 1"),
            (SequenceSpec("ab", 10, 3), {"n_trials": -1}, PlanError, "n_trials must be a nonnegative integer"),
            (CampaignPlan(GAMMA, FIG2, (1,) * 8, 0), {"master_seed": 2**64}, PlanError, "seed must satisfy"),
        ],
        ids=["frequencies", "sequence", "plan"],
    )
    def test_replace_checks_the_new_value(self, value, change, error, message):
        # a copy made by dataclasses.replace is built, so it is checked at
        # the replace call, before anything reads it
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            dataclasses.replace(value, **change)


class TestRunCampaign:
    def test_equal_trials_give_uniform_frequencies(self):
        plan = CampaignPlan.from_params(GAMMA, FIG2, n_trials=1000, master_seed=3)
        report = run_campaign(plan)
        f = report.frequencies
        assert (f.ab, f.abp, f.apb, f.apbp) == (0.25, 0.25, 0.25, 0.25)

    def test_frequencies_follow_trial_ratios(self):
        trials = {"ab": 2000, "ab'": 1000, "a'b": 1000, "a'b'": 0}
        plan = CampaignPlan.from_params(GAMMA, FIG2, n_trials=trials, master_seed=3)
        report = run_campaign(plan)
        f = report.frequencies
        assert (f.ab, f.abp, f.apb, f.apbp) == (0.5, 0.25, 0.25, 0.0)
        # a setup that never ran yields no conditional table at all, but
        # keeps its place in the results
        assert report.table is None
        assert list(report.results) == list(ALL_SETUPS)
        assert report.results["a'b'"].n_trials == 0
        assert "a'b'" not in report.estimates()

    def test_all_trials_zero_is_an_error(self):
        # the plan refuses it when built, before run_campaign could run it
        with pytest.raises(PlanError, match="frequencies"):
            CampaignPlan.from_params(GAMMA, FIG2, n_trials=0)

    def test_zero_single_stop_sequences_leave_singles_unknown(self):
        trials = {s: 2000 for s in TWO_STOP_SETUPS}
        plan = CampaignPlan.from_params(GAMMA, FIG2, n_trials=trials, master_seed=1)
        report = run_campaign(plan)
        assert report.table is not None
        assert all(report.table.singles[s] is None for s in ("a", "a'", "b", "b'"))
        assert report.table.joint["ab"] == pytest.approx(1 / 6, abs=0.05)

    def test_single_stop_entries_read_their_lone_cell(self):
        # a setup never reaches the stop it lacks, so its lone cell counts
        # the reaches of its one stop
        report = run_campaign(CampaignPlan.from_params(GAMMA, FIG2, n_trials=5000, master_seed=9))
        for setup in ("a", "a'", "b", "b'"):
            c = report.results[setup].counts
            stop, cell, other = ("left_stop", "10", "01") if setup.startswith("a") else ("right_stop", "01", "10")
            assert c[cell] == c[stop] > 0 and c["11"] == c[other] == 0, setup
            assert report.table.singles[setup] == c[stop] / 5000, setup

    def test_campaign_tracks_exact_table(self):
        closed = closed_form_fig2(GAMMA, THETA)
        plan = CampaignPlan.from_params(GAMMA, FIG2, n_trials=100_000, master_seed=20260816)
        report = run_campaign(plan)
        for setup in TWO_STOP_SETUPS:
            p = closed.joint[setup]
            e = report.estimates()[setup]["11"]
            assert abs(e.p_hat - p) <= 5.0 * max(e.stderr, 1e-9), setup
        for setup in ("a", "a'", "b", "b'"):
            p = closed.singles[setup]
            key = "left_stop" if setup.startswith("a") else "right_stop"
            e = report.estimates()[setup][key]
            assert abs(e.p_hat - p) <= 5.0 * max(e.stderr, 1e-9), setup
