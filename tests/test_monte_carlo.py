"""Counter-based sampling, binomial estimates, and campaign bookkeeping.

The phi stream is a pure function of (seed, trial index).  The first values
under seed 0 are frozen here: any change to them silently invalidates every
recorded campaign, so a change must be loud.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ch_apparatus.apparatus import ALL_SETUPS, TWO_STOP_SETUPS, fig2_config, fig2_lines
from ch_apparatus.circle_geometry import TWO_PI
from ch_apparatus.exact_engine import closed_form_fig2
from ch_apparatus.monte_carlo import (
    COUNT_KEYS,
    Z95,
    CampaignPlan,
    EstimateError,
    PlanError,
    SequenceResult,
    SequenceSpec,
    estimate,
    phi_samples,
    run_campaign,
    run_sequence,
    sequence_seed,
)

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0


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
        with pytest.raises(ValueError):
            estimate(11, 10)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50)
    def test_interval_brackets_p_hat(self, n):
        count = n // 3
        e = estimate(count, n)
        assert 0.0 <= e.ci95[0] <= e.p_hat <= e.ci95[1] <= 1.0


class TestRunSequence:
    def test_counts_are_consistent(self):
        config = fig2_config(GAMMA, THETA, "ab")
        spec = SequenceSpec(setup="ab", n_trials=50_000, seed=123)
        result = run_sequence(config, spec)
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
        config = fig2_config(GAMMA, THETA, "ab'")
        result = run_sequence(config, SequenceSpec(setup="ab'", n_trials=200_000, seed=77))
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

    def test_single_trial(self):
        config = fig2_config(GAMMA, THETA, "a'b")
        result = run_sequence(config, SequenceSpec(setup="a'b", n_trials=1, seed=9))
        assert all(v in (0, 1) for v in result.counts.values())

    def test_zero_trials(self):
        config = fig2_config(GAMMA, THETA, "ab")
        result = run_sequence(config, SequenceSpec(setup="ab", n_trials=0, seed=0))
        assert all(v == 0 for v in result.counts.values())
        with pytest.raises(EstimateError):
            result.estimates()

    def test_worker_count_does_not_change_counts(self):
        # three chunks of 2^16 plus a remainder; the reduction is ordered
        config = fig2_config(GAMMA, THETA, "ab'")
        spec = SequenceSpec(setup="ab'", n_trials=200_000, seed=77)
        lone = run_sequence(config, spec, workers=1)
        pooled = run_sequence(config, spec, workers=3)
        assert lone == pooled

    def test_matches_exact_value_within_5_sigma(self):
        closed = closed_form_fig2(GAMMA, THETA)
        config = fig2_config(GAMMA, THETA, "ab")
        result = run_sequence(config, SequenceSpec(setup="ab", n_trials=100_000, seed=20260816))
        e = result.estimates()["11"]
        assert abs(e.p_hat - closed.joint["ab"]) <= 5.0 * max(e.stderr, 1e-9)

    def test_5_sigma_budget_over_many_seeds(self):
        closed = closed_form_fig2(GAMMA, THETA)
        p = closed.joint["ab"]
        config = fig2_config(GAMMA, THETA, "ab")
        n = 20_000
        sigma = math.sqrt(p * (1.0 - p) / n)
        outliers = 0
        for seed in range(40):
            result = run_sequence(config, SequenceSpec(setup="ab", n_trials=n, seed=seed))
            if abs(result.counts["11"] / n - p) > 5.0 * sigma:
                outliers += 1
        assert outliers <= 1, f"{outliers} of 40 seeds outside 5 sigma"


class TestCampaignPlan:
    def test_from_params_defaults(self):
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials=100)
        assert len(plan.sequences) == 8
        assert {s.setup for s in plan.sequences} == set(ALL_SETUPS)
        assert all(s.n_trials == 100 for s in plan.sequences)

    def test_dict_trials_fill_missing_with_zero(self):
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials={"ab": 5, "ab'": 5, "a'b": 5, "a'b'": 5})
        by_setup = {s.setup: s.n_trials for s in plan.sequences}
        assert by_setup["ab"] == 5
        assert by_setup["a"] == 0

    def test_engraving_requires_exactly_one_description(self):
        with pytest.raises(PlanError):
            CampaignPlan.from_params(GAMMA, theta=THETA, lines=fig2_lines(GAMMA, THETA), n_trials=1)
        with pytest.raises(PlanError):
            CampaignPlan.from_params(GAMMA, n_trials=1)

    def test_missing_two_stop_setup_rejected(self):
        sequences = tuple(
            SequenceSpec(setup=s, n_trials=1, seed=0) for s in ALL_SETUPS if s != "a'b"
        )
        plan = CampaignPlan(gamma=GAMMA, theta=THETA, sequences=sequences, master_seed=0)
        with pytest.raises(PlanError, match="missing two-stop"):
            plan.validate()

    def test_duplicate_setup_rejected(self):
        sequences = tuple(SequenceSpec(setup="ab", n_trials=1, seed=0) for _ in range(2))
        plan = CampaignPlan(gamma=GAMMA, theta=THETA, sequences=sequences, master_seed=0)
        with pytest.raises(PlanError, match="duplicate"):
            plan.validate()

    def test_negative_trials_rejected(self):
        with pytest.raises(PlanError, match="nonnegative"):
            SequenceSpec(setup="ab", n_trials=-1, seed=0).validate()

    def test_unknown_setup_rejected(self):
        with pytest.raises(PlanError, match="unknown setup"):
            SequenceSpec(setup="xy", n_trials=1, seed=0).validate()


class TestRunCampaign:
    def test_equal_trials_give_uniform_frequencies(self):
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials=1000, master_seed=3)
        report = run_campaign(plan)
        f = report.frequencies
        assert (f.ab, f.abp, f.apb, f.apbp) == (0.25, 0.25, 0.25, 0.25)

    def test_frequencies_follow_trial_ratios(self):
        trials = {"ab": 2000, "ab'": 1000, "a'b": 1000, "a'b'": 0}
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials=trials, master_seed=3)
        report = run_campaign(plan)
        f = report.frequencies
        assert (f.ab, f.abp, f.apb, f.apbp) == (0.5, 0.25, 0.25, 0.0)
        # a setup that never ran yields no conditional table at all
        assert report.table is None
        assert "a'b'" not in report.estimates()

    def test_all_trials_zero_is_an_error(self):
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials=0)
        with pytest.raises(PlanError, match="frequencies"):
            run_campaign(plan)

    def test_zero_single_stop_sequences_leave_singles_unknown(self):
        trials = {s: 2000 for s in TWO_STOP_SETUPS}
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials=trials, master_seed=1)
        report = run_campaign(plan)
        assert report.table is not None
        assert all(report.table.singles[s] is None for s in ("a", "a'", "b", "b'"))
        assert report.table.joint["ab"] == pytest.approx(1 / 6, abs=0.05)

    def test_workers_reproduce_bitwise(self):
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials=30_000, master_seed=11)
        lone = run_campaign(plan, workers=1)
        pooled = run_campaign(plan, workers=4)
        assert lone == pooled

    def test_campaign_tracks_exact_table(self):
        closed = closed_form_fig2(GAMMA, THETA)
        plan = CampaignPlan.from_params(GAMMA, theta=THETA, n_trials=100_000, master_seed=20260816)
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
