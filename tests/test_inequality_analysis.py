"""The naive CH "violation" and its correction.

Demo engraving (gamma = pi/3, theta = pi/6) expectations, worked by hand:

  naive plug-in       ch = 1/4, ch' = 1/12, sum = 1/3, all four Bayes = 2
  corrected, uniform  joints (1/24, 0, 1/48, 1/24), singles (1/24, 1/16,
                      1/16, 1/24), CH = reduced form = -1/48, Bayes = 1

The naive set leaves the admissible band because its entries condition on
different setups; weighting by setting frequencies restores everything.
"""

import math
import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ch_apparatus.apparatus import EngravedLines, fig2_config, unmodified_config
from ch_apparatus.exact_engine import ConditionalTable, ConsistencyError, closed_form_fig2, conditional_table_exact
from ch_apparatus.inequality_analysis import (
    AnalysisReport,
    ProbabilitySet,
    SettingFrequencies,
    analyze,
    bayes_conditionals,
    ch_primed_value,
    ch_sum_value,
    ch_value,
    ch_violated,
    corrected_probabilities,
    crossing_probability_set,
    fixed_lambda_check,
    naive_plug,
    reduced_ch_value,
    _checked_reduced_form,
)

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0

SQUARE_LINES = EngravedLines(A=math.pi / 4, A_prime=3 * math.pi / 4, B=7 * math.pi / 4, B_prime=5 * math.pi / 4)


def demo_table():
    return closed_form_fig2(GAMMA, THETA)


class TestNaivePlug:
    def test_demo_values(self):
        naive = naive_plug(demo_table())
        assert ch_value(naive) == pytest.approx(0.25, abs=1e-12)
        assert ch_primed_value(naive) == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert ch_sum_value(naive) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_closed_expressions_in_gamma_theta(self):
        # ch = (2*gamma - theta)/2pi, ch' = theta/2pi, sum = gamma/pi
        for gamma, theta in [(GAMMA, THETA), (1.0, 0.9), (2.5, 0.2), (5.0, 1.0)]:
            naive = naive_plug(closed_form_fig2(gamma, theta))
            two_pi = 2.0 * math.pi
            assert ch_value(naive) == pytest.approx((2 * gamma - theta) / two_pi, abs=1e-12)
            assert ch_primed_value(naive) == pytest.approx(theta / two_pi, abs=1e-12)
            assert ch_sum_value(naive) == pytest.approx(gamma / math.pi, abs=1e-12)

    def test_flags(self):
        naive = naive_plug(demo_table())
        assert ch_violated(ch_value(naive))
        assert ch_violated(ch_primed_value(naive))
        assert ch_sum_value(naive) > 0.0

    def test_requires_all_singles(self):
        table = demo_table()
        crippled = ConditionalTable(
            joint=table.joint,
            singles={"a": None, "a'": table.singles["a'"], "b": None, "b'": table.singles["b'"]},
            full_tables=table.full_tables,
        )
        with pytest.raises(ValueError, match="'a'.*'b'"):
            naive_plug(crippled)


class TestChViolated:
    @pytest.mark.parametrize("value", [0.0, -0.5, -1.0, 1e-12])
    def test_band_is_admissible(self, value):
        assert not ch_violated(value)

    @pytest.mark.parametrize("value", [0.25, 1e-6, -1.0 - 1e-6, 2.0])
    def test_outside_band_is_flagged(self, value):
        assert ch_violated(value)


class TestBayes:
    def test_naive_demo_conditionals_are_two(self):
        bayes = bayes_conditionals(naive_plug(demo_table()))
        for key in ("B|A", "A|B", "B'|A'", "A'|B'"):
            assert bayes[key].value == pytest.approx(2.0, abs=1e-12), key
            assert bayes[key].exceeds_one, key

    def test_vanishing_denominator_gives_none(self):
        s = ProbabilitySet(ab=0.1, abp=0.0, apb=0.0, apbp=0.1, a=0.0, ap=0.2, b=0.2, bp=0.2)
        bayes = bayes_conditionals(s)
        assert bayes["B|A"] == (None, False)
        assert bayes["A|B"].value == pytest.approx(0.5)
        assert not bayes["A|B"].exceeds_one

    @pytest.mark.parametrize("den, vanishes", [(1e-16, True), (1e-14, False)], ids=["past", "inside"])
    def test_denominator_bound_is_denom_tol(self, den, vanishes):
        # DENOM_TOL is 1e-15: a denominator of 1e-16 counts as zero, one of 1e-14 does not
        s = ProbabilitySet(ab=0.5 * den, abp=0.0, apb=0.0, apbp=0.1, a=den, ap=0.2, b=0.2, bp=0.2)
        conditional = bayes_conditionals(s)["B|A"]
        assert conditional == ((None, False) if vanishes else (0.5, False))

    def test_honest_set_not_flagged(self):
        s = ProbabilitySet(ab=0.1, abp=0.1, apb=0.1, apbp=0.1, a=0.25, ap=0.25, b=0.25, bp=0.25)
        assert not any(c.exceeds_one for c in bayes_conditionals(s).values())


class TestCorrected:
    def test_demo_joints_and_singles(self):
        corrected = corrected_probabilities(demo_table(), SettingFrequencies.uniform())
        assert corrected.ab == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert corrected.abp == pytest.approx(0.0, abs=1e-12)
        assert corrected.apb == pytest.approx(1.0 / 48.0, abs=1e-12)
        assert corrected.apbp == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert corrected.a == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert corrected.ap == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert corrected.b == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert corrected.bp == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_demo_ch_and_bayes_restored(self):
        corrected = corrected_probabilities(demo_table(), SettingFrequencies.uniform())
        assert ch_value(corrected) == pytest.approx(-1.0 / 48.0, abs=1e-12)
        assert not ch_violated(ch_value(corrected))
        bayes = bayes_conditionals(corrected)
        assert bayes["B|A"].value == pytest.approx(1.0, abs=1e-12)
        assert not bayes["B|A"].exceeds_one

    def test_degenerate_frequencies(self):
        # f = (1,0,0,0): only the ab run contributes, and the sum rules give
        # p(A) = p(B) = p(AB)
        table = demo_table()
        corrected = corrected_probabilities(table, SettingFrequencies(1.0, 0.0, 0.0, 0.0))
        assert corrected.ab == table.joint["ab"]
        assert corrected.abp == corrected.apb == corrected.apbp == 0.0
        assert corrected.a == corrected.b == corrected.ab
        assert corrected.ap == corrected.bp == 0.0
        assert reduced_ch_value(table, SettingFrequencies(1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError, match="sum to 1"):
            corrected_probabilities(demo_table(), SettingFrequencies(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="nonnegative"):
            corrected_probabilities(demo_table(), SettingFrequencies(1.5, -0.5, 0.0, 0.0))

    @pytest.mark.parametrize(
        "values, setup",
        [
            ((math.nan, 0.5, 0.5, 0.0), "ab"),
            ((0.5, 0.5, 0.0, math.inf), "a'b'"),
            ((0.5, -math.inf, 0.5, 0.0), "ab'"),
            (("0.25", 0.25, 0.25, 0.25), "ab"),
            ((0.5, 0.5, None, 0.0), "a'b"),
            ((True, 0.0, 0.0, 0.0), "ab"),
            ((0.5, 10**400, 0.5, 0.0), "ab'"),
        ],
        ids=["nan", "inf", "-inf", "str", "None", "True", "huge-int"],
    )
    def test_rejects_non_finite_frequencies(self, values, setup):
        # a non-finite frequency used to be reported as a negative one, a str
        # or an int beyond float range to end in a raw TypeError or
        # OverflowError, and True was the frequency 1
        bad = values[("ab", "ab'", "a'b", "a'b'").index(setup)]
        rule = f"setting frequencies must be finite numbers, got {bad!r} for setup {setup!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            SettingFrequencies(*values)


class TestReducedForm:
    def test_demo_value(self):
        reduced = reduced_ch_value(demo_table(), SettingFrequencies.uniform())
        assert reduced == pytest.approx(-1.0 / 48.0, abs=1e-12)
        assert reduced == pytest.approx(-(GAMMA - THETA) / (8.0 * math.pi), abs=1e-12)

    @pytest.mark.parametrize("offset, raises", [(2e-9, True), (5e-10, False)], ids=["past", "inside"])
    def test_identity_bound_is_identity_tol(self, offset, raises):
        # IDENTITY_TOL is 1e-9: a corrected CH value 2e-9 from the reduced
        # form is a consistency failure, one 5e-10 from it is not
        table, freqs = demo_table(), SettingFrequencies.uniform()
        reduced = reduced_ch_value(table, freqs)
        if raises:
            with pytest.raises(ConsistencyError, match="reduced CH value disagrees"):
                _checked_reduced_form(table, freqs, reduced + offset)
        else:
            assert _checked_reduced_form(table, freqs, reduced + offset)[1] == pytest.approx(offset, rel=1e-6)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4),
        st.lists(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False), min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_identity_on_random_tables(self, joints, weights):
        setups = ("ab", "ab'", "a'b", "a'b'")
        table = ConditionalTable(
            joint=dict(zip(setups, joints)),
            singles={"a": 0.5, "a'": 0.5, "b": 0.5, "b'": 0.5},
            full_tables={
                s: {"11": j, "10": 0.0, "01": 0.0, "00": 1.0 - j} for s, j in zip(setups, joints)
            },
        )
        total = sum(weights)
        freqs = SettingFrequencies(*(w / total for w in weights))
        assert analyze(table, freqs).identity_residual < 1e-12
        value = reduced_ch_value(table, freqs)
        assert -1.0 <= value <= 0.0


class TestFixedLambda:
    def test_quarter_turn_example(self):
        # phi = 0 on the square engraving crosses A and B only:
        # kernel = 1 - 0 + 0 + 0 - 0 - 1 = 0
        config = unmodified_config(SQUARE_LINES, math.pi / 2.0)
        result = fixed_lambda_check(config, 0.0)
        assert result.residual == 0.0
        assert result.value == 0.0

    def test_extreme_value(self):
        # crossing exactly A' and B drives the kernel to its floor of -1
        lines = EngravedLines(A=math.pi, A_prime=0.3, B=6.0, B_prime=3.0)
        config = unmodified_config(lines, math.pi / 2.0)
        result = fixed_lambda_check(config, 0.0)
        assert result.residual == 0.0
        assert result.value == -1.0

    def test_rejects_modified_device(self):
        with pytest.raises(ValueError, match="unmodified"):
            fixed_lambda_check(fig2_config(GAMMA, THETA, "ab"), 0.0)

    def test_kernel_band_for_all_assignments(self):
        for x, xp, y, yp in product((0, 1), repeat=4):
            value = x * y - x * yp + xp * y + xp * yp - xp - y
            assert -1 <= value <= 0, (x, xp, y, yp)

    def test_residual_zero_on_a_grid(self):
        config = unmodified_config(SQUARE_LINES, 2.0)
        for k in range(500):
            result = fixed_lambda_check(config, 2.0 * math.pi * (k + 0.5) / 500)
            assert result.residual == 0.0
            assert -1.0 <= result.value <= 0.0


class TestCrossingProbabilitySet:
    def test_square_engraving_quarter_turn(self):
        config = unmodified_config(SQUARE_LINES, math.pi / 2.0)
        s = crossing_probability_set(config)
        assert s.ab == pytest.approx(0.25, abs=1e-12)
        assert s.abp == pytest.approx(0.0, abs=1e-12)
        assert s.apb == pytest.approx(0.0, abs=1e-12)
        assert s.apbp == pytest.approx(0.0, abs=1e-12)
        for single in (s.a, s.ap, s.b, s.bp):
            assert single == pytest.approx(0.25, abs=1e-12)
        assert ch_value(s) == pytest.approx(-0.25, abs=1e-12)
        assert ch_primed_value(s) == pytest.approx(-0.25, abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=2.0 * math.pi, allow_nan=False),
        st.lists(
            st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    # rounding slivers the constancy guard used to reject: an arc at
    # 2*pi - 2 ulp whose outer check point rounded onto 0.0, and arcs about
    # 1e-15 wide straddling the EPS_ANGLE band of a crossing boundary
    @example(gamma1=1.0, angles=[0.0, 0.0, 0.0, 5.2831853071795845])
    @example(gamma1=1.0, angles=[0.0, 0.0, 0.0, 2.000000000000001])
    @example(gamma1=1.0, angles=[0.0, 0.0, 0.0, 1e-15])
    @example(gamma1=1.0, angles=[0.0, 0.0, 0.0, 3.2831853071795845])
    # only B coincides with B'; shifting A' as well used to land it on A
    @example(gamma1=1.0, angles=[1.0, 0.0, 0.0, 0.0])
    def test_single_space_set_never_violates(self, gamma1, angles):
        a, ap, b, bp = angles
        # shift each coinciding pair on its own, so the engraving stays valid
        if a == ap:
            ap = (ap + 1.0) % (2.0 * math.pi)
        if b == bp:
            bp = (bp + 2.0) % (2.0 * math.pi)
        config = unmodified_config(EngravedLines(A=a, A_prime=ap, B=b, B_prime=bp), gamma1)
        s = crossing_probability_set(config)
        assert not ch_violated(ch_value(s))
        assert not ch_violated(ch_primed_value(s))


class TestAnalyze:
    def test_demo_report(self):
        report = analyze(conditional_table_exact(GAMMA, THETA), SettingFrequencies.uniform())
        assert isinstance(report, AnalysisReport)
        assert report.ch == pytest.approx(0.25, abs=1e-12)
        assert report.ch_flagged
        assert report.ch_primed == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert report.ch_primed_flagged
        assert report.ch_sum == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.ch_sum_positive
        assert report.corrected_ch == pytest.approx(-1.0 / 48.0, abs=1e-12)
        assert not report.corrected_ch_flagged
        assert report.reduced_ch == pytest.approx(report.corrected_ch, abs=1e-12)
        assert report.identity_residual < 1e-12

    def test_report_carries_its_frequencies(self):
        freqs = SettingFrequencies(0.4, 0.3, 0.2, 0.1)
        report = analyze(demo_table(), freqs)
        assert report.frequencies == freqs
        expected = -demo_table().joint["ab'"] * 0.3 - demo_table().joint["a'b"] * 0.2
        assert report.reduced_ch == pytest.approx(expected, abs=1e-15)
