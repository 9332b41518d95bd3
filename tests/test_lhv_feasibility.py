"""Local-polytope membership, the CH battery, and the equivalence between them.

Reference points used throughout:

  demo apparatus table   infeasible; its no-signaling deviation is exactly
                         theta/2pi = 1/12 on the standard demo engraving
  PR box                 no-signaling, battery maximum exactly +1/2
  singlet correlations   no-signaling, battery maximum (sqrt 2 - 1)/2
"""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ch_apparatus.exact_engine import ConsistencyError, closed_form_fig2
from ch_apparatus.inequality_analysis import SettingFrequencies
from ch_apparatus.lhv_feasibility import (
    BehaviorTable,
    DeterministicStrategy,
    ch_battery,
    enumerate_strategies,
    feasible_joint,
    mixture_table,
    no_signaling_deviation,
    pr_box_table,
    random_no_signaling_table,
    singlet_table,
    strategy_table,
    _ns_projector,
    _strategy_matrix,
)
from ch_apparatus import simplex
from ch_apparatus.simplex import _pivot, solve_lp

GAMMA = math.pi / 3.0
THETA = math.pi / 6.0


def demo_behavior():
    return BehaviorTable.from_full_tables(closed_form_fig2(GAMMA, THETA).full_tables)


weight_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=16, max_size=16
).filter(lambda w: sum(w) > 1e-6)


class TestStrategies:
    def test_sixteen_distinct_in_counting_order(self):
        strategies = enumerate_strategies()
        assert len(strategies) == 16
        assert len(set(strategies)) == 16
        assert strategies[0] == DeterministicStrategy(0, 0, 0, 0)
        assert strategies[15] == DeterministicStrategy(1, 1, 1, 1)
        assert strategies[0b1010] == DeterministicStrategy(1, 0, 1, 0)

    def test_strategy_tables_are_one_hot(self):
        for strategy in enumerate_strategies():
            table = strategy_table(strategy)
            for setting in ("ab", "ab'", "a'b", "a'b'"):
                cells = table.tables[setting]
                assert sorted(cells.values()) == [0.0, 0.0, 0.0, 1.0]

    def test_point_mixture_recovers_strategy(self):
        weights = [0.0] * 16
        weights[11] = 1.0
        assert mixture_table(weights) == strategy_table(enumerate_strategies()[11])

    def test_mixture_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            mixture_table([0.5] * 16)
        with pytest.raises(ValueError):
            mixture_table([1.0, -1.0] + [0.5] * 14)
        with pytest.raises(ValueError, match="must be finite"):
            mixture_table([math.nan] * 16)


class TestNoSignaling:
    @given(weight_lists)
    @settings(max_examples=80)
    def test_mixtures_never_signal(self, raw):
        total = sum(raw)
        table = mixture_table([w / total for w in raw])
        assert no_signaling_deviation(table) <= 1e-12

    def test_demo_table_signals_by_theta_over_2pi(self):
        # the left marginal changes by (gamma - (gamma - theta))/2pi when the
        # remote stop moves between B and B'
        deviation = no_signaling_deviation(demo_behavior())
        assert deviation == pytest.approx(THETA / (2.0 * math.pi), abs=1e-12)
        assert deviation == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_pr_box_does_not_signal(self):
        for variant in range(8):
            assert no_signaling_deviation(pr_box_table(variant)) <= 1e-12

    @pytest.mark.parametrize("variant", [True, False, 1.0, 1.5, "1", None, -1, 8])
    def test_pr_box_variant_must_be_an_integer_in_range(self, variant):
        # True used to build variant 1, and a float ended in a TypeError
        message = f"variant must be an integer in 0..7, got {variant!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pr_box_table(variant)

    def test_pr_box_numpy_integer_variant_accepted(self):
        assert pr_box_table(np.int64(5)) == pr_box_table(5)

    def test_random_generator_respects_no_signaling(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            table = random_no_signaling_table(rng)
            table.validate()
            assert no_signaling_deviation(table) <= 1e-7


class TestFeasibleJoint:
    @given(weight_lists)
    @settings(max_examples=40, deadline=None)
    def test_mixtures_are_feasible_with_witness(self, raw):
        total = sum(raw)
        weights = [w / total for w in raw]
        table = mixture_table(weights)
        result = feasible_joint(table)
        assert result.feasible
        assert result.max_residual <= 1e-9
        assert result.weights is not None
        assert sum(result.weights) == pytest.approx(1.0, abs=1e-9)
        # the witness must actually reproduce the table
        rebuilt = mixture_table(result.weights)
        assert np.abs(rebuilt.vector() - table.vector()).max() <= 1e-9

    def test_demo_table_is_infeasible(self):
        result = feasible_joint(demo_behavior())
        assert not result.feasible
        assert result.weights is None
        assert result.max_residual > 1e-3

    def test_pr_box_is_infeasible(self):
        result = feasible_joint(pr_box_table())
        assert not result.feasible
        assert result.max_residual > 0.05

    def test_singlet_is_infeasible(self):
        assert not feasible_joint(singlet_table()).feasible

    def test_blend_of_feasible_tables_is_feasible(self):
        rng = np.random.default_rng(17)
        w1 = rng.dirichlet(np.ones(16))
        w2 = rng.dirichlet(np.ones(16))
        blend = BehaviorTable.from_vector(
            0.5 * mixture_table(w1).vector() + 0.5 * mixture_table(w2).vector()
        )
        assert feasible_joint(blend).feasible

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_cell(self, bad):
        # a non-finite cell used to be reported as a negative one
        with pytest.raises(ValueError, match="^cells for setting \"a'b'\" must be finite: "):
            feasible_joint(BehaviorTable.from_vector([0.25] * 15 + [bad]))

    def test_rejects_unnormalized_table(self):
        bad = BehaviorTable(
            tables={
                s: {"11": 0.5, "10": 0.5, "01": 0.5, "00": 0.5}
                for s in ("ab", "ab'", "a'b", "a'b'")
            }
        )
        with pytest.raises(ValueError, match="sum to 1"):
            feasible_joint(bad)

    def test_stopped_simplex_is_a_consistency_error(self, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_ITER", 1)
        with pytest.raises(ConsistencyError, match="'iteration-limit'"):
            feasible_joint(demo_behavior())


class TestChBattery:
    def test_eight_entries(self):
        result = ch_battery(demo_behavior())
        assert len(result.values) == 8
        assert set(result.values) == {
            f"{label}:{bound}"
            for label in ("base", "swapA", "swapB", "swapAB")
            for bound in ("upper", "lower")
        }

    def test_deterministic_strategies_pass(self):
        for strategy in enumerate_strategies():
            result = ch_battery(strategy_table(strategy))
            assert result.passes
            # each entry is an integer -1 or 0 for deterministic outcomes
            assert all(v in (-1.0, 0.0) for v in result.values.values())

    def test_pr_box_hits_exactly_one_half(self):
        result = ch_battery(pr_box_table())
        assert not result.passes
        assert result.max_value == pytest.approx(0.5, abs=1e-12)
        # exactly one image of the inequality is violated
        assert sum(1 for v in result.values.values() if v > 1e-9) == 1

    def test_every_pr_variant_fails_somewhere(self):
        for variant in range(8):
            result = ch_battery(pr_box_table(variant))
            assert result.max_value == pytest.approx(0.5, abs=1e-12), variant

    def test_singlet_value(self):
        result = ch_battery(singlet_table())
        assert result.max_value == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-9)
        assert not result.passes

    def test_demo_table_fails(self):
        assert not ch_battery(demo_behavior()).passes


class TestFineEquivalence:
    def test_battery_decides_feasibility_for_no_signaling_tables(self):
        rng = np.random.default_rng(20260816)
        feasible_seen = infeasible_seen = 0
        for _ in range(300):
            table = random_no_signaling_table(rng)
            lp = feasible_joint(table)
            battery = ch_battery(table)
            assert lp.feasible == battery.passes, table.tables
            feasible_seen += lp.feasible
            infeasible_seen += not lp.feasible
        # the generator must exercise both sides for the test to mean anything
        assert feasible_seen > 20
        assert infeasible_seen > 20


class TestSolveLp:
    """The membership program: the mixture of the columns closest to the
    vector in the largest entry."""

    def test_point_in_the_hull_has_residual_zero(self):
        matrix = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        vector = np.array([0.25, 0.5])
        result = solve_lp(matrix, vector)
        assert result.status == "optimal"
        assert np.abs(matrix @ result.weights - vector).max() == 0.0
        assert result.weights.tolist() == [0.25, 0.25, 0.5]

    def test_point_outside_the_hull_has_its_distance(self):
        # (1, 1) is half a unit from the segment e1..e2 in both entries
        vector = np.array([1.0, 1.0])
        result = solve_lp(np.eye(2), vector)
        assert result.status == "optimal"
        assert result.weights.tolist() == [0.5, 0.5]
        assert np.abs(np.eye(2) @ result.weights - vector).max() == 0.5

    def test_duplicated_columns_do_not_cycle(self):
        # each strategy twice, and a strategy as the vector: a vertex where
        # many ratios tie at 0, which Bland's rule leaves in finitely many pivots
        m = _strategy_matrix()
        doubled = np.hstack([m, m])
        for j in (0, 5, 15):
            result = solve_lp(doubled, m[:, j])
            assert result.status == "optimal", j
            assert np.abs(doubled @ result.weights - m[:, j]).max() == 0.0, j
            assert result.weights[j] + result.weights[16 + j] == 1.0, j

    def test_doubled_rows_stay_independent(self):
        # every row twice: each bound row has its own slack, so no row is
        # redundant and the weights are those of the undoubled program
        matrix = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        vector = np.array([0.25, 0.5])
        once = solve_lp(matrix, vector)
        twice = solve_lp(np.vstack([matrix, matrix]), np.concatenate([vector, vector]))
        assert twice.status == "optimal"
        assert twice.weights.tolist() == once.weights.tolist()
        # the demo table's optimal weights are not unique, but its residual is
        m, table = _strategy_matrix(), demo_behavior().vector()
        once = solve_lp(m, table)
        twice = solve_lp(np.vstack([m, m]), np.concatenate([table, table]))
        assert twice.status == "optimal"
        residual = np.abs(m @ once.weights - table).max()
        assert np.abs(m @ twice.weights - table).max() == pytest.approx(residual, abs=1e-12)


def row_loop_pivot(rows, rhs, basis, row, col):
    """The row-by-row pivot that the rank-1 update replaced, kept as its
    reference."""
    piv = rows[row, col]
    rows[row] /= piv
    rhs[row] /= piv
    for i in range(rows.shape[0]):
        if i != row and rows[i, col] != 0.0:
            factor = rows[i, col]
            rows[i] -= factor * rows[row]
            rhs[i] -= factor * rhs[row]
    basis[row] = col


def frozen_tables():
    """300 random no-signaling tables, the eight PR boxes, the singlet and the
    demo table."""
    rng = np.random.default_rng(3)
    tables = [random_no_signaling_table(rng) for _ in range(300)]
    tables += [pr_box_table(variant) for variant in range(8)]
    return tables + [singlet_table(), demo_behavior()]


class TestPivotPath:
    def test_rank_one_pivot_matches_the_row_loop_bitwise(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            m, k = rng.integers(1, 12), rng.integers(1, 30)
            rows = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-3, 4, size=(m, k))
            # zeros in the pivot column, small integers that cancel exactly,
            # and signed zeros must all take the same operations
            rows[rng.random((m, k)) < 0.3] = 0.0
            small = rng.random((m, k)) < 0.2
            rows[small] = rng.integers(-3, 4, size=int(small.sum()))
            rows[rng.random((m, k)) < 0.05] = -0.0
            rhs = rng.normal(size=m)
            row, col = int(rng.integers(m)), int(rng.integers(k))
            if rows[row, col] == 0.0:
                rows[row, col] = rng.choice([-2.0, 0.5, 3.0])
            got = (rows.copy(), rhs.copy(), list(range(m)))
            want = (rows.copy(), rhs.copy(), list(range(m)))
            _pivot(*got, row, col)
            row_loop_pivot(*want, row, col)
            assert got[0].tobytes() == want[0].tobytes(), trial
            assert got[1].tobytes() == want[1].tobytes(), trial
            assert got[2] == want[2]

    def test_frozen_feasibility_witnesses(self):
        # digest of the witnesses printed before the pivot became a rank-1
        # update: the pivot path and every weight must stay bitwise the same
        text = "\n".join(repr(feasible_joint(table)) for table in frozen_tables())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7e4901a7b279cb98a6aabee86aafd9945dca8122d2da4af1e38e20d3ae2d0789"
        )


def test_strategy_setting_dispatch():
    strategy = DeterministicStrategy(a=1, a_prime=0, b=0, b_prime=1)
    assert strategy.left("ab") == 1
    assert strategy.left("a'b") == 0
    assert strategy.right("ab'") == 1
    assert strategy.right("a'b") == 0
    table = strategy_table(strategy)
    assert table.tables["ab"]["10"] == 1.0
    assert table.tables["a'b'"]["01"] == 1.0


class TestFrozenBookkeeping:
    """Digests of the outputs that read settings and cells by label, frozen
    before the labels were read from one table: every float operation must
    keep its order."""

    def test_battery_and_deviation(self):
        text = "\n".join(repr((ch_battery(t), no_signaling_deviation(t))) for t in frozen_tables())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "430c7ffa40038e0938848a593610c4987c2bffded53da9d95a18fce19f5c6e4f"
        )

    def test_no_signaling_projector(self):
        assert hashlib.sha256(_ns_projector().tobytes()).hexdigest() == (
            "a9e76a34a44a83a387c40ce072f90481c68ab6cceafdb9dce0765afdb167e073"
        )

    def test_strategy_vectors(self):
        data = b"".join(strategy_table(s).vector().tobytes() for s in enumerate_strategies())
        assert hashlib.sha256(data).hexdigest() == (
            "d4dcf5367775acfd184d42c2da33e5f888e29f0d58177b0c3f15326e764b9536"
        )

    def test_setting_frequency_keys(self):
        text = repr(SettingFrequencies(0.1, 0.2, 0.3, 0.4).as_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6f0a78229fc26cb08946088c867614f801cf70615ff90b9129c1acf3bca08b09"
        )
