"""Clauser-Horne bookkeeping: the naive plug-in, its diagnosis, and the fix.

The eight conditional probabilities measured on the modified device refer to
mutually exclusive stop setups.  Inserting them verbatim into the CH
expression treats them as probabilities on one common space, which is the
deliberate blunder this module makes explicit, flags, and then repairs by
weighting each conditional entry with the frequency of its own setup.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .apparatus import LINE_NAMES, TWO_STOP_SETUPS, UNMODIFIED, ApparatusConfig, TrialBatch, _not_a_number, run_trials
from .circle_geometry import normalize
from .exact_engine import (
    TABLE_TOL,
    ConditionalTable,
    ConsistencyError,
    _entries,
    _guarded,
    lines_crossed,
)

# Tolerance band for violation flags, so boundary values do not flap.
FLAG_TOL = 1e-9

# Denominators below this are treated as zero in conditional probabilities.
DENOM_TOL = 1e-15

# The algebraic identity between the corrected CH value and its reduced form
# must hold to this accuracy or the implementation is inconsistent.
IDENTITY_TOL = 1e-9

__all__ = [
    "FLAG_TOL",
    "DENOM_TOL",
    "IDENTITY_TOL",
    "ProbabilitySet",
    "SettingFrequencies",
    "Conditional",
    "FixedLambdaResult",
    "AnalysisReport",
    "ch_value",
    "ch_primed_value",
    "ch_sum_value",
    "ch_violated",
    "bayes_conditionals",
    "naive_plug",
    "corrected_probabilities",
    "reduced_ch_value",
    "fixed_lambda_check",
    "crossing_probability_set",
    "analyze",
]


@dataclass(frozen=True)
class ProbabilitySet:
    """The eight numbers entering a CH expression.

    Fields name line-crossing events: ``ab`` is the joint probability of
    crossings A and B, ``a`` the single probability of crossing A, and a
    trailing ``p`` marks the primed line.
    """

    ab: float
    abp: float
    apb: float
    apbp: float
    a: float
    ap: float
    b: float
    bp: float

    def as_dict(self) -> dict[str, float]:
        """The fields keyed by the lines of their events: "AB" for ab."""
        return dict(zip(map("".join, _CROSSINGS), astuple(self)))


@dataclass(frozen=True)
class SettingFrequencies:
    """How often each two-stop setup is run, in TWO_STOP_SETUPS order; must sum to one."""

    ab: float
    abp: float
    apb: float
    apbp: float

    @classmethod
    def uniform(cls) -> "SettingFrequencies":
        return cls(0.25, 0.25, 0.25, 0.25)

    def validate(self) -> "SettingFrequencies":
        values = (self.ab, self.abp, self.apb, self.apbp)
        for setup, v in zip(TWO_STOP_SETUPS, values):
            if _not_a_number(v):
                raise ValueError(f"setting frequencies must be finite numbers, got {v!r} for setup {setup!r}")
        if any(v < -TABLE_TOL for v in values):
            raise ValueError(f"setting frequencies must be nonnegative, got {values!r}")
        if abs(sum(values) - 1.0) > TABLE_TOL:
            raise ValueError(f"setting frequencies must sum to 1, got {values!r}")
        return self
    __post_init__ = validate

    def as_dict(self) -> dict[str, float]:
        return dict(zip(TWO_STOP_SETUPS, astuple(self)))


def ch_value(s: ProbabilitySet) -> float:
    """CH combination p(AB) - p(AB') + p(A'B) + p(A'B') - p(A') - p(B)."""
    return s.ab - s.abp + s.apb + s.apbp - s.ap - s.b


def ch_primed_value(s: ProbabilitySet) -> float:
    """Twin combination with primed and unprimed lines exchanged."""
    return s.apbp - s.apb + s.abp + s.ab - s.a - s.bp


def ch_sum_value(s: ProbabilitySet) -> float:
    """Sum of the two CH combinations; positivity certifies the misuse."""
    return 2.0 * s.ab + 2.0 * s.apbp - s.a - s.ap - s.b - s.bp


def ch_violated(value: float) -> bool:
    """Whether a CH value leaves the admissible band [-1, 0], by more than
    FLAG_TOL."""
    return value > FLAG_TOL or value < -1.0 - FLAG_TOL


class Conditional(NamedTuple):
    """One Bayes conditional; value is None when its denominator vanishes."""

    value: float | None
    exceeds_one: bool


def bayes_conditionals(s: ProbabilitySet) -> dict[str, Conditional]:
    """Conditionals p(B|A), p(A|B), p(B'|A'), p(A'|B') read off the set.

    Any entry above one exposes the set as not coming from a single
    probability space.
    """
    pairs = {
        "B|A": (s.ab, s.a),
        "A|B": (s.ab, s.b),
        "B'|A'": (s.apbp, s.ap),
        "A'|B'": (s.apbp, s.bp),
    }
    out: dict[str, Conditional] = {}
    for key, (num, den) in pairs.items():
        if abs(den) < DENOM_TOL:
            out[key] = Conditional(None, False)
        else:
            v = num / den
            out[key] = Conditional(v, v > 1.0 + FLAG_TOL)
    return out


def naive_plug(table: ConditionalTable) -> ProbabilitySet:
    """Copy the eight conditional entries verbatim into one probability set.

    This is the fallacy on display: the entries condition on different,
    mutually exclusive setups and do not live on a common space.  The fields
    of a ProbabilitySet name the setups in ALL_SETUPS order.
    """
    missing = [s for s, v in table.singles.items() if v is None]
    if missing:
        raise ValueError(f"single-stop entries missing for setups {missing!r}")
    return ProbabilitySet(*_entries(table))


def corrected_probabilities(table: ConditionalTable, freqs: SettingFrequencies) -> ProbabilitySet:
    """Absolute probabilities on the common space of whole runs.

    Each joint entry is weighted by the frequency of its own setup; the
    singles are then defined by the sum rules over the corrected joints,
    p(A) = p(AB) + p(AB') and so on, which is what makes the CH combination
    collapse to its reduced form identically.
    """
    ab = table.joint["ab"] * freqs.ab
    abp = table.joint["ab'"] * freqs.abp
    apb = table.joint["a'b"] * freqs.apb
    apbp = table.joint["a'b'"] * freqs.apbp
    return ProbabilitySet(ab=ab, abp=abp, apb=apb, apbp=apbp, a=ab + abp, ap=apb + apbp, b=ab + apb, bp=abp + apbp)


def reduced_ch_value(table: ConditionalTable, freqs: SettingFrequencies) -> float:
    """Corrected CH value in its reduced form.

    After correction every positive term is cancelled by a marginal, leaving
    - p(11|ab') f(ab') - p(11|a'b) f(a'b), manifestly in [-1, 0].
    """
    return _checked_reduced_form(table, freqs, ch_value(corrected_probabilities(table, freqs)))[0]


def _checked_reduced_form(
    table: ConditionalTable, freqs: SettingFrequencies, corrected_ch: float
) -> tuple[float, float]:
    """The reduced form and its residual against corrected_ch, the CH value
    of the corrected set; ConsistencyError above IDENTITY_TOL."""
    reduced = -table.joint["ab'"] * freqs.abp - table.joint["a'b"] * freqs.apb
    residual = abs(reduced - corrected_ch)
    if residual > IDENTITY_TOL:
        raise ConsistencyError(f"reduced CH value disagrees with the corrected expansion by {residual!r}")
    return reduced, residual


class FixedLambdaResult(NamedTuple):
    residual: float
    value: float


def fixed_lambda_check(config: ApparatusConfig, phi: float) -> FixedLambdaResult:
    """Factorisability and range of the CH kernel at one hidden state.

    On the unmodified device a single trial fixes indicators x, x', y, y' for
    the four crossings.  The joint indicator of A and B must factor as x*y
    (residual 0), and the kernel xy - xy' + x'y + x'y' - x' - y lies in
    [-1, 0] for any 0/1 assignment.
    """
    residual, value = _fixed_lambda_checks(config, np.array([normalize(phi)]))
    return FixedLambdaResult(residual=float(residual[0]), value=float(value[0]))


def _fixed_lambda_checks(config: ApparatusConfig, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and kernel values of fixed_lambda_check at each normalized
    angle of phis, from one run_trials call."""
    if config.mode != UNMODIFIED:
        raise ValueError("fixed-lambda check applies to the unmodified device")
    x, xp, y, yp = run_trials(config, phis).crossings.astype(np.int64)
    return np.abs((x & y) - x * y), x * y - x * yp + xp * y + xp * yp - xp - y


# The lines of the events of a ProbabilitySet, in its field order: each left
# line with each right one, then each line alone.
_CROSSINGS = [(a, b) for a in LINE_NAMES[:2] for b in LINE_NAMES[2:]] + [(name,) for name in LINE_NAMES]
_CROSSING_EVENTS = [lines_crossed(*names) for names in _CROSSINGS]


def _crossing_values(batch: TrialBatch) -> np.ndarray:
    """The stacked read of _CROSSING_EVENTS from the crossings c (LINE_NAMES
    order): the pairs A and B, A and B', A' and B, A' and B', which is
    c[[0, 0, 1, 1]] & c[[2, 3, 2, 3]], then c itself."""
    c = batch.crossings
    return np.concatenate(((c[:2, None] & c[2:]).reshape(c.shape), c))


def crossing_probability_set(config: ApparatusConfig) -> ProbabilitySet:
    """Exact probabilities of the four crossings and their four CH pairs.

    All eight come from one arc partition, so they refer to the same
    configuration and the same probability space.
    """
    return ProbabilitySet(*_guarded(config, None, _CROSSING_EVENTS, read=_crossing_values)[-1][0])


@dataclass(frozen=True)
class AnalysisReport:
    """Naive and corrected CH analysis of one conditional table."""

    naive: ProbabilitySet
    ch: float
    ch_flagged: bool
    ch_primed: float
    ch_primed_flagged: bool
    ch_sum: float
    ch_sum_positive: bool
    bayes: dict[str, Conditional]
    frequencies: SettingFrequencies
    corrected: ProbabilitySet
    corrected_ch: float
    corrected_ch_flagged: bool
    reduced_ch: float
    identity_residual: float


def analyze(table: ConditionalTable, freqs: SettingFrequencies) -> AnalysisReport:
    """Run the whole naive-versus-corrected comparison on one table."""
    naive = naive_plug(table)
    ch = ch_value(naive)
    chp = ch_primed_value(naive)
    chs = ch_sum_value(naive)
    corrected = corrected_probabilities(table, freqs)
    cch = ch_value(corrected)
    reduced, residual = _checked_reduced_form(table, freqs, cch)
    return AnalysisReport(
        naive=naive,
        ch=ch,
        ch_flagged=ch_violated(ch),
        ch_primed=chp,
        ch_primed_flagged=ch_violated(chp),
        ch_sum=chs,
        ch_sum_positive=chs > FLAG_TOL,
        bayes=bayes_conditionals(naive),
        frequencies=freqs,
        corrected=corrected,
        corrected_ch=cch,
        corrected_ch_flagged=ch_violated(cch),
        reduced_ch=reduced,
        identity_residual=residual,
    )
