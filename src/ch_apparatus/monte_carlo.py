"""Seeded trial campaigns over the eight stop setups.

Start angles come from a counter-based generator: trial i of a sequence is a
pure function of (seed, i), so any index range can be generated on any worker
and the campaign is bitwise reproducible regardless of how work is split.

Sampled angles are counted through the configuration's OutcomeMap: each
angle is located among the guarded arc interiors (by a grid of equal cells,
then a search among the few angles whose cell holds an interior's end), and
only the angles that fall in a guard band around a breakpoint run through
the kinematics.  The counts equal those of run_trials on every angle
(kinematic_counts), which the tests and the check suite verify.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .apparatus import (
    ALL_SETUPS,
    LINE_NAMES,
    SINGLE_STOP_SETUPS,
    TWO_STOP_SETUPS,
    ApparatusConfig,
    EngravedLines,
    config_for_setup,
    fig2_lines,
    run_trials,
)
from .circle_geometry import TWO_PI
from .exact_engine import (
    CELLS,
    ConditionalTable,
    line_crossed,
    outcome_map,
    stop_cell,
    stop_reached,
)
from .inequality_analysis import SettingFrequencies

# 95% two-sided normal quantile, used by the Wilson score interval.
Z95 = 1.959963984540054

_CHUNK = 1 << 16

# Counts tracked per sequence: stop-reach cells, per-side stop reaches, and
# the four line crossings.
COUNT_KEYS = ("11", "10", "01", "00", "left_stop", "right_stop", "A", "A'", "B", "B'")

# The events behind COUNT_KEYS, in the same order; the exact engine measures
# the same predicates on arcs.
_COUNTED = (
    *(stop_cell(cell[0] == "1", cell[1] == "1") for cell in CELLS),
    stop_reached("left"),
    stop_reached("right"),
    *(line_crossed(name) for name in LINE_NAMES),
)

__all__ = [
    "Z95",
    "COUNT_KEYS",
    "PlanError",
    "EstimateError",
    "SequenceSpec",
    "CampaignPlan",
    "Estimate",
    "SequenceResult",
    "EstimateReport",
    "phi_samples",
    "sequence_seed",
    "kinematic_counts",
    "estimate",
    "run_sequence",
    "run_campaign",
]


class PlanError(ValueError):
    """A campaign plan does not cover the protocol."""


class EstimateError(ValueError):
    """An estimate was requested from zero trials."""


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of the uint64 array z, in place; tmp is scratch
    space of the same shape."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def phi_samples(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform start angles for trial indices [start, stop).

    Pure function of (seed, index): the counter stream can be cut at any
    point without changing a single value.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"bad index range [{start}, {stop})")
    z = np.arange(start, stop, dtype=np.uint64)
    z += np.uint64(1)
    z *= _GOLDEN
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    tmp = np.empty_like(z)
    _mix64(z, tmp)
    z >>= np.uint64(11)
    u = tmp.view(np.float64)
    u[...] = z
    u *= 1.0 / (1 << 53)
    u *= TWO_PI
    return u


def sequence_seed(master_seed: int, setup: str) -> int:
    """Per-sequence seed derived from the master seed and the setup's slot."""
    slot = ALL_SETUPS.index(setup)
    z = np.array([master_seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(slot + 1)
    return int(_mix64(z, np.empty_like(z))[0])


@dataclass(frozen=True)
class SequenceSpec:
    """One run of trials with a fixed stop setup."""

    setup: str
    n_trials: int
    seed: int

    def validate(self) -> "SequenceSpec":
        if self.setup not in ALL_SETUPS:
            raise PlanError(f"unknown setup label {self.setup!r}")
        if self.n_trials < 0:
            raise PlanError(f"n_trials must be nonnegative, got {self.n_trials}")
        return self


@dataclass(frozen=True)
class CampaignPlan:
    """Eight sequences covering the protocol, plus the apparatus parameters.

    Single-stop sequences may have zero trials; the useless trials can be
    spared.  Exactly one of (theta, lines) describes the engraving.
    """

    gamma: float
    sequences: tuple[SequenceSpec, ...]
    master_seed: int
    theta: float | None = None
    lines: EngravedLines | None = None

    @classmethod
    def from_params(
        cls,
        gamma: float,
        theta: float | None = None,
        lines: EngravedLines | None = None,
        n_trials: int | dict[str, int] = 10**6,
        master_seed: int = 0,
    ) -> "CampaignPlan":
        if isinstance(n_trials, int):
            n_per = {s: n_trials for s in ALL_SETUPS}
        else:
            n_per = {s: int(n_trials.get(s, 0)) for s in ALL_SETUPS}
        sequences = tuple(
            SequenceSpec(setup=s, n_trials=n_per[s], seed=sequence_seed(master_seed, s))
            for s in ALL_SETUPS
        )
        return cls(
            gamma=gamma, theta=theta, lines=lines, sequences=sequences, master_seed=master_seed
        ).validate()

    def engraving(self) -> EngravedLines:
        if (self.theta is None) == (self.lines is None):
            raise PlanError("exactly one of theta or explicit lines must be given")
        if self.lines is not None:
            return self.lines
        return fig2_lines(self.gamma, self.theta)

    def validate(self) -> "CampaignPlan":
        self.engraving()
        seen: dict[str, SequenceSpec] = {}
        for spec in self.sequences:
            spec.validate()
            if spec.setup in seen:
                raise PlanError(f"duplicate sequence for setup {spec.setup!r}")
            seen[spec.setup] = spec
        missing = [s for s in TWO_STOP_SETUPS if s not in seen]
        if missing:
            raise PlanError(f"plan is missing two-stop setups {missing!r}")
        return self


class Estimate(NamedTuple):
    """Point estimate with its binomial standard error and Wilson 95% CI."""

    p_hat: float
    stderr: float
    ci95: tuple[float, float]


def estimate(count: int, n: int) -> Estimate:
    """Binomial estimate from ``count`` hits in ``n`` trials."""
    if n < 1:
        raise EstimateError(f"no trials to estimate from (n={n})")
    if not 0 <= count <= n:
        raise ValueError(f"count {count} out of range for n={n}")
    p = count / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    z2 = Z95 * Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return Estimate(p_hat=p, stderr=stderr, ci95=(max(0.0, center - half), min(1.0, center + half)))


@dataclass(frozen=True)
class SequenceResult:
    setup: str
    n_trials: int
    counts: dict[str, int]

    def estimates(self) -> dict[str, Estimate]:
        return {key: estimate(c, self.n_trials) for key, c in self.counts.items()}


def kinematic_counts(config: ApparatusConfig, phis: np.ndarray) -> np.ndarray:
    """Counts of the COUNT_KEYS events over the start angles, each angle run
    through run_trials: the route that needs no outcome map."""
    batch = run_trials(config, phis)
    return np.array([np.count_nonzero(event.batch(batch)) for event in _COUNTED], dtype=np.int64)


# Equal cells of the circle that locate sampled angles without a search.
_GRID = 4096
_GRID_SCALE = _GRID / TWO_PI


class _Lookup(NamedTuple):
    """OutcomeMap.lookup() of _COUNTED, plus a grid of _GRID cells.

    An angle's cell is int(phi * _GRID_SCALE).  Rounding the product and
    truncating it are both monotone, so an angle in a cell that holds no
    edge lies on the same side of every edge as the cell does, and
    ``cell_weights`` holds its segment's weights.  Cells that hold an edge
    (``shared``) have zero weights; their angles are searched among the
    edges.
    """

    edges: np.ndarray
    weights: np.ndarray
    cell_weights: np.ndarray
    shared: np.ndarray


def _lookup(config: ApparatusConfig) -> _Lookup:
    edges, weights = outcome_map(config, _COUNTED).lookup()
    edge_cells = (edges * _GRID_SCALE).astype(np.intp)
    # phi * _GRID_SCALE may round up to _GRID just below 2*pi: one extra cell
    cell_weights = weights[np.searchsorted(edge_cells, np.arange(_GRID + 1), side="left")]
    shared = np.zeros(_GRID + 1, dtype=bool)
    shared[edge_cells] = True
    cell_weights[shared] = 0
    return _Lookup(edges, weights, cell_weights, shared)


def _count_phis(config: ApparatusConfig, lookup: _Lookup, phis: np.ndarray) -> np.ndarray:
    """Counts of the COUNT_KEYS events over start angles in [0, 2*pi).

    Angles in an arc interior are counted from the outcome map; those in a
    guard band go through kinematic_counts.
    """
    cells = (phis * _GRID_SCALE).astype(np.intp)
    counts = np.bincount(cells, minlength=len(lookup.cell_weights)) @ lookup.cell_weights
    near = phis[lookup.shared[cells]]
    segment = np.searchsorted(lookup.edges, near, side="right")
    hist = np.bincount(segment, minlength=len(lookup.weights))
    counts += hist @ lookup.weights
    if hist[::2].any():
        counts += kinematic_counts(config, near[segment % 2 == 0])
    return counts


def run_sequence(config: ApparatusConfig, spec: SequenceSpec, workers: int = 1) -> SequenceResult:
    """Run one sequence; counts are independent of the worker split.

    Work is cut into fixed-size index chunks and reduced in chunk order, so
    any worker count yields identical counts.  The outcome map is built once,
    before any chunk runs; a ConsistencyError from it means the configuration
    breaks the exact engine's breakpoint assumption.
    """
    spec.validate()
    n = spec.n_trials
    ranges = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    totals = np.zeros(len(COUNT_KEYS), dtype=np.int64)
    if ranges:
        lookup = _lookup(config)

        def count(r: tuple[int, int]) -> np.ndarray:
            return _count_phis(config, lookup, phi_samples(spec.seed, *r))

        if workers > 1 and len(ranges) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(count, ranges))
        else:
            parts = [count(r) for r in ranges]
        for part in parts:
            totals += part
    return SequenceResult(setup=spec.setup, n_trials=n, counts=dict(zip(COUNT_KEYS, totals.tolist())))


@dataclass(frozen=True)
class EstimateReport:
    """Campaign summary: per-setup counts and estimates, plus derived tables."""

    gamma: float
    master_seed: int
    results: dict[str, SequenceResult]
    frequencies: SettingFrequencies
    #: None when some two-stop sequence ran zero trials.
    table: ConditionalTable | None

    def estimates(self) -> dict[str, dict[str, Estimate]]:
        return {s: r.estimates() for s, r in self.results.items() if r.n_trials > 0}


def run_campaign(plan: CampaignPlan, workers: int = 1) -> EstimateReport:
    """Run all sequences of a plan and assemble the estimate report."""
    plan.validate()
    lines = plan.engraving()
    results: dict[str, SequenceResult] = {}
    for spec in plan.sequences:
        config = config_for_setup(lines, plan.gamma, spec.setup)
        results[spec.setup] = run_sequence(config, spec, workers=workers)
    for setup in ALL_SETUPS:
        if setup not in results:
            results[setup] = SequenceResult(setup=setup, n_trials=0, counts={k: 0 for k in COUNT_KEYS})

    two_stop_n = {s: results[s].n_trials for s in TWO_STOP_SETUPS}
    total = sum(two_stop_n.values())
    if total == 0:
        raise PlanError("no two-stop trials: setting frequencies are undefined")
    freqs = SettingFrequencies(
        ab=two_stop_n["ab"] / total,
        abp=two_stop_n["ab'"] / total,
        apb=two_stop_n["a'b"] / total,
        apbp=two_stop_n["a'b'"] / total,
    ).validate()

    table: ConditionalTable | None = None
    if all(results[s].n_trials > 0 for s in TWO_STOP_SETUPS):
        joint: dict[str, float] = {}
        full: dict[str, dict[str, float]] = {}
        for s in TWO_STOP_SETUPS:
            r = results[s]
            full[s] = {cell: r.counts[cell] / r.n_trials for cell in CELLS}
            joint[s] = full[s]["11"]
        singles: dict[str, float | None] = {}
        for s in SINGLE_STOP_SETUPS:
            r = results[s]
            key = "left_stop" if s.startswith("a") else "right_stop"
            singles[s] = r.counts[key] / r.n_trials if r.n_trials > 0 else None
        table = ConditionalTable(joint=joint, singles=singles, full_tables=full).validate()
    return EstimateReport(
        gamma=plan.gamma,
        master_seed=plan.master_seed,
        results=results,
        frequencies=freqs,
        table=table,
    )
