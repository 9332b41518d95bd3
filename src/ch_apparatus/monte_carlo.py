"""Seeded trial campaigns over the eight stop setups.

A campaign is stated once, as a CampaignPlan: engraving, gamma, trials per
setup and the master seed every sequence seed derives from.  A sequence runs
with the stops its setup label names, and a report holds the plan it ran.

Start angles come from a counter-based generator, SplitMix64 (Steele, Lea &
Flood 2014): trial i of a sequence is a pure function of (seed, i), so any
index range can be generated on its own and a campaign is bitwise
reproducible however its index range is cut into chunks.  Its 53-bit output
m becomes the angle angle(m) = (m * 2**-53) * 2*pi.

Campaigns count on m itself, through lookups built from the guarded arcs of
one partition for all sequences (_lookups).  A chunk locates each m in a
grid of equal cells by a shift and bins it by cell.  angle(m) is monotone in
m, so a cell whose outputs all lie on one side of every edge of the lookup
lies in one segment; only the m in the few cells where an edge falls between
outputs become angles, are searched among the edges and binned by segment,
and of those only the ones in a guard band around a breakpoint run through
the kinematics.  The bins are weighted once per sequence, so memory does not
grow with the number of trials.  The counts equal those of run_trials on
every angle (kinematic_counts), which the tests and the check suite verify.
A sequence's chunks run one after another; a campaign runs its sequences
side by side, one per usable CPU, and since each count is a pure function of
the sequence's spec the thread count changes no byte of a report.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .apparatus import (
    ALL_SETUPS,
    CELLS,
    LINE_NAMES,
    TWO_STOP_SETUPS,
    ApparatusConfig,
    EngravedLines,
    _not_a_count,
    config_for_setup,
    run_trials,
)
from .circle_geometry import TWO_PI
from .exact_engine import (
    _CELL_EVENTS,
    _GUARD_MARGIN,
    ConditionalTable,
    _guarded,
    _table,
    lines_crossed,
    stop_reached,
)
from .inequality_analysis import SettingFrequencies

# 95% two-sided normal quantile, used by the Wilson score interval.
Z95 = 1.959963984540054

_CHUNK = 1 << 16

# Counts tracked per sequence: stop-reach cells, per-side stop reaches, and
# the four line crossings.
COUNT_KEYS = (*CELLS, "left_stop", "right_stop", *LINE_NAMES)

# The events behind COUNT_KEYS, in the same order; the exact engine measures
# the same predicates on arcs.
_COUNTED = (
    *_CELL_EVENTS,
    stop_reached("left"),
    stop_reached("right"),
    *(lines_crossed(name) for name in LINE_NAMES),
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
    "check_seed",
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
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _steps(n: int) -> np.ndarray:
    """i * golden gamma for i in [0, n), wrapping modulo 2**64: the counter
    offsets of n consecutive trials."""
    steps = np.arange(n, dtype=np.uint64)
    steps *= _GOLDEN
    return steps


def _states(seed: int, start: int, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unmixed generator states of trial indices start, start + 1, ... (one
    per entry of steps) into out: (index + 1) * golden gamma + seed."""
    offset = ((int(start) + 1) * int(_GOLDEN) + int(seed)) & _MASK64
    return np.add(steps, np.uint64(offset), out=out)


def _premix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of the uint64 array z in place, all but its last
    step z ^= z >> 31, which leaves the top 31 bits as they are; tmp is
    scratch space of the same shape."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    return z


def _finish(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Last step of the splitmix64 finalizer, in place."""
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of the uint64 array z, in place; tmp is scratch
    space of the same shape."""
    return _finish(_premix(z, tmp), tmp)


def _angles(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """angle(m) = (m * 2**-53) * 2*pi of 53-bit outputs m, into the float64
    array out (a new one by default; it may share m's buffer).  The
    conversion and the power of two are exact; only the product with 2*pi
    rounds, so angle is monotone in m."""
    if out is None:
        out = np.empty(len(m))
    out[...] = m
    out *= 1.0 / (1 << 53)
    out *= TWO_PI
    return out


def phi_samples(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform start angles for trial indices [start, stop).

    Pure function of (seed, index): the counter stream can be cut at any
    point without changing a single value.  The seed follows check_seed, and
    start and stop are integers.
    """
    check_seed(seed)
    if _not_a_count(start) or _not_a_count(stop) or not 0 <= start <= stop:
        raise ValueError(f"bad index range [{start!r}, {stop!r})")
    z = _states(seed, start, _steps(stop - start), np.empty(stop - start, dtype=np.uint64))
    tmp = np.empty_like(z)
    _mix64(z, tmp)
    z >>= np.uint64(11)
    return _angles(z, tmp.view(np.float64))


def check_seed(seed: int) -> int:
    """Return a seed after checking it is an integer, 0 <= seed < 2**64.

    sequence_seed and the counter stream keep only the low 64 bits, so a
    seed outside that range would print as itself and sample another's.
    """
    if _not_a_count(seed):
        raise PlanError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise PlanError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    return seed


def sequence_seed(master_seed: int, setup: str) -> int:
    """Per-sequence seed derived from the master seed, which follows
    check_seed, and the setup's slot."""
    check_seed(master_seed)
    if setup not in ALL_SETUPS:
        raise PlanError(f"unknown setup label {setup!r}")
    z = np.array([master_seed], dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(ALL_SETUPS.index(setup) + 1)
    return int(_mix64(z, np.empty_like(z))[0])


@dataclass(frozen=True)
class SequenceSpec:
    """One run of trials with a fixed stop setup, checked when built."""

    setup: str
    n_trials: int
    seed: int

    def validate(self) -> "SequenceSpec":
        if self.setup not in ALL_SETUPS:
            raise PlanError(f"unknown setup label {self.setup!r}")
        if _not_a_count(self.n_trials) or self.n_trials < 0:
            raise PlanError(f"n_trials must be a nonnegative integer, got {self.n_trials!r}")
        check_seed(self.seed)
        return self
    __post_init__ = validate


@dataclass(frozen=True)
class CampaignPlan:
    """One count of trials per setup, in ALL_SETUPS order, plus the
    apparatus parameters and the master seed.

    Each sequence's seed is derived from the master seed and its setup, so
    the master seed alone reproduces the plan.  Single-stop setups may have
    zero trials; the useless trials can be spared.  Checked when built.
    """

    gamma: float
    lines: EngravedLines
    trials: tuple[int, ...]
    master_seed: int

    @property
    def sequences(self) -> tuple[SequenceSpec, ...]:
        """One sequence per setup, in ALL_SETUPS order."""
        return tuple(SequenceSpec(s, n, sequence_seed(self.master_seed, s)) for s, n in zip(ALL_SETUPS, self.trials))

    @classmethod
    def from_params(
        cls,
        gamma: float,
        lines: EngravedLines,
        n_trials: int | dict[str, int] = 10**6,
        master_seed: int = 0,
    ) -> "CampaignPlan":
        """A plan of one sequence per setup.  ``n_trials`` is one count for
        every setup, or counts by setup label, 0 for a label left out."""
        if not isinstance(n_trials, dict):
            if _not_a_count(n_trials):
                raise PlanError(f"n_trials: {n_trials!r} is not an integer")
            n_trials = dict.fromkeys(ALL_SETUPS, n_trials)
        problems = [f"unknown setup label {s!r}" for s in n_trials if s not in ALL_SETUPS]
        problems += [f"count {n!r} for setup {s!r} is not an integer" for s, n in n_trials.items() if _not_a_count(n)]
        if problems:
            raise PlanError("n_trials: " + "; ".join(problems))
        return cls(gamma, lines, tuple(int(n_trials.get(s, 0)) for s in ALL_SETUPS), master_seed)

    def validate(self) -> "CampaignPlan":
        check_seed(self.master_seed)
        counts = self.trials if isinstance(self.trials, tuple) else ()
        if len(counts) != len(ALL_SETUPS) or any(_not_a_count(n) or n < 0 for n in counts):
            raise PlanError(f"trials must be one nonnegative integer per setup of {ALL_SETUPS}, got {self.trials!r}")
        config_for_setup(self.lines, self.gamma, "ab")  # gamma and the engraving
        return self
    __post_init__ = validate


class Estimate(NamedTuple):
    """Point estimate with its binomial standard error and Wilson 95% CI."""

    p_hat: float
    stderr: float
    ci95: tuple[float, float]


def estimate(count: int, n: int) -> Estimate:
    """Binomial estimate from ``count`` hits in ``n`` trials.

    The Wilson interval of a count of 0 starts at 0, and that of a count of
    n ends at 1; both ends are set exactly, where the formula would leave a
    rounding sliver that misses an exact probability of 0 or 1.
    """
    if _not_a_count(count) or _not_a_count(n):
        raise ValueError(f"count and n must be integers, got count={count!r}, n={n!r}")
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
    lower = 0.0 if count == 0 else max(0.0, center - half)
    upper = 1.0 if count == n else min(1.0, center + half)
    return Estimate(p_hat=p, stderr=stderr, ci95=(lower, upper))


@dataclass(frozen=True)
class SequenceResult:
    setup: str
    n_trials: int
    counts: dict[str, int]

    def estimates(self) -> dict[str, Estimate]:
        return {key: estimate(c, self.n_trials) for key, c in self.counts.items()}


def kinematic_counts(config: ApparatusConfig, phis: np.ndarray) -> np.ndarray:
    """Counts of the COUNT_KEYS events over the start angles, each angle run
    through run_trials: the route that needs no lookup."""
    batch = run_trials(config, phis)
    return np.array([np.count_nonzero(event.batch(batch)) for event in _COUNTED], dtype=np.int64)


# Equal cells of the 53-bit sampler outputs: an output's cell is its top
# bits, m >> _CELL_SHIFT.
_GRID = 4096
_CELL_SHIFT = 41  # 2**53 outputs over _GRID cells


class _Lookup(NamedTuple):
    """The checked arc interiors of one setup's partition and the COUNT_KEYS
    weights of each, plus a grid of _GRID cells of sampler outputs.

    ``searchsorted(edges, angle(m), "right")`` is the segment, and so the row
    of ``weights``, that output m falls in: an odd segment is the checked
    interior of an arc, weighted by its event bits, an even one a guard band
    around a breakpoint, weighted 0.  Each cell holds the outputs m with
    m >> _CELL_SHIFT equal to its index; angle is monotone in m, so a cell
    whose outputs all lie on one side of every edge lies in one segment,
    ``cell_segment``.  Cells that hold the least output reaching some edge
    (``shared``) map to segment 0; the angles of their outputs are searched
    among the edges.  The setups of one engraving share every field but
    ``weights``.
    """

    edges: np.ndarray
    weights: np.ndarray
    cell_segment: np.ndarray
    shared: np.ndarray


def _grid(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment of each cell's first output (0 in a shared cell), and the
    shared cells: those that hold the least output t(e) = min{m : angle(m)
    >= e} reaching an edge e.

    t(e) lies in the first cell whose last output reaches e; an edge that no
    output reaches (one at 2*pi) gives index _GRID and holds no cell.
    """
    starts = np.arange(_GRID, dtype=np.uint64) << np.uint64(_CELL_SHIFT)
    cell_segment = np.searchsorted(edges, _angles(starts), side="right")
    lasts = _angles(starts + np.uint64((1 << _CELL_SHIFT) - 1))
    shared = np.zeros(_GRID + 1, dtype=bool)
    shared[np.searchsorted(lasts, edges, side="left")] = True
    shared = shared[:_GRID]
    cell_segment[shared] = 0
    return cell_segment, shared


def _lookups(config: ApparatusConfig, setups: Sequence[str] | None) -> list[_Lookup]:
    """The _Lookup of each row of _guarded(config, setups, _COUNTED): config's
    own stops when setups is None, else each setup of config's engraving.

    The edges bound the checked interior [guard[k, 1], guard[k, 2]) of each
    arc k at least two guard margins wide, in circle order, an interior that
    wraps through 0 split at 2*pi; narrower arcs lie in guard bands.
    """
    extents, guard, bits, _ = _guarded(config, setups, _COUNTED)
    pieces = []
    wide = np.flatnonzero(extents >= 2.0 * _GUARD_MARGIN).tolist()
    for k, lo, hi in zip(wide, guard[wide, 1].tolist(), guard[wide, 2].tolist()):
        if lo <= hi:
            pieces.append((lo, hi, k))
        else:
            pieces.extend(((lo, TWO_PI, k), (0.0, hi, k)))
    pieces.sort()
    edges = np.array([x for lo, hi, _k in pieces for x in (lo, hi)], dtype=np.float64)
    arcs = np.array([k for _lo, _hi, k in pieces], dtype=np.intp)
    cell_segment, shared = _grid(edges)
    weights = np.zeros((len(bits), len(edges) + 1, bits.shape[2]), dtype=np.int64)
    weights[:, 1::2] = bits[:, arcs]
    return [_Lookup(edges, rows, cell_segment, shared) for rows in weights]


class _Tally:
    """Fixed-size histograms of one sequence: outputs per grid cell, searched
    outputs per segment, and COUNT_KEYS counts of guard-band outputs."""

    def __init__(self, config: ApparatusConfig, lookup: _Lookup):
        self.config, self.lookup = config, lookup
        self.cells = np.zeros(_GRID, dtype=np.int64)
        self.segments = np.zeros(len(lookup.weights), dtype=np.int64)
        self.kinematic = np.zeros(len(COUNT_KEYS), dtype=np.int64)

    def add(self, z: np.ndarray, tmp: np.ndarray) -> None:
        """Bin the outputs of states z, mixed by _premix, by cell (read before
        _finish, which keeps the top bits) and, in shared cells, by the
        segment of their angles, which also feed the guard-band kinematics;
        z and tmp (scratch of the same shape) are overwritten."""
        cells = np.right_shift(z, np.uint64(_CELL_SHIFT + 11), out=tmp).view(np.int64)
        self.cells += np.bincount(cells, minlength=_GRID)
        near = z[self.lookup.shared[cells]]
        phis = _angles(_finish(near, np.empty_like(near)) >> np.uint64(11))
        segment = np.searchsorted(self.lookup.edges, phis, side="right")
        hist = np.bincount(segment, minlength=len(self.segments))
        self.segments += hist
        if hist[::2].any():
            self.kinematic += kinematic_counts(self.config, phis[segment % 2 == 0])

    def counts(self) -> np.ndarray:
        """Cells join their segments, and segments count by their weights."""
        segments = self.segments.copy()
        np.add.at(segments, self.lookup.cell_segment, self.cells)
        return segments @ self.lookup.weights + self.kinematic


def run_sequence(
    lines: EngravedLines,
    gamma: float,
    spec: SequenceSpec,
    *,
    _shared: tuple[_Lookup, np.ndarray, np.ndarray] | None = None,
) -> SequenceResult:
    """Run one sequence on the engraving, with the stops spec.setup names.

    Trials are binned in fixed-size index chunks, in chunk order, through
    one pair of buffers, into a _Tally of fixed size counted at the end.
    The lookup, the step table and the buffers come from run_campaign, or
    else are built here, the lookup from the setup's own partition before
    any chunk runs; a ConsistencyError from it means the configuration
    breaks the exact engine's breakpoint assumption.
    """
    config = config_for_setup(lines, gamma, spec.setup)
    n = spec.n_trials
    totals = np.zeros(len(COUNT_KEYS), dtype=np.int64)
    if n > 0:
        if _shared is None:
            steps = _steps(min(n, _CHUNK))
            _shared = (_lookups(config, None)[0], steps, np.empty((2, len(steps)), dtype=np.uint64))
        lookup, steps, buffers = _shared
        tally = _Tally(config, lookup)
        for lo in range(0, n, _CHUNK):
            size = min(_CHUNK, n - lo)
            z, tmp = buffers[:, :size]
            _premix(_states(spec.seed, lo, steps[:size], z), tmp)
            tally.add(z, tmp)
        totals = tally.counts()
    return SequenceResult(setup=spec.setup, n_trials=n, counts=dict(zip(COUNT_KEYS, totals.tolist())))


@dataclass(frozen=True)
class EstimateReport:
    """Campaign summary: the plan it ran, per-setup counts and estimates,
    plus derived tables."""

    plan: CampaignPlan
    #: Every setup, in ALL_SETUPS order.
    results: dict[str, SequenceResult]
    frequencies: SettingFrequencies
    #: None when some two-stop sequence ran zero trials.
    table: ConditionalTable | None

    def estimates(self) -> dict[str, dict[str, Estimate]]:
        return {s: r.estimates() for s, r in self.results.items() if r.n_trials > 0}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_campaign(plan: CampaignPlan) -> EstimateReport:
    """Run all sequences of a plan and assemble the estimate report.

    Every sequence is submitted to a thread pool of min(usable CPUs,
    sequences with trials) workers, which take them in ALL_SETUPS order, so
    unequal counts still balance.  Each worker runs its sequences through
    its own pair of chunk buffers; the step table and the lookups are built
    once and only read.  The pool is shut down, every sequence run and every
    worker joined, before the results are taken in ALL_SETUPS order, so the
    error of the first failing sequence in that order is raised here.
    """
    sequences = plan.sequences
    live = [spec.setup for spec in sequences if spec.n_trials > 0]
    lookups = dict(zip(live, _lookups(config_for_setup(plan.lines, plan.gamma, live[0]), live))) if live else {}
    steps = _steps(min(_CHUNK, max(plan.trials)))
    local = threading.local()

    def work(spec: SequenceSpec) -> SequenceResult:
        if not hasattr(local, "buffers"):
            local.buffers = np.empty((2, len(steps)), dtype=np.uint64)
        return run_sequence(plan.lines, plan.gamma, spec, _shared=(lookups.get(spec.setup), steps, local.buffers))

    with ThreadPoolExecutor(max(1, min(_usable_cpus(), len(live))), thread_name_prefix="campaign") as pool:
        futures = [pool.submit(work, spec) for spec in sequences]
    results = {spec.setup: future.result() for spec, future in zip(sequences, futures)}

    two_stop_n = [results[s].n_trials for s in TWO_STOP_SETUPS]
    total = sum(two_stop_n)
    if total == 0:
        raise PlanError("no two-stop trials: setting frequencies are undefined")
    freqs = SettingFrequencies(*(n / total for n in two_stop_n))

    table: ConditionalTable | None = None
    if all(results[s].n_trials > 0 for s in TWO_STOP_SETUPS):
        rows = [[r.counts[cell] / r.n_trials for cell in CELLS] if r.n_trials > 0 else None for r in results.values()]
        table = _table(rows)
    return EstimateReport(plan, results, freqs, table)
