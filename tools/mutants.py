"""Mutant runner: shows that the tier-1 suite notices a broken check or bound.

Each mutant is one textual edit of one source file, and every one is
expected to be killed.  For each mutant, one at a time, the runner copies the
repository to a temporary directory, applies the edit there, runs the tier-1
command in the copy and prints "killed" (some test failed) or "survived"
(every test passed).  An unmutated copy runs first and must pass, or every
"killed" would mean nothing.

Exit status: 0 when every mutant is killed; 1 when one survives; 2 when
the unmutated copy fails or a mutant's old text is not in its file exactly
once.

Run by hand from any directory, with the test dependencies installed:

    python tools/mutants.py

It is not part of tier-1: each mutant runs the whole suite, 10-40 s.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# The tier-1 command; -x stops at the first failure, which decides a kill.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# Left out of each copy: version control, caches, benchmark output.
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info", "out")

# No mutant takes longer than this; one that does counts as killed.
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str


_SRC = "src/ch_apparatus/"

MUTANTS = [
    # tolerances loosened a thousandfold or more
    Mutant("grid-oracle-tol", _SRC + "cli.py", "_GRID_ORACLE_TOL = 1e-5", "_GRID_ORACLE_TOL = 1e-2"),
    Mutant("rounding-tol", _SRC + "cli.py", "_ROUNDING_TOL = 1e-12", "_ROUNDING_TOL = 1e-6"),
    Mutant("table-tol", _SRC + "exact_engine.py", "TABLE_TOL = 1e-9", "TABLE_TOL = 1e-3"),
    Mutant("closed-form-tol", _SRC + "exact_engine.py", "CLOSED_FORM_TOL = 1e-12", "CLOSED_FORM_TOL = 1e-6"),
    Mutant("denom-tol", _SRC + "inequality_analysis.py", "DENOM_TOL = 1e-15", "DENOM_TOL = 1e-6"),
    Mutant("identity-tol", _SRC + "inequality_analysis.py", "IDENTITY_TOL = 1e-9", "IDENTITY_TOL = 1e-3"),
    Mutant("flag-tol", _SRC + "inequality_analysis.py", "FLAG_TOL = 1e-9", "FLAG_TOL = 1e-3"),
    Mutant("norm-tol", _SRC + "lhv_feasibility.py", "NORM_TOL = 1e-9", "NORM_TOL = 1e-3"),
    Mutant("pivot-tol", _SRC + "simplex.py", "_PIVOT_TOL = 1e-10", "_PIVOT_TOL = 1e-5"),
    Mutant(
        "guard-margin", _SRC + "exact_engine.py",
        "_GUARD_MARGIN = 4.0 * EPS_ANGLE", "_GUARD_MARGIN = 1e6 * EPS_ANGLE",
    ),
    # constants and rules changed
    Mutant("z95", _SRC + "monte_carlo.py", "Z95 = 1.959963984540054", "Z95 = 1.95"),
    Mutant("bland-reversed", _SRC + "simplex.py", "key=lambda i: basis[i],", "key=lambda i: -basis[i],"),
    Mutant(
        "ch-primed-reads-a-prime", _SRC + "inequality_analysis.py",
        "s.abp + s.ab - s.a - s.bp", "s.abp + s.ab - s.ap - s.bp",
    ),
    Mutant("ccw-delta-strict", _SRC + "circle_geometry.py", "if d >= TWO_PI:", "if d > TWO_PI:"),
    # a value built without its check
    Mutant(
        "config-unchecked", _SRC + "apparatus.py",
        "    def __post_init__(self) -> None:\n        validate_config(self)\n", "",
    ),
    Mutant(
        "plan-config-unchecked", _SRC + "monte_carlo.py",
        '        config_for_setup(self.lines, self.gamma, "ab")', "        pass",
    ),
    Mutant("conditional-table-unchecked", _SRC + "exact_engine.py", "    __post_init__ = validate\n", ""),
    Mutant("behavior-table-unchecked", _SRC + "lhv_feasibility.py", "    __post_init__ = validate\n", ""),
    # a campaign's results taken in another order than its sequences
    Mutant(
        "campaign-completion-order", _SRC + "monte_carlo.py",
        "for spec, future in zip(sequences, futures)}", "for spec, future in zip(sequences, reversed(futures))}",
    ),
    # an option that sets nothing admitted again
    Mutant(
        "campaign-workers-key", _SRC + "cli.py",
        '"campaign", {"trials", "seed"})', '"campaign", {"trials", "seed", "workers"})',
    ),
]


def _env(tree: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}


def _imports_from(tree: Path) -> bool:
    """Whether the package imports from tree, not from an installed copy."""
    probe = [sys.executable, "-c", "import ch_apparatus; print(ch_apparatus.__file__)"]
    out = subprocess.run(probe, cwd=tree, env=_env(tree), capture_output=True, text=True).stdout.strip()
    return Path(out).resolve().is_relative_to((tree / "src").resolve())


def _tier1(tree: Path) -> tuple[bool, str, float]:
    """Whether tier-1 passes in tree, its last output line, and its seconds."""
    env = _env(tree)
    started = time.perf_counter()
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - started
    lines = proc.stdout.strip().splitlines() or ["(no output)"]
    return proc.returncode == 0, lines[-1].strip("= "), time.perf_counter() - started


def _copy(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = _copy(Path(tmp))
        if not _imports_from(tree):
            print("ch_apparatus does not import from the copied tree: an installed copy shadows it", file=sys.stderr)
            return 2
        passed, summary, seconds = _tier1(tree)
    print(f"{'baseline' if passed else 'FAILED':<9}unmutated ({seconds:.0f} s: {summary})", flush=True)
    if not passed:
        return 2
    survivors = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
            tree = _copy(Path(tmp))
            try:
                _apply(tree, mutant)
            except LookupError as exc:
                print(exc, file=sys.stderr)
                return 2
            passed, summary, seconds = _tier1(tree)
        print(f"{'survived' if passed else 'killed':<9}{mutant.name} ({seconds:.0f} s: {summary})", flush=True)
        if passed:
            survivors.append(mutant.name)
    if survivors:
        print(f"survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
