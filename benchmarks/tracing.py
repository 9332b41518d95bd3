"""Timing spans around the package's public functions.

The package's modules import each other's functions by name (for example
``from .apparatus import run_trials`` in ``monte_carlo``), so wrapping only
the defining module would miss most calls.  ``Tracer`` therefore replaces a
target in every module namespace of the package that holds the same function
object, and restores all of them on ``uninstall``.

Spans are kept in memory as tuples ``(id, name, start, end, parent, thread,
size)``; the caller takes them after each traced call, summarises them and
writes them out when the run ends.  ``size`` is a per-function work count
(trials in a batch, arcs returned, bytes rendered, workers asked for).
"""

from __future__ import annotations

import bisect
import functools
import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# note(tracer, args, kwargs, result) -> int size recorded on the span
Note = Callable[["Tracer", tuple, dict, Any], int]

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "size")


class Tracer:
    """Wraps target functions at every caller and records one span per call.

    ``targets`` maps ``"module.function"`` (relative to ``package``) to an
    optional ``Note`` that extracts the span's size from the call.
    """

    def __init__(self, package: str, targets: dict[str, Note | None]):
        self.spans: list[tuple] = []
        # table id -> [table, LP verdict, battery verdict]; the table is kept
        # alive so that its id cannot be reused by another table
        self.verdicts: dict[int, list] = {}
        self.owner = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = self._plan(package, targets)

    def _plan(self, package: str, targets: dict[str, Note | None]) -> list[tuple]:
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")
        ]
        patches = []
        for qualname, note in targets.items():
            modname, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{modname}"], attr)
            wrapper = self.wrap(qualname, original, note)
            holders = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            patches.extend((m, k, original, wrapper) for m, k in holders)
        return patches

    def install(self) -> None:
        for module, key, _original, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _wrapper in self._patches:
            setattr(module, key, original)

    def patched_names(self) -> list[str]:
        return sorted(f"{m.__name__}.{k}" for m, k, _o, _w in self._patches)

    def wrap(self, name: str, fn: Callable, note: Note | None = None) -> Callable:
        """Return ``fn`` wrapped so that every call records a span."""
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                size = note(self, args, kwargs, result) if note is not None and result is not None else 0
                spans.append((sid, name, start, end, parent, get_ident(), size))

        functools.update_wrapper(traced, fn)
        return traced

    def take_spans(self) -> list[tuple]:
        """Spans recorded since the last call; the tracer keeps none of them."""
        taken = self.spans[:]
        self.spans.clear()
        return taken

    def note_verdict(self, table: Any, kind: int, verdict: bool) -> None:
        """Record an LP (kind 0) or CH-battery (kind 1) verdict on a table."""
        entry = self.verdicts.setdefault(id(table), [table, None, None])
        entry[1 + kind] = bool(verdict)

    def take_verdict_agreement(self, is_no_signaling: Callable[[Any], bool]) -> tuple[int, int]:
        """(tables judged by both routes and no-signaling, of those agreeing)
        since the last call; the recorded verdicts are dropped."""
        compared = agreed = 0
        for table, lp, battery in self.verdicts.values():
            if lp is None or battery is None or not is_no_signaling(table):
                continue
            compared += 1
            agreed += lp == battery
        self.verdicts.clear()
        return compared, agreed


def write_spans(path, spans: list[tuple]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(",".join(SPAN_FIELDS) + "\n")
        for sid, name, start, end, parent, thread, size in spans:
            fh.write(f"{sid},{name},{start!r},{end!r},{parent},{thread},{size}\n")


def _merged_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def resolve_parents(spans: list[tuple], owner: int) -> dict[int, int]:
    """Parent of every span, adopting worker-thread roots into the owner thread.

    A span that starts a worker thread's stack has no parent on its own
    thread.  It is attached to the deepest span of the owner thread whose
    interval contains it, which is the call that was waiting for the worker.
    """
    parent = {s[0]: s[4] for s in spans}
    kids: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
    for sid, _name, start, end, par, thread, _size in spans:
        if thread == owner:
            kids[par].append((start, end, sid))
    for lst in kids.values():
        lst.sort()
    starts = {par: [k[0] for k in lst] for par, lst in kids.items()}
    for sid, _name, start, end, par, thread, _size in spans:
        if thread == owner or par != 0:
            continue
        best, level = 0, 0
        while level in kids:
            i = bisect.bisect_right(starts[level], start) - 1
            if i < 0:
                break
            k_start, k_end, k_id = kids[level][i]
            if k_end < end:
                break
            best = level = k_id
        parent[sid] = best
    return parent


def summarize(spans: list[tuple], parent: dict[int, int]) -> dict[str, dict[str, float]]:
    """Per-name calls, total time, self time and summed size.

    Self time is a span's duration minus the part of its interval covered by
    its child spans (on any thread); ``parent`` comes from resolve_parents.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[parent[s[0]]].append((s[2], s[3]))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}
    )
    for sid, name, start, end, _par, _thread, size in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _merged_length(children.get(sid, []), start, end)
        row["size"] += size
    return dict(out)


def busy_and_wall(
    spans: list[tuple], parent: dict[int, int], outer: str, inner: str, size: int
) -> tuple[float, float]:
    """Summed duration of ``inner`` spans below ``outer`` spans of the given
    size, and the summed duration of those ``outer`` spans."""
    walls = {s[0]: s[3] - s[2] for s in spans if s[1] == outer and s[6] == size}
    busy = 0.0
    for s in spans:
        if s[1] != inner:
            continue
        p = parent[s[0]]
        while p and p not in walls:
            p = parent.get(p, 0)
        if p:
            busy += s[3] - s[2]
    return busy, sum(walls.values())
