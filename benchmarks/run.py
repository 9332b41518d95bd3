"""Benchmark of the ch_apparatus package.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload makes a fixed set of inputs from the seed.  One client then
drives the program in process as a closed loop, pass after pass over the set,
for S seconds and up to the end of the pass: it times the call on each input,
checks the output and records the sha256 of its report.  A call that raises
counts as a failed operation; its input is never replaced.  The end-to-end
metrics come from each input's fastest call.

With ``--trace 0`` the end-to-end metrics are measured with no tracing.  With
``--trace 1`` the run alternates blocks of untraced and traced calls; the
traced ones give the per-layer metrics and the difference of the two halves
gives the tracing overhead.  Stdout holds one line per metric, then one JSON
line {"correct", "attempted", "failed", "metrics"}.  A sidecar with the
environment, the report digests, the latencies and (traced runs) the spans
is written to benchmarks/out/.  Workloads and metrics: see README.md.
"""

from __future__ import annotations

import os

# Pin BLAS thread pools to one thread before numpy is imported here or in a
# set-up probe, so that the threads in use stay within nproc.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
MAX_LOGGED_PROBLEMS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def use_source() -> bool:
    """Put the checkout's src/ first on sys.path; False when it has no package."""
    if not (SRC / "ch_apparatus" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile up to 99 with at least ten samples beyond it.

    Below twenty samples no percentile above the median has ten beyond it,
    and the median is reported in its place.
    """
    if n < 20:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


def git_rev(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: build[k] for k in ("blas", "lapack") if k in build}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(ROOT),
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def setup_time(workload: str, seed: int) -> float:
    """import + first call, in seconds, in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["first_call_s"]


def measure(name: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES, **params) -> dict:
    """Run one workload and return its result, metrics and sidecar record.

    ``params`` reach the workload's constructor (smaller sizes and injected
    faults for the self-test); the set-up probes always use the defaults.
    """
    import layers
    import workloads

    workload = workloads.WORKLOADS[name](seed, **params)
    workload.prepare()
    if trace:
        probes = 0

    layer_trace = layers.LayerTrace() if trace else None
    tracer = layer_trace.tracer if trace else None
    traced_call = tracer.wrap("bench.call", workload.call) if trace else None
    n_inputs = len(workload.inputs)
    latencies: dict[bool, list[float]] = {False: [], True: []}
    # per input: fastest untraced call that passed, and its parts
    best = [math.inf] * n_inputs
    best_parts: list[dict[str, tuple[int, float]]] = [{} for _ in range(n_inputs)]
    first_digest: list[str | None] = [None] * n_inputs
    digests: list[str] = []
    problems_log: list[str] = []
    failed = passed_items = 0
    timed: list[float] = []  # counted seconds of the untraced calls that passed
    setup: list[float] = []
    probe_s = 0.0
    started = time.perf_counter()
    i = 0
    while True:
        if i % n_inputs == 0:
            # Between passes: the set-up probes, spread evenly over the run so
            # that their median sees the same host as the calls.  Their time
            # does not count towards ``seconds``.
            elapsed = time.perf_counter() - started - probe_s
            while len(setup) < probes and elapsed >= len(setup) * seconds / probes:
                t0 = time.perf_counter()
                setup.append(setup_time(name, seed))
                probe_s += time.perf_counter() - t0
            # runs end only between passes, so every input ran equally often
            if elapsed >= seconds and latencies[False] and (latencies[True] or not trace):
                break
        traced = bool(trace) and (i // workload.trace_block) % 2 == 1
        k = i % n_inputs
        inp = workload.inputs[k]
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = (traced_call if traced else workload.call)(inp)
            error = None
        except Exception as exc:  # a failed operation is counted, never retried
            out, error = None, f"call {i} raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            layer_trace.end_call()
        latencies[traced].append(dt)
        if error is None:
            digest = workloads.sha256_hex(workload.report(out))
            digests.append(digest)
            problems = workload.check(inp, out, digest)
            if first_digest[k] is None:
                first_digest[k] = digest
            elif digest != first_digest[k]:
                problems.append(f"call {i}: report of input {k} differs from its first report")
        else:
            digests.append("")
            problems = [error]
        if problems:
            failed += 1
            problems_log.extend(problems[: MAX_LOGGED_PROBLEMS - len(problems_log)])
        elif not traced:
            timed_s = workload.timed_s(out, dt)
            timed.append(timed_s)
            passed_items += workload.items(inp)
            if timed_s < best[k]:
                best[k] = timed_s
                best_parts[k] = workload.parts(out)
        i += 1
    loop_s = time.perf_counter() - started - probe_s
    attempted = i

    untraced = sorted(latencies[False])
    ran = [k for k in range(n_inputs) if best[k] < math.inf]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "params": params,
        "environment": environment(),
        "item": workload.item,
        "n_inputs": n_inputs,
        "passes": attempted / n_inputs,
        "loop_s": loop_s,
        "calls": {"untraced": len(untraced), "traced": len(latencies[True])},
        "problems": problems_log,
        "report_sha256": digests,
        "latencies_s": latencies[False],
        "timed_latencies_s": timed,
        "best_latencies_s": [best[k] for k in ran],
    }
    notes: dict[str, str] = {}
    if trace:
        traced_lat = sorted(latencies[True])
        overhead = statistics.median(traced_lat) / statistics.median(untraced) - 1.0
        metrics = layer_trace.metrics(len(traced_lat), overhead)
        record["traced_latencies_s"] = latencies[True]
        record["span_summary"] = layer_trace.summary
        record["spans_kept"] = len(layer_trace.kept)
        record["spans_dropped"] = layer_trace.dropped
        record["patched"] = tracer.patched_names()
        notes["trace.overhead_share"] = (
            f"median of {len(traced_lat)} traced vs {len(untraced)} untraced calls"
        )
        notes["trace.calls"] = "traced workload calls"
    else:
        best_sorted = sorted(best[k] for k in ran)
        n = len(best_sorted)
        tail_q = tail_percentile(n)
        best_s = sum(best_sorted)
        items = sum(workload.items(workload.inputs[k]) for k in ran)
        values = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "throughput_per_s": items / best_s if best_s > 0 else 0.0,
            "latency_p50_ms": percentile(best_sorted, 50.0) * 1e3 if n else 0.0,
            "latency_p99_ms": percentile(best_sorted, tail_q) * 1e3 if n else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        parts: dict[str, list[float]] = {}  # label -> [items, seconds]
        for k in ran:
            for label, (n_part, sec) in best_parts[k].items():
                total = parts.setdefault(label, [0, 0.0])
                total[0] += n_part
                total[1] += sec
        record["setup_samples_s"] = setup
        record["tail_percentile"] = tail_q
        record["parts_throughput_per_s"] = {label: n_part / sec for label, (n_part, sec) in parts.items()}
        record["all_calls"] = {
            "throughput_per_s": passed_items / sum(timed) if timed else 0.0,
            "latency_p50_ms": percentile(sorted(timed), 50.0) * 1e3 if timed else 0.0,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "throughput_per_s": f"{workload.item}s per second of the {n} inputs' fastest calls",
            "latency_p50_ms": f"p50 of the {n} inputs' fastest calls",
            "latency_p99_ms": f"p{tail_q:g} of the {n} inputs' fastest calls",
            "peak_rss_mb": "max resident set of this process",
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    return {"result": result, "record": record, "notes": notes, "layer_trace": layer_trace}


def write_sidecar(run: dict) -> Path:
    from tracing import write_spans

    record = run["record"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    path = OUT_DIR / f"{stem}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    if run["layer_trace"] is not None:
        write_spans(OUT_DIR / f"{stem}.spans.csv.gz", run["layer_trace"].kept)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not use_source():
        print(f"error: no package source at {SRC / 'ch_apparatus'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sidecar = write_sidecar(run)
    result = run["result"]
    for name, metric in result["metrics"].items():
        note = run["notes"].get(name, "per traced call")
        print(f"{name} = {metric['value']!r} {metric['unit']}  ({note})")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_ratio = {ratio!r}  ({result['failed']} of {result['attempted']} operations)")
    for label, value in run["record"].get("parts_throughput_per_s", {}).items():
        print(f"throughput_per_s[{label}] = {value!r} 1/s  (part of the fastest calls; not in BENCHMARK.json)")
    if "all_calls" in run["record"]:
        n = run["record"]["calls"]["untraced"]
        for key, value in run["record"]["all_calls"].items():
            unit = "ms" if key.endswith("_ms") else "1/s"
            print(f"{key}[all calls] = {value!r} {unit}  (over all {n} calls; not in BENCHMARK.json)")
    for problem in run["record"]["problems"]:
        print(f"problem: {problem}")
    print(f"sidecar: {sidecar.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
