"""Self-test of the benchmark.

Every workload runs at a tiny size, untraced and traced, and must report
exactly the metrics of BENCHMARK.json with their units and no failed
operation.  That includes ``selfcheck``, which BENCHMARK.json does not list.  Two injected faults must each raise failed_ratio above 0:
run_checks(perturb_closed_form=1e-6) in selfcheck, and behavior tables
perturbed by 1e-3 in lhv_tables.  Without the package source the benchmark
must exit with a nonzero code and print no result.

Usage, from the repository root: python3 benchmarks/selftest.py
It takes under a minute, most of it in the check suite, and exits 0 when
every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# Constructor arguments that make a workload call small.
TINY = {"campaign": {"trials": 1 << 16}}
FAULTS = (
    ("selfcheck", {"perturb_closed_form": 1e-6}),
    ("lhv_tables", {"perturb": 1e-3}),
)


def main() -> int:
    if not run.use_source():
        print("error: no package source", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors: list[str] = []

    import workloads

    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.measure(workload, 0, 0.2, trace, probes=1, **TINY.get(workload, {}))["result"]
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            before = len(errors)
            if units != expected[trace]:
                errors.append(f"{label}: metrics {units} != BENCHMARK.json {expected[trace]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            status = "FAIL" if len(errors) > before else "ok"
            print(f"{status} {label}: {len(units)} metrics, {result['attempted']} operations", flush=True)

    for workload, params in FAULTS:
        result = run.measure(workload, 0, 0.2, False, probes=1, **params)["result"]
        caught = result["failed"] > 0
        if not caught:
            errors.append(f"{workload} with {params}: the gate missed the injected fault")
        status = "ok" if caught else "FAIL"
        print(f"{status} {workload} {params}: {result['failed']} of {result['attempted']} failed", flush=True)

    # the benchmark alone, without src/, must refuse to produce a result
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "campaign", "--seed", "0", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    if not refused:
        errors.append(f"without src/ the benchmark exited {proc.returncode} with output {proc.stdout!r}")
    print(f"{'ok' if refused else 'FAIL'} without src/: exit {proc.returncode}", flush=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
