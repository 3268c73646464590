"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its tiny size, untraced and
traced.  Each run must exit 0, end with the result object, report every
metric BENCHMARK.json names with its unit, print each name in its
report lines too, and count no failed operation: failures on the known
library defects (workloads.KNOWN_DEFECTS) are reported apart.  Then each
workload runs with --corrupt, which perturbs one result of every
operation before its check; those runs must count more failed operations
than the clean run.  Exits 1 after listing every
problem found.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {out.returncode}:\n"
                           f"{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(label, lines, result, metrics, problems):
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result[
            "attempted"]:
        problems.append(f"{label}: attempted/failed {result['attempted']}/"
                        f"{result['failed']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool):
            problems.append(f"{label}: {name} is not a number")
    text = "\n".join(lines)
    for name in want:
        if name not in text:
            problems.append(f"{label}: {name} missing from the report lines")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        lines, clean = run(workload, 0)
        check_result(f"{workload} trace 0", lines, clean,
                     spec["end_to_end"], problems)
        for name in ("src/arithjet line count", "fail_ratio"):
            if not any(name in line for line in lines):
                problems.append(f"{workload}: no {name} line")
        if clean["failed"] or not clean["correct"]:
            problems.append(f"{workload}: {clean['failed']} operations "
                            f"failed on clean inputs")
        for name, m in clean["metrics"].items():
            if m["value"] <= 0:
                problems.append(f"{workload}: {name} = {m['value']}")
        lines, traced = run(workload, 1)
        check_result(f"{workload} trace 1", lines, traced,
                     spec["per_layer"], problems)
        _, corrupt = run(workload, 0, "--corrupt")
        if corrupt["failed"] <= clean["failed"] or corrupt["correct"]:
            problems.append(f"{workload}: corrupted results not counted "
                            f"({corrupt['failed']} failed with --corrupt, "
                            f"{clean['failed']} without)")
        print(f"{workload}: ok so far ({clean['failed']}/{clean['attempted']}"
              f" failed clean, {corrupt['failed']}/{corrupt['attempted']} "
              f"with --corrupt)", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
