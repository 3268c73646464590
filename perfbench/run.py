"""The arithjet benchmark.

    python3 perfbench/run.py --workload curve-batch --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it uses the library under
`src/` and writes no files.  It runs rounds of the chosen workload one
after another, each in a fresh interpreter (worker.py), until about
`--seconds` of measuring have passed; a round is never cut short, so a
run takes at least one whole round.  Load comes from one process and one
thread.

The report lines come first: the metrics with their units, the operations
that failed their checks, the precision ledger of every crystal run and
the `src/arithjet` line count.  The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced:
medians over the rounds of times scaled to a reference machine speed (see
CAL_REF_S).  With `--trace 1` every round runs twice with the same
inputs, untraced and then traced, and the metrics are the per-layer ones
from the traced rounds, averaged per round, plus the tracing overhead.

An operation that fails only checks of known library defects
(workloads.KNOWN_DEFECTS) is reported as a known failure and is not
counted in "failed"; every other failed operation is, and makes "correct"
false.

Exit codes: 0 the run measured (checks may have failed; see "failed"),
2 no arithjet source tree next to perfbench/, 3 a round crashed or ran
out of time.  `--tiny` and `--corrupt` exist for smoke.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("curve-batch", "digit-climb", "witt-scalar", "group-law")
TIME_LIMIT_S = 170
SETUP_RUNS = 5  # workers per run that only start up, for setup_s
# Timings are reported at a reference speed: scaled by CAL_REF_S over the
# time of workloads.reference_loop measured while they ran.  1.5 ms is
# that loop's typical time on the shared 2-vCPU, 2.1 GHz virtual machine
# the bounds were tuned on.
CAL_REF_S = 0.0015

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "max_op_s": "s",
    "cold_s": "s",
}
DIGIT5_KIND = "crystal p=3 e=1 D=81"

LAYERS = ("bench", "cli", "crystal", "characters", "howell", "lateral",
          "witt", "fgl", "series", "verify")
COUNT_METRICS = ("fgl.law_terms", "series.mul.terms_out", "ring.mul.calls",
                 "ring.inverse.calls", "witt.tables.builds",
                 "howell.kernel.rows")
PER_LAYER = [
    "fgl.weierstrass.calls", "fgl.weierstrass.s", "fgl.law_terms",
    "fgl.log.calls", "fgl.log.s", "fgl.log.useful_ratio",
    "series.mul.calls", "series.mul.s", "series.mul.terms_out",
    "series.substitute.calls", "series.substitute.s",
    "series.evaluate.calls", "series.evaluate.s",
    "ring.mul.calls", "ring.inverse.calls",
    "witt.tables.calls", "witt.tables.s", "witt.tables.builds",
    "witt.add.calls", "witt.add.s", "witt.mul.calls", "witt.mul.s",
    "witt.frobenius.calls", "witt.frobenius.s",
    "witt.fgl_eval.calls", "witt.fgl_eval.s",
    "lateral.frobenius.calls", "lateral.frobenius.s",
    "lateral.from_witt.calls", "lateral.from_witt.s",
    "howell.kernel.calls", "howell.kernel.s", "howell.kernel.rows",
    "howell.rank.calls", "howell.rank.s",
    "characters.solve.calls", "characters.solve.s",
    "characters.solve.useful_ratio",
    "characters.log_ghost.calls", "characters.log_ghost.s",
    "characters.splitting.s", "characters.rank_table.s",
    "characters.psi_basis.s", "characters.extract.s",
    "characters.check_additive.s",
    "crystal.build.s", "crystal.polygons.s", "crystal.weak_admissibility.s",
    "verify.ghost_components.calls", "verify.ghost_components.s",
    "verify.ghost_components.timed_calls", "cli.run.s",
] + [f"layer.{layer}.s" for layer in LAYERS] + ["trace.overhead"]


def per_layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# rounds
# --------------------------------------------------------------------------

def run_round(args, index: int, traced: bool, deadline: float,
              setup_only: bool = False) -> dict:
    """Start worker.py for one round; returns its record plus set-up time."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    spec = {"workload": args.workload, "seed": args.seed, "trace": traced,
            "tiny": args.tiny, "corrupt": args.corrupt,
            "setup_only": setup_only}
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    # kills the worker at the deadline, which ends the reads below
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()),
                               proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready.strip() or not rest.strip():
        raise BenchError(f"round {index} exited with {proc.returncode}"
                         " (killed at the time limit if negative)")
    record = json.loads(rest.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    record["traced"] = traced
    return record


def run_rounds(args):
    """SETUP_RUNS set-up-only workers, then whole rounds until the next
    one would end past --seconds.  Returns (set-ups, rounds)."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    setups = [run_round(args, i, False, deadline, setup_only=True)
              for i in range(SETUP_RUNS)]
    rounds = []
    index = 0
    while True:
        rounds.append(run_round(args, index, False, deadline))
        if args.trace:
            rounds.append(run_round(args, index, True, deadline))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > min(args.seconds, TIME_LIMIT_S / 2):
            return setups, rounds


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def op_times(record) -> list:
    return [op["s"] for op in record["ops"] if op["s"] is not None]


def speed_factor(samples) -> float:
    """CAL_REF_S over the mean reference-loop time of the samples."""
    return CAL_REF_S / statistics.fmean(samples)


def scaled_op_times(record) -> list:
    """The round's op times at the reference speed (None: not timed).

    An op is scaled by the probe samples taken while it ran, or by the
    whole round's samples when it was too short to catch one.
    """
    samples = record["speed_samples"]
    out = []
    for op in record["ops"]:
        if op["s"] is None:
            out.append(None)
            continue
        lo, hi = op["samples"]
        out.append(op["s"] * speed_factor(samples[lo:hi] or samples))
    return out


def per_op_medians(rounds) -> list:
    """Per operation, the median of its scaled times over the rounds.

    Every round replays the same inputs, so the i-th operation of each
    round is the same call.  None where an operation was never timed.
    """
    kinds = [op["kind"] for op in rounds[0]["ops"]]
    if any([op["kind"] for op in r["ops"]] != kinds for r in rounds):
        raise BenchError("rounds did not replay the same operations")
    out = []
    for col in zip(*(scaled_op_times(r) for r in rounds)):
        times = [s for s in col if s is not None]
        out.append(statistics.median(times) if times else None)
    return out


def end_to_end(rounds, setups) -> dict:
    """Medians over the rounds of times scaled to the reference speed;
    setup_s is the median over the rounds and the set-up-only workers."""
    if not all(op_times(r) for r in rounds):
        raise BenchError("a round completed no timed operation")
    scaled = [scaled_op_times(r) for r in rounds]
    per_op = [s for s in per_op_medians(rounds) if s is not None]
    return {
        "setup_s": statistics.median(
            r["setup_s"] * speed_factor(r["speed_samples"])
            for r in rounds + setups),
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024,
        "round_s": statistics.median(
            sum(s for s in sc if s is not None) for sc in scaled),
        "max_op_s": max(per_op),
        "cold_s": statistics.median(
            sum(s for s, op in zip(sc, r["ops"])
                if s is not None and op["cold"])
            for sc, r in zip(scaled, rounds)),
    }


def workload_metrics(workload, rounds, values) -> list:
    """The numbers under per-workload names: (name, value, unit, note)."""
    ops = rounds[0]["ops"]
    per_op = per_op_medians(rounds)
    timed = [s for s in per_op if s is not None]
    if workload == "curve-batch":
        return [("curves_per_s", len(timed) / values["round_s"], "1/s",
                 f"{len(timed)} curves a round / round_s"),
                ("curve_s.p50", statistics.median(timed), "s",
                 "median over the curves")]
    if workload == "digit-climb":
        return [("climb_s", values["round_s"], "s", "= round_s")] + [
            ("digit5_s", s, "s", f"{DIGIT5_KIND}: 5 output digits")
            for op, s in zip(ops, per_op)
            if op["kind"] == DIGIT5_KIND and s is not None]
    if workload == "witt-scalar":
        warm = [s for op, s in zip(ops, per_op)
                if s is not None and not op["cold"]]
        return [("witt_ops_per_s", len(warm) / sum(warm), "1/s",
                 f"{len(warm)} warm ops a round / their time"),
                ("witt_cold_s", values["cold_s"], "s", "= cold_s")]
    return [("group_law_s", values["round_s"], "s", "= round_s")]


def layer_values(trace: dict) -> dict:
    """Per-layer metrics of one traced round."""
    op, untimed = trace["op"], trace["untimed"]
    spans, counts, distinct = op["spans"], op["counts"], op["distinct"]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            continue
        if name in COUNT_METRICS:
            out[name] = counts.get(name, 0)
        elif name.startswith("layer."):
            layer = name.split(".")[1]
            out[name] = sum(s for span, (_, s) in spans.items()
                            if span.split(".")[0] == layer)
        elif name == "verify.ghost_components.timed_calls":
            out[name] = spans.get("verify.ghost_components", [0])[0]
        elif name.startswith("verify.ghost_components."):
            # the oracle's cost in the checks, outside the timed region
            calls, secs = untimed["spans"].get("verify.ghost_components",
                                               [0, 0.0])
            out[name] = calls if name.endswith(".calls") else secs
        elif name.endswith(".useful_ratio"):
            span = name.rsplit(".", 1)[0]
            calls = spans.get(span, [0])[0]
            out[name] = distinct.get(span, 0) / calls if calls else 0.0
        else:
            span, field = name.rsplit(".", 1)
            calls, secs = spans.get(span, [0, 0.0])
            out[name] = calls if field == "calls" else secs
    return out


def per_layer(rounds) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = []
    for r in traced:
        factor = speed_factor(r["speed_samples"])
        values.append({name: v * factor if per_layer_unit(name) == "s" else v
                       for name, v in layer_values(r["trace"]).items()})
    out = {name: statistics.fmean(v[name] for v in values)
           for name in values[0]}
    out["trace.overhead"] = (end_to_end(traced, [])["round_s"]
                             / end_to_end(plain, [])["round_s"] - 1)
    return out


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def src_line_count() -> int:
    return sum(path.read_text().count("\n")
               for path in sorted((ROOT / "src" / "arithjet").glob("*.py")))


def print_report(args, rounds, metrics, attempted, failed, known, wall):
    plain = [r for r in rounds if not r["traced"]]
    print(f"arithjet benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {len(rounds)} rounds, each in a fresh "
          f"interpreter, in {wall:.1f} s")
    print(f"src/arithjet line count (informational, not a metric): "
          f"{src_line_count()}")
    if args.trace:
        print("per-layer metrics (traced rounds, mean per round; times are "
              "self times at the reference speed):")
        for name in PER_LAYER:
            print(f"  {name:40s} {metrics[name]:14.6g} "
                  f"{per_layer_unit(name)}")
        layers = {layer: metrics[f"layer.{layer}.s"] for layer in LAYERS}
        top = max(layers, key=layers.get)
        share = layers[top] / sum(layers.values())
        print(f"dominant layer by self time: {top} ({share:.0%} of traced "
              f"operation time)")
        print(f"tracing overhead: {metrics['trace.overhead']:+.1%} on "
              f"round_s, traced against untraced")
    else:
        raw = statistics.median(sum(op_times(r)) for r in plain)
        loop = statistics.fmean(s for r in plain for s in r["speed_samples"])
        print(f"end-to-end metrics: medians over {len(plain)} identical "
              f"rounds, timings at the reference speed (reference loop "
              f"{loop * 1000:.3f} ms here against {CAL_REF_S * 1000:.3f} ms; "
              f"unscaled round time {raw:.6g} s):")
        for name, unit in END_TO_END.items():
            print(f"  {name:14s} {metrics[name]:12.6g} {unit}")
        print("under the workload's own names:")
        for name, value, unit, note in workload_metrics(args.workload, plain,
                                                     metrics):
            print(f"  {name:14s} {value:12.6g} {unit} ({note})")
    print(f"  {'fail_ratio':14s} {(failed + known) / attempted:12.6g} "
          f"({failed + known} of {attempted} attempted operations failed a "
          f"check: {known} only on known library defects, {failed} "
          f"otherwise)")
    tally = {}
    for r in rounds:
        for name, counts in r["checks"].items():
            t = tally.setdefault(name, [0, 0, 0])
            for i, n in enumerate(counts):
                t[i] += n
    print("checks (failed / attempted; +known: failures on known library "
          "defects): " + ", ".join(
              f"{name} {bad}/{att}" + (f" +known {kn}" if kn else "")
              for name, (att, bad, kn) in sorted(tally.items())))
    descriptions = {}
    for r in rounds:
        descriptions.update(r["known"])
    for name, why in sorted(descriptions.items()):
        print(f"  known defect, {name}: {why}")
    errors = [e for r in rounds for e in r["errors"]]
    for err in errors[:5]:
        print(f"  error: {err}")
    print_ledger(plain)


def print_ledger(rounds):
    per_op = per_op_medians(rounds)
    rows = {}
    for row in rounds[0]["ledger"]:
        key = (row["p"], row["e"], row["D"], row["M"], row["lambda_prec"],
               row["gamma_prec"])
        rows.setdefault(key, []).append(per_op[row["op"]])
    if not rows:
        return
    print("precision ledger (M = e*floor(log_p D) + 1; prec as reported; "
          "s at the reference speed, median over rounds):")
    print("      p  e    D  M  lambda.prec  gamma.prec  runs         s  "
          "s_per_digit")
    for key, secs in sorted(rows.items(), key=lambda kv: kv[0][:3]):
        p, e, D, M, lp, gp = key
        s = statistics.median(secs)
        print(f"  {p:5d} {e:2d} {D:4d} {M:2d} {str(lp):>12s} {str(gp):>11s} "
              f"{len(secs):5d} {s:9.4f} {s / M:12.4f}")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (smoke test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one result per operation before its "
                         "check (smoke test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "arithjet" / "__init__.py").is_file():
        print(f"no arithjet source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        setups, rounds = run_rounds(args)
        plain = [r for r in rounds if not r["traced"]]
        values = (per_layer(rounds) if args.trace
                  else end_to_end(plain, setups))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(op["failed"] for r in rounds for op in r["ops"])
    known = sum(op["known"] and not op["failed"]
                for r in rounds for op in r["ops"])
    print_report(args, rounds, values, attempted, failed, known, wall)
    units = ({name: per_layer_unit(name) for name in PER_LAYER}
             if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
