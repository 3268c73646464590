"""The benchmark's four workloads and the recorder they report through.

A workload has two functions.  `plan(rng, tiny)` draws one round's inputs
from a seeded `random.Random`; the library sees only those inputs.
`run(rd, inputs)` performs the round: every library call that counts as
work goes through `rd.op`, which times it, and every correctness check
goes through `rd.check`, which runs outside the timed region.

The library is always reached through its module attributes
(`cli.run`, `witt.frobenius_W`, ...), so that the wrappers installed by
`spans.install` see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time

from arithjet import characters, cli, fgl, lateral, verify, witt
from arithjet.characters import Character
from arithjet.ring import BaseRingSpec, PadicScalar
from arithjet.series import FracSeries, TruncSeries


PROBE_EVERY_S = 0.05


def reference_loop():
    """Fixed pure-Python work (integer, tuple and dict operations, as in
    the library's inner loops) whose time tracks the machine's speed."""
    counts = {}
    s = 0
    for i in range(5000):
        k = (i * 7919) % 251
        s = (s + k * k) % 1000003
        key = (k, s & 7)
        counts[key] = counts.get(key, 0) + 1
    return s


class SpeedProbe:
    """Times reference_loop every PROBE_EVERY_S from a SIGALRM timer.

    The samples show how fast the machine ran during the round, long
    operations included: other tenants can slow it by half for seconds at
    a time.  `spent` is the probe's own time, which timed operations
    subtract.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, signum=None, frame=None):
        """Time one reference_loop (the SIGALRM handler)."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Skip(Exception):
    """An operation raised; the rest of its unit is skipped."""


class Round:
    """Timings, check outcomes and the precision ledger of one round.

    An operation is a timed library call, or an untimed comparison made of
    checks only.  It fails when it raises or when one of its checks fails,
    except that a failed check the caller marks as a known defect marks
    the operation "known" instead (see `check`).
    """

    def __init__(self, tracer=None, corrupt=False):
        self.tracer = tracer
        self.corrupt = corrupt
        self.ops: list[dict] = []
        self.checks: dict[str, list[int]] = {}
        self.errors: list[str] = []
        self.ledger: list[dict] = []
        self._seen: set[str] = set()
        self.probe = SpeedProbe()

    def _record(self, kind, timed):
        rec = {"kind": kind, "s": None, "failed": False, "known": False,
               "cold": timed and kind not in self._seen}
        if timed:
            self._seen.add(kind)
        self.ops.append(rec)
        return rec

    def _error(self, where, exc):
        if len(self.errors) < 20:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def op(self, kind, fn, *args):
        """Time fn(*args) as one operation of the given kind."""
        rec = self._record(kind, timed=True)
        tracer = self.tracer
        if tracer is not None:
            fn = tracer.wrap("bench.op", fn)
            tracer.region = "op"
        probe = self.probe
        # read the clock outside the probe readings: a tick that lands
        # between them is then counted in full, never subtracted twice
        t0 = time.perf_counter()
        spent, first_sample = probe.spent, len(probe.samples)
        try:
            result = fn(*args)
            probe_s = probe.spent - spent
            rec["samples"] = [first_sample, len(probe.samples)]
            elapsed = time.perf_counter() - t0 - probe_s
        except Exception as exc:
            rec["failed"] = True
            self._error(kind, exc)
            raise Skip from exc
        finally:
            if tracer is not None:
                tracer.region = "untimed"
        rec["s"] = elapsed
        return result

    def compare(self, kind):
        """Open an untimed operation whose work is its checks."""
        self._record(kind, timed=False)

    def check(self, name, test, known_defect=False) -> bool:
        """Run test() untimed; falsy or raising fails the latest op.

        known_defect: this check fails on these inputs at the introducing
        commit because of a defect of the library (KNOWN_DEFECTS).  Its
        failure is tallied apart and marks the op "known", not failed.
        """
        try:
            ok = bool(test())
        except Exception as exc:
            ok = False
            self._error(name, exc)
        tally = self.checks.setdefault(name, [0, 0, 0])
        tally[0] += 1
        if not ok:
            tally[2 if known_defect else 1] += 1
            self.ops[-1]["known" if known_defect else "failed"] = True
        return ok

    def unit(self, fn, *args):
        """Run one unit of dependent operations; a raising op ends it."""
        try:
            return fn(*args)
        except Skip:
            return None

    def to_json(self) -> dict:
        known = {name: KNOWN_DEFECTS[name]
                 for name, tally in self.checks.items() if tally[2]}
        return {"ops": self.ops, "checks": self.checks, "known": known,
                "errors": self.errors, "ledger": self.ledger,
                "speed_samples": self.probe.samples}


# Library defects the checks found at the commit that introduced this
# benchmark, each scoped to the inputs where it shows.  The checks run in
# every round and their outcomes are printed as measured; an operation
# they fail counts as a known failure, apart from the result's "failed".
KNOWN_DEFECTS = {
    "admissible": "e=2 curves: gamma = p has pi-valuation 2 and the slope "
                  "test runs in pi units, so the verdict is not_admissible",
    "lambda_stable_across_D": "p=3 curves: lambda changes in digits that "
                              "two degree caps both report",
    "gamma_stable_across_D": "p=3 curves: gamma changes in digits that "
                             "two degree caps both report",
}


# --------------------------------------------------------------------------
# independent arithmetic for the checks
# --------------------------------------------------------------------------

def point_count_trace(p, a4, a6) -> int:
    """a_p = p + 1 - #E(F_p), counting the affine (x, y) pairs one by one."""
    affine = sum(1 for x in range(p) for y in range(p)
                 if (y * y - x ** 3 - a4 * x - a6) % p == 0)
    return p + 1 - (affine + 1)


def good_reduction(p, a4, a6) -> bool:
    return (4 * a4 ** 3 + 27 * a6 ** 2) % p != 0


def output_digits(p, e, D) -> int:
    """M = e * floor(log_p D) + 1, by an integer loop."""
    k = 0
    while p ** (k + 1) <= D:
        k += 1
    return e * k + 1


def reduce_digits(digits, prec, p, e):
    """Canonical digits (basis 1, pi, ..., pi^(e-1)) modulo pi^prec."""
    return [d % p ** max(0, -(-(prec - i) // e)) for i, d in enumerate(digits)]


def congruent(x, n, p, e, M) -> bool:
    """The reported scalar x equals the integer n modulo pi^min(M, prec)."""
    P = min(M, x["prec"])
    want = reduce_digits([n] + [0] * (e - 1), P, p, e)
    return reduce_digits(x["digits"], P, p, e) == want


def agree(x, y, p, e) -> bool:
    """Two reported scalars agree modulo the smaller of their precisions."""
    if x is None or y is None:
        return x is None and y is None
    P = min(x["prec"], y["prec"])
    return reduce_digits(x["digits"], P, p, e) == reduce_digits(
        y["digits"], P, p, e)


def draw_curve(rng, p, shape):
    """Seeded short Weierstrass coefficients with good reduction at p.

    shape "dense": a4, a6 both nonzero mod p; "a4=0" / "a6=0": that
    coefficient is exactly 0.  Nonzero coefficients are random lifts below
    p^3 of random nonzero residues.
    """
    def coeff():
        return rng.randrange(1, p) + p * rng.randrange(p * p)

    while True:
        a4 = 0 if shape == "a4=0" else coeff()
        a6 = 0 if shape == "a6=0" else coeff()
        if good_reduction(p, a4, a6):
            return a4, a6


# --------------------------------------------------------------------------
# the crystal pipeline, as the command line runs it
# --------------------------------------------------------------------------

def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def crystal_run(rd, c):
    """One `--cmd crystal` run on curve c, with its checks and ledger row."""
    p, e, D, a4, a6 = c["p"], c["e"], c["D"], c["a4"], c["a6"]
    argv = ["--cmd", "crystal", "--p", str(p), "--e", str(e),
            "--deg", str(D), "--a4", str(a4), "--a6", str(a6)]
    code, text = rd.op(f"crystal p={p} e={e} D={D}", _cli, argv)
    index = len(rd.ops) - 1
    report = json.loads(text)
    ap = point_count_trace(p, a4, a6)
    expected_ap = ap + 1 if rd.corrupt else ap
    M = output_digits(p, e, D)
    rd.check("status_pass",
             lambda: code == 0 and report["status"] == "pass")
    rd.check("trace_matches_point_count",
             lambda: report["curve"]["trace_of_frobenius"] == expected_ap)
    rd.check("splitting_number_2", lambda: report["m"] == 2)
    rd.check("admissible",
             lambda: report["weak_admissibility"]["verdict"] == "admissible",
             known_defect=(e == 2))
    if ap % p:
        rd.check("ordinary_lambda_is_ap",
                 lambda: congruent(report["lambda"], ap, p, e, M))
        rd.check("ordinary_gamma_is_p",
                 lambda: congruent(report["gamma"], p, p, e, M))

    def prec_of(key):
        value = report.get(key)
        return value["prec"] if isinstance(value, dict) else None

    rd.ledger.append({"p": p, "e": e, "D": D, "M": M,
                      "lambda_prec": prec_of("lambda"),
                      "gamma_prec": prec_of("gamma"), "op": index})
    return report


# --------------------------------------------------------------------------
# curve-batch
# --------------------------------------------------------------------------

# Every p=3 curve is supersingular (j = 0 in characteristic 3); at p=5 the
# a4=0 curves are the supersingular ones and the others are ordinary.
CURVE_MIX = [
    (3, 1, "dense"), (3, 1, "dense"), (3, 1, "a6=0"),
    (5, 1, "dense"), (5, 1, "dense"), (5, 1, "a4=0"), (5, 1, "a6=0"),
    (5, 2, "dense"), (5, 2, "a4=0"),
]
TINY_CURVE_MIX = [(3, 1, "dense"), (3, 1, "a6=0")]


def plan_curve_batch(rng, tiny):
    curves = []
    for p, e, shape in (TINY_CURVE_MIX if tiny else CURVE_MIX):
        a4, a6 = draw_curve(rng, p, shape)
        curves.append({"p": p, "e": e, "D": p * p + 2, "a4": a4, "a6": a6})
    return {"curves": curves}


def run_curve_batch(rd, inputs):
    for c in inputs["curves"]:
        rd.unit(crystal_run, rd, c)


# --------------------------------------------------------------------------
# digit-climb
# --------------------------------------------------------------------------

CLIMB = [(3, [11, 27, 81]), (5, [27]), (7, [51])]
TINY_CLIMB = [(3, [11, 27])]


def plan_digit_climb(rng, tiny):
    curves = []
    for p, degs in (TINY_CLIMB if tiny else CLIMB):
        a4, a6 = draw_curve(rng, p, "dense")
        curves.append({"p": p, "a4": a4, "a6": a6, "degs": degs})
    return {"curves": curves}


def run_digit_climb(rd, inputs):
    for c in inputs["curves"]:
        p = c["p"]
        done = []
        for D in c["degs"]:
            run = dict(c, e=1, D=D)
            report = rd.unit(crystal_run, rd, run)
            if report is not None:
                done.append((D, report))
        # one curve's (lambda, gamma) must not change in the digits that
        # two degree caps both report
        for (d1, r1), (d2, r2) in zip(done, done[1:]):
            rd.compare(f"cross-precision p={p} D={d1}->{d2}")
            rd.check("lambda_stable_across_D",
                     lambda: agree(r1.get("lambda"), r2.get("lambda"), p, 1),
                     known_defect=(p == 3))
            rd.check("gamma_stable_across_D",
                     lambda: agree(r1.get("gamma"), r2.get("gamma"), p, 1),
                     known_defect=(p == 3))


# --------------------------------------------------------------------------
# witt-scalar
# --------------------------------------------------------------------------

WITT_CONFIGS = [(2, 1, 3), (3, 1, 3), (5, 1, 2), (5, 2, 2)]  # (p, e, n)
TINY_WITT_CONFIGS = [(2, 1, 1)]
WITT_PREC = 8
WITT_REPS = 6
TINY_WITT_REPS = 2


def plan_witt_scalar(rng, tiny):
    reps = TINY_WITT_REPS if tiny else WITT_REPS
    cases = []
    for p, e, n in (TINY_WITT_CONFIGS if tiny else WITT_CONFIGS):
        bound = p ** WITT_PREC

        def vec():
            return [[rng.randrange(bound) for _ in range(e)]
                    for _ in range(n + 1)]

        cases.append({"p": p, "e": e, "n": n,
                      "pairs": [(vec(), vec()) for _ in range(reps)]})
    return {"cases": cases}


def _witt_vector(spec, digits):
    return witt.WittVector(spec, [PadicScalar(spec, d, WITT_PREC)
                                  for d in digits])


def _ghost_ok(lhs, rhs):
    return all((a - b).is_zero() for a, b in zip(lhs, rhs))


def witt_ops(rd, spec, tag, xd, yd):
    x, y = _witt_vector(spec, xd), _witt_vector(spec, yd)
    ghost = verify.ghost_components
    wx, wy = ghost(x), ghost(y)
    s = rd.op(f"add {tag}", witt.WittVector.__add__, x, y)
    if rd.corrupt:
        s = witt.WittVector(spec, (s.components[0] + spec.one(WITT_PREC),)
                            + s.components[1:])
    rd.check("ghost_oracle_add",
             lambda: _ghost_ok(ghost(s), [a + b for a, b in zip(wx, wy)]))
    m = rd.op(f"mul {tag}", witt.WittVector.__mul__, x, y)
    rd.check("ghost_oracle_mul",
             lambda: _ghost_ok(ghost(m), [a * b for a, b in zip(wx, wy)]))
    neg = rd.op(f"neg {tag}", witt.WittVector.__neg__, x)
    rd.check("x_plus_neg_x_is_0", lambda: (x + neg).is_zero())
    v = rd.op(f"verschiebung {tag}", witt.verschiebung, x)
    rd.check("ghost_oracle_verschiebung",
             lambda: ghost(v)[0].is_zero() and _ghost_ok(
                 ghost(v)[1:], [w.mul_pi(1) for w in wx]))
    fv = rd.op(f"frobenius {tag}", witt.frobenius_W, v)
    rd.check("fv_is_pi",
             lambda: fv == x.scalar_mul(spec.pi(WITT_PREC)))


def run_witt_scalar(rd, inputs):
    for case in inputs["cases"]:
        spec = BaseRingSpec(case["p"], case["e"])
        tag = f"p={case['p']} e={case['e']} n={case['n']}"
        for xd, yd in case["pairs"]:
            rd.unit(witt_ops, rd, spec, tag, xd, yd)


# --------------------------------------------------------------------------
# group-law
# --------------------------------------------------------------------------

LAW_CURVES = [(3, 11), (5, 18)]            # (p, D)
TINY_LAW_CURVES = [(3, 11)]
LATERAL_SUITES = [(2, 4), (3, 3)]          # (p, n)
TINY_LATERAL_SUITES = [(2, 2)]
CURVE_PREC = 12                            # as `--prec 8` plus the CLI's 4


def plan_group_law(rng, tiny):
    curves = []
    for p, D in (TINY_LAW_CURVES if tiny else LAW_CURVES):
        a4, a6 = draw_curve(rng, p, "dense")
        curves.append({"p": p, "D": D, "a4": a4, "a6": a6,
                       "kernel_orders": [1] if tiny else [1, 2]})
    return {"curves": curves,
            "suites": TINY_LATERAL_SUITES if tiny else LATERAL_SUITES,
            "tilde": {"p": 2 if tiny else 3, "n": 1 if tiny else 2,
                      "r": rng.randrange(1, 3 ** 4)}}


def _corrupted(ch):
    """ch plus x1^2, which is not additive."""
    num = ch.frac.num
    x1 = TruncSeries.gen(num.spec, num.vars, "x1", num.cap, num.prec)
    return Character(ch.kind, ch.n, FracSeries(num + x1 * x1, ch.frac.shift))


def law_ops(rd, c):
    p, D = c["p"], c["D"]
    spec = BaseRingSpec(p)
    tag = f"p={p} D={D}"
    F = rd.op(f"weierstrass {tag}", fgl.formal_group_from_weierstrass, spec,
              spec.scalar(c["a4"], CURVE_PREC),
              spec.scalar(c["a6"], CURVE_PREC), D)
    laws = [characters.kernel_group_law(F, n) for n in c["kernel_orders"]]
    laws.append(characters.jet_group_law(F, 1))
    for law in laws:
        name = f"{law.kind}{law.n} {tag}"
        rd.op(f"laws {name}", lambda: law.laws)
    for law in laws:
        name = f"{law.kind}{law.n} {tag}"
        chars, _ = rd.op(f"solve {name}", characters.solve_additive, law)
        for ch in chars:
            if rd.corrupt:
                ch = _corrupted(ch)
            ok = rd.op(f"check_additive {name}", ch.check_additive, law)
            rd.check("character_is_additive", lambda: ok)


def suite_op(rd, p, n, suite):
    report = rd.op(f"{suite.__name__} p={p} n={n}", suite, BaseRingSpec(p), n)
    rd.check("suite_pass", lambda: report["status"] == "pass")


def tilde_round_trip(rd, c):
    spec = BaseRingSpec(c["p"])
    n = c["n"]
    r = spec.scalar(c["r"], 4 + n + 1)
    t = lateral.generic_tilde(spec, r, n, cap=spec.q + 1, prec=4)
    back = rd.op(f"from_witt p={c['p']} n={n}",
                 lambda: lateral.from_witt(t.embed(), r))
    rd.check("tilde_round_trip", lambda: back == t)


def run_group_law(rd, inputs):
    for c in inputs["curves"]:
        rd.unit(law_ops, rd, c)
    for p, n in inputs["suites"]:
        for suite in (verify.suite_latfrob_congruence, verify.suite_fdid):
            rd.unit(suite_op, rd, p, n, suite)
    rd.unit(tilde_round_trip, rd, inputs["tilde"])


WORKLOADS = {
    "curve-batch": (plan_curve_batch, run_curve_batch),
    "digit-climb": (plan_digit_climb, run_digit_climb),
    "witt-scalar": (plan_witt_scalar, run_witt_scalar),
    "group-law": (plan_group_law, run_group_law),
}
