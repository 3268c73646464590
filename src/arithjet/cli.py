"""Command-line front end: verify / crystal / witt.

`parse_args` reads every flag from one table, `FLAGS`, by argparse's
rules: `--flag value` or `--flag=value` (the last wins), a unique prefix
for a name (`--de 27`), negative values, and one fail report for all
stray tokens.  The `key = value` lines of a `--config` file ('#' starts
a comment) are read as flags placed before the command line, so a
command-line flag wins.  Every run but `--help` gives one JSON report,
deterministic for a fixed (config, seed), in the bytes of
`json.dumps(report, indent=2, sort_keys=True)`; p-adic scalars are
serialized as {digits, prec, pi_power_basis}.  Exit codes: 0 all checks
pass, or `--help`; 1 a check failed, or the command line, config file or
input is invalid, or the --out file cannot be written (the report then
goes to stdout); 2 inconclusive at the requested precision/degree, a run
out of pi-adic digits (PrecisionExhausted) included.

`fgl` alone builds and checks a curve.  With N its digits and s =
`log_denominator_exponent(spec, --deg)`, every log-ghost generator is
pi^(-s) times a numerator known to N digits, and M = s + 1.  `crystal`
builds the p-typification of the curve, or of the multiplicative law, at
exactly M digits and reads no --prec: only its invariant differential
sum_k b_k T^(p^k - 1), in closed form, with no Newton step and no law.
lambda, gamma and the rank table come from the jet lattices `_solve_log`
solves mod pi^M, which digits past M and the strict isomorphism to the
full group do not change.  `verify` builds the full curve at max(--prec
+ 4, M + 1): its invariant differential sum_m u_m T^(2m), every term of
the same closed form, and never its law or w(t).  Its character suites
read only the logarithm from omega, through the Psi_i = pi^(-1)
L(kappa_i) and Theta_2 = pi^(-1) sum d_i L(w_i), values over pi^M of
numerators known to N digits, so they carry N - M digits: none at M,
one at M + 1.

A reader that closes stdout early (`| head`) ends the output, not the
run: the exit code is the report's.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from json.encoder import encode_basestring_ascii

from .characters import (
    curve_trace,
    extract_lambda_gamma,
    jet_lattice,
    # unused here: perfbench/spans.py wraps cli.psi_basis, and
    # tests/test_trace_targets.py checks that the name resolves
    psi_basis,
    rank_table,
    rank_table_top,
    solve_delta_characters,
    splitting_number,
)
from .crystal import (
    build_crystal,
    de_rham_shadow,
    polygons,
    weak_admissibility,
)
from .errors import (
    DegreeCapTooSmall,
    EngineError,
    Inconclusive,
    InvalidParameters,
    PrecisionExhausted,
)
from .fgl import (
    formal_group_from_weierstrass,
    log_denominator_exponent,
    ptypical_multiplicative,
    ptypical_weierstrass,
)
from .ring import BaseRingSpec
from .verify import (
    ghost_components,
    ghost_mismatch,
    run_character_suites,
    run_witt_suites,
    summarize,
)
from .witt import WittVector, frobenius_W, verschiebung

EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}


# flag: (type, default, help); `run` sets --deg's default
FLAGS = {
    "config": (str, None, "key=value parameter file"),
    "cmd": (str, "verify", "verify, crystal or witt"),
    "p": (int, 5, "residue characteristic"),
    "e": (int, 1, "ramification index"),
    "prec": (int, 8, "pi-adic working precision (verify, witt)"),
    "deg": (int, None, "series degree cap; p^2 + 2 if not given"),
    "nmax": (int, 3, "maximal character order; witt: Witt vector "
                     "length - 1, at most 3"),
    "a4": (int, None, "Weierstrass a4 (short form)"),
    "a6": (int, None, "Weierstrass a6 (short form)"),
    "seed": (int, 0, "seed for randomized suites"),
    "out": (str, None, "write the JSON report here"),
}
# option string -> flag name, in argparse's order for an ambiguous prefix
_OPTIONS = {"-h": "help", "--help": "help",
            **{f"--{name}": name for name in FLAGS}}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, not a flag


def _usage() -> str:
    return "\n".join(["usage: arithjet [--flag VALUE ...]", ""] + [
        f"  --{name:<8} {text}" + ("" if default is None
                                   else f" (default: {default})")
        for name, (_, default, text) in FLAGS.items()]
        + ["  -h, --help print this text and exit"])


def _option(token: str):
    """(flag, inline value or None) when token names a flag; (None, None)
    for an unknown option; None for a value or a stray word."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    value = value if eq else None
    if head in _OPTIONS:  # no option string holds '='
        return _OPTIONS[head], value
    # a unique prefix of a --name stands for it; -h takes no text attached
    matches = ([opt for opt in _OPTIONS if opt.startswith(head)]
               if token[1] == "-" else [])
    if len(matches) > 1:
        raise InvalidParameters(f"ambiguous option: {token} could match "
                                f"{', '.join(matches)}")
    if matches:
        return _OPTIONS[matches[0]], value
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def parse_args(argv: list) -> dict | None:
    """The parameters of a command line, defaults filled in; None for
    --help.  Every token is classified first, so an ambiguous prefix fails
    before any value is read.  '--' and every later token are strays."""
    cut = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(t) for t in argv[:cut]]
    kinds += [(None, None)] * (len(argv) - cut + 1)  # and an end mark
    params = {name: default for name, (_, default, _) in FLAGS.items()}
    strays, i = [], 0
    while i < len(argv):
        kind, i = kinds[i], i + 1
        if kind is None or kind[0] is None:
            strays.append(argv[i - 1])
        elif kind[0] == "help":
            if kind[1] is None:
                return None
            raise InvalidParameters("argument -h/--help: ignored explicit "
                                    f"argument {kind[1]!r}")
        else:
            name, value = kind
            if value is None:
                if kinds[i] is not None:
                    raise InvalidParameters(
                        f"argument --{name}: expected one argument")
                value, i = argv[i], i + 1
            typ = FLAGS[name][0]
            try:
                params[name] = typ(value)
            except ValueError:
                raise InvalidParameters(
                    f"argument --{name}: invalid {typ.__name__} value: "
                    f"{value!r}") from None
    if strays:
        raise InvalidParameters(f"unrecognized arguments: {' '.join(strays)}")
    return params


def _with_config(params: dict, argv: list) -> dict:
    """Parse argv again behind the lines of the config file it names, each
    `key = value` line as the token `--key=value`.  The last value of a
    flag wins, so the command line does.  Errors name the file."""
    path = params["config"]
    try:
        with open(path) as fh:
            lines = [raw.split("#", 1)[0].strip() for raw in fh]
        tokens = []
        for line in filter(None, lines):
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"bad config line: {line!r}")
            if key not in params or key == "config":
                raise ValueError(f"unknown config key: {key!r}")
            tokens.append(f"--{key}={val}")
        return parse_args(tokens + argv)
    except (OSError, ValueError, InvalidParameters) as exc:
        raise InvalidParameters(f"config {path!r}: {exc}") from exc


def _curve(spec: BaseRingSpec, params, prec: int):
    """The curve of --a4 and --a6 at prec digits, to degree --deg."""
    a4, a6 = (spec.scalar(params[k], prec) for k in ("a4", "a6"))
    return formal_group_from_weierstrass(spec, a4, a6, params["deg"])


def cmd_verify(spec: BaseRingSpec, params) -> dict:
    suites = run_witt_suites(spec, params["seed"])
    if params["a4"] is not None:
        M = log_denominator_exponent(spec, params["deg"]) + 1
        F = _curve(spec, params, max(params["prec"] + 4, M + 1))
        suites.extend(run_character_suites(F))
    return {"command": "verify", "suites": suites,
            "status": summarize(suites)}


def cmd_crystal(spec: BaseRingSpec, params) -> dict:
    D = params["deg"]
    M = log_denominator_exponent(spec, D) + 1
    if params["a4"] is not None:
        F = ptypical_weierstrass(spec, params["a4"], params["a6"], D, M)
        ap = curve_trace(F)
        extra = {"curve": {"a4": params["a4"], "a6": params["a6"],
                           "trace_of_frobenius": ap,
                           "ordinary": ap % spec.p != 0}}
    else:
        F = ptypical_multiplicative(spec, D, M)
        extra = {"law": "multiplicative"}
    # one jet lattice for every order the run solves
    jet_lattice(F, rank_table_top(F, params["nmax"]))
    m = splitting_number(F)
    chars, _ = solve_delta_characters(F, m)
    lam, gamma = extract_lambda_gamma(chars[0])
    table = rank_table(F, params["nmax"])
    crys = build_crystal(spec, m, lam, gamma)
    hodge, newton = polygons(crys)
    cert = weak_admissibility(crys)
    report = {
        "command": "crystal",
        "m": m,
        "lambda": None if lam is None else lam.to_json(),
        "gamma": gamma.to_json(),
        "crystal": crys.to_json(),
        "hodge_polygon": [str(s) for s in hodge],
        "newton_polygon": [str(s) for s in newton],
        "weak_admissibility": cert,
        "ordp_normalization": "polygons in v/e units; slope test in pi units",
        "de_rham": de_rham_shadow(crys),
        "rank_table": table.to_json(),
        "status": "pass",
    }
    report.update(extra)
    return report


def cmd_witt(spec: BaseRingSpec, params) -> dict:
    """Explicit Witt arithmetic with ghost echoes for two seeded vectors."""
    n = params["nmax"]
    if n > 3:
        raise InvalidParameters(f"witt needs nmax <= 3, not {n}")
    rng = random.Random(params["seed"])
    prec = params["prec"]
    bound = spec.p ** prec

    def vec():
        return WittVector.from_ints(
            spec, [rng.randrange(bound) for _ in range(n + 1)], prec)

    x, y = vec(), vec()
    named = {"x": x, "y": y, "sum": x + y, "product": x * y,
             "frobenius_x": frobenius_W(x), "verschiebung_x": verschiebung(x)}
    ghosts = {k: ghost_components(v) for k, v in named.items()}
    report = {"command": "witt"}
    for k, v in named.items():
        report[k] = {"components": [c.to_json() for c in v.components],
                     "ghost": [w.to_json() for w in ghosts[k]]}
    # the ghost echo doubles as a check of the sum and the product
    bad = ghost_mismatch(*(ghosts[k] for k in ("x", "y", "sum", "product")))
    report["status"] = "fail" if bad else "pass"
    return report


COMMANDS = {"verify": cmd_verify, "crystal": cmd_crystal, "witt": cmd_witt}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    params = {}
    try:
        params = parse_args(argv)
        if params is None:
            _print(_usage())
            return 0
        if params["config"]:
            params = _with_config(params, argv)
        for key, least in (("prec", 0), ("deg", 1), ("nmax", 1)):
            if params[key] is not None and params[key] < least:
                raise InvalidParameters(
                    f"{key} must be >= {least}, not {params[key]}")
        spec = BaseRingSpec(p=params["p"], e=params["e"])
        if params["deg"] is None:
            params["deg"] = spec.p ** 2 + 2
        if (params["a4"] is None) != (params["a6"] is None):
            raise InvalidParameters("a4 and a6 must be given together")
        cmd = COMMANDS.get(params["cmd"])
        if cmd is None:
            raise InvalidParameters(f"unknown command {params['cmd']!r}")
        report = cmd(spec, params)
    except (Inconclusive, DegreeCapTooSmall, PrecisionExhausted) as exc:
        report = {"command": params.get("cmd"), "status": "inconclusive",
                  "error": str(exc)}
    except EngineError as exc:
        report = {"command": params.get("cmd"), "status": "fail",
                  "error": f"{type(exc).__name__}: {exc}"}
    # an unparsable command line leaves no parameters to report
    report["params"] = {k: v for k, v in params.items()
                        if k not in ("config", "out")} if params else None
    text = _dumps(report)
    if params.get("out"):
        try:
            with open(params["out"], "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            report = {"command": params["cmd"], "status": "fail",
                      "error": f"{type(exc).__name__}: {exc}",
                      "params": report["params"]}
            _print(_dumps(report))
    else:
        _print(text)
    return EXIT[report["status"]]


def _dumps(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, without
    the pure-Python encoder `indent` selects.  Dispatch is on the exact
    type: dict keys are str, as in every report; a value but str, int,
    bool, None, list, tuple or dict goes to json.  An int leaf of a list
    or dict is written inline, with no call per leaf."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if t is dict:
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": "
            + (int.__repr__(v) if type(v) is int else _dumps(v, inner))
            for k, v in sorted(obj.items())]) + indent + "}" if obj else "{}"
    if t is list or t is tuple:
        return "[" + inner + ("," + inner).join([
            int.__repr__(x) if type(x) is int else _dumps(x, inner)
            for x in obj]) + indent + "]" if obj else "[]"
    if t is int:
        return int.__repr__(obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    return json.dumps(obj)


def _print(text: str):
    """Print and flush; a closed pipe drops the rest of the text."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to
        # devnull, as the Python docs advise for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
