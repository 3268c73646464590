import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from argparse_oracle import build_parser
from hypothesis import given, settings, strategies as st
from law_oracle import multiplicative_law

from arithjet import characters, cli, fgl, series, verify
from arithjet.characters import (
    extract_lambda_gamma,
    solve_delta_characters,
    splitting_number,
    upsilon,
)
from arithjet.cli import EXIT, run
from arithjet.errors import (
    Inconclusive,
    IntegralityViolation,
    InvalidParameters,
)
from arithjet.fgl import formal_group_from_weierstrass, log_denominator_exponent
from arithjet.ring import BaseRingSpec, PadicScalar
from arithjet.series import TruncSeries
from arithjet.verify import run_character_suites


def _run(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = run(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\nprec=5   # inline comment\n# full comment\n"
                   "cmd = witt\n")
    code, rep = _run(tmp_path, ["--config", str(cfg)])
    assert code == 0 and rep["command"] == "witt"
    # the three keys are set and every other parameter keeps its default
    assert rep["params"] == {"cmd": "witt", "p": 3, "e": 1, "prec": 5,
                             "deg": 11, "nmax": 3, "a4": None, "a6": None,
                             "seed": 0}


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code, rep = _run(tmp_path, ["--config", str(cfg)])
    assert code == 1 and rep["status"] == "fail"
    assert rep["error"] == (f"InvalidParameters: config {str(cfg)!r}: "
                            "unknown config key: 'bogus'")


def test_cli_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\nseed = 9\n")
    code, rep = _run(tmp_path, ["--config", str(cfg), "--p", "5",
                                "--cmd", "witt", "--nmax", "1"])
    assert code == 0
    assert rep["params"]["p"] == 5 and rep["params"]["seed"] == 9


def _printed(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_MALFORMED = (
    ["--cmd", "bogus"], ["--p", "x"], ["--bogus"], ["--cmd", "crystal", "--p"],
    ["--deg=x"], ["--cmd", "witt", "stray"],
)


@pytest.mark.parametrize("argv", _MALFORMED)
def test_malformed_argv_fails(argv):
    code, out, err = _printed(argv)
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "fail" and not err
    assert rep["error"].startswith("InvalidParameters: ")


def test_runs_share_the_parser_and_nothing_else(tmp_path):
    # a run keeps no state: a config run and a malformed run between two
    # crystal runs leave the second report as the first
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cmd = witt\np = 3\nnmax = 1\n")
    argv = ["--cmd", "crystal", "--p", "5", "--a4", "1", "--a6", "1",
            "--deg", "27"]
    first = _printed(argv)
    assert first[0] == 0
    code, out, _ = _printed(["--config", str(cfg)])
    assert code == 0 and json.loads(out)["command"] == "witt"
    code, out, err = _printed(["--cmd", "crystal", "--p", "x"])
    assert code == 1 and json.loads(out)["status"] == "fail" and not err
    assert _printed(argv) == first


@pytest.mark.parametrize("text", [
    "p = x\n", "p 3\n", "config = other.cfg\n", "help = 1\n",
])
def test_malformed_config_fails(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--config", str(cfg)])
    assert code == 1 and rep["status"] == "fail"
    assert rep["error"].startswith(f"InvalidParameters: config {str(cfg)!r}")
    assert rep["command"] == "crystal"


def test_main_reports_malformed_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["arithjet", "--cmd", "crystal",
                                      "--p", "x"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    rep = json.loads(capsys.readouterr().out)
    assert exc.value.code == 1 and rep["status"] == "fail"
    assert "invalid int value: 'x'" in rep["error"]
    assert rep["command"] is None and rep["params"] is None


@pytest.mark.parametrize("argv, M", [
    ("--p 5 --deg 625 --prec 0", 5),
    ("--p 3 --deg 729 --prec 2", 7),
])
def test_curve_is_built_with_the_lattice_modulus_digits(argv, M):
    # --prec + 4 < M: the curve gets its M digits, which the lattice needs,
    # from the degree cap alone
    code, out, _ = _printed(
        ["--cmd", "crystal", "--a4", "1", "--a6", "1"] + argv.split())
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "pass"
    assert rep["lambda"]["prec"] == rep["gamma"]["prec"] == M
    if argv.startswith("--p 5"):  # ordinary: lambda = a_5 = -3, gamma = 5
        assert (rep["lambda"]["digits"][0] + 3) % 5 ** M == 0
        assert rep["gamma"]["digits"][0] % 5 ** M == 5


_JUNK = (["--bogus"], ["--deg=x"], ["--p"], ["--seed"], ["x"], ["--cmd"])


@st.composite
def _argvs(draw):
    # repeated entries weight the draws towards inputs that reach the
    # engine; the rest end in a fail report at once
    cmd = draw(st.sampled_from(["crystal"] * 3 + ["witt", "verify", "bogus"]))
    # verify runs 100-trial suites and witt builds exact scalar tables:
    # both stay small here
    p = draw(st.sampled_from([2, 3, 4] if cmd == "verify"
                             else [3, 5, 5, 7, 7, 2, 4]))
    argv = ["--cmd", cmd, "--p", str(p),
            "--e", str(draw(st.sampled_from([1, 1, 1, 2, 2, 0, 3, 4]))),
            "--prec", str(draw(st.integers(-2, 12))),
            "--deg", str(draw(st.integers(0, p * p + 2))),
            # witt rejects nmax 4 at once; nmax < 1 never reaches the
            # engine, and test_character_order_below_one_fails covers it
            "--nmax", str(draw(st.sampled_from([1, 2, 4]) if cmd == "witt"
                               else st.integers(1, 3)))]
    curve = draw(st.sampled_from(["both"] * 3 + ["none", "half"]))
    if curve != "none":
        # small coefficients: bad reduction is common
        argv += ["--a4", str(draw(st.integers(-3, 9)))]
    if curve == "both":
        argv += ["--a6", str(draw(st.integers(-3, 9)))]
    if draw(st.integers(0, 5)) == 0:  # a junk token in one run of six
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.sampled_from(_JUNK))
    return argv


@settings(derandomize=True, max_examples=300, deadline=20000)
@given(_argvs())
def test_every_argv_gives_one_report(argv):
    code, out, err = _printed(argv)
    rep = json.loads(out)  # exactly one JSON object, nothing else
    assert isinstance(rep, dict) and not err
    assert code == EXIT[rep["status"]]


def _parsed(parse, argv):
    """The params dict of one parse, or the message it fails with."""
    try:
        return parse(argv)
    except InvalidParameters as exc:
        return str(exc)


def _oracle(argv):
    return vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", _MALFORMED + _JUNK + (
    ["--de", "27"], ["--a", "1"], ["--a4", "-3"], ["--out", "-x"],
    ["--p", " 7 "], ["--p", "1_000"], ["--p", "\u0663"], ["--p", "0x10"],
    ["--p", "x", "--a", "1"], ["x", "--p", "y", "z"], ["--", "--p", "3"],
    ["--out", "-x y"], ["--cmd", "-.5"], ["--de 27"], ["--=5"],
))
def test_parse_args_matches_argparse_messages(argv):
    assert _parsed(cli.parse_args, argv) == _parsed(_oracle, argv)


# every flag name and each of its prefixes; a prefix of --help would make
# argparse print its help and exit.  No token is a negative number with an
# underscore (-1_000): argparse releases after 3.11 may read it as a value
_NAMES = sorted({"--" + name[:k] for name in cli.FLAGS
                 for k in range(1, len(name) + 1)})
_VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["1_000", "0x10", " 7 ", "7\n", "-3\n", "+5",
                     "\u0663", "-\u0663", "\uff17", "", "1.5", "-.5", "x",
                     "-x", "--", "-", "crystal", "a=b", "-x y"]))
_LOOSE = st.sampled_from(["-", "--", "-x", "--bogus", "---", "-x y",
                          "--de 27", "--=5", "-=5", "-.5", "x", "stray", ""])


@st.composite
def _parser_argvs(draw):
    argv = []
    for _ in range(draw(st.integers(0, 6))):
        name, form = draw(st.sampled_from(_NAMES)), draw(st.integers(0, 4))
        if form < 2:
            argv += [name, draw(_VALUES)]
        elif form == 2:
            # argparse reads --flag=-- as an empty list, which no flag takes
            value = draw(_VALUES.filter(lambda v: v != "--"))
            argv.append(f"{name}={value}")
        elif form == 3:
            argv.append(draw(_LOOSE))
        else:
            argv.append(name)  # its value missing, unless a value follows
    return argv


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_parser_argvs())
def test_parse_args_agrees_with_argparse(argv):
    # the same params, or both fail; the messages that the tests above pin
    # are argparse's in every release, others may vary between releases
    got, want = _parsed(cli.parse_args, argv), _parsed(_oracle, argv)
    assert got == want or (type(got) is type(want) is str)


@pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
def test_help_prints_the_flags_and_no_report(tmp_path, flag):
    out = tmp_path / "report.json"
    code, text, err = _printed(["--out", str(out), flag, "--p", "x"])
    assert code == 0 and not err and not out.exists()
    assert "{" not in text
    assert all(f"--{name} " in text for name in cli.FLAGS)


def test_help_takes_no_value():
    code, text, err = _printed(["--help=x"])
    assert code == 1 and not err
    rep = json.loads(text)
    assert (rep["status"], rep["params"]) == ("fail", None)
    assert rep["error"] == ("InvalidParameters: argument -h/--help: ignored "
                            "explicit argument 'x'")


def test_import_loads_no_argparse():
    # pytest imports argparse and gettext itself: ask a fresh interpreter
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, arithjet.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


_KEYS = st.text(st.sampled_from('a"\\/\x00\x1f\n\x7f\u00e9\u20ac\U0001f600 '),
                max_size=4) | st.text(max_size=4)
_LEAVES = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
                    st.integers(-10 ** 40, 10 ** 40), st.floats(), _KEYS)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=25))
def test_dumps_is_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [{1, 2}, object()], ids=["set", "object"])
def test_dumps_rejects_what_json_rejects(bad):
    for obj in (bad, [1, bad], {"k": {"j": bad}}):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            cli._dumps(obj)
        assert str(got.value) == str(want.value)


def test_witt_command_deterministic(tmp_path):
    args = ["--cmd", "witt", "--p", "3", "--nmax", "2",
            "--prec", "4", "--seed", "11"]
    code1, rep1 = _run(tmp_path, args, "a.json")
    code2, rep2 = _run(tmp_path, args, "b.json")
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["status"] == "pass"
    # serialized scalar shape
    comp = rep1["x"]["components"][0]
    assert set(comp) == {"digits", "prec", "pi_power_basis"}


def test_witt_command_seed_changes_report(tmp_path):
    base = ["--cmd", "witt", "--p", "3", "--nmax", "2", "--prec", "4"]
    _, rep1 = _run(tmp_path, base + ["--seed", "1"], "a.json")
    _, rep2 = _run(tmp_path, base + ["--seed", "2"], "b.json")
    assert rep1["x"] != rep2["x"]


def test_verify_command_small(tmp_path):
    code, rep = _run(tmp_path, ["--cmd", "verify", "--p", "2",
                                "--prec", "5", "--seed", "0"])
    assert code == 0
    assert rep["status"] == "pass"
    names = {s["name"] for s in rep["suites"]}
    assert {"ghost_oracle", "fv_identities",
            "latfrob_congruence", "fdid"} <= names
    anchors = " ".join(s["anchor"] for s in rep["suites"])
    assert "FV(x) = pi x" in anchors


def test_crystal_command_ordinary(tmp_path):
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5",
                                "--a4", "1", "--a6", "1", "--deg", "27"])
    assert code == 0
    assert rep["m"] == 2
    assert rep["curve"]["trace_of_frobenius"] == -3
    assert rep["lambda"]["digits"][0] % 5 ** rep["lambda"]["prec"] == 122
    assert rep["gamma"]["digits"] == [5]
    assert rep["weak_admissibility"]["verdict"] == "admissible"
    assert rep["rank_table"]["rk_X"] == [0, 0, 1, 2]


def test_crystal_command_supersingular(tmp_path):
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5",
                                "--a4", "0", "--a6", "1", "--deg", "27"])
    assert code == 0
    assert rep["m"] == 2
    assert rep["curve"]["ordinary"] is False
    assert rep["newton_polygon"] == ["1/2", "1/2"]


def test_crystal_command_multiplicative(tmp_path):
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5",
                                "--deg", "27"])
    assert code == 0
    assert rep["m"] == 1 and rep["law"] == "multiplicative"
    assert rep["gamma"]["digits"][0] % 125 == 120  # -p


def test_crystal_command_bad_reduction(tmp_path):
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5",
                                "--a4", "0", "--a6", "0"])
    assert code == 1
    assert "BadReduction" in rep["error"]


def test_bad_reduction_error_names_no_precision(tmp_path):
    # the discriminant -16(4 + 27 * 4) = -1792 = 7 * -256 vanishes mod 7
    errors = set()
    for prec in ("0", "8"):
        code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "7", "--a4",
                                    "1", "--a6", "2", "--prec", prec])
        assert code == 1 and rep["status"] == "fail"
        errors.add(rep["error"])
    assert errors == {"BadReduction: discriminant -16(4 a4^3 + 27 a6^2) is "
                      "not a unit: bad reduction"}


def test_exit_codes_mapping(tmp_path):
    # pass -> 0 is covered above; a failing input gives 1
    code, _ = _run(tmp_path, ["--cmd", "crystal", "--p", "3",
                              "--a4", "0", "--a6", "1"])  # disc = -432: bad at 3
    assert code == 1


# sha256 of the --out report; the values were computed before the curve
# pipeline stopped expanding the bivariate law, and only
# `de_rham.upsilon_theta_m` has moved since: it became -gamma/pi at M - 1
# digits, read off the crystal
PINNED_REPORTS = {
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 11":
        "5506112d41febf51bd1f130d4e1ecdad625ae4a4ddfa4f639d252875a4209dbd",
    "--cmd crystal --p 3 --a4 1 --a6 2 --deg 27":
        "5c11459eb898f225fe02c4a3511776ee9424f1e1dbf7062dbc21ac63b45a5dc5",
    "--cmd crystal --p 5 --a4 1 --a6 1 --deg 27":
        "3a0651007577e609aa942344f973d3105865d41b6002edbbf91f08cfb7c523d7",
    "--cmd crystal --p 5 --a4 0 --a6 1 --deg 27":
        "57c84aa1243377e2409eca7ba0b1d1d169b6219c17355fc435e98fdf248aa31c",
    "--cmd crystal --p 5 --a4 2 --a6 0 --deg 27":
        "6121721c58eac88a81e26f3d24916a1433b74027272a70972806aa1593887e0a",
    "--cmd crystal --p 5 --e 2 --a4 1 --a6 1 --deg 27":
        "258b35d4f6f3a56042742b9a40207dcf879da6ce2d547f84ef912d495629634e",
    "--cmd crystal --p 7 --a4 1 --a6 1 --deg 51":
        "c5f255b66345b09c39fe87089d7cb99c2d88336a1829301cc3b1e59f50abf164",
    "--cmd crystal --p 5 --deg 27":
        "752d276ba9ccae405454cf7ec5d9bc57a35a816f89695608e85191c38dbf92ab",
    "--cmd witt --p 5 --e 2 --nmax 2 --prec 6 --seed 3":
        "5bbf80cd9bf0b546e2f8afb57494fc2839b23c44cf5e606e585e80c9980e6b63",
}


@pytest.mark.parametrize("args", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(tmp_path, args):
    out = tmp_path / "report.json"
    assert run(args.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[args]


# exit code and sha256 of the --out report; the values were computed before
# the character modules were solved once per formal group law, and only
# `de_rham.upsilon_theta_m` has moved since, in every passing crystal report,
# and the verify report's `gamma_identity` details, which now give gamma as
# `crystal` does
PINNED_CODED_REPORTS = {
    "--cmd crystal --p 5 --a4 1 --a6 1 --deg 27 --nmax 1": (
        2, "be0da0866b7e8eb2c249ac6c267e13328eab0a19cd82146ee1a14c12e0a5a897"),
    "--cmd crystal --p 5 --a4 1 --a6 1 --deg 27 --nmax 2": (
        0, "3aab85b2336e99d20a3854c508d0ca85b5e89c985de8a3cab1db865658d4be69"),
    "--cmd crystal --p 5 --a4 1 --a6 1 --deg 27 --nmax 4": (
        2, "5c7c9637106a7c5ee14ed661e9dcaf6f6dbaf802cb1ff278828a63e61d727606"),
    "--cmd crystal --p 3 --deg 27 --nmax 2": (
        0, "d35f13e7054a0d1d82a6d08d3611b4b5052edcb4071be73e64c691bfe3e1bacd"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --prec 4": (
        0, "8b0a7146a5ee3cb6a6ecabb82cddfde6ac97240517b70ea06da81ff4bc88c407"),
    "--cmd verify --p 3 --a4 1 --a6 1 --deg 11": (
        0, "f3e7fc52d1f8ee1f6ed7702dbd015135d2ab4bfed97794b8023e7bc51f3c12fa"),
}

# exit code and sha256 at high degree caps; the values were computed while
# w(t) was still found by fixed-point iteration (53 s at D = 625); only
# `de_rham.upsilon_theta_m` has moved since, as above
PINNED_CODED_REPORTS.update({
    "--cmd crystal --p 5 --a4 1 --a6 1 --deg 625": (
        0, "d61eda37f80bb0703f36233a3f0a35f35b14a110c014bb2eb4e6711629de2c74"),
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 243": (
        0, "a765fb40e771fcef6a7802646b4a523a9d2f8f6a8a2bfd6c22f73140a6b60b24"),
})

# exit code and sha256 of a high-D run and of ramified runs above D = 27;
# the values were computed once (lambda, gamma) were read off the solved
# lattice vector at the full lattice precision M; only
# `de_rham.upsilon_theta_m` has moved since, as above
PINNED_CODED_REPORTS.update({
    "--cmd crystal --a4 1 --a6 1 --p 5 --deg 3125": (
        0, "60e3864bce9a3687b8a9b409a6a51e86625d6fa32fe2c2970209a2b20ea0c63e"),
    "--cmd crystal --p 5 --e 2 --a4 0 --a6 1 --deg 130": (
        0, "8cccdd767a015be843ed99b43b3182c35586d378361c127b0c8e04cf8954d839"),
    "--cmd crystal --p 7 --e 3 --a4 1 --a6 1 --deg 51": (
        0, "3fd9df47052a4c43fe5aec8077c792478d76d0d4c0a609c18d91f59f342dbd90"),
})


@pytest.mark.parametrize("args", sorted(PINNED_CODED_REPORTS))
def test_report_bytes_and_code_pinned(tmp_path, args):
    out = tmp_path / "report.json"
    code = run(args.split() + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (code, digest) == PINNED_CODED_REPORTS[args]


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_crystal_solves_each_module_once(tmp_path, monkeypatch):
    # m = 2 and nmax = 3: jet orders 1..3 are the three distinct modules,
    # all on one formal group law, each solved by a lattice; the rank
    # table counts the kernel modules' Psi bases and builds no kernel law
    kernels = _count_calls(monkeypatch, characters, "right_kernel_basis")
    logs = _count_calls(monkeypatch, characters, "formal_logarithm")
    solves = _count_calls(monkeypatch, characters, "_solve_log")
    kernel_laws = _count_calls(monkeypatch, characters, "kernel_group_law")
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5", "--a4", "1",
                                "--a6", "1", "--deg", "27", "--nmax", "3"])
    assert code == 0 and rep["m"] == 2
    assert len(kernels) == 3
    assert len(logs) == 1
    built = sorted((law.kind, law.n) for (law,) in solves)
    assert built == [("jet", 1), ("jet", 2), ("jet", 3)]
    assert kernel_laws == []
    assert rep["rank_table"]["rk_hom"] == [0, 1, 2, 3]


def test_crystal_sweeps_only_orders_with_images(tmp_path, monkeypatch):
    # m = 2: orders 1 and 2 have no images (no characters below them), so
    # their quotient ranks are 0 and rk_X[n] with no sweep; order 3 sweeps
    # the full and the image module.  Three solves and two sweeps.
    ranks = _count_calls(monkeypatch, characters, "module_rank")
    kernels = _count_calls(monkeypatch, characters, "right_kernel_basis")
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5", "--a4", "1",
                                "--a6", "1", "--deg", "27", "--nmax", "3"])
    assert code == 0 and rep["m"] == 2
    assert rep["rank_table"]["rk_X"] == [0, 0, 1, 2]
    assert rep["rank_table"]["l"] == [0, 1, 0]
    assert len(ranks) == 5
    assert len(kernels) == 3


# sha256 of the stdout of `--cmd crystal` + argv, taken before the jet
# lattices were solved on the unpadded log-ghost generators
UNPADDED_CRYSTAL_REPORTS = {
    "--p 5 --a4 1 --a6 1 --deg 27":                    # ordinary
        "3a0651007577e609aa942344f973d3105865d41b6002edbbf91f08cfb7c523d7",
    "--p 3 --a4 1 --a6 1 --deg 81":                    # supersingular
        "d7fd9cbcffc9e963facea80c4cf4a9e4ee2d92639d181b70f483916487e37bd6",
    "--p 5 --e 2 --a4 1 --a6 1 --deg 27":              # ramified
        "258b35d4f6f3a56042742b9a40207dcf879da6ce2d547f84ef912d495629634e",
    "--p 3 --deg 27":                                  # multiplicative
        "352c50b29c744273cd4cb5e6ac7a04ff210d81c981ec88e65659eeccdf1667b4",
}


@pytest.mark.parametrize("argv", sorted(UNPADDED_CRYSTAL_REPORTS))
def test_crystal_builds_no_padded_generator(monkeypatch, argv):
    # the jet rows come from the unpadded l_i, and the padded generators
    # are built only when a character's series is read, which crystal
    # never does
    def refuse(*args):
        raise AssertionError("crystal built a padded generator or a series")

    monkeypatch.setattr(characters, "log_ghost_generators", refuse)
    monkeypatch.setattr(characters, "_combined_series", refuse)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["--cmd", "crystal"] + argv.split())
    assert code == 0
    assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
            == UNPADDED_CRYSTAL_REPORTS[argv])


@pytest.mark.parametrize("argv,ordinary", [
    ("--p 5 --e 2 --a4 7 --a6 11 --deg 27", True),
    ("--p 5 --a4 1 --a6 1 --deg 27 --nmax 3", True),
    ("--p 3 --a4 1 --a6 1 --deg 27", False),
])
def test_crystal_computes_the_unit_root_once(tmp_path, monkeypatch, argv,
                                             ordinary):
    # the jet orders 1..m+1 share one point count and one Hensel root
    counts = _count_calls(monkeypatch, characters, "trace_of_frobenius")
    roots = _count_calls(monkeypatch, characters, "frobenius_unit_root")
    code, rep = _run(tmp_path, ["--cmd", "crystal"] + argv.split())
    assert code == 0 and rep["curve"]["ordinary"] is ordinary
    assert len(counts) == 1
    assert len(roots) == (1 if ordinary else 0)


@pytest.mark.parametrize("argv", [
    "--p 5 --a4 1 --a6 1 --deg 27 --nmax 3",
    "--p 5 --e 2 --a4 1 --a6 1 --deg 27",
    "--p 3 --deg 11",
])
def test_crystal_builds_no_combined_series(tmp_path, monkeypatch, argv):
    # lambda, gamma and the rank table read the solved vectors, and
    # Upsilon(theta_m) = -gamma/pi is read off the crystal
    built = _count_calls(monkeypatch, characters, "_combined_series")
    code, rep = _run(tmp_path, ["--cmd", "crystal"] + argv.split())
    assert code == 0
    assert built == []


def test_crystal_on_curve_never_builds_law(tmp_path, monkeypatch):
    def no_law(*args):
        raise AssertionError("the bivariate law was built")

    monkeypatch.setattr(fgl, "_chord_tangent_law", no_law)
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5",
                                "--a4", "1", "--a6", "1", "--deg", "27"])
    assert code == 0 and rep["m"] == 2


@pytest.mark.parametrize("argv", [
    "--p 5 --deg 27",
    "--p 3 --deg 27 --prec 1",
    "--p 5 --e 2 --deg 27 --prec 2",
    "--p 5 --e 3 --deg 51 --prec 2",
])
def test_verify_on_curve_never_builds_law(tmp_path, monkeypatch, argv):
    # the character suites read only the logarithm from omega, which is
    # a closed form: neither the law nor w(t) is built
    def no_law(*args):
        raise AssertionError("the bivariate law or w(t) was built")

    monkeypatch.setattr(fgl, "_chord_tangent_law", no_law)
    monkeypatch.setattr(fgl, "_weierstrass_w", no_law)
    code, rep = _run(tmp_path, ["--cmd", "verify", "--a4", "1", "--a6", "1"]
                     + argv.split())
    assert code == 0 and rep["status"] == "pass"
    assert len(rep["suites"]) == 8


@pytest.mark.parametrize("argv", [
    "--p 5 --a4 1 --a6 1 --deg 27 --nmax 3",
    "--p 5 --e 2 --a4 7 --a6 11 --deg 27",
    "--p 3 --a4 1 --a6 0 --deg 81",
    "--p 7 --deg 51",
])
def test_crystal_makes_no_series_product(tmp_path, monkeypatch, argv):
    # crystal solves the p-typical group, whose invariant differential is
    # a closed-form sum: no Newton step, no law, no product, no substitute
    def refused(*args, **kwargs):
        raise AssertionError("the full group was built")

    for module in (fgl, cli):
        monkeypatch.setattr(module, "formal_group_from_weierstrass", refused)
    # (products are counted at the packed kernel, which every series `*`,
    # `**`, `substitute` and Witt ghost map runs)
    products = _count_calls(monkeypatch, series._Packing, "product")
    substitutions = _count_calls(monkeypatch, TruncSeries, "substitute")
    code, rep = _run(tmp_path, ["--cmd", "crystal"] + argv.split())
    assert code == 0 and rep["status"] == "pass"
    assert products == [] and substitutions == []


def test_integrality_violation_is_a_failure(tmp_path, monkeypatch):
    # a broken rank identity fails the run (exit 1), never inconclusive
    def broken(self):
        raise IntegralityViolation("m_low = m_up <= 2 fails")

    monkeypatch.setattr(characters.RankTable, "check", broken)
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5", "--a4", "1",
                                "--a6", "1", "--deg", "27"])
    assert code == EXIT["fail"] == 1 and rep["status"] == "fail"
    assert rep["error"] == "IntegralityViolation: m_low = m_up <= 2 fails"


@pytest.mark.parametrize("cmd", ["crystal", "verify"])
@pytest.mark.parametrize("half", [["--a4", "1"], ["--a6", "1"]])
def test_half_curve_fails(tmp_path, cmd, half):
    code, rep = _run(tmp_path, ["--cmd", cmd, "--p", "5"] + half)
    assert code == 1 and rep["status"] == "fail"
    assert "InvalidParameters" in rep["error"]
    assert "law" not in rep and "suites" not in rep


def test_non_prime_p_fails(tmp_path):
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "4"])
    assert code == 1 and rep["status"] == "fail"
    assert "IncompatibleSpec" in rep["error"]


def test_missing_config_fails(tmp_path):
    missing = str(tmp_path / "absent.cfg")
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--config", missing])
    assert code == 1 and rep["status"] == "fail"
    assert "InvalidParameters" in rep["error"] and "absent.cfg" in rep["error"]
    assert rep["command"] == "crystal"


def test_unknown_config_command_fails(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cmd = crystals\n")
    code, rep = _run(tmp_path, ["--config", str(cfg)])
    assert code == 1 and "unknown command" in rep["error"]


def test_degree_cap_too_small_is_inconclusive(tmp_path):
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", "5",
                                "--deg", "20", "--a4", "1", "--a6", "1"])
    assert code == 2 and rep["status"] == "inconclusive"
    assert "degree cap 20" in rep["error"]


# (lambda, gamma) as (digits, prec) for `--cmd crystal --a4 1 --a6 1`,
# computed at --prec 20 while lambda and gamma were still recovered by
# expanding i^* theta in a solved Psi basis, which lost digits; the
# reports at the stated --prec (default 8) must now carry all of them
LAMBDA_GAMMA_PINS = {
    "--p 5 --deg 3125": (([15622], 6), ([5], 6)),
    "--p 3 --deg 729": (([0], 7), ([327], 7)),
    "--p 3 --deg 2187": (([0], 8), ([327], 8)),
    "--p 5 --e 2 --deg 125": (([622, 0], 7), ([5, 0], 7)),
    "--p 5 --e 2 --deg 625": (([3122, 0], 9), ([5, 0], 9)),
    "--p 5 --e 2 --a4 0 --deg 130": (([0, 0], 7), ([155, 0], 7)),
    "--p 7 --e 3 --deg 51": (([3, 0, 0], 7), ([7, 0, 0], 7)),
    "--p 7 --e 3 --deg 343": (([3, 0, 0], 10), ([7, 0, 0], 10)),
    "--p 5 --deg 27 --prec 0": (([122], 3), ([5], 3)),
    "--p 3 --deg 81 --prec 1": (([0], 5), ([138], 5)),
    "--p 5 --e 2 --deg 27 --prec 4": (([122, 0], 5), ([5, 0], 5)),
}


def _digits_and_prec(x):
    return x["digits"], x["prec"]


@pytest.mark.parametrize("args", sorted(LAMBDA_GAMMA_PINS))
def test_lambda_gamma_pinned_at_full_precision(tmp_path, args):
    # a later --a4 overrides the first one
    code, rep = _run(tmp_path, ["--cmd", "crystal", "--a4", "1", "--a6", "1"]
                     + args.split())
    assert code == 0 and rep["status"] == "pass"
    got = _digits_and_prec(rep["lambda"]), _digits_and_prec(rep["gamma"])
    assert got == LAMBDA_GAMMA_PINS[args]


def _output_digits(p, e, D):
    """M = e * floor(log_p D) + 1, by an integer loop."""
    k = 0
    while p ** (k + 1) <= D:
        k += 1
    return e * k + 1


@pytest.mark.parametrize("p, degs", [(5, [27, 125, 625, 3125]),
                                     (3, [11, 27, 81, 243, 729])])
def test_lambda_gamma_precision_is_lattice_modulus(tmp_path, p, degs):
    # at the default --prec the reported precision is exactly M, so it
    # never falls as the degree cap rises
    precs = []
    for D in degs:
        code, rep = _run(tmp_path, ["--cmd", "crystal", "--p", str(p),
                                    "--a4", "1", "--a6", "1",
                                    "--deg", str(D)])
        assert code == 0
        M = _output_digits(p, 1, D)
        assert rep["lambda"]["prec"] == rep["gamma"]["prec"] == M
        precs.append(M)
    assert precs == sorted(precs)


@pytest.mark.parametrize("deg, want", [("8", 2), ("9", 0)])
def test_verify_psi_tower_needs_degree_q_squared(tmp_path, deg, want):
    # the depth-3 tower's mod-pi lead x1^9 is invisible below D = 9
    code, rep = _run(tmp_path, ["--cmd", "verify", "--p", "3", "--deg", deg,
                                "--a4", "8", "--a6", "0"])
    assert code == want
    tower = next(s for s in rep["suites"] if s["name"] == "psi_tower")
    assert tower["status"] == ("inconclusive" if want else "pass")


@pytest.mark.parametrize("argv", [
    "--cmd crystal --p 3 --a4 1 --a6 1 --deg 27 --prec 0",
    "--cmd crystal --p 5 --a4 1 --a6 1 --deg 625 --prec 1",
    "--cmd crystal --p 5 --deg 27 --prec 3",
])
def test_upsilon_of_a_digitless_theta_has_no_digit(argv):
    # the group each argv's crystal run builds, at exactly M digits, and the
    # full group it stands for: theta_m
    # = pi^(-s) * 0 with a numerator known mod pi^s, so `upsilon` of its
    # series is known mod pi^0, though gamma carries all M digits
    params = cli.parse_args(argv.split())
    spec = BaseRingSpec(params["p"], params["e"])
    D = params["deg"]
    M = log_denominator_exponent(spec, D) + 1
    if params["a4"] is None:
        groups = (multiplicative_law(spec, D, M),
                  fgl.ptypical_multiplicative(spec, D, M))
    else:
        groups = (cli._curve(spec, params, M),
                  fgl.ptypical_weierstrass(spec, params["a4"], params["a6"],
                                           D, M))
    for F in groups:  # the full group and its p-typification
        theta = solve_delta_characters(F, splitting_number(F))[0][0]
        assert upsilon(theta).prec == 0
        assert extract_lambda_gamma(theta)[1].prec == M


@pytest.mark.parametrize("argv", [
    "--p 3 --deg 27",
    "--p 3 --a4 1 --a6 1 --deg 27",
    "--p 5 --a4 1 --a6 1 --deg 27",
    "--p 5 --e 2 --a4 1 --a6 1 --deg 27",
])
def test_upsilon_is_minus_gamma_over_pi(tmp_path, argv):
    # Upsilon of the normalized theta_m, whatever d_m the Howell form
    # gave (d_1 = -1 for the multiplicative law at p = 3)
    code, rep = _run(tmp_path, ["--cmd", "crystal"] + argv.split())
    assert code == 0
    spec = BaseRingSpec(rep["params"]["p"], rep["params"]["e"])
    P = rep["gamma"]["prec"] - 1
    ups, gop = (PadicScalar(spec, x["digits"], x["prec"]) for x in
                (rep["de_rham"]["upsilon_theta_m"],
                 rep["de_rham"]["gamma_over_pi"]))
    assert ups.prec == gop.prec == P
    assert ups == -gop


@pytest.mark.parametrize("argv", [
    "--p 5 --a4 1 --a6 1 --deg 27",        # ordinary, M = 3
    "--p 5 --a4 0 --a6 1 --deg 27",        # supersingular, M = 3
    "--p 5 --e 2 --a4 1 --a6 1 --deg 27",  # e = 2, M = 5
    "--p 5 --deg 27",                      # multiplicative law, M = 3
])
def test_crystal_report_ignores_prec(argv):
    # the curve, or the law, is built at exactly M digits: the report is a
    # function of (p, e, D, curve, --nmax) alone
    texts = set()
    for prec in ("0", "1", "3", "8", "12"):
        code, out, _ = _printed(["--cmd", "crystal", "--prec", prec]
                                + argv.split())
        rep = json.loads(out)
        assert code == 0 and rep.pop("params")["prec"] == int(prec)
        texts.add(json.dumps(rep, sort_keys=True))
    assert len(texts) == 1


# exit code and sha256 of verify reports on one curve at --prec 0, 2 and
# the default 8; the values at --prec 2 and 8 were computed before the
# kernel modules stopped being solved as lattices.  At --prec 0 the modulus
# is M = 4 and verify builds the curve at M + 1 = 5 digits, so Psi_i and
# Theta_2 carry one digit and every suite passes; the curve at M digits
# left them none (`test_character_suites_at_the_modulus_are_inconclusive`).
# The `gamma_identity` details have moved since: they give gamma as `crystal`
# does (`test_verify_and_crystal_agree_on_gamma`).
VERIFY_PRECISIONS = {
    "--prec 0": (
        0, "a696a659cc0ae29199243a40738d3aae4363a784f4b5e61d34f8f7be458b3220"),
    "--prec 2": (
        0, "8796c8151aa613da77e202e21e3e71059cbd7cf0f98a2d1eef3702cc94d96a32"),
    "": (
        0, "5e5fe8a115f6ddb419db525d816c247d2d1a5c40b5f4d00a731625d9d5458b1b"),
}


@pytest.mark.parametrize("prec", sorted(VERIFY_PRECISIONS))
def test_verify_character_suites_need_a_digit(tmp_path, prec):
    args = ["--cmd", "verify", "--p", "3", "--a4", "1", "--a6", "1",
            "--deg", "27"] + prec.split()
    code, rep = _run(tmp_path, args)
    want_code, want_digest = VERIFY_PRECISIONS[prec]
    assert code == want_code
    assert all(s["status"] == "pass" for s in rep["suites"])
    digest = hashlib.sha256(
        (tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == want_digest


@pytest.mark.parametrize("argv", [
    "--p 3 --a4 1 --a6 1 --deg 27",
    "--p 3 --a4 1 --a6 1 --deg 11",
    "--p 5 --e 2 --a4 1 --a6 1 --deg 27 --prec 2",
])
def test_verify_and_crystal_agree_on_gamma(tmp_path, argv):
    # verify's gamma_identity details give gamma = d_0 / d_2 with its
    # precision, the (digits, prec) that crystal reports
    code, rep = _run(tmp_path, ["--cmd", "crystal"] + argv.split())
    assert code == 0
    gamma = PadicScalar(BaseRingSpec(rep["params"]["p"], rep["params"]["e"]),
                        rep["gamma"]["digits"], rep["gamma"]["prec"])
    code, rep = _run(tmp_path, ["--cmd", "verify"] + argv.split())
    assert code == 0
    [suite] = [s for s in rep["suites"] if s["name"] == "gamma_identity"]
    assert suite["status"] == "pass"
    assert suite["details"] == f"gamma = {gamma!r}"


def test_gamma_identity_passes_when_gamma_is_undetermined(tmp_path,
                                                          monkeypatch):
    # no curve at hand has a Theta_2 whose d_2 is not a unit: the identity
    # is checked all the same, and the details say why gamma is not given
    def no_unit(theta):
        raise Inconclusive("top Psi coefficient is not a unit at precision")

    monkeypatch.setattr(verify, "extract_lambda_gamma", no_unit)
    code, rep = _run(tmp_path, ["--cmd", "verify", "--p", "3", "--a4", "1",
                                "--a6", "1", "--deg", "27"])
    assert code == 0
    [suite] = [s for s in rep["suites"] if s["name"] == "gamma_identity"]
    assert suite["status"] == "pass"
    assert suite["details"] == ("gamma undetermined: top Psi coefficient "
                                "is not a unit at precision")


@pytest.mark.parametrize("p, e", [(3, 1), (5, 2)])
def test_character_suites_at_the_modulus_are_inconclusive(p, e):
    # a curve at exactly M digits: Psi_i and Theta_2 are values over
    # pi^(s + 1) = pi^M of numerators known to M digits, so they carry none
    spec = BaseRingSpec(p, e)
    M = log_denominator_exponent(spec, 27) + 1
    F = formal_group_from_weierstrass(spec, spec.scalar(1, M),
                                      spec.scalar(1, M), 27)
    suites = run_character_suites(F)
    assert len(suites) == 4
    assert all(s["status"] == "inconclusive" and "no pi-adic digit"
               in s["details"] for s in suites)


@pytest.mark.parametrize("argv", [
    "--p 5 --e 2 --a4 1 --a6 1 --deg 27 --prec 0",
    "--p 3 --a4 1 --a6 1 --deg 81 --prec 0",
])
def test_verify_builds_the_curve_one_digit_over_the_modulus(tmp_path, argv):
    # --prec + 4 < M + 1 here: at M digits the four character suites were
    # inconclusive (crystal passes at M), at M + 1 all eight pass
    code, rep = _run(tmp_path, ["--cmd", "verify"] + argv.split())
    assert code == 0 and rep["status"] == "pass"
    assert len(rep["suites"]) == 8
    assert all(s["status"] == "pass" for s in rep["suites"])
    code, rep = _run(tmp_path, ["--cmd", "crystal"] + argv.split())
    assert code == 0 and rep["status"] == "pass"


@pytest.mark.parametrize("argv", [
    "--p 3 --deg 27 --prec 1",
    "--p 3 --deg 9 --prec 0",
    "--p 5 --deg 27 --prec 0",
])
def test_verify_psi_tower_with_fewer_digits_than_its_order(tmp_path, argv):
    # Psi_i known to fewer than i - 1 digits: pi^(i-1) x_i reads 0 there,
    # and every suite runs
    code, rep = _run(tmp_path, ["--cmd", "verify", "--a4", "1", "--a6", "1"]
                     + argv.split())
    assert code == 0 and rep["status"] == "pass"
    assert len(rep["suites"]) == 8
    assert all(s["status"] == "pass" for s in rep["suites"])


@pytest.mark.parametrize("cmd", ["crystal", "verify"])
@pytest.mark.parametrize("curve", ["", "--a4 1 --a6 1"])
@pytest.mark.parametrize("deg", ["0", "-3"])
def test_degree_cap_below_one_fails(tmp_path, cmd, curve, deg):
    # a cap below 1 used to reach the engine and raise the red alert
    code, rep = _run(tmp_path, ["--cmd", cmd, "--p", "5", "--deg", deg]
                     + curve.split())
    assert code == 1 and rep["status"] == "fail"
    assert rep["error"] == f"InvalidParameters: deg must be >= 1, not {deg}"


@pytest.mark.parametrize("cmd", ["crystal", "verify", "witt"])
@pytest.mark.parametrize("nmax", ["0", "-2"])
def test_character_order_below_one_fails(tmp_path, cmd, nmax):
    # crystal used to call this inconclusive (no character up to n_max),
    # and witt failed on an empty or too short Witt vector
    code, rep = _run(tmp_path, ["--cmd", cmd, "--p", "5", "--nmax", nmax,
                                "--a4", "1", "--a6", "1"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["error"] == f"InvalidParameters: nmax must be >= 1, not {nmax}"


@pytest.mark.parametrize("nmax", ["4", "7"])
def test_witt_order_above_three_fails(tmp_path, nmax):
    # witt used to cut nmax to 3 and pass, with length-4 vectors under a
    # params.nmax that said otherwise
    code, rep = _run(tmp_path, ["--cmd", "witt", "--p", "5", "--nmax", nmax,
                                "--prec", "2"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["error"] == f"InvalidParameters: witt needs nmax <= 3, " \
                           f"not {nmax}"
    assert rep["params"]["nmax"] == int(nmax) and "x" not in rep


@pytest.mark.parametrize("cmd", ["witt", "verify", "crystal"])
def test_negative_prec_fails(tmp_path, cmd):
    code, rep = _run(tmp_path, ["--cmd", cmd, "--prec", "-3"])
    assert code == 1 and rep["status"] == "fail"
    assert "InvalidParameters" in rep["error"] and "prec" in rep["error"]
    assert rep["params"]["prec"] == -3


def test_unwritable_out_reports_on_stdout(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = run(["--cmd", "witt", "--p", "3", "--nmax", "1", "--prec", "3",
                "--out", str(out)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and rep["status"] == "fail"
    assert "FileNotFoundError" in rep["error"] and "missing" in rep["error"]
    assert rep["command"] == "witt" and rep["params"]["p"] == 3
    assert not out.exists()


@pytest.mark.parametrize("nbytes", [0, 1500])
def test_closed_stdout_keeps_the_exit_code(nbytes):
    # a reader that stops early (`| head -c 1500`) or reads nothing gets
    # no traceback, and the exit code is the report's
    argv = ["--cmd", "crystal", "--p", "5", "--a4", "1", "--a6", "0",
            "--deg", "125"]
    code, out, _ = _printed(argv)
    assert code == 0 and len(out) > nbytes
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "arithjet.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(src)})
    head = proc.stdout.read(nbytes)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == code and err == b""
    assert head == out.encode()[:nbytes]
