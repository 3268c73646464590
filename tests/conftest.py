import contextlib
import hashlib
import io
import sys

import pytest

from law_oracle import multiplicative_law

from arithjet import cli, witt
from arithjet.characters import psi_basis, rank_table, solve_delta_characters
from arithjet.fgl import formal_group_from_weierstrass
from arithjet.ring import BaseRingSpec

N_DESK = 6


@pytest.fixture(scope="session")
def spec2():
    return BaseRingSpec(p=2, e=1)


@pytest.fixture(scope="session")
def spec3():
    return BaseRingSpec(p=3, e=1)


@pytest.fixture(scope="session")
def spec5():
    return BaseRingSpec(p=5, e=1)


@pytest.fixture(scope="session")
def curve5(spec5):
    """y^2 = x^3 + x + 1 over Z5 (ordinary, a_5 = -3), D = 27."""
    prec = N_DESK + 4
    return formal_group_from_weierstrass(
        spec5, spec5.scalar(1, prec), spec5.scalar(1, prec), 27)


@pytest.fixture(scope="session")
def curve5_ss(spec5):
    """y^2 = x^3 + 1 over Z5 (supersingular, a_5 = 0), D = 27."""
    prec = N_DESK + 4
    return formal_group_from_weierstrass(
        spec5, spec5.scalar(0, prec), spec5.scalar(1, prec), 27)


@pytest.fixture(scope="session")
def mult5(spec5):
    return multiplicative_law(spec5, 27, N_DESK + 2)


@pytest.fixture(scope="session")
def theta2_5(curve5):
    chars, rank = solve_delta_characters(curve5, 2)
    assert rank >= 1
    return chars[0]


@pytest.fixture(scope="session")
def psis2_5(curve5):
    return psi_basis(curve5, 2)


@pytest.fixture(scope="session")
def psis3_5(curve5):
    return psi_basis(curve5, 3)


@pytest.fixture(scope="session")
def table5(curve5):
    return rank_table(curve5, 3)


@pytest.fixture(scope="session")
def pinned_runs(tmp_path_factory):
    """One run of every command line `test_report_pins.py` pins, and of its
    `--config` file (key "--config"), through `cli.run` in this process
    under `sys.setprofile`: ({argv: (exit code, sha256 of stdout)}, the
    code objects that ran).  `test_report_pins.py` checks the reports,
    `test_reachability.py` the code objects."""
    from test_report_pins import ARGVS, config_argv

    argvs = {argv: argv.split() for argv in ARGVS}
    argvs["--config"] = config_argv(tmp_path_factory.mktemp("config"))
    seen, reports = set(), {}

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # start from no cached Witt table, as a new process does, so that the
    # code objects do not depend on the tests that ran before
    tables, witt._TABLE_CACHE = witt._TABLE_CACHE, {}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for key, argv in argvs.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            reports[key] = (
                code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
    finally:
        sys.setprofile(previous)
        witt._TABLE_CACHE = tables
    return reports, seen
