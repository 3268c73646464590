"""Every verify suite can fail: with one layer it checks perturbed, each
suite reports `fail` rather than `pass` or an exception, `summarize`
takes the fail, and the CLI exits 1 on a perturbed verify or witt run."""

import json

import pytest

from arithjet import verify
from arithjet.characters import Character
from arithjet.cli import run
from arithjet.fgl import formal_group_from_weierstrass
from arithjet.lateral import TildeWittVector
from arithjet.ring import BaseRingSpec
from arithjet.series import FracSeries
from arithjet.witt import WittVector

SPEC5 = BaseRingSpec(5)


def _bump_r(real):
    """The lateral Frobenius with its R-slot off by one."""
    def wrong(t):
        ft = real(t)
        return TildeWittVector(ft.spec, ft.r + ft.spec.one(ft.r.prec),
                               ft.tail)
    return wrong


def _bump(real):
    """A map to scalars, off by one."""
    def wrong(x):
        v = real(x)
        return v + v.spec.one(v.prec)
    return wrong


def _plus_self(real):
    """A pullback to order n + 1 plus the character itself, read in the
    order n + 1 coordinates."""
    def wrong(ch):
        out = real(ch)
        own = ch.frac.num.extend_vars(out.frac.num.vars)
        return Character(out.kind, out.n,
                         out.frac + FracSeries(own, ch.frac.shift))
    return wrong


# (suite name, owner of the layer, attribute, perturbation of the layer)
WITT_PERTURBED = [
    ("ghost_oracle", WittVector, "__add__",
     lambda real: lambda x, y: real(real(x, y), y)),    # x + 2y
    ("fv_identities", verify, "frobenius_W",
     lambda real: lambda x: x),                          # F = id
    ("latfrob_congruence", verify, "lateral_frobenius",
     lambda real: lambda t: t),                          # F~ = id
    ("fdid", verify, "lateral_frobenius", _bump_r),
]
CHARACTER_PERTURBED = [
    ("psi_tower", verify, "psi_basis",
     lambda real: lambda F, n: real(F, n)[::-1]),        # Psi_n first
    ("gamma_identity", verify, "upsilon", _bump),        # gamma off by pi
    ("upsilon_vanishing", verify, "frobenius_pullback", _plus_self),
    ("tower_pullback", verify, "lateral_pullback", _plus_self),
]


def _perturb(monkeypatch, owner, attr, wrong):
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))


def _by_name(suites):
    return {s["name"]: s["status"] for s in suites}


@pytest.mark.parametrize("name,owner,attr,wrong", WITT_PERTURBED,
                         ids=[w[0] for w in WITT_PERTURBED])
def test_witt_suite_fails_on_a_perturbed_layer(monkeypatch, name, owner,
                                                attr, wrong):
    assert _by_name(verify.run_witt_suites(SPEC5, 0))[name] == "pass"
    _perturb(monkeypatch, owner, attr, wrong)
    suites = verify.run_witt_suites(SPEC5, 0)
    assert _by_name(suites)[name] == "fail"
    assert verify.summarize(suites) == "fail"


def _curve():
    # a fresh group: the perturbed runs must not share its memo
    return formal_group_from_weierstrass(SPEC5, SPEC5.scalar(1, 6),
                                         SPEC5.scalar(1, 6), 27)


@pytest.mark.parametrize("name,owner,attr,wrong", CHARACTER_PERTURBED,
                         ids=[c[0] for c in CHARACTER_PERTURBED])
def test_character_suite_fails_on_a_perturbed_layer(monkeypatch, name,
                                                     owner, attr, wrong):
    assert _by_name(verify.run_character_suites(_curve()))[name] == "pass"
    _perturb(monkeypatch, owner, attr, wrong)
    suites = verify.run_character_suites(_curve())
    assert _by_name(suites)[name] == "fail"
    assert verify.summarize(suites) == "fail"


@pytest.mark.parametrize("argv,owner,attr,wrong", [
    ("--cmd verify --p 5 --a4 1 --a6 1 --deg 27 --prec 2", verify,
     "lateral_pullback", _plus_self),
    ("--cmd witt --p 5 --nmax 2 --prec 3", WittVector, "__mul__",
     lambda real: lambda x, y: real(x, real(y, y))),
], ids=["verify", "witt"])
def test_cli_exits_one_on_a_perturbed_layer(tmp_path, monkeypatch, argv,
                                            owner, attr, wrong):
    _perturb(monkeypatch, owner, attr, wrong)
    out = tmp_path / "report.json"
    code = run(argv.split() + ["--out", str(out)])
    rep = json.loads(out.read_text())
    assert code == 1 and rep["status"] == "fail"
    assert "error" not in rep
