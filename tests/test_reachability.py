"""Every function of `src/arithjet` is reached by a command, or is listed
in `PUBLIC_API` with the reason it stays.

The sweep is the one of `test_report_pins.py` (`conftest.pinned_runs`):
every command line it pins, its `--config` run included, through
`cli.run` in one process under `sys.setprofile`.  Each code object that
runs maps to its `def` by file, first line and name.  Python 3.10 has no
`co_qualname`, so the qualified names come from the source, by `ast`; a
code object's first line is that of its first decorator, if it has one.
`__repr__` methods are exempt: they serve the reader of a failed test or
a traceback.

A function that no command reaches and that is not public API belongs
next to its tests (as `tests/law_oracle.py` holds the law checks), or
nowhere.
"""

import ast
import importlib
from pathlib import Path

import pytest

import arithjet

SRC = Path(arithjet.__file__).resolve().parent

# the benchmark's workloads (perfbench/workloads.py) and the targets that
# perfbench/spans.py wraps reach these names, and no command does
_LAW_STACK = ("group-law workload: the bivariate law and the componentwise "
              "kernel and jet laws it checks characters on (ROADMAP item 16)")
_WITT_SCALAR = "witt-scalar workload: its ghost oracle checks"

# "module.qualname" -> why it stays though no command reaches it
PUBLIC_API = {
    "witt.teichmuller": "a named map of the paper, tested by its defining "
                        "identity w([b]) = (b, b^q, b^(q^2), ...)",
    "witt.f_tilde": "a named map of the paper, tested by its defining "
                    "identity w(f~(r)) = (r, ..., r)",
    "characters.u_star": "a named map of the paper (the pullback along "
                         "N^n -> N^m), tested by its defining identities",
    "witt.WittVector.reduce_prec": "Witt ring API",
    "witt.WittVector.__sub__": "Witt ring API",
    "series.TruncSeries.to_json": "the serialization every sha256 pin of a "
                                  "series hashes",
    "series.TruncSeries.leading_monomial": "used by Character.__repr__",
    "cli.main": "the console script",
    "characters.kernel_group_law": _LAW_STACK,
    "characters.KernelGroupLaw.laws": _LAW_STACK,
    "characters.KernelGroupLaw._build": _LAW_STACK,
    "characters.KernelGroupLaw.vars_y": _LAW_STACK,
    "characters.Character.check_additive": "spans.py target "
                                           "characters.check_additive; "
                                           + _LAW_STACK,
    "witt.fgl_eval_witt": "spans.py target witt.fgl_eval; " + _LAW_STACK,
    "witt.WittVector.cap": _LAW_STACK,
    "fgl.FormalGroupLaw.law": _LAW_STACK,
    "fgl._chord_tangent_law": _LAW_STACK,
    "fgl._weierstrass_w": _LAW_STACK,
    "fgl._unit_inverse": _LAW_STACK,
    "ring.PadicScalar.scale_int": _LAW_STACK,
    "series.TruncSeries.__mul__": "spans.py target series.mul; "
                                  + _LAW_STACK,
    "series.TruncSeries.constant_term": _LAW_STACK,
    "series.TruncSeries.from_scalar_dict": _LAW_STACK,
    "series.TruncSeries.int_mul": _LAW_STACK,
    "series.TruncSeries.with_cap": _LAW_STACK,
    "series.TruncSeries.zero": _LAW_STACK,
    "lateral.from_witt": "spans.py target lateral.from_witt; group-law "
                         "workload: the W~ round trip",
    "lateral.TildeWittVector.__eq__": "group-law workload: the W~ round "
                                      "trip",
    "witt.WittVector.__neg__": _WITT_SCALAR,
    "witt.WittVector.is_zero": _WITT_SCALAR,
}


def _defs() -> dict:
    """(file, first line, name) -> "module.qualname" of every def in
    src/arithjet, nested ones under `<locals>` as Python names them."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[str(path), first, child.name] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, path.stem + ".")
    return out


@pytest.fixture(scope="module")
def reach(pinned_runs):
    """(every def's name, the names a command reaches)."""
    defs = _defs()
    reached = {defs.get((str(Path(code.co_filename).resolve()),
                         code.co_firstlineno, code.co_name))
               for code in pinned_runs[1]}
    return set(defs.values()), reached - {None}


def test_every_def_is_reached_or_public(reach):
    names, reached = reach
    exempt = {n for n in names if n.endswith(".__repr__")}
    unlisted = sorted(names - reached - exempt - set(PUBLIC_API))
    assert not unlisted, ("reached by no command and not in PUBLIC_API: "
                          + ", ".join(unlisted))


def test_no_public_api_entry_is_reached(reach):
    """An entry a command reaches needs no reason: it is stale."""
    stale = sorted(reach[1] & set(PUBLIC_API))
    assert not stale, "PUBLIC_API entries a command reaches: " + \
        ", ".join(stale)


def test_every_public_api_entry_names_a_def(reach):
    unknown = sorted(set(PUBLIC_API) - reach[0])
    assert not unknown, "PUBLIC_API entries naming no def: " + \
        ", ".join(unknown)


# names that no command reached and that left src: deleted, or moved to
# tests/psi_oracle.py (expand_in_psi_basis, BasisExpansionFailed) and
# tests/howell_oracle.py (left_kernel_basis)
GONE = (
    "characters.Character.scalar_mul", "characters.expand_in_psi_basis",
    "howell.left_kernel_basis",
    "crystal.FilteredIsocrystal.det", "errors.BasisExpansionFailed",
    "lateral.TildeWittVector.__add__", "lateral.TildeWittVector.__mul__",
    "lateral.TildeWittVector.__neg__", "lateral.TildeWittVector.__sub__",
    "lateral.TildeWittVector._binary", "lateral.tilde_unpack",
    "ring.BaseRingSpec.digit_modulus", "ring.PadicScalar.delta",
    "ring.PadicScalar.phi", "ring.c_pi", "series.FracSeries.is_integral",
    "series.FracSeries.substitute",
)


def _resolves(dotted: str) -> bool:
    module, *path = dotted.split(".")
    owner = importlib.import_module(f"arithjet.{module}")
    for part in path:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_all_names_resolve_and_none_is_gone():
    assert [n for n in arithjet.__all__ if not hasattr(arithjet, n)] == []
    gone = {dotted.rsplit(".", 1)[1] for dotted in GONE}
    assert sorted(gone & set(arithjet.__all__)) == []
    assert [d for d in GONE if _resolves(d)] == []
