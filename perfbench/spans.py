"""Per-layer tracing of arithjet from outside the library.

`install` replaces selected public functions and methods with wrappers, at
the name their caller looks up (for example the `right_kernel_basis` bound
in `arithjet.characters`, or `TruncSeries.__mul__` on the class).  Each
wrapper records a span: its calls and its self time, which is the span's
duration minus the duration of the spans nested inside it.  Spans are
aggregated per name in memory rather than kept one by one, because the hot
layers make tens of thousands of calls per round.

Every record is kept under a region: "op" while the benchmark times a
library operation, "untimed" otherwise (its correctness checks and input
preparation), so that the oracle's cost stays apart from the measured
work.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

REGIONS = ("op", "untimed")


class Tracer:
    def __init__(self):
        self.spans = {r: defaultdict(lambda: [0, 0.0]) for r in REGIONS}
        self.counts = {r: Counter() for r in REGIONS}
        self.distinct = {r: defaultdict(set) for r in REGIONS}
        self.region = "untimed"
        self.stack: list[float] = []

    def wrap(self, name: str, fn, on_exit=None):
        """`fn` wrapped in a span called `name`.

        `on_exit(tracer, args, kwargs, result)` runs after a successful
        call and may add counts.
        """
        perf = time.perf_counter
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                rec = spans[self.region][name]
                rec[0] += 1
                rec[1] += dt - child
                if stack:
                    stack[-1] += dt
            if on_exit is not None:
                on_exit(self, args, kwargs, result)
            return result

        return traced

    def count_calls(self, name: str, fn):
        """`fn` wrapped so that it only counts its calls (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[self.region][name] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, amount: int = 1):
        self.counts[self.region][name] += amount

    def note_distinct(self, name: str, key):
        """Record `key` for span `name`; returns True when it is new."""
        seen = self.distinct[self.region][name]
        if key in seen:
            return False
        seen.add(key)
        return True

    def to_json(self) -> dict:
        return {r: {"spans": {k: list(v) for k, v in self.spans[r].items()},
                    "counts": dict(self.counts[r]),
                    "distinct": {k: len(v)
                                 for k, v in self.distinct[r].items()}}
                for r in REGIONS}


def _law_key(F):
    return (F.spec.p, F.spec.e, F.name, F.cap, F.prec)


def _law_terms(tracer, args, kwargs, result):
    tracer.add("fgl.law_terms", len(result.law.coeffs))


def _log_law(tracer, args, kwargs, result):
    tracer.note_distinct("fgl.log", _law_key(args[0]))


def _mul_terms(tracer, args, kwargs, result):
    tracer.add("series.mul.terms_out", len(result.coeffs))


def _table_build(tracer, args, kwargs, result):
    if tracer.note_distinct("witt.tables",
                            (args, tuple(sorted(kwargs.items())))):
        tracer.add("witt.tables.builds")


def _kernel_rows(tracer, args, kwargs, result):
    tracer.add("howell.kernel.rows", len(args[1]))


def _solve_key(tracer, args, kwargs, result):
    law = args[0]
    tracer.note_distinct("characters.solve",
                         (_law_key(law.F), law.n, law.kind, args[1:],
                          tuple(sorted(kwargs.items()))))


# span name -> (the names it is looked up under, optional counting hook)
SPANS = {
    "fgl.weierstrass": (["arithjet.cli:formal_group_from_weierstrass",
                         "arithjet.fgl:formal_group_from_weierstrass"],
                        _law_terms),
    "fgl.log": (["arithjet.characters:formal_logarithm"], _log_law),
    "series.mul": (["arithjet.series:TruncSeries.__mul__"], _mul_terms),
    "series.substitute": (["arithjet.series:TruncSeries.substitute"], None),
    "series.evaluate": (["arithjet.series:TruncSeries.evaluate"], None),
    "witt.tables": (["arithjet.witt:structural_polynomials"], _table_build),
    "witt.add": (["arithjet.witt:WittVector.__add__"], None),
    "witt.mul": (["arithjet.witt:WittVector.__mul__"], None),
    "witt.frobenius": (["arithjet.witt:frobenius_W",
                        "arithjet.characters:frobenius_W",
                        "arithjet.lateral:frobenius_W",
                        "arithjet.verify:frobenius_W"], None),
    "witt.fgl_eval": (["arithjet.characters:fgl_eval_witt"], None),
    "lateral.frobenius": (["arithjet.verify:lateral_frobenius"], None),
    "lateral.from_witt": (["arithjet.lateral:from_witt"], None),
    "howell.kernel": (["arithjet.characters:right_kernel_basis"],
                      _kernel_rows),
    "howell.rank": (["arithjet.characters:module_rank"], None),
    "characters.solve": (["arithjet.characters:solve_additive"], _solve_key),
    "characters.log_ghost": (["arithjet.characters:log_ghost_generators"],
                             None),
    "characters.splitting": (["arithjet.cli:splitting_number"], None),
    "characters.rank_table": (["arithjet.cli:rank_table"], None),
    "characters.psi_basis": (["arithjet.cli:psi_basis",
                              "arithjet.verify:psi_basis"], None),
    "characters.extract": (["arithjet.cli:extract_lambda_gamma"], None),
    "characters.check_additive": (
        ["arithjet.characters:Character.check_additive"], None),
    "crystal.build": (["arithjet.cli:build_crystal"], None),
    "crystal.polygons": (["arithjet.cli:polygons"], None),
    "crystal.weak_admissibility": (["arithjet.cli:weak_admissibility"], None),
    "verify.ghost_components": (["arithjet.verify:ghost_components"], None),
    "cli.run": (["arithjet.cli:run"], None),
}

# count-only wrappers: these are called too often for a span each
COUNTED = {
    "ring.mul.calls": "arithjet.ring:PadicScalar.__mul__",
    "ring.inverse.calls": "arithjet.ring:PadicScalar.inverse",
}


def _resolve(target: str):
    """'module:Class.attr' -> (object holding attr, attr name)."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer):
    """Wrap every traced name; callers then reach the wrappers."""
    for name, (targets, hook) in SPANS.items():
        for target in targets:
            owner, attr = _resolve(target)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                             hook))
    for name, target in COUNTED.items():
        owner, attr = _resolve(target)
        setattr(owner, attr, tracer.count_calls(name, getattr(owner, attr)))
