"""pi-typical Witt vectors: structural polynomials, ring ops, F, V, [.].

A length-(n+1) Witt vector holds components in a coefficient algebra —
either PadicScalar or TruncSeries (all components sharing one context).
Ring operations evaluate cached structural polynomial tables; the tables
are produced once per (spec, n, op, cap, prec) by the ghost recursion over
a generic polynomial algebra at boosted precision prec + n.

Tables may carry a degree cap.  Capped tables are only sound when every
substituted component has zero constant term (true for all series work
here); scalar arithmetic always uses exact, uncapped tables.
"""

from __future__ import annotations

from .errors import (
    IncompatibleSpec,
    IntegralityViolation,
    NonNilpotentComposition,
    NotDivisible,
)
from .ring import BaseRingSpec, PadicScalar
from .series import TruncSeries


# --------------------------------------------------------------------------
# structural polynomial tables
# --------------------------------------------------------------------------

_TABLE_CACHE: dict = {}


class StructuralPolynomialTable:
    """Slot polynomials for one Witt operation (sum, prod or frobenius)."""

    def __init__(self, op: str, n: int, polys: list, budget_prec: int,
                 cap: int | None):
        self.op = op
        self.n = n
        self.polys = polys
        self.budget_prec = budget_prec
        self.cap = cap

    def to_json(self):
        return {"op": self.op, "n": self.n, "degree_cap": self.cap,
                "budget_prec": self.budget_prec,
                "slots": [p.to_json() for p in self.polys]}


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
    preimage; for the structural polynomials, the constant-ghost lift,
    group laws and the lateral embedding the existence theorem forbids
    that: report a red alert.
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


def structural_polynomials(spec: BaseRingSpec, n: int, op: str,
                           cap: int | None = None,
                           prec: int | None = None) -> StructuralPolynomialTable:
    """Table of S_i / P_i / F_i polynomials for W_n (length n + 1)."""
    if op not in ("sum", "prod", "frobenius"):
        raise IncompatibleSpec(f"unknown structural op {op!r}")
    if op == "frobenius" and n < 1:
        raise IncompatibleSpec("frobenius needs length >= 2")
    if prec is None:
        prec = spec.precision_default
    key = (spec, n, op, cap, prec)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    budget = prec + n
    xs = tuple(f"x{i}" for i in range(n + 1))
    if op == "frobenius":
        vars_ = xs
        gens = [TruncSeries.gen(spec, vars_, v, cap, budget) for v in xs]
        gx = _ghost(spec, gens, budget)
        target = gx[1:]
    else:
        ys = tuple(f"y{i}" for i in range(n + 1))
        vars_ = xs + ys
        gens_x = [TruncSeries.gen(spec, vars_, v, cap, budget) for v in xs]
        gens_y = [TruncSeries.gen(spec, vars_, v, cap, budget) for v in ys]
        gx = _ghost(spec, gens_x, budget)
        gy = _ghost(spec, gens_y, budget)
        if op == "sum":
            target = [a + b for a, b in zip(gx, gy)]
        else:
            target = [a * b for a, b in zip(gx, gy)]
    polys = _ghost_invert(spec, target)
    polys = [p.reduce_prec(prec) for p in polys]
    table = StructuralPolynomialTable(op, n, polys, budget, cap)
    _TABLE_CACHE[key] = table
    return table


# --------------------------------------------------------------------------
# Witt vectors
# --------------------------------------------------------------------------

def _is_series(c) -> bool:
    return isinstance(c, TruncSeries)


def _op_cap(*vecs):
    """Degree cap usable for a table evaluation over these operands.

    Capped tables substitute soundly only when every component has zero
    constant term; otherwise fall back to exact (uncapped) tables, into
    which any series may be substituted.
    """
    v0 = vecs[0]
    if not v0.is_series():
        return None
    for v in vecs:
        for c in v.components:
            if not c.constant_term().is_zero():
                return None
    return v0.cap()


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
    def from_ints(cls, spec, ints, prec=None):
        return cls(spec, [spec.scalar(v, prec) for v in ints])

    # -- table evaluation -----------------------------------------------------

    def _eval_table(self, table, values: dict):
        out = []
        for poly in table.polys:
            if self.is_series():
                out.append(poly.substitute(values))
            else:
                out.append(poly.evaluate(values))
        return WittVector(self.spec, out)

    def _binary_values(self, other):
        vals = {}
        for i, c in enumerate(self.components):
            vals[f"x{i}"] = c
        for i, c in enumerate(other.components):
            vals[f"y{i}"] = c
        return vals

    def __add__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        table = structural_polynomials(
            self.spec, self.n, "sum", cap=_op_cap(self, other),
            prec=max(self.prec(), other.prec()))
        return self._eval_table(table, self._binary_values(other))

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        table = structural_polynomials(
            self.spec, self.n, "prod", cap=_op_cap(self, other),
            prec=max(self.prec(), other.prec()))
        return self._eval_table(table, self._binary_values(other))

    def __neg__(self) -> "WittVector":
        # boost the constant's precision so the lift's pi-divisions are free
        minus_one = f_tilde(self.spec,
                            self.spec.scalar(-1, self.prec() + self.n),
                            self.n, like=self)
        return minus_one * self

    def __sub__(self, other: "WittVector") -> "WittVector":
        return self + (-other)

    def scalar_mul(self, r: PadicScalar) -> "WittVector":
        """The R-algebra action r . x = f_tilde(r) * x."""
        return f_tilde(self.spec, r, self.n, like=self) * self


def frobenius_W(x: WittVector) -> WittVector:
    """F: W_n -> W_(n-1); ghost left-shift over phi."""
    if x.length < 2:
        raise IncompatibleSpec("F needs length >= 2")
    table = structural_polynomials(
        x.spec, x.n, "frobenius", cap=_op_cap(x), prec=x.prec())
    values = {f"x{i}": c for i, c in enumerate(x.components)}
    return x._eval_table(table, values)


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

_FTILDE_CACHE: dict = {}


def f_tilde_scalar(spec: BaseRingSpec, r: PadicScalar, n: int) -> WittVector:
    """The unique Frobenius-compatible lift of r: ghost (r, r, ..., r).

    Needs r at precision >= desired + n (the ghost inversion divides by
    pi^i); the result carries precision r.prec - n.
    """
    key = (spec, r.digits, r.prec, n)
    hit = _FTILDE_CACHE.get(key)
    if hit is not None:
        return hit
    comps = _ghost_invert(spec, [r] * (n + 1))
    prec = min(c.prec for c in comps)
    comps = [c.reduce_prec(prec) for c in comps]
    vec = WittVector(spec, comps)
    _FTILDE_CACHE[key] = vec
    return vec


def f_tilde(spec: BaseRingSpec, r: PadicScalar, n: int,
            like: WittVector | None = None) -> WittVector:
    """f_tilde(r) in the coefficient algebra of `like` (scalars if None)."""
    vec = f_tilde_scalar(spec, r, n)
    if like is None or not like.is_series():
        return vec
    z = like.components[0]
    comps = [TruncSeries.const(z.spec, z.vars, c, z.cap,
                               min(z.prec, c.prec))
             for c in vec.components]
    return WittVector(spec, comps)


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
    return WittVector(spec, [c.reduce_prec(P - a.n)
                             for c in _ghost_invert(spec, ghosts)])
