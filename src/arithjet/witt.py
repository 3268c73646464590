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

- The ghost map and its inversion each run one loop on one
  `series._Packing` per call, for scalars (no variables: one key, 0) and
  series: each component is packed once and its tower x^(q^k) built
  packed; each slot is summed raw, reduced once (the inversion divides it
  by pi^i once) and unpacked once.  Uncapped, `_packing` bounds the
  degree of every power built, whatever cancels in the ghosts.
- Slotwise on the ghosts: * and F of every vector and series + (product,
  left shift, sum); negation and r.x = f~(r) x (times -1 or r); f~(r),
  `fgl_eval_witt`, and the lateral embedding and its inverse.
- Scalar + evaluates an exact structural table, built once per
  (spec, n, prec) by the same inversion over generic variables at
  prec + n; its ghost path waits for the benchmark to read each worker's
  own peak RSS (ROADMAP items 5 and 6).  The sum, product and Frobenius
  tables are the reference the tests compare the ghost path with.
"""

from __future__ import annotations

import operator

from .errors import (
    IncompatibleSpec,
    IntegralityViolation,
    NonNilpotentComposition,
    NotDivisible,
)
from .ring import BaseRingSpec, PadicScalar, digit_div_pi, digit_mul_pi
from .series import TruncSeries, _Packing, _power


# --------------------------------------------------------------------------
# the ghost map and structural polynomial tables
# --------------------------------------------------------------------------

_TABLE_CACHE: dict = {}


def _packing(spec, elems, prec: int) -> _Packing:
    """The one packing of a ghost-map call on `elems`, the components or
    the ghosts; a scalar is the zero-variable case (one key, 0).  Uncapped,
    top = D_n, D_i = max(deg v_i, q D_(i-1)), bounds every power either
    loop builds, whatever cancels in the ghosts: x = (2t, -2t^2) at p = 2
    has w_1 = 0, yet its inversion squares 2t."""
    like = elems[0]
    if not _is_series(like):
        return _Packing(spec, prec, 0, 0, False)
    top = like.cap
    if top is None:
        top = 0
        for v in elems:
            top = max(v.max_degree() or 0, spec.q * top)
    return _Packing(spec, prec, len(like.vars), top, like.cap is not None)


def _pack(ring: _Packing, c) -> dict:
    """c read at the packing's precision (a raised c keeps its digits)."""
    packed = ring.pack(c.coeffs if _is_series(c) else {(): c.digits})
    return packed if c.prec <= ring.prec else ring.reduce(packed)


def _unpack(ring: _Packing, like, packed: dict, prec: int):
    coeffs = ring.unpack(packed)
    if _is_series(like):
        return TruncSeries(ring.spec, like.vars, coeffs, like.cap, prec,
                           _canonical=True)
    return PadicScalar(ring.spec, coeffs.get((), (0,) * ring.spec.e), prec)


def _ghost(spec, comps, prec):
    """Ghost components w_i = sum_j pi^j x_j^(q^(i-j)) mod pi^prec, each x_j
    read at prec.  Inverted at prec they give prec - n digits independent
    of how a raised x_j was lifted: Witt polynomials have R-coefficients."""
    q, n, like = spec.q, len(comps) - 1, comps[0]
    ring = _packing(spec, comps, prec)
    shifts = [digit_mul_pi(spec, spec.one(1).digits, j) for j in range(n + 1)]
    powers, out = [], []
    for x in comps:
        # powers[j] = x_j^(q^(i-j)), each from the previous one by ^q
        powers = [_power({1: y}, q, ring.product) for y in powers]
        powers.append(_pack(ring, x))
        acc = dict(powers[0])
        for j in range(1, len(powers)):
            ring.add_multiple(acc, shifts[j], powers[j])
        out.append(_unpack(ring, like, ring.reduce(acc), prec))
    return out


def _ghost_invert(spec, ghosts, N: int):
    """Components mod pi^N from ghost components in a pi-torsion-free
    algebra (series, or the scalars R): the remainder
    g_i - sum_(j<i) pi^j y_j^(q^(i-j)), reduced at the least of its terms'
    precisions and divided by pi^i, is y_i, known to i digits fewer.

    A division failure means the ghost vector has no integral Witt
    preimage, which the existence theorem forbids for every ghost vector
    this package builds: report a red alert.
    """
    q, like = spec.q, ghosts[0]
    ring = _packing(spec, ghosts, max(g.prec for g in ghosts))
    minus = (-1,) + (0,) * (spec.e - 1)
    shifts = [digit_mul_pi(spec, minus, j) for j in range(len(ghosts))]
    powers, comps, precs = [], [], []
    for i, g in enumerate(ghosts):
        powers = [_power({1: y}, q, ring.product) for y in powers]
        acc, prec = _pack(ring, g), g.prec
        if i:
            for j, y in enumerate(powers):
                ring.add_multiple(acc, shifts[j], y)
                prec = min(prec, precs[j] + j)
            acc = ring.reduce(acc, prec)
            if prec <= i:  # too few digits: raise as exact_div_pi does
                _unpack(ring, like, acc, prec).exact_div_pi(i)
            try:
                acc = {k: digit_div_pi(spec, (x,), i)[0] for k, x in
                       acc.items()} if ring.unramified else \
                    {k: digit_div_pi(spec, d, i) for k, d in acc.items()}
            except NotDivisible as exc:
                raise IntegralityViolation(
                    f"slot {i} component not divisible by pi^{i}") from exc
            prec -= i
        powers.append(acc)
        comps.append(acc)
        precs.append(prec)
    # a slot known below N raises as its own reduce_prec does
    return [_unpack(ring, like, ring.reduce(y, N), N) if N < prec
            else _unpack(ring, like, y, prec).reduce_prec(N)
            for y, prec in zip(comps, precs)]


def _from_ghosts(spec, ghosts, N: int) -> "WittVector":
    """The Witt vector with these ghost components, mod pi^N; the ghosts
    must be known to N + n digits (slot i of the inversion loses i)."""
    return WittVector(spec, _ghost_invert(spec, ghosts, N))


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
    polys = _ghost_invert(spec, target, prec)
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
