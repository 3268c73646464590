"""The fibered ring W~_n(B) = R x_B W_n(B) and the lateral Frobenius.

An element is stored as the pair (r, tail) of the bijection
(r, z) |-> f~(r) + V(z); the embedded Witt vector is computed on demand
by one ghost inversion, as w(f~(r)) = (r, ..., r), w(V(z)) = (0, pi w(z)).
The lateral Frobenius acts by F~(f~(r) + V(z)) = f~(r) + V(F(z)): it fixes
the exact R-slot and applies the ordinary Frobenius to the tail.
"""

from __future__ import annotations

from .errors import IncompatibleSpec, NotInVImage
from .ring import BaseRingSpec, PadicScalar
from .series import TruncSeries
from .witt import WittVector, _from_ghosts, _ghost, frobenius_W


class TildeWittVector:
    """An element (r, tail) of W~_n; embedded vector is f~(r) + V(tail)."""

    __slots__ = ("spec", "r", "tail")

    def __init__(self, spec: BaseRingSpec, r: PadicScalar,
                 tail: WittVector | None):
        if not isinstance(r, PadicScalar) or r.spec != spec:
            raise IncompatibleSpec("R-slot must be a scalar over the base")
        if tail is not None and tail.spec != spec:
            raise IncompatibleSpec("tail over wrong base ring")
        self.spec = spec
        self.r = r
        self.tail = tail

    @property
    def order(self) -> int:
        """n, where the element lives in W~_n (embedded length n + 1)."""
        return self.tail.length if self.tail is not None else 0

    def embed(self) -> WittVector:
        """I(t) = f~(r) + V(tail), a plain Witt vector of length n + 1: one
        ghost inversion of (r, r + pi w_0(tail), ..., r + pi w_(n-1)(tail))
        at P = N + n, N = min(r.prec - n, tail.prec()), the tail raised to
        P digits (exact mod pi^N, see `witt._ghost`)."""
        if self.tail is None:
            return WittVector(self.spec, [self.r])
        n, z = self.order, self.tail
        N = min(self.r.prec - n, z.prec())
        r = z._constant(self.r, N + n)
        ghosts = [r] + [r + w.mul_pi(1)
                        for w in _ghost(self.spec, z.components, N + n)]
        return _from_ghosts(self.spec, ghosts, N)

    def __eq__(self, other):
        if not isinstance(other, TildeWittVector):
            return NotImplemented
        if self.spec != other.spec or self.order != other.order:
            return False
        if self.r != other.r:
            return False
        if self.tail is None:
            return other.tail is None
        return self.tail == other.tail

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"Wtilde(r={self.r!r}, tail={self.tail!r})"

    # -- ring structure (inherited from the embedded Witt ring) ---------------

    def _binary(self, other: "TildeWittVector", op) -> "TildeWittVector":
        if self.spec != other.spec or self.order != other.order:
            raise IncompatibleSpec("Wtilde context mismatch")
        r = op(self.r, other.r)
        res = op(self.embed(), other.embed())
        return from_witt(res, r)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __neg__(self):
        return from_witt(-self.embed(), -self.r)

    def __sub__(self, other):
        return self + (-other)


def tilde_pack(r: PadicScalar, z: WittVector | None) -> TildeWittVector:
    """(r, z) |-> the element with embedded vector f~(r) + V(z)."""
    return TildeWittVector(r.spec, r, z)


def tilde_unpack(t: TildeWittVector):
    """Inverse of tilde_pack."""
    return t.r, t.tail


def from_witt(x: WittVector, r: PadicScalar) -> TildeWittVector:
    """Recover (r, z) from an embedded vector x = f~(r) + V(z), whose
    ghosts are w_0(x) = r and w_i(x) = r + pi w_(i-1)(z): one inversion of
    (w_i(x) - r)/pi, i = 1..n, at P = N + n, N = min(x.prec(), r.prec - n).

    Raises NotInVImage when x_0 - r is nonzero mod pi^N (x then fails the
    fiber condition for this r).
    """
    n = x.n
    N = min(x.prec(), r.prec - n)
    c = x._constant(r, N + n)
    ghosts = [w - c for w in _ghost(x.spec, x.components, N + n)]
    if not ghosts[0].reduce_prec(N).is_zero():
        raise NotInVImage("component 0 of x - f~(r) is nonzero")
    if n == 0:
        return TildeWittVector(x.spec, r, None)
    tail = _from_ghosts(x.spec, [g.exact_div_pi(1) for g in ghosts[1:]], N)
    return TildeWittVector(x.spec, r, tail)


def lateral_frobenius(t: TildeWittVector) -> TildeWittVector:
    """F~(f~(r) + V(z)) = f~(r) + V(F(z)); W~_n -> W~_(n-1)."""
    if t.tail is None:
        raise IncompatibleSpec("lateral Frobenius needs order >= 1")
    if t.tail.length == 1:
        return TildeWittVector(t.spec, t.r, None)
    return TildeWittVector(t.spec, t.r, frobenius_W(t.tail))


def generic_tilde(spec: BaseRingSpec, r: PadicScalar, n: int,
                  cap: int | None, prec: int) -> TildeWittVector:
    """The element (r, (z1, ..., zn)) with generic series tail components.

    Used for the symbolic identity checks: component congruences of the
    lateral Frobenius, the ghost square, and F^2 o I = F o I o F~.
    """
    vars_ = tuple(f"z{i}" for i in range(1, n + 1))
    tail = WittVector(spec, [TruncSeries.gen(spec, vars_, v, cap, prec)
                             for v in vars_])
    return TildeWittVector(spec, r, tail)
