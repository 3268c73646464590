"""The law oracle: the model laws and the checks of a built law.

`fgl` attaches a bivariate law only to a curve's formal group, and never
checks it.  The tests check it here: `check_law` (the constant and linear
terms, F(X, 0) = X and commutativity), `check_associativity`, and
`check_log_linearizes`, L(F(X, Y)) = L(X) + L(Y).  `additive_law` and
`multiplicative_law` are the two model groups the tests solve beside the
curves.
"""

from arithjet.errors import IncompatibleSpec
from arithjet.fgl import VARS, FormalGroupLaw, _omega
from arithjet.ring import BaseRingSpec
from arithjet.series import FracSeries, TruncSeries


def additive_law(spec: BaseRingSpec, D: int, N: int) -> FormalGroupLaw:
    """X + Y, with omega = 1."""
    X = TruncSeries.gen(spec, VARS, "X", D, N)
    Y = TruncSeries.gen(spec, VARS, "Y", D, N)
    return FormalGroupLaw(spec, D, N, _omega(spec, D, N, {0: 1}),
                          name="additive", _build=lambda: X + Y)


def multiplicative_law(spec: BaseRingSpec, D: int, N: int) -> FormalGroupLaw:
    """X + Y + XY, with omega = 1/(1 + T) = sum_(k < D) (-1)^k T^k: the
    terms of degree k + 1 <= D that its truncated law determines."""
    X = TruncSeries.gen(spec, VARS, "X", D, N)
    Y = TruncSeries.gen(spec, VARS, "Y", D, N)
    omega = _omega(spec, D, N, {k: (-1) ** k for k in range(D)})
    return FormalGroupLaw(spec, D, N, omega, name="multiplicative",
                          _build=lambda: X + Y + X * Y)


def check_law(G: FormalGroupLaw, F: TruncSeries):
    """IncompatibleSpec unless F is a commutative law in (X, Y) in G's
    context: no constant term, X + Y to first order, F(X, 0) = X."""
    if F.vars != VARS:
        raise IncompatibleSpec("law must be a series in (X, Y)")
    if (F.spec, F.cap, F.prec) != (G.spec, G.cap, G.prec):
        raise IncompatibleSpec("law does not match its group's context")
    X = TruncSeries.gen(G.spec, VARS, "X", G.cap, G.prec)
    Y = TruncSeries.gen(G.spec, VARS, "Y", G.cap, G.prec)
    one = G.spec.one(G.prec)
    if not F.constant_term().is_zero():
        raise IncompatibleSpec("law has a constant term")
    if F.linear_coeff("X") != one or F.linear_coeff("Y") != one:
        raise IncompatibleSpec("law is not X + Y to first order")
    zero = TruncSeries.zero(G.spec, VARS, G.cap, G.prec)
    if F.substitute({"Y": zero}) != X:
        raise IncompatibleSpec("law does not satisfy F(X, 0) = X")
    if F.substitute({"X": Y, "Y": X}) != F:
        raise IncompatibleSpec("law is not commutative")


def check_associativity(G: FormalGroupLaw, cap: int | None = None) -> bool:
    """F(F(X,Y),Z) = F(X,F(Y,Z)) modulo (pi^prec, degree > cap)."""
    cap = G.cap if cap is None else min(cap, G.cap)
    vars3 = ("X", "Y", "Z")
    F = G.law.with_cap(cap)
    X, Y, Z = (TruncSeries.gen(G.spec, vars3, v, cap, G.prec) for v in vars3)
    left = F.substitute({"X": F.substitute({"X": X, "Y": Y}), "Y": Z})
    right = F.substitute({"X": X, "Y": F.substitute({"X": Y, "Y": Z})})
    return left == right


def check_log_linearizes(G: FormalGroupLaw, L: FracSeries) -> bool:
    """L(F(X,Y)) = L(X) + L(Y) modulo (pi^(prec-shift), degree > cap)."""
    X, Y = (TruncSeries.gen(G.spec, VARS, v, G.cap, G.prec) for v in VARS)
    lx, ly, lf = (FracSeries(L.num.substitute({"T": image}), L.shift)
                  for image in (X, Y, G.law))
    # compared at one shift: a sum may normalize to a lower one
    return (lf - (lx + ly)).num.is_zero()
