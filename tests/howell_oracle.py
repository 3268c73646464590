"""The digit Howell sweep of `arithjet.howell` and the scalar Newton
inverse of `arithjet.ring.PadicScalar` as they were before both ran on
digit vectors, kept verbatim as the reference for them: `_howell_digits`,
`_scaled` and `_minus_multiple` from `howell`, and `PadicScalar.inverse`
as `newton_inverse`.  The sweep's `PadicScalar` is the ring's class with
`newton_inverse` as its inverse, so no part of the reference runs the
digit inverse it checks."""

from arithjet import ring
from arithjet.errors import NotDivisible
from arithjet.howell import _nonzero
from arithjet.ring import (BaseRingSpec, digit_div_pi, digit_mul_pi,
                           digit_product, digit_valuation)


def newton_inverse(self) -> ring.PadicScalar:
    """Inverse modulo pi^prec; requires a unit.

    At e = 1 the element is an integer modulo p^prec and the builtin
    modular inverse gives it; otherwise Newton lifting from mod pi."""
    if not self.is_unit():
        raise NotDivisible("cannot invert a non-unit")
    p = self.spec.p
    if self.spec.e == 1:
        return PadicScalar(
            self.spec,
            (pow(self.digits[0], -1, self.spec.moduli(self.prec)[0]),),
            self.prec)
    x = self.spec.scalar(pow(self.digits[0] % p, -1, p), self.prec)
    two = self.spec.scalar(2, self.prec)
    # quadratic convergence: k doublings reach precision 2^k
    steps = max(1, (self.prec - 1).bit_length() + 1)
    for _ in range(steps):
        x = x * (two - self * x)
    return x


class PadicScalar(ring.PadicScalar):
    __slots__ = ()
    inverse = newton_inverse


def _scaled(spec: BaseRingSpec, s, row, mods):
    """The row s * row for a digit tuple s, each entry reduced once."""
    return [tuple(x % m for x, m in zip(digit_product(spec, s, a), mods))
            for a in row]


def _minus_multiple(spec: BaseRingSpec, row, f, prow, mods):
    """The row row - f * prow for a digit tuple f, each entry reduced once."""
    return [tuple((x - y) % m
                  for x, y, m in zip(a, digit_product(spec, f, b), mods))
            for a, b in zip(row, prow)]


def _howell_digits(spec: BaseRingSpec, rows, ncols: int, M: int):
    """(rows, pivots) of the Howell form of digit rows at M >= 1.

    The pivot at column c has the least valuation v below the frontier, so
    it clears column c there; its closure pi^(M-v) * row is zero through
    column c, and the later columns reduce it.  So no nonzero row is left
    below the frontier, and any span element supported on columns >= c lies
    in the span of the rows with pivot column >= c (the Howell property).
    """
    mods = spec.moduli(M)
    work = [row for row in rows if _nonzero(row)]
    pivots = []
    top = 0
    for c in range(ncols):
        best = None
        best_v = None
        for i in range(top, len(work)):
            v = digit_valuation(spec, work[i][c])
            if v is not None and (best_v is None or v < best_v):
                best, best_v = i, v
                if v == 0:
                    break
        if best is None:
            continue
        work[top], work[best] = work[best], work[top]
        v = best_v
        # normalize the pivot entry to exactly pi^v
        u_inv = PadicScalar(spec, digit_div_pi(spec, work[top][c], v),
                            M).inverse()
        prow = work[top] = _scaled(spec, u_inv.digits, work[top], mods)
        # eliminate the column everywhere else (entries with val >= v)
        for i in range(len(work)):
            if i == top:
                continue
            ev = digit_valuation(spec, work[i][c])
            if ev is None or ev < v:
                continue
            factor = digit_div_pi(spec, work[i][c], v)
            work[i] = _minus_multiple(spec, work[i], factor, prow, mods)
        # Howell closure: pi^(M-v) * row kills the pivot, keeps the tail
        if v > 0:
            shift = digit_mul_pi(spec, spec.one(M).digits, M - v)
            closure = _scaled(spec, shift, prow, mods)
            if _nonzero(closure):
                work.append(closure)
        pivots.append((c, v))
        top += 1
    return work[:top], pivots
