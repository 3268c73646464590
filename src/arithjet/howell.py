"""Linear algebra over the chain ring R/pi^M (Howell / strong echelon form).

Every nonzero element of R/pi^M is a unit times pi^v, so Gaussian
elimination works with valuation-minimal pivots, in one pass over the
columns; each pivot row of valuation v > 0 adds its closure pi^(M-v) times
the row, which the later columns reduce, so the row span ends closed under
"multiply and project" (Howell completeness).  Kernels are read off an
augmented [A | I] reduction: rows whose A-part vanishes give a generating
set of the left kernel.

Inside the reduction an entry is a bare residue (`_entries`).  At e = 1 it
is an int modulo p^M (`_howell_ints`): a row operation is one `%` per
entry, the valuation of a nonzero a is read off gcd(a, p^M) = p^v, and a
pivot is normalized by pow(u, -1, p^M).  At e >= 2 it is the canonical
digit tuple of a `PadicScalar` at M (`_howell_digits`), a row operation
reduces each entry once through the digit functions of `ring` and keeps
its zero entries as they are, and a pivot is normalized by the digit
inverse `ring.digit_unit_inverse`.  The digit path runs at e = 1
too, as the reference for the int path: both take the same pivots in the
same order and make the same row operations, so their rows, pivots and
kernel generators are equal.  `PadicScalar`s appear at the boundary only:
input entries, scalars or digit tuples known to M digits or more, are
reduced to M on entry, and every returned row or kernel vector holds
scalars at M.  Exact division by pi^v is only defined modulo pi^(M-v);
its digits are read at M, which is consistent because every place a
division result is used multiplies it back by something of valuation
>= v.

`module_rank` is the F_p rank of the generators modulo pi: the int sweep
at M = 1 on each entry's digit 0 modulo p, whose pivots are all units.
"""

from __future__ import annotations

from math import gcd
from operator import mod, sub

from .errors import IncompatibleSpec, PrecisionExhausted
from .ring import (BaseRingSpec, PadicScalar, _vp, digit_div_pi,
                   digit_mul_pi, digit_product, digit_unit_inverse,
                   digit_valuation)


def _nonzero(row) -> bool:
    """Whether a row of ints or of digit tuples has a nonzero entry."""
    return any(x if type(x) is int else any(x) for x in row)


def _scaled(spec: BaseRingSpec, s, row, mods):
    """The row s * row for a digit tuple s, each entry reduced once; a zero
    entry stays as it is."""
    return [tuple(map(mod, digit_product(spec, s, a), mods)) if any(a) else a
            for a in row]


def _minus_multiple(spec: BaseRingSpec, row, f, prow, mods):
    """The row row - f * prow for a digit tuple f, each entry reduced once;
    an entry facing a zero in prow stays as it is."""
    return [tuple(map(mod, map(sub, a, digit_product(spec, f, b)), mods))
            if any(b) else a for a, b in zip(row, prow)]


class HowellForm:
    """Result of a Howell reduction: canonical rows plus pivot data."""

    def __init__(self, spec: BaseRingSpec, M: int, rows, pivots):
        self.spec = spec
        self.M = M
        self.rows = rows              # list of rows of PadicScalar at M
        self.pivots = pivots          # list of (column, valuation)

    @property
    def rank(self) -> int:
        """Number of unit pivots (free-module rank of the row span)."""
        return sum(1 for _, v in self.pivots if v == 0)

    @property
    def pivot_valuations(self):
        return [v for _, v in self.pivots]


def _howell(spec: BaseRingSpec, rows, ncols: int, M: int):
    """(rows, pivots) of the Howell form of `_entries` rows at M, in one
    pass: on ints at e = 1, on digit tuples otherwise."""
    if M < 1:
        raise IncompatibleSpec("modulus exponent must be >= 1")
    if spec.e == 1:
        return _howell_ints(spec.p, rows, ncols, M)
    return _howell_digits(spec, rows, ncols, M)


def _howell_digits(spec: BaseRingSpec, rows, ncols: int, M: int):
    """(rows, pivots) of the Howell form of digit rows at M >= 1.

    The pivot at column c has the least valuation v below the frontier, so
    it clears column c there; its closure pi^(M-v) * row is zero through
    column c, and the later columns reduce it.  So no nonzero row is left
    below the frontier, and any span element supported on columns >= c lies
    in the span of the rows with pivot column >= c (the Howell property).
    """
    mods = spec.moduli(M)
    unit = (1,) + (0,) * (spec.e - 1)
    work = [row for row in rows if _nonzero(row)]
    pivots = []
    top = 0
    for c in range(ncols):
        best = None
        best_v = None
        for i in range(top, len(work)):
            a = work[i][c]
            if any(a):
                v = digit_valuation(spec, a)
                if best_v is None or v < best_v:
                    best, best_v = i, v
                    if v == 0:
                        break
        if best is None:
            continue
        work[top], work[best] = work[best], work[top]
        v = best_v
        # normalize the pivot entry to exactly pi^v
        u_inv = digit_unit_inverse(
            spec, digit_div_pi(spec, work[top][c], v), M)
        prow = work[top] = _scaled(spec, u_inv, work[top], mods)
        # eliminate the column everywhere else (entries with val >= v)
        for i, row in enumerate(work):
            a = row[c]
            if i == top or not any(a) or digit_valuation(spec, a) < v:
                continue
            factor = digit_div_pi(spec, a, v)
            work[i] = _minus_multiple(spec, row, factor, prow, mods)
        # Howell closure: pi^(M-v) * row kills the pivot, keeps the tail
        if v > 0:
            shift = digit_mul_pi(spec, unit, M - v)
            closure = _scaled(spec, shift, prow, mods)
            if _nonzero(closure):
                work.append(closure)
        pivots.append((c, v))
        top += 1
    return work[:top], pivots


def _howell_ints(p: int, rows, ncols: int, M: int):
    """`_howell_digits` at e = 1 on rows of ints modulo p^M, M >= 1: the
    same pivots in the same order, and the same row operations.  A nonzero
    entry a has p^v = gcd(a, p^M) with v < M, so pivot search, the
    elimination test and the closure factor p^(M-v) compare and divide
    powers of p."""
    mod = p ** M
    work = [row for row in rows if any(row)]
    pivots = []
    top = 0
    for c in range(ncols):
        best, pv = None, mod
        for i in range(top, len(work)):
            a = work[i][c]
            if a:
                g = gcd(a, mod)
                if g < pv:
                    best, pv = i, g
                    if g == 1:
                        break
        if best is None:
            continue
        work[top], work[best] = work[best], work[top]
        u_inv = pow(work[top][c] // pv, -1, mod)
        prow = work[top] = [u_inv * a % mod for a in work[top]]
        for i, row in enumerate(work):
            a = row[c]
            if i != top and a and a % pv == 0:
                f = a // pv
                work[i] = [(x - f * y) % mod for x, y in zip(row, prow)]
        if pv > 1:
            shift = mod // pv
            closure = [shift * a % mod for a in prow]
            if any(closure):
                work.append(closure)
        pivots.append((c, _vp(pv, p)))
        top += 1
    return work[:top], pivots


def _entries(spec: BaseRingSpec, rows, ncols: int, M: int):
    """The rows reduced to M: ints modulo p^M at e = 1, digit tuples
    otherwise.  An entry is a `PadicScalar` or a digit tuple, raw or
    canonical, known to M digits or more."""
    ints = spec.e == 1
    mod = spec.moduli(M)[0]
    out = []
    for r in rows:
        if len(r) != ncols:
            raise IncompatibleSpec("ragged matrix")
        row = []
        for x in r:
            if type(x) is not tuple:
                if x.spec is not spec and x.spec != spec:
                    raise IncompatibleSpec("scalars over different base rings")
                if x.prec < M:
                    raise PrecisionExhausted(
                        f"cannot raise precision {x.prec} -> {M}")
                x = x.digits
            row.append(x[0] % mod if ints else spec.reduce_digits(x, M))
        out.append(row)
    return out


def _scalars(spec: BaseRingSpec, row, M: int):
    if spec.e == 1:
        return [PadicScalar(spec, (a,), M) for a in row]
    return [PadicScalar(spec, d, M) for d in row]


def howell_form(spec: BaseRingSpec, rows, ncols: int, M: int) -> HowellForm:
    """Howell form of the row span of `rows` inside (R/pi^M)^ncols."""
    work, pivots = _howell(spec, _entries(spec, rows, ncols, M), ncols, M)
    return HowellForm(spec, M, [_scalars(spec, row, M) for row in work],
                      pivots)


def left_kernel_basis(spec: BaseRingSpec, rows, ncols: int, M: int):
    """Generators of {x : x . rows = 0 in (R/pi^M)^ncols}.

    Reduces the augmented matrix [rows | I]; Howell rows whose left part
    vanishes have right parts generating the left kernel.
    """
    nrows = len(rows)
    if spec.e == 1:
        one, zero = 1, 0
    else:
        one, zero = spec.one(M).digits, (0,) * spec.e
    aug = [row + [one if j == i else zero for j in range(nrows)]
           for i, row in enumerate(_entries(spec, rows, ncols, M))]
    work, _ = _howell(spec, aug, ncols + nrows, M)
    return [_scalars(spec, row[ncols:], M) for row in work
            if not _nonzero(row[:ncols]) and _nonzero(row[ncols:])]


def right_kernel_basis(spec: BaseRingSpec, rows, ncols: int, M: int):
    """Generators of {b : rows . b = 0}; transpose + left kernel.  Entries
    are scalars or digit tuples known to M digits or more (`_entries`)."""
    nrows = len(rows)
    cols = [[rows[i][c] for i in range(nrows)] for c in range(ncols)]
    return left_kernel_basis(spec, cols, nrows, M)


def unit_vectors(vectors):
    """Split a generating set into unit-content and pi-divisible members.

    A vector with a unit entry contributes to the free rank of the solution
    module; pi-divisible generators are precision shadows of unit ones.
    """
    units, shadows = [], []
    for vec in vectors:
        (units if any(d.is_unit() for d in vec) else shadows).append(vec)
    return units, shadows


def module_rank(spec: BaseRingSpec, vectors, ncols: int) -> int:
    """Free rank of the span of `vectors` in (R/pi^M)^ncols, for any M.

    Equals the number of unit elementary divisors (Smith form over the
    chain ring), which is the F_p-rank of the generator matrix modulo pi:
    the pivot count of the int sweep at M = 1 on each entry's digit 0
    modulo p, where every pivot is a unit.
    """
    p, ints = spec.p, spec.e == 1
    rows = [[(x if ints else x[0]) % p for x in row]
            for row in _entries(spec, vectors, ncols, 1)]
    return len(_howell_ints(p, rows, ncols, 1)[1])
