"""Linear algebra over the chain ring R/pi^M (Howell / strong echelon form).

Every nonzero element of R/pi^M is a unit times pi^v, so Gaussian
elimination works with valuation-minimal pivots; Howell completeness is
restored by adjoining pi^(M-v) times each row with pivot valuation v > 0,
which makes the row span closed under "multiply and project".  Kernels are
read off an augmented [A | I] reduction: rows whose A-part vanishes give a
generating set of the left kernel.

Entries are `PadicScalar`s at precision M, from input to output: input
entries known to a higher precision are reduced to M on entry, and every
returned row or kernel vector holds scalars at M.  Exact division by pi^v
is only defined modulo pi^(M-v); its result is re-lifted to M, which is
consistent because every place a division result is used multiplies it
back by something of valuation >= v.
"""

from __future__ import annotations

from .errors import IncompatibleSpec
from .ring import BaseRingSpec, PadicScalar


def _div_pi(x: PadicScalar, k: int, M: int) -> PadicScalar:
    """A lift to precision M of x / pi^k (defined modulo pi^(M-k))."""
    if k == 0:
        return x
    return PadicScalar(x.spec, x.exact_div_pi(k).digits, M)


def _nonzero(row) -> bool:
    return any(not d.is_zero() for d in row)


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


def _sweep(work, ncols: int, M: int):
    """One echelon pass with Howell closures; returns (pivot rows, pivots,
    leftover nonzero rows whose earliest entry sits left of the frontier)."""
    pivots = []
    top = 0
    for c in range(ncols):
        best = None
        best_v = None
        for i in range(top, len(work)):
            v = work[i][c].valuation()
            if v is not None and (best_v is None or v < best_v):
                best, best_v = i, v
                if v == 0:
                    break
        if best is None:
            continue
        work[top], work[best] = work[best], work[top]
        v = best_v
        # normalize the pivot entry to exactly pi^v
        u_inv = _div_pi(work[top][c], v, M).inverse()
        work[top] = [u_inv * d for d in work[top]]
        # eliminate the column everywhere else (entries with val >= v)
        for i in range(len(work)):
            if i == top:
                continue
            ev = work[i][c].valuation()
            if ev is None or ev < v:
                continue
            factor = _div_pi(work[i][c], v, M)
            work[i] = [d - factor * pd for d, pd in zip(work[i], work[top])]
        # Howell closure: pi^(M-v) * row kills the pivot, keeps the tail
        if v > 0:
            closure = [d.mul_pi_power(M - v).reduce_prec(M)
                       for d in work[top]]
            if _nonzero(closure):
                work.append(closure)
        pivots.append((c, v))
        top += 1
    leftovers = [row for row in work[top:] if _nonzero(row)]
    return work[:top], pivots, leftovers


def howell_form(spec: BaseRingSpec, rows, ncols: int, M: int) -> HowellForm:
    """Howell form of the row span of `rows` inside (R/pi^M)^ncols.

    The sweep re-runs whenever a closure row lands left of the pivot
    frontier, so the final row set satisfies the Howell property: any span
    element supported on columns >= c lies in the span of the rows with
    pivot column >= c.
    """
    if M < 1:
        raise IncompatibleSpec("modulus exponent must be >= 1")
    work = []
    for r in rows:
        if len(r) != ncols:
            raise IncompatibleSpec("ragged matrix")
        row = [x.reduce_prec(M) for x in r]
        if _nonzero(row):
            work.append(row)
    pivots = []
    for _ in range(M * ncols + 2):
        work, pivots, leftovers = _sweep(work, ncols, M)
        if not leftovers:
            break
        work = work + leftovers
    else:  # pragma: no cover - the bound is generous
        raise IncompatibleSpec("Howell reduction failed to stabilize")
    return HowellForm(spec, M, work, pivots)


def left_kernel_basis(spec: BaseRingSpec, rows, ncols: int, M: int):
    """Generators of {x : x . rows = 0 in (R/pi^M)^ncols}.

    Reduces the augmented matrix [rows | I]; Howell rows whose left part
    vanishes have right parts generating the left kernel.
    """
    nrows = len(rows)
    one, zero = spec.one(M), spec.zero(M)
    aug = [list(r) + [one if j == i else zero for j in range(nrows)]
           for i, r in enumerate(rows)]
    H = howell_form(spec, aug, ncols + nrows, M)
    return [row[ncols:] for row in H.rows
            if not _nonzero(row[:ncols]) and _nonzero(row[ncols:])]


def right_kernel_basis(spec: BaseRingSpec, rows, ncols: int, M: int):
    """Generators of {b : rows . b = 0}; transpose + left kernel."""
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
    the rank of its Howell form at M = 1.
    """
    return howell_form(spec, vectors, ncols, 1).rank
