"""Linear algebra over the chain ring R/pi^M (Howell / strong echelon form).

Kernels come from one sweep on ints modulo p^k, at every e, by
restriction of scalars.  As a Z_p-module, R/pi^M is the sum over the
digits t < e of Z/p^(k_t), k_t = ceil((M - t)/e) (`BaseRingSpec.moduli`),
and k = k_0 is the largest; scaling digit t by p^(k - k_t) embeds it in
Z/p^k, so R/pi^M sits in (Z/p^k)^e and no relation rows are needed.  An
x in R is sum_j x_j pi^j with x_j in Z, so x . a = 0 is a Z-linear
condition on the x_j against the rows pi^j a, j < e (`restrict`): the
Z-kernel of those rows maps onto the R-kernel, digit j of x_i being the
coefficient of the row pi^j a_i.  At M < e the digits t >= M and the rows
j >= M vanish, so only d = min(e, M) of each are kept.  At e = 1 there is
one row per row, k = M and no scaling: an entry is an int modulo p^M,
reduced by one `%`.

The sweep (`_howell_ints`) eliminates with valuation-minimal pivots, in
one pass over the columns; each pivot row of valuation v > 0 adds its
closure p^(k-v) times the row, which the later columns reduce, so the row
span ends closed under "multiply and project" (Howell completeness).
The right kernel {b : A b = 0} is read off an augmented [A^T | I]
reduction of A's columns, restricted once (`restrict`), so a caller can
solve the submatrices of A's first columns, as `characters` does on the
jet lattice of a law: rows whose A^T-part vanishes give a generating set
of the kernel, read back in groups of d digits as `PadicScalar`s at M.
Each group, padded to e digits, is reduced to M once
(`BaseRingSpec.reduce_digits`); a vector whose reduced digits are all 0
is dropped by an int test, and the kept digit tuples, canonical already,
are wrapped with no second reduction (`PadicScalar._canonical`).  Input
entries, scalars or digit tuples known to M digits or more, are reduced
to M on entry.

`module_rank` is the F_p rank of the generators modulo pi: the same
restriction at M = 1, where d = 1, only digit 0 modulo p survives, and
every pivot is a unit.
"""

from __future__ import annotations

from math import gcd

from .errors import IncompatibleSpec, PrecisionExhausted
from .ring import BaseRingSpec, PadicScalar, _vp


def _howell_ints(p: int, rows, ncols: int, k: int):
    """(rows, pivots) of the Howell form of rows of ints modulo p^k,
    k >= 1, in one pass over the columns.  A nonzero entry a has
    p^v = gcd(a, p^k) with v < k, so pivot search, the elimination test
    and the closure factor p^(k-v) compare and divide powers of p.

    The pivot at column c has the least valuation v below the frontier, so
    it clears column c there; its closure p^(k-v) * row is zero through
    column c, and the later columns reduce it.  So no nonzero row is left
    below the frontier, and any span element supported on columns >= c lies
    in the span of the rows with pivot column >= c (the Howell property).
    """
    mod = p ** k
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


def restrict(spec: BaseRingSpec, rows, ncols: int, M: int):
    """The int rows over Z/p^k, k = ceil(M/e), of R-rows at M >= 1.  Only
    the digits t < d = min(e, M) survive modulo pi^M, and only the
    multiples pi^j, j < d: each row gives d rows, row j holding those
    digits of pi^j times it, digit t scaled by p^(k - k_t).  An entry is a
    `PadicScalar` or a digit tuple of length e, raw or canonical, known to
    M digits or more."""
    if M < 1:
        raise IncompatibleSpec("modulus exponent must be >= 1")
    e = spec.e
    mods = spec.moduli(M)[:M]
    mod = mods[0]
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
            elif len(x) != e:
                raise IncompatibleSpec(
                    f"digit tuple of length {len(x)} at e = {e}")
            row.append(x[0] % mod if e == 1 else x)
        out.append(row)
    if e == 1:
        return out
    # digit t of pi^j x, j < e, is digit (t - j) mod e of x, times p if it
    # wraps: `ring.digit_mul_pi` as a table, with no call per entry
    shifts = [[((t - j) % e, (spec.p if t < j else 1) * (mod // m))
               for t, m in enumerate(mods)] for j in range(len(mods))]
    return [[x[s] * f % mod for x in row for s, f in shift]
            for row in out for shift in shifts]


def right_kernel_basis(spec: BaseRingSpec, columns, M: int):
    """Generators of {b : A b = 0 in (R/pi^M)^k} for the k columns of A
    restricted at M by `restrict`, d = min(e, M) int rows each.

    Reduces [columns | I] over Z/p^k; Howell rows whose left part vanishes
    have right parts whose groups of d digits generate the kernel.  A
    right part that is zero modulo pi^M is dropped.
    """
    d = min(spec.e, M)
    n = len(columns)
    left = len(columns[0]) if columns else 0
    aug = [row + [1 if j == i else 0 for j in range(n)]
           for i, row in enumerate(columns)]
    work, _ = _howell_ints(spec.p, aug, left + n, -(-M // spec.e))
    pad = (0,) * (spec.e - d)
    reduce = spec.reduce_digits
    wrap = PadicScalar._canonical
    kernel = []
    for row in work:
        if not any(row[:left]):
            vec = [reduce((*row[c:c + d], *pad), M)
                   for c in range(left, left + n, d)]
            if any(map(any, vec)):
                kernel.append([wrap(spec, x, M) for x in vec])
    return kernel


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
    the pivot count of the restricted sweep at M = 1, where only digit 0
    survives, modulo p, and every pivot is a unit.
    """
    return len(_howell_ints(spec.p, restrict(spec, vectors, ncols, 1),
                            ncols, 1)[1])
