"""The digit Howell sweep that `arithjet.howell` ran at e >= 2 before its
one int sweep, the scalar Newton inverse of `arithjet.ring.PadicScalar`,
the e = 1 Newton loop of `ring.unit_quadratic_root`, and the per-order
jet lattices of `characters`, as they were before each was replaced,
kept verbatim as the reference for them: `_howell_digits`, `_scaled`,
`_minus_multiple` and `_nonzero` from `howell`, `PadicScalar.inverse` as
`newton_inverse`, the int loop as `int_quadratic_root`, the rows of one
order's lattice as `per_order_lattice_solve`, and those rows reduced to M
before the kernel as `lattice_solve`.  The digit sweep is only the
reference now: it takes R-pivots on digit tuples, where the library
restricts scalars to ints modulo p^k, so the two give kernels with equal
R-spans, not equal generators.  The sweep's `PadicScalar` is the ring's
class with `newton_inverse` as its inverse, so no part of the reference
runs the digit inverse it checks.

`left_kernel_basis` and `right_kernel_basis` are the kernels of R-rows
that `howell` exported before the jet lattice was restricted once per
law: they restrict the rows and call the library's kernel of restricted
columns, which the tests of `howell` exercise through them."""

from arithjet import howell, ring
from arithjet.errors import NotDivisible
from arithjet.ring import (BaseRingSpec, digit_div_pi, digit_mul_pi,
                           digit_product, digit_valuation)
from arithjet.series import monomial_key


def left_kernel_basis(spec: BaseRingSpec, rows, ncols: int, M: int):
    """Generators of {x : x . rows = 0 in (R/pi^M)^ncols}, rows of scalars
    or digit tuples known to M digits or more: the right kernel of the
    transpose, whose columns are the rows."""
    return howell.right_kernel_basis(
        spec, howell.restrict(spec, rows, ncols, M), M)


def right_kernel_basis(spec: BaseRingSpec, rows, ncols: int, M: int):
    """Generators of {b : rows . b = 0}; transpose + left kernel."""
    nrows = len(rows)
    cols = [[rows[i][c] for i in range(nrows)] for c in range(ncols)]
    return left_kernel_basis(spec, cols, nrows, M)


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


def int_quadratic_root(lam, c) -> ring.PadicScalar:
    """`ring.unit_quadratic_root` at e = 1: Newton's steps on ints modulo
    p^prec."""
    prec = min(lam.prec, c.prec)
    lam, c = lam.reduce_prec(prec), c.reduce_prec(prec)
    spec = lam.spec
    mod, p = spec.moduli(prec)[0], spec.p
    (a,), (b,) = lam.digits, c.digits
    x = a
    for _ in range(prec + 2):
        f = (x * x - a * x + b) % mod
        if f == 0:
            break
        d = 2 * x - a
        if d % p == 0:
            raise NotDivisible("cannot invert a non-unit")
        x = (x - f * pow(d, -1, mod)) % mod
    return PadicScalar(spec, (x,), prec)


def per_order_lattice_solve(spec, gens, M: int, extra_rows=()):
    """Solutions d (mod pi^M) of sum d_i * num_i = 0 mod pi^M over the
    numerators of generators sharing one denominator exponent (each
    carries at least M digits), as `characters._lattice_solve` found them
    on one order's rows before the jet lattice was shared by every order.

    The numerators may have fewer variables than the widest one, as the
    l_i = L(w_i) over jet_vars(i) do: their monomials are zero-padded to
    its width, which is what `TruncSeries.extend_vars` does, so the rows
    are those of the padded generators.  A row is a monomial's stored
    digit tuples, one per numerator, and one shared zero tuple where a
    coefficient is absent; the rows are in `monomial_key` order.
    `extra_rows` are additional linear conditions on d at the same
    modulus (the extension-class constraint on jet characters)."""
    zero = (0,) * spec.e
    width = max(len(g.num.vars) for g in gens)
    by_monomial = {}
    for j, g in enumerate(gens):
        pad = (0,) * (width - len(g.num.vars))
        for m, d in g.num.coeffs.items():
            row = by_monomial.get(m + pad)
            if row is None:
                row = by_monomial[m + pad] = [zero] * len(gens)
            row[j] = d
    rows = [by_monomial[m] for m in sorted(by_monomial, key=monomial_key)]
    rows.extend(list(r) for r in extra_rows)
    return right_kernel_basis(spec, rows, len(gens), M)


def lattice_solve(spec, gens, M: int, extra_rows=()):
    """`per_order_lattice_solve` with its rows reduced to M before the
    kernel: ints mod p^M at e = 1, digit tuples otherwise, zero where a
    coefficient is absent, and no row for a monomial zero mod pi^M.  The
    rows reach `right_kernel_basis` as scalars at M."""
    ints, mod = spec.e == 1, spec.moduli(M)[0]
    zero = 0 if ints else (0,) * spec.e
    cols = []
    for g in gens:
        col = {}
        for m, d in g.num.coeffs.items():
            r = d[0] % mod if ints else spec.reduce_digits(d, M)
            if r != zero:
                col[m] = r
        cols.append(col)
    monomials = sorted({m for col in cols for m in col}, key=monomial_key)
    rows = [[col.get(m, zero) for col in cols] for m in monomials]
    rows.extend(list(r) for r in extra_rows)
    rows = [[x if isinstance(x, ring.PadicScalar)
             else ring.PadicScalar(spec, (x,) if ints else x, M) for x in row]
            for row in rows]
    return right_kernel_basis(spec, rows, len(gens), M)


def _nonzero(row) -> bool:
    """Whether a row of ints or of digit tuples has a nonzero entry."""
    return any(x if type(x) is int else any(x) for x in row)


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
