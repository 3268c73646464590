"""Sparse multivariate truncated power series over PadicScalar.

Coefficients are stored internally as raw digit vectors (see ring.py), one
dict entry per monomial; monomials are exponent tuples aligned with an
ordered variable list.  A series carries a total-degree cap (cap=None means
"exact polynomial, no truncation") and a single pi-adic precision shared by
every coefficient.

Monomial order is graded lex with the first variable smallest; leading terms
are minimal in that order (so x1 leads x1 + higher-degree corrections).

One-variable products go by Kronecker substitution: each pi-digit's
coefficients are packed into one Python int, and the builtin (Karatsuba)
integer product does the convolution in place of a quadratic number of
digit products.  Series in more variables use a sparse product on packed
monomials: an exponent tuple is one int in base cap + 1, so a monomial
product is one int addition, and at e = 1 a coefficient is a bare int
reduced once per output monomial.  `**` builds a power as the product of
two known powers (`_power`); `substitute` builds so only the powers of
each image that its monomials use, sums raw digit products and reduces
once.  Truncated sums and products are exact in R[x]/(pi^N, degree >
cap), so neither path changes a result.
The digit arithmetic itself (products, pi-shifts, valuations, reduction)
is that of `ring`.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter, mul

from .errors import (
    IncompatibleSpec,
    NonNilpotentComposition,
    NotDivisible,
    PrecisionExhausted,
)
from .ring import (BaseRingSpec, PadicScalar, digit_div_pi, digit_mul_pi,
                   digit_product, digit_valuation)


def monomial_key(m: tuple) -> tuple:
    """Graded-lex sort key (ascending = from the leading term up)."""
    return (sum(m), m[::-1])


def _raw_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _pack(coeffs: dict, lo: int, hi: int, e: int, width: int) -> list:
    """Per pi-digit i, the degree lo..hi coefficients of a one-variable
    series as one int, `width` bytes per degree (Kronecker substitution)."""
    zero = bytes(width)
    rows = [[zero] * (hi - lo + 1) for _ in range(e)]
    for (k,), d in coeffs.items():
        if k <= hi:
            for i, x in enumerate(d):
                if x:
                    rows[i][k - lo] = x.to_bytes(width, "little")
    return [int.from_bytes(b"".join(r), "little") for r in rows]


def _kronecker_mul(spec: BaseRingSpec, a: dict, b: dict, cap: int | None,
                   prec: int) -> dict:
    """Canonical coefficients of the product of two nonzero one-variable
    series given by canonical coefficient dicts, truncated above `cap`.

    Each pi-digit's coefficients are packed into one int, with room for
    every sum the convolution forms, so the builtin (Karatsuba) product of
    two packed ints is the convolution.  Digit pair (i, j) lands in slot
    i + j, times p when i + j >= e (pi^e = p).
    """
    e, p = spec.e, spec.p
    lo_a, lo_b = min(k for (k,) in a), min(k for (k,) in b)
    hi_a, hi_b = max(k for (k,) in a), max(k for (k,) in b)
    if cap is not None:
        hi_a, hi_b = min(hi_a, cap - lo_b), min(hi_b, cap - lo_a)
        if hi_a < lo_a or hi_b < lo_b:
            return {}
    bound = (min(hi_a - lo_a, hi_b - lo_b) + 1) \
        * max(max(d) for d in a.values()) * max(max(d) for d in b.values())
    if e > 1:
        bound *= e * p
    width = (bound.bit_length() + 7) // 8
    A = _pack(a, lo_a, hi_a, e, width)
    B = _pack(b, lo_b, hi_b, e, width)
    low, high = [0] * e, [0] * e
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B):
                if y:
                    if i + j < e:
                        low[i + j] += x * y
                    else:
                        high[i + j - e] += x * y
    top = hi_a + hi_b if cap is None else min(cap, hi_a + hi_b)
    n = top - lo_a - lo_b + 1
    size = (hi_a - lo_a + hi_b - lo_b + 1) * width
    slots = []
    for s in range(e):
        raw = (low[s] + p * high[s]).to_bytes(size, "little")
        slots.append([int.from_bytes(raw[k * width:(k + 1) * width], "little")
                      for k in range(n)])
    out = {}
    mods = [spec.digit_modulus(i, prec) for i in range(e)]
    for k in range(n):
        d = tuple(col[k] % m for col, m in zip(slots, mods))
        if any(d):
            out[(k + lo_a + lo_b,)] = d
    return out


def _packed_mul(spec: BaseRingSpec, a: dict, b: dict, cap: int | None,
                prec: int) -> dict:
    """Canonical coefficients of the product of two series in two or more
    variables, given by canonical coefficient dicts, truncated above `cap`.

    Each exponent tuple becomes one int in base B = cap + 1 (uncapped: the
    two top total degrees plus 1), first variable lowest, so no exponent
    of a kept product reaches B and a monomial product is one int
    addition.  The larger operand is sorted by degree and cut at the cap
    by bisection; at e = 1 a coefficient is a bare int.  Sums are reduced
    and keys unpacked once per output monomial, in order of first
    appearance.
    """
    if len(a) > len(b):
        a, b = b, a
    nvars = len(next(iter(a)))
    if cap is None:
        base = max(map(sum, a)) + max(map(sum, b)) + 1
    else:
        base = cap + 1
    weights = [base ** i for i in range(nvars)]
    unramified = spec.e == 1
    rows = sorted(((sum(m), sum(map(mul, m, weights)),
                    d[0] if unramified else d) for m, d in b.items()),
                  key=itemgetter(0))
    degrees = [r[0] for r in rows]
    rows = [r[1:] for r in rows]
    out: dict = {}
    get = out.get
    for m1, d1 in a.items():
        row = rows if cap is None else \
            rows[:bisect_right(degrees, cap - sum(m1))]
        k1 = sum(map(mul, m1, weights))
        if unramified:
            x = d1[0]
            for k2, y in row:
                k = k1 + k2
                out[k] = get(k, 0) + x * y
        else:
            for k2, d2 in row:
                k = k1 + k2
                prod = digit_product(spec, d1, d2)
                cur = get(k)
                out[k] = _raw_add(cur, prod) if cur is not None else prod
    modulus = spec.p ** max(0, prec)
    result = {}
    for k, d in out.items():
        r = (d % modulus,) if unramified else spec.reduce_digits(d, prec)
        if any(r):
            m = []
            for _ in range(nvars):
                k, x = divmod(k, base)
                m.append(x)
            result[tuple(m)] = r
    return result


def _power(known: dict, n: int):
    """Add power n of a series to `known` (exponent -> power, power 1 at
    least) as the product of two known powers: the largest known k whose
    n - k is known, else n // 2 and n - n // 2, each added the same way."""
    if n not in known:
        k = max((k for k in known if n - k in known), default=None)
        if k is None:
            k = n // 2
            _power(known, k)
            _power(known, n - k)
        known[n] = known[k] * known[n - k]


class TruncSeries:
    """A truncated series: sum of coeffs[m] * vars^m over stored monomials."""

    __slots__ = ("spec", "vars", "coeffs", "cap", "prec")

    def __init__(self, spec: BaseRingSpec, vars: tuple, coeffs: dict,
                 cap: int | None, prec: int, _canonical: bool = False):
        if prec < 0:
            raise PrecisionExhausted("negative precision")
        self.spec = spec
        self.vars = tuple(vars)
        self.cap = cap
        self.prec = prec
        if _canonical:
            self.coeffs = coeffs
            return
        clean = {}
        for m, d in coeffs.items():
            if cap is not None and sum(m) > cap:
                continue
            r = spec.reduce_digits(d, prec)
            if any(r):
                clean[m] = r
        self.coeffs = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec, vars, cap, prec):
        return cls(spec, vars, {}, cap, prec, _canonical=True)

    @classmethod
    def const(cls, spec, vars, value: PadicScalar, cap, prec):
        m = (0,) * len(vars)
        return cls(spec, vars, {m: value.digits}, cap, prec)

    @classmethod
    def gen(cls, spec, vars, name: str, cap, prec):
        i = tuple(vars).index(name)
        m = tuple(1 if j == i else 0 for j in range(len(vars)))
        one = [0] * spec.e
        one[0] = 1
        return cls(spec, vars, {m: one}, cap, prec)

    @classmethod
    def from_scalar_dict(cls, spec, vars, items: dict, cap, prec):
        """Build from a dict monomial -> PadicScalar."""
        return cls(spec, vars, {m: c.digits for m, c in items.items()},
                   cap, prec)

    # -- bookkeeping ----------------------------------------------------------

    def _check(self, other: "TruncSeries"):
        if (self.spec != other.spec or self.vars != other.vars
                or self.cap != other.cap):
            raise IncompatibleSpec("series context mismatch")

    def coeff(self, m: tuple) -> PadicScalar:
        d = self.coeffs.get(tuple(m))
        if d is None:
            return self.spec.zero(self.prec)
        return PadicScalar(self.spec, d, self.prec)

    def constant_term(self) -> PadicScalar:
        return self.coeff((0,) * len(self.vars))

    def linear_coeff(self, name: str) -> PadicScalar:
        i = self.vars.index(name)
        m = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return self.coeff(m)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_degree(self) -> int | None:
        if not self.coeffs:
            return None
        return max(sum(m) for m in self.coeffs)

    def leading_monomial(self) -> tuple | None:
        if not self.coeffs:
            return None
        return min(self.coeffs, key=monomial_key)

    def reduce_prec(self, prec: int) -> "TruncSeries":
        if prec > self.prec:
            raise PrecisionExhausted("cannot raise series precision")
        return TruncSeries(self.spec, self.vars, self.coeffs, self.cap, prec)

    def with_cap(self, cap: int | None) -> "TruncSeries":
        """The terms of degree <= cap, under that cap.

        A higher cap pads with zero terms (a Newton iteration's starting
        point); only exact polynomials may drop the cap.
        """
        if cap is None and self.cap is not None:
            raise IncompatibleSpec("cannot remove a truncation cap")
        coeffs = {m: d for m, d in self.coeffs.items()
                  if cap is None or sum(m) <= cap}
        return TruncSeries(self.spec, self.vars, coeffs, cap, self.prec,
                           _canonical=True)

    def extend_vars(self, vars: tuple) -> "TruncSeries":
        """Reinterpret over a larger variable list (old vars must appear)."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        coeffs = {}
        for m, d in self.coeffs.items():
            mm = [0] * len(vars)
            for p_, exp in zip(pos, m):
                mm[p_] = exp
            coeffs[tuple(mm)] = d
        return TruncSeries(self.spec, vars, coeffs, self.cap, self.prec,
                           _canonical=True)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        prec = min(self.prec, other.prec)
        out = dict(self.coeffs)
        for m, d in other.coeffs.items():
            cur = out.get(m)
            out[m] = _raw_add(cur, d) if cur is not None else d
        return TruncSeries(self.spec, self.vars, out, self.cap, prec)

    def __neg__(self) -> "TruncSeries":
        out = {m: [-x for x in d] for m, d in self.coeffs.items()}
        return TruncSeries(self.spec, self.vars, out, self.cap, self.prec)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        spec = self.spec
        prec = min(self.prec, other.prec)
        cap = self.cap
        a, b = self.coeffs, other.coeffs
        if not (a and b):
            out = {}
        elif len(self.vars) == 1:
            out = _kronecker_mul(spec, a, b, cap, prec)
        else:
            out = _packed_mul(spec, a, b, cap, prec)
        return TruncSeries(spec, self.vars, out, cap, prec, _canonical=True)

    def scalar_mul(self, c: PadicScalar) -> "TruncSeries":
        prec = min(self.prec, c.prec)
        out = {m: digit_product(self.spec, d, c.digits)
               for m, d in self.coeffs.items()}
        return TruncSeries(self.spec, self.vars, out, self.cap, prec)

    def int_mul(self, n: int) -> "TruncSeries":
        out = {m: [n * x for x in d] for m, d in self.coeffs.items()}
        return TruncSeries(self.spec, self.vars, out, self.cap, self.prec)

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative series power")
        if n == 0:
            return TruncSeries.const(self.spec, self.vars,
                                     self.spec.one(self.prec), self.cap,
                                     self.prec)
        known = {1: self}
        _power(known, n)
        return known[n]

    # -- pi bookkeeping -------------------------------------------------------

    def mul_pi(self, k: int) -> "TruncSeries":
        """Exact multiplication by pi^k, k >= 0 (precision rises by k)."""
        if k == 0:
            return self
        out = {m: digit_mul_pi(self.spec, d, k)
               for m, d in self.coeffs.items()}
        return TruncSeries(self.spec, self.vars, out, self.cap, self.prec + k,
                           _canonical=True)

    def exact_div_pi(self, k: int) -> "TruncSeries":
        """Coefficientwise exact division by pi^k (precision drops by k);
        raises NotDivisible, and PrecisionExhausted when the precision is
        below k, or at most k while there is a coefficient."""
        if k == 0:
            return self
        if self.coeffs and self.prec <= k:
            raise PrecisionExhausted(
                f"precision {self.prec} cannot absorb division by pi^{k}")
        out = {m: digit_div_pi(self.spec, d, k)
               for m, d in self.coeffs.items()}
        return TruncSeries(self.spec, self.vars, out, self.cap, self.prec - k,
                           _canonical=True)

    def residue_coeffs(self) -> dict:
        """Reduction mod pi: dict monomial -> element of F_p (an int)."""
        p = self.spec.p
        out = {}
        for m, d in self.coeffs.items():
            r = d[0] % p
            if r:
                out[m] = r
        return out

    # -- substitution ---------------------------------------------------------

    def substitute(self, mapping: dict) -> "TruncSeries":
        """Substitute series for variables.  Unmapped variables persist.

        When self is truncated (cap not None) every image must have zero
        constant term, else discarded high-degree terms of self would feed
        low degrees of the result.  Exact polynomials accept any images.
        All images must share one context, which becomes the result context.
        """
        images = {}
        ctx = None
        for v, s in mapping.items():
            if v not in self.vars:
                raise IncompatibleSpec(f"unknown variable {v!r}")
            if self.cap is not None and not s.constant_term().is_zero():
                raise NonNilpotentComposition(
                    f"image of {v!r} has a nonzero constant term")
            images[v] = s
            ctx = s
        if ctx is None:
            return self
        for v in self.vars:
            if v not in images:
                if v not in ctx.vars:
                    raise IncompatibleSpec(
                        f"unmapped variable {v!r} missing from target context")
                images[v] = TruncSeries.gen(ctx.spec, ctx.vars, v, ctx.cap,
                                            ctx.prec)
        prec = min([self.prec] + [s.prec for s in images.values()])
        cap = ctx.cap
        one = TruncSeries.const(ctx.spec, ctx.vars, ctx.spec.one(prec), cap,
                                prec)
        # build only the powers of each image that a monomial uses; sum raw
        # digit products, reduce once
        powers = {}
        for i, v in enumerate(self.vars):
            used = {m[i] for m in self.coeffs} - {0}
            if used:
                image = images[v]
                known = {1: image if image.prec == prec
                         else image.reduce_prec(prec)}
                for n in sorted(used):
                    _power(known, n)
                powers[v] = known
        out: dict = {}
        for m, d in self.coeffs.items():
            term = one
            for v, expo in zip(self.vars, m):
                if expo == 0:
                    continue
                piece = powers[v][expo]
                term = piece if term is one else term * piece
            for mm, dd in term.coeffs.items():
                prod = digit_product(ctx.spec, d, dd)
                cur = out.get(mm)
                out[mm] = _raw_add(cur, prod) if cur is not None else prod
        return TruncSeries(ctx.spec, ctx.vars, out, cap, prec)

    def evaluate(self, values: dict) -> PadicScalar:
        """Evaluate an exact polynomial (cap=None) at scalar arguments."""
        if self.cap is not None:
            raise IncompatibleSpec(
                "scalar evaluation requires an exact (uncapped) polynomial")
        vals = []
        prec = self.prec
        for v in self.vars:
            if v not in values:
                raise IncompatibleSpec(f"missing value for {v!r}")
            vals.append(values[v])
            prec = min(prec, values[v].prec)
        acc = self.spec.zero(prec)
        for m, d in self.coeffs.items():
            term = PadicScalar(self.spec, d, self.prec)
            for val, expo in zip(vals, m):
                if expo:
                    term = term * val ** expo
            acc = acc + term
        return acc

    # -- comparison / io ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.spec != other.spec or self.vars != other.vars:
            return False
        prec = min(self.prec, other.prec)
        a = TruncSeries(self.spec, self.vars, self.coeffs, self.cap, prec)
        b = TruncSeries(other.spec, other.vars, other.coeffs, other.cap, prec)
        return a.coeffs == b.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        if not self.coeffs:
            return f"0 (vars={','.join(self.vars)}, prec={self.prec})"
        bits = []
        for m in sorted(self.coeffs, key=monomial_key)[:8]:
            mono = "*".join(f"{v}^{k}" for v, k in zip(self.vars, m) if k)
            c = self.coeff(m)
            bits.append(f"({c.digits})*{mono or '1'}")
        more = "" if len(self.coeffs) <= 8 else f" + ... ({len(self.coeffs)} terms)"
        return " + ".join(bits) + more + f" (mod pi^{self.prec})"

    def to_json(self):
        items = {}
        for m in sorted(self.coeffs, key=monomial_key):
            c = self.coeff(m)
            items[",".join(map(str, m))] = [list(c.digits), c.prec]
        return {"variables": list(self.vars), "degree_cap": self.cap,
                "prec": self.prec, "coeffs": items}


class FracSeries:
    """A series with a global denominator: value = pi^(-shift) * num.

    The value is known modulo pi^(num.prec - shift).  Used for formal
    logarithms and logarithm-ghost character generators, whose coefficients
    live in K with bounded denominators.
    """

    __slots__ = ("num", "shift")

    def __init__(self, num: TruncSeries, shift: int = 0):
        self.num = num
        self.shift = shift

    def aligned(self, shift: int) -> "FracSeries":
        if shift < self.shift:
            raise ValueError("cannot lower the denominator exponent")
        return FracSeries(self.num.mul_pi(shift - self.shift), shift)

    @property
    def prec(self) -> int:
        """The value is known modulo pi^prec."""
        return self.num.prec - self.shift

    def normalize(self) -> "FracSeries":
        """Move pi-powers common to all numerator coefficients into shift;
        pi^(-s) * 0 becomes 0 at the precision the value is known to."""
        if self.shift == 0:
            return self
        vmin = self.shift
        for d in self.num.coeffs.values():
            vmin = min(vmin, digit_valuation(self.num.spec, d))
            if vmin == 0:
                return self
        return FracSeries(self.num.exact_div_pi(vmin), self.shift - vmin)

    def __add__(self, other: "FracSeries") -> "FracSeries":
        a = self.normalize()
        b = other.normalize()
        s = max(a.shift, b.shift)
        return FracSeries(a.aligned(s).num + b.aligned(s).num, s).normalize()

    def __neg__(self):
        return FracSeries(-self.num, self.shift)

    def __sub__(self, other):
        return self + (-other)

    def scalar_mul(self, c: PadicScalar) -> "FracSeries":
        return FracSeries(self.num.scalar_mul(c), self.shift)

    def substitute(self, mapping: dict) -> "FracSeries":
        return FracSeries(self.num.substitute(mapping), self.shift)

    def to_integral(self) -> TruncSeries:
        """Clear the denominator exactly; raises NotDivisible if it is real."""
        return self.num.exact_div_pi(self.shift) if self.shift else self.num

    def is_integral(self) -> bool:
        if self.shift == 0:
            return True
        try:
            self.num.exact_div_pi(self.shift)
            return True
        except NotDivisible:
            return False
