"""Sparse multivariate truncated power series over PadicScalar.

Coefficients are stored internally as raw digit vectors (see ring.py), one
dict entry per monomial; monomials are exponent tuples aligned with an
ordered variable list.  A series carries a total-degree cap (cap=None means
"exact polynomial, no truncation") and a single pi-adic precision shared by
every coefficient.

Monomial order is graded lex with the first variable smallest; leading terms
are minimal in that order (so x1 leads x1 + higher-degree corrections).

Every product runs one kernel on packed monomials (`_Packing`): with
B = top + 1, top the cap or, uncapped, a bound on the result's degree,
the monomial m is the int sum m_i (B^i + B^n), exponents in the low digits
and total degree in the top one, so a monomial product is one int
addition and the cap is one bound on the key.  `*`, `**`, `substitute`
and the Witt ghost map and its inversion (`witt._ghost`) each pack their
inputs once and unpack their results once; powers are products of two
known powers (`_power`), on packed series.  `substitute` relabels when every image is 0 or one term
c x^k (a generator, a swap, pi x1): each monomial maps to one monomial,
its coefficient times powers of the c's, with no series product
(`_relabel`).  Otherwise it packs each image once, builds only the powers
of it that its monomials use, and multiplies them per monomial.  Either
way it sums raw digit products and reduces once.
Truncated sums and products are exact in R[x]/(pi^N, degree > cap), so no
shortcut changes a result.
The digit arithmetic itself (products, pi-shifts, valuations, reduction)
is that of `ring`, and so are the moduli: an operation fetches its
precision's moduli once from the spec's table (`BaseRingSpec.moduli`).
At e = 1 a stored coefficient is still a 1-tuple, but the loops that
carry a workload's traffic work on its bare int and reduce by the one
modulus p^N: the reducing constructor, `+`, the `substitute`
accumulators and the product kernel.  Negation, `int_mul` and
`scalar_mul` take the digit path at every e and reduce through the
constructor.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import mul

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


def _reduce_ints(ints: dict, modulus: int, cap: int | None = None) -> dict:
    """Canonical e = 1 coefficients of bare-int sums {monomial: int}: each
    reduced by the one modulus, zeros and terms above `cap` dropped."""
    out = {}
    for m, x in ints.items():
        x %= modulus
        if x and (cap is None or sum(m) <= cap):
            out[m] = (x,)
    return out


class _Packing:
    """Products of series over `nvars` variables at precision `prec`, with
    no degree above `top` (the cap, when `capped`), on packed keys: with
    B = top + 1, m packs to sum m_i (B^i + B^nvars), and under a cap a key
    lies below B^(nvars + 1) exactly when its degree is at most the cap.
    Coefficients are canonical, bare ints at e = 1."""

    __slots__ = ("spec", "prec", "base", "weights", "limit", "unramified")

    def __init__(self, spec: BaseRingSpec, prec: int, nvars: int, top: int,
                 capped: bool):
        self.spec = spec
        self.prec = prec
        self.base = base = top + 1
        self.weights = [base ** i + base ** nvars for i in range(nvars)]
        self.limit = base ** (nvars + 1) if capped else None
        self.unramified = spec.e == 1

    def pack(self, coeffs: dict) -> dict:
        weights = self.weights
        if self.unramified:
            return {sum(map(mul, m, weights)): d[0]
                    for m, d in coeffs.items()}
        return {sum(map(mul, m, weights)): d for m, d in coeffs.items()}

    def unpack(self, packed: dict) -> dict:
        base, unramified = self.base, self.unramified
        out = {}
        for k, d in packed.items():
            m = []
            for _ in self.weights:
                k, x = divmod(k, base)
                m.append(x)
            out[tuple(m)] = (d,) if unramified else d
        return out

    def reduce(self, raw: dict, prec: int | None = None) -> dict:
        """Canonical packed coefficients of raw sums mod pi^prec (the
        packing's own precision by default): zeros dropped."""
        prec = self.prec if prec is None else prec
        if self.unramified:
            modulus = self.spec.moduli(prec)[0]
            return {k: r for k, x in raw.items() if (r := x % modulus)}
        out = {}
        for k, d in raw.items():
            r = self.spec.reduce_digits(d, prec)
            if any(r):
                out[k] = r
        return out

    def add_multiple(self, acc: dict, c, packed: dict) -> None:
        """acc += c * packed on raw coefficients, c a digit vector."""
        get = acc.get
        if self.unramified:
            c = c[0]
            for k, x in packed.items():
                acc[k] = get(k, 0) + c * x
            return
        spec = self.spec
        for k, d in packed.items():
            prod = digit_product(spec, c, d)
            cur = get(k)
            acc[k] = _raw_add(cur, prod) if cur is not None else prod

    def product(self, a: dict, b: dict) -> dict:
        """The product of two packed series, its terms above the cap
        dropped.  This is the one loop over monomial pairs of `TruncSeries`:
        the larger operand is sorted and cut for each monomial of the
        smaller by one bisection; sums are reduced once per key."""
        if len(a) > len(b):
            a, b = b, a
        limit = self.limit
        if limit is not None:
            rows = sorted(b.items())
            keys = [k for k, _ in rows]
        spec, unramified = self.spec, self.unramified
        out: dict = {}
        get = out.get
        for k1, x in a.items():
            row = b.items() if limit is None else \
                rows[:bisect_left(keys, limit - k1)]
            if unramified:
                for k2, y in row:
                    k = k1 + k2
                    out[k] = get(k, 0) + x * y
            else:
                for k2, y in row:
                    k = k1 + k2
                    prod = digit_product(spec, x, y)
                    cur = get(k)
                    out[k] = _raw_add(cur, prod) if cur is not None else prod
        return self.reduce(out)


def _power(known: dict, n: int, product) -> dict:
    """Add power n of a series to `known` (exponent -> power, power 1 at
    least) and return it: the product of the known powers k and n - k for
    the largest such k, else of n // 2 and n - n // 2, added the same way."""
    if n not in known:
        k = max((k for k in known if n - k in known), default=None)
        if k is None:
            k = n // 2
            _power(known, k, product)
            _power(known, n - k, product)
        known[n] = product(known[k], known[n - k])
    return known[n]


def _relabel(spec: BaseRingSpec, coeffs: dict, images: list, nvars: int,
             prec: int) -> dict:
    """Unreduced, uncapped coefficients of a substitution whose images, one
    per variable in order and over `nvars` variables, are each 0 or one
    term c x^k: the monomial m maps to the one monomial sum m_v k_v, with
    coefficient d_m prod c_v^(m_v), and drops out when it uses a zero
    image.  Bare ints at e = 1; each power of a c other than 1 is built
    once."""
    unit = (1,) + (0,) * (spec.e - 1)
    unramified = spec.e == 1
    terms = [next(iter(s.coeffs.items()), None) for s in images]
    powers: dict = {}
    out: dict = {}
    get = out.get
    for m, d in coeffs.items():
        key = [0] * nvars
        x = d[0] if unramified else d
        for expo, term in zip(m, terms):
            if not expo:
                continue
            if term is None:
                break
            k, c = term
            key = [a + expo * b for a, b in zip(key, k)]
            if c != unit:
                cn = powers.get((c, expo))
                if cn is None:
                    cn = powers[c, expo] = \
                        (PadicScalar(spec, c, prec) ** expo).digits
                x = x * cn[0] if unramified else digit_product(spec, x, cn)
        else:
            key = tuple(key)
            if unramified:
                out[key] = get(key, 0) + x
            else:
                cur = get(key)
                out[key] = _raw_add(cur, x) if cur is not None else x
    return out


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
        if spec.e == 1:
            self.coeffs = _reduce_ints({m: d[0] for m, d in coeffs.items()},
                                       spec.moduli(prec)[0], cap)
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
        if prec == self.prec:
            return self  # coeffs are canonical and never mutated
        return TruncSeries(self.spec, self.vars, self.coeffs, self.cap, prec)

    def with_cap(self, cap: int | None) -> "TruncSeries":
        """The terms of degree <= cap, under that cap.

        A higher cap pads with zero terms (a Newton iteration's starting
        point); only exact polynomials may drop the cap.
        """
        if cap is None and self.cap is not None:
            raise IncompatibleSpec("cannot remove a truncation cap")
        if cap is None or (self.cap is not None and cap >= self.cap):
            coeffs = self.coeffs  # no term to drop; coeffs are never mutated
        else:
            coeffs = {m: d for m, d in self.coeffs.items() if sum(m) <= cap}
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
        if self.spec.e == 1:
            out = {m: d[0] for m, d in self.coeffs.items()}
            get = out.get
            for m, d in other.coeffs.items():
                out[m] = get(m, 0) + d[0]
            return TruncSeries(self.spec, self.vars,
                               _reduce_ints(out, self.spec.moduli(prec)[0]),
                               self.cap, prec, _canonical=True)
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
        prec = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        out = {}
        if a and b:
            top = self.cap if self.cap is not None else \
                max(map(sum, a)) + max(map(sum, b))
            ring = _Packing(self.spec, prec, len(self.vars), top,
                            self.cap is not None)
            out = ring.unpack(ring.product(ring.pack(a), ring.pack(b)))
        return TruncSeries(self.spec, self.vars, out, self.cap, prec,
                           _canonical=True)

    def scalar_mul(self, c: PadicScalar) -> "TruncSeries":
        out = {m: digit_product(self.spec, d, c.digits)
               for m, d in self.coeffs.items()}
        return TruncSeries(self.spec, self.vars, out, self.cap,
                           min(self.prec, c.prec))

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
        if n == 1 or not self.coeffs:
            return self
        capped = self.cap is not None
        ring = _Packing(self.spec, self.prec, len(self.vars),
                        self.cap if capped else n * self.max_degree(), capped)
        power = _power({1: ring.pack(self.coeffs)}, n, ring.product)
        return TruncSeries(self.spec, self.vars, ring.unpack(power),
                           self.cap, self.prec, _canonical=True)

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
        All images must share self's spec and one variable list and cap
        (else IncompatibleSpec), which become the result's; its precision is
        the least of self's and the images'.  When every image is zero or one
        term, each monomial maps to one monomial (`_relabel`), with no
        power of an image and no series product.
        """
        images = {}
        ctx = None
        for v, s in mapping.items():
            if v not in self.vars:
                raise IncompatibleSpec(f"unknown variable {v!r}")
            if self.cap is not None and not s.constant_term().is_zero():
                raise NonNilpotentComposition(
                    f"image of {v!r} has a nonzero constant term")
            if s.spec != self.spec or ctx is not None and (
                    s.vars, s.cap) != (ctx.vars, ctx.cap):
                raise IncompatibleSpec(f"image of {v!r} is in another context")
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
        images = [images[v] for v in self.vars]
        prec = min([self.prec] + [s.prec for s in images])
        spec = ctx.spec
        cap = ctx.cap
        if all(len(s.coeffs) <= 1 for s in images):
            out = _relabel(spec, self.coeffs, images, len(ctx.vars), prec)
            if spec.e == 1:
                out = _reduce_ints(out, spec.moduli(prec)[0], cap)
                return TruncSeries(spec, ctx.vars, out, cap, prec,
                                   _canonical=True)
            return TruncSeries(spec, ctx.vars, out, cap, prec)
        top = cap
        if cap is None:
            degrees = [s.max_degree() or 0 for s in images]
            top = max((sum(map(mul, m, degrees)) for m in self.coeffs),
                      default=0)
        ring = _Packing(spec, prec, len(ctx.vars), top, cap is not None)
        # pack each image once and build only the powers of it that a
        # monomial uses; sum raw products of packed terms, reduce once (at
        # prec, so an image's extra digits change nothing)
        powers = []
        for i, image in enumerate(images):
            known = {1: ring.pack(image.coeffs)}
            for n in sorted({m[i] for m in self.coeffs} - {0}):
                _power(known, n, ring.product)
            powers.append(known)
        one = {0: 1 if ring.unramified else (1,) + (0,) * (spec.e - 1)}
        out: dict = {}
        for m, d in self.coeffs.items():
            term = one
            for known, expo in zip(powers, m):
                if expo:
                    term = known[expo] if term is one \
                        else ring.product(term, known[expo])
            ring.add_multiple(out, d, term)
        return TruncSeries(spec, ctx.vars, ring.unpack(ring.reduce(out)),
                           cap, prec, _canonical=True)

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
