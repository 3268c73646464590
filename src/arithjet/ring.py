"""Base ring arithmetic: R = Z_p[pi]/(pi^e - p) at finite pi-adic precision.

Elements are canonical residues modulo pi^N stored as integer digit vectors
of length e in the basis 1, pi, ..., pi^(e-1).  With that representation
exact division by pi is a shift-and-borrow, never a rational division.
Digit vectors are multiplied, shifted, divided by pi, valued and inverted
here only (`digit_*`, `reduce_digits`); `series` calls these, `howell`
applies the shift rule of `digit_mul_pi` as a table when it restricts
scalars to Z/p^k, and an inverse or a quadratic root loops on digit
vectors at every e, with no `PadicScalar` inside.  Every precision is
explicit (there is no default), carried per element, and only ever
decreases, except under multiplication by pi^k.

The modulus of each digit at a precision comes from the spec's modulus
table (`BaseRingSpec.moduli`), built per precision on first use, so
reducing a digit is one `%` with no exponentiation; at e = 1 an element
is one int under one modulus p^prec, which `digit_product` and
`reduce_digits` multiply and reduce without a loop over digits.

The residue field is F_p, so q = p and the Frobenius lift phi is the
identity on R (x == x^q mod pi).
"""

from __future__ import annotations

from operator import mod, sub

from .errors import IncompatibleSpec, NotDivisible, PrecisionExhausted


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def digit_product(spec: "BaseRingSpec", a, b):
    """Raw product of two digit vectors, not yet reduced: the term of
    pi^(i+j) folds into digit i + j - e with a factor p when i + j >= e."""
    e = spec.e
    if e == 1:
        return (a[0] * b[0],)
    p = spec.p
    out = [0] * e
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            k = i + j
            if k < e:
                out[k] += x * y
            else:
                out[k - e] += p * x * y
    return out


def digit_mul_pi(spec: "BaseRingSpec", digits, k: int) -> tuple:
    """A digit tuple times pi^k, k >= 0: digit i moves to (i + k) mod e
    times p^(k // e), and p once more if it wraps.  Canonical digits mod
    pi^N come out canonical mod pi^(N+k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    q, r = divmod(k, spec.e)
    pq = spec.p ** q
    rot = digits[spec.e - r:] + digits[:spec.e - r]
    return tuple(d * pq * (spec.p if i < r else 1) for i, d in enumerate(rot))


def digit_div_pi(spec: "BaseRingSpec", digits, k: int) -> tuple:
    """A digit tuple divided exactly by pi^k, k >= 0 (else NotDivisible):
    the inverse of `digit_mul_pi`.  Canonical digits mod pi^N come out
    canonical mod pi^(N-k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    q, r = divmod(k, spec.e)
    pq = spec.p ** q
    out = []
    for i, d in enumerate(digits[r:] + digits[:r]):
        m = pq * (spec.p if i >= spec.e - r else 1)
        if d % m:
            raise NotDivisible("element is not divisible by pi")
        out.append(d // m)
    return tuple(out)


def digit_valuation(spec: "BaseRingSpec", digits) -> int | None:
    """pi-adic valuation of a digit vector, or None when every digit is 0."""
    v = None
    for i, d in enumerate(digits):
        if d != 0:
            vi = i + spec.e * _vp(d, spec.p)
            if v is None or vi < v:
                v = vi
    return v


def digit_unit_inverse(spec: "BaseRingSpec", digits, prec: int) -> tuple:
    """Canonical digits of the inverse of a unit digit vector modulo
    pi^prec, prec >= 1.  The inverse of digit 0 modulo its own modulus is
    right modulo pi (and exact when no other digit is nonzero); each
    Newton step x <- x - x(ax - 1) doubles the digits known."""
    mods = spec.moduli(prec)
    x = [pow(digits[0], -1, mods[0])] + [0] * (spec.e - 1)
    known = 1
    while known < prec:
        r = list(map(mod, digit_product(spec, digits, x), mods))
        r[0] -= 1
        if not any(r):
            break
        x = list(map(mod, map(sub, x, digit_product(spec, x, r)), mods))
        known *= 2
    return tuple(x)


class BaseRingSpec:
    """Parameters of the base ring: prime p and ramification e (pi^e = p);
    the residue field is F_p, so the Frobenius power q is p.

    Ramified specs (e >= 2) must satisfy e <= p - 2; the unramified case
    e = 1 is always legal.
    """

    def __init__(self, p: int, e: int = 1):
        if not _is_prime(p):
            raise IncompatibleSpec(f"p = {p} is not prime")
        if e < 1:
            raise IncompatibleSpec(f"e = {e} must be >= 1")
        if e >= 2 and e > p - 2:
            raise IncompatibleSpec(
                f"ramification e = {e} violates e <= p - 2 for p = {p}")
        self.p = p
        self.e = e
        self.q = p
        self._moduli = {}  # prec -> moduli(prec), filled on first use

    def __eq__(self, other):
        return (isinstance(other, BaseRingSpec)
                and (self.p, self.e) == (other.p, other.e))

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"BaseRingSpec(p={self.p}, e={self.e}, q={self.q})"

    # -- element constructors -------------------------------------------------

    def moduli(self, prec: int) -> tuple:
        """The modulus p^ceil((prec - i)/e) of each digit i of an element
        known modulo pi^prec (p^prec alone at e = 1), from the table."""
        mods = self._moduli.get(prec)
        if mods is None:
            mods = self._moduli[prec] = tuple(
                self.p ** max(0, -(-(prec - i) // self.e))
                for i in range(self.e))
        return mods

    def reduce_digits(self, digits, prec: int) -> tuple:
        """Canonically reduce a raw digit vector modulo pi^prec."""
        mods = self.moduli(prec)
        if self.e == 1:
            return (digits[0] % mods[0],)
        return tuple(map(mod, digits, mods))

    def scalar(self, n: int, prec: int) -> "PadicScalar":
        """The image of the integer n, modulo pi^prec."""
        digits = [0] * self.e
        digits[0] = n
        return PadicScalar(self, digits, prec)

    def pi(self, prec: int) -> "PadicScalar":
        if self.e == 1:
            return self.scalar(self.p, prec)
        digits = [0] * self.e
        digits[1] = 1
        return PadicScalar(self, digits, prec)

    def zero(self, prec: int) -> "PadicScalar":
        return self.scalar(0, prec)

    def one(self, prec: int) -> "PadicScalar":
        return self.scalar(1, prec)


class PadicScalar:
    """An element of R known modulo pi^prec.

    digits[i] is the coefficient of pi^i, canonically reduced modulo
    p^ceil((prec - i)/e).  The valuation of an element indistinguishable
    from 0 at this precision is reported as None ("at least prec").
    """

    __slots__ = ("spec", "digits", "prec")

    def __init__(self, spec: BaseRingSpec, digits, prec: int):
        if prec < 0:
            raise PrecisionExhausted("negative precision")
        if len(digits) != spec.e:
            raise IncompatibleSpec("digit vector has wrong length")
        self.spec = spec
        self.prec = prec
        self.digits = spec.reduce_digits(digits, prec)

    @classmethod
    def _canonical(cls, spec: BaseRingSpec, digits: tuple, prec: int):
        """Wrap a digit tuple of length e that is already canonical
        modulo pi^prec, prec >= 0: no check and no reduction."""
        x = object.__new__(cls)
        x.spec = spec
        x.digits = digits
        x.prec = prec
        return x

    # -- bookkeeping ----------------------------------------------------------

    def _check(self, other: "PadicScalar"):
        if self.spec != other.spec:
            raise IncompatibleSpec("scalars over different base rings")

    def reduce_prec(self, prec: int) -> "PadicScalar":
        if prec > self.prec:
            raise PrecisionExhausted(
                f"cannot raise precision {self.prec} -> {prec}")
        if prec == self.prec:
            return self  # digits are canonical and never mutated
        return PadicScalar(self.spec, self.digits, prec)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    def valuation(self) -> int | None:
        """pi-adic valuation, or None when the element is 0 mod pi^prec."""
        v = digit_valuation(self.spec, self.digits)
        return min(v, self.prec) if v is not None else None

    def is_unit(self) -> bool:
        return self.digits[0] % self.spec.p != 0

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        prec = min(self.prec, other.prec)
        digits = [a + b for a, b in zip(self.digits, other.digits)]
        return PadicScalar(self.spec, digits, prec)

    def __neg__(self) -> "PadicScalar":
        return PadicScalar(self.spec, [-d for d in self.digits], self.prec)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        prec = min(self.prec, other.prec)
        return PadicScalar(self.spec,
                           digit_product(self.spec, self.digits, other.digits),
                           prec)

    def __pow__(self, n: int) -> "PadicScalar":
        if n < 0:
            raise ValueError("negative exponent; use inverse() first")
        result = self.spec.one(self.prec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "PadicScalar":
        """Inverse modulo pi^prec; requires a unit.  `digit_unit_inverse`
        lifts it on the digit vector (at e = 1 its start value, the
        builtin modular inverse, is already exact)."""
        if not self.is_unit():
            raise NotDivisible("cannot invert a non-unit")
        return PadicScalar(
            self.spec, digit_unit_inverse(self.spec, self.digits, self.prec),
            self.prec)

    def scale_int(self, n: int) -> "PadicScalar":
        return PadicScalar(self.spec, [n * d for d in self.digits], self.prec)

    # -- pi-adic primitives ---------------------------------------------------

    def exact_div_pi(self, k: int = 1) -> "PadicScalar":
        """Exact division by pi^k; precision drops by k.  As for series, a
        zero known to exactly k digits divides to 0 mod pi^0, and anything
        else known to at most k digits raises PrecisionExhausted."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.prec <= k and not self.is_zero():
            raise PrecisionExhausted(
                f"precision {self.prec} cannot absorb division by pi^{k}")
        return PadicScalar(self.spec, digit_div_pi(self.spec, self.digits, k),
                           self.prec - k)

    def mul_pi(self, k: int) -> "PadicScalar":
        """Exact multiplication by pi^k, k >= 0; the known precision rises
        by k."""
        if k == 0:
            return self
        return PadicScalar(self.spec, digit_mul_pi(self.spec, self.digits, k),
                           self.prec + k)

    # -- comparison / io ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        if self.spec != other.spec:
            return False
        prec = min(self.prec, other.prec)
        return (self.reduce_prec(prec).digits
                == other.reduce_prec(prec).digits)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        if self.spec.e == 1:
            return f"{self.digits[0]} (mod pi^{self.prec})"
        body = " + ".join(f"{d}*pi^{i}" for i, d in enumerate(self.digits))
        return f"{body} (mod pi^{self.prec})"

    def to_json(self):
        return {"digits": list(self.digits), "prec": self.prec,
                "pi_power_basis": self.spec.e}


def unit_quadratic_root(lam: PadicScalar, c: PadicScalar) -> PadicScalar:
    """The root x = lam (mod pi) of x^2 - lam x + c, for a unit lam, pi | c.

    Newton's iteration from x = lam, at precision min(lam.prec, c.prec):
    f'(x) = 2x - lam = lam (mod pi) is a unit, so the root modulo pi^prec
    depends only on lam and c modulo pi^prec.  The steps run on digit
    vectors at every e.  A derivative that is not a unit raises
    NotDivisible.
    """
    prec = min(lam.prec, c.prec)
    lam, c = lam.reduce_prec(prec), c.reduce_prec(prec)
    spec = lam.spec
    a, b = lam.digits, c.digits
    x = a
    for _ in range(prec + 2):
        f = spec.reduce_digits([u - v + w for u, v, w in zip(
            digit_product(spec, x, x), digit_product(spec, a, x), b)], prec)
        if not any(f):
            break
        d = [2 * u - v for u, v in zip(x, a)]
        if d[0] % spec.p == 0:
            raise NotDivisible("cannot invert a non-unit")
        x = spec.reduce_digits(list(map(sub, x, digit_product(
            spec, f, digit_unit_inverse(spec, d, prec)))), prec)
    return PadicScalar(spec, x, prec)
