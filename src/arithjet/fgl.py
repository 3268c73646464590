"""One-dimensional formal group laws and their logarithms.

Every group carries its invariant differential omega = 1/F_X(0, T), a
T-series built from integer coefficients by one helper (`_omega`).  The
logarithm integrates omega, never the law, and therefore lives in K
(FracSeries with a bounded pi-power denominator).  Two constructors know
a curve, and both check the discriminant.  Both read omega of a short
Weierstrass model off one closed form, u_m = [x^(2m)] (x^3 + a4 x +
a6)^m (`weierstrass_omega_coeffs`), a sum of integers with no series
product.  `formal_group_from_weierstrass` keeps every term u_m T^(2m),
and it is the only constructor that attaches a law: the chord-tangent
law, a truncated two-variable series F(X, Y) over R, built on first
access from w(t) = sum c_k t^k (t = -x/y), whose coefficients are
integers in a4 and a6 by Lagrange inversion; the chord slope copies w:
its X^i Y^j coefficient is c_(i+j+1).  The law is not checked at run
time; the group axioms and L(F(X, Y)) = L(X) + L(Y) are checked in the
tests.  `ptypical_weierstrass`, all that `crystal` needs, keeps only the
terms T^(p^k - 1) and has no law.
"""

from __future__ import annotations

from math import comb

from .errors import BadReduction, IncompatibleSpec, PrecisionExhausted
from .ring import (
    BaseRingSpec,
    PadicScalar,
    _vp,
    digit_mul_pi,
    digit_product,
    digit_unit_inverse,
    unit_quadratic_root,
)
from .series import FracSeries, TruncSeries

VARS = ("X", "Y")


def log_denominator_exponent(spec: BaseRingSpec, D: int) -> int:
    """e * floor(log_p D): the largest pi-valuation of k for k <= D."""
    k, pk = 0, spec.p
    while pk <= D:
        k, pk = k + 1, pk * spec.p
    return spec.e * k


class FormalGroupLaw:
    """A commutative one-dimensional formal group law to degree `cap`.

    `omega` is the invariant differential P(T) = 1/F_X(0, T), a T-series
    to degree `cap`; the logarithm reads only it.  A group carries omega
    only, and reading its `law` raises IncompatibleSpec, unless its
    constructor passes the private `_build`, which returns the law F(X, Y)
    on the first access to `law`; only `formal_group_from_weierstrass`
    does.  The built law is returned as it is, with no check.

    `_memo` holds what `characters` derives from omega once: the formal
    logarithm, the log-ghost generators L(w_i) (padded to an order n
    once a character's series is read), the unit root of Frobenius and
    the solved character modules.  It lives and dies with the instance;
    its entries are shared between callers and never mutated.
    """

    def __init__(self, spec: BaseRingSpec, cap: int, prec: int,
                 omega: TruncSeries, name: str = "fgl", curve=None,
                 _build=None):
        if prec < 1:
            raise PrecisionExhausted(
                f"a formal group law needs precision >= 1, not {prec}")
        self.spec = spec
        self.cap = cap
        self.prec = prec
        self.name = name
        self.curve = curve  # (a4, a6) when the law comes from a curve
        self.omega = omega
        self._build = _build
        self._law = None
        self._memo = {}

    @property
    def law(self) -> TruncSeries:
        if self._law is None:
            if self._build is None:
                raise IncompatibleSpec(f"{self.name} carries its logarithm "
                                       "only; its law is not built")
            self._law = self._build()
        return self._law

    def __repr__(self):
        return (f"FormalGroupLaw({self.name}, p={self.spec.p}, "
                f"D={self.cap}, N={self.prec})")


def _omega(spec: BaseRingSpec, D: int, N: int, coeffs: dict) -> TruncSeries:
    """The invariant differential sum_k c_k T^k to degree D at N digits,
    from integers c_k (coeffs maps k to c_k)."""
    pad = (0,) * (spec.e - 1)
    return TruncSeries(spec, ("T",), {(k,): (c,) + pad
                                      for k, c in coeffs.items()}, D, N)


def _unit_inverse(u: TruncSeries) -> TruncSeries:
    """Inverse of a series with unit constant term, by Newton's iteration
    v <- v (2 - u v): an inverse to degree k - 1 becomes one to degree
    min(2k - 1, cap), each step at its own degree cap.
    """
    v = TruncSeries.const(u.spec, u.vars, u.constant_term().inverse(),
                          u.cap, u.prec)
    two = TruncSeries.const(u.spec, u.vars, u.spec.scalar(2, u.prec), u.cap,
                            u.prec)
    k = 1  # v is the inverse to degree k - 1
    while k <= u.cap:
        k = min(2 * k, u.cap + 1)
        v = v.with_cap(k - 1)
        v = v * (two.with_cap(k - 1) - u.with_cap(k - 1) * v)
    return v


def _good_reduction(a4: PadicScalar, a6: PadicScalar):
    """(N, a4, a6) at N = min(a4.prec, a6.prec); BadReduction unless the
    discriminant -16(4 a4^3 + 27 a6^2) is a unit."""
    N = min(a4.prec, a6.prec)
    a4, a6 = a4.reduce_prec(N), a6.reduce_prec(N)
    # modulo pi, a sum or product of digit vectors is that of their digits
    # 0 (a wrapped pi-power carries a factor p), and digit 0 is a unit
    # exactly when it is prime to p; at N = 0 every digit is 0
    a, b = a4.digits[0], a6.digits[0]
    if -16 * (4 * a ** 3 + 27 * b ** 2) % a4.spec.p == 0:
        raise BadReduction("discriminant -16(4 a4^3 + 27 a6^2) is not a "
                           "unit: bad reduction")
    return N, a4, a6


def formal_group_from_weierstrass(spec: BaseRingSpec, a4: PadicScalar,
                                  a6: PadicScalar, D: int) -> FormalGroupLaw:
    """The formal group of y^2 = x^3 + a4 x + a6 at min(a4.prec, a6.prec).

    BadReduction unless the discriminant is a unit; IncompatibleSpec if
    a4 or a6 has a nonzero pi-digit (e >= 2), since the closed form takes
    integers.  The invariant differential is omega = sum_(m <= D/2)
    u_m T^(2m) dt, u_m from `weierstrass_omega_coeffs` at ceil(N/e)
    p-adic digits: it gives the logarithm with no series product.  The
    chord-tangent law, in the parameter t = -x/y with w = -1/y, is built
    on first access from the closed-form w(t) (`_weierstrass_w`).
    """
    N, a4, a6 = _good_reduction(a4, a6)
    if any(a4.digits[1:]) or any(a6.digits[1:]):
        raise IncompatibleSpec("a4 and a6 must be p-adic integers, with no "
                               "nonzero pi-digit")
    ms = range(D // 2 + 1)
    u = weierstrass_omega_coeffs(spec.p, a4.digits[0], a6.digits[0], ms,
                                 -(-N // spec.e))
    omega = _omega(spec, D, N, {2 * m: c for m, c in zip(ms, u)})
    return FormalGroupLaw(
        spec, D, N, omega, name=f"weierstrass(a4={a4.digits},a6={a6.digits})",
        curve=(a4, a6), _build=lambda: _chord_tangent_law(spec, a4, a6, D, N))


def _weierstrass_w(spec: BaseRingSpec, a4: PadicScalar, a6: PadicScalar,
                   cap: int, N: int) -> TruncSeries:
    """The root w = t^3 + ... of w = t^3 + a4 t w^2 + a6 w^3, to degree
    cap, by Lagrange inversion.

    With w = t^3 W, W = 1 + a4 t^4 W^2 + a6 t^6 W^3, and the coefficient
    of a4^j a6^k t^(3 + 4j + 6k) in w is the integer
    (2j + 3k)! / (j! k! (j + 2k + 1)!)
    = C(2j + 3k, j) C(j + 3k, k) / (j + 2k + 1).
    """
    coeffs = {}
    a6_k = spec.one(N)
    for k in range((cap - 3) // 6 + 1):
        term = a6_k  # a4^j a6^k
        for j in range((cap - 3 - 6 * k) // 4 + 1):
            c = comb(2 * j + 3 * k, j) * comb(j + 3 * k, k) // (j + 2 * k + 1)
            m = (3 + 4 * j + 6 * k,)
            coeffs[m] = coeffs.get(m, spec.zero(N)) + term.scale_int(c)
            term = term * a4
        a6_k = a6_k * a6
    return TruncSeries.from_scalar_dict(spec, ("T",), coeffs, cap, N)


def _chord_tangent_law(spec: BaseRingSpec, a4: PadicScalar, a6: PadicScalar,
                       D: int, N: int) -> TruncSeries:
    """F(X, Y) = -(third intersection of the chord through t = X and Y),
    whose slope (w(Y) - w(X))/(Y - X) = sum c_k sum_{i+j=k-1} X^i Y^j for
    w = sum c_k t^k has X^i Y^j coefficient c_(i+j+1)."""
    w = _weierstrass_w(spec, a4, a6, D + 1, N)
    t1 = TruncSeries.gen(spec, VARS, "X", D, N)
    t2 = TruncSeries.gen(spec, VARS, "Y", D, N)
    lam = TruncSeries(spec, VARS, {(i, k - 1 - i): d for (k,), d in
                                   w.coeffs.items() for i in range(k)}, D, N)
    w1 = TruncSeries(spec, VARS, {(k, 0): d for (k,), d in w.coeffs.items()},
                     D, N)
    nu = w1 - lam * t1

    # third root of the cubic in t cut out by the chord w = lam t + nu
    lam2 = lam * lam
    a2_coef = (lam * nu).scalar_mul(a4).int_mul(2) \
        + (lam2 * nu).scalar_mul(a6).int_mul(3)
    a3_coef = TruncSeries.const(spec, VARS, spec.one(N), D, N) \
        + lam2.scalar_mul(a4) + (lam2 * lam).scalar_mul(a6)
    t3_root = -(t1 + t2) - a2_coef * _unit_inverse(a3_coef)
    # inversion is t -> -t for a1 = a3 = 0
    return -t3_root


def weierstrass_omega_coeffs(p: int, a4: int, a6: int, ms, r: int) -> list:
    """u_m = [x^(2m)] (x^3 + a4 x + a6)^m modulo p^r, for each m in ms.

    In t = -x/y the invariant differential of y^2 = x^3 + a4 x + a6 is
    sum_m u_m t^(2m) dt (Stienstra, Amer. J. Math. 109, 1987); expanding
    the cube,
        u_m = sum_i m!/(i! j! k!) a4^j a6^k,   j = 2m - 3i,  k = 2i - m.
    With n! = p^V(n) U(n), V by Legendre, the multinomial is p^v times
    U(m)/(U(i) U(j) U(k)).  i, j and k never pass h = floor(2 top/3), top =
    max(ms): one prefix table of U and V to h serves every m, and the
    product runs on to top keeping only U(m) and V(m).  The inverses of
    the table come from one modular inverse at h and a backward sweep.
    A term with p^v = 0 mod p^r is skipped.
    """
    mod = p ** r
    top = max(ms, default=0)
    h = 2 * top // 3
    U, V = [1] * (h + 1), [0] * (h + 1)
    want, past_h = set(ms), {}
    u_n, v_n = 1, 0
    for n in range(1, top + 1):
        u, v = n, 0
        while u % p == 0:
            u, v = u // p, v + 1
        u_n, v_n = u_n * u % mod, v_n + v
        if n <= h:
            U[n], V[n] = u_n, v_n
        elif n in want:
            past_h[n] = u_n, v_n
    inv = [1] * (h + 1)
    inv[h] = pow(U[h], -1, mod)
    for n in range(h, 1, -1):
        # U(n) = U(n - 1) * (n over its p-power)
        inv[n - 1] = inv[n] * (n // p ** (V[n] - V[n - 1])) % mod
    a4_pow, a6_pow = [1], [1]  # j <= m/2 and k <= m/3
    for _ in range(top // 2):
        a4_pow.append(a4_pow[-1] * a4 % mod)
    for _ in range(top // 3):
        a6_pow.append(a6_pow[-1] * a6 % mod)
    p_pow = [p ** v for v in range(r)]
    out = []
    for m in ms:
        u_m, v_m = (U[m], V[m]) if m <= h else past_h[m]
        s = 0
        for i in range((m + 1) // 2, 2 * m // 3 + 1):
            j, k = 2 * m - 3 * i, 2 * i - m
            v = v_m - V[i] - V[j] - V[k]
            if v < r:
                s = (s + p_pow[v] * inv[i] * inv[j] * inv[k] * a4_pow[j]
                     * a6_pow[k]) % mod
        out.append(s * u_m % mod)
    return out


def ptypical_group(spec: BaseRingSpec, D: int, N: int, b, name: str,
                   curve=None) -> FormalGroupLaw:
    """The p-typical group with invariant differential sum_k b_k T^(p^k - 1),
    b_k integers for p^k <= D: its logarithm is sum_k b_k T^(p^k) / p^k.

    Keeping only the T^(p^k) terms of a logarithm over Z_p gives a strictly
    isomorphic group over R (Cartier's p-typification; Hazewinkel, Formal
    Groups and Applications, 1978).  phi is the identity here, so the
    isomorphism commutes with the ghost components w_i, and the jet
    lattices `characters` solves are those of the original group.  Only
    `omega` is known: reading `law` raises IncompatibleSpec.
    """
    omega = _omega(spec, D, N, {spec.p ** k - 1: c for k, c in enumerate(b)})
    return FormalGroupLaw(spec, D, N, omega, name=name, curve=curve)


def ptypical_weierstrass(spec: BaseRingSpec, a4: int, a6: int, D: int,
                         N: int) -> FormalGroupLaw:
    """The p-typification of y^2 = x^3 + a4 x + a6 to degree D at N digits:
    b_k = u_((p^k - 1)/2) (`weierstrass_omega_coeffs`).  BadReduction as
    for `formal_group_from_weierstrass`; `curve` is (a4, a6) at N digits."""
    _, s4, s6 = _good_reduction(spec.scalar(a4, N), spec.scalar(a6, N))
    # p is odd here: the discriminant is divisible by 16
    ms = [(spec.p ** k - 1) // 2
          for k in range(log_denominator_exponent(spec, D) // spec.e + 1)]
    b = weierstrass_omega_coeffs(spec.p, a4, a6, ms, -(-N // spec.e))
    return ptypical_group(spec, D, N, b,
                          f"ptypical-weierstrass(a4={a4},a6={a6})",
                          curve=(s4, s6))


def ptypical_multiplicative(spec: BaseRingSpec, D: int,
                            N: int) -> FormalGroupLaw:
    """The p-typification of X + Y + XY: b_k = 1, the logarithm
    sum_k T^(p^k) / p^k."""
    return ptypical_group(
        spec, D, N, [1] * (log_denominator_exponent(spec, D) // spec.e + 1),
        "ptypical-multiplicative")


def trace_of_frobenius(spec: BaseRingSpec, a4: PadicScalar,
                       a6: PadicScalar) -> int:
    """a_p = p + 1 - #E(F_p) for y^2 = x^3 + a4 x + a6, by point counting.

    The residue field is F_p (q = p in this tier); the short Weierstrass
    model needs p >= 3 for good reduction.
    """
    p = spec.p
    if p < 3:
        raise BadReduction("short Weierstrass model is singular mod 2")
    r4 = a4.digits[0] % p
    r6 = a6.digits[0] % p
    squares = {(y * y) % p for y in range(p)}
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + r4 * x + r6) % p
        if rhs == 0:
            count += 1
        elif rhs in squares:
            count += 2
    return p + 1 - count


def frobenius_unit_root(spec: BaseRingSpec, ap: int,
                        prec: int) -> PadicScalar:
    """The unit root of x^2 - a_p x + p (Hensel lift from x = a_p mod pi).

    Exists exactly when the reduction is ordinary (p does not divide a_p).
    """
    if ap % spec.p == 0:
        raise BadReduction("supersingular reduction has no unit root")
    return unit_quadratic_root(spec.scalar(ap, prec),
                               spec.scalar(spec.p, prec))


def formal_logarithm(F: FormalGroupLaw) -> FracSeries:
    """L with L'(T) = omega = 1/F_X(0, T), L(0) = 0; linearizes the law
    over K.  It reads `F.omega` only, so the law is not built."""
    spec = F.spec
    D = F.cap
    N = F.prec
    P = F.omega
    shift = log_denominator_exponent(spec, D)
    pad = (0,) * (spec.e - 1)
    out = {}
    for (k,), d in P.coeffs.items():
        deg = k + 1
        if deg > D:
            continue
        # deg = unit * pi^v; the numerator c_k pi^(s - v) / unit is known
        # to P.prec + s - v digits, and kept to N, on digit vectors
        v = spec.e * _vp(deg, spec.p) if deg % spec.p == 0 else 0
        if P.prec + shift - v < N:
            raise PrecisionExhausted(
                f"cannot raise precision {P.prec + shift - v} -> {N}")
        unit = (deg // spec.p ** (v // spec.e),) + pad
        out[(deg,)] = digit_product(spec, digit_mul_pi(spec, d, shift - v),
                                    digit_unit_inverse(spec, unit, N))
    num_series = TruncSeries(spec, ("T",), out, D, N)
    return FracSeries(num_series, shift)

