"""Group laws of the jet kernels N^n and jet spaces J^n, and their
additive characters.

Coordinates: a point of N^n is the Witt vector V(z), z = (x1, ..., xn); a
point of the formal neighborhood of J^n is (x0, ..., xn).  The group law is
F evaluated in the Witt ring, in ghost coordinates: w_i(F_W(a, b)) =
F(w_i(a), w_i(b)), one substitution per slot, one inversion.

Characters are found through the logarithm-ghost generators
    l_i = L(w_i(x))      (jet side,  i = 0..n)
    Psi_i = pi^(-1) L(kappa_i)   (kernel side, kappa_i = w_i at x0 = 0)
every additive K-valued series on the group is a K-combination of these
(the ghost components w_i are ring maps and L linearizes F).  On N^n the
Psi_i are the Psi basis of the lateral tower, a basis of the character
module, so nothing is solved there.  Delta-characters are the solutions
of an integrality lattice over R/pi^M, handled by Howell forms, and
their (lambda, gamma) are read off the solved vector over the l_i,
modulo pi^M (`extract_lambda_gamma`).  The pullbacks stay as the
series-level reference for the tests and the verify suites.

The l_i are read off L = pi^(-s) sum_k c_k T^k with no series product:
the numerator of L(w_i) has the coefficient c_k C(k, b) multinomial(b;
a_1, ..., a_i) pi^(sum_j j a_j) at prod_j x_j^(a_j q^(i-j)), where b =
a_1 + ... + a_i and k = a_0 + b (`_log_ghost`).  The lattice rows are the
stored digit tuples of the unpadded numerators, which the Howell layer
reduces to M, and a solved delta-character builds its series, and the
padded generators, on the first read.

The logarithm, the l_i, the unit root alpha and the solved modules are
computed once per formal group law and kept in the law's own memo
(`FormalGroupLaw._memo`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb

from .errors import (
    DegreeCapTooSmall,
    IncompatibleSpec,
    Inconclusive,
    IntegralityViolation,
    PrecisionExhausted,
)
from .fgl import (
    FormalGroupLaw,
    formal_logarithm,
    frobenius_unit_root,
    trace_of_frobenius,
)
from .howell import module_rank, right_kernel_basis, unit_vectors
from .ring import PadicScalar, digit_mul_pi, digit_valuation
from .series import FracSeries, TruncSeries, monomial_key
from .witt import WittVector, fgl_eval_witt, frobenius_W


def kernel_vars(n: int) -> tuple:
    return tuple(f"x{i}" for i in range(1, n + 1))


def jet_vars(n: int) -> tuple:
    return tuple(f"x{i}" for i in range(n + 1))


# --------------------------------------------------------------------------
# group laws
# --------------------------------------------------------------------------

class KernelGroupLaw:
    """Componentwise group law of N^n (kind 'kernel') or J^n (kind 'jet').

    The componentwise series F(a, b) in W_n, in 2n (kernel) or 2n + 2
    (jet) variables, are only needed for the additivity check by
    substitution (`Character.check_additive`), so they are computed on
    first access, through the ghost map (`fgl_eval_witt`).
    """

    def __init__(self, F: FormalGroupLaw, n: int, kind: str):
        self.F = F
        self.spec = F.spec
        self.n = n
        self.kind = kind
        self.vars_x = kernel_vars(n) if kind == "kernel" else jet_vars(n)
        self.cap = F.cap
        self.prec = F.prec
        self._laws = None

    @property
    def vars_y(self):
        return tuple(v.replace("x", "y") for v in self.vars_x)

    @property
    def laws(self) -> tuple:
        if self._laws is None:
            self._laws = self._build()
        return self._laws

    def _build(self):
        spec = self.spec
        xs = self.vars_x
        ys = self.vars_y
        vars_ = xs + ys
        cap, prec = self.cap, self.prec
        gens = {v: TruncSeries.gen(spec, vars_, v, cap, prec) for v in vars_}
        if self.kind == "kernel":
            zero = TruncSeries.zero(spec, vars_, cap, prec)
            a = WittVector(spec, [zero] + [gens[v] for v in xs])
            b = WittVector(spec, [zero] + [gens[v] for v in ys])
        else:
            a = WittVector(spec, [gens[v] for v in xs])
            b = WittVector(spec, [gens[v] for v in ys])
        c = fgl_eval_witt(self.F, a, b)
        comps = list(c.components)
        if self.kind == "kernel":
            if not comps[0].is_zero():
                raise IncompatibleSpec("kernel law leaked into slot 0")
            comps = comps[1:]
        return tuple(comps)

    def __repr__(self):
        return (f"KernelGroupLaw({self.kind}, n={self.n}, "
                f"F={self.F.name}, D={self.cap})")


def kernel_group_law(F: FormalGroupLaw, n: int) -> KernelGroupLaw:
    """Group law of N^n: F(V(x-block), V(y-block)), slots 1..n."""
    if n < 1:
        raise IncompatibleSpec("kernel order must be >= 1")
    return KernelGroupLaw(F, n, "kernel")


def jet_group_law(F: FormalGroupLaw, n: int) -> KernelGroupLaw:
    """Group law of the formal neighborhood of J^n, slots 0..n."""
    if n < 0:
        raise IncompatibleSpec("jet order must be >= 0")
    return KernelGroupLaw(F, n, "jet")


# --------------------------------------------------------------------------
# characters
# --------------------------------------------------------------------------

class Character:
    """An additive series on N^n ('kernel') or J^n ('jet').

    The series is stored as a FracSeries (characters of interest are
    integral, but normalized representatives carry a bounded pi-power
    denominator during extraction).  `lcoeffs`, present on solved
    delta-characters, is the solution vector over the log-ghost
    generators l_i, as the Howell kernel's scalars at precision M: the
    character is a lift of pi^(-1) * sum(lcoeffs[i] * l_i).  A solved
    character builds that series on the first read of `frac`.
    """

    def __init__(self, kind: str, n: int, frac, lcoeffs=None):
        self.kind = kind
        self.n = n
        # a FracSeries, or a function returning one on the first read
        self._frac = frac if callable(frac) else frac.normalize()
        self.lcoeffs = lcoeffs

    @property
    def frac(self) -> FracSeries:
        if callable(self._frac):
            self._frac = self._frac().normalize()
        return self._frac

    @property
    def spec(self):
        return self.frac.num.spec

    def series(self) -> TruncSeries:
        """The character as an integral series (NotDivisible if it isn't)."""
        return self.frac.to_integral()

    def linear_coeff(self, name: str):
        """K-valued linear coefficient, as (numerator scalar, shift)."""
        return self.frac.num.linear_coeff(name), self.frac.shift

    def __sub__(self, other: "Character") -> "Character":
        return Character(self.kind, self.n, self.frac - other.frac)

    def check_additive(self, law: KernelGroupLaw) -> bool:
        """psi(x (+) y) = psi(x) + psi(y), by substitution into the law."""
        if law.n != self.n or law.kind != self.kind:
            raise IncompatibleSpec("law does not match character order")
        spec = self.spec
        vars2 = law.vars_x + law.vars_y
        cap = law.cap
        prec = min(self.frac.num.prec, law.prec)
        lhs = self.frac.num.substitute(
            dict(zip(law.vars_x, law.laws)))
        gx = {v: TruncSeries.gen(spec, vars2, v, cap, prec)
              for v in vars2}
        px = self.frac.num.substitute({v: gx[v] for v in law.vars_x})
        py = self.frac.num.substitute(
            dict(zip(law.vars_x, (gx[v] for v in law.vars_y))))
        return lhs == px + py

    def __repr__(self):
        lead = self.frac.num.leading_monomial()
        return (f"Character({self.kind}, n={self.n}, shift={self.frac.shift},"
                f" lead={lead})")


# --------------------------------------------------------------------------
# logarithm-ghost generators
# --------------------------------------------------------------------------

def _memoized(F: FormalGroupLaw, key, compute):
    """F._memo[key], computed on first use.  An exception is not stored,
    so a failing computation raises again on every call."""
    memo = F._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _tails(i: int, N: int, q: int, D: int):
    """Every tail (a_1, ..., a_i) with t = sum_j j a_j < N and degree
    sum_j a_j q^(i-j) <= D, as (tail, t, degree)."""
    tails = [((), 0, 0)]
    for j in range(1, i + 1):
        w = q ** (i - j)
        tails = [(tail + (a,), t + j * a, deg + w * a)
                 for tail, t, deg in tails
                 for a in range(min((N - 1 - t) // j, (D - deg) // w) + 1)]
    return tails


def _log_ghost(F: FormalGroupLaw, i: int) -> FracSeries:
    """l_i = L(w_i) over jet_vars(i), in closed form, once per law.

    With L = pi^(-s) sum_k c_k T^k and w_i = sum_j pi^j x_j^(q^(i-j)), the
    numerator's coefficient of prod_j x_j^(a_j q^(i-j)) is
        c_k C(k, b) multinomial(b; a_1, ..., a_i) pi^(sum_j j a_j),
    b = a_1 + ... + a_i, k = a_0 + b.  Only the tails with t = sum_j j a_j
    < N survive mod pi^N: they are enumerated first, then a_0 over the
    degrees k of L's nonzero coefficients c_k, up to the cap, skipping each
    k with t + v(c_k) >= N, whose term is 0 mod pi^N.  This is
    L.substitute({"T": w_i}) exactly, truncation included.
    """
    def compute():
        L = _memoized(F, "log", lambda: formal_logarithm(F))
        spec, c = F.spec, L.num.coeffs
        q, D = spec.q, F.cap
        N = min(L.num.prec, F.prec)
        top = q ** i
        vals = {k: digit_valuation(spec, d) for (k,), d in c.items()}
        # live[t]: the degrees k with t + v(c_k) < N, ascending
        live = [sorted(k for k, v in vals.items() if t + v < N)
                for t in range(N)]
        out = {}
        for tail, t, deg in _tails(i, N, q, D):
            b = sum(tail)
            # multinomial(b; a_1..a_i), over the small tail entries only
            mult, rest = 1, b
            for a in tail:
                mult *= comb(rest, a)
                rest -= a
            mono = tuple(a * q ** (i - j) for j, a in enumerate(tail, 1))
            last = b + (D - deg) // top
            ks = live[t]
            for k in ks[bisect_left(ks, b):bisect_right(ks, last)]:
                n = mult * comb(k, b)
                out[((k - b) * top,) + mono] = digit_mul_pi(
                    spec, tuple(n * x for x in c[(k,)]), t)
        return FracSeries(TruncSeries(spec, jet_vars(i), out, D, N), L.shift)
    return _memoized(F, ("log_ghost", i), compute)


def _drop_x0(num: TruncSeries) -> TruncSeries:
    """A series in x0..xn restricted to x0 = 0, as a series in x1..xn."""
    coeffs = {m[1:]: d for m, d in num.coeffs.items() if m[0] == 0}
    return TruncSeries(num.spec, kernel_vars(len(num.vars) - 1), coeffs,
                       num.cap, num.prec)


def log_ghost_generators(F: FormalGroupLaw, n: int, kind: str):
    """l_i = L(w_i), i = 0..n (jet), or Psi_i = pi^(-1) L(kappa_i),
    i = 1..n (kernel), as series over jet_vars(n) or kernel_vars(n).

    Each l_i is computed once per law, over jet_vars(i), and shared by
    every order and kind; the generators returned here are new series
    padded from it, and the shared l_i is never mutated.  The jet lattice
    is solved on the unpadded l_i (`_lattice_solve`); the padded jet
    generators are built on the first read of a solved character's series
    (`_combine`), so a crystal run builds none.  The kernel side
    restricts l_i to x0 = 0: that is a ring map keeping degrees, so
    L(w_i)|x0=0 = L(kappa_i) exactly, truncation included.  All of them
    come from one L = pi^(-s) * num and share one denominator exponent:
    s on the jet side, s + 1 on the kernel side.
    """
    if kind == "jet":
        vars_ = jet_vars(n)
        gens = [_log_ghost(F, i) for i in range(n + 1)]
        return vars_, [FracSeries(g.num.extend_vars(vars_), g.shift)
                       for g in gens]
    vars_ = kernel_vars(n)
    gens = [_log_ghost(F, i) for i in range(1, n + 1)]
    return vars_, [FracSeries(_drop_x0(g.num).extend_vars(vars_),
                              g.shift + 1) for g in gens]


# --------------------------------------------------------------------------
# solvers
# --------------------------------------------------------------------------

def _lattice_solve(spec, gens, M: int, extra_rows=()):
    """Solutions d (mod pi^M) of sum d_i * num_i = 0 mod pi^M over the
    numerators of generators sharing one denominator exponent (each
    carries at least M digits: `_solve_log` checks it).

    The numerators may have fewer variables than the widest one, as the
    l_i = L(w_i) over jet_vars(i) do: their monomials are zero-padded to
    its width, which is what `TruncSeries.extend_vars` does, so the rows
    are those of the padded generators.  A row is a monomial's stored
    digit tuples, one per numerator, and one shared zero tuple where a
    coefficient is absent; the rows are in `monomial_key` order, and
    `howell._restrict` reduces them to M.  A monomial zero mod pi^M gives
    a zero row, which the transposed sweep sees as a zero column: no
    pivot and no row operation.  `extra_rows` are additional linear
    conditions on d at the same modulus (used for the global
    extension-class constraint on jet characters)."""
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


def unit_root_row(F: FormalGroupLaw, n: int, M: int):
    """The extension-class constraint row (1, alpha, ..., alpha^n).

    A combination pi^(-1) sum d_i l_i of the log-ghost characters extends
    to a character of the full jet space of the curve exactly when its
    class in Ext vanishes; in the ordinary case Ext is a line on which the
    lateral Frobenius acts through the Frobenius eigenvalues, and the
    condition reduces to sum d_i alpha^i = 0 with alpha the unit root of
    x^2 - a_p x + p.  (The formal-group lattice alone always retains the
    slope-one pseudo-solution with ratio p/alpha, which belongs to the
    p-divisible group but not to the curve.)

    Returns None when no constraint applies: laws without curve data
    (formal-local models such as the multiplicative analog), and
    supersingular reduction.  The supersingular lattice is not exact
    without such a row: the pi-divisible "shadow" generators that
    `_solve_log` drops leave the solved vector, and so lambda and gamma,
    determined only modulo their span, not modulo pi^M (ROADMAP item 1,
    "Report only the digits the lattice determines").  alpha is computed
    once per law and M, None for supersingular reduction.
    """
    if F.curve is None:
        return None
    spec = F.spec

    def unit_root():
        ap = trace_of_frobenius(spec, *F.curve)
        return None if ap % spec.p == 0 else frobenius_unit_root(spec, ap, M)

    alpha = _memoized(F, ("unit_root", M), unit_root)
    if alpha is None:
        return None
    row = []
    power = spec.one(M)
    for _ in range(n + 1):
        row.append(power)
        power = power * alpha
    return row


def _combined_series(gens, coeffs) -> FracSeries:
    """pi^(-1) * sum(d_i * l_i) as one series over pi^(s + 1).

    The solution scalars are defined modulo pi^M; any lift differs by a
    multiple of pi^M = pi^(s + 1), which changes the combination by an
    integral additive series, so the specific lift below is a valid
    representative at the full generator precision.  The generators share
    one denominator exponent s, so each numerator is scaled by its lift at
    P and the numerators are summed.
    """
    spec = gens[0].num.spec
    P = min(g.num.prec for g in gens)
    terms = [g.num.scalar_mul(PadicScalar(spec, c.digits, P))  # exact lift
             for c, g in zip(coeffs, gens) if not c.is_zero()]
    return FracSeries(sum(terms[1:], terms[0]), gens[0].shift + 1)


def _combine(n, F: FormalGroupLaw, coeffs):
    """Delta-character pi^(-1) * sum(d_i * l_i) of order n on F from a
    solution vector.

    Its series (`_combined_series`) is built, and normalized by
    `Character`, on the first read of `.frac`; the jet generators l_i
    padded to jet_vars(n) are built on that read too, once per law and
    order (`log_ghost_generators`).  A crystal run reads only the
    solution vectors, and builds neither.
    """
    if all(c.is_zero() for c in coeffs):
        raise IncompatibleSpec("zero solution vector")

    def series():
        gens = _memoized(F, ("jet_generators", n),
                         lambda: log_ghost_generators(F, n, "jet")[1])
        return _combined_series(gens, coeffs)
    return Character("jet", n, series, lcoeffs=coeffs)


def solve_additive(law: KernelGroupLaw):
    """Basis of the additive-series module of a group law.

    Returns (characters, rank): on a kernel law, the Psi basis with rank
    n and no lattice; on a jet law, the unit-content Howell generators of
    the solution lattice, which `rank` counts.  Rechecking additivity by
    substitution is left to callers and tests.

    The module is solved at the law's own degree cap and precision (those
    of its formal group law); to solve at another D or precision, build
    the formal group law at them.  It is solved once per law and
    (kind, n); later calls return the same characters in a new list.  The
    shared characters are never mutated.  DegreeCapTooSmall is raised
    again on every call.
    """
    n = law.n
    if law.kind == "kernel":
        _check_psi_cap(law.F, n)
    chars, rank = _memoized(law.F, ("solve", law.kind, n),
                            lambda: _solve_log(law))
    return list(chars), rank


def _check_psi_cap(F: FormalGroupLaw, n: int):
    """DegreeCapTooSmall unless F's degree cap reaches q^(n-1) + 1, the
    least at which the kernel module of order n is solved."""
    least = F.spec.q ** (n - 1) + 1
    if F.cap < least:
        raise DegreeCapTooSmall(
            f"degree cap {F.cap} < q^(n-1) + 1 = {least}")


def _solve_log(law: KernelGroupLaw):
    """The additive-series module over the log-ghost generators of the law:
    the Psi_i on the kernel side, the unpadded l_i on the jet side."""
    n, F = law.n, law.F
    if law.kind == "kernel":
        _, gens = log_ghost_generators(F, n, "kernel")
    else:
        gens = [_log_ghost(F, i) for i in range(n + 1)]
    # the module of N^n is free on the integral Psi_i; delta-characters may
    # carry one more pi in the denominator, and must satisfy the global
    # extension-class constraint of the curve
    s = gens[0].shift
    M = s if law.kind == "kernel" else s + 1
    for g in gens:
        if g.num.prec < M:
            raise PrecisionExhausted(
                f"generator precision {g.num.prec} below modulus {M}")
    if law.kind == "kernel":
        chars = [Character("kernel", n, g) for g in gens]
        if any(ch.frac.shift for ch in chars):
            raise IntegralityViolation("a Psi_i is not integral")
        return chars, n
    row = unit_root_row(F, n, M)
    units, _ = unit_vectors(_lattice_solve(
        law.spec, gens, M, extra_rows=() if row is None else (row,)))
    return ([_combine(n, F, d) for d in units],
            module_rank(law.spec, units, len(gens)))


# --------------------------------------------------------------------------
# pullbacks
# --------------------------------------------------------------------------

def frobenius_coordinates(spec, vars_: tuple, cap, prec):
    """Coordinate polynomials of F on Witt vectors with the given generic
    components: returns series (F_0, ..., F_(k-2)) for k input variables."""
    comps = [TruncSeries.gen(spec, vars_, v, cap, prec) for v in vars_]
    return frobenius_W(WittVector(spec, comps)).components


def frobenius_pullback(theta: Character) -> Character:
    """phi^*: characters of J^n -> characters of J^(n+1).

    In Witt coordinates phi(x_0, ..., x_(n+1)) = (F_0(x), ..., F_n(x)), so
    the pullback substitutes x_i <- F_i."""
    if theta.kind != "jet":
        raise IncompatibleSpec("frobenius_pullback acts on jet characters")
    n = theta.n
    num = theta.frac.num
    vars_new = jet_vars(n + 1)
    comps = frobenius_coordinates(theta.spec, vars_new, num.cap, num.prec)
    mapping = {f"x{i}": comps[i] for i in range(n + 1)}
    out = num.substitute(mapping)
    return Character("jet", n + 1, FracSeries(out, theta.frac.shift))


def lateral_pullback(psi: Character) -> Character:
    """frak-f^*: characters of N^n -> characters of N^(n+1).

    The lateral Frobenius sends V(z) to V(F(z)); on tail coordinates
    (x_1, ..., x_(n+1)) it acts by x_i <- F_(i-1)."""
    if psi.kind != "kernel":
        raise IncompatibleSpec("lateral_pullback acts on kernel characters")
    n = psi.n
    num = psi.frac.num
    vars_new = kernel_vars(n + 1)
    comps = frobenius_coordinates(psi.spec, vars_new, num.cap, num.prec)
    mapping = {f"x{i}": comps[i - 1] for i in range(1, n + 1)}
    out = num.substitute(mapping)
    return Character("kernel", n + 1, FracSeries(out, psi.frac.shift))


def i_star(theta: Character) -> Character:
    """Restriction along i: N^n -> J^n (set x_0 = 0)."""
    if theta.kind != "jet":
        raise IncompatibleSpec("i_star acts on jet characters")
    return Character("kernel", theta.n,
                     FracSeries(_drop_x0(theta.frac.num), theta.frac.shift))


def u_star(psi: Character, n: int) -> Character:
    """Pullback along the projection u: N^n -> N^(psi.n), n >= psi.n."""
    if psi.kind != "kernel":
        raise IncompatibleSpec("u_star acts on kernel characters")
    if n < psi.n:
        raise IncompatibleSpec("u_star cannot lower the order")
    if n == psi.n:
        return psi
    out = psi.frac.num.extend_vars(kernel_vars(n))
    return Character("kernel", n, FracSeries(out, psi.frac.shift))


# --------------------------------------------------------------------------
# the Psi basis
# --------------------------------------------------------------------------

def psi_basis(F: FormalGroupLaw, n: int):
    """Psi_1, ..., Psi_n as characters of N^n: the kernel log-ghost
    generators Psi_i = pi^(-1) L(kappa_i).

    This is the lateral tower with no solve and no substitution.  Psi_1 =
    pi^(-1) L(pi x_1) = x_1 + O(deg 2) is the unit-linear generator of the
    order-1 kernel characters.  kappa_i = pi w_(i-1)(x_1, ..., x_i) and
    w_(i-1)(F(z)) = w_i(z) give kappa_i(F(z)) = kappa_(i+1)(z), so
    Psi_(i+1) is the lateral pullback of Psi_i, and is integral as a
    pullback of the integral Psi_1.  The linear part of Psi_i is
    pi^(i-1) x_i, so reductions mod pi are independent (leading monomials
    x_1, x_1^q, x_1^(q^2), ...)."""
    _, gens = log_ghost_generators(F, n, "kernel")
    return [Character("kernel", n, g) for g in gens]


# --------------------------------------------------------------------------
# delta-characters of the curve, splitting number, invariants
# --------------------------------------------------------------------------

def solve_delta_characters(F: FormalGroupLaw, n: int):
    """Basis of the order-n delta-character module at precision.

    Jet-side solve with the extension-class constraint; every returned
    character vanishes at the origin and carries denominator pi."""
    return solve_additive(jet_group_law(F, n))


def splitting_number(F: FormalGroupLaw) -> int:
    """Smallest order m of a nonzero delta-character; m is 1 or 2."""
    _, r1 = solve_delta_characters(F, 1)
    if r1 >= 1:
        return 1
    _, r2 = solve_delta_characters(F, 2)
    if r2 >= 1:
        return 2
    raise Inconclusive(
        "no delta-character of order <= 2 at this precision/degree")


def upsilon(theta: Character) -> PadicScalar:
    """The Lie map value Upsilon(Theta) = -A0 (minus the x0-linear part)."""
    c, shift = theta.linear_coeff("x0")
    return -c.exact_div_pi(shift) if shift else -c


def extract_lambda_gamma(theta: Character):
    """(lambda, gamma) of a solved delta-character of order m in {1, 2},
    read off its solution vector d = theta.lcoeffs, known modulo pi^M.

    theta = pi^(-1) sum_i d_i L(w_i).  On the kernel (x0 = 0), L(w_0) =
    L(0) = 0 and L(w_i) = L(kappa_i) = pi Psi_i for i >= 1, so i^* theta =
    sum_(i>=1) d_i Psi_i.  Normalizing i^* theta to Psi_m - lambda
    Psi_(m-1) divides theta by d_m, which must be a unit, and gives
    lambda = -d_1 / d_m (m = 2).  Only w_0 = x0 is linear in x0, and L(x0)
    = x0 + O(deg 2), so the x0-linear coefficient of the normalized theta
    is A0 = d_0 / (pi d_m), and gamma = pi A0 = d_0 / d_m.  Both are known
    modulo pi^M.  gamma not divisible by pi raises IntegralityViolation
    (it would falsify the structure theorems, so it is surfaced loudly
    rather than swallowed); lambda is integral because d_m is a unit."""
    m = theta.n
    if theta.kind != "jet" or m not in (1, 2):
        raise IncompatibleSpec(
            "extract_lambda_gamma expects a jet character of order 1 or 2")
    d = theta.lcoeffs
    if d is None:
        raise IncompatibleSpec("extract_lambda_gamma needs a solved character")
    if d[m].valuation() != 0:
        raise Inconclusive("top Psi coefficient is not a unit at precision")
    inv = d[m].inverse()
    lam = -(d[1] * inv) if m == 2 else None
    gamma = d[0] * inv
    if not gamma.is_zero() and gamma.valuation() < 1:
        raise IntegralityViolation("gamma is not divisible by pi")
    return lam, gamma


class RankTable:
    """Ranks of the character modules for n = 0..n_max (g = 1).

    rk_X[n]   -- rank of the order-n delta-character module
    rk_hom[n] -- rank of Hom(N^n, Ga-hat): n, the Psi basis, counted
    rk_I[n]   -- rank of the image of the boundary map, n*g - rk_X[n]
    h[n]      -- rk_I[n] - rk_I[n-1]        (n >= 1)
    l[n]      -- independent quotient ranks (n >= 1); l[n] = h[n-1] - h[n]
    """

    def __init__(self, n_max, rk_X, rk_hom, rk_I, h, l, m_low, m_up):
        self.g = 1
        self.n_max = n_max
        self.rk_X = rk_X
        self.rk_hom = rk_hom
        self.rk_I = rk_I
        self.h = h
        self.l = l
        self.m_low = m_low
        self.m_up = m_up

    def check(self):
        """Assert the rank arithmetic; raises IntegralityViolation."""
        g = self.g
        h = self.h
        for n in range(2, self.n_max + 1):
            if h[n] > h[n - 1]:
                raise IntegralityViolation("h is not weakly decreasing")
        for n in range(1, self.n_max + 1):
            prev = g if n == 1 else h[n - 1]
            if self.l[n] != prev - h[n]:
                raise IntegralityViolation(
                    f"l_{n} != h_{n-1} - h_{n} ({self.l[n]} vs "
                    f"{prev - h[n]})")
        if self.m_low != self.m_up or self.m_low > 2:
            raise IntegralityViolation("m_low = m_up <= 2 fails")
        return True

    def to_json(self):
        return {"g": self.g, "n_max": self.n_max, "rk_X": self.rk_X,
                "rk_hom": self.rk_hom, "rk_I": self.rk_I,
                "h": self.h[1:], "l": self.l[1:],
                "m_low": self.m_low, "m_up": self.m_up}

    def __repr__(self):
        return (f"RankTable(rk_X={self.rk_X}, h={self.h[1:]}, "
                f"l={self.l[1:]}, m={self.m_low})")


def rank_table(F: FormalGroupLaw, n_max: int) -> RankTable:
    """Solve the delta-character modules at n = 1..n_max and tabulate
    ranks.  The kernel modules are not solved: Hom(N^n, Ga-hat) is free on
    Psi_1..Psi_n, so rk_hom[n] = n, once the degree cap reaches
    q^(n-1) + 1 (DegreeCapTooSmall after the order-n solve otherwise).

    The l-ranks are computed independently as ranks of the quotients by
    u^* and phi^* images (in log-ghost coordinates: padding and shifting
    the solved coefficient vectors), then cross-checked against
    l_n = h_(n-1) - h_n by check().  An order n with no images (no
    characters of order n - 1) sweeps nothing, and both ranks are exact
    without a sweep: the rank of no images is 0, and the full rank is that
    of the order-n vectors alone, rk_X[n], which the order-n solve took by
    `module_rank` on the same vectors.  Every order with images is swept
    twice."""
    spec = F.spec
    g = 1
    rk_X = [0]
    sols = {0: []}
    for n in range(1, n_max + 1):
        chars, r = solve_delta_characters(F, n)
        rk_X.append(r)
        sols[n] = chars
        _check_psi_cap(F, n)
    rk_hom = list(range(n_max + 1))
    # rk_X[n] > 0 exactly when the order-n solve returned characters
    m_low = next((n for n in range(1, n_max + 1) if sols[n]), None)
    if m_low is None:
        raise Inconclusive("no delta-characters found up to n_max")
    # the l_i share L's denominator exponent s, so every solved vector is
    # known mod pi^(s + 1)
    zero = spec.scalar(0, sols[m_low][0].lcoeffs[0].prec)
    rk_I = [n * g - rk_X[n] for n in range(n_max + 1)]
    h = [g] + [rk_I[n] - rk_I[n - 1] for n in range(1, n_max + 1)]
    l = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        if not sols[n - 1]:
            l[n] = rk_X[n]
            continue
        images = []
        for ch in sols[n - 1]:
            images.append(ch.lcoeffs + [zero])          # u^* padding
            images.append([zero] + ch.lcoeffs)          # phi^* shift
        full = module_rank(spec, [ch.lcoeffs for ch in sols[n]] + images,
                           n + 1)
        sub = module_rank(spec, images, n + 1)
        l[n] = full - sub
    m_up = next((n for n in range(1, n_max + 1) if h[n] == 0), n_max + 1)
    table = RankTable(n_max, rk_X, rk_hom, rk_I, h, l, m_low, m_up)
    table.check()
    return table
