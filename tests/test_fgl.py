import hashlib
import json

import pytest
from law_oracle import (
    additive_law,
    check_associativity,
    check_law,
    check_log_linearizes,
    multiplicative_law,
)

from arithjet import fgl
from arithjet.errors import (
    BadReduction,
    IncompatibleSpec,
    PrecisionExhausted,
)
from arithjet.fgl import (
    VARS,
    FormalGroupLaw,
    formal_group_from_weierstrass,
    formal_logarithm,
    frobenius_unit_root,
    log_denominator_exponent,
    trace_of_frobenius,
)
from arithjet.ring import BaseRingSpec
from arithjet.series import TruncSeries

SPEC3 = BaseRingSpec(3, 1)
SPEC5 = BaseRingSpec(5, 1)


@pytest.mark.parametrize("p", [3, 5])
def test_law_without_digits_is_precision_exhausted(p):
    # inverting 1 + X at precision 0 used to fail with NotDivisible
    with pytest.raises(PrecisionExhausted, match="precision >= 1"):
        multiplicative_law(BaseRingSpec(p), 11, 0)
    assert multiplicative_law(BaseRingSpec(p), 11, 1).prec == 1


def test_additive_law():
    F = additive_law(SPEC3, 8, 5)
    assert F.law.linear_coeff("X") == SPEC3.one(5)
    assert F.law.linear_coeff("Y") == SPEC3.one(5)
    check_law(F, F.law)
    assert check_associativity(F)
    assert check_log_linearizes(F, formal_logarithm(F))
    assert not check_log_linearizes(
        F, formal_logarithm(multiplicative_law(SPEC3, 8, 5)))


def test_multiplicative_law():
    F = multiplicative_law(SPEC3, 8, 5)
    # X + Y + XY
    assert F.law.coeff((1, 1)) == SPEC3.one(5)
    check_law(F, F.law)
    assert check_associativity(F)
    # the log integrates omega = 1/(1 + T), not the law
    L = formal_logarithm(F)
    # log(1+T) = T - T^2/2 + T^3/3 - ..., carried as pi^(-1) * num at D = 8:
    # the T^2 coefficient is 3 * (-1/2) = 120 mod 3^5, the T^3 one is 1
    assert L.shift == 1
    assert L.num.coeff((2,)) == SPEC3.scalar(120, 5)
    assert L.num.coeff((3,)) == SPEC3.one(5)
    assert check_log_linearizes(F, L)


@pytest.mark.parametrize("a4,a6,e", [(1, 1, 1), (2, 1, 1), (1, 1, 2)],
                         ids=["1-1", "2-1", "1-1-e2"])
def test_weierstrass_law_and_log(a4, a6, e):
    spec = BaseRingSpec(5, e)
    a4, a6 = spec.scalar(a4, 10), spec.scalar(a6, 10)
    E = formal_group_from_weierstrass(spec, a4, a6, 12)
    assert E.curve == (a4, a6)
    check_law(E, E.law)
    assert check_associativity(E, cap=8)
    L = formal_logarithm(E)
    assert check_log_linearizes(E, L)


def test_weierstrass_law_commutes():
    from arithjet.series import TruncSeries
    E = formal_group_from_weierstrass(
        SPEC3, SPEC3.scalar(1, 10), SPEC3.scalar(2, 10), 10)
    x = TruncSeries.gen(SPEC3, ("X", "Y"), "X", E.law.cap, E.law.prec)
    y = TruncSeries.gen(SPEC3, ("X", "Y"), "Y", E.law.cap, E.law.prec)
    assert E.law.substitute({"X": y, "Y": x}) == E.law


@pytest.mark.parametrize("a4,a6,ap", [
    (1, 1, -3),   # 9 points over F5
    (0, 1, 0),    # supersingular: y^2 = x^3 + 1, 6 points
    (1, 2, 2),
])
def test_trace_of_frobenius_z5(a4, a6, ap):
    assert trace_of_frobenius(
        SPEC5, SPEC5.scalar(a4, 6), SPEC5.scalar(a6, 6)) == ap


def test_trace_of_frobenius_hand_count():
    # y^2 = x^3 + x over F3: x=0 -> y=0 (1); x=1 -> 2 non-residue (0);
    # x=2 -> 8+2=10=1 -> y=1,2 (2); affine 3, plus infinity = 4 = 3+1-0
    assert trace_of_frobenius(
        SPEC3, SPEC3.scalar(1, 6), SPEC3.scalar(0, 6)) == 0


def test_trace_of_frobenius_refuses_p_2():
    spec = BaseRingSpec(2)
    with pytest.raises(BadReduction, match="singular mod 2"):
        trace_of_frobenius(spec, spec.scalar(1, 4), spec.scalar(1, 4))


def test_frobenius_unit_root():
    alpha = frobenius_unit_root(SPEC5, -3, 6)
    assert alpha.is_unit()
    # root of x^2 - a_p x + p
    ap = SPEC5.scalar(-3, 6)
    p = SPEC5.scalar(5, 6)
    assert (alpha * alpha - ap * alpha + p).is_zero()
    # alpha = a_p mod p
    assert (alpha - ap).valuation() >= 1


def test_frobenius_unit_root_rejects_supersingular():
    with pytest.raises(BadReduction):
        frobenius_unit_root(SPEC5, 0, 6)


def test_bad_reduction_message_is_fixed():
    # disc = -16(4 + 27) = -496 = 31 * -16: bad at 31, whatever the precision
    spec = BaseRingSpec(31)
    messages = set()
    for prec in (1, 4, 12):
        with pytest.raises(BadReduction) as exc:
            formal_group_from_weierstrass(
                spec, spec.scalar(1, prec), spec.scalar(1, prec), 5)
        messages.add(str(exc.value))
    assert messages == {"discriminant -16(4 a4^3 + 27 a6^2) is not a unit: "
                        "bad reduction"}


def _x_linear_part(law: TruncSeries) -> TruncSeries:
    """F_X(0, T): the coefficients of X^1 Y^k of the law, as a T-series."""
    pods = {(k,): d for (i, k), d in law.coeffs.items() if i == 1}
    return TruncSeries(law.spec, ("T",), pods, law.cap, law.prec)


@pytest.mark.parametrize("p,e,a4,a6,D", [
    (3, 1, 1, 1, 11),
    (5, 1, 1, 1, 27),
    (5, 2, 1, 1, 27),
    (5, 1, 0, 1, 27),   # a4 = 0
    (5, 1, 2, 0, 27),   # a6 = 0
    (7, 1, 1, 1, 51),
    (5, 3, 1, 1, 27),
    (7, 1, -7, -5, 51),  # negative coefficients
    (5, 1, "additive", None, 27),
    (5, 2, "multiplicative", None, 27),
    (7, 1, "multiplicative", None, 51),
])
def test_invariant_differential_is_inverse_of_law_x_part(p, e, a4, a6, D):
    # omega, given with no law, equals 1/F_X(0, T) read off the law,
    # coefficient for coefficient below degree D (the degrees the
    # logarithm reads; a Weierstrass omega agrees at D as well)
    spec = BaseRingSpec(p, e)
    if a4 == "additive":
        E = additive_law(spec, D, 10)
    elif a4 == "multiplicative":
        E = multiplicative_law(spec, D, 10)
    else:
        E = formal_group_from_weierstrass(
            spec, spec.scalar(a4, 10), spec.scalar(a6, 10), D)
    from_law = fgl._unit_inverse(_x_linear_part(E.law))
    assert (E.omega.cap, E.omega.prec) == (from_law.cap, from_law.prec)
    below = {m: d for m, d in from_law.coeffs.items() if m[0] < D}
    assert {m: d for m, d in E.omega.coeffs.items() if m[0] < D} == below
    if a6 is not None:
        assert E.omega.coeffs == from_law.coeffs


def test_weierstrass_group_makes_no_series_product(monkeypatch):
    # omega is a closed-form sum, and w(t) waits for the law
    calls = []
    mul = TruncSeries.__mul__

    def counted(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    for p, e, D in [(5, 1, 27), (5, 2, 27), (7, 1, 625)]:
        spec = BaseRingSpec(p, e)
        E = formal_group_from_weierstrass(
            spec, spec.scalar(1, 8), spec.scalar(1, 8), D)
        assert E.omega.coeffs
    assert calls == []


@pytest.mark.parametrize("which", ["a4", "a6"])
@pytest.mark.parametrize("e", [2, 3])
def test_pi_digit_coefficient_is_refused(e, which):
    # the closed forms take p-adic integers; pi = (0, 1, 0, ...)
    spec = BaseRingSpec(5, e)
    coeffs = {"a4": spec.one(6), "a6": spec.one(6)}
    coeffs[which] = coeffs[which] + spec.pi(6)
    with pytest.raises(IncompatibleSpec, match="pi-digit"):
        formal_group_from_weierstrass(spec, coeffs["a4"], coeffs["a6"], 11)
    # a pi-digit past the precision is no pi-digit
    low = {k: v.reduce_prec(1) for k, v in coeffs.items()}
    assert formal_group_from_weierstrass(spec, low["a4"], low["a6"],
                                         11).prec == 1


def test_weierstrass_log_does_not_build_law(monkeypatch):
    def no_law(*args):
        raise AssertionError("the bivariate law was built")

    monkeypatch.setattr(fgl, "_chord_tangent_law", no_law)
    E = formal_group_from_weierstrass(
        SPEC5, SPEC5.scalar(1, 10), SPEC5.scalar(1, 10), 27)
    L = formal_logarithm(E)
    # L = T + ..., carried as pi^(-2) * num at D = 27
    assert L.shift == 2 and L.num.coeff((1,)) == SPEC5.scalar(25, L.num.prec)
    with pytest.raises(AssertionError):
        E.law


def test_law_is_built_once_when_read(monkeypatch):
    calls = []
    build = fgl._chord_tangent_law

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fgl, "_chord_tangent_law", spy)
    E = formal_group_from_weierstrass(
        SPEC3, SPEC3.scalar(1, 8), SPEC3.scalar(1, 8), 9)
    assert calls == []
    assert E.law is E.law
    assert len(calls) == 1


def test_check_law_refuses_each_broken_law():
    G = additive_law(SPEC3, 6, 5)
    X = TruncSeries.gen(SPEC3, VARS, "X", 6, 5)
    Y = TruncSeries.gen(SPEC3, VARS, "Y", 6, 5)
    one = TruncSeries.const(SPEC3, VARS, SPEC3.one(5), 6, 5)
    T = TruncSeries.gen(SPEC3, ("T",), "T", 6, 5)
    refused = [
        (T, r"must be a series in \(X, Y\)"),
        ((X + Y).with_cap(5), "does not match its group's context"),
        ((X + Y).reduce_prec(4), "does not match its group's context"),
        (X + Y + one, "has a constant term"),
        (X + X + Y, r"not X \+ Y to first order"),
        (X + Y + X * X, r"does not satisfy F\(X, 0\) = X"),
        (X + Y + X * X * Y, "not commutative"),
    ]
    for F, match in refused:
        with pytest.raises(IncompatibleSpec, match=match):
            check_law(G, F)
    # a law at the wrong cap, read off a group built at another one
    with pytest.raises(IncompatibleSpec, match="context"):
        check_law(additive_law(SPEC3, 7, 5), X + Y)
    check_law(G, X + Y + X * Y)


def test_group_without_builder_has_no_law():
    omega = TruncSeries.const(SPEC3, ("T",), SPEC3.one(5), 6, 5)
    F = FormalGroupLaw(SPEC3, 6, 5, omega, name="bare")
    assert repr(F) == "FormalGroupLaw(bare, p=3, D=6, N=5)"
    with pytest.raises(IncompatibleSpec, match="bare .*law is not built"):
        F.law
    L = formal_logarithm(F)  # T, carried as pi^(-1) * 3T at D = 6
    assert (L.shift, L.num.coeffs) == (1, {(1,): (3,)})
    with pytest.raises(TypeError):
        FormalGroupLaw(SPEC3, 6, 5)  # omega is required
    with pytest.raises(TypeError):  # a caller attaches no law
        FormalGroupLaw(SPEC3, 6, 5, omega, build=lambda: omega)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_log_denominator_exponent_at_powers(p, e):
    spec = BaseRingSpec(p, e)
    for D in range(1, p):
        assert log_denominator_exponent(spec, D) == 0
    for k in range(1, 7):
        assert log_denominator_exponent(spec, p ** k - 1) == e * (k - 1)
        assert log_denominator_exponent(spec, p ** k) == e * k
        assert log_denominator_exponent(spec, p ** k + 1) == e * k


# shapes of good reduction at each (p, e, D); at p = 3 every curve with
# a4 = 0 has bad reduction.  The last three: e = 3 and negative
# coefficients.
W_SHAPES = [
    (3, 1, 1, 1, 81), (3, 1, 1, 0, 81),
    (5, 2, 1, 1, 27), (5, 2, 0, 1, 27), (5, 2, 1, 0, 27),
    (7, 1, 1, 1, 51), (7, 1, 0, 1, 51), (7, 1, 1, 0, 51),
    (5, 3, 1, 1, 27), (5, 3, 2, -1, 27), (7, 1, -7, -5, 51),
]


@pytest.mark.parametrize("p,e,a4,a6,D", W_SHAPES)
def test_weierstrass_w_is_a_fixed_point(p, e, a4, a6, D):
    # w = t^3 + a4 t w^2 + a6 w^3 to degree D + 3, checked with the
    # generic (multivariate) product over (T, U)
    spec = BaseRingSpec(p, e)
    a4, a6 = spec.scalar(a4, 10), spec.scalar(a6, 10)
    w = fgl._weierstrass_w(spec, a4, a6, D + 3, 10)
    assert (w.cap, w.prec) == (D + 3, 10)
    assert w.leading_monomial() == (3,)
    w = w.extend_vars(("T", "U"))
    t = TruncSeries.gen(spec, ("T", "U"), "T", D + 3, 10)
    assert w == t * t * t + (t * w * w).scalar_mul(a4) \
        + (w * w * w).scalar_mul(a6)


# sha256 of the invariant differential's JSON; the values were computed
# while w(t) was still found by fixed-point iteration, the last three
# while omega was still (t w' - w)/(2w) with w by Newton's iteration
PINNED_OMEGA = {
    (3, 1, 1, 1, 81):
        "152e2cd248b7b863af333d698fc488618465a67a93533407afa85871e1b0f0ef",
    (3, 1, 1, 0, 81):
        "a7dc18107f3723d6a28173b0937ee1991e9c04f919e48e691ba3b0acbad85328",
    (5, 2, 1, 1, 27):
        "4bced211451b7fd41dd2c583bd689ac2aebea01bb7e1b54f33f7731bd8342377",
    (5, 2, 0, 1, 27):
        "5146684b3cb9a758efdcaf6ac6b1937171bf1fc79e98c190c80a58c0e358029d",
    (5, 2, 1, 0, 27):
        "5544fc135391762406f8787454cf98fe159bf9c7cf9ca476615101332a1ac529",
    (7, 1, 1, 1, 51):
        "cf230ee0a634c87468c4d2e80adf4e4985ae484d1f310ff43ef8b4fa5fb2a9da",
    (7, 1, 0, 1, 51):
        "0721d404bcccb3c048db93efcb2fabcb72982a26759c4d71c86deca339f53da4",
    (7, 1, 1, 0, 51):
        "b921deec5c9ed96b705d38890832b5906e84a8870da8c6cad614f49e0d45a317",
    (5, 3, 1, 1, 27):
        "58399da28822ff16b1e04343d36d70a33f37e679037d02a8c1e74a17c43882e1",
    (5, 3, 2, -1, 27):
        "772e1729c6941c92bada58a6baa389a5392d5b59947fee928c0d23d8d58db225",
    (7, 1, -7, -5, 51):
        "aaa0726662e664b6749c91b9bdeae437cc4d222ddcd42f0423cf573404612ca7",
}


@pytest.mark.parametrize("p,e,a4,a6,D", W_SHAPES)
def test_invariant_differential_pinned(p, e, a4, a6, D):
    spec = BaseRingSpec(p, e)
    E = formal_group_from_weierstrass(
        spec, spec.scalar(a4, 10), spec.scalar(a6, 10), D)
    body = json.dumps(E.omega.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(body).hexdigest() == PINNED_OMEGA[(p, e, a4, a6, D)]


@pytest.mark.parametrize("spec,vars", [
    (SPEC3, ("T",)), (BaseRingSpec(5, 2), ("T",)), (SPEC5, VARS)])
@pytest.mark.parametrize("cap", [0, 1, 2, 7, 12])
def test_unit_inverse_is_exact(spec, vars, cap):
    x = TruncSeries.gen(spec, vars, vars[-1], cap, 6)
    one = TruncSeries.const(spec, vars, spec.one(6), cap, 6)
    u = one.scalar_mul(spec.scalar(2, 6)) + x + (x * x * x).scalar_mul(
        spec.pi(6)) + x ** 5
    if len(vars) == 2:
        u = u + x * TruncSeries.gen(spec, vars, "X", cap, 6)
    inv = fgl._unit_inverse(u)
    assert (inv.cap, inv.prec) == (cap, 6)
    assert (u * inv).coeffs == one.coeffs


# sha256 of the chord-tangent law's JSON at 8 digits; the values were
# computed while the chord slope was still a sum of products of power
# tables.  Dense, a4 = 0 and a6 = 0 shapes at e = 1, 2 and 3.
PINNED_LAW = {
    (3, 1, 1, 1, 27):
        "2be2044689e6f570ca22d84403d8f04b67961fc4571fe2b49d16244921bd0ed9",
    (3, 1, 2, 0, 18):
        "810b43de0fbea5a848e8919d99fa4750e221b3fd27bf8b2fc1d264f8f3c61b7f",
    (5, 1, 1, 1, 27):
        "14c5d1c4fd0ea1f9ed37a3e1942107711db24fc457fcee7988382e85c07c36ab",
    (5, 1, 0, 1, 27):
        "6caa2227f8f9115561babd80fdb35e9939be0334496edcd6d25bf213e9b9d43d",
    (5, 2, 2, 1, 18):
        "75c3665ffa1ebbecc12c9559a7b1e6f618a34c835c9362c4868167dae5e4a0ca",
    (5, 2, 1, 0, 11):
        "7d20f6ed534acd61980ed5c3384e9893e7f9bf91616fabd325bc60df5bd92656",
    (5, 3, 0, 1, 11):
        "0eff79dd16fcc32e6579cfb19d884eeed97c59200bd273967a317eccc17596a5",
    (5, 3, 1, 1, 5):
        "ca49fe3c98098f157351f31f7a752f3194633cb87e54a4f0464140eeca6796eb",
    (7, 1, 1, 0, 27):
        "0b0ba4faf778bf0c27759be4ad1b5008f38156c7f80279d012e7f08c2302c914",
    (7, 2, 0, 1, 18):
        "d37dd5392eed29e208c22fee5a52622d4a3b6f369d6079b0cf5c114b4190de02",
}


@pytest.mark.parametrize("p,e,a4,a6,D", sorted(PINNED_LAW))
def test_chord_tangent_law_pinned(p, e, a4, a6, D):
    spec = BaseRingSpec(p, e)
    E = formal_group_from_weierstrass(
        spec, spec.scalar(a4, 8), spec.scalar(a6, 8), D)
    body = json.dumps(E.law.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(body).hexdigest() == PINNED_LAW[(p, e, a4, a6, D)]
