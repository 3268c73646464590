import random

import pytest
from hypothesis import given, settings, strategies as st

from arithjet.errors import NotDivisible, PrecisionExhausted
from arithjet.ring import BaseRingSpec, PadicScalar
from arithjet.series import FracSeries, TruncSeries

SPEC = BaseRingSpec(3, 1)
VARS = ("x", "y")

coeff = st.integers(min_value=-40, max_value=40)


def poly(spec, coeffs):
    """Build a small series from a dict {(i, j): int}."""
    items = {m: spec.scalar(c, 4) for m, c in coeffs.items()}
    return TruncSeries.from_scalar_dict(spec, VARS, items, 6, 4)


small = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=5)


@given(a=small, b=small, c=small)
@settings(max_examples=40, deadline=None)
def test_series_ring_axioms(a, b, c):
    f, g, h = poly(SPEC, a), poly(SPEC, b), poly(SPEC, c)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_cap_truncation():
    f = TruncSeries.gen(SPEC, VARS, "x", 3, 4)
    g = f ** 2 * f ** 2  # degree 4 > cap 3
    assert g.is_zero()
    assert (f * f).max_degree() == 2


def test_substitute_composes():
    x = TruncSeries.gen(SPEC, VARS, "x", 6, 4)
    y = TruncSeries.gen(SPEC, VARS, "y", 6, 4)
    f = x * x + y.scalar_mul(SPEC.scalar(2, 4))
    g = f.substitute({"x": y, "y": x * x})
    assert g == y * y + (x * x).scalar_mul(SPEC.scalar(2, 4))


def test_substitute_requires_no_constant_term():
    x = TruncSeries.gen(SPEC, VARS, "x", 6, 4)
    one = TruncSeries.const(SPEC, VARS, SPEC.one(4), 6, 4)
    with pytest.raises(Exception):
        x.substitute({"x": one})


def test_extend_vars():
    x = TruncSeries.gen(SPEC, ("x",), "x", 6, 4)
    w = x.extend_vars(("x", "z"))
    assert w.vars == ("x", "z")
    assert w.linear_coeff("x") == SPEC.one(4)
    assert w.linear_coeff("z").is_zero()


def test_mul_pi_exact_div_pi_roundtrip():
    f = poly(SPEC, {(1, 0): 2, (0, 2): -5})
    up = f.mul_pi(2)
    assert up.prec == f.prec + 2
    assert up.exact_div_pi(2) == f


@pytest.mark.parametrize("p,e", [(3, 1), (5, 2), (7, 3)])
def test_series_pi_shifts_are_the_scalar_ops(p, e):
    # series mul_pi / exact_div_pi act as the scalar ops on each
    # coefficient, at the series precision
    spec = BaseRingSpec(p, e)
    rng = random.Random(p * 10 + e)
    prec = 7
    for _ in range(20):
        items = {}
        for m in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 3)):
            digits = [rng.randrange(-p ** 4, p ** 4) for _ in range(e)]
            items[m] = PadicScalar(spec, digits, prec)
        f = TruncSeries.from_scalar_dict(spec, VARS, items, 6, prec)
        for k in range(5):
            up = f.mul_pi(k)
            assert up.prec == prec + k
            assert set(up.coeffs) == set(f.coeffs)
            for m in f.coeffs:
                c = f.coeff(m).mul_pi(k)
                assert up.coeff(m).digits == c.digits
                assert up.coeff(m).prec == c.prec
            if k == 0:
                continue
            down = up.exact_div_pi(k)
            assert down.prec == prec
            for m in up.coeffs:
                c = up.coeff(m).exact_div_pi(k)
                assert down.coeff(m).digits == c.digits


def test_series_pi_shift_guards():
    spec = BaseRingSpec(5, 2)
    x = TruncSeries.gen(spec, VARS, "x", 6, 3)
    with pytest.raises(NotDivisible):
        x.exact_div_pi(1)
    with pytest.raises(PrecisionExhausted):
        x.mul_pi(2).reduce_prec(3).exact_div_pi(3)
    assert x.mul_pi(2).exact_div_pi(2) == x
    # the zero series has no coefficient to run out of, but its precision
    # may not fall below 0
    zero = TruncSeries.zero(spec, VARS, 6, 3)
    with pytest.raises(PrecisionExhausted):
        zero.exact_div_pi(5)
    with pytest.raises(PrecisionExhausted):
        FracSeries(zero, 5).to_integral()
    assert zero.exact_div_pi(3).is_zero() and zero.exact_div_pi(3).prec == 0
    assert zero.mul_pi(4).is_zero() and zero.mul_pi(4).prec == 7


def test_residue_coeffs():
    f = poly(SPEC, {(1, 0): 3, (0, 1): 2, (2, 0): 9})
    res = f.residue_coeffs()
    assert res == {(0, 1): 2}


def test_evaluate():
    items = {(2, 0): SPEC.scalar(1, 4), (0, 1): SPEC.scalar(1, 4)}
    f = TruncSeries.from_scalar_dict(SPEC, VARS, items, None, 4)
    val = f.evaluate({"x": SPEC.scalar(2, 4), "y": SPEC.scalar(3, 4)})
    assert val == SPEC.scalar(7, 4)


def test_frac_series_normalize_and_align():
    f = poly(SPEC, {(1, 0): 3, (0, 1): 6}).mul_pi(1)
    frac = FracSeries(f, 2)  # numerator divisible by pi^2: shift drops
    norm = frac.normalize()
    assert norm.shift == 0
    assert norm.num == poly(SPEC, {(1, 0): 1, (0, 1): 2})
    a = frac.aligned(3)
    assert a.shift == 3 and a.num.exact_div_pi(1) == f


def test_frac_series_normalize_zero_keeps_its_precision():
    # pi^(-2) * 0, known mod pi^(4 - 2), is 0 known mod pi^2, not mod pi^4
    frac = FracSeries(TruncSeries.zero(SPEC, VARS, 6, 4), 2)
    norm = frac.normalize()
    assert norm.shift == 0 and norm.num.is_zero()
    assert norm.num.prec == norm.prec == frac.prec == 2
    # a zero numerator with fewer digits than its denominator is known to
    # no digit at all
    with pytest.raises(PrecisionExhausted):
        FracSeries(TruncSeries.zero(SPEC, VARS, 6, 1), 2).normalize()


def test_frac_series_arithmetic_and_integrality():
    x = TruncSeries.gen(SPEC, VARS, "x", 6, 4)
    f = FracSeries(x, 1)           # x / pi: not integral
    assert not f.is_integral()
    g = f + f + f                  # 3x / pi = x * (3/pi): integral
    assert g.normalize().shift == 0
    assert g.to_integral() == x.reduce_prec(g.normalize().num.prec)
    diff = f - f
    assert diff.num.is_zero()


# every legal (p, e) with p in {3, 5, 7} and e in {1, 2, 3}
KRONECKER_SPECS = [BaseRingSpec(p, e) for p, e in
                   [(3, 1), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)]]


def _random_univariate(rng, spec, cap, prec):
    """Empty, single-term, sparse or dense, with digits of any sign."""
    shape = rng.choice(["empty", "single", "sparse", "dense"])
    top = 12 if cap is None else cap + 2
    if shape == "empty":
        degrees = []
    elif shape == "single":
        degrees = [rng.randint(0, top)]
    elif shape == "sparse":
        degrees = rng.sample(range(top + 1), min(3, top + 1))
    else:
        degrees = range(rng.randint(0, 2), top + 1)
    span = spec.p ** (prec + 1)
    coeffs = {(k,): [rng.randint(-span, span) for _ in range(spec.e)]
              for k in degrees}
    return TruncSeries(spec, ("T",), coeffs, cap, prec)


@pytest.mark.parametrize("spec", KRONECKER_SPECS, ids=repr)
def test_kronecker_product_matches_generic(spec):
    # the one-variable product against the packed product of the same
    # series padded to two variables, over unequal precisions and caps
    rng = random.Random(spec.p * 10 + spec.e)
    two = ("T", "U")
    for cap in [None, 0, 1, 2, 5, 13]:
        for _ in range(25):
            f = _random_univariate(rng, spec, cap, rng.randint(1, 7))
            g = _random_univariate(rng, spec, cap, rng.randint(1, 7))
            product = f * g
            generic = f.extend_vars(two) * g.extend_vars(two)
            assert (product.cap, product.prec) == (generic.cap, generic.prec)
            assert product.extend_vars(two).coeffs == generic.coeffs


def reference_product(f, g):
    """f * g as a sum of PadicScalar products over monomial pairs, each
    pair of total degree above the cap dropped: {monomial: digits}."""
    spec, cap = f.spec, f.cap
    acc = {}
    for m1 in f.coeffs:
        for m2 in g.coeffs:
            m = tuple(x + y for x, y in zip(m1, m2))
            if cap is not None and sum(m) > cap:
                continue
            term = f.coeff(m1) * g.coeff(m2)
            acc[m] = acc[m] + term if m in acc else term
    return {m: c.digits for m, c in acc.items() if not c.is_zero()}


def _random_monomial(rng, nvars, degree):
    """A random exponent tuple of the given total degree."""
    m = [0] * nvars
    for _ in range(degree):
        m[rng.randrange(nvars)] += 1
    return tuple(m)


def _random_series(rng, spec, nvars, cap, prec):
    """Empty, single-term, sparse, dense (one variable) or with a term that
    reaches the cap in one variable, with digits of any sign."""
    shape = rng.choice(["empty", "single", "sparse", "dense", "edge"])
    top = 8 if cap is None else cap
    if shape == "empty":
        monomials = []
    elif shape == "single":
        monomials = [_random_monomial(rng, nvars, rng.randint(0, top))]
    elif shape == "dense" and nvars == 1:
        monomials = [(k,) for k in range(rng.randint(0, 2), top + 1)]
    else:
        monomials = [_random_monomial(rng, nvars, rng.randint(0, top))
                     for _ in range(rng.randint(2, 8))]
        if shape == "edge":
            i = rng.randrange(nvars)
            monomials.append(tuple(top if j == i else 0
                                   for j in range(nvars)))
    span = spec.p ** (prec + 1)
    coeffs = {m: [rng.randint(-span, span) for _ in range(spec.e)]
              for m in monomials}
    return TruncSeries(spec, tuple(f"x{i}" for i in range(nvars)), coeffs,
                       cap, prec)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", KRONECKER_SPECS, ids=repr)
def test_product_matches_reference(spec, nvars):
    # the Kronecker (one variable) and packed (two or more) products
    # against the termwise sum, over caps, unequal precisions and
    # exponents at the edge of the packing base
    rng = random.Random(spec.p * 100 + spec.e * 10 + nvars)
    for cap in [None, 0, 1, 2, 5, 13]:
        for _ in range(20):
            f = _random_series(rng, spec, nvars, cap, rng.randint(1, 7))
            g = _random_series(rng, spec, nvars, cap, rng.randint(1, 7))
            product = f * g
            assert (product.cap, product.prec) == (cap, min(f.prec, g.prec))
            assert product.coeffs == reference_product(f, g)
            if f.coeffs:
                # a single-term operand on either side
                m, d = next(iter(f.coeffs.items()))
                one_term = TruncSeries(spec, f.vars, {m: d}, cap, f.prec)
                assert (one_term * g).coeffs \
                    == reference_product(one_term, g)
                assert (g * one_term).coeffs \
                    == reference_product(g, one_term)


def test_packed_product_at_the_packing_base():
    # x^cap * y^cap is truncated; x^a * x^(cap - a) lands on exponent cap,
    # the largest digit base cap + 1 holds; uncapped, the base is the sum
    # of the top total degrees plus 1
    spec = BaseRingSpec(5, 1)
    xy = ("x", "y", "z")
    for cap in [1, 2, 5, 13]:
        for a in range(cap + 1):
            f = TruncSeries(spec, xy, {(a, 0, 0): [2], (0, cap, 0): [3]},
                            cap, 4)
            g = TruncSeries(spec, xy, {(cap - a, 0, 0): [4],
                                       (0, 0, cap): [1]}, cap, 4)
            assert (f * g).coeffs == reference_product(f, g)
            assert (f * g).coeff((cap, 0, 0)) == spec.scalar(8, 4)
    f = TruncSeries(spec, xy, {(3, 0, 0): [1], (0, 0, 1): [1]}, None, 4)
    g = TruncSeries(spec, xy, {(5, 0, 0): [1], (0, 2, 4): [1]}, None, 4)
    assert (f * g).coeffs == reference_product(f, g)
    assert (f * g).coeff((8, 0, 0)) == spec.one(4)
    assert (f * g).coeff((0, 2, 5)) == spec.one(4)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduce_digits_unramified(p):
    # the e = 1 shortcut agrees with the digit_modulus formula, also for
    # negative digits and for precision 0
    spec = BaseRingSpec(p, 1)
    for prec in range(0, 6):
        for d in [-p ** 7 - 1, -p, -1, 0, 1, p - 1, p ** 3 + 2, 10 ** 9]:
            assert spec.reduce_digits([d], prec) \
                == (d % spec.digit_modulus(0, prec),)
    assert spec.reduce_digits([-1], 0) == (0,)


# exponents up to the cap 6, with gaps
up_to_cap = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
        lambda m: sum(m) <= 6),
    coeff, max_size=5)


@given(a=up_to_cap, b=small, c=small)
@settings(max_examples=30, deadline=None)
def test_substitute_matches_termwise_sum(a, b, c):
    # f(g, h) equals the sum of its terms, each reduced by the ring ops;
    # f carries more digits than the images
    f = TruncSeries.from_scalar_dict(
        SPEC, VARS, {m: SPEC.scalar(v, 6) for m, v in a.items()}, 6, 6)
    x = TruncSeries.gen(SPEC, VARS, "x", 6, 4)
    g = poly(SPEC, b) * x
    h = poly(SPEC, c) * x + x
    expected = TruncSeries.zero(SPEC, VARS, 6, 4)
    for (i, j), d in f.coeffs.items():
        term = TruncSeries.const(SPEC, VARS, SPEC.one(4), 6, 4) \
            * g ** i * h ** j
        expected = expected + term.scalar_mul(
            PadicScalar(SPEC, d, f.prec))
    result = f.substitute({"x": g, "y": h})
    assert (result.cap, result.prec) == (6, 4)
    assert result.coeffs == expected.coeffs


def test_substitute_builds_only_the_powers_it_uses(monkeypatch):
    # x^5 + x^10 + x^15 needs powers 5, 10 and 15 of the image: 2 and 3
    # build 5, then 10 = 5 + 5 and 15 = 10 + 5, five products in all
    spec = BaseRingSpec(5, 1)
    x = TruncSeries.gen(spec, ("x",), "x", 16, 4)
    f = x ** 5 + x ** 10 + x ** 15
    image = x + (x * x).int_mul(3)
    expected = image ** 5 + image ** 10 + image ** 15
    products = []
    plain = TruncSeries.__mul__

    def counting(self, other):
        products.append((self.max_degree(), other.max_degree()))
        return plain(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    result = f.substitute({"x": image})
    assert len(products) <= 5
    assert result == expected


def test_power_builds_on_known_powers(monkeypatch):
    # ** goes by `_power`: x^5 = x^2 x^3 after x^2 and x^3 = x^2 x, three
    # products; x^1 is x itself, with no product by the constant 1
    f = poly(SPEC, {(1, 0): 2, (0, 1): 1, (1, 2): -4})
    expected = {1: f}
    for n in range(2, 6):
        expected[n] = expected[n - 1] * f
    products = []
    plain = TruncSeries.__mul__

    def counting(self, other):
        products.append(1)
        return plain(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    assert f ** 5 == expected[5]
    assert len(products) == 3
    products.clear()
    assert f ** 1 == f
    assert not products
    assert f ** 0 == TruncSeries.const(SPEC, VARS, SPEC.one(f.prec), f.cap,
                                       f.prec)
    with pytest.raises(ValueError):
        f ** -1
