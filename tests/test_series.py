import random

import pytest
import substitute_oracle
from hypothesis import given, settings, strategies as st
from law_oracle import check_law
from substitute_oracle import nonzero_digits, reference_product

from arithjet import series
from arithjet.characters import (jet_group_law, kernel_group_law,
                                 solve_additive)
from arithjet.errors import IncompatibleSpec, NotDivisible, PrecisionExhausted
from arithjet.fgl import formal_group_from_weierstrass
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
PRODUCT_SPECS = [BaseRingSpec(p, e) for p, e in
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


@pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=repr)
def test_one_variable_product_matches_padded(spec):
    # the one-variable product against the product of the same series
    # padded to two variables, over unequal precisions and caps
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


def reference_sum(f, g, sign):
    """f + sign * g monomial by monomial in PadicScalar, a missing term
    being 0 at its series' precision: {monomial: digits}."""
    return nonzero_digits({
        m: f.coeff(m) + (g.coeff(m) if sign > 0 else -g.coeff(m))
        for m in set(f.coeffs) | set(g.coeffs)})


def reference_termwise(f, op):
    """op applied to each PadicScalar coefficient of f: {monomial: digits}."""
    return nonzero_digits({m: op(f.coeff(m)) for m in f.coeffs})


def check_linear_ops(rng, spec, f, g, raw):
    """+, -, negation, int_mul, scalar_mul, with_cap and the reducing
    constructor against the termwise PadicScalar computation; `raw` holds
    the raw digits f was built from."""
    cap, prec = f.cap, min(f.prec, g.prec)
    assert f.coeffs == nonzero_digits(
        {m: PadicScalar(spec, d, f.prec) for m, d in raw.items()
         if cap is None or sum(m) <= cap})
    for result, want in [(f + g, reference_sum(f, g, 1)),
                         (f - g, reference_sum(f, g, -1))]:
        assert (result.cap, result.prec) == (cap, prec)
        assert result.coeffs == want
    assert (-f).coeffs == reference_termwise(f, lambda c: -c)
    for n in [0, 1, -1, spec.p, -7 * spec.p ** 2 + 2, 10 ** 12 + 1]:
        assert f.int_mul(n).coeffs \
            == reference_termwise(f, lambda c: c.scale_int(n))
    span = spec.p ** 8
    c = PadicScalar(spec, [rng.randint(-span, span) for _ in range(spec.e)],
                    rng.randint(0, 7))
    scaled = f.scalar_mul(c)
    assert scaled.prec == min(f.prec, c.prec)
    assert scaled.coeffs == reference_termwise(f, lambda x: x * c)
    for new_cap in {cap, 0, 1, 13} | ({None} if cap is None else set()):
        cut = f.with_cap(new_cap)
        assert (cut.cap, cut.prec) == (new_cap, f.prec)
        assert cut.coeffs == {m: d for m, d in f.coeffs.items()
                              if new_cap is None or sum(m) <= new_cap}


def _random_monomial(rng, nvars, degree):
    """A random exponent tuple of the given total degree."""
    m = [0] * nvars
    for _ in range(degree):
        m[rng.randrange(nvars)] += 1
    return tuple(m)


def _random_raw(rng, spec, nvars, cap, prec):
    """Raw digits {monomial: digits} for an empty, single-term, sparse,
    dense (one variable) series or one with a term that reaches the cap in
    one variable, with digits of any sign."""
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
    return {m: [rng.randint(-span, span) for _ in range(spec.e)]
            for m in monomials}


def _random_series(rng, spec, nvars, cap, prec):
    return TruncSeries(spec, tuple(f"x{i}" for i in range(nvars)),
                       _random_raw(rng, spec, nvars, cap, prec), cap, prec)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=repr)
def test_product_matches_reference(spec, nvars):
    # the product in one to four variables, and the linear ops, against
    # the termwise sum, over caps, unequal precisions (0 among them) and
    # exponents at the edge of the packing base
    rng = random.Random(spec.p * 100 + spec.e * 10 + nvars)
    for cap in [None, 0, 1, 2, 5, 13]:
        for _ in range(20):
            prec = rng.randint(0, 7)
            raw = _random_raw(rng, spec, nvars, cap, prec)
            f = TruncSeries(spec, tuple(f"x{i}" for i in range(nvars)), raw,
                            cap, prec)
            g = _random_series(rng, spec, nvars, cap, rng.randint(0, 7))
            check_linear_ops(rng, spec, f, g, raw)
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


def _large_univariate(rng, spec, shape, top, cap, prec):
    """A series in T with 30 terms of degree at most top ("sparse"), or
    every term from degree 0..3 up to top ("dense"), with digits of either
    sign up to p^(prec + 1)."""
    if shape == "sparse":
        degrees = rng.sample(range(top + 1), 30)
    else:
        degrees = range(rng.randint(0, 3), top + 1)
    span = spec.p ** (prec + 1)
    coeffs = {(k,): [rng.randint(-span, span) for _ in range(spec.e)]
              for k in degrees}
    return TruncSeries(spec, ("T",), coeffs, cap, prec)


@pytest.mark.parametrize("spec", [BaseRingSpec(3, 1), BaseRingSpec(5, 1),
                                  BaseRingSpec(5, 2), BaseRingSpec(7, 3)],
                         ids=repr)
def test_one_variable_product_at_large_caps(spec):
    # a unit inverse, or the 2 w omega = t w' - w check, multiplies
    # one-variable series at deep caps: sparse and dense operands at caps
    # 100 to 300, and an uncapped
    # product of degree 300, against the termwise sum
    rng = random.Random(spec.p * 10 + spec.e)
    for cap, shape_f, shape_g in [(100, "dense", "dense"),
                                  (211, "sparse", "dense"),
                                  (300, "dense", "sparse"),
                                  (300, "sparse", "sparse")]:
        f = _large_univariate(rng, spec, shape_f, cap + 2, cap,
                              rng.randint(1, 7))
        g = _large_univariate(rng, spec, shape_g, cap + 2, cap,
                              rng.randint(1, 7))
        product = f * g
        assert (product.cap, product.prec) == (cap, min(f.prec, g.prec))
        assert product.coeffs == reference_product(f, g)
    f = _large_univariate(rng, spec, "dense", 150, None, 5)
    g = _large_univariate(rng, spec, "dense", 150, None, 5)
    product = f * g
    assert product.max_degree() == 300
    assert product.coeffs == reference_product(f, g)


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
    # uncapped, top is n times the top degree for f ** n, and the largest
    # sum m_v deg(image_v) for substitute: x^3 cubed, and x^3 at
    # x = x^2 + x, land on exponents 9 and 6, each the whole bound
    cube = f
    for _ in range(2):
        cube = TruncSeries(spec, xy, reference_product(cube, f), None, 4)
    assert (f ** 3).coeffs == cube.coeffs
    assert cube.coeff((9, 0, 0)) == spec.one(4)
    mapping = {"x": TruncSeries(spec, xy, {(2, 0, 0): [1], (1, 0, 0): [1]},
                                None, 4)}
    result = f.substitute(mapping)
    assert result.coeffs \
        == substitute_oracle.general_substitute(f, mapping).coeffs
    assert result.coeff((6, 0, 0)) == spec.one(4)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduce_digits_unramified(p):
    # the modulus table agrees with the formula p^ceil((prec - i)/e), at
    # e = 1 and, where p allows, e = 2 and 3; precisions are requested in
    # interleaved order across specs of one p, so no (spec, prec) entry
    # leaks into another.  PadicScalar and TruncSeries reduce by it, also
    # negative digits and at precision 0
    specs = [BaseRingSpec(p, e) for e in (1, 2, 3) if e == 1 or e <= p - 2]
    for prec in [3, 0, 5, 1, 4, 0, 2, 5, 3]:
        for spec in specs:
            e = spec.e
            mods = [p ** max(0, -(-(prec - i) // e)) for i in range(e)]
            assert [spec.digit_modulus(i, prec) for i in range(e)] == mods
            for d in [-p ** 7 - 1, -p, -1, 0, 1, p - 1, p ** 3 + 2, 10 ** 9]:
                raw = [d * (i + 1) - i for i in range(e)]
                want = tuple(x % m for x, m in zip(raw, mods))
                assert spec.reduce_digits(raw, prec) == want
                assert PadicScalar(spec, raw, prec).digits == want
                series = TruncSeries(spec, ("T",), {(1,): raw}, None, prec)
                assert series.coeffs == ({(1,): want} if any(want) else {})
    assert BaseRingSpec(p, 1).reduce_digits([-1], 0) == (0,)


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


def _count_products(monkeypatch) -> list:
    """Record each call of the packed product kernel, which every `*`,
    `**` and general `substitute` runs: a list of 1s."""
    products = []
    plain = series._Packing.product

    def counting(self, a, b):
        products.append(1)
        return plain(self, a, b)

    monkeypatch.setattr(series._Packing, "product", counting)
    return products


def test_substitute_builds_only_the_powers_it_uses(monkeypatch):
    # x^5 + x^10 + x^15 needs powers 5, 10 and 15 of the image: 2 and 3
    # build 5, then 10 = 5 + 5 and 15 = 10 + 5, five products in all
    spec = BaseRingSpec(5, 1)
    x = TruncSeries.gen(spec, ("x",), "x", 16, 4)
    f = x ** 5 + x ** 10 + x ** 15
    image = x + (x * x).int_mul(3)
    expected = image ** 5 + image ** 10 + image ** 15
    products = _count_products(monkeypatch)
    result = f.substitute({"x": image})
    assert 0 < len(products) <= 5
    assert result == expected


def test_power_builds_on_known_powers(monkeypatch):
    # ** goes by `_power`: x^5 = x^2 x^3 after x^2 and x^3 = x^2 x, three
    # products; x^1 is x itself, with no product by the constant 1
    f = poly(SPEC, {(1, 0): 2, (0, 1): 1, (1, 2): -4})
    expected = {1: f}
    for n in range(2, 6):
        expected[n] = expected[n - 1] * f
    products = _count_products(monkeypatch)
    assert f ** 5 == expected[5]
    assert len(products) == 3
    products.clear()
    assert f ** 1 == f
    assert not products
    assert f ** 0 == TruncSeries.const(SPEC, VARS, SPEC.one(f.prec), f.cap,
                                       f.prec)
    with pytest.raises(ValueError):
        f ** -1


def test_substitute_images_share_one_context():
    # images over different variable lists or caps, or over another spec
    # than the series, are refused; precisions may differ, and the result
    # takes the least
    spec = BaseRingSpec(5, 1)
    ab, abc = ("a", "b"), ("a", "b", "c")
    f = TruncSeries.gen(spec, VARS, "x", None, 4) \
        + TruncSeries.gen(spec, VARS, "y", None, 4)
    with pytest.raises(IncompatibleSpec):
        f.substitute({"x": TruncSeries.gen(spec, ab, "a", None, 4),
                      "y": TruncSeries.gen(spec, abc, "c", None, 4)})
    g = f.with_cap(6)
    with pytest.raises(IncompatibleSpec):
        g.substitute({"x": TruncSeries.gen(spec, ab, "a", 4, 4),
                      "y": TruncSeries.gen(spec, ab, "b", 6, 4)})
    ramified = BaseRingSpec(5, 2)
    with pytest.raises(IncompatibleSpec):
        g.substitute({"x": TruncSeries.gen(spec, ab, "a", 6, 4),
                      "y": TruncSeries.gen(ramified, ab, "b", 6, 4)})
    with pytest.raises(IncompatibleSpec):
        g.substitute({"x": TruncSeries.gen(ramified, ab, "a", 6, 4),
                      "y": TruncSeries.gen(ramified, ab, "b", 6, 4)})
    a = TruncSeries.gen(spec, ab, "a", 6, 3)
    b = TruncSeries.gen(spec, ab, "b", 6, 4)
    result = g.substitute({"x": a, "y": b})
    assert (result.vars, result.cap, result.prec) == (ab, 6, 3)
    assert result == a + b.reduce_prec(3)


ORACLE_SPECS = [BaseRingSpec(3, 1), BaseRingSpec(5, 1), BaseRingSpec(5, 2)]
# x, y, z map into a context with an extra variable t; z is left unmapped
TARGET = ("x", "y", "z", "t")
# or into the variables of a kernel group law of order 2
LAW_TARGET = ("x1", "x2", "y1", "y2")


def _oracle_mappings(spec, cap, prec):
    """Substitutions of each kind the relabeling serves, then mappings
    with images of two or more terms, which take the general loop: one
    such image, every image, images in the variables of a group law,
    images at lower precisions and, uncapped, images with a constant
    term."""
    def term(m, c, at=prec, target=TARGET):
        return TruncSeries.from_scalar_dict(spec, target, {m: c}, cap, at)

    def gen(v, at=prec, target=TARGET):
        return TruncSeries.gen(spec, target, v, cap, at)

    pi = PadicScalar(spec, [spec.p] if spec.e == 1 else [0, 1], prec)
    unit = PadicScalar(spec, [2] + [1] * (spec.e - 1), prec)
    zero = TruncSeries.zero(spec, TARGET, cap, prec)
    mappings = [
        {"x": zero},
        {"x": gen("y"), "y": gen("x")},
        {"x": gen("t"), "y": gen("t")},
        {"x": term((0, 0, 0, 2), unit), "y": term((0, 3, 0, 0), pi ** 2)},
        {"x": term((1, 0, 0, 0), pi), "y": zero,
         "z": term((1, 0, 0, 1), -unit)},
        {"x": gen("y", prec - 1), "y": term((0, 0, 2, 1), pi, prec - 2)},
    ]
    if cap is None:
        mappings.append({"x": term((0, 0, 0, 0), unit),
                         "y": term((0, 0, 0, 0), pi),
                         "z": term((0, 0, 0, 2), unit)})
    mixed = gen("t") + term((2, 0, 0, 0), unit)
    mappings.append({"x": mixed, "y": term((0, 1, 0, 0), pi)})
    mappings.append({"x": mixed, "y": gen("x") + term((0, 1, 1, 0), pi),
                     "z": term((0, 0, 1, 0), unit)
                     + term((1, 1, 0, 1), -unit)})
    x1, x2, y1, y2 = (gen(v, target=LAW_TARGET) for v in LAW_TARGET)
    mappings.append({
        "x": x1 + y1 + term((1, 0, 1, 0), unit, target=LAW_TARGET),
        "y": x2 + y2 + term((2, 0, 1, 0), pi, target=LAW_TARGET),
        "z": x1 * y2 - x2 * y1})
    mappings.append({
        "x": gen("t", prec - 1) + term((2, 0, 0, 0), unit, prec - 1),
        "y": gen("x", prec - 2) + term((0, 0, 1, 1), pi, prec - 2)})
    if cap is None:
        mappings.append({
            "x": term((0, 0, 0, 0), unit) + gen("t"),
            "y": term((0, 0, 0, 0), pi) + term((0, 1, 0, 1), unit),
            "z": gen("z", prec - 1) + term((0, 0, 0, 0), -unit)})
    return mappings


@pytest.mark.parametrize("cap", [5, None])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=repr)
def test_substitute_matches_the_general_loop(spec, cap):
    # every kind of image on random series, against the general loop kept
    # in tests/substitute_oracle.py: zero images, generators, swaps,
    # images sharing a target, c x^k with c a unit or of positive
    # valuation (high powers of pi vanish mod pi^prec), lower image
    # precisions, constants on polynomials, and images of several terms,
    # into the variables of a group law among others; terms of degree up
    # to the cap push past it
    rng = random.Random(f"{spec.p},{spec.e},{cap}")
    prec = 6
    for _ in range(4):
        items = {}
        for _ in range(25):
            m = tuple(rng.randrange(4) for _ in range(3))
            if cap is None or sum(m) <= cap:
                digits = [rng.randrange(-spec.p ** 7, spec.p ** 7)
                          for _ in range(spec.e)]
                items[m] = PadicScalar(spec, digits, prec + 1)
        f = TruncSeries.from_scalar_dict(spec, ("x", "y", "z"), items, cap,
                                         prec + 1)
        for mapping in _oracle_mappings(spec, cap, prec):
            got = f.substitute(mapping)
            want = substitute_oracle.general_substitute(f, mapping)
            assert (got.vars, got.cap, got.prec) == \
                (want.vars, want.cap, want.prec)
            assert got.coeffs == want.coeffs


@pytest.mark.parametrize("p,e,D", [(3, 1, 9), (5, 2, 7)])
def test_one_term_images_make_no_series_product(monkeypatch, p, e, D):
    # validating a chord-tangent law substitutes 0 and the swapped
    # generators, and check_additive's px and py sides substitute
    # generators: each relabels monomials, with no series product, while
    # its left side substitutes the law's components
    spec = BaseRingSpec(p, e)
    E = formal_group_from_weierstrass(spec, spec.scalar(1, 10),
                                      spec.scalar(1, 10), D)
    chord_tangent = E.law
    chars = []
    for law in (kernel_group_law(E, 2), jet_group_law(E, 1)):
        law.laws  # built on first read, by substitutions of their own
        for ch in solve_additive(law)[0]:
            ch.frac  # likewise
            chars.append((law, ch))
    products = _count_products(monkeypatch)
    check_law(E, chord_tangent)
    assert not products
    calls = []
    plain_substitute = TruncSeries.substitute

    def recording(self, mapping):
        before = len(products)
        out = plain_substitute(self, mapping)
        terms = max(len(s.coeffs) for s in mapping.values())
        calls.append((terms <= 1, len(products) - before))
        return out

    monkeypatch.setattr(TruncSeries, "substitute", recording)
    for law, ch in chars:
        calls.clear()
        assert ch.check_additive(law)
        assert [one_term for one_term, _ in calls] == [False, True, True]
        assert calls[0][1] > 0 and calls[1][1] == calls[2][1] == 0


@pytest.mark.parametrize("spec", [SPEC, BaseRingSpec(5, 2)])
def test_reduce_prec_at_its_own_precision_is_the_series(spec):
    x = TruncSeries.gen(spec, VARS, "x", 6, 4)
    f = (x + x * x).int_mul(spec.p + 2)
    assert f.reduce_prec(4) is f
    g = f.reduce_prec(2)
    assert g.prec == 2 and g is not f and g.reduce_prec(2) is g
    assert g.coeffs == TruncSeries(spec, VARS, f.coeffs, 6, 2).coeffs


def test_series_refusals():
    x = TruncSeries.gen(SPEC, VARS, "x", 6, 4)
    t = TruncSeries.gen(SPEC, ("t",), "t", 6, 4)
    with pytest.raises(IncompatibleSpec, match="series context mismatch"):
        x + x.with_cap(5)
    with pytest.raises(IncompatibleSpec, match="series context mismatch"):
        x * TruncSeries.gen(SPEC, ("x", "z"), "x", 6, 4)
    with pytest.raises(PrecisionExhausted, match="cannot raise series prec"):
        x.reduce_prec(5)
    with pytest.raises(IncompatibleSpec, match="cannot remove a truncation"):
        x.with_cap(None)
    with pytest.raises(IncompatibleSpec, match="unknown variable 'z'"):
        x.substitute({"z": t})
    with pytest.raises(IncompatibleSpec,
                       match="unmapped variable 'y' missing from target"):
        x.substitute({"x": t})


def test_evaluate_refusals():
    f = poly(SPEC, {(2, 0): 1, (0, 1): 1})
    with pytest.raises(IncompatibleSpec, match="requires an exact"):
        f.evaluate({"x": SPEC.scalar(2, 4), "y": SPEC.scalar(3, 4)})
    exact = TruncSeries(SPEC, VARS, f.coeffs, None, 4)
    with pytest.raises(IncompatibleSpec, match="missing value for 'y'"):
        exact.evaluate({"x": SPEC.scalar(2, 4)})


def test_series_repr():
    assert repr(TruncSeries.zero(SPEC, VARS, 6, 4)) == "0 (vars=x,y, prec=4)"
    f = poly(SPEC, {(0, 0): 1, (1, 0): 2, (1, 2): -1})
    assert repr(f) == "((1,))*1 + ((2,))*x^1 + ((80,))*x^1*y^2 (mod pi^4)"
    g = poly(SPEC, {(k, 0): 1 for k in range(1, 7)}
             | {(0, k): 1 for k in range(1, 7)})
    # the first 8 terms, from the leading one up
    assert repr(g) == " + ".join(
        f"((1,))*{v}^{k}" for k in range(1, 5) for v in VARS) \
        + " + ... (12 terms) (mod pi^4)"


def test_frac_series_align_and_integrality_edges():
    x = TruncSeries.gen(SPEC, VARS, "x", 6, 4)
    with pytest.raises(ValueError, match="cannot lower the denominator"):
        FracSeries(x, 2).aligned(1)
    # pi x / pi = x: integral though its shift is 1
    assert FracSeries(x.mul_pi(1), 1).is_integral()
    assert FracSeries(x, 0).is_integral()
