import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from howell_oracle import int_quadratic_root, newton_inverse

from arithjet.errors import IncompatibleSpec, NotDivisible, PrecisionExhausted
from arithjet.ring import (
    BaseRingSpec,
    PadicScalar,
    digit_div_pi,
    digit_mul_pi,
    digit_product,
    digit_unit_inverse,
    digit_valuation,
    unit_quadratic_root,
)

SPECS = [BaseRingSpec(2, 1), BaseRingSpec(3, 1), BaseRingSpec(5, 1),
         BaseRingSpec(5, 2)]

ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_spec_basic(spec):
    assert spec.pi(4).valuation() == 1
    assert spec.one(4).is_unit()
    assert spec.zero(4).is_zero()


def test_spec_rejects_bad_parameters():
    with pytest.raises(Exception):
        BaseRingSpec(p=4, e=1)
    with pytest.raises(Exception):
        BaseRingSpec(p=3, e=2)  # e <= p - 2 fails for a ramified spec


@pytest.mark.parametrize("spec", SPECS, ids=str)
@given(a=ints, b=ints, c=ints)
@settings(max_examples=50, deadline=None)
def test_ring_axioms(spec, a, b, c):
    x, y, z = (spec.scalar(v, 6) for v in (a, b, c))
    assert (x + y) - y == x
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("spec", SPECS, ids=str)
@given(a=ints)
@settings(max_examples=40, deadline=None)
def test_inverse(spec, a):
    x = spec.scalar(a, 6)
    if not x.is_unit():
        with pytest.raises(NotDivisible):
            x.inverse()
    else:
        assert x * x.inverse() == spec.one(6)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unramified_inverse_every_precision(p):
    # at e = 1 the inverse is the builtin modular inverse modulo p^prec;
    # at precision 0 every element is indistinguishable from 0 and no unit
    spec = BaseRingSpec(p, 1)
    inputs = [1, -1, 2, -2, p - 1, p + 1, -(p ** 9) + 1, p ** 12 - 1,
              10 ** 40 + 1, -(10 ** 40) - 1, 0, p, -p, 11 * p ** 3,
              -(10 ** 40) * p]
    for prec in range(9):
        for a in inputs:
            x = PadicScalar(spec, [a], prec)
            if prec == 0 or a % p == 0:
                with pytest.raises(NotDivisible):
                    x.inverse()
                continue
            inv = x.inverse()
            assert inv.prec == prec
            assert 0 <= inv.digits[0] < p ** prec
            assert x * inv == spec.one(prec)


RAMIFIED = [BaseRingSpec(5, 2), BaseRingSpec(5, 3), BaseRingSpec(7, 2),
            BaseRingSpec(7, 5), BaseRingSpec(11, 3)]


def _raw_digit(rng, p):
    """A digit that is negative, huge or far from reduced as often as not."""
    return rng.choice([rng.randrange(p), rng.randrange(p ** 14),
                       -rng.randrange(p ** 14), rng.randrange(10 ** 40),
                       -rng.randrange(10 ** 40), 0])


@pytest.mark.parametrize("spec", RAMIFIED, ids=str)
def test_ramified_inverse_matches_scalar_newton(spec):
    # elements with nonzero pi-digits: the digit inverse gives the digits of
    # the scalar Newton it replaced, at every precision, from raw digits too
    p = spec.p
    rng = random.Random(100 * p + spec.e)
    for prec in range(14):
        for trial in range(16):
            raw = [_raw_digit(rng, p) for _ in range(spec.e)]
            if trial % 5:
                raw[0] = raw[0] * p + rng.randrange(1, p)
            x = PadicScalar(spec, raw, prec)
            if prec == 0 or raw[0] % p == 0:
                with pytest.raises(NotDivisible):
                    x.inverse()
                continue
            inv = x.inverse()
            assert inv.prec == prec
            assert inv.digits == newton_inverse(x).digits
            assert x * inv == spec.one(prec)
            assert digit_unit_inverse(spec, raw, prec) == inv.digits


def test_ramified_inverse_makes_no_scalar_product(monkeypatch):
    # e >= 2 inverses and quadratic roots run on digit vectors only
    spec = BaseRingSpec(7, 5)
    x = PadicScalar(spec, [3, 1, 4, 1, 5], 13)
    lam, c = spec.scalar(2, 13), spec.pi(13)
    want = newton_inverse(x).digits
    root = unit_quadratic_root(lam, c).digits

    def product(self, other):
        raise AssertionError("PadicScalar.__mul__ called")

    monkeypatch.setattr(PadicScalar, "__mul__", product)
    assert x.inverse().digits == want
    assert unit_quadratic_root(lam, c).digits == root


@pytest.mark.parametrize("spec", SPECS, ids=str)
@given(a=ints, k=st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_pi_shift_roundtrip(spec, a, k):
    x = spec.scalar(a, 6)
    up = x.mul_pi(k)
    assert up.prec == x.prec + k
    assert up.exact_div_pi(k) == x


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_pi_shifts_are_integer_arithmetic_at_e1(p):
    # at e = 1, pi = p: the shifts are d * p^k and its exact inverse
    spec = BaseRingSpec(p, 1)
    for d in (1, -1, 2, -7, p - 1, -(p + 1), 10 ** 30 + 1, -(10 ** 30) - 1):
        for k in range(6):
            assert digit_mul_pi(spec, (d,), k) == (d * p ** k,)
            assert digit_div_pi(spec, (d * p ** k,), k) == (d,)
            if k and d % p:
                with pytest.raises(NotDivisible):
                    digit_div_pi(spec, (d * p ** (k - 1),), k)
    assert digit_div_pi(spec, (0,), 4) == (0,)
    with pytest.raises(ValueError):
        digit_mul_pi(spec, (1,), -1)
    with pytest.raises(ValueError):
        digit_div_pi(spec, (p,), -1)


@pytest.mark.parametrize("p,e", [(5, 2), (7, 3)])
@given(digits=st.lists(ints, min_size=3, max_size=3),
       k=st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_digit_pi_shifts_ramified(p, e, digits, k):
    # digit_mul_pi is k raw products with pi; digit_div_pi undoes it and
    # refuses exactly the vectors of valuation below k
    spec = BaseRingSpec(p, e)
    d = tuple(digits[:e])
    pi = (0, 1) + (0,) * (e - 2)
    want = d
    for _ in range(k):
        want = tuple(digit_product(spec, want, pi))
    up = digit_mul_pi(spec, d, k)
    assert up == want
    assert digit_div_pi(spec, up, k) == d
    v = digit_valuation(spec, d)
    if v is not None and v < k:
        with pytest.raises(NotDivisible):
            digit_div_pi(spec, d, k)
    else:
        assert digit_mul_pi(spec, digit_div_pi(spec, d, k), k) == d


def test_valuation():
    spec = BaseRingSpec(5, 1)
    assert spec.scalar(0, 4).valuation() is None
    assert spec.scalar(3, 4).valuation() == 0
    assert spec.scalar(50, 4).valuation() == 2
    ram = BaseRingSpec(5, 2)
    assert ram.scalar(5, 6).valuation() == 2  # p = pi^2
    assert ram.pi(6).valuation() == 1


def test_exact_div_pi_guards():
    spec = BaseRingSpec(3, 1)
    with pytest.raises(NotDivisible):
        spec.scalar(1, 4).exact_div_pi(1)
    # as for series: a zero known to exactly k digits divides to 0 mod pi^0;
    # a nonzero at k digits, or anything below k digits, cannot divide
    zero = spec.scalar(3, 1).exact_div_pi(1)
    assert zero.is_zero() and zero.prec == 0
    with pytest.raises(PrecisionExhausted):
        spec.scalar(1, 1).exact_div_pi(1)
    with pytest.raises(PrecisionExhausted):
        spec.scalar(9, 1).exact_div_pi(2)
    ram = BaseRingSpec(5, 2)
    assert ram.pi(2).mul_pi(1).reduce_prec(2).exact_div_pi(2).prec == 0
    with pytest.raises(PrecisionExhausted):
        ram.pi(2).exact_div_pi(2)


def test_reduce_prec_and_eq():
    spec = BaseRingSpec(3, 1)
    x = spec.scalar(3 ** 3 + 2, 5)
    assert x.reduce_prec(3) == spec.scalar(2, 3)
    with pytest.raises(PrecisionExhausted):
        x.reduce_prec(7)
    # at its own precision a scalar is already canonical: no rebuild
    for y in (x, BaseRingSpec(5, 2).pi(4)):
        assert y.reduce_prec(y.prec) is y


def test_cross_spec_guard():
    a = BaseRingSpec(3, 1).scalar(1, 4)
    b = BaseRingSpec(5, 1).scalar(1, 4)
    with pytest.raises(IncompatibleSpec):
        a + b


def test_to_json_shape():
    x = BaseRingSpec(5, 2).scalar(7, 4)
    j = x.to_json()
    assert set(j) == {"digits", "prec", "pi_power_basis"}
    assert j["pi_power_basis"] == 2 and j["prec"] == 4


@pytest.mark.parametrize("spec", SPECS, ids=str)
@given(a=ints, b=ints)
@settings(max_examples=30, deadline=None)
def test_unit_quadratic_root(spec, a, b):
    prec = 5
    lam = spec.scalar(a * spec.p + 1, prec + 3)
    c = spec.pi(prec + 3) * spec.scalar(b, prec + 3)
    x = unit_quadratic_root(lam.reduce_prec(prec), c.reduce_prec(prec))
    assert x.prec == prec
    assert (x * x - lam * x + c).is_zero()
    assert (x - lam).reduce_prec(1).is_zero()
    # the root mod pi^prec depends only on the inputs mod pi^prec
    assert unit_quadratic_root(lam, c).reduce_prec(prec).digits == x.digits


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_quadratic_root_on_ints(p):
    # e = 1: the root is the only x = lam (mod p) with x^2 - lam x + c = 0
    # mod p^prec, found here by search over its residue class
    spec = BaseRingSpec(p, 1)
    rng = random.Random(p)
    for prec in (1, 2, 3, 4):
        mod = p ** prec
        for _ in range(6):
            a = rng.randrange(mod) // p * p + rng.randrange(1, p)
            b = rng.randrange(mod) // p * p
            x = unit_quadratic_root(spec.scalar(a, prec), spec.scalar(b, prec))
            (r,) = x.digits
            assert x.prec == prec
            assert (r * r - a * r + b) % mod == 0 and (r - a) % p == 0
            roots = [y for y in range(a % p, mod, p)
                     if (y * y - a * y + b) % mod == 0]
            assert roots == [r]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_quadratic_root_matches_the_int_loop(p):
    # e = 1: the digit loop gives the int loop's root, or raises as it does,
    # on raw lam and c known to different precisions
    spec = BaseRingSpec(p, 1)
    rng = random.Random(300 + p)
    raised = 0
    for prec in range(10):
        for trial in range(24):
            a, b = _raw_digit(rng, p), _raw_digit(rng, p)
            if trial % 4:
                a, b = a * p + rng.randrange(1, p), b * p
            lam = PadicScalar(spec, [a], prec + rng.randrange(3))
            c = PadicScalar(spec, [b], prec + rng.randrange(3))
            try:
                want = int_quadratic_root(lam, c)
            except NotDivisible:
                raised += 1
                with pytest.raises(NotDivisible):
                    unit_quadratic_root(lam, c)
                continue
            x = unit_quadratic_root(lam, c)
            assert (x.digits, x.prec) == (want.digits, want.prec)
    assert raised > 10


def test_unit_quadratic_root_on_digits():
    # e = 2: the root is the only x = lam (mod pi) with x^2 - lam x + c = 0
    # mod pi^prec, found here by search over its residue class
    spec = BaseRingSpec(5, 2)
    p = spec.p
    rng = random.Random(52)
    for prec in (1, 2, 3, 4):
        mods = spec.moduli(prec)
        for _ in range(6):
            a = [rng.randrange(m) for m in mods]
            a[0] = a[0] // p * p + rng.randrange(1, p)
            lam = PadicScalar(spec, a, prec)
            c = spec.pi(prec) * PadicScalar(
                spec, [rng.randrange(m) for m in mods], prec)
            x = unit_quadratic_root(lam, c)
            assert x.prec == prec
            roots = []
            for y in itertools.product(*map(range, mods)):
                z = PadicScalar(spec, y, prec)
                if (y[0] - a[0]) % p == 0 and (z * z - lam * z + c).is_zero():
                    roots.append(y)
            assert roots == [x.digits]


@pytest.mark.parametrize("spec", [BaseRingSpec(3, 1), BaseRingSpec(5, 1),
                                  BaseRingSpec(5, 2)], ids=str)
def test_unit_quadratic_root_rejects_a_non_unit(spec):
    # f'(lam) = lam is no unit: NotDivisible, not a ValueError from pow
    with pytest.raises(NotDivisible):
        unit_quadratic_root(spec.pi(6), spec.pi(6))
