import itertools
import random

import howell_oracle
import pytest
from hypothesis import given, settings, strategies as st

from arithjet import howell
from arithjet.errors import IncompatibleSpec, PrecisionExhausted
from arithjet.howell import (
    _howell_ints,
    left_kernel_basis,
    module_rank,
    right_kernel_basis,
    unit_vectors,
)
from arithjet.ring import BaseRingSpec, PadicScalar, digit_mul_pi

SPEC = BaseRingSpec(5, 1)
M = 3
SPECS = pytest.mark.parametrize(
    "spec", [BaseRingSpec(5, 1), BaseRingSpec(5, 2)], ids=["5-1", "5-2"])


def _mat(spec, rows):
    """Integer entries as scalars of R/pi^M."""
    return [[spec.scalar(x, M) for x in row] for row in rows]


def _annihilates(rows, vec):
    """rows . vec == 0 in (R/pi^M)^len(rows)."""
    for row in rows:
        acc = vec[0].spec.zero(M)
        for r, v in zip(row, vec):
            acc = acc + r * v
        if not acc.is_zero():
            return False
    return True


def _random_scalar(spec, rng):
    digits = [rng.randrange(spec.moduli(M)[i]) for i in range(spec.e)]
    return PadicScalar(spec, digits, M)


def test_howell_rank_identity():
    rows = _mat(SPEC, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert module_rank(SPEC, rows, 3) == 3
    assert _howell_ints(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, M)[1] \
        == [(0, 0), (1, 0), (2, 0)]
    assert right_kernel_basis(SPEC, rows, 3, M) == []


def test_howell_detects_pi_torsion():
    # the row pi^2 e_1 has a pivot of valuation 2 and no unit content; its
    # right kernel is pi R x R, the pi-multiples in the first coordinate
    assert _howell_ints(5, [[25, 0]], 2, M)[1] == [(0, 2)]
    for spec in (BaseRingSpec(5, 1), BaseRingSpec(5, 2), BaseRingSpec(7, 5)):
        pi, zero = spec.pi(M), spec.zero(M)
        rows = [[pi * pi, zero]]
        assert module_rank(spec, rows, 2) == 0
        kernel = right_kernel_basis(spec, rows, 2, M)
        assert all(x.prec == M for vec in kernel for x in vec)
        assert all(not v[0].is_unit() for v in kernel)
        assert any(v[0] == pi and v[1].is_zero() for v in kernel)
        assert any(v[0].is_zero() and v[1] == spec.one(M) for v in kernel)


def test_right_kernel_annihilates():
    rows = _mat(SPEC, [[1, 2, 3], [0, 5, 10]])
    basis = right_kernel_basis(SPEC, rows, 3, M)
    assert basis
    for vec in basis:
        assert all(isinstance(v, PadicScalar) and v.prec == M for v in vec)
        assert _annihilates(rows, vec)


def test_left_kernel_annihilates():
    rows = _mat(SPEC, [[1, 0], [5, 0], [0, 25]])
    basis = left_kernel_basis(SPEC, rows, 2, M)
    assert basis
    cols = [[rows[i][j] for i in range(3)] for j in range(2)]
    for vec in basis:
        assert _annihilates(cols, vec)


@SPECS
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_right_kernel_random(spec, seed):
    rng = random.Random(seed)
    rows = [[_random_scalar(spec, rng) for _ in range(4)] for _ in range(3)]
    for vec in right_kernel_basis(spec, rows, 4, M):
        assert _annihilates(rows, vec)


@SPECS
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_right_kernel_takes_digit_rows(spec, seed):
    # the lattice solve hands over stored digit tuples known to more than M
    # digits, which `_entries` reduces to M, as it does raw (negative,
    # unreduced) tuples; with scalar entries mixed in, the kernel is that
    # of the scalar rows.  Entries of every valuation up to M give zeros
    # mod pi^M with nonzero lifts, and pivots of v > 0: there an entry
    # left unreduced would change the sweep
    rng = random.Random(seed)
    pi = spec.pi(M)
    rows = [[_random_scalar(spec, rng) * pi ** rng.randrange(M + 1)
             for _ in range(4)] for _ in range(3)]
    mods = spec.moduli(M)

    def raw(x):
        return tuple(d + rng.randrange(-10 ** 30, 10 ** 30) * m
                     for d, m in zip(x.digits, mods))

    mixed = [[PadicScalar(spec, raw(x), M + 3).digits for x in rows[0]],
             [raw(x) for x in rows[1]], rows[2]]
    want = right_kernel_basis(spec, rows, 4, M)
    got = right_kernel_basis(spec, mixed, 4, M)
    assert [[x.digits for x in v] for v in got] \
        == [[x.digits for x in v] for v in want]


@SPECS
def test_module_rank(spec):
    def rank(rows):
        return module_rank(spec, _mat(spec, rows), 2)

    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 0], [2, 0]]) == 1
    assert rank([[5, 0]]) == 0  # no unit content mod pi
    assert module_rank(spec, [], 2) == 0
    if spec.e == 2:
        pi, one = spec.pi(M), spec.one(M)
        zero = spec.zero(M)
        assert module_rank(spec, [[pi, zero]], 2) == 0
        assert module_rank(spec, [[one + pi, pi]], 2) == 1


def _random_int_rows(rng, p, M, nrows, ncols):
    """Ints mod p^M of mixed valuation: units, p-multiples and zeros, with
    now and then a zero row, so that pivots of v > 0 add closures."""
    mod = p ** M
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.15:
            rows.append([0] * ncols)
            continue
        rows.append([rng.randrange(mod) * p ** rng.randrange(M + 1) % mod
                     for _ in range(ncols)])
    return rows




def _digits_instead(p, rows, ncols, M):
    """`_howell_ints` computed by the reference digit sweep."""
    spec = BaseRingSpec(p, 1)
    work, pivots = howell_oracle._howell_digits(
        spec, [[(a,) for a in r] for r in rows], ncols, M)
    return [[a for (a,) in r] for r in work], pivots


@pytest.mark.parametrize("p", [2, 3, 5])
def test_int_path_equals_digit_path(p, monkeypatch):
    # e = 1: the int sweep takes the reference digit sweep's pivots in the
    # same order and makes the same row operations, closures included
    spec = BaseRingSpec(p, 1)
    rng = random.Random(700 + p)
    positive = 0
    for trial in range(150):
        M = 1 + trial % 4
        nrows, ncols = rng.randrange(0, 5), rng.randrange(1, 5)
        rows = ([[0] * ncols for _ in range(nrows)] if trial % 10 == 0
                else _random_int_rows(rng, p, M, nrows, ncols))
        want = _digits_instead(p, rows, ncols, M)
        got = _howell_ints(p, rows, ncols, M)
        assert got == want
        positive += any(v for _, v in got[1])
        scalars = [[PadicScalar(spec, (a,), M) for a in r] for r in rows]
        kernel = right_kernel_basis(spec, scalars, ncols, M)
        with monkeypatch.context() as mp:
            mp.setattr(howell, "_howell_ints", _digits_instead)
            assert [[x.digits for x in v] for v in kernel] == [
                [x.digits for x in v]
                for v in right_kernel_basis(spec, scalars, ncols, M)]
    assert positive > 10  # pivots of v > 0, which add closures


@pytest.mark.parametrize("spec", [BaseRingSpec(5, 1), BaseRingSpec(5, 2),
                                  BaseRingSpec(5, 3)], ids=str)
def test_kernel_entries_are_canonical(spec):
    # the kernel digits are reduced once and wrapped with no second
    # reduction: each entry is canonical at M, of length e, and no
    # returned vector is zero
    rng = random.Random(900 + 10 * spec.p + spec.e)
    kept = 0
    for M in range(1, 6):
        pi = spec.pi(M)
        for _ in range(30):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [[PadicScalar(spec, [rng.randrange(spec.p ** 3)
                                        for _ in range(spec.e)], M)
                     * pi ** rng.randrange(3) for _ in range(ncols)]
                    for _ in range(nrows)]
            for vec in (left_kernel_basis(spec, rows, ncols, M)
                        + right_kernel_basis(spec, rows, ncols, M)):
                assert any(not x.is_zero() for x in vec)
                for x in vec:
                    assert type(x.digits) is tuple and len(x.digits) == spec.e
                    assert x.prec == M
                    assert x.digits == spec.reduce_digits(x.digits, M)
                kept += 1
    assert kept > 100


@pytest.mark.parametrize("spec", [BaseRingSpec(5, 1), BaseRingSpec(5, 2),
                                  BaseRingSpec(7, 3)], ids=str)
def test_module_rank_is_howell_rank_at_one_digit(spec):
    # the F_p rank mod pi counts the unit pivots of the reference Howell
    # form at M = 1
    rng = random.Random(10 * spec.p + spec.e)
    pi = spec.pi(M)
    for _ in range(60):
        nrows, ncols = rng.randrange(0, 5), rng.randrange(1, 5)
        rows = [[_random_scalar(spec, rng) * pi ** rng.randrange(2)
                 for _ in range(ncols)] for _ in range(nrows)]
        _, pivots = howell_oracle._howell_digits(
            spec, [[spec.reduce_digits(x.digits, 1) for x in row]
                   for row in rows], ncols, 1)
        assert module_rank(spec, rows, ncols) \
            == sum(1 for _, v in pivots if v == 0)


@pytest.mark.parametrize("spec", [BaseRingSpec(5, 1), BaseRingSpec(5, 2)],
                         ids=str)
def test_module_rank_rejects_what_the_kernel_rejects(spec):
    one = spec.one(M)
    cases = [
        ([[one, one], [one]], IncompatibleSpec),        # ragged
        ([[one, BaseRingSpec(7, 1).one(M)]], IncompatibleSpec),
        ([[one, spec.one(0)]], PrecisionExhausted),     # no digit mod pi
    ]
    for rows, exc in cases:
        with pytest.raises(exc):
            left_kernel_basis(spec, rows, 2, 1)
        with pytest.raises(exc):
            module_rank(spec, rows, 2)
    with pytest.raises(IncompatibleSpec, match="modulus exponent"):
        right_kernel_basis(spec, [[one, one]], 2, 0)


@pytest.mark.parametrize("e, bad", [
    (1, [(1, 7)]), (1, [()]),
    (2, [(1,)]), (2, [(1, 0, 0)]),
], ids=str)
def test_digit_tuples_of_the_wrong_length_are_refused(e, bad):
    # a tuple entry must hold exactly e digits: a short one would shift
    # every later column of the restricted rows, a long one lose a digit
    spec = BaseRingSpec(5, e)
    one = spec.one(3).digits
    for x in bad:
        for row in ([x, one], [one, x]):
            with pytest.raises(IncompatibleSpec, match="digit tuple"):
                right_kernel_basis(spec, [row], 2, 3)
            with pytest.raises(IncompatibleSpec, match="digit tuple"):
                module_rank(spec, [row], 2)


def test_unit_vectors():
    vecs = _mat(SPEC, [[5, 25], [1, 3], [0, 125]])
    units, rest = unit_vectors(vecs)
    assert units == [vecs[1]]
    assert rest == [vecs[0], vecs[2]]


def _elements(spec, M):
    """Every element of R/pi^M."""
    return [PadicScalar(spec, digits, M) for digits in
            itertools.product(*(range(m) for m in spec.moduli(M)))]


def _enumerated_kernel(spec, rows, ncols, M):
    """{b : rows . b = 0 in (R/pi^M)^len(rows)}, as tuples of canonical
    digit tuples, by trying every b."""
    elems = _elements(spec, M)
    zero = spec.zero(M).digits
    # products[i][c][k]: the raw digits of rows[i][c] * elems[k]
    products = [[[(r * x).digits for x in elems] for r in row]
                for row in rows]
    kernel = set()
    for idx in itertools.product(range(len(elems)), repeat=ncols):
        if all(spec.reduce_digits(
                [sum(t) for t in zip(*(pr[c][k] for c, k in enumerate(idx)))],
                M) == zero for pr in products):
            kernel.add(tuple(elems[k].digits for k in idx))
    return kernel


def _span(spec, gens, ncols, M):
    """The R-span of vectors of scalars at M: as a group, R is spanned by
    1, pi, ..., pi^(e-1), so a search from 0 adding pi^j g reaches it."""
    steps = [tuple(spec.reduce_digits(digit_mul_pi(spec, x.digits, j), M)
                   for x in g) for g in gens for j in range(spec.e)]
    zero = (spec.zero(M).digits,) * ncols
    span, todo = {zero}, [zero]
    while todo:
        s = todo.pop()
        for h in steps:
            t = tuple(spec.reduce_digits([a + b for a, b in zip(x, y)], M)
                      for x, y in zip(s, h))
            if t not in span:
                span.add(t)
                todo.append(t)
    return span


def _check_kernel_is_complete(spec, M, shape, rng, trials):
    """Brute force: on `trials` matrices of entries of mixed valuation
    (units, pi-multiples and zeros), the R-span of the nonzero generators
    that `right_kernel_basis` returns, canonical at M, is the whole
    kernel, not just a part of it that annihilates the matrix."""
    elems = _elements(spec, M)
    nrows, ncols = shape
    pi = spec.pi(M)
    for _ in range(trials):
        rows = [[rng.choice(elems) * pi ** rng.randrange(M + 1)
                 for _ in range(ncols)] for _ in range(nrows)]
        gens = right_kernel_basis(spec, rows, ncols, M)
        for g in gens:
            assert all(x.prec == M and x.digits == spec.reduce_digits(
                x.digits, M) for x in g)
            assert not all(x.is_zero() for x in g)
        assert _span(spec, gens, ncols, M) \
            == _enumerated_kernel(spec, rows, ncols, M)


@pytest.mark.parametrize("p, e", [(3, 1), (5, 2)], ids=["3-1", "5-2"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
def test_right_kernel_complete(p, e, shape):
    spec = BaseRingSpec(p, e)
    _check_kernel_is_complete(spec, 2, shape, random.Random(
        1000 * p + 10 * e + shape[0]), 12)


@pytest.mark.parametrize("p, e", [(3, 1), (5, 2), (5, 3), (7, 5)],
                         ids=["3-1", "5-2", "5-3", "7-5"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 2)],
                         ids=["2x3", "3x3", "3x2"])
def test_howell_property(p, e, shape):
    # the restricted sweep at every M <= 3 whose kernel can be enumerated:
    # at e >= 2 with M not a multiple of e, the digits have different
    # moduli and the scaling embeds the smaller ones, and at M < e the
    # digits t >= M vanish
    spec = BaseRingSpec(p, e)
    rng = random.Random(2000 * p + 100 * e + 10 * shape[0] + shape[1])
    tried = 0
    for M2 in range(1, 4):
        if len(_elements(spec, M2)) ** shape[1] <= 20000:
            _check_kernel_is_complete(spec, M2, shape, rng, 6)
            tried += 1
    assert tried >= 1


ORACLE_SPECS = pytest.mark.parametrize(
    "spec", [BaseRingSpec(5, 2), BaseRingSpec(5, 3), BaseRingSpec(7, 2),
             BaseRingSpec(7, 5)], ids=str)


def _oracle_cases(spec, seed, per_M=200):
    """Seeded (rows, ncols, M), M = 1..6: canonical digit tuples at M of
    mixed valuation (zeros, and pi^k, k <= M, times a random digit vector),
    with now and then a zero row or a zero column, so that pivots of v > 0
    add closures."""
    rng = random.Random(seed)
    zero = (0,) * spec.e
    for M in range(1, 7):
        for _ in range(per_M):
            nrows, ncols = rng.randrange(0, 5), rng.randrange(1, 5)
            zero_col = rng.randrange(2 * ncols)
            rows = []
            for _ in range(nrows):
                if rng.random() < 0.15:
                    rows.append([zero] * ncols)
                    continue
                rows.append([
                    zero if c == zero_col or rng.random() < 0.3
                    else spec.reduce_digits(digit_mul_pi(
                        spec, tuple(rng.randrange(-10 ** 6, 10 ** 6)
                                    for _ in range(spec.e)),
                        rng.randrange(M + 1)), M)
                    for c in range(ncols)])
            yield rows, ncols, M


def _oracle_kernel(spec, rows, ncols, M):
    """(generators, pivots) of the right kernel of digit rows by the
    reference digit sweep on the transposed [rows^T | I]."""
    nrows = len(rows)
    one, zero = spec.one(M).digits, (0,) * spec.e
    aug = [[rows[i][c] for i in range(nrows)]
           + [one if j == c else zero for j in range(ncols)]
           for c in range(ncols)]
    work, pivots = howell_oracle._howell_digits(spec, aug, nrows + ncols, M)
    return [row[nrows:] for row in work
            if not howell_oracle._nonzero(row[:nrows])], pivots


def _span_size(spec, vectors, ncols, M):
    """The size of the R-span of vectors of digit tuples at M: the product
    of p^(M - v) over the pivots of their reference Howell form."""
    _, pivots = howell_oracle._howell_digits(
        spec, [list(v) for v in vectors], ncols, M)
    return spec.p ** sum(M - v for _, v in pivots)


@ORACLE_SPECS
def test_digit_sweep_equals_the_oracle(spec):
    # e >= 2: the restricted int sweep and the reference digit sweep take
    # other pivots, so their kernel generators differ, but they span the
    # same R-module: the spans of the two sets and of their union have one
    # size
    positive = 0
    for rows, ncols, M in _oracle_cases(spec, 900 + 10 * spec.p + spec.e):
        want, pivots = _oracle_kernel(spec, rows, ncols, M)
        got = [tuple(x.digits for x in v)
               for v in right_kernel_basis(spec, rows, ncols, M)]
        size = _span_size(spec, want, ncols, M)
        assert _span_size(spec, got, ncols, M) == size
        assert _span_size(spec, got + want, ncols, M) == size
        positive += any(v for _, v in pivots)
    assert positive > 300  # pivots of v > 0, which add closures


@pytest.mark.parametrize("p", [3, 5])
def test_int_path_equals_the_oracle(p):
    # e = 1: the int sweep against the reference digit sweep
    spec = BaseRingSpec(p, 1)
    for rows, ncols, M in _oracle_cases(spec, 950 + p, per_M=50):
        want = howell_oracle._howell_digits(spec, rows, ncols, M)
        got = _howell_ints(p, [[a for (a,) in r] for r in rows], ncols, M)
        assert got == ([[a for (a,) in r] for r in want[0]], want[1])
