import itertools
import random
from operator import mod, sub

import howell_oracle
import pytest
from hypothesis import given, settings, strategies as st

from arithjet import howell
from arithjet.errors import IncompatibleSpec, PrecisionExhausted
from arithjet.howell import (
    _howell_digits,
    _howell_ints,
    howell_form,
    left_kernel_basis,
    module_rank,
    right_kernel_basis,
    unit_vectors,
)
from arithjet.ring import (BaseRingSpec, PadicScalar, digit_mul_pi,
                           digit_product)

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
    digits = [rng.randrange(spec.digit_modulus(i, M)) for i in range(spec.e)]
    return PadicScalar(spec, digits, M)


def test_howell_rank_identity():
    rows = _mat(SPEC, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    hf = howell_form(SPEC, rows, 3, M)
    assert hf.rank == 3


def test_howell_detects_pi_torsion():
    # the row 5*e1 is not in the span of e1 over Z/125 ... it is, but
    # Howell form must still expose the saturated span: x with 25x = 0
    rows = _mat(SPEC, [[25, 0]])
    hf = howell_form(SPEC, rows, 2, M)
    # rank counts unit pivots: a pi^2-torsion row contributes none
    assert hf.rank == 0
    assert hf.pivot_valuations == [2]
    assert all(d.prec == M for row in hf.rows for d in row)


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
    """`_howell_ints` computed by the digit path, as the reference."""
    spec = BaseRingSpec(p, 1)
    work, pivots = _howell_digits(spec, [[(a,) for a in r] for r in rows],
                                  ncols, M)
    return [[a for (a,) in r] for r in work], pivots


@pytest.mark.parametrize("p", [2, 3, 5])
def test_int_path_equals_digit_path(p, monkeypatch):
    # e = 1: the int path takes the digit path's pivots in the same order
    # and makes the same row operations, closures included
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
                                  BaseRingSpec(7, 3)], ids=str)
def test_module_rank_is_howell_rank_at_one_digit(spec):
    # the F_p rank mod pi counts the unit pivots of the Howell form at M = 1
    rng = random.Random(10 * spec.p + spec.e)
    pi = spec.pi(M)
    for _ in range(60):
        nrows, ncols = rng.randrange(0, 5), rng.randrange(1, 5)
        rows = [[_random_scalar(spec, rng) * pi ** rng.randrange(2)
                 for _ in range(ncols)] for _ in range(nrows)]
        assert module_rank(spec, rows, ncols) \
            == howell_form(spec, rows, ncols, 1).rank


@pytest.mark.parametrize("spec", [BaseRingSpec(5, 1), BaseRingSpec(5, 2)],
                         ids=str)
def test_module_rank_rejects_what_howell_form_rejects(spec):
    one = spec.one(M)
    cases = [
        ([[one, one], [one]], IncompatibleSpec),        # ragged
        ([[one, BaseRingSpec(7, 1).one(M)]], IncompatibleSpec),
        ([[one, spec.one(0)]], PrecisionExhausted),     # no digit mod pi
    ]
    for rows, exc in cases:
        with pytest.raises(exc):
            howell_form(spec, rows, 2, 1)
        with pytest.raises(exc):
            module_rank(spec, rows, 2)


def test_unit_vectors():
    vecs = _mat(SPEC, [[5, 25], [1, 3], [0, 125]])
    units, rest = unit_vectors(vecs)
    assert units == [vecs[1]]
    assert rest == [vecs[0], vecs[2]]


def _ring_tables(spec, M):
    """Every element of R/pi^M with its addition and multiplication
    tables, as indices; the arithmetic is PadicScalar's."""
    elems = [PadicScalar(spec, digits, M) for digits in itertools.product(
        *(range(spec.digit_modulus(i, M)) for i in range(spec.e)))]
    index = {x.digits: k for k, x in enumerate(elems)}
    add = [[index[(x + y).digits] for y in elems] for x in elems]
    mul = [[index[(x * y).digits] for y in elems] for x in elems]
    return elems, index, add, mul


@pytest.mark.parametrize("p, e", [(3, 1), (5, 2)], ids=["3-1", "5-2"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
def test_right_kernel_complete(p, e, shape):
    # brute force at M = 2: the R-span of the returned generators is the
    # whole kernel, not just a part of it that annihilates the matrix
    spec, M2 = BaseRingSpec(p, e), 2
    elems, index, add, mul = _ring_tables(spec, M2)
    zero = index[spec.zero(M2).digits]
    nrows, ncols = shape
    rng = random.Random(1000 * p + 10 * e + nrows)
    pi = spec.pi(M2)
    for _ in range(12):
        # entries of mixed valuation: units, pi-multiples and zeros
        rows = [[rng.choice(elems) * pi ** rng.randrange(M2 + 1)
                 for _ in range(ncols)] for _ in range(nrows)]
        irows = [[index[x.digits] for x in row] for row in rows]
        kernel = set()
        for vec in itertools.product(range(len(elems)), repeat=ncols):
            ok = True
            for row in irows:
                acc = zero
                for r, v in zip(row, vec):
                    acc = add[acc][mul[r][v]]
                if acc != zero:
                    ok = False
                    break
            if ok:
                kernel.add(vec)
        gens = right_kernel_basis(spec, rows, ncols, M2)
        span = {(zero,) * ncols}
        for g in gens:
            assert all(x.prec == M2 for x in g)
            ig = [index[x.digits] for x in g]
            span = {tuple(add[s][mul[r][gi]] for s, gi in zip(vec, ig))
                    for vec in span for r in range(len(elems))}
        assert span == kernel


def _span(gens, ncols, nelems, add, mul, zero):
    """The R-span of index vectors, by closing {0} under + r * g."""
    span = {(zero,) * ncols}
    for g in gens:
        span = {tuple(add[s][mul[r][gi]] for s, gi in zip(vec, g))
                for vec in span for r in range(nelems)}
    return span


@pytest.mark.parametrize("p, e", [(3, 1), (5, 2)], ids=["3-1", "5-2"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 2)],
                         ids=["2x3", "3x3", "3x2"])
def test_howell_property(p, e, shape):
    # brute force at M = 2: the Howell rows span the input's row span,
    # and for every column c the span elements supported on columns >= c
    # are exactly the span of the rows with pivot column >= c
    spec, M2 = BaseRingSpec(p, e), 2
    elems, index, add, mul = _ring_tables(spec, M2)
    zero = index[spec.zero(M2).digits]
    nrows, ncols = shape
    rng = random.Random(2000 * p + 100 * e + 10 * nrows + ncols)
    pi = spec.pi(M2)
    for _ in range(12):
        rows = [[rng.choice(elems) * pi ** rng.randrange(M2 + 1)
                 for _ in range(ncols)] for _ in range(nrows)]
        hf = howell_form(spec, rows, ncols, M2)
        assert len(hf.rows) == len(hf.pivots)
        assert all(x.prec == M2 for row in hf.rows for x in row)
        irows = [[index[x.digits] for x in row] for row in rows]
        hrows = [[index[x.digits] for x in row] for row in hf.rows]
        span = _span(irows, ncols, len(elems), add, mul, zero)
        assert _span(hrows, ncols, len(elems), add, mul, zero) == span
        for c in range(ncols):
            tail = {v for v in span if all(x == zero for x in v[:c])}
            below = [h for h, (col, _) in zip(hrows, hf.pivots) if col >= c]
            assert _span(below, ncols, len(elems), add, mul, zero) == tail


ORACLE_SPECS = pytest.mark.parametrize(
    "spec", [BaseRingSpec(5, 2), BaseRingSpec(5, 3), BaseRingSpec(7, 2)],
    ids=str)


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


def _kernel_digits(spec, rows, ncols, M):
    return [[x.digits for x in v]
            for v in right_kernel_basis(spec, rows, ncols, M)]


@ORACLE_SPECS
def test_digit_sweep_equals_the_oracle(spec, monkeypatch):
    # e >= 2: the digit sweep takes the pre-change sweep's pivots in the same
    # order and makes the same row operations: equal rows and pivots, and
    # equal kernel generators with the oracle swapped in
    positive = 0
    for rows, ncols, M in _oracle_cases(spec, 900 + 10 * spec.p + spec.e):
        got = _howell_digits(spec, rows, ncols, M)
        assert got == howell_oracle._howell_digits(spec, rows, ncols, M)
        positive += any(v for _, v in got[1])
        kernel = _kernel_digits(spec, rows, ncols, M)
        with monkeypatch.context() as mp:
            mp.setattr(howell, "_howell_digits", howell_oracle._howell_digits)
            assert kernel == _kernel_digits(spec, rows, ncols, M)
    assert positive > 300  # pivots of v > 0, which add closures


@pytest.mark.parametrize("p", [3, 5])
def test_int_path_equals_the_oracle(p):
    # e = 1: the int path against the pre-change digit sweep
    spec = BaseRingSpec(p, 1)
    for rows, ncols, M in _oracle_cases(spec, 950 + p, per_M=50):
        want = howell_oracle._howell_digits(spec, rows, ncols, M)
        got = _howell_ints(p, [[a for (a,) in r] for r in rows], ncols, M)
        assert got == ([[a for (a,) in r] for r in want[0]], want[1])


def test_oracle_catches_a_skipped_pivot_row_entry(monkeypatch):
    # a sweep that keeps an entry facing a nonzero pivot-row entry (it
    # tests the row's entry for zero, not the pivot row's) is told apart
    def skips_row_zeros(spec, row, f, prow, mods):
        return [tuple(map(mod, map(sub, a, digit_product(spec, f, b)), mods))
                if any(a) else a for a, b in zip(row, prow)]

    spec = BaseRingSpec(5, 2)
    monkeypatch.setattr(howell, "_minus_multiple", skips_row_zeros)
    assert any(_howell_digits(spec, rows, ncols, M)
               != howell_oracle._howell_digits(spec, rows, ncols, M)
               for rows, ncols, M in _oracle_cases(spec, 1000, per_M=20))
