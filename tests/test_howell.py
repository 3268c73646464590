import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from arithjet.howell import (
    howell_form,
    left_kernel_basis,
    module_rank,
    right_kernel_basis,
    unit_vectors,
)
from arithjet.ring import BaseRingSpec, PadicScalar

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
    # the lattice solve hands over digit tuples already reduced to M, with
    # scalar entries mixed in; the kernel is that of the scalar rows
    rng = random.Random(seed)
    rows = [[_random_scalar(spec, rng) for _ in range(4)] for _ in range(3)]
    mixed = [[spec.reduce_digits(x.digits, M) for x in row] for row in rows]
    mixed[-1] = rows[-1]
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
