import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from arithjet import witt
from arithjet.errors import IncompatibleSpec
from arithjet.lateral import (
    from_witt,
    generic_tilde,
    lateral_frobenius,
    tilde_pack,
)
from arithjet.ring import BaseRingSpec, PadicScalar
from arithjet.series import TruncSeries
from arithjet.verify import ghost_components
from arithjet.witt import (
    WittVector,
    f_tilde,
    frobenius_W,
    structural_polynomials,
    teichmuller,
    verschiebung,
)

SPEC3 = BaseRingSpec(3, 1)
SPEC5 = BaseRingSpec(5, 1)

ints = st.integers(min_value=0, max_value=3 ** 7)


def vec(spec, comps, prec=6):
    return WittVector.from_ints(spec, comps, prec)


@given(a=st.lists(ints, min_size=3, max_size=3),
       b=st.lists(ints, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_ghost_homomorphism(a, b):
    x, y = vec(SPEC3, a), vec(SPEC3, b)
    wx, wy = ghost_components(x), ghost_components(y)
    for i, w in enumerate(ghost_components(x + y)):
        assert (w - (wx[i] + wy[i])).is_zero()
    for i, w in enumerate(ghost_components(x * y)):
        assert (w - wx[i] * wy[i]).is_zero()


@given(a=st.lists(ints, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_additive_inverse(a):
    x = vec(SPEC3, a)
    assert (x - x).is_zero()
    assert (x + (-x)).is_zero()


def test_structural_polynomial_shapes():
    table = structural_polynomials(SPEC3, 2, "sum", prec=5)
    assert len(table) == 3
    # w0 of the sum is x0 + y0 on the nose
    p0 = table[0]
    assert p0.linear_coeff("x0") == SPEC3.one(5)
    assert p0.linear_coeff("y0") == SPEC3.one(5)
    # P_0 = x0 y0, and F_0 = x0^q + pi x1 (the ghost w_1 of x)
    prod = structural_polynomials(SPEC3, 2, "prod", prec=5)
    frob = structural_polynomials(SPEC3, 2, "frobenius", prec=5)
    assert (len(prod), len(frob)) == (3, 2)
    x0, y0 = (TruncSeries.gen(SPEC3, prod[0].vars, v, None, 5)
              for v in ("x0", "y0"))
    assert prod[0] == x0 * y0
    x0, x1 = (TruncSeries.gen(SPEC3, frob[0].vars, v, None, 5)
              for v in ("x0", "x1"))
    assert frob[0] == x0 ** SPEC3.q + x1.mul_pi(1).reduce_prec(5)


@pytest.mark.parametrize("config", [(2, 1, 3), (3, 1, 3), (5, 1, 2),
                                    (5, 2, 2)])
def test_ghost_mul_and_frobenius_match_the_tables(config):
    # the ghost * and F of scalar vectors agree with the exact product and
    # Frobenius tables evaluated at the components
    p, e, n = config
    spec = BaseRingSpec(p, e)
    rng = random.Random(100 * p + e)
    prod = structural_polynomials(spec, n, "prod", prec=6)
    frob = structural_polynomials(spec, n, "frobenius", prec=6)
    for _ in range(3):
        x, y = (WittVector.from_ints(
            spec, [rng.randrange(p ** 8) for _ in range(n + 1)], 6)
            for _ in range(2))
        values = {f"x{i}": c for i, c in enumerate(x.components)}
        values.update({f"y{i}": c for i, c in enumerate(y.components)})
        assert (x * y).components == tuple(
            P.evaluate(values) for P in prod)
        assert frobenius_W(x).components == tuple(
            F.evaluate(values) for F in frob)


@given(a=st.lists(ints, min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_fv_is_pi(a):
    x = vec(SPEC3, a)
    assert frobenius_W(verschiebung(x)) == x.scalar_mul(SPEC3.pi(6))


def test_fv_neq_vf_pinned_witness():
    # p = 2, x = (1, 0): ghost w(x) = (1, 1).
    #   F(x) has ghost (w1) = (1), so F(x) = (1) and VF(x) = (0, 1).
    #   FV(x) = 2x has ghost (2, 2): y0 = 2, y0^2 + 2 y1 = 2 => y1 = -1.
    spec = BaseRingSpec(2, 1)
    x = vec(spec, [1, 0])
    fv = frobenius_W(verschiebung(x))
    vf = verschiebung(frobenius_W(x))
    assert fv == vec(spec, [2, -1])
    assert vf == vec(spec, [0, 1])
    assert fv != vf


@given(a=st.lists(ints, min_size=4, max_size=4))
@settings(max_examples=20, deadline=None)
def test_ffv_equals_fvf(a):
    x = vec(SPEC3, a)
    assert (frobenius_W(frobenius_W(verschiebung(x)))
            == frobenius_W(verschiebung(frobenius_W(x))))


def test_frobenius_ghost_shift():
    x = vec(SPEC5, [2, 7, 1], prec=5)
    fx = frobenius_W(x)
    wx = ghost_components(x)
    wfx = ghost_components(fx)
    # ghost of F is the left shift (phi = id)
    for i in range(fx.length):
        assert (wfx[i] - wx[i + 1].reduce_prec(wfx[i].prec)).is_zero()


def test_frobenius_needs_length():
    with pytest.raises(IncompatibleSpec):
        frobenius_W(vec(SPEC3, [1]))


@given(a=ints, b=ints)
@settings(max_examples=30, deadline=None)
def test_teichmuller_multiplicative(a, b):
    x = teichmuller(SPEC3, SPEC3.scalar(a, 6), 3)
    y = teichmuller(SPEC3, SPEC3.scalar(b, 6), 3)
    xy = teichmuller(SPEC3, SPEC3.scalar(a * b, 6), 3)
    assert x * y == xy


def test_f_tilde_constant_ghost():
    r = SPEC5.scalar(7, 9)
    x = f_tilde(SPEC5, r, 3)
    for w in ghost_components(x):
        assert (w - r.reduce_prec(w.prec)) .is_zero()


def test_f_tilde_frobenius_fixed():
    # F(f~(r)) = f~(phi(r)) = f~(r) one step down the tower
    r = SPEC3.scalar(5, 9)
    x = f_tilde(SPEC3, r, 3)
    fx = frobenius_W(x)
    y = f_tilde(SPEC3, r, 2)
    prec = min(fx.prec(), y.prec())
    assert fx.reduce_prec(prec) == y.reduce_prec(prec)


# --------------------------------------------------------------------------
# pinned values of the ring operations
# --------------------------------------------------------------------------

def _digest(x):
    body = json.dumps([c.to_json() for c in x.components], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def _series_operands(p, e, n, capped=True):
    """Series operands over z1..zn, capped at q + 1 or exact polynomials.
    x = I(r, z) and y = I(r', z^2 + c) have constant terms; the tails z
    and w do not."""
    spec = BaseRingSpec(p, e)
    cap = spec.q + 1 if capped else None
    vars_ = tuple(f"z{i}" for i in range(1, n + 1))
    gens = [TruncSeries.gen(spec, vars_, v, cap, 4) for v in vars_]
    const = [TruncSeries.const(spec, vars_, spec.scalar(i + 1, 3), cap, 3)
             for i in range(n)]
    y_tail = WittVector(spec, [g * g + c for g, c in zip(gens, const)])
    w = WittVector(spec, [g * g + gens[(i + 1) % n]
                          for i, g in enumerate(gens)]).reduce_prec(3)
    return {
        "x": generic_tilde(spec, spec.scalar(7 * p + 2, 5 + n), n, cap,
                           4).embed(),
        "y": tilde_pack(spec.scalar(3 * p + 1, 4 + n), y_tail).embed(),
        "z": WittVector(spec, gens),
        "w": w,
        "r": spec.scalar(p + 3, 2 + n),
    }


SERIES_OPS = {
    "add": lambda v: v["x"] + v["y"],
    "mul": lambda v: v["x"] * v["y"],
    "neg": lambda v: -v["y"],
    "frobenius": lambda v: frobenius_W(v["x"]),
    "scalar_mul": lambda v: v["y"].scalar_mul(v["r"]),
    "add0": lambda v: v["z"] + v["w"],
    "mul0": lambda v: v["z"] * v["w"],
    "neg0": lambda v: -v["z"],
    "frobenius0": lambda v: frobenius_W(v["z"]),
}

# sha256 of the result components' JSON (precisions included); the values
# were computed while these operations evaluated the structural tables:
# uncapped ones for x and y (a component with a constant term), capped ones
# for z and w
PINNED_SERIES_OPS = {
    (2, 1, 2, 'add'):
        "abe096dbecdca2f8710d692d4b0b5fcc767ffdaeac52efa79b032e67b4b17303",
    (2, 1, 2, 'add0'):
        "d8c6b4a3684c39a9719f7ad1f953e35d35806f65348e336d6e455c2ca9bd03ff",
    (2, 1, 2, 'frobenius'):
        "9da570c32610a404b2291a873f2c432b4f77c28b1e51bd3bcbe32be0ab9922e0",
    (2, 1, 2, 'frobenius0'):
        "d412bd09ff8b63c3a920c182a2a1d225482a63e324819a6241db46a86f4dd743",
    (2, 1, 2, 'mul'):
        "72996b15f5c6b27e9980921d23e0dd815f52f0de9049273371647ed56921c2fc",
    (2, 1, 2, 'mul0'):
        "add161dd6ae91457c406e3dbf6db2348b8b7b79a44bb89a0c669e09715acf49b",
    (2, 1, 2, 'neg'):
        "2f4777bf0e41c4dc2127edd738008e21b87927a2cb289cdbfd80d09c61e23574",
    (2, 1, 2, 'neg0'):
        "dbce006124c2b379c0a26d4dfbd3f219f7faca2a86e919a676b77965675fcd8e",
    (2, 1, 2, 'scalar_mul'):
        "805f48fe2c4d20a66da4bd1f2eede477d93054bdcfd6f6970401b51bdda3a4a1",
    (2, 1, 3, 'add'):
        "c387ef22c28af1f6c99c1523bee3c8b78bc9cd6d9a9ac1104fc13eec816f608c",
    (2, 1, 3, 'add0'):
        "d5035a1270167f554bd8f9519ddec8563b0c3aa0dbecaed8cd61f25cab54b5d2",
    (2, 1, 3, 'frobenius'):
        "2f45ce846b390cc1d278f0027aa4f9b7d6b0c53280d4d2a97d6e7408b1251521",
    (2, 1, 3, 'frobenius0'):
        "c9621764210673077142a2026ddf19084a0d73a085b81c290567fe35a39369d3",
    (2, 1, 3, 'mul'):
        "c089a644bbdce0a90c26c1643beb7e9c089fa96d4d5429c1e0f5da77c10bc1d4",
    (2, 1, 3, 'mul0'):
        "bad559f16ee6061df7df0d8c3bfe287ba41d87dae27a460fc70d286e6c892618",
    (2, 1, 3, 'neg'):
        "3b9ec10c0fb33a068fd2221f3f5b80e876fb98addba66ea560099a3a583ed7c5",
    (2, 1, 3, 'neg0'):
        "34eb128c8e2817dc02126c7c2d247a8b2ae4e31c940c464f9d02c60b6618ccb3",
    (2, 1, 3, 'scalar_mul'):
        "b65a1fc88211131656f76a890adb776b8326c0d478fd06ba46eaade9729ba8c0",
    (3, 1, 2, 'add'):
        "fb6a9b843fa90f40c0b36e26f0723313e9e970d832166f4d33877a8b8ae81687",
    (3, 1, 2, 'add0'):
        "a2387bfa722563ef022a0ecff9b9c83f51d456f3c8f1866e95293974dcf502fe",
    (3, 1, 2, 'frobenius'):
        "15e48791397d0978b3368ef638d07e17a2cfe9791bbe4df650fefb91c543a461",
    (3, 1, 2, 'frobenius0'):
        "adc53ee9eaef92fa9a10a2224219166023b3fad36d21aaef50d0f94b9a5abb1c",
    (3, 1, 2, 'mul'):
        "6c013bad6bebb31328bd81b440f9fd324525c2ca4480d81c41fcaf40e4fc828a",
    (3, 1, 2, 'mul0'):
        "f7b34464285e3c72b6684387f56f55121c0100066acbe9c371028f638a3e1bb7",
    (3, 1, 2, 'neg'):
        "11c9a4ddabae1a1b5ccd3eacd5c8ae280477d3086d159529b7c3e1b0aafe2724",
    (3, 1, 2, 'neg0'):
        "31dc333ccfa91c68724f9404ea6aa7f7bfba2cd5cb446a0e09cc0c03f5920493",
    (3, 1, 2, 'scalar_mul'):
        "09437ce9349bb1d69a97f01ecfc3000e5371380d71c3b16ede0179cef9ca1539",
    (5, 1, 1, 'add'):
        "84494d81fe136ecacc41aa967fcf27961f38d6c25031a5d8d6e202e4370aedbc",
    (5, 1, 1, 'add0'):
        "a2482ed721550524b8c1bcb2e849ebed892826644466003d1f8a3b3b3add9b63",
    (5, 1, 1, 'frobenius'):
        "25c5e43146e98975b7ec799351525bae210d66a7b1a72e052498aa6b0113f00b",
    (5, 1, 1, 'mul'):
        "4462dea5cb7e35defcd30755bb254efcb02a8fa91ebc4b909420a05ec5315d3b",
    (5, 1, 1, 'mul0'):
        "7c570c72207d783f3374024bafd6e1ad8ec6a7df323026d9c0fe640ca48930a3",
    (5, 1, 1, 'neg'):
        "46f81b8edcc35db023e80d6d12e2dcbef126640e9df3874d46463e4381c1a478",
    (5, 1, 1, 'neg0'):
        "05beb48ee6f212710a91ea90f5d02064f80e2fd79e4b0a5191dbb0c197359552",
    (5, 1, 1, 'scalar_mul'):
        "9d9aa7f6b735152afe5c0475d73e6f4b73f69073548128ebeca56d2031ae053b",
    (5, 2, 1, 'add'):
        "cc567ffaabd7a37731c874db4050ae1666c8891638928c65e96b4ac58255c9da",
    (5, 2, 1, 'add0'):
        "26fe7175cd648cf416ba7a46c9b38679dbcbda3d64ba4ef63e53d2ce5fa44c06",
    (5, 2, 1, 'frobenius'):
        "d4ea41b2e822cef156e4e2bad8d249328e03a97e0f495e265d7165dd597ebd60",
    (5, 2, 1, 'mul'):
        "049478f2c17c17893428ae243e23315b44fbc10864049981fbe4c802441d3033",
    (5, 2, 1, 'mul0'):
        "2ebde6e495f9a1e9cce6e2b13a608ffbfed8a6ecae64731dc5e7418e4132e4bf",
    (5, 2, 1, 'neg'):
        "ed6e1ae2c419eedaf96e979b990dda523ce0a27b2fd3877be530385874374961",
    (5, 2, 1, 'neg0'):
        "81904f40f716ae11d8c5d6ece86539432d3fae64a878ffbe2357ef469f46cfb9",
    (5, 2, 1, 'scalar_mul'):
        "6e34ec3f2739707a4d659107df1014cadf1be026a5bd055e3141af2a7c2b8de1",
}


@pytest.mark.parametrize("key", sorted(PINNED_SERIES_OPS))
def test_series_ops_pinned(key):
    *config, op = key
    assert _digest(SERIES_OPS[op](_series_operands(*config))) == \
        PINNED_SERIES_OPS[key]


def _scalar_operand(p, e, n):
    """Scalar vectors x and y whose components carry precision 6 or 7, and
    the integer that the R-action multiplies by (drawn between them)."""
    spec = BaseRingSpec(p, e)
    rng = random.Random(1000 * p + 10 * e + n)
    x = WittVector(spec, [spec.scalar(rng.randrange(p ** 8), 6 + i % 2)
                          for i in range(n + 1)])
    s = rng.randrange(p ** 8)
    y = WittVector(spec, [spec.scalar(rng.randrange(p ** 8), 7 - i % 2)
                          for i in range(n + 1)])
    return x, s, y


# the R-action at r.prec - n below, at and above x.prec() = 6; the product
# at equal and at unequal precisions (x at 6, y at 4); * and F at N = 0
SCALAR_OPS = {
    "neg": lambda x, s, y: -x,
    "scalar_mul_low": lambda x, s, y: x.scalar_mul(
        x.spec.scalar(s, 4 + x.n)),
    "scalar_mul_even": lambda x, s, y: x.scalar_mul(
        x.spec.scalar(s, 6 + x.n)),
    "scalar_mul_high": lambda x, s, y: x.scalar_mul(
        x.spec.scalar(s, 9 + x.n)),
    "mul": lambda x, s, y: x * y,
    "mul_mixed": lambda x, s, y: x * y.reduce_prec(4),
    "frobenius": lambda x, s, y: frobenius_W(x),
    "mul0": lambda x, s, y: x.reduce_prec(0) * y.reduce_prec(0),
    "frobenius0": lambda x, s, y: frobenius_W(x.reduce_prec(0)),
}


# as PINNED_SERIES_OPS, for scalar negation and the R-action, computed
# while both multiplied by a table-evaluated lift f~(r), and for scalar *
# and F, computed while they evaluated the structural tables
PINNED_SCALAR_OPS = {
    (2, 1, 3, 'frobenius'):
        "a68e96b9987b51701926c90d259c8a8211f961e11313c88a5505f64784f51423",
    (2, 1, 3, 'frobenius0'):
        "e39b9e8bab3249a91180020a3396f9848b5658976366ac289a1c4568ed26d776",
    (2, 1, 3, 'mul'):
        "f792168006c4bdc3ff2e87071c676772290c33ce78bcc5190b551133c5c5d546",
    (2, 1, 3, 'mul0'):
        "b067e4fef03cc954d44c77ade5e8de16d5ab35155984ce421af218a4b4983b54",
    (2, 1, 3, 'mul_mixed'):
        "536f91733437110727d28ccd30b2a5f2f24438464c1674a8b05451fb1113e2ba",
    (2, 1, 3, 'neg'):
        "72d10f14bd49f53711946bc58888c59dc4be8e3b81d7eac8c4539f20cf4835d1",
    (2, 1, 3, 'scalar_mul_even'):
        "d843f06dcde47774b302e87db6ef892dcdaa148cb62b8f59d3b3c39bd0064b6b",
    (2, 1, 3, 'scalar_mul_high'):
        "d843f06dcde47774b302e87db6ef892dcdaa148cb62b8f59d3b3c39bd0064b6b",
    (2, 1, 3, 'scalar_mul_low'):
        "462693cc5fb0a6c2d456159e1d791afc769cfdedaeffbbcf6bf8445370baf7c5",
    (3, 1, 2, 'frobenius'):
        "ece3eafd4c31375f7d902110db044c6543d02fa91aae130ea2cd2c7cd2222d80",
    (3, 1, 2, 'frobenius0'):
        "30e6e1aacf62be095334288a1d2582c9827faaa6cff4d07aceacce01500c68a6",
    (3, 1, 2, 'mul'):
        "41c937454bb0b978d28b8ea0e9cfcb961a83ed5316f3c7a81175d753533f4d55",
    (3, 1, 2, 'mul0'):
        "e39b9e8bab3249a91180020a3396f9848b5658976366ac289a1c4568ed26d776",
    (3, 1, 2, 'mul_mixed'):
        "7a759e58d8125c20c620fbff9924c64d18bec5ea807731d3fda0a52be6dc8d64",
    (3, 1, 2, 'neg'):
        "5760031067a1b6a25e0c0fb058cd1edba06c6868ef59caf008ab12eb31eb473e",
    (3, 1, 2, 'scalar_mul_even'):
        "2322b8f206a41f898a3eb2af41b654e2dd255f166667fa02631fd54a31505b1e",
    (3, 1, 2, 'scalar_mul_high'):
        "2322b8f206a41f898a3eb2af41b654e2dd255f166667fa02631fd54a31505b1e",
    (3, 1, 2, 'scalar_mul_low'):
        "6d57cc09f90ce4ca96bf678a6a19a976c9e904078618aa96887693f2cbb5c859",
    (5, 1, 2, 'frobenius'):
        "8f600f08c6f58b3ac1f475e080d6a737159398ef575110373e3d8d6bc404bb5a",
    (5, 1, 2, 'frobenius0'):
        "30e6e1aacf62be095334288a1d2582c9827faaa6cff4d07aceacce01500c68a6",
    (5, 1, 2, 'mul'):
        "f1345cc175fd61052143f2a606e35f4189cc0596a2c0fa5978969bb4393f622f",
    (5, 1, 2, 'mul0'):
        "e39b9e8bab3249a91180020a3396f9848b5658976366ac289a1c4568ed26d776",
    (5, 1, 2, 'mul_mixed'):
        "d50c17002a7e5df3051833168aa6c4a1bd6fbab73364b1d77f1e0ebb5111c842",
    (5, 1, 2, 'neg'):
        "8dbd0a693e8ba91fe43ac786b22b8018c3a8c7673357547a986ff30e2cd9becf",
    (5, 1, 2, 'scalar_mul_even'):
        "dde082c5ba5757998f64aaf0ac9aa02f91f1116ec6afcaf77b6f73cae1739ae0",
    (5, 1, 2, 'scalar_mul_high'):
        "dde082c5ba5757998f64aaf0ac9aa02f91f1116ec6afcaf77b6f73cae1739ae0",
    (5, 1, 2, 'scalar_mul_low'):
        "f71cdac1c65d0821ed5fe766d631d6204a64b25e6fe014c00bb05d8cf16ac16c",
    (5, 2, 2, 'frobenius'):
        "f88bcb3b4b1065ee6df912504c9091fd1d0b5dc9a13f80e8019ac2b0b738caf2",
    (5, 2, 2, 'frobenius0'):
        "198dee18dc90a0b376fcba0cf49651ef5d2588c7e8915578ddb7151f439d40ec",
    (5, 2, 2, 'mul'):
        "b32639d32eb5407e02a5f777e404d2c2771ea89bcd058ebbb78221769edae428",
    (5, 2, 2, 'mul0'):
        "f9755e7798f3649b43303a350870b37cf864bacfc63855c6a65e126ced4d4648",
    (5, 2, 2, 'mul_mixed'):
        "905b52aec03820fda86d4444dae5b867e027c2d9940c6bbd920db9241fac712a",
    (5, 2, 2, 'neg'):
        "ea79a40a1f362ef0caddc95ab12410cc51af6c2ddeb7ce37786e481cc5f2319a",
    (5, 2, 2, 'scalar_mul_even'):
        "90324044f0ee20558c09bf4185ac75247d25184bd879ae1040f2ea413331e898",
    (5, 2, 2, 'scalar_mul_high'):
        "90324044f0ee20558c09bf4185ac75247d25184bd879ae1040f2ea413331e898",
    (5, 2, 2, 'scalar_mul_low'):
        "9d7503b6ced6146096d3223c48f0625b3094e320b2f5f9ad4b146638a39e4c22",
    (7, 1, 1, 'frobenius'):
        "d04301e2499bf003b72e18e36531b9c65afd6ee39db573821c336893e7eb6cb3",
    (7, 1, 1, 'frobenius0'):
        "3111b7720bc5a9b10e289c511158716b5a27ca3783b53e62a2e3acc5761697ee",
    (7, 1, 1, 'mul'):
        "af64913ec51f019d73ccb2993bd930855945d528c4e2d590b1d9f0939f16b4f5",
    (7, 1, 1, 'mul0'):
        "30e6e1aacf62be095334288a1d2582c9827faaa6cff4d07aceacce01500c68a6",
    (7, 1, 1, 'mul_mixed'):
        "0569229ca8ada2c3dd7f477df13b301f5eb79fc4b455222f026e9e90742beae9",
    (7, 1, 1, 'neg'):
        "b8bf63bd93e39615d409de2308cde951d65a6d0948d084d5f45c0a29d029831a",
    (7, 1, 1, 'scalar_mul_even'):
        "09e8348243bb3c59e45fcc8d02eca759f4a6060c2e7ba960f9079fc4fc678bfe",
    (7, 1, 1, 'scalar_mul_high'):
        "09e8348243bb3c59e45fcc8d02eca759f4a6060c2e7ba960f9079fc4fc678bfe",
    (7, 1, 1, 'scalar_mul_low'):
        "068e4fb645cccca51d0c8c9ca255e058005bb428d9f9db92ae6051b0be26e6b0",
}


@pytest.mark.parametrize("key", sorted(PINNED_SCALAR_OPS))
def test_scalar_ops_pinned(key):
    *config, op = key
    assert _digest(SCALAR_OPS[op](*_scalar_operand(*config))) == \
        PINNED_SCALAR_OPS[key]


# --------------------------------------------------------------------------
# series operations against the naive ghost oracle, and their routing
# --------------------------------------------------------------------------

@pytest.mark.parametrize("config", [(2, 1, 3), (3, 1, 2), (5, 2, 1),
                                    (7, 3, 1), (2, 1, 2, False),
                                    (3, 1, 2, False), (5, 2, 1, False)])
def test_series_ops_ghost_oracle(config):
    # x and y have constant terms, capped or exact polynomials; every
    # identity holds mod pi^N, and the ghosts at N + n invert to the vector
    v = _series_operands(*config)
    x, y, r = v["x"], v["y"], v["r"]
    wx, wy = ghost_components(x), ghost_components(y)
    assert witt._ghost(x.spec, x.components, x.prec()) == wx
    for z in (x, y):
        N = z.prec()
        assert witt._from_ghosts(
            z.spec, witt._ghost(z.spec, z.components, N + z.n), N) == z

    def agree(result, expected):
        got = ghost_components(result)
        assert len(got) == len(expected)
        assert all((a - b).is_zero() for a, b in zip(got, expected))

    agree(x + y, [a + b for a, b in zip(wx, wy)])
    agree(x * y, [a * b for a, b in zip(wx, wy)])
    agree(-x, [-a for a in wx])
    agree(frobenius_W(x), wx[1:])
    agree(y.scalar_mul(r), [a.scalar_mul(r) for a in wy])


@pytest.mark.parametrize("config", [(2, 1, 3), (3, 1, 2), (5, 2, 2),
                                    (7, 3, 1)])
def test_scalar_ghosts_at_a_raised_precision(config):
    # the ghost map reads every component at P > N with its digits kept,
    # and inverts back to the vector at N
    p, e, n = config
    spec = BaseRingSpec(p, e)
    rng = random.Random(p * 10 + e)
    N = 6
    x = WittVector(spec, [PadicScalar(spec, [rng.randrange(p ** 4)
                                             for _ in range(e)], N)
                          for _ in range(n + 1)])
    for P in (N, N + n, N + n + 3):
        raised = WittVector(spec, [PadicScalar(spec, c.digits, P)
                                   for c in x.components])
        ghosts = witt._ghost(spec, x.components, P)
        assert all(g.prec == P for g in ghosts)
        assert all((a - b).is_zero()
                   for a, b in zip(ghosts, ghost_components(raised)))
        assert witt._from_ghosts(spec, ghosts, P - n) == raised


def test_cancelling_uncapped_vector_inverts():
    # x = (2t, -2t^2) at p = 2 has w_1 = (2t)^2 - 4t^2 = 0, yet inverting
    # its ghosts squares 2t: the packing bound comes from the ghosts'
    # recurrence, not from their degrees alone
    spec = BaseRingSpec(2, 1)
    t = TruncSeries.gen(spec, ("t",), "t", None, 7)
    x = WittVector(spec, [t.int_mul(2), (t * t).int_mul(-2)])
    ghosts = witt._ghost(spec, x.components, 8)
    assert ghosts[1].is_zero()
    y = witt._from_ghosts(spec, ghosts, 7)
    assert [c.coeffs for c in y.components] == [{(1,): (2,)},
                                                 {(2,): (126,)}]
    assert [(c.prec, c.cap) for c in y.components] == [(7, None), (7, None)]
    assert y == x


def test_series_ops_skip_the_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("structural table requested")

    monkeypatch.setattr(witt, "structural_polynomials", refuse)
    v = _series_operands(3, 1, 2)
    x, y, r = v["x"], v["y"], v["r"]
    for result in (x + y, x * y, x - y, -x, frobenius_W(x),
                   x.scalar_mul(r)):
        assert result.is_series()
    t = generic_tilde(SPEC3, SPEC3.scalar(11, 8), 2, 4, 4)
    assert from_witt(t.embed(), t.r) == t
    assert lateral_frobenius(t).tail.is_series()
    assert (t + t).tail.is_series() and (t * t).tail.is_series()
    # scalar negation, the R-action and from_witt need no table either
    z = vec(SPEC3, [4, 1, 7])
    assert (-z).prec() == 6
    assert z.scalar_mul(SPEC3.pi(8)).prec() == 6
    s = tilde_pack(SPEC3.scalar(2, 10), vec(SPEC3, [5, 1]))
    assert from_witt(s.embed(), s.r) == s
    # scalar * and F go through the ghosts too; only scalar + takes a table
    assert (z * z).prec() == 6 and frobenius_W(z).prec() == 6
    with pytest.raises(AssertionError, match="structural table"):
        z + z


@pytest.mark.parametrize("e", [1, 2])
def test_scalar_ops_at_precision_zero(e):
    # at N = 0 the ghost inversion divides zeros known to exactly i digits by
    # pi^i; every operation returns zeros at precision 0, as + does
    spec = BaseRingSpec(5 if e > 1 else 3, e)
    x = WittVector.from_ints(spec, [1, 2, 3], 0)
    zeros = WittVector.from_ints(spec, [0, 0, 0], 0)
    for result in (x + x, -x, x * x, x.scalar_mul(spec.pi(2)),
                   x.scalar_mul(spec.scalar(7, 5))):
        assert result == zeros and result.prec() == 0
    fx = frobenius_W(x)
    assert fx.length == 2 and fx.is_zero() and fx.prec() == 0


def test_witt_vector_constructor_refusals():
    a = SPEC3.scalar(1, 4)
    x = TruncSeries.gen(SPEC3, ("x",), "x", 4, 4)
    refused = [
        ([], "empty Witt vector"),
        ([a, x], "mixed scalar/series components"),
        ([a, SPEC5.scalar(1, 4)], "component over wrong base ring"),
        ([x, x.with_cap(5)], "components in different series contexts"),
    ]
    for components, match in refused:
        with pytest.raises(IncompatibleSpec, match=match):
            WittVector(SPEC3, components)


def test_witt_vector_operand_refusals():
    x = TruncSeries.gen(SPEC3, ("x",), "x", 4, 4)
    y = TruncSeries.gen(SPEC3, ("y",), "y", 4, 4)
    scalars = vec(SPEC3, [1, 2])
    refused = [
        (vec(SPEC5, [1, 2]), "Witt vector mismatch"),
        (vec(SPEC3, [1, 2, 3]), "Witt vector mismatch"),
        (WittVector(SPEC3, [x, x]), "mixed scalar/series Witt vectors"),
    ]
    for other, match in refused:
        for op in (lambda u, v: u + v, lambda u, v: u * v):
            with pytest.raises(IncompatibleSpec, match=match):
                op(scalars, other)
    series = WittVector(SPEC3, [x, x])
    for other in (WittVector(SPEC3, [y, y]),
                  WittVector(SPEC3, [x.with_cap(5), x.with_cap(5)])):
        with pytest.raises(IncompatibleSpec, match="series context mismatch"):
            series + other


def test_structural_polynomial_refusals():
    with pytest.raises(IncompatibleSpec, match="unknown structural op 'div'"):
        structural_polynomials(SPEC3, 1, "div", 4)
    with pytest.raises(IncompatibleSpec, match="frobenius needs length >= 2"):
        structural_polynomials(SPEC3, 0, "frobenius", 4)
