import hashlib
import json
import random

import pytest

from arithjet.errors import IncompatibleSpec, NotInVImage
from arithjet.lateral import (
    TildeWittVector,
    from_witt,
    generic_tilde,
    lateral_frobenius,
    tilde_pack,
)
from arithjet.ring import BaseRingSpec
from arithjet.series import TruncSeries
from arithjet.verify import (
    ghost_components,
    suite_fdid,
    suite_latfrob_congruence,
)
from arithjet.witt import WittVector, frobenius_W

SPEC2 = BaseRingSpec(2, 1)
SPEC3 = BaseRingSpec(3, 1)


def test_pack_unpack_roundtrip():
    r = SPEC3.scalar(4, 8)
    z = WittVector.from_ints(SPEC3, [1, 2], 6)
    t = tilde_pack(r, z)
    assert t.r == r and t.tail == z


def test_order_zero():
    # at p = 3, F~ of (r, (2)) has order 0: it embeds to W_0 as (r),
    # from_witt gives it back, and F~ refuses to go lower
    r = SPEC3.scalar(4, 6)
    t = lateral_frobenius(tilde_pack(r, WittVector.from_ints(SPEC3, [2], 6)))
    assert (t.order, t.r, t.tail) == (0, r, None)
    x = t.embed()
    assert x == WittVector(SPEC3, [r])
    assert from_witt(x, r) == t
    with pytest.raises(NotInVImage):
        from_witt(x, r + SPEC3.one(6))
    with pytest.raises(IncompatibleSpec, match="order >= 1"):
        lateral_frobenius(t)


def test_embed_from_witt_roundtrip():
    r = SPEC3.scalar(2, 10)
    z = WittVector.from_ints(SPEC3, [5, 1], 6)
    t = tilde_pack(r, z)
    x = t.embed()
    t2 = from_witt(x, r)
    assert t2 == t


def test_from_witt_rejects_wrong_coset():
    # x - f~(r) must land in the image of V
    r = SPEC3.scalar(2, 10)
    x = WittVector.from_ints(SPEC3, [1, 0, 0], 6)
    with pytest.raises(NotInVImage):
        from_witt(x, r)


def test_from_witt_rejects_wrong_coset_of_series():
    t = generic_tilde(SPEC3, SPEC3.scalar(11, 8), 2, 4, 4)
    with pytest.raises(NotInVImage):
        from_witt(t.embed(), t.r + SPEC3.pi(8) ** 3)
    # x_0 - r = -pi^4 vanishes at N = min(x.prec(), r.prec - n) = 4
    assert from_witt(t.embed(), t.r + SPEC3.pi(8) ** 4).order == 2


def test_tilde_addition_matches_embedding():
    # W~ adds in the embedded Witt ring: the sum of two embedded elements
    # lies in the fiber over r1 + r2, and from_witt recovers it
    r1, r2 = SPEC3.scalar(2, 10), SPEC3.scalar(7, 10)
    z1 = WittVector.from_ints(SPEC3, [1, 2], 6)
    z2 = WittVector.from_ints(SPEC3, [4, 0], 6)
    a, b = tilde_pack(r1, z1), tilde_pack(r2, z2)
    x = a.embed() + b.embed()
    s = from_witt(x, r1 + r2)
    prec = min(s.embed().prec(), x.prec())
    assert s.embed().reduce_prec(prec) == x.reduce_prec(prec)


@pytest.mark.parametrize("spec,n", [(SPEC2, 2), (SPEC2, 3),
                                    (SPEC3, 2), (SPEC3, 3)])
def test_lateral_congruence_symbolic(spec, n):
    rep = suite_latfrob_congruence(spec, n)
    assert rep["status"] == "pass", rep


@pytest.mark.parametrize("spec,n", [(SPEC2, 2), (SPEC2, 3), (SPEC2, 4),
                                    (SPEC3, 2), (SPEC3, 3)])
def test_fdid_symbolic(spec, n):
    rep = suite_fdid(spec, n)
    assert rep["status"] == "pass", rep


def test_lateral_frobenius_lowers_order():
    r = SPEC3.scalar(2, 12)
    t = generic_tilde(SPEC3, r, 3, cap=4, prec=4)
    ft = lateral_frobenius(t)
    assert ft.order == 2
    assert ft.r == r


def test_f_of_embed_differs_from_embed_of_lateral():
    # the remark behind the comparison theorem: F o I != I o F~
    r = SPEC3.scalar(1, 12)
    tail = WittVector.from_ints(SPEC3, [1, 0], 8)
    t = tilde_pack(r, tail)
    a = frobenius_W(t.embed())
    b = lateral_frobenius(t).embed()
    assert a != b


# sha256 of the embedded components' JSON; the values were computed while
# embed() added f~(r) + V(tail) through the Witt sum table.  Generic tails
# carry precision 4 < r.prec - n, scalar tails 4 + n (= r.prec) or 3; both
# low-precision cases raise the tail's digits before the ghost inversion
PINNED_EMBEDS = {
    ("generic", 2, 1, 1, False):
        "0fa85f3ecbdc056ac15c90496ddae9356ae1be230205d1926cf89e9d36f0e92a",
    ("generic", 2, 1, 1, True):
        "ff727e712ef56563962ea59091c41c48cea72e2bf225efdf6d7f21aced67b149",
    ("scalar", 2, 1, 1, 5):
        "3ac709dc4d343c9ddd41ddde0cc4df925ab20abacae56273acad1ade29cb5f80",
    ("scalar", 2, 1, 1, 3):
        "bbf83f575c9736ea8199424ac459cc3b384892025c0391f202a01b2e2d21a961",
    ("generic", 2, 1, 2, False):
        "5338da34d75c0cb4dfd80c675119950bcb9a3290930498cea92e6c96e8c96e13",
    ("generic", 2, 1, 2, True):
        "052fc51ef826a05fb225a9a2686e0051052c21f89cb8d950a1d262a8c1300e71",
    ("scalar", 2, 1, 2, 6):
        "2d0e7bcb1ffb1b89394d9304063cd9b44a608ec02322d750fab78beed07d87e6",
    ("scalar", 2, 1, 2, 3):
        "1d79f41aae7c206115f730ac706686765b42be4420832c28dd19b394eb859eaf",
    ("generic", 2, 1, 3, False):
        "d8d0336e33a9d334845f79a27d93c8a8e977acb9bf188876d4c245b6b055202d",
    ("generic", 2, 1, 3, True):
        "9ef87d276b0a715f743e9e8ac6de200fa8265a7dc3bc8ff52a41b56f8ee8577a",
    ("scalar", 2, 1, 3, 7):
        "cb52766e4bcbe5629d377e138f43128257763c37f8e0f193a038be5f6622555d",
    ("scalar", 2, 1, 3, 3):
        "70c66bb06d4ac95c07579745359a7a59f96422fecffbce2a210ea39a97788a9e",
    ("generic", 3, 1, 1, False):
        "b223c16c2356b3c26519ac644ed643acb0d4c581ea3fdd47a1f58b51a49f6ba8",
    ("generic", 3, 1, 1, True):
        "206b91cb9219f2c8af473a6f64693519eba5cedf0d3844d3a36cfa684a8d3632",
    ("scalar", 3, 1, 1, 5):
        "6f1550fe86035cb85dce7c61f3a0104fcce2f9295929b806f4c3070020808562",
    ("scalar", 3, 1, 1, 3):
        "d3b2ded7019fe0e7f7cbbddf44ed9f03aeb4af63cc5c2ff579d524ed16b49834",
    ("generic", 3, 1, 2, False):
        "81f727462b7ae9cb511165b52caa8972f8b6badfc78d4378ca5c589d41ab1cab",
    ("generic", 3, 1, 2, True):
        "35810258f592a109c845f5754a675b6a8e70ec8c441bf63254325f34eb30a6e8",
    ("scalar", 3, 1, 2, 6):
        "68ccd3d693e453e852b82672a0bb6f2350f688850f910afca7aa2354f0db822b",
    ("scalar", 3, 1, 2, 3):
        "96cc7fc2be406d336410244e664eab9f28280938f8c5f812075db5d3b7f65d99",
    ("generic", 3, 1, 3, False):
        "8c617fd4db9a1ea11f47e65aadd13fa9b00785184ae727b835d2bbde5d5493c4",
    ("generic", 3, 1, 3, True):
        "579142198eb7eac4716ea8f25e817284353d5febe344f237bacb35c9b0635a4a",
    ("scalar", 3, 1, 3, 7):
        "16c9c290f5b56ef5689a87118846263fd81d602cb1a228157ef87bbcadcc7c4d",
    ("scalar", 3, 1, 3, 3):
        "cb8f7d97dff634721e3906266cf9d30853a445434df24d2a0152a8bb693b5ac3",
    ("generic", 5, 1, 1, False):
        "dcaae1eb817cfd272178881a4bf7df449d4206b2ca6546f9f37b5e4699457a9f",
    ("generic", 5, 1, 1, True):
        "2ad15861889b0f8c5a9adcf06f15b4135fa1b64d9f73958026801e1844dfd7be",
    ("scalar", 5, 1, 1, 5):
        "2e8c41b2cb8efc6c089d4fc3c3374fba716c6de9209df7ecadb1abc1ef3697e2",
    ("scalar", 5, 1, 1, 3):
        "1c912e6995e29d131d89c86f57bbeb3bd000d54b476c56d45f400c4fe517722a",
    ("generic", 5, 1, 2, False):
        "40351469af1304c9e8eb5d195ea1158279dde38a51d5c8f43df38d735113d1d8",
    ("generic", 5, 1, 2, True):
        "d6902892ae67cdfbe2b5ccf87d4a264eea95e00e2ce8ad190a54b23fd6023be7",
    ("scalar", 5, 1, 2, 6):
        "6f4abaa47771d6c6a672d1acf4bf662f15ee0c3d3f429b49e01d3144ab47769e",
    ("scalar", 5, 1, 2, 3):
        "0609c840b237850b429548a0cacc851f197e8ca49a68991c1a0ba6d3e86280f3",
    ("generic", 5, 1, 3, False):
        "06d621a4e01e217cb8d290e1c5328cd0dad92c79395b21fe6838a146f14af203",
    ("generic", 5, 1, 3, True):
        "1a55ce09742c02bfd7e5e721d9c6698669dd870cc7d538c8e4bbaf95e91584dc",
    ("scalar", 5, 1, 3, 7):
        "f107e0ec9a5d2ebc45d6664a9bb8cbcfe993a30e473852eb16fefbd606c6aa8c",
    ("scalar", 5, 1, 3, 3):
        "9e533568c14a93f970353606751077308e4a824b564efa5059dfae4696bf3b06",
    ("generic", 5, 2, 1, False):
        "48ff930a7413f1aae7943cd7656713dbff1c1115b45fb114b21c5da6b20e8d71",
    ("generic", 5, 2, 1, True):
        "85c963b0ee8b0cd95562fe4b603e1b6d840f126c6dd0efeeb533fc7fa1124819",
    ("scalar", 5, 2, 1, 5):
        "d51abe48404fe329eb55d6ffad4360301b1ce21f9b7bf19f4b30a01f5d1e3ea7",
    ("scalar", 5, 2, 1, 3):
        "f7a5367c70bb17b5fb10fdd8afe9f127371517bf25694e9feca14f5c28a29e64",
    ("generic", 5, 2, 2, False):
        "50bbf24d788fe9bc66c545bce4d41dd4ad4ecdca5f9df85679f76f0d48960fb7",
    ("generic", 5, 2, 2, True):
        "a210dfcabb7516d3a54c9af2f0c10d7f1372b921efebc05392db9f8dc2ec8bfc",
    ("scalar", 5, 2, 2, 6):
        "e8c8010c1940fb73245eba60df955c6c675f0309300eb14c7b4ed170f5c57ca5",
    ("scalar", 5, 2, 2, 3):
        "00cd3d3bb29edd6d050f3524fbf6e8e8c528394c015ddc754d312eb7e5d51e51",
    ("generic", 5, 2, 3, False):
        "e981a75093bc6d233117b3a4414c9aee1f723b8e52e8ae6ae19d5c4bd3650402",
    ("generic", 5, 2, 3, True):
        "df6aff707e86389213d21819b72f22765693af08ce3f305e38f07b6218de71f4",
    ("scalar", 5, 2, 3, 7):
        "ea3add41ee966d0e2670020d59c0fc407843fd9af73509feac486ee88ac8ff84",
    ("scalar", 5, 2, 3, 3):
        "f323c23d4907234a61264d704302cc60109b7d9937f7de78ec7c5c80ec40316f",
}


def _pinned_tilde(kind, p, e, n, arg):
    spec = BaseRingSpec(p, e)
    if kind == "generic":
        r = spec.scalar(7 * p + 2, 5 + n)
        return generic_tilde(spec, r, n, spec.q + 1 if arg else None, 4)
    rng = random.Random(100 * p + 10 * e + n)
    r = spec.scalar(rng.randrange(p ** 8), 4 + n)
    z = WittVector.from_ints(
        spec, [rng.randrange(p ** 8) for _ in range(n)], arg)
    return tilde_pack(r, z)


@pytest.mark.parametrize("key", sorted(PINNED_EMBEDS))
def test_embed_pinned(key):
    x = _pinned_tilde(*key).embed()
    body = json.dumps([c.to_json() for c in x.components], sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_EMBEDS[key]


def test_embed_ghosts():
    # w_0 = r and w_i = r + pi w_(i-1)(tail), through the oracle
    t = _pinned_tilde("generic", 3, 1, 3, True)
    x = t.embed()
    N = x.prec()
    r = TruncSeries.const(SPEC3, ("z1", "z2", "z3"), t.r, 4, N)
    wz = [w.reduce_prec(N) for w in ghost_components(t.tail)]
    assert [w.reduce_prec(N) for w in ghost_components(x)] == \
        [r] + [r + w.mul_pi(1).reduce_prec(N) for w in wz]


# --------------------------------------------------------------------------
# pinned values of from_witt
# --------------------------------------------------------------------------

def _from_witt_operands(kind, p, e, n, case):
    """(x, r) with x_0 = r mod pi^N.  "embed" inverts an embedding; "fiber"
    takes x_0 = r + pi^5 with x.prec() = 8 > N = 5; "rlow" has N = r.prec - n
    = 3 < x.prec(); for series, "const" has constant terms in every
    component and "shifted" passes r + pi^4 with N = 4."""
    spec = BaseRingSpec(p, e)
    rng = random.Random(1000 * p + 100 * e + 10 * n + len(case))
    if kind == "scalar":
        r_int = rng.randrange(p ** 8)
        if case == "embed":
            r = spec.scalar(r_int, 5 + n)
            z = WittVector.from_ints(
                spec, [rng.randrange(p ** 8) for _ in range(n)], 6)
            return tilde_pack(r, z).embed(), r
        x0 = spec.scalar(r_int, 8) + spec.pi(8) ** 5
        rest = [spec.scalar(rng.randrange(p ** 8), 8) for _ in range(n)]
        r = spec.scalar(r_int, (5 if case == "fiber" else 3) + n)
        return WittVector(spec, [x0] + rest), r
    cap = spec.q + 1
    if case == "const":
        vars_ = tuple(f"z{i}" for i in range(1, n + 1))
        tail = WittVector(spec, [
            TruncSeries.gen(spec, vars_, v, cap, 4)
            + TruncSeries.const(spec, vars_, spec.scalar(i + 2, 4), cap, 4)
            for i, v in enumerate(vars_)])
        r = spec.scalar(3 * p + 1, 5 + n)
        return tilde_pack(r, tail).embed(), r
    r = spec.scalar(7 * p + 2, 5 + n)
    x = generic_tilde(spec, r, n, cap, 4).embed()
    if case == "shifted":
        r = r + spec.pi(5 + n) ** 4
    return x, r


# sha256 of the recovered (r, tail) JSON; the values were computed while
# from_witt subtracted f~(r) through the Witt sum and product tables
PINNED_FROM_WITT = {
    ('scalar', 2, 1, 1, 'embed'):
        "5f0b1a46016768b4e8064f781d63247c61ff46ed9fcb0e1b6062bdaae43971a0",
    ('scalar', 2, 1, 1, 'fiber'):
        "a517363775e9751a255f8f3f21ea3c712b812ae42cc1092a99002665eb1c64bc",
    ('scalar', 2, 1, 1, 'rlow'):
        "f8f6b5a272904875add2d9039124e056af2bdba4ff932d3058127ec57850ba3e",
    ('scalar', 2, 1, 2, 'embed'):
        "5dc4e54db57af9d73ce0da38ff56d62fa1fc5da2a76342faac0dd42c0fc73951",
    ('scalar', 2, 1, 2, 'fiber'):
        "122af8c69e89370e3237c7a877e7461541c199632ecd92122cb222846aa1702d",
    ('scalar', 2, 1, 2, 'rlow'):
        "03e5617c726dab5f56a3d3ffc12a9c90c3715a8acf80add826eae7a39a022cc0",
    ('scalar', 3, 1, 2, 'embed'):
        "d826c6f3d0c5d02b5ca5d416684242f2c0fd4d7560de5eacdca93c93f826ac90",
    ('scalar', 3, 1, 2, 'fiber'):
        "825ed94798bfd00d9de4229415539ab23920ad4c8839f7f438c798874f5a2cfa",
    ('scalar', 3, 1, 2, 'rlow'):
        "8b40f00247d99f9d8cd8eab4be1b4f374591bae072a03a73b2cc657878ba84c2",
    ('scalar', 5, 1, 2, 'embed'):
        "b87ad1d11fb93760a198c0edd1ea7ab61827dc5fb750b957550a5de2d57288d1",
    ('scalar', 5, 1, 2, 'fiber'):
        "dc2a4c578acb3ca44c186a3a099620873ed52047b354d1040f3488bb7bb4f89c",
    ('scalar', 5, 1, 2, 'rlow'):
        "f2c2511004bf050d5d5956214f19dfa86c2c15bab9a6c91882f883f37f06d036",
    ('scalar', 5, 2, 1, 'embed'):
        "9d5eb81883d2fe1375e3daad0a615e4dfd90b8c0606f307a793681a462eadd12",
    ('scalar', 5, 2, 1, 'fiber'):
        "7625f1091578ce8045310c1d83e5993e161629e805e1ad5a7c9de5011155a2eb",
    ('scalar', 5, 2, 1, 'rlow'):
        "758be07ea1c92d23cd795b1e894ccf238cad3cb7f59ebe37b834ce217a47c995",
    ('series', 2, 1, 1, 'const'):
        "0704fb5e51cb04c7c2b625609d66b42fd625af905d2309aad524b214398f9fc6",
    ('series', 2, 1, 1, 'embed'):
        "7331f2d271f837fad22fe4bab19d74ad661bb18490dbb39af8e926b2bfd75a70",
    ('series', 2, 1, 1, 'shifted'):
        "ea03f3d143c51bf1ad4682ea4c4bcfc47a1fe415df238515b1dca552c5abd259",
    ('series', 2, 1, 2, 'const'):
        "9412042d7dc136d3e987af332b5a8ac2f1e0ac4a4a620f757ff073ea948b0d09",
    ('series', 2, 1, 2, 'embed'):
        "e36c2a12323fb31498ab89bcc239f31015b2c7aca41adc5bf712fbf5d2fbd51b",
    ('series', 2, 1, 2, 'shifted'):
        "fa8e9ea36a7592e20e691dd90574d3cb20f7f4181091fae797234372540d2abf",
    ('series', 3, 1, 2, 'const'):
        "a324a4ecb7f5b6f410f6cb8b8e4772962e39f38843c3d8acbd13ad4a56c96a03",
    ('series', 3, 1, 2, 'embed'):
        "714bdec633fe76fb288756d6016a82ff96654e6d8759f4403ba1616a3954ebec",
    ('series', 3, 1, 2, 'shifted'):
        "0de72ca0532a81c7b3f8ba7ccd29a117ed3159c6df9172c51e23dab589117304",
    ('series', 5, 1, 2, 'const'):
        "d5aacc419a59ec6107372956f3cf76842d612cf4624285af9953a8d63555e095",
    ('series', 5, 1, 2, 'embed'):
        "5dc9b680fe029830e229073a322071249e212e6a2d2a45c2f5c9be66aa574e80",
    ('series', 5, 1, 2, 'shifted'):
        "1e832849a54d7031fa9bd0246e1e4d39cb6b01eb3aca6df32066a1c541c4162d",
    ('series', 5, 2, 1, 'const'):
        "7109190e6505cd276135dce30a0739f7f8cd2678eaca61f1e07547c310724106",
    ('series', 5, 2, 1, 'embed'):
        "fa0ddcdbd008411a91cade84da59660831cd75b05d0e587ce13c1708dbe63909",
    ('series', 5, 2, 1, 'shifted'):
        "e89c4bb8f2ff7c20aba880e3306005379f9a075595619e8f98ea15d66727ef05",
}


@pytest.mark.parametrize("key", sorted(PINNED_FROM_WITT))
def test_from_witt_pinned(key):
    t = from_witt(*_from_witt_operands(*key))
    body = json.dumps({"r": t.r.to_json(),
                       "tail": [c.to_json() for c in t.tail.components]},
                      sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_FROM_WITT[key]


def test_tilde_constructor_refusals():
    z = WittVector.from_ints(SPEC3, [1, 2], 6)
    with pytest.raises(IncompatibleSpec, match="R-slot must be a scalar"):
        TildeWittVector(SPEC3, 4, z)
    with pytest.raises(IncompatibleSpec, match="R-slot must be a scalar"):
        TildeWittVector(SPEC3, SPEC2.scalar(1, 6), z)
    with pytest.raises(IncompatibleSpec, match="tail over wrong base ring"):
        TildeWittVector(SPEC3, SPEC3.scalar(1, 6),
                        WittVector.from_ints(SPEC2, [1, 1], 6))
