from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithjet.crystal import (
    build_crystal,
    de_rham_shadow,
    polygons,
    weak_admissibility,
)
from arithjet.errors import Inconclusive, InvalidParameters
from arithjet.ring import BaseRingSpec, PadicScalar

SPEC = BaseRingSpec(5, 1)


def crys(m, lam, gam, prec=4, spec=SPEC):
    l = None if lam is None else spec.scalar(lam, prec)
    return build_crystal(spec, m, l, spec.scalar(gam, prec))


def test_companion_shape():
    c = crys(2, -3, 5)
    (a, b), (d, e) = c.frobenius_matrix
    assert a.is_zero()
    assert b == SPEC.scalar(-5, 4)
    assert d == SPEC.one(4)
    assert e == SPEC.scalar(-3, 4)
    assert c.fil1 == (SPEC.scalar(3, 4), SPEC.one(4))


def test_dim1_shape():
    c = crys(1, None, -5)
    assert c.frobenius_matrix == ((SPEC.scalar(-5, 4),),)
    assert c.fil1 is None


def test_unit_gamma_rejected():
    with pytest.raises(InvalidParameters):
        crys(2, -3, 3)


def test_zero_gamma_inconclusive():
    with pytest.raises(Inconclusive):
        crys(2, -3, 0)


def test_stable_line_eigenvalue_zero_is_inconclusive():
    # with lambda known only mod 5^2, a stable line's eigenvalue is 0
    # modulo its precision, so its valuation, and the slope test on that
    # line, is unknown
    with pytest.raises(Inconclusive,
                       match="stable-line eigenvalue indistinguishable "
                             "from 0"):
        weak_admissibility(build_crystal(SPEC, 2, SPEC.scalar(1, 2),
                                         SPEC.scalar(25, 3)))


def test_stable_line_eigenvalue_zero_at_one_digit_is_inconclusive():
    # lambda at one digit puts both eigenvalues at one digit, where
    # mu2 = gamma / mu1 is 0, so its line's slope is unknown
    crystal = build_crystal(SPEC, 2, SPEC.scalar(1, 1), SPEC.scalar(5, 3))
    with pytest.raises(Inconclusive,
                       match="stable-line eigenvalue indistinguishable "
                             "from 0 at precision"):
        weak_admissibility(crystal)


def test_lambda_required_in_dim2():
    with pytest.raises(InvalidParameters):
        crys(2, None, 5)


def test_polygons_ordinary():
    hodge, newton = polygons(crys(2, -3, 5))
    assert hodge == [Fraction(0), Fraction(1)]
    assert newton == [Fraction(0), Fraction(1)]


def test_polygons_supersingular_shape():
    hodge, newton = polygons(crys(2, 5, 5))
    assert newton == [Fraction(1, 2), Fraction(1, 2)]


def test_polygons_nonunit_lambda_below_half_slope():
    # v(lambda) = 1 <= v(gamma)/2 = 3/2: the Newton slopes are 1 and 3 - 1
    hodge, newton = polygons(crys(2, 5, 125))
    assert newton == [Fraction(1), Fraction(2)]


def test_polygons_dim1():
    hodge, newton = polygons(crys(1, None, -5))
    assert hodge == [Fraction(1)] and newton == [Fraction(1)]


def test_newton_above_hodge_with_equal_endpoints():
    for c in (crys(2, -3, 5), crys(2, 5, 5), crys(1, None, -5)):
        hodge, newton = polygons(c)
        assert sum(hodge) == sum(newton)
        # newton lies on or above hodge: partial sums from the top
        assert sorted(newton)[0] >= sorted(hodge)[0]


SYNTHETIC = [
    # (gamma, lambda, admissible): admissible iff v(gamma) == 1
    (5, 1, True), (5, 5, True), (10, 1, True), (10, 5, True),
    (25, 1, False), (25, 5, False), (50, 1, False), (50, 5, False),
]


@pytest.mark.parametrize("gam,lam,want", SYNTHETIC)
def test_weak_admissibility_synthetic_sweep(gam, lam, want):
    cert = weak_admissibility(crys(2, lam, gam))
    assert (cert["verdict"] == "admissible") is want
    assert cert["closed_form_v_gamma_1"] is want


def test_weak_admissibility_dim1():
    assert weak_admissibility(crys(1, None, -5))["verdict"] == "admissible"
    assert (weak_admissibility(crys(1, None, 25))["verdict"]
            == "not_admissible")


def test_weak_admissibility_certificate_contents():
    cert = weak_admissibility(crys(2, -3, 5, prec=5))
    assert cert["top"]["equal"] is True
    # the ordinary case has two Frobenius-stable lines, both transverse
    # to the filtration line
    assert len(cert["subobjects"]) == 2
    assert all(s["ok"] for s in cert["subobjects"])
    assert not any(s["is_fil1"] for s in cert["subobjects"])
    slopes = sorted(s["t_N"] for s in cert["subobjects"])
    assert slopes == ["0", "1"]


def _line(mu, t_N):
    return {"mu": mu, "t_H": "0", "t_N": t_N, "ok": True, "is_fil1": False}


def _top(t_N, equal):
    return {"t_H": "1", "t_N": t_N, "equal": equal}


SPEC2 = BaseRingSpec(5, 2)

# certificates pinned from the stable-line loop that compared each line
# with fil1 and cross-checked the closed form
PINNED_CERTIFICATES = {
    "dim1-gamma-5": (
        lambda: crys(1, None, -5),
        {"subobjects": [], "closed_form_v_gamma_1": True,
         "top": _top("1", True), "verdict": "admissible"}),
    "dim1-gamma25": (
        lambda: crys(1, None, 25),
        {"subobjects": [], "closed_form_v_gamma_1": False,
         "top": _top("2", False), "verdict": "not_admissible"}),
    "unit-lambda-e1": (
        lambda: crys(2, -3, 5, prec=5),
        {"subobjects": [
            _line({"digits": [2907], "prec": 5, "pi_power_basis": 1}, "0"),
            _line({"digits": [215], "prec": 5, "pi_power_basis": 1}, "1")],
         "closed_form_v_gamma_1": True, "top": _top("1", True),
         "verdict": "admissible"}),
    "unit-lambda-e2": (
        lambda: build_crystal(SPEC2, 2, SPEC2.one(5), SPEC2.pi(5)),
        {"subobjects": [
            _line({"digits": [121, 14], "prec": 5, "pi_power_basis": 2},
                  "0"),
            _line({"digits": [5, 11], "prec": 5, "pi_power_basis": 2}, "1")],
         "closed_form_v_gamma_1": True, "top": _top("1", True),
         "verdict": "admissible"}),
    "lambda5": (
        lambda: crys(2, 5, 5),
        {"subobjects": [], "closed_form_v_gamma_1": True,
         "top": _top("1", True), "verdict": "admissible"}),
    "lambda0": (
        lambda: crys(2, 0, 5),
        {"subobjects": [], "closed_form_v_gamma_1": True,
         "top": _top("1", True), "verdict": "admissible"}),
    "gamma25": (
        lambda: crys(2, -3, 25),
        {"subobjects": [
            _line({"digits": [422], "prec": 4, "pi_power_basis": 1}, "0"),
            _line({"digits": [200], "prec": 4, "pi_power_basis": 1}, "2")],
         "closed_form_v_gamma_1": False, "top": _top("2", False),
         "verdict": "not_admissible"}),
}


@pytest.mark.parametrize("case", sorted(PINNED_CERTIFICATES))
def test_weak_admissibility_pinned_certificates(case):
    make, want = PINNED_CERTIFICATES[case]
    assert weak_admissibility(make()) == want


PE_CASES = ((3, 1), (5, 1), (7, 1), (5, 2), (5, 3), (7, 2))


@st.composite
def _lambda_gamma(draw):
    """(spec, prec, lambda, gamma): lambda a unit or a pi-multiple, and
    v(gamma) >= 1, both at one shared precision."""
    p, e = draw(st.sampled_from(PE_CASES))
    spec = BaseRingSpec(p, e)
    prec = draw(st.integers(1, 7))

    def unit():
        digits = draw(st.lists(st.integers(0, p ** 8), min_size=e,
                               max_size=e))
        digits[0] += draw(st.integers(1, p - 1)) - digits[0] % p
        return PadicScalar(spec, digits, 7)

    lam = unit().mul_pi(draw(st.integers(0, 3))).reduce_prec(prec)
    gamma = unit().mul_pi(draw(st.integers(1, 7))).reduce_prec(prec)
    return spec, prec, lam, gamma


@given(_lambda_gamma())
@settings(max_examples=200, deadline=None)
def test_weak_admissibility_is_the_top_comparison(data):
    spec, prec, lam, gamma = data
    if gamma.is_zero():
        with pytest.raises(Inconclusive):
            build_crystal(spec, 2, lam, gamma)
        return
    cert = weak_admissibility(build_crystal(spec, 2, lam, gamma))
    admissible = cert["verdict"] == "admissible"
    assert admissible is (gamma.valuation() == 1)
    assert cert["closed_form_v_gamma_1"] is admissible
    assert cert["top"]["equal"] is admissible
    assert cert["top"]["t_N"] == str(gamma.valuation())
    # no stable line is fil1, so every one passes with t_H = 0
    assert all(s["t_H"] == "0" and s["ok"] and not s["is_fil1"]
               for s in cert["subobjects"])
    assert len(cert["subobjects"]) == (2 if lam.is_unit() else 0)
    if lam.is_unit():
        mu1, mu2 = (PadicScalar(spec, s["mu"]["digits"], s["mu"]["prec"])
                    for s in cert["subobjects"])
        assert mu1.prec == mu2.prec == prec
        assert (mu1 + mu2 - lam).is_zero()
        assert (mu1 * mu2 - gamma).is_zero()


def test_weak_admissibility_ramified():
    spec = BaseRingSpec(5, 2)
    good = build_crystal(spec, 2, spec.one(5), spec.one(5).mul_pi(1))
    assert weak_admissibility(good)["verdict"] == "admissible"
    bad = build_crystal(spec, 2, spec.one(5), spec.one(5).mul_pi(2))
    assert weak_admissibility(bad)["verdict"] == "not_admissible"


def test_de_rham_shadow():
    c = crys(2, -3, 5)
    rep = de_rham_shadow(c)
    assert rep["phi_injective"] is True
    # Upsilon of the normalized theta_m is -gamma/pi, at one digit fewer
    assert rep["gamma_over_pi"] == {"digits": [1], "prec": 3,
                                    "pi_power_basis": 1}
    assert rep["upsilon_theta_m"] == {"digits": [124], "prec": 3,
                                      "pi_power_basis": 1}
    assert rep["rows"] == {"X_prim_rank": 1, "H_rank": 2, "I_rank": 1}


def test_to_json_serialization():
    j = crys(2, -3, 5).to_json()
    assert j["m"] == 2 and j["dim"] == 2
    assert j["Gamma"][1][0]["digits"] == [1]
    assert j["gamma"] == {"digits": [5], "prec": 4, "pi_power_basis": 1}
    assert j["fil1"][0]["digits"] == [3]
