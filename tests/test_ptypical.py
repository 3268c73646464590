"""The p-typical groups `crystal` solves: the closed-form invariant
differential against its defining equation 2 w omega = t w' - w, the
Hasse and Dwork congruences it satisfies, and the characters it gives
against those of the full group."""

import pytest
from law_oracle import multiplicative_law

from arithjet import fgl
from arithjet.characters import (
    extract_lambda_gamma,
    rank_table,
    solve_delta_characters,
    splitting_number,
)
from arithjet.errors import BadReduction, IncompatibleSpec
from arithjet.fgl import (
    formal_group_from_weierstrass,
    frobenius_unit_root,
    log_denominator_exponent,
    ptypical_multiplicative,
    ptypical_weierstrass,
    trace_of_frobenius,
    weierstrass_omega_coeffs,
)
from arithjet.ring import BaseRingSpec
from arithjet.series import TruncSeries


# good reduction at each (p, e); a4 = 0, a6 = 0, negative and non-reduced
# coefficients among them
OMEGA_CURVES = [
    (3, 1, 1, 1, 60), (3, 1, -1, 4, 60), (3, 1, 2, 0, 60),
    (5, 1, 1, 1, 60), (5, 1, 0, 1, 60), (5, 1, 2, 0, 60),
    (5, 1, -7, 27, 60), (5, 2, 1, 1, 40), (5, 2, 0, -3, 40),
    (7, 1, 3, 5, 60), (7, 1, 0, 1, 60), (7, 2, 8, -1, 40),
    (10007, 1, 12, -7, 40), (10007, 1, 0, 10008, 40),
]


def _solves_its_defining_equation(spec, a4, a6, omega, N):
    # omega dt = dx/(2y) with x = t/w, y = -1/w, so 2 w omega = t w' - w;
    # over t^3, with w = sum c_k t^k: 2 omega sum c_k t^(k - 3) =
    # sum (k - 1) c_k t^(k - 3), to the degree cap D of omega
    D = omega.cap
    w = fgl._weierstrass_w(spec, a4, a6, D + 3, N)
    W = TruncSeries(spec, ("T",), {(k - 3,): d
                                   for (k,), d in w.coeffs.items()}, D, N)
    tw = TruncSeries(spec, ("T",), {(k - 3,): [(k - 1) * x for x in d]
                                    for (k,), d in w.coeffs.items()}, D, N)
    return (W * omega).int_mul(2) == tw


@pytest.mark.parametrize("p,e,a4,a6,D", OMEGA_CURVES)
def test_closed_form_is_the_newton_invariant_differential(p, e, a4, a6, D):
    # omega = sum_m u_m T^(2m), the expansion that Newton's iteration
    # used to give: no odd degree, and 2 w omega = t w' - w, which a
    # wrong u_m fails, since w/t^3 is a unit and p is odd
    N = 6
    spec = BaseRingSpec(p, e)
    a4, a6 = spec.scalar(a4, N), spec.scalar(a6, N)
    omega = formal_group_from_weierstrass(spec, a4, a6, D).omega
    assert all(k % 2 == 0 for (k,) in omega.coeffs)
    assert _solves_its_defining_equation(spec, a4, a6, omega, N)
    top = TruncSeries(spec, ("T",), {(D - D % 2,): spec.one(N).digits}, D,
                      N)
    assert not _solves_its_defining_equation(spec, a4, a6, omega + top, N)


def test_closed_form_at_p_typical_degrees_of_a_deep_cap():
    # at D = 625 the full omega solves its equation, and the p-typical
    # group keeps exactly its T^(p^k - 1) terms
    spec, N, D = BaseRingSpec(5), 7, 625
    one = spec.scalar(1, N)
    omega = formal_group_from_weierstrass(spec, one, one, D).omega
    assert _solves_its_defining_equation(spec, one, one, omega, N)
    ms = [(5 ** k - 1) // 2 for k in range(5)]
    F = ptypical_weierstrass(spec, 1, 1, D, N)
    assert sorted(F.omega.coeffs) == [(5 ** k - 1,) for k in range(5)]
    assert all(F.omega.coeff((2 * m,)) == omega.coeff((2 * m,))
               for m in ms)


def _hasse(p, a4, a6, ap):
    u, = weierstrass_omega_coeffs(p, a4, a6, [(p - 1) // 2], 1)
    return (u - ap) % p == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_hasse_invariant_is_the_trace_mod_p(p):
    # u_((p-1)/2) = a_p mod p (Silverman, AEC V.4), at every curve of good
    # reduction over F_p; a wrong trace fails it
    spec = BaseRingSpec(p)
    good = 0
    for a4 in range(p):
        for a6 in range(p):
            if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
                continue
            ap = trace_of_frobenius(spec, spec.scalar(a4, 1),
                                    spec.scalar(a6, 1))
            assert _hasse(p, a4, a6, ap)
            assert not _hasse(p, a4, a6, ap + 1)
            good += 1
    assert good == p * p - p


def _dwork(p, u, alpha, k):
    # u_((p^(k+1)-1)/2) = alpha u_((p^k-1)/2) mod p^(k+1)
    return (u[k + 1] - alpha * u[k]) % p ** (k + 1) == 0


@pytest.mark.parametrize("p,a4,a6", [(5, 1, 1), (7, 1, 1), (5, 2, 0),
                                     (11, 3, 7)])
def test_dwork_congruence_gives_the_unit_root(p, a4, a6):
    # in the ordinary case the p-typical coefficients climb by the unit
    # root alpha of x^2 - a_p x + p (Dwork 1969; Katz 1973); a root off
    # by p, or a dropped coefficient, fails it
    spec = BaseRingSpec(p)
    ap = trace_of_frobenius(spec, spec.scalar(a4, 1), spec.scalar(a6, 1))
    assert ap % p
    u = weierstrass_omega_coeffs(p, a4, a6,
                                 [(p ** k - 1) // 2 for k in range(6)], 5)
    for k in range(1, 5):
        alpha = frobenius_unit_root(spec, ap, k + 1).digits[0]
        assert _dwork(p, u, alpha, k)
        assert not _dwork(p, u, alpha + p, k)
        assert not _dwork(p, u[:k + 1] + [0] + u[k + 2:], alpha, k)


def test_p_typical_group_builds_no_law():
    spec = BaseRingSpec(5)
    for F in (ptypical_weierstrass(spec, 1, 1, 27, 3),
              ptypical_multiplicative(spec, 27, 3)):
        with pytest.raises(IncompatibleSpec, match="law is not built"):
            F.law
    assert ptypical_weierstrass(spec, 1, 1, 27, 3).curve \
        == (spec.scalar(1, 3), spec.scalar(1, 3))


def test_p_typical_curve_keeps_the_bad_reduction_check():
    # the full curve's check, with its message
    spec = BaseRingSpec(7)
    with pytest.raises(BadReduction) as full:
        formal_group_from_weierstrass(spec, spec.scalar(1, 3),
                                      spec.scalar(2, 3), 27)
    with pytest.raises(BadReduction) as typical:
        ptypical_weierstrass(spec, 1, 2, 27, 3)
    assert str(typical.value) == str(full.value)


def _invariants(F, nmax):
    m = splitting_number(F)
    lam, gamma = extract_lambda_gamma(solve_delta_characters(F, m)[0][0])
    return (m, None if lam is None else lam.to_json(), gamma.to_json(),
            rank_table(F, nmax).to_json())


# (p, e, a4, a6): ordinary and supersingular curves; None is the
# multiplicative law
EQUIV_GROUPS = [
    (3, 1, 1, 1), (3, 1, 2, 0),
    (5, 1, 1, 1), (5, 1, 0, 1),
    (5, 2, 7, 11), (5, 2, 0, 1),
    (7, 1, 1, 1), (7, 1, 1, 0),
    (3, 1, None, None), (5, 1, None, None), (5, 2, None, None),
    (7, 1, None, None),
]


@pytest.mark.parametrize("p,e,a4,a6,D", [
    g + (D,) for g in EQUIV_GROUPS for D in (11, 27, 51, 130)
    if D > g[0] ** 2])
def test_p_typical_group_has_the_invariants_of_the_full_group(p, e, a4,
                                                             a6, D):
    # m, lambda, gamma and the rank table at M digits, from the
    # p-typification and from the full group; the rank
    # table's kernel order 3 needs D > p^2
    spec = BaseRingSpec(p, e)
    M = log_denominator_exponent(spec, D) + 1
    if a4 is None:
        full = multiplicative_law(spec, D, M)
        typical = ptypical_multiplicative(spec, D, M)
    else:
        full = formal_group_from_weierstrass(
            spec, spec.scalar(a4, M), spec.scalar(a6, M), D)
        typical = ptypical_weierstrass(spec, a4, a6, D, M)
    assert _invariants(typical, 3) == _invariants(full, 3)

