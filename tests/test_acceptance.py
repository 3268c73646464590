"""Acceptance battery: the structural theorems checked exactly at desk
scale (p in {2, 3, 5}, n <= 4, D <= p^2 + 2, N = 6)."""

import random

import pytest
from psi_oracle import expand_in_psi_basis

from arithjet.characters import (
    Character,
    extract_lambda_gamma,
    frobenius_pullback,
    i_star,
    jet_group_law,
    kernel_group_law,
    lateral_pullback,
    rank_table,
    solve_additive,
    solve_delta_characters,
    splitting_number,
    upsilon,
)
from arithjet.crystal import build_crystal, weak_admissibility
from arithjet.fgl import (
    formal_group_from_weierstrass,
    formal_logarithm,
    trace_of_frobenius,
)
from arithjet.ring import BaseRingSpec
from arithjet.series import FracSeries, TruncSeries
from arithjet.verify import (
    ghost_components,
    suite_fdid,
    suite_latfrob_congruence,
)
from arithjet.witt import WittVector, frobenius_W, verschiebung

N_DESK = 6

SPEC2 = BaseRingSpec(2, 1)
SPEC3 = BaseRingSpec(3, 1)
SPEC5 = BaseRingSpec(5, 1)


# ---------------------------------------------------------------------------
# 1. ghost/oracle equivalence, 1000 randomized cases per (p, n)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3),
                                 (3, 1), (3, 2), (5, 1), (5, 2)])
def test_ghost_oracle_equivalence_1000(p, n):
    spec = BaseRingSpec(p, 1)
    rng = random.Random(p * 100 + n)
    prec = N_DESK
    bound = p ** prec
    for _ in range(1000):
        x = WittVector.from_ints(
            spec, [rng.randrange(bound) for _ in range(n + 1)], prec)
        y = WittVector.from_ints(
            spec, [rng.randrange(bound) for _ in range(n + 1)], prec)
        wx, wy = ghost_components(x), ghost_components(y)
        for i, w in enumerate(ghost_components(x + y)):
            assert (w - (wx[i] + wy[i])).is_zero()
        for i, w in enumerate(ghost_components(x * y)):
            assert (w - wx[i] * wy[i]).is_zero()


# ---------------------------------------------------------------------------
# 2. FV = pi x on 1000 random vectors; pinned FV != VF; FFV = FVF
# ---------------------------------------------------------------------------

def test_fv_identities_random_and_pinned():
    rng = random.Random(2)
    prec = N_DESK
    bound = 3 ** prec
    pi = SPEC3.pi(prec)
    for _ in range(1000):
        x = WittVector.from_ints(
            SPEC3, [rng.randrange(bound) for _ in range(3)], prec)
        assert frobenius_W(verschiebung(x)) == x.scalar_mul(pi)
    # pinned witness (p = 2): by hand via ghosts, FV(1,0) = (2,-1)
    # while VF(1,0) = (0,1)
    x = WittVector.from_ints(SPEC2, [1, 0], prec)
    assert frobenius_W(verschiebung(x)) == \
        WittVector.from_ints(SPEC2, [2, -1], prec)
    assert verschiebung(frobenius_W(x)) == \
        WittVector.from_ints(SPEC2, [0, 1], prec)
    # FFV = FVF on flat (scalar) algebras
    rng = random.Random(22)
    for _ in range(200):
        x = WittVector.from_ints(
            SPEC3, [rng.randrange(bound) for _ in range(4)], prec)
        assert (frobenius_W(frobenius_W(verschiebung(x)))
                == frobenius_W(verschiebung(frobenius_W(x))))


# ---------------------------------------------------------------------------
# 3. lateral Frobenius component congruence, symbolic, n in {2, 3}
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_lateral_frobenius_congruence_symbolic(spec, n):
    rep = suite_latfrob_congruence(spec, n)
    assert rep["status"] == "pass", rep


# ---------------------------------------------------------------------------
# 4. F^2 o I = F o I o F~ for n in {2, 3, 4}; pinned F o I != I o F~
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,n", [(SPEC2, 2), (SPEC2, 3), (SPEC2, 4),
                                    (SPEC3, 2), (SPEC3, 3)])
def test_f2_I_equals_F_I_Ftilde(spec, n):
    rep = suite_fdid(spec, n)
    assert rep["status"] == "pass", rep


# ---------------------------------------------------------------------------
# 5. solver rank of Hom(N^n, G-hat) equals n for y^2 = x^3 + x + 1 / Z5
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_hom_rank_is_n(curve5, n):
    _, rank = solve_additive(kernel_group_law(curve5, n))
    assert rank == n


# ---------------------------------------------------------------------------
# 6. mod-pi echelon of Psi_1, Psi_2, Psi_3: rank 3, leads x1^(q^(i-1))
# ---------------------------------------------------------------------------

def test_psi_mod_pi_independence(psis3_5, spec5):
    q = spec5.q
    p = spec5.p
    residues = [psi.series().residue_coeffs() for psi in psis3_5]
    monomials = sorted({m for r in residues for m in r},
                       key=lambda m: (sum(m), m))
    rows = [[r.get(m, 0) % p for m in monomials] for r in residues]
    # Gaussian elimination over F_p
    leads = []
    for i, row in enumerate(rows):
        j = next(k for k, v in enumerate(row) if v)
        leads.append(monomials[j])
        inv = pow(row[j], -1, p)
        for i2 in range(i + 1, len(rows)):
            f = (rows[i2][j] * inv) % p
            rows[i2] = [(a - f * b) % p for a, b in zip(rows[i2], row)]
    assert len(leads) == 3  # echelon rank 3: no row vanished
    assert leads == [(1, 0, 0), (q, 0, 0), (q ** 2, 0, 0)]


# ---------------------------------------------------------------------------
# 7. (i o frak-f - phi o i)* Theta_2: only x1, divisible by pi
# ---------------------------------------------------------------------------

def test_comparison_factorization_only_x1(theta2_5, psis3_5):
    lhs = i_star(frobenius_pullback(theta2_5))
    rhs = lateral_pullback(i_star(theta2_5))
    diff = (lhs - rhs).frac.normalize()
    # only x1 appears
    for m in diff.num.coeffs:
        assert all(e == 0 for e in m[1:])
    # diff = gamma Psi_1 with pi | gamma: divisible by pi in the
    # character module
    gamma = (-upsilon(theta2_5)).mul_pi(1)
    assert gamma.valuation() >= 1
    resid = (diff - psis3_5[0].frac.scalar_mul(gamma)).normalize()
    assert resid.num.is_zero()


# ---------------------------------------------------------------------------
# 8. gamma = pi A0 and i* phi* Theta_2 = frak-f*(i* Theta_2) + gamma Psi_1
# ---------------------------------------------------------------------------

def test_gamma_equals_pi_a0_identity(theta2_5, psis2_5, psis3_5, spec5):
    lam, gamma = extract_lambda_gamma(theta2_5)
    # normalize theta the same way the extraction does
    unit = expand_in_psi_basis(i_star(theta2_5), list(psis2_5))[-1]
    theta = Character("jet", 2, theta2_5.frac.scalar_mul(unit.inverse()))
    a0 = -upsilon(theta)
    prec = min(gamma.prec, a0.prec + 1)
    assert gamma.reduce_prec(prec) == a0.mul_pi(1).reduce_prec(prec)
    lhs = i_star(frobenius_pullback(theta))
    rhs = lateral_pullback(i_star(theta))
    resid = ((lhs - rhs).frac
             - psis3_5[0].frac.scalar_mul(a0.mul_pi(1))).normalize()
    assert resid.num.is_zero()


# ---------------------------------------------------------------------------
# 9. lambda integral for >= 5 good-reduction curves over Z3 and Z5
# ---------------------------------------------------------------------------

CURVES = {
    3: [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)],
    5: [(1, 1), (1, 2), (2, 1), (3, 2), (1, 3)],
}


@pytest.mark.parametrize("p", [3, 5])
def test_lambda_integral_many_curves(p):
    spec = BaseRingSpec(p, 1)
    D = p * p + 2
    prec = N_DESK + 4
    assert len(CURVES[p]) >= 5
    for a4, a6 in CURVES[p]:
        disc = -16 * (4 * a4 ** 3 + 27 * a6 ** 2)
        assert disc % p != 0
        F = formal_group_from_weierstrass(
            spec, spec.scalar(a4, prec), spec.scalar(a6, prec), D)
        m = splitting_number(F)
        assert m == 2
        chars, _ = solve_delta_characters(F, 2)
        lam, gamma = extract_lambda_gamma(chars[0])
        # integrality (a violation raises IntegralityViolation upstream;
        # re-assert the valuation here)
        assert lam.is_zero() or lam.valuation() >= 0
        assert gamma.valuation() >= 1


# ---------------------------------------------------------------------------
# 10. companion shape, pi | gamma, weak admissibility = closed form on
#     the 8-case synthetic sweep
# ---------------------------------------------------------------------------

def test_crystal_shape_and_admissibility_sweep(theta2_5, spec5):
    lam, gamma = extract_lambda_gamma(theta2_5)
    assert gamma.valuation() >= 1
    crys = build_crystal(spec5, 2, lam, gamma)
    (a, b), (c, d) = crys.frobenius_matrix
    assert a.is_zero() and c == spec5.one(c.prec)
    assert b == -gamma and d == lam.reduce_prec(d.prec)
    assert weak_admissibility(crys)["verdict"] == "admissible"
    # synthetic sweep: admissible iff v(gamma) = 1
    for gam_int, want in ((5, True), (10, True), (25, False), (50, False)):
        for lam_int in (1, 5):
            cc = build_crystal(spec5, 2, spec5.scalar(lam_int, 4),
                               spec5.scalar(gam_int, 4))
            cert = weak_admissibility(cc)
            assert (cert["verdict"] == "admissible") is want
            assert cert["closed_form_v_gamma_1"] is want


# ---------------------------------------------------------------------------
# 11. rank arithmetic asserted on every pipeline run
# ---------------------------------------------------------------------------

def test_rank_arithmetic_consistency(table5, mult5):
    for tab in (table5, rank_table(mult5, 2)):
        tab.check()  # h decreasing, l_n = h_(n-1) - h_n, m_low = m_up <= 2
        assert all(a >= b for a, b in zip(tab.h, tab.h[1:]))
        assert all(l == a - b for l, a, b
                   in zip(tab.l[1:], tab.h, tab.h[1:]))
        assert tab.m_low == tab.m_up <= 2
        # rk H = m <= 2g with g = 1
        assert tab.m_up <= 2


# ---------------------------------------------------------------------------
# 12. Upsilon(phi* Theta) = 0 for every computed Theta
# ---------------------------------------------------------------------------

def test_upsilon_kills_frobenius_pullback(theta2_5, mult5):
    assert upsilon(frobenius_pullback(theta2_5)).is_zero()
    chars, _ = solve_delta_characters(mult5, 1)
    assert upsilon(frobenius_pullback(chars[0])).is_zero()


# ---------------------------------------------------------------------------
# 13. multiplicative analog: m = 1, pinned Theta_1, gamma = -p
# ---------------------------------------------------------------------------

def test_multiplicative_analog_pinned(mult5, spec5):
    assert splitting_number(mult5) == 1
    chars, _ = solve_delta_characters(mult5, 1)
    theta = chars[0]
    c = theta.series().linear_coeff("x1")
    theta = Character("jet", 1, theta.frac.scalar_mul(c.inverse()))
    # pinned reference: (1/pi) (log(1 + x0^q + pi x1) - q log(1 + x0))
    L = formal_logarithm(mult5)
    cap = theta.frac.num.cap
    prec = L.num.prec
    x0 = TruncSeries.gen(spec5, ("x0", "x1"), "x0", cap, prec)
    x1 = TruncSeries.gen(spec5, ("x0", "x1"), "x1", cap, prec)
    arg = x0 ** spec5.q + x1.mul_pi(1).reduce_prec(prec)
    ref = FracSeries(L.num.substitute({"T": arg}), L.shift) \
        - FracSeries(L.num.substitute({"T": x0}), L.shift).scalar_mul(
            spec5.scalar(spec5.q, prec))
    ref = FracSeries(ref.num, ref.shift + 1)
    diff = theta.frac - ref
    aligned = diff.aligned(max(diff.shift, 0))
    # the solved coefficient vector is pinned modulo pi^M (M = 3 at
    # D = 27); a monomial of degree >= q^k inherits k fewer digits from
    # the log denominators, so the match is graded: exact mod pi^(M-k)
    M = 3
    q = spec5.q
    from arithjet.ring import PadicScalar
    for m, d in aligned.num.coeffs.items():
        deg = sum(m)
        k = 0
        while q ** (k + 1) <= deg:
            k += 1
        need = max(1, M - k) + aligned.shift
        v = PadicScalar(spec5, d, aligned.num.prec).valuation()
        assert v is None or v >= need, (m, v, need)
    # gamma = -p
    lam, gamma = extract_lambda_gamma(chars[0])
    assert lam is None
    assert gamma == spec5.scalar(-5, gamma.prec)
