import pytest

from arithjet.characters import (
    expand_in_psi_basis,
    extract_lambda_gamma,
    frobenius_pullback,
    ghost_witt_polynomials,
    i_star,
    jet_group_law,
    kernel_group_law,
    lateral_pullback,
    log_ghost_generators,
    psi_basis,
    rank_table,
    solve_additive,
    solve_delta_characters,
    splitting_number,
    u_star,
    upsilon,
)
from arithjet.errors import DegreeCapTooSmall
from arithjet.fgl import (
    formal_group_from_weierstrass,
    formal_logarithm,
    multiplicative_law,
)
from arithjet.howell import module_rank
from arithjet.ring import BaseRingSpec

N_DESK = 6


# ---------------------------------------------------------------------------
# solver ranks
# ---------------------------------------------------------------------------

def test_kernel_ranks_are_n(curve5):
    for n in (1, 2, 3):
        _, rank = solve_additive(kernel_group_law(curve5, n))
        assert rank == n


def test_jet_ranks_ordinary(curve5):
    for n, want in ((1, 0), (2, 1), (3, 2)):
        _, rank = solve_delta_characters(curve5, n)
        assert rank == want


def test_jet_ranks_supersingular(curve5_ss):
    for n, want in ((1, 0), (2, 1)):
        _, rank = solve_delta_characters(curve5_ss, n)
        assert rank == want


def test_jet_rank_multiplicative(mult5):
    chars, rank = solve_delta_characters(mult5, 1)
    assert rank == 1


def test_splitting_numbers(curve5, mult5):
    assert splitting_number(curve5) == 2
    assert splitting_number(mult5) == 1


@pytest.mark.parametrize("p,e,D", [(3, 1, 9), (5, 2, 7)])
def test_solved_characters_are_additive(p, e, D):
    # additivity verified against the explicit product law at a degree
    # cap where building the 2n-variable law is cheap; the ramified case
    # covers the solve where pi is not p
    E = _curve(p, e, D)
    for law, want in ((kernel_group_law(E, 2), 2), (jet_group_law(E, 2), 1)):
        chars, rank = solve_additive(law)
        assert rank == len(chars) == want
        for ch in chars:
            assert ch.check_additive(law)


def _curve(p, e, D):
    spec = BaseRingSpec(p, e)
    return formal_group_from_weierstrass(
        spec, spec.scalar(1, N_DESK + 4), spec.scalar(1, N_DESK + 4), D)


def test_solve_returns_a_fresh_list():
    law = kernel_group_law(_curve(3, 1, 11), 1)
    chars, rank = solve_additive(law)
    kept = list(chars)
    chars.clear()
    again, rank_again = solve_additive(law)
    assert rank_again == rank == 1
    assert len(again) == len(kept)
    assert all(a is b for a, b in zip(again, kept))


def test_degree_cap_too_small_raises_on_every_call():
    law = kernel_group_law(_curve(3, 1, 9), 3)  # needs D >= 3^2 + 1
    for _ in range(2):
        with pytest.raises(DegreeCapTooSmall):
            solve_additive(law)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 2)])
def test_shared_generators_match_direct_substitution(p, e):
    # the shared l_i, padded (jet) or restricted to x0 = 0 (kernel), equal
    # L(w_i) and L(kappa_i) substituted over the order-n variables
    E = _curve(p, e, 27)
    L = formal_logarithm(E)
    for kind, orders in (("jet", range(0, 4)), ("kernel", range(1, 4))):
        for n in orders:
            vars_, gens = log_ghost_generators(E, n, kind)
            wvars, ws = ghost_witt_polynomials(E.spec, n, kind, E.cap,
                                               E.prec)
            assert vars_ == wvars and len(gens) == len(ws)
            extra = 1 if kind == "kernel" else 0
            for g, w in zip(gens, ws):
                direct = L.substitute({"T": w})
                assert g.shift == direct.shift + extra
                assert ((g.num.vars, g.num.cap, g.num.prec, g.num.coeffs)
                        == (direct.num.vars, direct.num.cap,
                            direct.num.prec, direct.num.coeffs))


# ---------------------------------------------------------------------------
# the Psi tower
# ---------------------------------------------------------------------------

def test_psi_linear_parts(psis3_5, spec5):
    for i, psi in enumerate(psis3_5, start=1):
        s = psi.series()
        for j in range(1, 4):
            c = s.linear_coeff(f"x{j}")
            if j == i:
                assert c == spec5.one(c.prec - i + 1).mul_pi_power(i - 1)
            else:
                assert c.is_zero()


def test_psi_mod_pi_echelon(psis3_5, spec5):
    q = spec5.q
    for i, psi in enumerate(psis3_5, start=1):
        res = psi.series().residue_coeffs()
        lead = min(res, key=sum)
        want = tuple(q ** (i - 1) if v == "x1" else 0
                     for v in psi.series().vars)
        assert lead == want


def test_lateral_pullback_tower(curve5, psis3_5):
    # Psi_2 is the lateral pullback of the order-1 Psi_1
    p1 = psi_basis(curve5, 1)[0]
    p2 = u_star(lateral_pullback(p1), 3)
    diff = (p2.frac - psis3_5[1].frac).normalize()
    assert diff.num.is_zero()


def test_expand_in_psi_basis_roundtrip(psis3_5, spec5):
    target = psis3_5[1].scalar_mul(spec5.scalar(3, 6))
    coeffs = expand_in_psi_basis(target, list(psis3_5))
    assert coeffs[0].is_zero() and coeffs[2].is_zero()
    assert coeffs[1] == spec5.scalar(3, coeffs[1].prec)


# ---------------------------------------------------------------------------
# lambda, gamma, upsilon
# ---------------------------------------------------------------------------

def test_lambda_gamma_elliptic(theta2_5, psis2_5, spec5):
    lam, gamma = extract_lambda_gamma(theta2_5, psis2_5)
    # a_5 = -3 for y^2 = x^3 + x + 1, and gamma = p
    assert lam == spec5.scalar(-3, lam.prec)
    assert gamma == spec5.scalar(5, gamma.prec)
    assert gamma.valuation() == 1


def test_gamma_multiplicative(mult5, spec5):
    chars, _ = solve_delta_characters(mult5, 1)
    psis = psi_basis(mult5, 1)
    lam, gamma = extract_lambda_gamma(chars[0], psis)
    assert lam is None
    assert gamma == spec5.scalar(-5, gamma.prec)


def test_upsilon_of_frobenius_pullback_vanishes(theta2_5):
    assert upsilon(frobenius_pullback(theta2_5)).is_zero()


def test_gamma_is_pi_times_a0(theta2_5, psis2_5, spec5):
    lam, gamma = extract_lambda_gamma(theta2_5, psis2_5)
    # gamma = pi * A0 after the unit normalization; the extraction
    # normalizes theta, so recompute A0 from the normalized character
    coeffs = expand_in_psi_basis(i_star(theta2_5), list(psis2_5))
    unit = coeffs[-1]
    a0 = -upsilon(theta2_5.scalar_mul(unit.inverse()))
    prec = min(gamma.prec, a0.prec + 1)
    assert gamma.reduce_prec(prec) == a0.mul_pi_power(1).reduce_prec(prec)


# ---------------------------------------------------------------------------
# rank table
# ---------------------------------------------------------------------------

def test_rank_table_elliptic(table5):
    assert table5.rk_X == [0, 0, 1, 2]
    assert table5.rk_hom == [0, 1, 2, 3]
    assert table5.rk_I == [0, 1, 1, 1]
    assert table5.h == [1, 1, 0, 0]
    assert table5.l == [0, 0, 1, 0]
    assert table5.m_low == 2 and table5.m_up == 2
    table5.check()


def test_rank_table_multiplicative(mult5):
    tab = rank_table(mult5, 2)
    assert tab.m_low == 1 and tab.m_up == 1
    assert tab.h[0] == 1 and tab.h[1] == 0
    tab.check()


def test_rank_table_z3():
    spec = BaseRingSpec(3, 1)
    E = formal_group_from_weierstrass(
        spec, spec.scalar(1, 10), spec.scalar(1, 10), 11)
    tab = rank_table(E, 3)
    assert tab.m_low == tab.m_up <= 2
    assert all(a >= b for a, b in zip(tab.h, tab.h[1:]))
    tab.check()
