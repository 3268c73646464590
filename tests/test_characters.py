import hashlib
import json
import random
from fractions import Fraction
from operator import mod

import howell_oracle
import pytest
from law_oracle import additive_law, multiplicative_law
from psi_oracle import BasisExpansionFailed, expand_in_psi_basis

from arithjet import characters, witt
from arithjet.characters import (
    Character,
    RankTable,
    extract_lambda_gamma,
    frobenius_pullback,
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
from arithjet.errors import (
    BadReduction,
    DegreeCapTooSmall,
    IncompatibleSpec,
    Inconclusive,
    IntegralityViolation,
    NonNilpotentComposition,
    PrecisionExhausted,
)
from arithjet.fgl import (
    FormalGroupLaw,
    formal_group_from_weierstrass,
    formal_logarithm,
    log_denominator_exponent,
    ptypical_multiplicative,
    ptypical_weierstrass,
    trace_of_frobenius,
)
from arithjet.howell import module_rank, right_kernel_basis
from arithjet.ring import BaseRingSpec, PadicScalar
from arithjet.series import FracSeries, TruncSeries
from arithjet.verify import ghost_components, run_character_suites
from arithjet.witt import WittVector, fgl_eval_witt, verschiebung

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


def test_laws_solve_from_omega_alone(monkeypatch):
    # the additive and multiplicative laws carry omega: their logarithm,
    # characters and rank table read it, and never the bivariate law
    def no_law(self):
        raise AssertionError("the bivariate law was read")

    monkeypatch.setattr(FormalGroupLaw, "law", property(no_law))
    spec, D, N = BaseRingSpec(5), 27, 3
    add, mult = additive_law(spec, D, N), multiplicative_law(spec, D, N)
    # L = T and log(1 + T) = sum_k (-1)^(k+1) T^k / k, carried as
    # 5^(-2) * num at D = 27: num's coefficients are 25 c_k mod 5^3
    logs = {add: {1: Fraction(1)},
            mult: {k: Fraction((-1) ** (k + 1), k) for k in range(1, D + 1)}}
    for F, c in logs.items():
        L = formal_logarithm(F)
        assert L.shift == 2
        assert L.num.coeffs == TruncSeries(spec, ("T",), {
            (k,): ((25 * x).numerator * pow((25 * x).denominator, -1, 125),)
            for k, x in c.items()}, D, N).coeffs
    assert solve_delta_characters(add, 1)[1] == 0
    assert solve_delta_characters(mult, 1)[1] == 1
    assert rank_table(mult, 3).rk_X == [0, 1, 2, 3]


def test_splitting_numbers(curve5, mult5):
    assert splitting_number(curve5) == 2
    assert splitting_number(mult5) == 1


def test_splitting_number_without_characters_is_inconclusive(
        curve5, monkeypatch):
    monkeypatch.setattr(characters, "solve_delta_characters",
                        lambda F, n: ([], 0))
    with pytest.raises(Inconclusive, match="order <= 2"):
        splitting_number(curve5)


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


def _shared_kernel(F, n):
    """The order-n solutions on the first n + 1 columns of F's jet
    lattice, as `_solve_log` takes them."""
    _, M, columns = characters.jet_lattice(F, n)
    return right_kernel_basis(F.spec, columns[:(n + 1) * min(F.spec.e, M)],
                              M)


def _digits(kernel):
    return [[(x.digits, x.prec) for x in v] for v in kernel]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_shared_lattice_equals_the_per_order_lattices(e):
    # one lattice, built for the top order, gives at every order n <= 4
    # the vectors, in the same order, of the lattice of l_0..l_n alone, on
    # seeded ordinary and supersingular curves and the multiplicative law;
    # at D = 126 the supersingular l_1 has monomials that l_0 lacks
    spec, D, nmax = BaseRingSpec(5, e), 126, 4
    M = log_denominator_exponent(spec, D) + 1
    rng = random.Random(5000 + e)
    laws = [multiplicative_law(spec, D, M + 1)]
    while len(laws) < 4:
        # two ordinary curves, then y^2 = x^3 + a6, supersingular at p = 5
        a4 = rng.randrange(-50, 50) if len(laws) < 3 else 0
        a6 = rng.randrange(-50, 50)
        try:
            F = formal_group_from_weierstrass(
                spec, spec.scalar(a4, M + 1), spec.scalar(a6, M + 1), D)
        except BadReduction:
            continue
        if (trace_of_frobenius(spec, *F.curve) % 5 != 0) == (len(laws) < 3):
            laws.append(F)
    solved = grown = 0
    for F in laws:
        lattice = characters.jet_lattice(F, nmax)
        _, _, columns = lattice
        d = min(e, M)
        grown += sum(not any(col[r] for col in columns[:d])
                     and any(col[r] for col in columns[d:])
                     for r in range(len(columns[0])))
        for n in range(nmax + 1):
            gens = [characters._log_ghost(F, i) for i in range(n + 1)]
            row = characters.unit_root_row(F, n, M)
            want = howell_oracle.per_order_lattice_solve(
                spec, gens, M, () if row is None else (row,))
            assert _digits(_shared_kernel(F, n)) == _digits(want)
            assert characters.jet_lattice(F, n) is lattice
            solved += len(want)
    assert solved and grown


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (5, 2)])
@pytest.mark.parametrize("D", [11, 27])
def test_lattice_solve_equals_the_reduced_rows(p, e, D):
    # generators known to N = M + 3 digits, their stored digit tuples as
    # rows, give the generators of the rows reduced to M before the kernel,
    # which had no row for a monomial zero mod pi^M (e = 2 needs p >= 5)
    spec = BaseRingSpec(p, e)
    M = log_denominator_exponent(spec, D) + 1
    mods = spec.moduli(M)
    rng = random.Random(100 * p + 10 * e + D)
    laws, zero_rows, solved = [multiplicative_law(spec, D, M + 3)], 0, 0
    while len(laws) < 4:
        a4, a6 = rng.randrange(-50, 50), rng.randrange(-50, 50)
        try:
            laws.append(formal_group_from_weierstrass(
                spec, spec.scalar(a4, M + 3), spec.scalar(a6, M + 3), D))
        except BadReduction:
            pass
    for F in laws:
        for n in (1, 2, 3):
            _, gens = log_ghost_generators(F, n, "jet")
            assert {g.num.prec for g in gens} == {M + 3}
            assert gens[0].shift + 1 == M
            row = characters.unit_root_row(F, n, M)
            extra = () if row is None else (row,)
            got = _shared_kernel(F, n)
            want = howell_oracle.lattice_solve(spec, gens, M, extra)
            assert [[x.digits for x in v] for v in got] \
                == [[x.digits for x in v] for v in want]
            solved += len(got)
            zero_rows += sum(
                not any(any(map(mod, g.num.coeffs.get(m, ()), mods))
                        for g in gens)
                for m in {m for g in gens for m in g.num.coeffs})
    assert solved and zero_rows


@pytest.mark.parametrize("p,e,D", [(3, 1, 27), (5, 1, 27), (5, 2, 27),
                                   (7, 2, 51)])
def test_lattice_solve_pads_the_unpadded_generators(p, e, D):
    # the l_i over jet_vars(i) give the rows, in the same monomial order,
    # and so the same kernel digits, as the l_i padded to jet_vars(n)
    spec = BaseRingSpec(p, e)
    M = log_denominator_exponent(spec, D) + 1
    rng = random.Random(1000 * p + 100 * e + D)
    laws = [multiplicative_law(spec, D, M)]
    while len(laws) < 4:
        a4, a6 = rng.randrange(-50, 50), rng.randrange(-50, 50)
        try:
            laws.append(formal_group_from_weierstrass(
                spec, spec.scalar(a4, M + 1), spec.scalar(a6, M + 1), D))
        except BadReduction:
            pass
    solved = 0
    for F in laws:
        for n in (0, 1, 2, 3):
            _, padded = log_ghost_generators(F, n, "jet")
            unpadded = [characters._log_ghost(F, i) for i in range(n + 1)]
            assert [len(g.num.vars) for g in unpadded] == list(
                range(1, n + 2))
            row = characters.unit_root_row(F, n, M)
            extra = () if row is None else (row,)
            got = _shared_kernel(F, n)
            want = howell_oracle.per_order_lattice_solve(spec, padded, M,
                                                         extra)
            assert _digits(got) == _digits(want)
            solved += len(got)
    assert solved


@pytest.mark.parametrize("p,e,D", [(5, 1, 27), (3, 1, 11), (5, 2, 27)])
def test_kernel_module_is_the_psi_basis(p, e, D, monkeypatch):
    # the module of N^n is free on Psi_1..Psi_n: no lattice is solved
    def no_lattice(*args):
        raise AssertionError("a kernel module reached the lattice")

    monkeypatch.setattr(characters, "right_kernel_basis", no_lattice)
    F = _curve(p, e, D)
    for n in (1, 2):
        chars, rank = solve_additive(kernel_group_law(F, n))
        assert rank == n
        for got, want in zip(chars, psi_basis(F, n)):
            assert got.frac.shift == want.frac.shift == 0
            assert got.series() == want.series()
            assert got.series().prec == want.series().prec


def test_non_integral_psi_is_an_integrality_violation(monkeypatch):
    # a Psi_i that keeps a denominator is a red alert, not a module of
    # rank < n
    real = characters.log_ghost_generators

    def spoiled(F, n, kind):
        vars_, gens = real(F, n, kind)
        g = gens[-1]
        unit = TruncSeries.gen(F.spec, vars_, vars_[0], g.num.cap, g.num.prec)
        return vars_, gens[:-1] + [FracSeries(g.num + unit, g.shift)]

    monkeypatch.setattr(characters, "log_ghost_generators", spoiled)
    with pytest.raises(IntegralityViolation, match="not integral"):
        solve_additive(kernel_group_law(_curve(5, 1, 27), 2))


def test_kernel_law_below_modulus_is_precision_exhausted():
    # 2 digits against the denominator pi^3 of Psi_1 = pi^(-1) L(pi x1)
    F = multiplicative_law(BaseRingSpec(5), 27, 2)
    for _ in range(2):
        with pytest.raises(PrecisionExhausted, match="below modulus"):
            solve_additive(kernel_group_law(F, 1))


@pytest.mark.parametrize("p, D, N", [(5, 625, 2), (3, 729, 4)])
def test_delta_characters_below_modulus_are_precision_exhausted(p, D, N):
    # N digits against the lattice modulus M = log_denominator_exponent + 1
    F = multiplicative_law(BaseRingSpec(p), D, N)
    with pytest.raises(PrecisionExhausted, match="generator precision "
                       f"{N} below modulus"):
        solve_delta_characters(F, 1)


def test_degree_cap_too_small_raises_on_every_call():
    law = kernel_group_law(_curve(3, 1, 9), 3)  # needs D >= 3^2 + 1
    for _ in range(2):
        with pytest.raises(DegreeCapTooSmall):
            solve_additive(law)


def _curve_at(p, e, D, extra):
    """y^2 = x^3 + x + 1 at M + extra digits, M = log_denominator_exponent
    + 1 the modulus of its delta-character lattice."""
    spec = BaseRingSpec(p, e)
    N = log_denominator_exponent(spec, D) + 1 + extra
    return formal_group_from_weierstrass(spec, spec.scalar(1, N),
                                         spec.scalar(1, N), D)


# sha256 of [g.shift, g.num.to_json()] for the jet generators l_0..l_3 =
# L(w_0)..L(w_3) over x0..x3, computed while each l_i was the substitution
# L.substitute({"T": w_i})
PINNED_LOG_GHOSTS = {
    (3, 1, 81, 0): [
        "6203a5aa3c6fc79cc4395632f3c73f16fb540ec3634095c8fe3faf0133d05279",
        "f0a556655ec40daa7c520cfa53a069bf10ba508f07bdc49d91a22353887b38e9",
        "c3aa58239713cb27754d47a1afefa1c7e9f68e5a17668b7564fde791eba91996",
        "4a21d88f74041ddf75229b1d2616d71d33857570b9c38531886040545cea8e77"],
    (3, 1, 81, 1): [
        "5307565005ea29ab2c796e01eafe9b93a1d29e2fb20b60385f91feb3a58464a6",
        "60f4a03bea32c0c802c9abd646560f85fdca71d00dea4a17ec7c366be1637d98",
        "864b72c2781ceeaaf9751a9503b1cd00b254004784bdc61b45a11e39847c8d1c",
        "8a896b6a180032b546188cad7ae4ec2bbdb3892532084c42c1d130a17fcaf989"],
    (5, 1, 125, 0): [
        "3602fb24ec7f2622d06ba44abdfc7a711ae5969632e2d3142263ae2f8e247761",
        "a737aebb695a01682b5d2dc2f839bef478fb3fa06e127bba3f775473fb5ecd2c",
        "fe17a4f4665e901a0d8fe7096215e3884fa8e262cefd086fe10312ac76f35010",
        "f0aaceccc0d4d4c20fdfc82ed47e33aca9de0be762e8e3146765bf7f59902cce"],
    (5, 1, 125, 1): [
        "75465329d119f6a1f8542945051b1610af82188fef7deee7cc901fe5fa06eea2",
        "cecd4a2577cf919fda9e9aedfb3c46c366e2b9f92bfefc1492bcd3ceced3677e",
        "29f0c2fef1e0f7c12ede4dd687799b2eb78b91e72b575e66d0eaad4d329eea68",
        "99cfdbe374371e4ad4e541324040803b47c376c1b81c9d5afd34148319667ca5"],
    (5, 3, 27, 0): [
        "0dd554bae71dcc951217de901a3e5b03b364ae8651875e83c091ffc54af25556",
        "2b0a2ddf151873115d1e6c21358e8f41967d27a56c7d24a6934bc610053dced0",
        "980dd956f12da79903f85654beb115428f4eb705fd71e21bd276d78363f238fb",
        "7616db55e83fef4f932f7820db629d3f816e06f22563b271f7305a30d79427a3"],
    (5, 3, 27, 1): [
        "da0633e3443a0fdc3ea263eecda3f0ed1c339a17f8931417640504c265ada22e",
        "06fede8c9a203815f6ec98990a2337801755f25d9b42d66bbec07ae2d0230c9d",
        "10d31b2246313880e540bff5cca01d77f7761b8d795d445bf60ed33a01c48045",
        "74c74348166189c2c074abb61fbeee7d0961e00465ba4eb74366d856df1a8528"],
    (7, 2, 51, 0): [
        "a68544545ffb576430cce511b07786a018a611a353eabc578da444b091807a03",
        "89f79b347e96064673d077cc60da2a86853d29ca835cacc0f359758a2f5cda7e",
        "1b6c6353e0ca97c8d5ff817bc128bc185fcfa6874308b5613e6ee3091345193f",
        "6ef910f817a2332a92ded3252622b49c95fdee29c8eb66f119676f16ad68e229"],
    (7, 2, 51, 1): [
        "b0d4fb313d1b1bc69cf0cd36ae40110289b90a76318f29e7206c1228ad81aac0",
        "4279df4924c2c8cad94c34afbdc14499eaf482d0471eacede1fa13e061692d5d",
        "f8cff912150a6b46e8a40d393cebc2970b90c434b3e611e03169e759e147bcc2",
        "f5e505a66cbbf580621f6574708935ed20c7a615ae2dccfa3c682c794a856061"],
}


@pytest.mark.parametrize("p,e,D,extra", sorted(PINNED_LOG_GHOSTS))
def test_log_ghost_generators_pinned(p, e, D, extra):
    E = _curve_at(p, e, D, extra)
    _, gens = log_ghost_generators(E, 3, "jet")
    got = [hashlib.sha256(json.dumps([g.shift, g.num.to_json()],
                                     sort_keys=True).encode()).hexdigest()
           for g in gens]
    assert got == PINNED_LOG_GHOSTS[(p, e, D, extra)]


def _assert_generators_match_substitution(E):
    # the shared l_i, padded (jet) or restricted to x0 = 0 (kernel), equal
    # L(w_i) and L(kappa_i) substituted over the order-n variables
    L = formal_logarithm(E)
    for kind, orders in (("jet", range(0, 4)), ("kernel", range(1, 4))):
        for n in orders:
            vars_, gens = log_ghost_generators(E, n, kind)
            # w_i by naive powers; kappa_i = w_i at x0 = 0, slot 0 dropped
            xs = [TruncSeries.gen(E.spec, vars_, v, E.cap, E.prec)
                  for v in vars_]
            extra = 1 if kind == "kernel" else 0
            if extra:
                xs.insert(0, TruncSeries.zero(E.spec, vars_, E.cap, E.prec))
            ws = ghost_components(WittVector(E.spec, xs))[extra:]
            assert len(gens) == len(ws)
            for g, w in zip(gens, ws):
                direct = FracSeries(L.num.substitute({"T": w}), L.shift)
                assert g.shift == direct.shift + extra
                assert ((g.num.vars, g.num.cap, g.num.prec, g.num.coeffs)
                        == (direct.num.vars, direct.num.cap,
                            direct.num.prec, direct.num.coeffs))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 2)])
def test_shared_generators_match_direct_substitution(p, e):
    _assert_generators_match_substitution(_curve(p, e, 27))


@pytest.mark.parametrize("p,e,D", [(3, 1, 81), (5, 1, 125), (5, 3, 27),
                                   (7, 2, 51)])
@pytest.mark.parametrize("extra", [0, 1])
def test_shared_generators_match_direct_substitution_at_modulus(p, e, D,
                                                                extra):
    # at M and M + 1 digits the pi^(sum j a_j) cutoff of the closed form
    # and, at e > 1, the pi-shifts decide which monomials survive
    _assert_generators_match_substitution(_curve_at(p, e, D, extra))


# ---------------------------------------------------------------------------
# group laws in ghost coordinates
# ---------------------------------------------------------------------------

# sha256 of [c.to_json() for c in law.laws] on y^2 = x^3 + x + 1 at
# precision N_DESK + 4; the values were computed while fgl_eval_witt summed
# f~(c_ij) a^i b^j with table-evaluated Witt operations (the (3, 1, 27) jet
# law took 127 s that way)
PINNED_LAWS = {
    (3, 1, 11, "jet", 1):
        "c668918c0fc4aae3b7587d3488052a3f58c87c104b968442402938dd684f91e1",
    (3, 1, 11, "jet", 2):
        "1a50becab8984d2b4e21643f5279c7c9bc98880ed749819014292b8052802c47",
    (3, 1, 11, "kernel", 1):
        "336e2552c8ca37f93b3b6b9effb890d25dab381888d8e3e9dbd2c71d706e5236",
    (3, 1, 11, "kernel", 2):
        "636f9ec912810674bc42f4595378b05f4de8877a2976001fbfa8b58c005859b0",
    (3, 1, 11, "kernel", 3):
        "0d2c3d810bea2d80e1242263ecc92479af75fc1442857d66f38c29ccfdf9971b",
    (3, 1, 27, "jet", 1):
        "cd2d6e5ead49c578cd53d273507621317bbc83f9d264371cfbd3125ebf5b0f94",
    (3, 1, 27, "jet", 2):
        "3ced3d0b49d33b6076ea8a3b74c27f78f278402ff29d069a904283af038753e1",
    (3, 1, 27, "kernel", 1):
        "913f808246ecca70999da9a15911a61f91bd52dab0cd4b33dadd9508c9860fe2",
    (3, 1, 27, "kernel", 2):
        "8a8c19de252c1396d8051e0690e20ade7e89b268a27143722146ed4e84adf762",
    (3, 1, 27, "kernel", 3):
        "d1dfb154acf7de722422da0914985f59fc5801c686aa3e488155ebc16204c8fe",
    (5, 1, 18, "jet", 1):
        "3c572429878d0b0af9a695e20499d17f34c3b28bf631b6a017382460313e7efb",
    (5, 1, 18, "jet", 2):
        "cc574510cd8db0f95032a821eb168699249ef6ed1724e858198aacb5e78e47a6",
    (5, 1, 18, "kernel", 1):
        "cebfd3f098f7d5a697079939cdb03702b1efd4f85d7655316e244b08cc0afa6a",
    (5, 1, 18, "kernel", 2):
        "5ce1d33cf8bf46aba5c3f9554d530476f37a921e6be35bb5161142363faf189a",
    (5, 1, 18, "kernel", 3):
        "1b19b8f84f0b1d1b1d475ec0717dc81f55945b5ea75378fa37d2bec033dd050b",
    (5, 2, 7, "jet", 1):
        "18485af7683ec0c32c7b9b83f08ab97be87de2c392167f9fb851d49fa3a2e555",
    (5, 2, 7, "jet", 2):
        "fc40cd4ade510c72ed9e0d252afbc1b9f40cfa83b9174682f3ae09890bb63abc",
    (5, 2, 7, "kernel", 1):
        "e06c5dc4823fad488901e4b77f7b606559b882ec53903b736fb7fb633ba9846a",
    (5, 2, 7, "kernel", 2):
        "3c717376025ae4da21e0602cb9b0dd2564f0e85e2a4630396a32a1a79746f973",
    (5, 2, 7, "kernel", 3):
        "f3b3a3b61f26ad5db2f7fc48b5b207ba4538feeb538efaabeeb6ecbe098ccfd0",
    (7, 1, 12, "jet", 1):
        "b6e9774f4d04002ec58514e601019f27d4b2578d1ecd93ecf692eda05230ed9d",
    (7, 1, 12, "jet", 2):
        "5b8bb5093c2eab4918f3c2217199e9b4e483e80640bacd9657ab923800a8538a",
    (7, 1, 12, "kernel", 1):
        "55edee2f9b7ebaf9ec3384cbca37db25497e70c4fe9eaedd526b655398f78c4f",
    (7, 1, 12, "kernel", 2):
        "618e5c0e9ac04bfc19ab28d265d601e21834b5f8b639f8a64ce21107a7792cd8",
    (7, 1, 12, "kernel", 3):
        "257a27ddc352026b14f03830d99e1733ef11317b8289d5610b2bb444fc2593fb",
}


@pytest.mark.parametrize("p,e,D,kind,n", sorted(PINNED_LAWS))
def test_group_laws_pinned(p, e, D, kind, n):
    build = kernel_group_law if kind == "kernel" else jet_group_law
    law = build(_curve(p, e, D), n)
    body = json.dumps([c.to_json() for c in law.laws], sort_keys=True)
    assert (hashlib.sha256(body.encode()).hexdigest()
            == PINNED_LAWS[(p, e, D, kind, n)])


# sha256 of [[ch.frac.shift, ch.frac.num.to_json()] for ch in chars] for
# the solved characters on y^2 = x^3 + x + 1 at precision N_DESK + 4,
# computed while `_combine` summed one FracSeries per generator; the reports
# read only some of these characters.  (5, 2, 7) stops at kernel n = 2: the
# n = 3 kernel needs D >= q^2 + 1.  The (5, 2, 7) jet pins at n = 2 and 3
# were taken again when the Howell sweep became one int sweep by
# restriction of scalars: each generator is the old one times a unit
# (`test_e2_jet_pins_are_unit_multiples`).
PINNED_CHARACTERS = {
    (3, 1, 11, "jet", 1):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (3, 1, 11, "jet", 2):
        "2cfc81f1e19311cab9001282e8ea41f54e64abb7d870a710409edd1788ff4b22",
    (3, 1, 11, "jet", 3):
        "de464349aed12d0d3837b277ad1a5a296dd5c63ae9fae01ec5780b06ffae6bd2",
    (3, 1, 11, "kernel", 1):
        "cd5f13aed503d24fa05bb015e5cc0c6ec03d5c6c2a70e7207f3af855b8d37e90",
    (3, 1, 11, "kernel", 2):
        "f0465f35f4ab3d71c97ccc3eb92c9ea6fd4f559e75293184016607205fa44a89",
    (3, 1, 11, "kernel", 3):
        "c830ef26296392e26c38b33f696e354b579724022064ad40a9aba037e96292e4",
    (5, 1, 27, "jet", 1):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (5, 1, 27, "jet", 2):
        "314cc1fc9bb43692f84c4d71522d8362ac486acc4ec665d9ef7c9984e32492c9",
    (5, 1, 27, "jet", 3):
        "b933b8ceddec3f3761a2d6f144fb067ade001bf0d2acb8156288127c078977aa",
    (5, 1, 27, "kernel", 1):
        "b7fb9b35627c4976e0699c58fa4017161dc04e10cd86178a6ee60b31bf42b5d4",
    (5, 1, 27, "kernel", 2):
        "3bfe66b36a69df4ea7800e4ef8e4cb61efe85d61590779cdab8935c51fcdbd25",
    (5, 1, 27, "kernel", 3):
        "46f9bf4a7502b9c4b5acdee2fb2276f6a322bd1b9a2ac57a6b1a87f9a5456365",
    (5, 2, 7, "jet", 1):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (5, 2, 7, "jet", 2):
        "a4a5a4cabbb1f44e65ed4948f51281244c54401dbd1f819e1751053b05c1a397",
    (5, 2, 7, "jet", 3):
        "ad48c3a63a7c5b80afc6aa9a8b9bfb996dfab0ea37690205b2a49711c6712666",
    (5, 2, 7, "kernel", 1):
        "48ef8642b0338b70c4e272fefee013ff2575dd777c7e06ce34e33f9275816173",
    (5, 2, 7, "kernel", 2):
        "f94256d8936baf5243d0dc7ad3c0f99774a91abe2d870265e90f3e3fe4c7c89b",
}


@pytest.mark.parametrize("p,e,D,kind,n", sorted(PINNED_CHARACTERS))
def test_solved_characters_pinned(p, e, D, kind, n):
    build = kernel_group_law if kind == "kernel" else jet_group_law
    chars, _ = solve_additive(build(_curve(p, e, D), n))
    assert _characters_digest(chars) == PINNED_CHARACTERS[(p, e, D, kind, n)]


# The (5, 2, 7) jet solution vectors over their last entry, mod pi^3, as
# the digit sweep gave them: at n = 2 this is (gamma, -lambda, 1), so
# lambda = 22 and gamma = 5.
E2_JET_NORMALIZED = {
    2: [[(5, 0), (3, 0), (1, 0)]],
    3: [[(10, 0), (21, 0), (0, 0), (1, 0)],
        [(0, 0), (0, 0), (18, 0), (1, 0)]],
}


@pytest.mark.parametrize("n", [2, 3])
def test_e2_jet_pins_are_unit_multiples(n):
    chars, _ = solve_additive(jet_group_law(_curve(5, 2, 7), n))
    normalized = []
    for ch in chars:
        inv = ch.lcoeffs[-1].inverse()
        normalized.append([(x * inv).digits for x in ch.lcoeffs])
    assert normalized == E2_JET_NORMALIZED[n]
    if n == 2:
        lam, gamma = extract_lambda_gamma(chars[0])
        assert (lam.digits, gamma.digits, lam.prec) == ((22, 0), (5, 0), 3)


def _characters_digest(chars):
    body = json.dumps([[ch.frac.shift, ch.frac.num.to_json()]
                       for ch in chars], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def _count_combined_series(monkeypatch):
    built = []
    real = characters._combined_series

    def counted(gens, coeffs):
        built.append(coeffs)
        return real(gens, coeffs)

    monkeypatch.setattr(characters, "_combined_series", counted)
    return built


def test_solved_character_series_is_built_on_first_read(monkeypatch):
    built = _count_combined_series(monkeypatch)
    E = _curve(5, 1, 27)
    chars, rank = solve_delta_characters(E, 3)
    assert rank == len(chars) == 2 and built == []
    extract_lambda_gamma(solve_delta_characters(E, 2)[0][0])
    assert built == []
    first = chars[0].frac
    assert len(built) == 1 and chars[0].frac is first
    assert _characters_digest(chars) == PINNED_CHARACTERS[(5, 1, 27, "jet", 3)]
    assert len(built) == 2


def test_additivity_check_reads_the_pinned_series(monkeypatch):
    built = _count_combined_series(monkeypatch)
    law = jet_group_law(_curve(5, 2, 7), 2)
    chars, _ = solve_additive(law)
    assert all(ch.check_additive(law) for ch in chars)
    assert len(built) == len(chars)
    assert _characters_digest(chars) == PINNED_CHARACTERS[(5, 2, 7, "jet", 2)]


def test_verify_suites_read_the_pinned_series(monkeypatch):
    built = _count_combined_series(monkeypatch)
    E = _curve(3, 1, 11)
    suites = run_character_suites(E)
    assert [s["status"] for s in suites] == ["pass"] * 4
    assert len(built) == 1
    chars, _ = solve_delta_characters(E, 2)
    assert _characters_digest(chars) == PINNED_CHARACTERS[(3, 1, 11, "jet", 2)]


def test_zero_solution_vector_is_refused_on_creation(monkeypatch):
    built = _count_combined_series(monkeypatch)
    E = _curve(5, 1, 27)
    zero = [E.spec.zero(3)] * 3
    with pytest.raises(IncompatibleSpec, match="zero solution vector"):
        characters._combine(2, E, zero)
    assert built == []


def test_group_law_matches_witt_ring_sum():
    # the Witt-ring definition sum f~(c_ij) a^i b^j, with the table-evaluated
    # ring operations, at a cap where it is cheap
    F = _curve(3, 1, 5)
    law = kernel_group_law(F, 2)
    spec, cap, prec = F.spec, F.cap, F.prec
    vars_ = law.vars_x + law.vars_y
    gens = [TruncSeries.gen(spec, vars_, v, cap, prec) for v in vars_]
    a = verschiebung(WittVector(spec, gens[:2]))
    b = verschiebung(WittVector(spec, gens[2:]))
    acc = None
    for (i, j), d in F.law.coeffs.items():
        factors = [a] * i + [b] * j
        term = factors[0]
        for f in factors[1:]:
            term = term * f
        term = term.scalar_mul(PadicScalar(spec, d, prec))
        acc = term if acc is None else acc + term
    assert acc.components[0].is_zero()
    assert law.laws == tuple(c.reduce_prec(prec - 2)
                             for c in acc.components[1:])


def test_fgl_eval_witt_refuses_what_a_truncated_law_cannot_evaluate():
    F = _curve(3, 1, 11)
    spec = F.spec
    x = WittVector.from_ints(spec, [0, 1], 8)
    with pytest.raises(IncompatibleSpec):
        fgl_eval_witt(F, x, x)
    gen = TruncSeries.gen(spec, ("x0", "x1"), "x0", 11, 8)
    one = TruncSeries.const(spec, ("x0", "x1"), spec.one(8), 11, 8)
    ok = WittVector(spec, [gen, gen])
    with pytest.raises(NonNilpotentComposition):
        fgl_eval_witt(F, ok, WittVector(spec, [gen, gen + one]))


def test_group_law_integrality_violation_propagates(monkeypatch):
    # with the components passed off as ghost components the slots have no
    # integral Witt preimage, and the red alert reaches the caller
    monkeypatch.setattr(witt, "_ghost", lambda spec, comps, prec:
                        [c.reduce_prec(prec) for c in comps])
    with pytest.raises(IntegralityViolation):
        jet_group_law(_curve(3, 1, 11), 1).laws


@pytest.mark.parametrize("p,e", [(3, 1), (5, 2)])
def test_non_integral_ghosts_raise_the_red_alert(p, e):
    # the ghosts (0, 1) have no integral Witt preimage: y_1 = 1 / pi; at
    # e = 2 the failed division is that of `digit_div_pi`
    spec = BaseRingSpec(p, e)
    with pytest.raises(IntegralityViolation, match="slot 1"):
        witt._from_ghosts(spec, [spec.zero(4), spec.one(4)], 3)
    t = TruncSeries.gen(spec, ("t",), "t", 4, 4)
    with pytest.raises(IntegralityViolation, match="slot 1"):
        witt._from_ghosts(spec, [t.int_mul(0), t], 3)


def test_kernel_law_slot_zero_check(monkeypatch):
    # a kernel law whose Witt value leaks into slot 0 is refused
    def leaky(F, a, b):
        return WittVector(a.spec, [a.components[1]] + list(a.components[1:]))

    monkeypatch.setattr(characters, "fgl_eval_witt", leaky)
    with pytest.raises(IncompatibleSpec, match="slot 0"):
        kernel_group_law(_curve(3, 1, 11), 1).laws


# ---------------------------------------------------------------------------
# the Psi tower
# ---------------------------------------------------------------------------

def test_psi_linear_parts(psis3_5, spec5):
    for i, psi in enumerate(psis3_5, start=1):
        s = psi.series()
        for j in range(1, 4):
            c = s.linear_coeff(f"x{j}")
            if j == i:
                assert c == spec5.one(c.prec - i + 1).mul_pi(i - 1)
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


@pytest.mark.parametrize("p,e,D", [(5, 1, 27), (3, 1, 11), (5, 2, 27)])
def test_psi_basis_is_normalized_kernel_solve(p, e, D):
    # the Psi basis used to be the unit-normalized order-1 kernel character
    # and its lateral pullbacks; the generators match it in coefficients
    # and precision
    F = _curve(p, e, D)
    psi1 = None
    for ch in solve_additive(kernel_group_law(F, 1))[0]:
        c = ch.series().linear_coeff("x1")
        if c.valuation() == 0:
            psi1 = Character("kernel", 1, ch.frac.scalar_mul(c.inverse()))
    tower = [psi1, lateral_pullback(psi1)]
    for got, want in zip(psi_basis(F, 2), tower):
        got, want = got.series(), u_star(want, 2).series()
        assert got == want and got.prec == want.prec


def test_expand_in_psi_basis_roundtrip(psis3_5, spec5):
    target = Character("kernel", 3,
                       psis3_5[1].frac.scalar_mul(spec5.scalar(3, 6)))
    coeffs = expand_in_psi_basis(target, list(psis3_5))
    assert coeffs[0].is_zero() and coeffs[2].is_zero()
    assert coeffs[1] == spec5.scalar(3, coeffs[1].prec)


def test_expand_in_psi_basis_failures(psis2_5, spec5):
    # each raise of the top-down expansion, against the p=5, D=27 Psi basis
    num = psis2_5[0].frac.num
    x1, x2 = (TruncSeries.gen(spec5, num.vars, v, num.cap, num.prec)
              for v in ("x1", "x2"))
    for frac, match in [
            (FracSeries(x1, 1), "not integral"),
            (FracSeries(x2), r"x2 coefficient not divisible by pi\^1"),
            (FracSeries(x1 + x1 * x1), "nonzero remainder")]:
        with pytest.raises(BasisExpansionFailed, match=match):
            expand_in_psi_basis(Character("kernel", 2, frac), psis2_5)


# ---------------------------------------------------------------------------
# lambda, gamma, upsilon
# ---------------------------------------------------------------------------

def test_lambda_gamma_elliptic(theta2_5, spec5):
    lam, gamma = extract_lambda_gamma(theta2_5)
    # a_5 = -3 for y^2 = x^3 + x + 1, and gamma = p
    assert lam == spec5.scalar(-3, lam.prec)
    assert gamma == spec5.scalar(5, gamma.prec)
    assert gamma.valuation() == 1


def test_gamma_multiplicative(mult5, spec5):
    chars, _ = solve_delta_characters(mult5, 1)
    lam, gamma = extract_lambda_gamma(chars[0])
    assert lam is None
    assert gamma == spec5.scalar(-5, gamma.prec)


def test_upsilon_of_frobenius_pullback_vanishes(theta2_5):
    assert upsilon(frobenius_pullback(theta2_5)).is_zero()


def test_lambda_gamma_match_psi_expansion(theta2_5, psis2_5):
    # the series-level reference: lambda from expanding i^* theta in the
    # Psi basis agrees with the solved vector where both are known
    lam, _ = extract_lambda_gamma(theta2_5)
    c1, c2 = expand_in_psi_basis(i_star(theta2_5), list(psis2_5))
    ref = -(c1 * c2.inverse())
    P = min(lam.prec, ref.prec)
    assert P >= 2
    assert lam.reduce_prec(P) == ref.reduce_prec(P)
    # i^* theta = d_1 Psi_1 + d_2 Psi_2
    d = theta2_5.lcoeffs
    for c, di in ((c1, d[1]), (c2, d[2])):
        P = min(c.prec, di.prec)
        assert c.reduce_prec(P) == di.reduce_prec(P)


def test_lambda_gamma_needs_the_solved_vector(theta2_5):
    with pytest.raises(IncompatibleSpec):
        extract_lambda_gamma(Character("jet", 2, theta2_5.frac))
    d = list(theta2_5.lcoeffs)
    d[2] = d[2].mul_pi(1).reduce_prec(d[2].prec)
    with pytest.raises(Inconclusive):
        extract_lambda_gamma(Character("jet", 2, theta2_5.frac, d))


def test_gamma_is_pi_times_a0(theta2_5, psis2_5, spec5):
    lam, gamma = extract_lambda_gamma(theta2_5)
    # gamma = pi * A0 after the unit normalization; the extraction
    # normalizes theta, so recompute A0 from the normalized character
    coeffs = expand_in_psi_basis(i_star(theta2_5), list(psis2_5))
    unit = coeffs[-1]
    theta = Character("jet", 2, theta2_5.frac.scalar_mul(unit.inverse()))
    a0 = -upsilon(theta)
    prec = min(gamma.prec, a0.prec + 1)
    assert gamma.reduce_prec(prec) == a0.mul_pi(1).reduce_prec(prec)


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


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (5, 2), (7, 1)])
@pytest.mark.parametrize("cube", [False, True])
def test_full_rank_of_an_order_with_images_is_its_own_rank(p, e, cube):
    # the rank table takes the rank of the order-n solutions and the u^*
    # and phi^* images of the order n - 1 ones together to be rk_X[n],
    # with no sweep: the images solve the order-n lattice, so mod pi they
    # add nothing to the span of its unit-content generators.  Swept here
    # as the rank table once did, on the multiplicative law and seeded
    # curves, built as `crystal` builds them
    spec, nmax = BaseRingSpec(p, e), 5
    D = p ** 3 if cube else p * p + 2
    M = log_denominator_exponent(spec, D) + 1
    rng = random.Random(1000 * p + 10 * e + cube)
    laws = [ptypical_multiplicative(spec, D, M)]
    while len(laws) < 4:
        try:
            laws.append(ptypical_weierstrass(
                spec, rng.randrange(-50, 50), rng.randrange(-50, 50), D, M))
        except BadReduction:
            pass
    zero, swept = spec.scalar(0, M), 0
    for F in laws:
        characters.jet_lattice(F, nmax)
        below = []
        for n in range(1, nmax + 1):
            chars, rank = solve_delta_characters(F, n)
            images = [v for ch in below for v in (ch.lcoeffs + [zero],
                                                  [zero] + ch.lcoeffs)]
            if images:
                vectors = [ch.lcoeffs for ch in chars] + images
                assert module_rank(spec, vectors, n + 1) == rank
                swept += 1
            below = chars
    assert swept


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


@pytest.mark.parametrize("h,l,m,match", [
    ([1, 0, 1], [0, 1, -1], (1, 1), "h is not weakly decreasing"),
    ([1, 0, 0], [0, 1, 1], (1, 1), r"l_2 != h_1 - h_2 \(1 vs 0\)"),
    ([1, 0, 0], [0, 1, 0], (1, 2), "m_low = m_up <= 2 fails"),
    ([1, 1, 1], [0, 0, 0], (3, 3), "m_low = m_up <= 2 fails"),
])
def test_inconsistent_rank_table_raises(h, l, m, match):
    # n_max = 2; each table breaks one rank identity
    RankTable(2, [0, 1, 2], [0, 1, 2], [0, 0, 0], [1, 0, 0], [0, 1, 0],
              1, 1).check()
    table = RankTable(2, [0, 1, 2], [0, 1, 2], [0, 0, 0], h, l, *m)
    with pytest.raises(IntegralityViolation, match=match):
        table.check()


def test_unit_gamma_raises(mult5):
    # gamma = d_0 / d_1 must be divisible by pi: a unit d_0 contradicts
    # the structure theorem, and is raised, not reported
    (theta,), _ = solve_delta_characters(mult5, 1)
    d = theta.lcoeffs
    assert extract_lambda_gamma(theta)[1].valuation() >= 1
    unit = Character("jet", 1, theta.frac, [d[0] + d[0].spec.one(d[0].prec),
                                            d[1]])
    with pytest.raises(IntegralityViolation, match="not divisible by pi"):
        extract_lambda_gamma(unit)
