"""Identity suites for the Witt / lateral-Frobenius / character layers.

Each suite returns a report dict with keys "name", "anchor", "status"
("pass", "fail" or "inconclusive") and "details".  The suites are used
both by the test battery and by the command-line `verify` command, so
they never assert: a failed identity is reported, not raised.
"""

from __future__ import annotations

import random

from .characters import (
    Character,
    extract_lambda_gamma,
    frobenius_pullback,
    i_star,
    lateral_pullback,
    psi_basis,
    solve_delta_characters,
    upsilon,
)
from .errors import Inconclusive
from .fgl import FormalGroupLaw
from .lateral import generic_tilde, lateral_frobenius, tilde_pack
from .ring import BaseRingSpec
from .series import TruncSeries
from .witt import WittVector, frobenius_W, verschiebung

# suite sizes: Witt vector length - 1, trials, digits; lateral digits; order
WITT_N, TRIALS, WITT_PREC, LATERAL_PREC, TOWER_N = 2, 100, 6, 4, 3


def _report(name, anchor, ok, details=""):
    return {"name": name, "anchor": anchor,
            "status": "pass" if ok else "fail", "details": details}


def _inconclusive(name, anchor, details):
    return {"name": name, "anchor": anchor,
            "status": "inconclusive", "details": details}


# --------------------------------------------------------------------------
# ghost oracle
# --------------------------------------------------------------------------

def ghost_components(x: WittVector):
    """w_i(x) = sum_j pi^j x_j^(q^(i-j)) by naive powers: the independent
    oracle that tests compare `witt._ghost` and the Witt operations with."""
    q = x.spec.q
    out = []
    for i in range(x.length):
        acc = x.components[0] ** (q ** i)
        for j in range(1, i + 1):
            acc = acc + (x.components[j] ** (q ** (i - j))).mul_pi(j)
        out.append(acc)
    return out


def ghost_mismatch(x: WittVector, y: WittVector, s: WittVector,
                   m: WittVector):
    """The first ghost slot at which the sum s or the product m of x and y
    differs from the ghost-side sum or product, as ("add" or "mul",
    slot); else None."""
    wx, wy = ghost_components(x), ghost_components(y)
    ws, wp = ghost_components(s), ghost_components(m)
    for i in range(x.length):
        if not (ws[i] - (wx[i] + wy[i])).is_zero():
            return "add", i
        if not (wp[i] - wx[i] * wy[i]).is_zero():
            return "mul", i


def _random_vector(spec: BaseRingSpec, rng) -> WittVector:
    bound = spec.p ** WITT_PREC
    return WittVector.from_ints(
        spec, [rng.randrange(bound) for _ in range(WITT_N + 1)], WITT_PREC)


def suite_ghost_oracle(spec: BaseRingSpec, seed: int) -> dict:
    """Table add and ghost mul agree with the ghost-side ring operations."""
    anchor = "w(x [+] y) = w(x) + w(y), w(x [*] y) = w(x) w(y)"
    rng = random.Random(seed)
    for t in range(TRIALS):
        x, y = _random_vector(spec, rng), _random_vector(spec, rng)
        bad = ghost_mismatch(x, y, x + y, x * y)
        if bad:
            return _report("ghost_oracle", anchor, False,
                           f"{bad[0]} trial {t} ghost slot {bad[1]}")
    return _report("ghost_oracle", anchor, True,
                   f"{TRIALS} random pairs, length {WITT_N + 1}")


# --------------------------------------------------------------------------
# F and V
# --------------------------------------------------------------------------

def suite_fv(spec: BaseRingSpec, seed: int) -> dict:
    """FV = pi, a pinned FV != VF witness, and FFV = FVF."""
    anchor = "FV(x) = pi x ; FV != VF ; FFV = FVF"
    trials = TRIALS // 2
    rng = random.Random(seed)
    pi = spec.pi(WITT_PREC)
    for t in range(trials):
        x = _random_vector(spec, rng)
        fv = frobenius_W(verschiebung(x))
        if fv != x.scalar_mul(pi):
            return _report("fv_identities", anchor, False,
                           f"FV != pi x at trial {t}")
        ffv = frobenius_W(frobenius_W(verschiebung(x)))
        fvf = frobenius_W(verschiebung(frobenius_W(x)))
        if ffv != fvf:
            return _report("fv_identities", anchor, False,
                           f"FFV != FVF at trial {t}")
    witness = None
    for ints in ([1, 0], [1, 1], [2, 1], [1, 2], [0, 1]):
        x = WittVector.from_ints(spec, ints, WITT_PREC)
        if frobenius_W(verschiebung(x)) != verschiebung(frobenius_W(x)):
            witness = ints
            break
    if witness is None:
        return _report("fv_identities", anchor, False,
                       "no FV != VF witness among small vectors")
    return _report("fv_identities", anchor, True,
                   f"{trials} random vectors; witness x = {witness}")


# --------------------------------------------------------------------------
# lateral Frobenius
# --------------------------------------------------------------------------

def suite_latfrob_congruence(spec: BaseRingSpec, n: int) -> dict:
    """Symbolic: the tail of F~ is congruent to z_i^q mod pi."""
    anchor = "F~(f~(r) + V(z))_i = z_i^q mod pi"
    r = spec.scalar(1 + spec.p, LATERAL_PREC + n + 1)
    t = generic_tilde(spec, r, n, cap=spec.q + 1, prec=LATERAL_PREC)
    ft = lateral_frobenius(t)
    comps = [] if ft.tail is None else list(ft.tail.components)
    for i, c in enumerate(comps):
        z = TruncSeries.gen(spec, c.vars, f"z{i + 1}", c.cap, c.prec)
        diff = c - z ** spec.q
        if diff.residue_coeffs():
            return _report("latfrob_congruence", anchor, False,
                           f"component {i + 1} not z^q mod pi")
    return _report("latfrob_congruence", anchor, True,
                   f"symbolic tail, order {n}")


def suite_fdid(spec: BaseRingSpec, n: int) -> dict:
    """F^2 o I = F o I o F~ symbolically, plus a pinned F o I != I o F~."""
    anchor = "F(F(I(x))) = F(I(F~(x))) ; F(I(x)) != I(F~(x))"
    r = spec.scalar(1 + spec.p, LATERAL_PREC + n + 2)
    t = generic_tilde(spec, r, n, cap=spec.q ** 2 + 1, prec=LATERAL_PREC)
    lhs = frobenius_W(frobenius_W(t.embed()))
    rhs = frobenius_W(lateral_frobenius(t).embed())
    if lhs != rhs:
        return _report("fdid", anchor, False,
                       f"F^2 I != F I F~ at order {n}")
    # pinned witness: F o I and I o F~ differ already on f~(r) + V(z)
    # with a concrete scalar tail
    tail = WittVector.from_ints(spec, [1] + [0] * (n - 1), LATERAL_PREC + 2)
    tw = tilde_pack(spec.scalar(1, LATERAL_PREC + n + 2), tail)
    a = frobenius_W(tw.embed())
    b = lateral_frobenius(tw).embed()
    if a == b:
        return _report("fdid", anchor, False,
                       "pinned witness collapsed: F I = I F~")
    return _report("fdid", anchor, True, f"symbolic order {n}")


# --------------------------------------------------------------------------
# character identities on a fixed formal group
# --------------------------------------------------------------------------

def _theta_2(F: FormalGroupLaw) -> Character:
    """The first solved order-2 delta-character; Inconclusive when there
    is none, or when it carries no pi-adic digit (nor then do the Psi_i,
    whose values are known to as many digits)."""
    chars, rank = solve_delta_characters(F, 2)
    if rank < 1:
        raise Inconclusive("no order-2 character found")
    if chars[0].frac.prec < 1:
        raise Inconclusive("Theta_2 carries no pi-adic digit at this "
                           "precision")
    return chars[0]


def suite_gamma_identity(F: FormalGroupLaw) -> dict:
    """(i o frak-f)* - (phi o i)* applied to Theta_2 lands in pi R<x1>.

    The identity is checked on the solved, unnormalized Theta_2; the
    details report gamma = d_0 / d_2 of `extract_lambda_gamma`, as
    `crystal` does, or why it is undetermined when d_2 is not a unit."""
    anchor = "i* phi* Theta_2 - frak-f* i* Theta_2 = gamma Psi_1"
    try:
        theta = _theta_2(F)
        psis = psi_basis(F, 3)
        lhs = i_star(frobenius_pullback(theta))
        rhs = lateral_pullback(i_star(theta))
        diff = (lhs - rhs).frac.normalize()
        if any(any(m[j] for j in range(1, len(m))) for m in diff.num.coeffs):
            return _report("gamma_identity", anchor, False,
                           "difference involves x2 or beyond")
        if diff.shift > 0:
            return _report("gamma_identity", anchor, False,
                           "difference is not pi-divisible")
        gamma = (-upsilon(theta)).mul_pi(1)
        resid = (diff - psis[0].frac.scalar_mul(gamma)).normalize()
        if not resid.num.is_zero():
            return _report("gamma_identity", anchor, False,
                           "difference != gamma Psi_1")
    except Inconclusive as exc:
        return _inconclusive("gamma_identity", anchor, str(exc))
    try:
        details = f"gamma = {extract_lambda_gamma(theta)[1]!r}"
    except Inconclusive as exc:  # d_2 is not a unit
        details = f"gamma undetermined: {exc}"
    return _report("gamma_identity", anchor, True, details)


def suite_upsilon_vanishing(F: FormalGroupLaw) -> dict:
    """Upsilon kills the image of the Frobenius pullback."""
    anchor = "Upsilon(phi* Theta) = 0"
    try:
        val = upsilon(frobenius_pullback(_theta_2(F)))
        ok = val.is_zero()
    except Inconclusive as exc:
        return _inconclusive("upsilon_vanishing", anchor, str(exc))
    return _report("upsilon_vanishing", anchor, ok,
                   "" if ok else f"Upsilon = {val.digits}")


def suite_psi_tower(F: FormalGroupLaw) -> dict:
    """Psi_1..Psi_n: linear parts pi^(i-1) x_i, mod-pi leads x1^(q^(i-1))."""
    anchor = "Psi_i = pi^(i-1) x_i + h.o.t. ; Psi_i = x1^(q^(i-1)) mod pi"
    n = TOWER_N
    spec = F.spec
    q = spec.q
    if F.cap < q ** (n - 1):
        return _inconclusive(
            "psi_tower", anchor,
            f"degree cap {F.cap} < q^(n-1) = {q ** (n - 1)} hides the "
            f"mod-pi lead of Psi_{n}")
    psis = psi_basis(F, n)
    if any(psi.frac.prec < 1 for psi in psis):
        return _inconclusive("psi_tower", anchor, "the Psi_i carry no "
                             "pi-adic digit at this precision")
    for i, psi in enumerate(psis, start=1):
        s = psi.series()
        for j in range(1, n + 1):
            c = s.linear_coeff(f"x{j}")
            want = (spec.pi(c.prec) ** (i - 1)
                    if j == i else spec.zero(c.prec))
            if not (c - want).is_zero():
                return _report("psi_tower", anchor, False,
                               f"linear part of Psi_{i} wrong at x{j}")
        res = s.residue_coeffs()
        lead = min(res, key=sum) if res else None
        want_lead = tuple(q ** (i - 1) if v == "x1" else 0
                          for v in s.vars)
        if lead != want_lead:
            return _report("psi_tower", anchor, False,
                           f"mod-pi lead of Psi_{i} is {lead}")
    return _report("psi_tower", anchor, True, f"tower of depth {n}")


def suite_tower_pullback(F: FormalGroupLaw) -> dict:
    """i* (phi^n)* Theta = (frak-f^(n-1))* i* phi* Theta, n = 2..TOWER_N."""
    anchor = "i* phi^n* Theta = frak-f^(n-1)* i* phi* Theta"
    try:
        theta = _theta_2(F)
        phi_n = theta
        lateral_n = i_star(frobenius_pullback(theta))
        for n in range(2, TOWER_N + 1):
            phi_n = frobenius_pullback(phi_n)
            if n >= 3:
                lateral_n = lateral_pullback(lateral_n)
            diff = (i_star(phi_n) - lateral_n).frac.normalize()
            if not diff.num.is_zero():
                return _report("tower_pullback", anchor, False,
                               f"tower identity fails at n = {n}")
    except Inconclusive as exc:
        return _inconclusive("tower_pullback", anchor, str(exc))
    return _report("tower_pullback", anchor, True,
                   f"checked n = 2..{TOWER_N}")


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def run_witt_suites(spec: BaseRingSpec, seed: int) -> list:
    """The structural suites; no formal group required."""
    return [
        suite_ghost_oracle(spec, seed),
        suite_fv(spec, seed),
        suite_latfrob_congruence(spec, WITT_N),
        suite_fdid(spec, WITT_N),
    ]


def run_character_suites(F: FormalGroupLaw) -> list:
    """The character-level suites on a fixed formal group."""
    return [
        suite_psi_tower(F),
        suite_gamma_identity(F),
        suite_upsilon_vanishing(F),
        suite_tower_pullback(F),
    ]


def summarize(reports: list) -> str:
    worst = "pass"
    for r in reports:
        if r["status"] == "fail":
            worst = "fail"
        elif r["status"] == "inconclusive" and worst == "pass":
            worst = "inconclusive"
    return worst
