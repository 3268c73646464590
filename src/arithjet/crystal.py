"""Filtered isocrystals at finite precision (rank 1 and 2).

The crystal H = R<Psi_1> (m = 1) or R<Psi_1, Psi_2> (m = 2) carries the
lateral-Frobenius matrix in companion form and the one-step filtration
coming from the primitive submodule.  Weak admissibility is decided by
enumerating the Frobenius-stable lines and evaluating the slope
inequality on each, with the closed-form criterion v(gamma) = 1 reported
alongside as a cross-check.

Valuations feeding the polygons are p-normalized: ord_p = v(.)/e, so
Hodge and Newton endpoints are comparable when e > 1 (the sources leave
the normalization implicit; the reports carry both numbers).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Inconclusive, InvalidParameters
from .ring import BaseRingSpec, PadicScalar, unit_quadratic_root


def _ordp(x: PadicScalar) -> Fraction | None:
    v = x.valuation()
    return None if v is None else Fraction(v, x.spec.e)


class FilteredIsocrystal:
    """A filtered isocrystal of rank 1 or 2 in the Psi basis.

    frobenius_matrix is the matrix of the lateral Frobenius: (gamma) in
    dimension 1, [[0, -gamma], [1, phi(lambda)]] in dimension 2.  fil1
    holds the coordinates of the filtration line (None marks the whole
    space, the m = 1 case).
    """

    def __init__(self, spec: BaseRingSpec, m: int,
                 lam: PadicScalar | None, gamma: PadicScalar):
        if m not in (1, 2):
            raise InvalidParameters("splitting number must be 1 or 2")
        if m == 2 and lam is None:
            raise InvalidParameters("dimension 2 requires lambda")
        if gamma.is_zero():
            raise Inconclusive("gamma indistinguishable from 0 at precision")
        if gamma.valuation() < 1:
            raise InvalidParameters(
                "v(gamma) = 0 contradicts pi | gamma (red alert)")
        self.spec = spec
        self.m = m
        self.dim = m
        self.lam = lam
        self.gamma = gamma
        self.basis_labels = ("Psi1",) if m == 1 else ("Psi1", "Psi2")
        if m == 1:
            self.frobenius_matrix = ((gamma,),)
            self.fil1 = None  # the whole space
        else:
            zero = spec.scalar(0, gamma.prec)
            one = spec.one(gamma.prec)
            # phi acts as the identity on R in this tier
            self.frobenius_matrix = ((zero, -gamma), (one, lam))
            self.fil1 = (-lam, one)

    @property
    def det(self) -> PadicScalar:
        """det of the Frobenius matrix; equals gamma in both shapes."""
        return self.gamma

    def to_json(self):
        return {
            "m": self.m,
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "lambda": None if self.lam is None else self.lam.to_json(),
            "gamma": self.gamma.to_json(),
            "Gamma": [[x.to_json() for x in row]
                      for row in self.frobenius_matrix],
            "fil1": ("whole" if self.fil1 is None
                     else [x.to_json() for x in self.fil1]),
        }

    def __repr__(self):
        return (f"FilteredIsocrystal(dim={self.dim}, "
                f"v(gamma)={self.gamma.valuation()})")


def build_crystal(spec: BaseRingSpec, m: int, lam: PadicScalar | None,
                  gamma: PadicScalar) -> FilteredIsocrystal:
    """Assemble the crystal from the splitting data (rank m in {1, 2})."""
    return FilteredIsocrystal(spec, m, lam, gamma)


def polygons(crys: FilteredIsocrystal):
    """(hodge, newton) as sorted slope lists in p-valuation units."""
    if crys.dim == 1:
        hodge = [Fraction(1)]
        newton = [_ordp(crys.gamma)]
        return hodge, newton
    hodge = [Fraction(0), Fraction(1)]
    vl = _ordp(crys.lam) if not crys.lam.is_zero() else None
    vg = _ordp(crys.gamma)
    # Newton polygon of x^2 - lambda x + gamma
    if vl is not None and vl == 0:
        newton = [Fraction(0), vg]
    else:
        half = vg / 2
        if vl is None or vl > half:
            newton = [half, half]
        else:
            newton = [vl, vg - vl]
    return hodge, sorted(newton)


def _stable_lines(crys: FilteredIsocrystal):
    """Frobenius-stable lines of a dim-2 crystal, as (mu, coords) pairs.

    The companion matrix has eigenlines span(-gamma/mu, 1) for each root
    mu of x^2 - lambda x + gamma in R.  Roots are Hensel-lifted; when the
    reduction has no simple root the quadratic is irreducible over R at
    precision and there are no stable lines.
    """
    spec = crys.spec
    lam, gamma = crys.lam, crys.gamma
    if lam.valuation() is None or lam.valuation() > 0:
        # both roots have positive valuation; x^2 - lam x + gamma has a
        # root in R only if it splits at slope v(gamma)/2 -- outside the
        # ordinary desk cases; treat as no rational stable line unless a
        # mod-pi root exists (it cannot: x^2 = 0 forces x = 0, but then
        # gamma = 0 which was excluded up to precision).
        return []
    # ordinary shape: one unit root and one root of valuation v(gamma)
    mu1 = unit_quadratic_root(lam, gamma)
    mu2 = gamma * mu1.inverse()
    lines = []
    for mu in (mu1, mu2):
        # from the companion shape: v1 = (mu - lambda) v2, so the
        # eigenline is span(mu - lambda, 1); note mu - lambda = -gamma/mu
        coords = (mu - lam, spec.one(mu.prec))
        lines.append((mu, coords))
    return lines


def _lines_equal(a, b) -> bool | None:
    """Projective equality of two lines given as (c, 1) coordinates.

    Returns None (inconclusive) when the difference of the affine
    coordinates has fewer than 2 digits of separation."""
    d = a[0] - b[0]
    if d.is_zero():
        if d.prec < 2:
            return None
        return True
    return False


def weak_admissibility(crys: FilteredIsocrystal) -> dict:
    """Slope test on every Frobenius-stable subobject.

    For a subobject D' the inequality is
        t_H(D') = sum_i i dim(D'^i / D'^(i+1)) <= ord_p det(Frobenius|D')
    with equality required for the whole space.  Returns a certificate
    dict; the closed-form criterion v(gamma) = 1 is evaluated alongside.
    """
    vg = crys.gamma.valuation()
    closed_form = (vg == 1)
    # slope comparison in pi-units: t_N = v_pi(det), one per Hodge jump;
    # this is the normalization in which the closed-form criterion holds
    # for every ramification index.  The top Hodge jump is at 1 in both
    # shapes (dim 1: the whole space; dim 2: fil1 is a line).
    tH_top, tN_top = Fraction(1), Fraction(vg)
    verdict = (tH_top == tN_top)
    cert = {"subobjects": [], "closed_form_v_gamma_1": closed_form,
            "top": {"t_H": str(tH_top), "t_N": str(tN_top),
                    "equal": verdict}}
    if crys.dim == 2:
        for mu, coords in _stable_lines(crys):
            same = _lines_equal(coords, crys.fil1)
            if same is None:
                raise Inconclusive(
                    "cannot separate a stable line from fil1 at precision")
            tH = Fraction(1) if same else Fraction(0)
            v_mu = mu.valuation()
            if v_mu is None:
                raise Inconclusive(
                    "stable-line eigenvalue indistinguishable from 0 at "
                    "precision")
            tN = Fraction(v_mu)
            line_ok = (tH <= tN)
            cert["subobjects"].append(
                {"mu": mu.to_json(), "t_H": str(tH), "t_N": str(tN),
                 "ok": line_ok, "is_fil1": same})
            verdict = verdict and line_ok
    cert["verdict"] = "admissible" if verdict else "not_admissible"
    if verdict != closed_form:
        raise Inconclusive(
            "slope test and closed-form criterion disagree at precision")
    return cert


def de_rham_shadow(crys: FilteredIsocrystal):
    """Report of the de Rham row: Upsilon value, Phi injectivity, ranks.

    Upsilon(Theta_m) = -A0 = -gamma/pi, A0 the x0-linear coefficient of
    the normalized Theta_m (`extract_lambda_gamma`), known mod pi^(M - 1)
    and reported against gamma/pi without adjudication (the sources state
    them with opposite signs).  Phi is injective exactly when gamma is
    nonzero, as a crystal's gamma always is.
    """
    gamma_over_pi = crys.gamma.exact_div_pi(1)
    return {
        "upsilon_theta_m": (-gamma_over_pi).to_json(),
        "gamma_over_pi": gamma_over_pi.to_json(),
        "phi_injective": True,
        "rows": {"X_prim_rank": 1, "H_rank": crys.dim,
                 "I_rank": crys.dim - 1},
        "note": ("the de Rham comparison map is not claimed compatible "
                 "with the crystalline Frobenius; metadata only"),
    }
