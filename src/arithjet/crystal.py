"""Filtered isocrystals at finite precision (rank 1 and 2).

The crystal H = R<Psi_1> (m = 1) or R<Psi_1, Psi_2> (m = 2) carries the
lateral-Frobenius matrix in companion form and the one-step filtration
coming from the primitive submodule.  Weak admissibility is the slope
test's top comparison, t_H = 1 against t_N = v(gamma): the closed form
v(gamma) = 1.  No Frobenius-stable line is fil1, so none can fail; the
certificate lists those of a unit lambda with their slopes.

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


def weak_admissibility(crys: FilteredIsocrystal) -> dict:
    """The slope test of Colmez-Fontaine, decided by its top comparison.

    For a subobject D' the inequality is
        t_H(D') = sum_i i dim(D'^i / D'^(i+1)) <= v(det(Frobenius|D'))
    with equality required for the whole space.  Slopes are in pi-units
    (one per Hodge jump), the normalization in which the closed form
    holds at every ramification index.  The whole space has t_H = 1 in
    both shapes (dim 1: it is fil1; dim 2: fil1 is a line) and t_N =
    v(gamma), so the verdict is the closed form v(gamma) = 1.

    No stable line can fail the inequality.  The eigenline of a root mu of
    x^2 - lambda x + gamma is span(mu - lambda, 1), which is fil1 =
    span(-lambda, 1) only when mu = 0; the roots multiply to gamma != 0,
    so each stable line has t_H = 0 <= v(mu).  The certificate lists the
    lines of the ordinary shape, lambda a unit: the Hensel root mu1 and
    mu2 = gamma / mu1.  At a non-unit lambda it lists none.  A root that
    is 0 at precision has no valuation, which is inconclusive.
    """
    vg = crys.gamma.valuation()
    closed_form = (vg == 1)
    cert = {"subobjects": [], "closed_form_v_gamma_1": closed_form,
            "top": {"t_H": "1", "t_N": str(vg), "equal": closed_form}}
    if crys.dim == 2 and crys.lam.is_unit():
        mu1 = unit_quadratic_root(crys.lam, crys.gamma)
        for mu in (mu1, crys.gamma * mu1.inverse()):
            v_mu = mu.valuation()
            if v_mu is None:
                raise Inconclusive(
                    "stable-line eigenvalue indistinguishable from 0 at "
                    "precision")
            cert["subobjects"].append(
                {"mu": mu.to_json(), "t_H": "0", "t_N": str(v_mu),
                 "ok": True, "is_fil1": False})
    cert["verdict"] = "admissible" if closed_form else "not_admissible"
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
