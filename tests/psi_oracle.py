"""The expansion of a kernel character in the Psi basis: the series-level
reference that the tests compare the solved characters with.  No command
expands a character, so this lives next to its tests."""

from arithjet.errors import EngineError, IncompatibleSpec, NotDivisible


class BasisExpansionFailed(EngineError):
    """A character did not expand exactly in the expected basis."""


def expand_in_psi_basis(psi, psis):
    """Coefficients a_i with psi = sum a_i Psi_i, solved top-down.

    Uses that the linear part of Psi_i is pi^(i-1) x_i: a_i is the x_i
    coefficient of the remainder divided by pi^(i-1).  Raises
    BasisExpansionFailed when the remainder does not vanish."""
    n = psi.n
    if len(psis) != n:
        raise IncompatibleSpec("basis length does not match order")
    try:
        r = psi.series()
    except NotDivisible as exc:
        raise BasisExpansionFailed(f"character is not integral: {exc}")
    coeffs = []
    for i in range(n, 0, -1):
        c = r.linear_coeff(f"x{i}")
        try:
            a = c.exact_div_pi(i - 1) if i > 1 else c
        except NotDivisible as exc:
            raise BasisExpansionFailed(
                f"x{i} coefficient not divisible by pi^{i - 1}: {exc}")
        coeffs.append(a)
        term = psis[i - 1].series().scalar_mul(a)
        P = min(r.prec, term.prec)
        r = r.reduce_prec(P) - term.reduce_prec(P)
    if not r.is_zero():
        raise BasisExpansionFailed(
            f"nonzero remainder, leading monomial {r.leading_monomial()}")
    return list(reversed(coeffs))
