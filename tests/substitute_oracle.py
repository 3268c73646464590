"""Reference series products and substitutions on PadicScalar arithmetic.

`reference_product` multiplies two series by the schoolbook sum of
PadicScalar products over monomial pairs.  `general_substitute` is the
general loop of `arithjet.series.TruncSeries.substitute`, whatever the
images: every power of an image and every term product is built by
`reference_product`, and the terms are summed in PadicScalar, so neither
the series product nor its power chain is used to check them."""

from arithjet.errors import IncompatibleSpec, NonNilpotentComposition
from arithjet.ring import PadicScalar
from arithjet.series import TruncSeries


def nonzero_digits(scalars: dict) -> dict:
    return {m: c.digits for m, c in scalars.items() if not c.is_zero()}


def reference_product(f, g):
    """f * g as a sum of PadicScalar products over monomial pairs, each
    pair of total degree above the cap dropped: {monomial: digits}."""
    spec, cap = f.spec, f.cap
    acc = {}
    for m1 in f.coeffs:
        for m2 in g.coeffs:
            m = tuple(x + y for x, y in zip(m1, m2))
            if cap is not None and sum(m) > cap:
                continue
            term = f.coeff(m1) * g.coeff(m2)
            acc[m] = acc[m] + term if m in acc else term
    return nonzero_digits(acc)


def _times(f, g):
    return TruncSeries(f.spec, f.vars, reference_product(f, g), f.cap,
                       min(f.prec, g.prec))


def general_substitute(self, mapping: dict) -> TruncSeries:
    """Substitute series for variables.  Unmapped variables persist.

    When self is truncated (cap not None) every image must have zero
    constant term, else discarded high-degree terms of self would feed
    low degrees of the result.  Exact polynomials accept any images.
    All images must share one context, which becomes the result context.
    """
    images = {}
    ctx = None
    for v, s in mapping.items():
        if v not in self.vars:
            raise IncompatibleSpec(f"unknown variable {v!r}")
        if self.cap is not None and not s.constant_term().is_zero():
            raise NonNilpotentComposition(
                f"image of {v!r} has a nonzero constant term")
        images[v] = s
        ctx = s
    if ctx is None:
        return self
    for v in self.vars:
        if v not in images:
            if v not in ctx.vars:
                raise IncompatibleSpec(
                    f"unmapped variable {v!r} missing from target context")
            images[v] = TruncSeries.gen(ctx.spec, ctx.vars, v, ctx.cap,
                                        ctx.prec)
    spec, cap = ctx.spec, ctx.cap
    prec = min([self.prec] + [s.prec for s in images.values()])
    one = TruncSeries.const(spec, ctx.vars, spec.one(prec), cap, prec)
    # powers[i][k] = image_i^k, each from the one before it
    powers = []
    for i, v in enumerate(self.vars):
        image = images[v].reduce_prec(prec)
        table = [one]
        for _ in range(max((m[i] for m in self.coeffs), default=0)):
            table.append(_times(table[-1], image))
        powers.append(table)
    acc = {}
    for m, d in self.coeffs.items():
        term = one
        for table, expo in zip(powers, m):
            term = _times(term, table[expo])
        c = PadicScalar(spec, d, self.prec)
        for mm, dd in term.coeffs.items():
            t = c * PadicScalar(spec, dd, prec)
            acc[mm] = acc[mm] + t if mm in acc else t
    return TruncSeries.from_scalar_dict(spec, ctx.vars, acc, cap, prec)
