"""The general loop of `arithjet.series.TruncSeries.substitute`, as it was
before images of one term were relabeled, kept verbatim as the reference
for the relabeling: it builds the powers of each image that a monomial
uses and multiplies them by `TruncSeries.__mul__`, whatever the images."""

from arithjet.errors import IncompatibleSpec, NonNilpotentComposition
from arithjet.ring import digit_product
from arithjet.series import TruncSeries, _power, _raw_add, _reduce_ints


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
    prec = min([self.prec] + [s.prec for s in images.values()])
    cap = ctx.cap
    one = TruncSeries.const(ctx.spec, ctx.vars, ctx.spec.one(prec), cap,
                            prec)
    # build only the powers of each image that a monomial uses; sum raw
    # digit products (bare ints at e = 1), reduce once
    powers = {}
    for i, v in enumerate(self.vars):
        used = {m[i] for m in self.coeffs} - {0}
        if used:
            image = images[v]
            known = {1: image if image.prec == prec
                     else image.reduce_prec(prec)}
            for n in sorted(used):
                _power(known, n)
            powers[v] = known
    unramified = ctx.spec.e == 1
    out: dict = {}
    get = out.get
    for m, d in self.coeffs.items():
        term = one
        for v, expo in zip(self.vars, m):
            if expo == 0:
                continue
            piece = powers[v][expo]
            term = piece if term is one else term * piece
        if unramified:
            x = d[0]
            for mm, dd in term.coeffs.items():
                out[mm] = get(mm, 0) + x * dd[0]
        else:
            for mm, dd in term.coeffs.items():
                prod = digit_product(ctx.spec, d, dd)
                cur = get(mm)
                out[mm] = _raw_add(cur, prod) if cur is not None else prod
    if unramified:
        return TruncSeries(
            ctx.spec, ctx.vars,
            _reduce_ints(out, ctx.spec.moduli(prec)[0], cap), cap, prec,
            _canonical=True)
    return TruncSeries(ctx.spec, ctx.vars, out, cap, prec)
