"""Exception hierarchy for the exact pi-adic engine.

Everything raised on purpose derives from EngineError.  IntegralityViolation
is special: it signals that an exact computation produced a non-integral
coefficient where the theory guarantees integrality, i.e. an implementation
bug (or a falsified theorem) — callers must never swallow it.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class IncompatibleSpec(EngineError):
    """Operands live over different base rings / variable contexts / caps."""


class NotDivisible(EngineError):
    """Requested exact division by pi^k but the valuation is too small."""


class PrecisionExhausted(EngineError):
    """Not enough pi-adic digits left to perform the operation."""


class NotInVImage(EngineError):
    """A Witt vector expected to lie in the image of V does not."""


class NonNilpotentComposition(EngineError):
    """Series substitution with a nonzero constant term."""


class BadReduction(EngineError):
    """Weierstrass data with non-unit discriminant."""


class IntegralityViolation(EngineError):
    """A coefficient that must be integral is not.  Red alert, never catch."""


class DegreeCapTooSmall(EngineError):
    """The degree cap cannot see the leading monomials the computation needs."""


class Inconclusive(EngineError):
    """The finite precision/degree window cannot decide the question."""


class InvalidParameters(EngineError):
    """Pipeline parameters violate a structural guarantee."""
