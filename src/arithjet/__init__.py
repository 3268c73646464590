"""Exact pi-adic engine: Witt vectors, lateral Frobenius, jet-space
characters and filtered F-crystals of elliptic curves, all verified at
finite pi-adic precision."""

from .errors import (
    BadReduction,
    DegreeCapTooSmall,
    EngineError,
    IncompatibleSpec,
    Inconclusive,
    IntegralityViolation,
    InvalidParameters,
    NonNilpotentComposition,
    NotDivisible,
    NotInVImage,
    PrecisionExhausted,
)
from .ring import BaseRingSpec, PadicScalar
from .series import FracSeries, TruncSeries
from .witt import (
    WittVector,
    f_tilde,
    frobenius_W,
    structural_polynomials,
    teichmuller,
    verschiebung,
)
from .lateral import (
    TildeWittVector,
    from_witt,
    generic_tilde,
    lateral_frobenius,
    tilde_pack,
)
from .howell import (
    left_kernel_basis,
    module_rank,
    right_kernel_basis,
)
from .fgl import (
    FormalGroupLaw,
    formal_group_from_weierstrass,
    formal_logarithm,
    frobenius_unit_root,
    trace_of_frobenius,
)
from .characters import (
    Character,
    RankTable,
    extract_lambda_gamma,
    frobenius_pullback,
    i_star,
    jet_group_law,
    kernel_group_law,
    lateral_pullback,
    psi_basis,
    rank_table,
    solve_additive,
    solve_delta_characters,
    splitting_number,
    u_star,
    upsilon,
)
from .crystal import (
    FilteredIsocrystal,
    build_crystal,
    de_rham_shadow,
    polygons,
    weak_admissibility,
)

__all__ = [
    "BadReduction", "BaseRingSpec", "Character", "DegreeCapTooSmall",
    "EngineError", "FilteredIsocrystal", "FormalGroupLaw", "FracSeries",
    "IncompatibleSpec", "Inconclusive", "IntegralityViolation",
    "InvalidParameters", "NonNilpotentComposition", "NotDivisible",
    "NotInVImage", "PadicScalar", "PrecisionExhausted", "RankTable",
    "TildeWittVector", "TruncSeries", "WittVector", "build_crystal",
    "de_rham_shadow", "extract_lambda_gamma", "f_tilde",
    "formal_group_from_weierstrass", "formal_logarithm", "frobenius_W",
    "frobenius_pullback", "frobenius_unit_root", "from_witt", "generic_tilde",
    "i_star", "jet_group_law", "kernel_group_law", "lateral_frobenius",
    "lateral_pullback", "left_kernel_basis", "module_rank", "polygons",
    "psi_basis", "rank_table", "right_kernel_basis", "solve_additive",
    "solve_delta_characters", "splitting_number", "structural_polynomials",
    "teichmuller", "tilde_pack", "trace_of_frobenius", "u_star", "upsilon",
    "verschiebung", "weak_admissibility",
]

__version__ = "0.1.0"
