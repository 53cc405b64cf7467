"""Exact symbolic engine for the Weyl algebra of the curved-oscillator operators."""

from .ring import Coefficient, Poly, d_poly, divide_by_d, q_squared
from .operators import OperatorExpr, symbol_gradients, weighted_adjoint
from .parser import ParseError, parse
from .builders import (
    FLAVORS,
    build_angular_invariants,
    build_fradkin,
    build_hamiltonian,
    conjugation_exponent,
    curvature_coefficient,
    potential_u2,
    schrodinger_family,
    sl2_generators,
)
from .verify import (
    Check,
    VerifyReport,
    corrupt_fradkin,
    similarity_checks,
    verify_theorem,
)

__all__ = [
    "FLAVORS",
    "Check",
    "Coefficient",
    "OperatorExpr",
    "ParseError",
    "Poly",
    "VerifyReport",
    "build_angular_invariants",
    "build_fradkin",
    "build_hamiltonian",
    "conjugation_exponent",
    "corrupt_fradkin",
    "curvature_coefficient",
    "d_poly",
    "divide_by_d",
    "parse",
    "potential_u2",
    "q_squared",
    "schrodinger_family",
    "similarity_checks",
    "sl2_generators",
    "symbol_gradients",
    "verify_theorem",
    "weighted_adjoint",
]
