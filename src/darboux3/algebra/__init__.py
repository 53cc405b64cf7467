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
    potential_u1,
    potential_u2,
    potential_v1,
    potential_v2,
    sl2_generators,
)
from .verify import (
    Check,
    VerifyReport,
    conformal_potential_identity,
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
    "conformal_potential_identity",
    "conjugation_exponent",
    "corrupt_fradkin",
    "curvature_coefficient",
    "d_poly",
    "divide_by_d",
    "parse",
    "potential_u1",
    "potential_u2",
    "potential_v1",
    "potential_v2",
    "q_squared",
    "similarity_checks",
    "sl2_generators",
    "symbol_gradients",
    "verify_theorem",
    "weighted_adjoint",
]
