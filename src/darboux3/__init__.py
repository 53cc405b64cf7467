"""Curved-space nonlinear oscillator on the N-dimensional Darboux III manifold.

Subpackages and modules:
  algebra   exact Weyl-algebra engine and symmetry verification
  model     closed-form scalar functions (geometry, potentials, spectrum)
  classical classical dynamics: integration, closed-form period and
            trajectory, conserved quantities
  spectra   radial bound-state solvers and closed-form eigenfunctions
  cli       command-line entry point (verify / spectrum / classical / figures)
"""

from .model import (
    EffectiveMinimum,
    ModelParams,
    classical_effective_minimum,
    classical_effective_potential,
    closed_form_energy,
    continuum_threshold,
    flattening_coordinate,
    inverse_flattening,
    oscillator_potential,
    quantum_effective_minimum,
    quantum_effective_potential,
    scalar_curvature,
)

__version__ = "0.1.0"

__all__ = [
    "EffectiveMinimum",
    "ModelParams",
    "classical_effective_minimum",
    "classical_effective_potential",
    "closed_form_energy",
    "continuum_threshold",
    "flattening_coordinate",
    "inverse_flattening",
    "oscillator_potential",
    "quantum_effective_minimum",
    "quantum_effective_potential",
    "scalar_curvature",
    "__version__",
]
