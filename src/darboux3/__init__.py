"""Curved-space nonlinear oscillator on the N-dimensional Darboux III manifold.

Subpackages and modules:
  algebra   exact Weyl-algebra engine and symmetry verification
  model     closed-form scalar functions (geometry, potentials, spectrum)
  classical classical dynamics: integration, closed-form period and
            trajectory, conserved quantities
  spectra   radial bound-state solvers and closed-form eigenfunctions
  cli       command-line entry point (verify / spectrum / classical / figures)

The package root imports nothing and exports only ``__version__``, so
``import darboux3.algebra`` loads no numpy; import from the submodules.
"""

__version__ = "0.1.0"
