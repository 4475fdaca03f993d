"""Pseudo-spectral simulator and verification harness for the Pitaevskii
two-fluid model: a nonlinear Schrodinger wavefunction coupled to the
inhomogeneous incompressible Navier-Stokes equations on a periodic torus."""

from .grid import Grid, GridError, make_grid
from .model import Params, PhysicsEvent, State
from .norms import inner_product
from .spectral import SpectralPlan, plan_for

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "GridError",
    "make_grid",
    "Params",
    "State",
    "PhysicsEvent",
    "inner_product",
    "SpectralPlan",
    "plan_for",
    "__version__",
]
