"""Semi-discrete DG solver with PML auxiliary equations and time stepping."""

from .mesh import Mesh, build_mesh
from .core import (
    SimState,
    SolverConfig,
    RunRecord,
    rhs,
    timestep,
    timestep_formula,
    advance,
    rk4_step,
    run,
    initial_state,
)

__all__ = [
    "Mesh", "build_mesh",
    "SimState", "SolverConfig", "RunRecord",
    "rhs", "timestep", "timestep_formula", "advance", "rk4_step", "run",
    "initial_state",
]
