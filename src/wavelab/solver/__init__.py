"""Semi-discrete DG solver with PML auxiliary equations and time stepping."""

from .mesh import Mesh, build_mesh
from .fluxes import (
    hat_states_acoustic,
    hat_states_elastic,
    boundary_hat_acoustic,
    boundary_hat_elastic,
)
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
    "hat_states_acoustic", "hat_states_elastic",
    "boundary_hat_acoustic", "boundary_hat_elastic",
    "SimState", "SolverConfig", "RunRecord",
    "rhs", "timestep", "timestep_formula", "advance", "rk4_step", "run",
    "initial_state",
]
