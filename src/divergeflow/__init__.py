"""Analytical Riemann solvers for diverge junctions in kinematic wave traffic
models, with a Godunov / cell-transmission simulator to verify them.

Quick tour:

    from divergeflow import (
        del_castillo_mainline, del_castillo_ramp,
        lebacque, RiemannInput, solve,
    )

    diagrams = (del_castillo_mainline(), del_castillo_mainline(), del_castillo_ramp())
    inp = RiemannInput.from_densities(diagrams, (1.0, 1.0, 0.1))
    solution = solve(lebacque((0.7, 0.3)), inp)
    solution.fluxes      # (q0, q1, q2) through the junction
"""

from .fundamental_diagram import (
    DiagramKind,
    FundamentalDiagram,
    InvalidStateError,
    del_castillo_mainline,
    del_castillo_ramp,
    greenshields,
    triangular,
)
from .supply_demand import TrafficState, state_of
from .riemann import (
    DivergeModel,
    DivergeModelKind,
    RiemannInput,
    RiemannSolution,
    check_interior_admissible,
    check_stationary_admissible,
    daganzo_fifo,
    junction_fluxes,
    lebacque,
    partial_evacuation,
    priority_based,
    riemann_rule,
    solve,
    solve_batch,
    solve_fluxes,
    solve_fluxes_batch,
    supply_proportional,
)
from .waves import (
    WaveConsistencyError,
    WaveDescription,
    WaveKind,
    batch_waves,
    classify_wave,
    link_waves,
)
from .ctm import (
    BoundaryCondition,
    BoundaryKind,
    BoundarySpec,
    NumericalStabilityError,
    SimConfig,
    Trajectory,
    run,
    run_batch,
    solution_difference,
)
from .oracle import OracleResult, brute_force_batch, brute_force_fluxes, brute_force_models

__version__ = "0.1.0"

__all__ = [
    "DiagramKind",
    "FundamentalDiagram",
    "InvalidStateError",
    "del_castillo_mainline",
    "del_castillo_ramp",
    "greenshields",
    "triangular",
    "TrafficState",
    "state_of",
    "DivergeModel",
    "DivergeModelKind",
    "RiemannInput",
    "RiemannSolution",
    "check_interior_admissible",
    "check_stationary_admissible",
    "daganzo_fifo",
    "junction_fluxes",
    "lebacque",
    "partial_evacuation",
    "priority_based",
    "riemann_rule",
    "solve",
    "solve_batch",
    "solve_fluxes",
    "solve_fluxes_batch",
    "supply_proportional",
    "WaveConsistencyError",
    "WaveDescription",
    "WaveKind",
    "batch_waves",
    "classify_wave",
    "link_waves",
    "BoundaryCondition",
    "BoundaryKind",
    "BoundarySpec",
    "NumericalStabilityError",
    "SimConfig",
    "Trajectory",
    "run",
    "run_batch",
    "solution_difference",
    "OracleResult",
    "brute_force_batch",
    "brute_force_fluxes",
    "brute_force_models",
]
