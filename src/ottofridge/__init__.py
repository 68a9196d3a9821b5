"""Simulation and optimization of a reciprocating quantum refrigerator.

The working medium is an ensemble of harmonic oscillators whose frequency is
the external control.  The package propagates the closed set of second-moment
expectations through the four cycle branches, finds the periodic limit cycle,
optimizes the cooling rate over branch times and frequency protocols, and
extracts the low-temperature scaling law of the optimal cooling rate.
"""

__version__ = "0.1.0"

from .cycle import (
    BranchRecord,
    CycleRecord,
    CycleSpec,
    NoContractionError,
    isochore_time_derivatives,
    limit_cycle,
)
from .dynamics import (
    BathSpec,
    Observables,
    StateVector,
    adiabat_power,
    equilibrium_state,
    observables,
    propagate,
    propagate_isochore,
)
from .optimize import (
    GAResult,
    OptimizationResult,
    OptimizationSpec,
    ga_schedule_search,
    lambert_w0,
    optimal_cold_frequency,
    optimize_time_allocation,
    solve_isochore_z,
)
from .scaling import (
    PowerLawFit,
    SweepResult,
    SweepRow,
    SweepSpec,
    fit_power_law,
    temperature_sweep,
)
from .schedules import (
    Schedule,
    ScheduleError,
    build_three_jump,
    critical_mu,
    three_jump_times,
)

__all__ = [
    "__version__",
    "BathSpec", "StateVector", "Observables",
    "equilibrium_state", "observables", "adiabat_power",
    "propagate_isochore", "propagate",
    "Schedule", "ScheduleError", "critical_mu", "three_jump_times", "build_three_jump",
    "CycleSpec", "CycleRecord", "BranchRecord", "NoContractionError",
    "limit_cycle", "isochore_time_derivatives",
    "OptimizationSpec", "OptimizationResult", "GAResult",
    "solve_isochore_z", "lambert_w0", "optimal_cold_frequency",
    "optimize_time_allocation", "ga_schedule_search",
    "SweepSpec", "SweepRow", "SweepResult", "PowerLawFit",
    "fit_power_law", "temperature_sweep",
]
