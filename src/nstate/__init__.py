"""Complete population transfer in driven degenerate n-state systems.

Public surface: problem-statement types and the pulse-area calculus
(:mod:`nstate.model`), the exact spectral engine and transfer designs
(:mod:`nstate.spectral`), the independent RK4 integrator and kick propagation
(:mod:`nstate.integrator`), and derived analyses such as the detuning-leakage
power law (:mod:`nstate.analysis`).  ``nstate.cli`` provides the command-line
front end.
"""

from .analysis import (
    LeakagePoint,
    PowerLawFit,
    find_extrema,
    fit_power_law,
    leakage_scan,
    transfer_fidelity,
)
from .integrator import (
    IntegratorConfig,
    convergence_order,
    default_dt,
    integrate,
    integrate_kicks,
    integrate_many,
)
from .model import (
    ConstantPulse,
    CosinePulse,
    ExplicitCoupling,
    GaussianPulse,
    KickTrain,
    Pulse,
    StructuredCoupling,
    SystemSpec,
    Trajectory,
    build_coupling,
    initial_state,
    invert_area,
    pulse_area,
    pulse_value,
)
from .spectral import (
    EigenSystem,
    ReducedSystem,
    TransferDesign,
    UniversalPopulations,
    design_spec,
    design_transfer,
    design_transfer_2state,
    eigen_decompose,
    evolve_analytic,
    populations_exact,
    populations_universal,
    propagator,
    reduced_system,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantPulse",
    "CosinePulse",
    "EigenSystem",
    "ExplicitCoupling",
    "GaussianPulse",
    "IntegratorConfig",
    "KickTrain",
    "LeakagePoint",
    "PowerLawFit",
    "Pulse",
    "ReducedSystem",
    "StructuredCoupling",
    "SystemSpec",
    "Trajectory",
    "TransferDesign",
    "UniversalPopulations",
    "build_coupling",
    "convergence_order",
    "default_dt",
    "design_spec",
    "design_transfer",
    "design_transfer_2state",
    "eigen_decompose",
    "evolve_analytic",
    "find_extrema",
    "fit_power_law",
    "initial_state",
    "integrate",
    "integrate_kicks",
    "integrate_many",
    "invert_area",
    "leakage_scan",
    "populations_exact",
    "populations_universal",
    "propagator",
    "pulse_area",
    "pulse_value",
    "transfer_fidelity",
]
