"""Transient MNA circuit simulation with data-driven (measurement-backed) elements."""

# Keep equal to [project] version in pyproject.toml.
__version__ = "0.1.0"

from .netlist import (
    CircuitGraph,
    IncidenceSet,
    NetlistError,
    build_incidence,
    parse_netlist,
    serialize_netlist,
)
from .elements import (
    LinearModel,
    MlccCapacitorModel,
    ModelDomainError,
    ShockleyDiodeModel,
    SourceWaveform,
)
from .dataset import (
    ElementBinding,
    MeasurementSet,
    NearestNeighborIndex,
    SamplingPlan,
    bindings_from_graph,
    generate_measurements,
    load_measurements,
    operating_envelope,
    save_measurements,
)
from .state import (
    CircuitState,
    InitialCondition,
    TransientConfig,
    TransientTrace,
)
from .reference import (
    SolverError,
    TraditionalSolver,
    analytic_rc_voltage,
    kcl_residual,
    run_transient_traditional,
)
from .ddsolver import (
    DDConfig,
    DDSolver,
    DDSolverError,
    DDStepTrace,
    brute_force_timestep,
    run_transient_dd,
)
from .metrics import (
    ConvergencePoint,
    ErrorSeries,
    convergence_slope,
    energy_mismatch_error,
    rms_error,
)
from .scenarios import SCENARIOS, ExperimentSpec, run_cell, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
