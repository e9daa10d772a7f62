"""Quantum Otto machines on a two-qubit Heisenberg XXZ working substance.

Steady states of the Pauli master equation for two simultaneously coupled
thermal reservoirs (symmetric or asymmetric coupling), cycle
thermodynamics (heats, work, efficiency, the positive-work and
unity-efficiency conditions), heat currents and entropy production, and a
deterministic parameter-sweep engine with figure presets.
"""

from .baths import (
    BathParams,
    RateSet,
    bose_occupation,
    transition_rates,
)
from .cycles import (
    CycleKind,
    CycleResult,
    CycleSpec,
    StageState,
    cycle_thermo,
    efficiency,
    evaluate_cycle,
    positive_work_condition,
    stage_entropy_production,
    stage_populations,
    stage_states,
    stage_temperatures,
    unity_efficiency_condition,
    w_max,
)
from .dynamics import (
    IntegrationStabilityError,
    ThermoFlows,
    Trajectory,
    entropy_balance_along,
    entropy_flux,
    entropy_production_steady,
    evolve_populations,
    flows_at,
    heat_currents,
    relaxation_time,
    shannon_entropy,
    spectral_gap,
)
from .model import (
    COUPLED_PAIRS,
    DegenerateCouplingError,
    EigenSystem,
    SystemParams,
    Transition,
    eigenenergies,
    hamiltonian_matrix,
    transition_table,
)
from .steady import (
    ClosedFormInapplicableError,
    NonUniqueSteadyStateError,
    PopulationVector,
    RateGenerator,
    SteadyStateError,
    generator_matrix,
    gibbs_state,
    steady_state_closed_form,
    steady_state_solve,
)
from .sweep import (
    FigurePanel,
    FigurePreset,
    FigureRun,
    SweepAxis,
    SweepConfig,
    SweepTable,
    figure_preset,
    project_panel,
    run_sweep,
)

__version__ = "0.1.0"
