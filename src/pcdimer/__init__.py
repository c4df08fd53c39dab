"""Driven-dissipative model of two quantum emitters radiatively coupled by
the normal modes of a photonic-crystal dimer, with steady-state and transient
entanglement quantified by the two-qubit negativity.

Importing the package fixes glibc's malloc thresholds for the process
(``_malloc``), so that every solver call reuses the heap pages of the last
one instead of faulting in fresh ones by a rule that depends on history."""

from ._malloc import fix_malloc_thresholds
from .exceptions import (
    ConfigError,
    DegenerateSteadyStateError,
    DomainError,
    IntegrationError,
    SingularSolveError,
    SolverError,
)
from .hilbert import (
    DEFAULT_POLICY,
    CompositeSpace,
    DensityMatrix,
    NumericPolicy,
    Operator,
    SubsystemSpec,
    boson,
    boson_annihilation,
    lowering_operators,
    partial_trace,
    qubit,
    qubit_lowering,
)
from .entanglement import bell_state, negativity, partial_transpose_first, qd_negativity
from .model import (
    HBAR_UEV_PS,
    CouplingMatrix,
    DriveParams,
    ModeParams,
    QDParams,
    SystemParams,
    build_effective_hamiltonian,
    coupling_from_field,
    identify_dark_state,
    preset_params,
)
from .liouvillian import Superoperator, assemble_generator, build_liouvillian
from .solvers import (
    ConvergenceReport,
    Schedule,
    Trajectory,
    convergence_scan,
    evolve,
    steady_state,
)
from .experiments import (
    SweepAxis,
    SweepResult,
    SweepSpec,
    dynamics_run,
    oscillation_period,
    run_sweep,
    stark_switch_protocol,
    sweep_dephasing,
    sweep_detuning,
    sweep_phase_detuning,
    sweep_splitting,
)

__version__ = "0.1.0"

fix_malloc_thresholds()
