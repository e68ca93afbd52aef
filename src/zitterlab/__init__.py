"""zitterlab: numerical laboratory for a deterministic extended-particle model.

Four complex vertex processes vibrate around a common gravity center; their
cycle averages carry spin +-hbar/2 and saturate Heisenberg's bound exactly,
the mean converges to the classical drift path, and when the drift is read
from a Schrodinger wave field the gravity center follows the de Broglie-Bohm
trajectory.  See README.md for the scenario runner.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EnsembleFailure,
    EpsilonUnderflow,
    InvalidInput,
    LeftDomain,
    MissingRequired,
    NodeRegion,
    NonFiniteVelocity,
    OutOfRange,
    PacketTooNarrow,
    PacketTouchesBoundary,
    ResolutionLoss,
    StepBudgetExceeded,
    UnknownField,
    UnknownScenario,
    ZitterlabError,
)
from .process import (
    CircularVelocity,
    ClassicalPath,
    ConstantVelocity,
    EpsilonMode,
    Permutation,
    PhysParams,
    PolynomialVelocity,
    ProcessRun,
    SampledVelocity,
    Sense,
    VelocityProgram,
    classical_trajectory,
    gamma,
    run_process,
    vertex_offset,
    zero_velocity,
)
from .observables import (
    CycleTable,
    intrinsic_spin_closed_form,
    measure_run,
    observables_to_csv,
)
from .schrodinger import (
    Grid2D,
    Potential,
    Propagator,
    WaveFunction,
    analytic_free_gaussian,
    energy,
    evolve_frames,
    free_potential,
    harmonic_ground_state,
    harmonic_potential,
    init_gaussian,
    moments,
    split_step_evolve,
    stream_frames,
)
from .pilot import (
    EquivarianceReport,
    FrameInterpolator,
    Trajectory,
    VelocityField,
    bohm_velocity_at,
    ensemble_equivariance,
    guide_process,
    guide_processes,
    integrate_trajectory,
    sample_from_density,
    velocity_field,
)
from .verification import (
    CATALOG,
    RateReport,
    complex_hj_residual,
    cycle_increment_residuals,
    dynkin_apply,
    least_action_saddle_check,
    fit_rate,
    generator_identity_check,
    process_convergence_rates,
)
from .scenarios import SCENARIOS, ScenarioConfig, ScenarioResult, run_scenario
from .cli import parse_config
