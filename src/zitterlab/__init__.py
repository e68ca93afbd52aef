"""zitterlab: numerical laboratory for a deterministic extended-particle model.

Four complex vertex processes vibrate around a common gravity center; their
cycle averages carry spin +-hbar/2 and saturate Heisenberg's bound exactly,
the mean converges to the classical drift path, and when the drift is read
from a Schrodinger wave field the gravity center follows the de Broglie-Bohm
trajectory.  See README.md for the scenario runner.

The package loads lazily (PEP 562): ``import zitterlab`` imports no submodule,
and ``zitterlab.X`` imports the submodule that defines X at first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = "cli config errors fileio observables pilot process scenarios schrodinger verification".split()

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": """ConfigError EnsembleFailure EpsilonUnderflow InvalidInput LeftDomain MissingRequired NodeRegion
            NonFiniteVelocity OutOfRange PacketTooNarrow PacketTouchesBoundary ResolutionLoss StepBudgetExceeded
            UnknownField UnknownScenario ZitterlabError""",
        "config": "EpsilonMode Sense SCENARIOS ScenarioConfig",
        "process": """CircularVelocity ClassicalPath ConstantVelocity Permutation PhysParams PolynomialVelocity
            ProcessRun SampledVelocity VelocityProgram classical_trajectory gamma run_process vertex_offset
            zero_velocity""",
        "observables": "CycleTable intrinsic_spin_closed_form measure_run observables_to_csv",
        "schrodinger": """Grid2D Potential Propagator WaveFunction analytic_free_gaussian energy evolve_frames
            free_potential harmonic_ground_state harmonic_potential init_gaussian moments split_step_evolve
            stream_frames""",
        "pilot": """EquivarianceReport FrameInterpolator Trajectory VelocityField bohm_velocity_at
            ensemble_equivariance guide_process guide_processes integrate_trajectory sample_from_density
            velocity_field""",
        "verification": """CATALOG RateReport complex_hj_residual cycle_increment_residuals dynkin_apply
            least_action_saddle_check fit_rate generator_identity_check process_convergence_rates""",
        "scenarios": "ScenarioResult run_scenario",
        "cli": "parse_config",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
