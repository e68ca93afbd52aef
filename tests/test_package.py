"""The package loads lazily: its public names resolve to their submodules' objects, and config parsing,
`version`, `list-scenarios` and a config error load no numpy and no solver."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zitterlab as zl

SRC = Path(zl.__file__).resolve().parents[1]

# Every name the eager package exported, by the submodule it was imported from.
EXPORTED = {
    "errors": """ConfigError EnsembleFailure EpsilonUnderflow InvalidInput LeftDomain MissingRequired NodeRegion
        NonFiniteVelocity OutOfRange PacketTooNarrow PacketTouchesBoundary ResolutionLoss StepBudgetExceeded
        UnknownField UnknownScenario ZitterlabError""",
    "process": """CircularVelocity ClassicalPath ConstantVelocity EpsilonMode Permutation PhysParams
        PolynomialVelocity ProcessRun SampledVelocity Sense VelocityProgram classical_trajectory gamma run_process
        vertex_offset zero_velocity""",
    "observables": "CycleTable intrinsic_spin_closed_form measure_run observables_to_csv",
    "schrodinger": """Grid2D Potential Propagator WaveFunction analytic_free_gaussian energy evolve_frames
        free_potential harmonic_ground_state harmonic_potential init_gaussian moments split_step_evolve
        stream_frames""",
    "pilot": """EquivarianceReport FrameInterpolator Trajectory VelocityField bohm_velocity_at ensemble_equivariance
        guide_process guide_processes integrate_trajectory sample_from_density velocity_field""",
    "verification": """CATALOG RateReport complex_hj_residual cycle_increment_residuals dynkin_apply
        least_action_saddle_check fit_rate generator_identity_check process_convergence_rates""",
    "scenarios": "SCENARIOS ScenarioConfig ScenarioResult run_scenario",
    "cli": "parse_config",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]

HEAVY = ["numpy", *(f"zitterlab.{m}" for m in ("process", "schrodinger", "pilot", "verification", "scenarios"))]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_exported_name_is_its_submodules_object(module, name):
    assert getattr(zl, name) is getattr(importlib.import_module(f"zitterlab.{module}"), name)


def test_dir_and_all_list_the_exported_names():
    names = {name for _, name in NAMES}
    assert set(zl.__all__) == names and len(zl.__all__) == len(names)
    assert names <= set(dir(zl))
    assert {"cli", "config", "process", "scenarios"} <= set(dir(zl))


def test_star_import_binds_the_exported_names():
    namespace = {}
    exec("from zitterlab import *", namespace)
    for _, name in NAMES:
        assert namespace[name] is getattr(zl, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        zl.no_such_name


def test_submodules_are_attributes():
    assert zl.process is importlib.import_module("zitterlab.process")
    assert zl.config.SCENARIOS == zl.SCENARIOS


def run_python(*args):
    """A fresh interpreter's completed run of `python args` on this source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


# Each case runs its body, then prints which heavy modules it loaded.
LIGHT_PATHS = {
    "parse_every_default": """
import zitterlab
from zitterlab import cli
configs = [cli.parse_config(f"scenario = {name}\\n") for name in zitterlab.SCENARIOS]
assert [c.scenario for c in configs] == list(zitterlab.SCENARIOS)
""",
    "version_and_list": """
from zitterlab.cli import main
assert main(["version"]) == 0 and main(["list-scenarios"]) == 0
""",
    "bad_config_exit_two": """
from zitterlab.cli import main
assert main(["run", sys.argv[1]]) == 2
""",
}


@pytest.mark.parametrize("case", list(LIGHT_PATHS))
def test_light_paths_load_no_numpy(case, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = process_free\nhbar = -1\n")
    code = f"import sys\n{LIGHT_PATHS[case]}\nprint(sorted(set(sys.modules) & set({HEAVY!r})))\n"
    proc = run_python("-c", code, str(bad))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    if case == "bad_config_exit_two":
        assert "config error: line 2: bad value for 'hbar'" in proc.stderr


def test_run_as_main_module_runs_once():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "zitterlab.cli", "version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{zl.__version__}\n" and proc.stderr == ""
