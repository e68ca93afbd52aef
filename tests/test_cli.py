"""Config parsing, scenario runner surface, exit codes, determinism."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import zitterlab as zl
from zitterlab.cli import main, parse_config
from zitterlab.scenarios import SCENARIOS, ScenarioConfig, run_scenario


MINIMAL = "scenario = spin_table\n"


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario == "spin_table"
        assert cfg.hbar == 1.0 and cfg.mass == 1.0
        assert cfg.epsilon == 0.01
        assert cfg.permutation == "s_plus"
        assert cfg.provided == frozenset({"scenario"})

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full run\n\nscenario = convergence  # inline\nT = 2.0\n")
        assert cfg.scenario == "convergence"
        assert cfg.T == 2.0

    def test_lists_and_complex_values(self):
        cfg = parse_config(
            "scenario = process_free\n"
            "epsilons = 0.1, 0.01, 0.001\n"
            "velocity = constant\n"
            "velocity_x = 1+0.5j\n"
            "z0_y = -2j\n"
        )
        assert cfg.epsilons == (0.1, 0.01, 0.001)
        assert cfg.velocity_x == 1 + 0.5j
        assert cfg.z0_y == -2j

    def test_missing_scenario(self):
        with pytest.raises(zl.MissingRequired):
            parse_config("hbar = 1.0\n")

    def test_unknown_scenario(self):
        with pytest.raises(zl.UnknownScenario) as err:
            parse_config("scenario = pauli3d\n")
        assert "line 1" in str(err.value)

    def test_unknown_field_carries_line_number(self):
        with pytest.raises(zl.UnknownField) as err:
            parse_config(MINIMAL + "\nwibble = 3\n")
        assert "line 3" in str(err.value)

    def test_out_of_range(self):
        with pytest.raises(zl.OutOfRange):
            parse_config(MINIMAL + "epsilon = -1\n")
        with pytest.raises(zl.OutOfRange):
            parse_config(MINIMAL + "n_grid = 0\n")
        with pytest.raises(zl.OutOfRange):
            parse_config(MINIMAL + "epsilon = banana\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(zl.OutOfRange):
            parse_config(MINIMAL + "hbar = 1\nhbar = 2\n")

    def test_malformed_line(self):
        with pytest.raises(zl.OutOfRange):
            parse_config("scenario spin_table\n")

    def test_per_scenario_defaults(self):
        cfg = parse_config("scenario = harmonic_ground\n")
        assert (cfg.n_grid, cfg.box_half_width) == (128, 10.0)
        assert cfg.provided == frozenset({"scenario"})
        cfg = parse_config("scenario = harmonic_ground\nn_grid = 64\n")
        assert (cfg.n_grid, cfg.box_half_width) == (64, 10.0)
        assert parse_config("scenario = harmonic_coherent\n").center_x == 2.0
        assert parse_config("scenario = guided_process\n").n_grid == 128
        assert parse_config("scenario = lemma1\n").velocity == "circular"
        assert parse_config("scenario = convergence\nvelocity = zero\n").velocity == "zero"
        assert parse_config("scenario = free_gaussian\n").n_grid == 256

    @pytest.mark.parametrize(
        "scenario, sweep",
        [
            ("spin_table", (1e-1, 1e-2, 1e-3)),
            ("heisenberg_table", (1e-1, 1e-2, 1e-3)),
            ("convergence", (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)),
            ("lemma1", (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)),
        ],
    )
    def test_parsed_config_holds_the_sweep_it_runs(self, scenario, sweep):
        assert parse_config(f"scenario = {scenario}\n").epsilons == sweep
        assert parse_config(f"scenario = {scenario}\nepsilons = 0.5, 0.05\n").epsilons == (0.5, 0.05)


# key -> (accepted text, its parsed value, rejected text), one row per config
# key; the parsed value is compared by repr, so 64 and 64.0 differ.
KEY_CASES = {
    "scenario": ("lemma1", "lemma1", "pauli3d"),
    "hbar": ("2.5", 2.5, "0"),
    "mass": ("3", 3.0, "-1"),
    "epsilon": ("1e-3", 1e-3, "0"),
    "epsilon_mode": ("de_broglie", "de_broglie", "Fixed"),
    "light_speed": ("2", 2.0, "-2"),
    "epsilon_floor": ("1e-9", 1e-9, "0"),
    "permutation": ("s_minus", "s_minus", "s_zero"),
    "velocity": ("polynomial", "polynomial", "linear"),
    "velocity_x": ("1 + 0.5j", 1 + 0.5j, "1+"),
    "velocity_y": ("-2j", complex(0, -2), "j2"),
    "velocity_coeffs_x": ("1, 2j, -3", (1 + 0j, 2j, -3 + 0j), "1, x"),
    "velocity_coeffs_y": ("0.5", (0.5 + 0j,), "a"),
    "circular_omega": ("-2", -2.0, "two"),
    "circular_amplitude": ("0", 0.0, ""),
    "z0_x": ("3", 3 + 0j, "1+2k"),
    "z0_y": ("1j", 1j, "abc"),
    "cycles": ("7", 7, "0"),
    "epsilons": ("0.1, 0.01", (0.1, 0.01), "0.1, -0.01"),
    "T": ("2.5", 2.5, "-1"),
    "dt": ("5e-4", 5e-4, "0"),
    "n_grid": ("64", 64, "64.0"),
    "box_half_width": ("12", 12.0, "0"),
    "sigma0": ("0.5", 0.5, "-0.5"),
    "center_x": ("-1.5", -1.5, "x"),
    "center_y": ("2", 2.0, "1, 2"),
    "k0_x": ("-3", -3.0, "nope"),
    "k0_y": ("0.25", 0.25, ""),
    "omega": ("2", 2.0, "0"),
    "frame_stride": ("10", 10, "-5"),
    "seed_x": ("0.5", 0.5, "a"),
    "seed_y": ("-0.5", -0.5, "b"),
    "ensemble_n": ("2000", 2000, "1e4"),
    "seed": ("0", 0, "1.5"),
    "bins": ("16", 16, "0"),
    "rho_floor": ("1e-10", 1e-10, "0"),
    "hj_rho_floor": ("1e-3", 1e-3, "-1"),
    "hj_time": ("0.25", 0.25, "0"),
    "hj_dts": ("4e-3, 1e-3", (4e-3, 1e-3), ""),
    "hj_ns": ("16, 32", (16, 32), "16, 0"),
    "guided_epsilons": ("2e-3, 1e-3", (2e-3, 1e-3), "0"),
    "write_frames": ("Yes", True, "maybe"),
}


def test_key_cases_cover_every_key():
    assert set(KEY_CASES) == {f.name for f in fields(ScenarioConfig)} - {"provided"}
    assert len(KEY_CASES) == 42


@pytest.mark.parametrize("key", list(KEY_CASES))
def test_each_key_accepts_and_rejects(key):
    accepted, parsed, rejected = KEY_CASES[key]
    prefix = "" if key == "scenario" else "scenario = process_free\n"
    cfg = parse_config(f"{prefix}{key} = {accepted}\n")
    assert repr(getattr(cfg, key)) == repr(parsed)
    assert key in cfg.provided
    with pytest.raises(zl.ConfigError):
        parse_config(f"{prefix}{key} = {rejected}\n")


class TestRunScenario:
    def test_process_free_writes_files(self, tmp_path):
        cfg = parse_config("scenario = process_free\nepsilon = 0.05\nT = 1.0\n")
        result = run_scenario(cfg, tmp_path)
        assert result.passed
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("sense", ["s_plus", "s_minus"])
    def test_process_free_offset_identity_catches_the_other_sense(self, tmp_path, monkeypatch, sense):
        # rows 1 and 3 swapped: each sense runs with the other sense's offsets
        table = zl.Permutation.offset_table
        monkeypatch.setattr(zl.Permutation, "offset_table", lambda self: table(self)[[0, 3, 2, 1]])
        cfg = parse_config(f"scenario = process_free\nepsilon = 0.05\nT = 1.0\npermutation = {sense}\n")
        checks = {name: ok for name, ok, _ in run_scenario(cfg, tmp_path).checks}
        assert checks == {"offset_identity": False, "boundary_coincidence": True, "mean_of_vertices": True}

    @pytest.mark.parametrize("block", [4, 8, 4096])
    @pytest.mark.parametrize(
        "text",
        [
            # eps varies by cycle; 113 states
            "epsilon_mode = de_broglie\nvelocity = polynomial\nvelocity_coeffs_x = 2, 1.5\n"
            "velocity_coeffs_y = 0.5+0.25j, -0.25\nT = 5\nz0_x = 3+2j\n",
            # 103 states: the run ends two steps into a cycle
            "velocity = circular\nT = 1.02\nz0_y = -1j\n",
        ],
        ids=["de_broglie", "partial_cycle"],
    )
    def test_process_free_checks_by_block_equal_the_whole_run(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(zl.process, "_BLOCK_STATES", block)
        cfg = parse_config("scenario = process_free\n" + text)
        run_scenario(cfg, tmp_path / "out")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        run = zl.run_process(cfg.phys(), cfg.perm(), cfg.program(), (cfg.z0_x, cfg.z0_y), cfg.T)
        # the run's CSV, written block by block, is the whole run's
        run.to_csv(tmp_path / "whole.csv")
        assert (tmp_path / "out" / "run.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        g = (1.0 + 1.0j) * np.sqrt(cfg.hbar * run.epsilons / (4.0 * cfg.mass))
        predicted = run.means[:, None, :] + g[:, None, None] * run.perm.offset_table()[np.arange(len(run)) % 4]
        boundary = np.arange(0, len(run), 4)
        assert report == {
            "scenario": "process_free",
            "steps": len(run) - 1,
            "offset_identity_max_dev": float(np.max(np.abs(run.vertices - predicted))),
            "boundary_coincidence_max_dev": float(
                np.max(np.abs(run.vertices[boundary] - run.means[boundary, None, :]))
            ),
            "mean_of_vertices_max_dev": float(np.max(np.abs(run.vertices.mean(axis=1) - run.means))),
        }

    def test_spin_table_check_and_rows(self, tmp_path):
        cfg = parse_config("scenario = spin_table\ncycles = 5\nepsilons = 0.1, 0.01\n")
        result = run_scenario(cfg, tmp_path)
        assert result.passed
        table = json.loads((tmp_path / "spin_table.json").read_text())
        targets = {row["sense"]: row["intrinsic_target"] for row in table["rows"]}
        assert targets == {"s_plus": -0.5, "s_minus": 0.5}

    def test_unknown_scenario_guard(self, tmp_path):
        cfg = parse_config(MINIMAL)
        object.__setattr__(cfg, "scenario", "frobnicate")
        with pytest.raises(zl.UnknownScenario):
            run_scenario(cfg, tmp_path)

    def test_free_gaussian_frame_export(self, tmp_path):
        from zitterlab.fileio import read_zlab_frame

        cfg = parse_config(
            "scenario = free_gaussian\nn_grid = 128\nbox_half_width = 10.0\n"
            "T = 0.02\nframe_stride = 10\nwrite_frames = true\n"
        )
        result = run_scenario(cfg, tmp_path)
        assert result.passed
        frames = sorted(tmp_path.glob("frame_*.zlab"))
        assert len(frames) == 3
        values, half_width, t = read_zlab_frame(frames[-1])
        assert half_width == 10.0 and t == pytest.approx(0.02)
        assert values.shape == (128, 128)

    def test_process_free_with_de_broglie_epsilon(self, tmp_path):
        cfg = parse_config(
            "scenario = process_free\n"
            "epsilon_mode = de_broglie\n"
            "velocity = constant\n"
            "velocity_x = 2.0\n"
            "velocity_y = 0.0\n"
            "T = 3.0\n"
        )
        result = run_scenario(cfg, tmp_path)
        assert result.passed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["offset_identity_max_dev"] <= 1e-13


class TestMainEntry:
    def test_version_and_catalog(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == zl.__version__
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert list(SCENARIOS) == out

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text("scenario = heisenberg_table\ncycles = 5\nepsilons = 0.1, 0.01, 0.001\n")
        code = main(["run", str(cfg_path), "--check", "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS heisenberg_table:product_hbar_over_2" in out
        assert (tmp_path / "out" / "heisenberg.json").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = spin_table\nepsilon = -3\n")
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = convergence\nepsilons = 0.01, 0.001\n",
            # 12 steps do not split into frames of frame_stride = 5
            "scenario = free_gaussian\nn_grid = 64\nbox_half_width = 8\nT = 0.012\ndt = 0.001\n",
            # eps = 0.04 is longer than the frame spacing 0.005
            "scenario = guided_process\nn_grid = 64\nbox_half_width = 8\nT = 0.2\n"
            "guided_epsilons = 0.04, 0.02, 0.01\n",
            "scenario = free_gaussian\nn_grid = 8\n",
            "scenario = hj_residual\nhj_ns = 8, 16\n",
            "scenario = equivariance\nensemble_n = 500\n",
            # every number must be finite, seed >= 0 and every list non-empty
            "scenario = process_free\nhbar = inf\n",
            "scenario = process_free\nepsilon = inf\n",
            "scenario = free_gaussian\ndt = inf\n",
            "scenario = free_gaussian\nbox_half_width = inf\n",
            "scenario = process_free\nT = inf\n",
            "scenario = harmonic_ground\nomega = inf\n",
            "scenario = equivariance\nseed = -1\n",
            "scenario = process_free\nvelocity = polynomial\nvelocity_coeffs_x = ,\n",
            # found by the config fuzz
            "scenario = lemma1\nT = 0.01\n",
            "scenario = lemma1\nepsilon_mode = de_broglie\n",
            "scenario = hj_residual\nn_grid = 64\nhj_ns = 16, 32\nhj_rho_floor = 3\n",
            "scenario = convergence\ncircular_amplitude = 0\n",
            "scenario = heisenberg_table\nepsilons = 1\n",
            "scenario = spin_table\ncycles = 1\nepsilon_mode = compton\n",
            # a table labels its rows with the swept eps, so only a fixed eps fits
            "scenario = spin_table\ncycles = 1000\nepsilons = 0.1, 0.01\nepsilon_mode = compton\n",
            "scenario = heisenberg_table\nepsilon_mode = de_broglie\n",
            # a sweep or a guided process runs at the eps it is given, so only a fixed eps fits
            "scenario = convergence\nepsilon_mode = compton\n",
            "scenario = convergence\nepsilon_mode = de_broglie\n",
            "scenario = guided_process\nn_grid = 64\nbox_half_width = 8\nT = 0.2\n"
            "guided_epsilons = 4e-3, 2e-3, 1e-3\nepsilon_mode = de_broglie\n",
        ],
        ids=[
            "short_sweep",
            "stride_mismatch",
            "eps_over_frame_spacing",
            "grid_too_small",
            "hj_grid_too_small",
            "too_few_samples",
            "hbar_inf",
            "epsilon_inf",
            "dt_inf",
            "box_inf",
            "T_inf",
            "omega_inf",
            "negative_seed",
            "empty_coeff_list",
            "T_under_one_cycle",
            "increments_need_fixed_eps",
            "floor_masks_every_cell",
            "zero_error_rate_fit",
            "one_point_rate_fit",
            "table_without_a_cycle",
            "spin_table_compton_eps",
            "heisenberg_table_de_broglie_eps",
            "convergence_compton_eps",
            "convergence_de_broglie_eps",
            "guided_process_de_broglie_eps",
        ],
    )
    def test_inconsistent_inputs_exit_two(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--check", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = free_gaussian\nT = 1e-5\n",
            "scenario = harmonic_ground\nT = 1e-5\n",
            "scenario = equivariance\nT = 1e-5\n",
            "scenario = guided_process\nT = 1e-5\n",
            # its T is the period 2 pi / omega
            "scenario = harmonic_coherent\ndt = 20\n",
        ],
        ids=["free_gaussian", "harmonic_ground", "equivariance", "guided_process", "harmonic_coherent"],
    )
    def test_wave_run_of_no_step_exits_two(self, tmp_path, capsys, text):
        # T < dt/2 rounds to 0 steps
        cfg = tmp_path / "short.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--check", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "would take no step" in err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize(
        "text, failure",
        [
            ("scenario = harmonic_ground\nhbar = 1e300\n", "FAIL harmonic_ground:energy_conservation (rel drift nan)"),
            ("scenario = hj_residual\nhbar = 1e300\n", "FAIL hj_residual:hj_linf (L_inf nan)"),
            ("scenario = hj_residual\nsigma0 = 1e300\n", "FAIL hj_residual:hj_linf (L_inf nan)"),
        ],
        ids=["harmonic_ground_hbar", "hj_residual_hbar", "hj_residual_sigma0"],
    )
    def test_huge_hbar_fails_its_check_without_a_traceback(self, tmp_path, capsys, text, failure):
        # hbar^2 or sigma0^2 overflows to inf, so the checked number is nan and fails its check
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--check", "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert failure in captured.out
        written = sorted((tmp_path / "o").glob("*.json"))
        assert written

        def reject(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        for path in written:
            json.loads(path.read_text(), parse_constant=reject)

    @pytest.mark.parametrize(
        "light_speed, code, error",
        [("1e300", 3, "runtime error: EpsilonUnderflow: "), ("1e-300", 2, "config error: compton epsilon")],
        ids=["eps_underflows", "eps_not_finite"],
    )
    def test_extreme_light_speed_has_a_typed_error(self, tmp_path, capsys, light_speed, code, error):
        cfg = tmp_path / "compton.cfg"
        cfg.write_text(f"scenario = process_free\nepsilon_mode = compton\nlight_speed = {light_speed}\n")
        assert main(["run", str(cfg), "--check", "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err

    def test_runtime_error_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "narrow.cfg"
        # valid config, but the packet is unresolvable on this grid
        cfg.write_text("scenario = free_gaussian\nsigma0 = 0.1\nT = 0.01\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "PacketTooNarrow" in capsys.readouterr().err

    def test_unusable_out_exit_three(self, tmp_path, capsys):
        # --out below a regular file: the run's first write raises NotADirectoryError
        cfg = tmp_path / "spin.cfg"
        cfg.write_text(MINIMAL)
        (tmp_path / "file").write_text("")
        assert main(["run", str(cfg), "--check", "--out", str(tmp_path / "file" / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: NotADirectoryError: ") and "Traceback" not in err

    def test_step_budget_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(zl.process, "DE_BROGLIE_CYCLE_BUDGET", 1)
        cfg = tmp_path / "long.cfg"
        # two de_broglie cycles (4*eps = 1.57 at speed 2) against a budget of one
        cfg.write_text(
            "scenario = process_free\nepsilon_mode = de_broglie\nvelocity = constant\n"
            "velocity_x = 2.0\nvelocity_y = 0.0\nT = 3.0\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "StepBudgetExceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["process_free", "lemma1"])
    def test_fixed_mode_step_budget_exit_three(self, tmp_path, capsys, scenario):
        # 1e302 steps of eps = 0.01, checked before anything is allocated
        cfg = tmp_path / "long.cfg"
        cfg.write_text(f"scenario = {scenario}\nT = 1e300\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "StepBudgetExceeded" in capsys.readouterr().err

    def test_check_failure_exit_one(self, tmp_path, capsys):
        # 1000 samples leave multinomial noise well above the TV thresholds
        cfg = tmp_path / "thin.cfg"
        cfg.write_text(
            "scenario = equivariance\nensemble_n = 1000\nT = 0.1\n"
            "n_grid = 128\nbox_half_width = 10.0\n"
        )
        assert main(["run", str(cfg), "--check", "--out", str(tmp_path / "o")]) == 1
        assert "FAIL" in capsys.readouterr().out
        # without --check the same run exits 0
        assert main(["run", str(cfg), "--out", str(tmp_path / "o2")]) == 0

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = equivariance\nensemble_n = 1500\nT = 0.2\nn_grid = 128\nbox_half_width = 10.0\nseed = 99\n",
            # the ratio kernel holds its buffers across calls: a 3-row HJ call
            # here, 2-row field calls in the next case
            "scenario = hj_residual\nn_grid = 64\nhj_ns = 16, 32, 64\n",
            "scenario = guided_process\nn_grid = 64\nbox_half_width = 8\nT = 0.2\nguided_epsilons = 4e-3, 2e-3, 1e-3\n",
            # the free frame stream with its .zlab frames, and the harmonic product path
            "scenario = free_gaussian\nn_grid = 64\nbox_half_width = 8\nT = 0.05\nwrite_frames = true\n",
            "scenario = harmonic_coherent\nn_grid = 64\nbox_half_width = 5.5\ncenter_x = 0.5\ndt = 3e-3\n",
        ],
        ids=["equivariance", "hj_residual", "guided_process", "free_gaussian_frames", "harmonic_coherent"],
    )
    def test_byte_identical_reruns(self, tmp_path, text):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_every_scenario_name_has_a_runner():
    from zitterlab.scenarios import _RUNNERS

    assert tuple(_RUNNERS) == SCENARIOS  # the same names, in the catalog's order


def test_readme_defaults_table_names_each_per_scenario_key():
    """The keys in README's per-scenario default table are the config fields
    whose metadata holds per-scenario defaults."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | per-scenario default |") + 2  # past the header and its rule
    named = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        named.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert named == {f.name for f in fields(ScenarioConfig) if f.metadata.get("by_scenario")}
    assert "epsilons" in named
