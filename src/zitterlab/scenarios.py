"""Named end-to-end experiments behind the command-line runner.

Every scenario reads a validated :class:`ScenarioConfig`, writes its data
files into the output directory (atomically, with 17-digit floats), and
returns a list of (check name, passed, detail) triples used by --check mode.
All randomness flows from the single config seed, so identical configs give
byte-identical outputs.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import observables as obs
from . import pilot, schrodinger, verification
from .errors import InvalidInput, UnknownScenario
from .fileio import write_csv, write_json
from .process import (
    CircularVelocity,
    ConstantVelocity,
    EpsilonMode,
    Permutation,
    PhysParams,
    PolynomialVelocity,
    Sense,
    VERTICES,
    _fixed_epsilon,
    _run_blocks,
    _write_run_csv,
    run_process,
    zero_velocity,
)
from .schrodinger import Grid2D, WaveFunction

# Scenario name -> runner.  Filled in at the end of the module, once the
# runners exist; the `scenario` key's parser reads it at parse time.
_RUNNERS: dict = {}

CONVERGENCE_EPSILONS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
TABLE_EPSILONS = (1e-1, 1e-2, 1e-3)
GUIDED_EPSILONS = (4e-3, 2e-3, 1e-3)
# The harmonic and guided scenarios run on 128 points over a half width of 10.
_SMALL_BOX = ("harmonic_ground", "harmonic_coherent", "guided_process")


def _number(kind=float, above=None):
    """Parser of one finite number of `kind` (float, int or complex), > `above` if given."""

    def parse(raw: str):
        value = kind(raw.replace(" ", "") if kind is complex else raw)
        if kind is not int and not cmath.isfinite(value):
            raise ValueError("must be finite")
        if above is not None and not value > above:
            raise ValueError(f"must be > {above}")
        return value

    return parse


def _list(item):
    """Parser of a non-empty comma list, each entry read by `item`."""

    def parse(raw: str) -> tuple:
        values = tuple(item(tok) for tok in raw.split(",") if tok.strip())
        if not values:
            raise ValueError("must be a non-empty comma list")
        return values

    return parse


def _choice(options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw

    return parse


def _flag(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be true/false")


_FINITE = _number(float)
_POSITIVE = _number(float, above=0.0)
_COUNT = _number(int, above=0)
_COMPLEX = _number(complex)


def _key(default, parse, **by_scenario):
    """A config key: its default, the parser of its value text and the
    scenarios whose default differs (name=value)."""
    return field(default=default, metadata={"parse": parse, "by_scenario": by_scenario})


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated key-value configuration of one scenario run.

    Every field but `provided` is a config key; its metadata holds the value
    parser and the per-scenario defaults that `cli.parse_config` fills in.
    `provided` names the keys the config document gave.
    """

    scenario: str = field(metadata={"parse": _choice(_RUNNERS), "by_scenario": {}})
    hbar: float = _key(1.0, _POSITIVE)
    mass: float = _key(1.0, _POSITIVE)
    epsilon: float = _key(0.01, _POSITIVE)
    epsilon_mode: str = _key("fixed", _choice([m.value for m in EpsilonMode]))
    light_speed: float = _key(1.0, _POSITIVE)
    epsilon_floor: float = _key(1e-12, _POSITIVE)
    permutation: str = _key("s_plus", _choice([s.value for s in Sense]))
    velocity: str = _key(
        "zero", _choice(("zero", "constant", "circular", "polynomial")), convergence="circular", lemma1="circular"
    )
    velocity_x: complex = _key(1.0, _COMPLEX)
    velocity_y: complex = _key(0.0, _COMPLEX)
    velocity_coeffs_x: tuple = _key((0.0,), _list(_COMPLEX))
    velocity_coeffs_y: tuple = _key((0.0,), _list(_COMPLEX))
    circular_omega: float = _key(1.0, _FINITE)
    circular_amplitude: float = _key(1.0, _FINITE)
    z0_x: complex = _key(0.0, _COMPLEX)
    z0_y: complex = _key(0.0, _COMPLEX)
    cycles: int = _key(100, _COUNT)
    epsilons: tuple = _key((), _list(_POSITIVE))
    T: float = _key(1.0, _POSITIVE)
    dt: float = _key(1e-3, _POSITIVE)
    n_grid: int = _key(256, _COUNT, **dict.fromkeys(_SMALL_BOX, 128))
    box_half_width: float = _key(20.0, _POSITIVE, **dict.fromkeys(_SMALL_BOX, 10.0))
    sigma0: float = _key(1.0, _POSITIVE)
    center_x: float = _key(0.0, _FINITE, harmonic_coherent=2.0)
    center_y: float = _key(0.0, _FINITE)
    k0_x: float = _key(0.0, _FINITE)
    k0_y: float = _key(0.0, _FINITE)
    omega: float = _key(1.0, _POSITIVE)
    frame_stride: int = _key(5, _COUNT)
    seed_x: float = _key(1.0, _FINITE)
    seed_y: float = _key(0.0, _FINITE)
    ensemble_n: int = _key(10000, _COUNT)
    seed: int = _key(12345, _number(int, above=-1))
    bins: int = _key(32, _COUNT)
    rho_floor: float = _key(schrodinger.DEFAULT_RHO_FLOOR, _POSITIVE)
    hj_rho_floor: float = _key(verification.HJ_RHO_FLOOR, _POSITIVE)
    hj_time: float = _key(0.5, _POSITIVE)
    hj_dts: tuple = _key((4e-3, 2e-3, 1e-3), _list(_POSITIVE))
    hj_ns: tuple = _key((32, 64, 128), _list(_COUNT))
    guided_epsilons: tuple = _key(GUIDED_EPSILONS, _list(_POSITIVE))
    write_frames: bool = _key(False, _flag)
    provided: frozenset = field(default_factory=frozenset)

    def phys(self, epsilon: float | None = None) -> PhysParams:
        return PhysParams(
            hbar=self.hbar,
            mass=self.mass,
            epsilon=self.epsilon if epsilon is None else float(epsilon),
            epsilon_mode=EpsilonMode(self.epsilon_mode),
            light_speed=self.light_speed,
            epsilon_floor=self.epsilon_floor,
        )

    def perm(self) -> Permutation:
        return Permutation(Sense(self.permutation))

    def program(self):
        if self.velocity == "zero":
            return zero_velocity()
        if self.velocity == "constant":
            return ConstantVelocity(self.velocity_x, self.velocity_y)
        if self.velocity == "circular":
            return CircularVelocity(self.circular_omega, self.circular_amplitude)
        return PolynomialVelocity(self.velocity_coeffs_x, self.velocity_coeffs_y)

    def grid(self, n: int | None = None) -> Grid2D:
        return Grid2D(self.n_grid if n is None else n, self.box_half_width)


@dataclass
class ScenarioResult:
    scenario: str
    files: list
    checks: list  # (name, passed, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def run_scenario(cfg: ScenarioConfig, out_dir) -> ScenarioResult:
    os.makedirs(out_dir, exist_ok=True)
    try:
        runner = _RUNNERS[cfg.scenario]
    except KeyError:
        raise UnknownScenario(f"scenario '{cfg.scenario}' is not in {SCENARIOS}") from None
    return runner(cfg, out_dir)


# ---------------------------------------------------------------------------
# process-side scenarios
# ---------------------------------------------------------------------------


def _scenario_process_free(cfg: ScenarioConfig, out) -> ScenarioResult:
    perm = cfg.perm()
    _, n_states, blocks = _run_blocks(cfg.phys(), perm, cfg.program(), (cfg.z0_x, cfg.z0_y), cfg.T)
    # s^n u^j - u^j from the quarter turn s, (x, y) -> (y, -x) for s_plus, not from offset_table
    turn = np.array([[0, -1], [1, 0]]) if perm.sense is Sense.S_PLUS else np.array([[0, 1], [-1, 0]])
    table = np.stack([VERTICES @ np.linalg.matrix_power(turn, n) for n in range(4)]) - VERTICES
    maxima = []

    def checked(blocks):
        """The blocks passed through, the max of each check over each block appended to maxima."""
        for block in blocks:
            maxima.append(_free_check_maxima(cfg, table, block))
            yield block

    path = os.path.join(out, "run.csv")
    _write_run_csv(path, checked(blocks))
    # np.max, unlike max(), passes a NaN in any block on
    identity_dev, coincidence, mean_dev, means_max = (float(m) for m in np.max(maxima, axis=0))
    scale = max(1.0, means_max)
    report = {
        "scenario": "process_free",
        "steps": n_states - 1,
        "offset_identity_max_dev": identity_dev,
        "boundary_coincidence_max_dev": coincidence,
        "mean_of_vertices_max_dev": mean_dev,
    }
    write_json(os.path.join(out, "report.json"), report)
    checks = [
        ("offset_identity", identity_dev <= 1e-13 * scale, f"max dev {identity_dev:.3e}"),
        ("boundary_coincidence", coincidence <= 1e-13 * scale, f"max dev {coincidence:.3e}"),
        ("mean_of_vertices", mean_dev <= 1e-13 * scale, f"max dev {mean_dev:.3e}"),
    ]
    return ScenarioResult("process_free", [path, os.path.join(out, "report.json")], checks)


def _free_check_maxima(cfg: ScenarioConfig, table, block) -> list:
    """process_free's four maxima over one block of whole cycles, from the offset table s^n u^j - u^j:
    the offset identity, the boundary coincidence, the mean of the vertices and |mean|."""
    vertices, means = block.vertices, block.means
    # per-step gamma covers the de_broglie mode, where eps varies by cycle
    g = (1.0 + 1.0j) * np.sqrt(cfg.hbar * block.epsilons / (4.0 * cfg.mass))
    predicted = means[:, None, :] + g[:, None, None] * table[np.arange(len(means)) % 4]
    # the block starts on a boundary, so its boundaries are every fourth state
    deviations = (vertices - predicted, vertices[::4] - means[::4, None, :], vertices.mean(axis=1) - means, means)
    return [np.max(np.abs(d)) for d in deviations]


def _table_programs(cfg: ScenarioConfig):
    constant = ConstantVelocity(cfg.velocity_x, cfg.velocity_y)
    return [("zero", zero_velocity()), ("constant", constant), ("circular", CircularVelocity())]


def _table_cycles(cfg: ScenarioConfig, eps: float, perm: Permutation, vel) -> obs.CycleTable:
    """Observables of one table run: `cycles` cycles of length 4*eps.

    Only a fixed eps runs at the swept eps that labels the row; T = 4 cycles
    eps then holds at least one full cycle.
    """
    params = cfg.phys(eps)
    _fixed_epsilon(params, "epsilon tables")
    return obs.measure_run(run_process(params, perm, vel, (0, 0), 4 * cfg.cycles * eps))


def _scenario_spin_table(cfg: ScenarioConfig, out) -> ScenarioResult:
    eps_list = cfg.epsilons or TABLE_EPSILONS
    files = []
    rows = []
    worst = 0.0
    for sense in (Sense.S_PLUS, Sense.S_MINUS):
        perm = Permutation(sense)
        target = obs.intrinsic_spin_closed_form(perm, cfg.hbar)
        for vel_name, vel in _table_programs(cfg):
            for i, eps in enumerate(eps_list):
                table = _table_cycles(cfg, eps, perm, vel)
                csv_path = os.path.join(out, f"obs_{sense.value}_{vel_name}_e{i}.csv")
                obs.observables_to_csv(csv_path, table)
                files.append(csv_path)
                dev = float(np.max(np.abs(table.sigma_intrinsic - target)))
                worst = max(worst, dev)
                rows.append(
                    {
                        "sense": sense.value,
                        "velocity": vel_name,
                        "epsilon": eps,
                        "cycles": len(table),
                        "intrinsic_target": target,
                        "max_abs_deviation": dev,
                    }
                )
    json_path = os.path.join(out, "spin_table.json")
    write_json(json_path, {"scenario": "spin_table", "rows": rows})
    files.append(json_path)
    tol = 1e-12 * max(1.0, cfg.hbar)
    checks = [("intrinsic_spin_half", worst <= tol, f"max |dev| {worst:.3e} (tol {tol:.1e})")]
    return ScenarioResult("spin_table", files, checks)


def _scenario_heisenberg_table(cfg: ScenarioConfig, out) -> ScenarioResult:
    eps_list = tuple(cfg.epsilons or TABLE_EPSILONS)
    perm = cfg.perm()
    rows = []
    worst_rel = 0.0
    delta_x_by_eps = {}
    for vel_name, vel in _table_programs(cfg):
        for eps in eps_list:
            table = _table_cycles(cfg, eps, perm, vel)
            target = 0.5 * cfg.hbar
            rel = float(np.max(np.abs(table.heisenberg_product - target) / target))
            worst_rel = max(worst_rel, rel)
            delta_x_by_eps.setdefault(eps, float(table.delta_x[0]))
            rows.append(
                {
                    "velocity": vel_name,
                    "epsilon": eps,
                    "delta_x": float(table.delta_x[0]),
                    "delta_px": float(table.delta_px[0]),
                    "product": float(table.heisenberg_product[0]),
                    "max_rel_product_error": rel,
                }
            )
    slope = verification.fit_rate(list(delta_x_by_eps), list(delta_x_by_eps.values()))
    csv_path = os.path.join(out, "heisenberg_table.csv")
    header = ["velocity", "epsilon", "delta_x", "delta_px", "product"]
    write_csv(csv_path, header, [[r[key] for r in rows] for key in header])
    json_path = os.path.join(out, "heisenberg.json")
    write_json(
        json_path,
        {"scenario": "heisenberg_table", "rows": rows, "delta_x_slope": slope},
    )
    checks = [
        ("product_hbar_over_2", worst_rel <= 1e-12, f"max rel dev {worst_rel:.3e}"),
        ("delta_x_sqrt_eps_slope", abs(slope - 0.5) <= 1e-6, f"slope {slope:.9f}"),
    ]
    return ScenarioResult("heisenberg_table", [csv_path, json_path], checks)


def _scenario_convergence(cfg: ScenarioConfig, out) -> ScenarioResult:
    eps_list = cfg.epsilons or CONVERGENCE_EPSILONS
    vel = cfg.program()
    vertex_report, mean_report = verification.process_convergence_rates(
        cfg.phys(), cfg.perm(), vel, (cfg.z0_x, cfg.z0_y), cfg.T, eps_list
    )
    fv = os.path.join(out, "convergence_vertices.json")
    fm = os.path.join(out, "convergence_mean.json")
    vertex_report.to_json(fv)
    mean_report.to_json(fm)
    checks = [
        ("vertex_rate_half", vertex_report.passed, f"rate {vertex_report.fitted_rate:.4f}"),
        ("mean_rate_one", mean_report.passed, f"rate {mean_report.fitted_rate:.4f}"),
    ]
    return ScenarioResult("convergence", [fv, fm], checks)


def _scenario_lemma1(cfg: ScenarioConfig, out) -> ScenarioResult:
    eps_list = cfg.epsilons or CONVERGENCE_EPSILONS
    vel = cfg.program()
    files = []
    checks = []
    for name in ("quadratic", "product"):
        report = verification.generator_identity_check(
            verification.CATALOG[name], cfg.phys(), cfg.perm(), vel, cfg.T, eps_list
        )
        path = os.path.join(out, f"lemma1_{name}.json")
        report.to_json(path)
        files.append(path)
        checks.append((f"residual_rate_{name}", report.passed, f"rate {report.fitted_rate:.4f}"))
    linear_residual = 0.0
    for eps in eps_list:
        res = verification.cycle_increment_residuals(
            verification.CATALOG["linear"], cfg.phys(eps), cfg.perm(), vel, cfg.T
        )
        linear_residual = max(linear_residual, float(res.max()))
    path = os.path.join(out, "lemma1_linear.json")
    write_json(path, {"check": "cycle_increment_generator", "f": "linear", "max_residual": linear_residual})
    files.append(path)
    checks.append(("residual_zero_linear", linear_residual <= 1e-10, f"max {linear_residual:.3e}"))
    return ScenarioResult("lemma1", files, checks)


# ---------------------------------------------------------------------------
# wave-side scenarios
# ---------------------------------------------------------------------------


def _step_count(T: float, dt: float) -> int:
    """round(T/dt), the steps of a wave run over [0, T]; InvalidInput if none (T < dt/2)."""
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise InvalidInput(f"a wave run over T = {T} with dt = {dt} would take no step (T < dt/2)")
    return n_steps


def _free_stream(cfg: ScenarioConfig):
    """The free packet's grid, its wave function at t = 0, the step count
    and the stream of its frames: (grid, psi0, n_steps, frames)."""
    n_steps = _step_count(cfg.T, cfg.dt)
    grid = cfg.grid()
    psi0 = schrodinger.init_gaussian(
        grid, (cfg.center_x, cfg.center_y), cfg.sigma0, (cfg.k0_x, cfg.k0_y)
    )
    frames = schrodinger.stream_frames(
        psi0, schrodinger.free_potential(), cfg.dt, n_steps, cfg.frame_stride, cfg.hbar, cfg.mass
    )
    return grid, psi0, n_steps, frames


def _exported(frames, out, files):
    """frames passed through, each written to out as frame_<i>.zlab (its path
    appended to files) as it arrives."""
    for i, frame in enumerate(frames):
        path = os.path.join(out, f"frame_{i:04d}.zlab")
        schrodinger.export_frame(path, frame)
        files.append(path)
        yield frame


def _scenario_free_gaussian(cfg: ScenarioConfig, out) -> ScenarioResult:
    grid, _, n_steps, frames = _free_stream(cfg)
    csv_path = os.path.join(out, "summary.csv")
    files = [csv_path]
    if cfg.write_frames:
        frames = _exported(frames, out, files)
    final, _ = schrodinger.frames_summary_csv(csv_path, frames, schrodinger.free_potential(), cfg.hbar, cfg.mass)
    exact = schrodinger.analytic_free_gaussian(
        grid, cfg.sigma0, (cfg.k0_x, cfg.k0_y), (cfg.center_x, cfg.center_y), final.time, cfg.hbar, cfg.mass
    )
    area = grid.cell_area()
    l2_err = float(
        np.sqrt(np.sum(np.abs(final.values - exact.values) ** 2) * area) / np.sqrt(np.sum(np.abs(exact.values) ** 2) * area)
    )
    norm_drift = abs(final.norm() - 1.0) * 1000.0 / n_steps
    json_path = os.path.join(out, "free_gaussian.json")
    write_json(
        json_path,
        {
            "scenario": "free_gaussian",
            "l2_error_vs_analytic": l2_err,
            "norm_drift_per_1000_steps": norm_drift,
            "steps": n_steps,
        },
    )
    files.append(json_path)
    checks = [
        ("free_gaussian_l2", l2_err < 1e-6, f"rel L2 {l2_err:.3e}"),
        ("norm_drift", norm_drift < 1e-12, f"{norm_drift:.3e} per 1e3 steps"),
    ]
    return ScenarioResult("free_gaussian", files, checks)


def _stationary_frames(ground, omega, times, hbar):
    """The ground state's product frames at times: factors (fx e^{-i E0 t/hbar}, fy)."""
    fx, fy = ground.factors
    e0 = hbar * omega  # 2D isotropic ground energy
    return (WaveFunction(ground.grid, None, float(t), factors=(fx * np.exp(-1j * e0 * t / hbar), fy)) for t in times)


def _scenario_harmonic_ground(cfg: ScenarioConfig, out) -> ScenarioResult:
    T = cfg.T if "T" in cfg.provided else 2.0 * math.pi / cfg.omega
    n_steps = _step_count(T, cfg.dt)
    grid = cfg.grid()
    pot = schrodinger.harmonic_potential(cfg.omega)
    ground = schrodinger.harmonic_ground_state(grid, cfg.omega, cfg.hbar, cfg.mass)
    stride = max(1, n_steps // 50)
    n_steps = stride * (n_steps // stride)
    evolved = schrodinger.stream_frames(ground, pot, cfg.dt, n_steps, stride, cfg.hbar, cfg.mass)
    csv_path = os.path.join(out, "summary.csv")
    _, rows = schrodinger.frames_summary_csv(csv_path, evolved, pot, cfg.hbar, cfg.mass)
    e_start, e_end = rows[0][2], rows[-1][2]  # the energy column
    energy_drift = abs(e_end - e_start) / abs(e_start)
    # stationarity of the guidance law on the exact ground state
    times = np.linspace(0.0, n_steps * cfg.dt, 51)
    frames = _stationary_frames(ground, cfg.omega, times, cfg.hbar)
    fields = (pilot.velocity_field(f, cfg.hbar, cfg.mass, cfg.rho_floor) for f in frames)
    seed = (cfg.seed_x, cfg.seed_y)
    traj = pilot.integrate_trajectory(fields, seed, dt=times[1] - times[0], T=float(times[-1]))
    drift = float(np.max(np.linalg.norm(traj.positions - traj.positions[0], axis=1)))
    traj_path = os.path.join(out, "trajectory.csv")
    pilot.trajectories_to_csv(traj_path, [traj])
    json_path = os.path.join(out, "harmonic_ground.json")
    write_json(
        json_path,
        {
            "scenario": "harmonic_ground",
            "energy_rel_drift": energy_drift,
            "trajectory_drift": drift,
            "T": n_steps * cfg.dt,
        },
    )
    checks = [
        ("stationary_trajectory", drift < 1e-8, f"drift {drift:.3e}"),
        ("energy_conservation", energy_drift < 1e-8, f"rel drift {energy_drift:.3e}"),
    ]
    return ScenarioResult("harmonic_ground", [csv_path, traj_path, json_path], checks)


def _scenario_harmonic_coherent(cfg: ScenarioConfig, out) -> ScenarioResult:
    grid = cfg.grid()
    pot = schrodinger.harmonic_potential(cfg.omega)
    sigma0 = math.sqrt(cfg.hbar / (2.0 * cfg.mass * cfg.omega))
    psi0 = schrodinger.init_gaussian(grid, (cfg.center_x, cfg.center_y), sigma0, (0.0, 0.0))
    period = 2.0 * math.pi / cfg.omega
    # land exactly on the period: near the turning point even a dt-sized time
    # offset would dominate the splitting error
    n_steps = _step_count(period, cfg.dt)
    dt = period / n_steps
    stride = max(1, n_steps // 40)
    while n_steps % stride:
        stride -= 1
    frames = schrodinger.stream_frames(psi0, pot, dt, n_steps, stride, cfg.hbar, cfg.mass)
    csv_path = os.path.join(out, "summary.csv")
    final, _ = schrodinger.frames_summary_csv(csv_path, frames, pot, cfg.hbar, cfg.mass)
    area = grid.cell_area()
    l2_err = float(np.sqrt(np.sum(np.abs(final.values - psi0.values) ** 2) * area))
    json_path = os.path.join(out, "harmonic_coherent.json")
    write_json(
        json_path,
        {
            "scenario": "harmonic_coherent",
            "l2_return_error": l2_err,
            "period": n_steps * dt,
            "steps": n_steps,
        },
    )
    checks = [("coherent_return", l2_err < 1e-5, f"L2 return error {l2_err:.3e}")]
    return ScenarioResult("harmonic_coherent", [csv_path, json_path], checks)


def _scenario_equivariance(cfg: ScenarioConfig, out) -> ScenarioResult:
    _, psi0, n_steps, frames = _free_stream(cfg)
    report_t = pilot.ensemble_equivariance(
        frames, cfg.ensemble_n, cfg.seed, T=n_steps * cfg.dt, bins=cfg.bins, hbar=cfg.hbar,
        mass=cfg.mass, rho_floor=cfg.rho_floor,
    )
    report_0 = pilot.ensemble_equivariance(
        [psi0], cfg.ensemble_n, cfg.seed + 1, T=0.0, bins=cfg.bins, hbar=cfg.hbar,
        mass=cfg.mass, rho_floor=cfg.rho_floor,
    )
    f1 = os.path.join(out, "equivariance_T.json")
    f0 = os.path.join(out, "equivariance_T0.json")
    report_t.to_json(f1)
    report_0.to_json(f0)
    checks = [
        ("equivariance_final", report_t.tv_distance < 0.05, f"TV {report_t.tv_distance:.4f}"),
        ("equivariance_baseline", report_0.tv_distance < 0.03, f"TV {report_0.tv_distance:.4f}"),
    ]
    return ScenarioResult("equivariance", [f1, f0], checks)


def _analytic_frame_triple(cfg: ScenarioConfig, n: int, dt_frame: float):
    grid = Grid2D(n, cfg.box_half_width)
    return [
        schrodinger.analytic_free_gaussian(
            grid, cfg.sigma0, (cfg.k0_x, cfg.k0_y), (cfg.center_x, cfg.center_y),
            cfg.hj_time + k * dt_frame, cfg.hbar, cfg.mass,
        )
        for k in (-1, 0, 1)
    ]


def _scenario_hj_residual(cfg: ScenarioConfig, out) -> ScenarioResult:
    pot = schrodinger.free_potential()
    # the dt sweep on n_grid, then the n sweep at the finest dt
    sweep = [(cfg.n_grid, dt) for dt in cfg.hj_dts] + [(n, min(cfg.hj_dts)) for n in cfg.hj_ns]
    errors = [
        verification.complex_hj_residual(
            _analytic_frame_triple(cfg, n, dt_frame), pot, cfg.hbar, cfg.mass, rho_floor=cfg.hj_rho_floor
        ).overall_linf
        for n, dt_frame in sweep
    ]
    dt_errors, n_errors = errors[: len(cfg.hj_dts)], errors[len(cfg.hj_dts) :]
    dt_slope = verification.fit_rate(cfg.hj_dts, dt_errors)
    # spectral spatial convergence bottoms out at the dt^2 time-difference
    # floor, so allow a flat tail (5% slack) but demand a big total drop
    decreasing = all(b <= 1.05 * a for a, b in zip(n_errors, n_errors[1:]))
    reduction = n_errors[0] / n_errors[-1]
    # the dt sweep's finest entry is the base case on n_grid
    base_linf = dt_errors[cfg.hj_dts.index(min(cfg.hj_dts))]
    checks = [
        ("hj_linf", base_linf < 1e-6, f"L_inf {base_linf:.3e}"),
        ("hj_dt_order", 1.7 <= dt_slope <= 2.3, f"slope {dt_slope:.3f}"),
        (
            "hj_n_refinement",
            decreasing and reduction >= 10.0,
            f"errors {['%.2e' % e for e in n_errors]}",
        ),
    ]
    json_path = os.path.join(out, "hj_residual.json")
    write_json(
        json_path,
        {
            "check": "complex_hj_residual",
            "parameters": {
                "n": cfg.n_grid,
                "sigma0": cfg.sigma0,
                "time": cfg.hj_time,
                "rho_floor": cfg.hj_rho_floor,
            },
            "samples": verification.sweep_samples([*cfg.hj_dts, *cfg.hj_ns], errors),
            "base_linf": base_linf,
            "fitted_rate": dt_slope,
            "n_sweep_reduction": reduction,
            "pass": all(ok for _, ok, _ in checks),
        },
    )
    return ScenarioResult("hj_residual", [json_path], checks)


def _scenario_guided_process(cfg: ScenarioConfig, out) -> ScenarioResult:
    grid, _, _, psi_frames = _free_stream(cfg)
    # each frame carries its factors, so every field is built from 1D transforms
    fields = (pilot.velocity_field(f, cfg.hbar, cfg.mass, cfg.rho_floor) for f in psi_frames)
    seed = (cfg.seed_x, cfg.seed_y)
    gaps = []
    spin_dev = 0.0
    centers = []  # per run: its seed_index, t, x and y columns at the cycle boundaries
    perm = cfg.perm()
    guided = pilot.guide_processes(fields, [cfg.phys(eps) for eps in cfg.guided_epsilons], perm, seed, cfg.T)
    for idx, (run, reference) in enumerate(guided):
        boundaries = np.arange(0, len(run), 4)
        center = run.real_means()[boundaries]
        gaps.append(float(np.max(np.linalg.norm(center - reference.positions[boundaries], axis=1))))
        target = obs.intrinsic_spin_closed_form(perm, cfg.hbar)
        spin_dev = max(spin_dev, float(np.max(np.abs(obs.measure_run(run).sigma_intrinsic - target))))
        centers.append((np.full(boundaries.size, idx), run.times[boundaries], center[:, 0], center[:, 1]))
    rate = verification.fit_rate(cfg.guided_epsilons, gaps)
    checks = [
        ("tracking_rate", rate >= 0.8, f"rate {rate:.3f}, gaps {['%.2e' % g for g in gaps]}"),
        ("guided_spin", spin_dev <= 1e-12 * max(1.0, cfg.hbar), f"max dev {spin_dev:.3e}"),
    ]
    traj_path = os.path.join(out, "guided_centers.csv")
    write_csv(traj_path, ["seed_index", "t", "x", "y"], [np.concatenate(column) for column in zip(*centers)])
    json_path = os.path.join(out, "guided_process.json")
    write_json(
        json_path,
        {
            "check": "guided_process_tracking",
            "parameters": {"seed": list(seed), "T": cfg.T, "n": grid.n},
            "samples": verification.sweep_samples(cfg.guided_epsilons, gaps),
            # every pair's reference is read from the same RK4 history
            "reference": {"dt": guided[0][1].rk4_dt, "steps": guided[0][1].rk4_steps},
            "fitted_rate": rate,
            "max_spin_deviation": spin_dev,
            "pass": all(ok for _, ok, _ in checks),
        },
    )
    return ScenarioResult("guided_process", [traj_path, json_path], checks)


_RUNNERS.update({
    "process_free": _scenario_process_free,
    "spin_table": _scenario_spin_table,
    "heisenberg_table": _scenario_heisenberg_table,
    "convergence": _scenario_convergence,
    "lemma1": _scenario_lemma1,
    "free_gaussian": _scenario_free_gaussian,
    "harmonic_ground": _scenario_harmonic_ground,
    "harmonic_coherent": _scenario_harmonic_coherent,
    "equivariance": _scenario_equivariance,
    "hj_residual": _scenario_hj_residual,
    "guided_process": _scenario_guided_process,
})
SCENARIOS = tuple(_RUNNERS)
