"""Acceptance suite: one test per headline claim, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion together with its runtime.
"""

import math
import time

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import verification as ver

EPS_TABLE = (1e-1, 1e-2, 1e-3)
EPS_SWEEP = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
PROGRAMS = (
    ("zero", zl.zero_velocity()),
    ("constant", zl.ConstantVelocity(0.8, -0.5)),
    ("circular", zl.CircularVelocity()),
)


class Criterion:
    """Collects named sub-checks, prints one line, enforces the time budget."""

    def __init__(self, index, title, budget_s):
        self.index = index
        self.title = title
        self.budget_s = budget_s
        self.t0 = time.perf_counter()
        self.failures = []
        self.notes = []

    def check(self, name, ok, detail=""):
        if not ok:
            self.failures.append(f"{name} ({detail})" if detail else name)
        elif detail:
            self.notes.append(f"{name}: {detail}")

    def conclude(self):
        elapsed = time.perf_counter() - self.t0
        ok = not self.failures and elapsed < self.budget_s
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} criterion {self.index} ({self.title}) in {elapsed:.2f}s "
              f"[budget {self.budget_s:.0f}s] {'; '.join(self.notes + self.failures)}")
        assert not self.failures, "; ".join(self.failures)
        assert elapsed < self.budget_s, f"runtime {elapsed:.1f}s over budget {self.budget_s}s"


@pytest.fixture(scope="module")
def free_frames_256():
    """sigma0 = 1 packet on the 256x20 grid, T = 1, frames every 5e-3."""
    grid = zl.Grid2D(256, 20.0)
    psi0 = zl.init_gaussian(grid, (0, 0), 1.0, (0, 0))
    return zl.evolve_frames(psi0, zl.free_potential(), 1e-3, 1000, 5)


@pytest.fixture(scope="module")
def free_fields_256(free_frames_256):
    return [zl.velocity_field(f) for f in free_frames_256]


@pytest.fixture(scope="module")
def free_fields_128():
    grid = zl.Grid2D(128, 10.0)
    psi0 = zl.init_gaussian(grid, (0, 0), 1.0, (0, 0))
    frames = zl.evolve_frames(psi0, zl.free_potential(), 1e-3, 1000, 5)
    return [zl.velocity_field(f) for f in frames]


def test_criterion_1_spin_emergence():
    crit = Criterion(1, "spin emergence +-hbar/2", 1.0)
    worst = 0.0
    for sense in (zl.Sense.S_PLUS, zl.Sense.S_MINUS):
        perm = zl.Permutation(sense)
        target = -0.5 if sense is zl.Sense.S_PLUS else 0.5
        for _, vel in PROGRAMS:
            for eps in EPS_TABLE:
                run = zl.run_process(zl.PhysParams(epsilon=eps), perm, vel, (0, 0), 400 * eps)
                table = zl.measure_run(run)
                assert len(table) == 100
                worst = max(worst, float(np.max(np.abs(table.sigma_intrinsic - target))))
    crit.check("intrinsic_spin", worst <= 1e-12, f"max |dev| {worst:.2e}")
    crit.conclude()


def test_criterion_2_heisenberg_product():
    crit = Criterion(2, "uncertainty product hbar/2", 1.0)
    worst_rel = 0.0
    delta_x = {}
    for sense in (zl.Sense.S_PLUS, zl.Sense.S_MINUS):
        perm = zl.Permutation(sense)
        for _, vel in PROGRAMS:
            for eps in EPS_TABLE:
                run = zl.run_process(zl.PhysParams(epsilon=eps), perm, vel, (0, 0), 400 * eps)
                table = zl.measure_run(run)
                worst_rel = max(worst_rel, float(np.max(np.abs(table.heisenberg_product - 0.5) / 0.5)))
                delta_x.setdefault(eps, float(table.delta_x[0]))
    slope = ver.fit_rate(list(delta_x), list(delta_x.values()))
    crit.check("product", worst_rel <= 1e-12, f"max rel dev {worst_rel:.2e}")
    crit.check("sqrt_eps_slope", abs(slope - 0.5) <= 1e-6, f"slope {slope:.9f}")
    crit.conclude()


def test_criterion_3_convergence_rates():
    crit = Criterion(3, "convergence to the drift path", 10.0)
    vertex, mean = ver.process_convergence_rates(
        zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), (0, 0), 1.0, EPS_SWEEP
    )
    crit.check("vertex_rate", 0.45 <= vertex.fitted_rate <= 0.55, f"rate {vertex.fitted_rate:.3f}")
    crit.check("mean_rate", mean.fitted_rate >= 0.95, f"rate {mean.fitted_rate:.3f}")
    crit.conclude()


def test_criterion_4_generator_identity():
    crit = Criterion(4, "cycle-increment generator identity", 10.0)
    for name in ("quadratic", "product"):
        report = ver.generator_identity_check(
            ver.CATALOG[name], zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), 1.0, EPS_SWEEP
        )
        crit.check(
            f"rate_{name}", 0.9 <= report.fitted_rate <= 1.1, f"rate {report.fitted_rate:.3f}"
        )
    worst = 0.0
    for eps in EPS_SWEEP:
        res = ver.cycle_increment_residuals(
            ver.CATALOG["linear"], zl.PhysParams(epsilon=eps), zl.Permutation(), zl.CircularVelocity(), 1.0
        )
        worst = max(worst, float(res.max()))
    crit.check("linear_exact", worst <= 1e-10, f"max residual {worst:.2e}")
    crit.conclude()


def test_criterion_5_schrodinger_solver():
    crit = Criterion(5, "solver vs analytic packets", 120.0)
    grid = zl.Grid2D(256, 20.0)
    psi0 = zl.init_gaussian(grid, (0, 0), 1.0, (1.0, 0.0))
    psi1 = zl.split_step_evolve(psi0, zl.free_potential(), 1e-3, 1000)
    exact = zl.analytic_free_gaussian(grid, 1.0, (1.0, 0.0), (0, 0), psi1.time)
    area = grid.cell_area()
    l2 = math.sqrt(np.sum(np.abs(psi1.values - exact.values) ** 2) * area)
    l2 /= math.sqrt(np.sum(np.abs(exact.values) ** 2) * area)
    crit.check("free_l2", l2 < 1e-6, f"rel L2 {l2:.2e}")
    drift = abs(psi1.norm() - 1.0)
    crit.check("norm_drift", drift < 1e-12, f"{drift:.2e} per 1e3 steps")

    grid_h = zl.Grid2D(128, 10.0)
    coherent0 = zl.init_gaussian(grid_h, (2.0, 0.0), math.sqrt(0.5), (0, 0))
    n_steps = 6283
    dt = 2 * math.pi / n_steps
    coherent1 = zl.split_step_evolve(coherent0, zl.harmonic_potential(1.0), dt, n_steps)
    l2_return = math.sqrt(
        np.sum(np.abs(coherent1.values - coherent0.values) ** 2) * grid_h.cell_area()
    )
    crit.check("coherent_return", l2_return < 1e-5, f"L2 {l2_return:.2e}")
    crit.conclude()


def test_criterion_6_hamilton_jacobi_residual():
    crit = Criterion(6, "complex Hamilton-Jacobi residual", 60.0)
    pot = zl.free_potential()

    def frames(n, dt_frame):
        grid = zl.Grid2D(n, 20.0)
        return [
            zl.analytic_free_gaussian(grid, 1.0, (0, 0), (0, 0), 0.5 + k * dt_frame)
            for k in (-1, 0, 1)
        ]

    base = ver.complex_hj_residual(frames(256, 1e-3), pot)
    crit.check("linf", base.overall_linf < 1e-6, f"L_inf {base.overall_linf:.2e}")
    dts = (4e-3, 2e-3, 1e-3)
    errs = [ver.complex_hj_residual(frames(256, d), pot).overall_linf for d in dts]
    slope = ver.fit_rate(dts, errs)
    crit.check("dt_order", 1.7 <= slope <= 2.3, f"slope {slope:.3f}")
    n_errs = [ver.complex_hj_residual(frames(n, 1e-3), pot).overall_linf for n in (32, 64, 128)]
    monotone = all(b <= 1.05 * a for a, b in zip(n_errs, n_errs[1:]))
    crit.check(
        "n_refinement",
        monotone and n_errs[0] / n_errs[-1] >= 10,
        "errors " + ", ".join(f"{e:.1e}" for e in n_errs),
    )
    crit.conclude()


def test_criterion_7_bohm_trajectories(free_fields_256):
    crit = Criterion(7, "de Broglie-Bohm trajectories", 30.0)
    traj = zl.integrate_trajectory(free_fields_256, (1.0, 0.0), dt=5e-3)
    widths = np.sqrt(1.0 + (traj.times / 2.0) ** 2)
    exact = np.stack([widths, np.zeros_like(widths)], axis=1)
    rel = np.max(np.linalg.norm(traj.positions - exact, axis=1) / np.linalg.norm(exact, axis=1))
    crit.check("self_similar", rel < 1e-4, f"rel err {rel:.2e}")

    grid = zl.Grid2D(128, 10.0)
    ground = zl.harmonic_ground_state(grid, 1.0)
    times = np.linspace(0.0, 2 * math.pi, 51)
    fields = [
        zl.velocity_field(zl.WaveFunction(grid, ground.values * np.exp(-1j * t), float(t)))
        for t in times
    ]
    drift = 0.0
    for seed in ((0.5, -0.3), (1.0, 0.8)):
        tr = zl.integrate_trajectory(fields, seed, dt=times[1] - times[0])
        drift = max(drift, float(np.max(np.linalg.norm(tr.positions - tr.positions[0], axis=1))))
    crit.check("stationary", drift < 1e-8, f"drift {drift:.2e}")
    crit.conclude()


def test_criterion_8_equivariance(free_frames_256):
    crit = Criterion(8, "ensemble equivariance", 120.0)
    rep = zl.ensemble_equivariance(free_frames_256, 10_000, 12345)
    crit.check("tv_final", rep.tv_distance < 0.05, f"TV {rep.tv_distance:.4f}")
    crit.check("no_failures", rep.failures == 0, f"{rep.failures} failures")
    rep0 = zl.ensemble_equivariance([free_frames_256[0]], 10_000, 12346, T=0.0)
    crit.check("tv_baseline", rep0.tv_distance < 0.03, f"TV {rep0.tv_distance:.4f}")
    crit.conclude()


def test_criterion_9_guided_process(free_fields_128):
    crit = Criterion(9, "guided gravity center tracks the pilot wave", 120.0)
    gaps = []
    spin_dev = 0.0
    eps_list = (4e-3, 2e-3, 1e-3)
    for eps in eps_list:
        run, ref = zl.guide_process(
            free_fields_128, zl.PhysParams(epsilon=eps), zl.Permutation(), (1.0, 0.0), 1.0
        )
        boundaries = np.arange(0, len(run), 4)
        gaps.append(
            float(np.max(np.linalg.norm(run.real_means()[boundaries] - ref.positions[boundaries], axis=1)))
        )
        spin_dev = max(spin_dev, float(np.max(np.abs(zl.measure_run(run).sigma_intrinsic + 0.5))))
    rate = ver.fit_rate(eps_list, gaps)
    crit.check("tracking_rate", rate >= 0.8, f"rate {rate:.3f}")
    crit.check("spin_along_guidance", spin_dev <= 1e-12, f"max dev {spin_dev:.2e}")
    crit.conclude()


def test_criterion_10_least_action_saddle():
    crit = Criterion(10, "least-action stationarity and saddle", 1.0)
    grid = zl.Grid2D(128, 20.0)
    psi = zl.analytic_free_gaussian(grid, 1.0, (0.5, 0.0), (0, 0), 0.3)
    report = ver.least_action_saddle_check(psi, zl.free_potential(), n_points=100, seed=2024)
    crit.check(
        "stationarity", report.max_stationarity_gradient < 1e-10,
        f"grad {report.max_stationarity_gradient:.2e}",
    )
    crit.check("saddle_signature", report.saddle_ok,
               f"mismatches {report.max_real_mismatch:.1e}/{report.max_imag_mismatch:.1e}")
    crit.conclude()
