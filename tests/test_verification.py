"""Generator identity, convergence rates, Hamilton-Jacobi residual, saddle check."""

import math
from dataclasses import replace

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import schrodinger, verification as ver
from zitterlab.cli import parse_config
from zitterlab.scenarios import _analytic_frame_triple

from gather import gathered_ratios

SWEEP = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def point_dynkin_apply(f, z, t, vel_value, params):
    """The generator at one point, as computed before dynkin_apply took batches."""
    z = np.asarray(z, dtype=complex).reshape(2)
    vel_value = np.asarray(vel_value, dtype=complex).reshape(2)
    drift = np.sum(vel_value * f.grad(z, t))
    return complex(f.dt(z, t) + drift - 0.5j * params.hbar / params.mass * f.laplacian(z, t))


def loop_increment_residuals(f, params, perm, vel, T):
    """One boundary at a time: the oracle for the batched residuals."""
    eps = params.epsilon
    n_cycles = int(math.floor(T / (4.0 * eps) + 1e-9))
    run = zl.run_process(params, perm, vel, np.zeros(2, dtype=complex), 4 * n_cycles * eps)
    residuals = np.empty(n_cycles)
    for q in range(1, n_cycles + 1):
        n = 4 * q
        t = run.times[n]
        y_now = np.mean(f.value(run.vertices[n], t))
        y_prev = np.mean(f.value(run.vertices[n - 1], run.times[n - 1]))
        generator = point_dynkin_apply(f, run.means[n], t, vel(t), params)
        residuals[q - 1] = abs((y_now - y_prev) / eps - generator)
    return residuals


class TestDynkinApply:
    def test_quadratic_laplacian_term(self):
        f = ver.CATALOG["quadratic"]
        out = ver.dynkin_apply(f, (1.0, 2.0), 0.0, (0, 0), zl.PhysParams())
        assert out == -2j

    def test_product_drift_term(self):
        f = ver.CATALOG["product"]
        out = ver.dynkin_apply(f, (1.0, 2.0), 0.0, (1.0, 1.0), zl.PhysParams())
        assert out == pytest.approx(3.0 + 0j, abs=1e-15)

    def test_cubic_with_scaled_hbar(self):
        f = ver.CATALOG["cubic"]
        out = ver.dynkin_apply(f, (1.0, 0.0), 0.0, (0, 0), zl.PhysParams(hbar=2.0))
        assert out == -6j

    def test_catalog_derivatives_against_finite_differences(self):
        # independent check of grad/laplacian via complex central differences
        h = 1e-5
        z = np.array([0.37 + 0.21j, -0.54 + 0.83j])
        e = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for name, f in ver.CATALOG.items():
            grad = f.grad(z, 0.0)
            lap = f.laplacian(z, 0.0)
            fd_grad = [
                (f.value(z + h * ek, 0.0) - f.value(z - h * ek, 0.0)) / (2 * h) for ek in e
            ]
            fd_lap = sum(
                (f.value(z + h * ek, 0.0) - 2 * f.value(z, 0.0) + f.value(z - h * ek, 0.0)) / h**2
                for ek in e
            )
            np.testing.assert_allclose(grad, fd_grad, rtol=1e-8, atol=1e-8, err_msg=name)
            np.testing.assert_allclose(lap, fd_lap, rtol=1e-4, atol=1e-4, err_msg=name)


    @pytest.mark.parametrize("name", list(ver.CATALOG))
    def test_batch_equals_points(self, name):
        f = ver.CATALOG[name]
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
        v = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
        params = zl.PhysParams(hbar=0.7, mass=1.9)
        batch = ver.dynkin_apply(f, z, 0.0, v, params)
        assert batch.shape == (3, 4)
        points = np.empty((3, 4), dtype=complex)
        for idx in np.ndindex(3, 4):
            single = ver.dynkin_apply(f, z[idx], 0.0, v[idx], params)
            assert type(single) is complex
            assert single == point_dynkin_apply(f, z[idx], 0.0, v[idx], params)
            points[idx] = single
        if name == "gaussian_series":
            # one point runs its series on numpy scalars, whose complex product
            # may round differently from the array loop's (last bit only)
            np.testing.assert_allclose(batch, points, rtol=1e-15, atol=0)
        else:
            assert np.array_equal(batch, points)


class TestCycleIncrementIdentity:
    @pytest.mark.parametrize("name", list(ver.CATALOG))
    @pytest.mark.parametrize(
        "sense,vel",
        [
            (zl.Sense.S_PLUS, zl.CircularVelocity(omega=3.0, amplitude=1.5)),
            (zl.Sense.S_MINUS, zl.PolynomialVelocity((0.5, -1.0), (-0.25, 0.0, 0.3))),
        ],
        ids=["circular", "polynomial"],
    )
    def test_residuals_equal_per_boundary_loop(self, name, sense, vel):
        f, params, perm = ver.CATALOG[name], zl.PhysParams(epsilon=2e-3, hbar=1.3), zl.Permutation(sense)
        res = ver.cycle_increment_residuals(f, params, perm, vel, 1.0)
        assert res.shape == (125,)
        assert np.array_equal(res, loop_increment_residuals(f, params, perm, vel, 1.0))

    @pytest.mark.parametrize("name", list(ver.CATALOG))
    def test_residuals_under_complex_drift(self, name):
        f, params, perm = ver.CATALOG[name], zl.PhysParams(epsilon=2e-3), zl.Permutation()
        vel = zl.PolynomialVelocity((0.5, 1j), (-0.25 + 0.5j, 0.0, 0.3))
        res = ver.cycle_increment_residuals(f, params, perm, vel, 1.0)
        expected = loop_increment_residuals(f, params, perm, vel, 1.0)
        if name == "gaussian_series":
            # complex means: the generator may differ in its last bit (see
            # TestDynkinApply.test_batch_equals_points), which is ~1e-16 here
            np.testing.assert_allclose(res, expected, rtol=0, atol=1e-14)
        else:
            assert np.array_equal(res, expected)

    def test_rate_one_for_quadratic_under_rotating_drift(self):
        report = ver.generator_identity_check(
            ver.CATALOG["quadratic"], zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), 1.0, SWEEP
        )
        assert report.passed
        assert report.fitted_rate == pytest.approx(1.0, abs=0.02)
        # the residual coefficient for f = Z1^2 + Z2^2 is |V|^2 = 1 exactly
        for eps, err in zip(report.values, report.errors):
            assert err == pytest.approx(eps, rel=1e-6)

    @pytest.mark.parametrize("name", ["product", "cubic"])
    def test_rate_one_for_other_catalog_entries(self, name):
        report = ver.generator_identity_check(
            ver.CATALOG[name], zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), 1.0, SWEEP
        )
        assert report.passed, report.fitted_rate

    def test_linear_function_is_exact(self):
        for eps in SWEEP:
            res = ver.cycle_increment_residuals(
                ver.CATALOG["linear"], zl.PhysParams(epsilon=eps), zl.Permutation(), zl.CircularVelocity(), 1.0
            )
            assert res.max() <= 1e-10

    def test_quadratic_with_frozen_drift_is_exact(self):
        # with a constant mean there is no first-order increment left over
        res = ver.cycle_increment_residuals(
            ver.CATALOG["quadratic"], zl.PhysParams(epsilon=1e-3), zl.Permutation(), zl.zero_velocity(), 1.0
        )
        assert res.max() <= 1e-13

    def test_sweep_validation_is_a_config_error(self):
        with pytest.raises(zl.InvalidInput) as err:
            ver.generator_identity_check(
                ver.CATALOG["linear"], zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), 1.0, (1e-2, 1e-3)
            )
        assert isinstance(err.value, zl.ConfigError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("mode", [zl.EpsilonMode.COMPTON, zl.EpsilonMode.DE_BROGLIE])
    def test_sweeps_need_a_fixed_eps(self, mode):
        # each sweep point runs at the swept eps, which only fixed mode does
        template, vel = zl.PhysParams(epsilon_mode=mode), zl.CircularVelocity()
        with pytest.raises(zl.InvalidInput, match="epsilon_mode = fixed"):
            ver.generator_identity_check(ver.CATALOG["quadratic"], template, zl.Permutation(), vel, 1.0, SWEEP)
        with pytest.raises(zl.InvalidInput, match="epsilon_mode = fixed"):
            ver.process_convergence_rates(template, zl.Permutation(), vel, (0, 0), 1.0, SWEEP)

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            ver.generator_identity_check(
                ver.CATALOG["quadratic"], zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), 1.0, (1e-2, 1e-3)
            )
        with pytest.raises(ValueError):
            ver.generator_identity_check(
                ver.CATALOG["quadratic"], zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), 1.0,
                (1e-2, 8e-3, 6e-3, 4e-3),
            )


class TestConvergence:
    def test_rates_for_rotating_drift(self):
        vertex, mean = ver.process_convergence_rates(
            zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), (0, 0), 1.0, SWEEP
        )
        assert vertex.passed and 0.45 <= vertex.fitted_rate <= 0.55
        assert mean.passed and mean.fitted_rate >= 0.95

    def test_constant_drift_mean_is_exact(self):
        vel = zl.ConstantVelocity(1.0, -0.5)
        for eps in (1e-2, 1e-3):
            params = zl.PhysParams(epsilon=eps)
            run = zl.run_process(params, zl.Permutation(), vel, (0, 0), 1.0)
            path = zl.classical_trajectory(vel, (0, 0), (len(run) - 1) * eps, eps / 10)
            err = np.max(np.abs(run.means - path.positions[::10]))
            assert err <= 1e-12

    def test_sweep_reference_is_every_tenth_classical_position(self, monkeypatch):
        # the finest eps's reference comes in several blocks, of REFERENCE_REFINEMENT steps per kept position
        vel, z0 = zl.CircularVelocity(omega=2.0, amplitude=0.7), (0.3, -1j)
        seen = []

        def spy(*args):
            seen.append((args, list(zl.process._classical_path(*args))))
            return iter(seen[-1][1])

        monkeypatch.setattr(ver, "_classical_path", spy)
        ver.process_convergence_rates(zl.PhysParams(), zl.Permutation(), vel, z0, 1.0, (1e-2, 3e-3, 1e-3, 1e-4))
        assert len(seen) == 4 and len(seen[-1][1]) > 2
        for (_, _, span, dt, every), blocks in seen:
            times, reference = (np.concatenate(parts) for parts in zip(*blocks))
            path = zl.classical_trajectory(vel, z0, span, dt)
            assert every == ver.REFERENCE_REFINEMENT
            np.testing.assert_array_equal(times, path.times[::every])
            np.testing.assert_array_equal(reference, path.positions[::every])

    def test_sup_vertex_deviation_closed_form(self):
        # for a frozen drift the deviation is |gamma| * max|s^n u - u| = sqrt(eps/2) * 2 sqrt(2)
        eps = 0.04
        run = zl.run_process(zl.PhysParams(epsilon=eps), zl.Permutation(), zl.zero_velocity(), (0, 0), 1.0)
        dev = np.max(np.abs(np.linalg.norm(run.vertices - run.means[:, None, :], axis=2)))
        assert dev == pytest.approx(math.sqrt(eps / 2) * 2 * math.sqrt(2), rel=1e-12)


def whole_increment_residuals(f, params, perm, vel, T):
    """cycle_increment_residuals as one batch over the whole run, as it was before runs came in blocks."""
    eps = params.epsilon
    n_cycles = int(math.floor(T / (4.0 * eps) + 1e-9))
    run = zl.run_process(params, perm, vel, np.zeros(2, dtype=complex), 4 * n_cycles * eps)
    n = 4 * np.arange(1, n_cycles + 1)
    t = run.times[n]
    y_now = np.mean(f.value(run.vertices[n], t[:, None]), axis=1)
    y_prev = np.mean(f.value(run.vertices[n - 1], run.times[n - 1][:, None]), axis=1)
    gap = (y_now - y_prev) / eps - ver.dynkin_apply(f, run.means[n], t, vel(t), params)
    return np.hypot(gap.real, gap.imag)


def whole_convergence_errors(params, perm, vel, z0, T):
    """(sup vertex deviation, sup mean deviation) of the whole run from every tenth classical position."""
    run = zl.run_process(params, perm, vel, z0, T)
    path = zl.classical_trajectory(vel, z0, (len(run) - 1) * params.epsilon, params.epsilon / 10)
    reference = path.positions[::10]
    dev = np.linalg.norm(run.vertices - reference[:, None, :], axis=2)
    return float(np.max(np.abs(dev))), float(np.max(np.linalg.norm(run.means - reference, axis=1)))


# At eps = 1e-4, T = 0.4096 ends the run on state 4,096: the last block of every size below holds that one boundary.
BLOCK_SWEEP, BLOCK_T = (1e-2, 3e-3, 1e-3, 1e-4), 0.4096


@pytest.mark.parametrize("block", [4, 8, zl.process._BLOCK_STATES])
class TestBlocksEqualTheWholeRun:
    """Block by block, and at 4 states a block one boundary a batch, the sweeps read what one batch of the whole run gives."""

    def test_cycle_increments(self, monkeypatch, block):
        monkeypatch.setattr(zl.process, "_BLOCK_STATES", block)
        f, perm = ver.CATALOG["gaussian_series"], zl.Permutation(zl.Sense.S_MINUS)
        vel = zl.PolynomialVelocity((0.5, 1j), (-0.25 + 0.5j, 0.0, 0.3))
        report = ver.generator_identity_check(f, zl.PhysParams(hbar=1.3), perm, vel, BLOCK_T, BLOCK_SWEEP)
        for eps, error in zip(report.values, report.errors):
            expected = whole_increment_residuals(f, zl.PhysParams(hbar=1.3, epsilon=eps), perm, vel, BLOCK_T)
            assert error == np.max(expected)
        assert len(expected) == 1024 and 4 * len(expected) % block == 0  # state 4,096 starts a block of its own
        res = ver.cycle_increment_residuals(f, zl.PhysParams(hbar=1.3, epsilon=1e-4), perm, vel, BLOCK_T)
        assert np.array_equal(res, expected)

    def test_convergence(self, monkeypatch, block):
        monkeypatch.setattr(zl.process, "_BLOCK_STATES", block)
        vel, z0, perm = zl.CircularVelocity(omega=2.0, amplitude=0.7), (0.3, -1j), zl.Permutation()
        vertex, mean = ver.process_convergence_rates(zl.PhysParams(hbar=1.3), perm, vel, z0, BLOCK_T, BLOCK_SWEEP)
        for eps, vertex_error, mean_error in zip(vertex.values, vertex.errors, mean.errors):
            params = zl.PhysParams(hbar=1.3, epsilon=eps)
            assert (vertex_error, mean_error) == whole_convergence_errors(params, perm, vel, z0, BLOCK_T)
        assert zl.run_process(params, perm, vel, z0, BLOCK_T).times.size == 4097


@pytest.mark.parametrize("method", ["value", "grad", "laplacian"])
def test_base_test_function_has_no_closed_forms(method):
    f = ver.TestFunction()
    z = np.zeros((1, 2), dtype=complex)
    assert f.dt(z, 0.0) == 0.0
    with pytest.raises(NotImplementedError):
        getattr(f, method)(z, 0.0)


U = np.finfo(float).eps / 2
HJ_CFG = parse_config("scenario = hj_residual\n")
# the six residuals of the default hj_residual run: its dt sweep, then its n sweep at the finest dt
HJ_SWEEP = [(HJ_CFG.n_grid, dt) for dt in HJ_CFG.hj_dts] + [(n, min(HJ_CFG.hj_dts)) for n in HJ_CFG.hj_ns]


def plain_hj_residual(psi_frames, pot, hbar=1.0, mass=1.0, rho_floor=ver.HJ_RHO_FLOOR):
    """(report, scale): the residual on the n x n planes, as computed before
    it split per axis, from the gathered ratios, each frame's values, V's
    values and one principal log of the 2D ratio per live cell; scale is
    the largest sum |dS/dt| + |(grad S)^2/2m| + |V| + |(hbar/2m) Lap S| of
    the residual's terms over the live cells."""
    v_grid = pot.values(psi_frames[0].grid, mass).ravel()
    linf, linf_centered, scale = [], [], 0.0
    for i in range(1, len(psi_frames) - 1):
        prev_f, here, next_f = psi_frames[i - 1], psi_frames[i], psi_frames[i + 1]
        dt_frame = 0.5 * (next_f.time - prev_f.time)
        live, ratios, _, _ = gathered_ratios(here, rho_floor, laplacian=True)
        ratio_sq = ratios[0] ** 2 + ratios[1] ** 2
        grad_s_sq = -(hbar * hbar) * ratio_sq
        lap_s = -1j * hbar * (ratios[2] - ratio_sq)
        ds_dt = -1j * hbar * np.log(next_f.values.ravel()[live] / prev_f.values.ravel()[live]) / (2.0 * dt_frame)
        terms = [ds_dt, grad_s_sq / (2.0 * mass), v_grid[live], -0.5j * hbar / mass * lap_s]
        residual = terms[0] + terms[1] + terms[2] + terms[3]
        linf.append(float(np.abs(residual).max()))
        linf_centered.append(float(np.abs(residual - np.mean(residual)).max()))
        scale = max(scale, float(np.max(sum(np.abs(t) for t in terms))))
    return ver.HJResidualReport(float(np.max(linf)), float(np.max(linf_centered))), scale


class TestComplexHJResidual:
    def frames(self, n, dt_frame, t0=0.5, box=20.0):
        grid = zl.Grid2D(n, box)
        return [
            zl.analytic_free_gaussian(grid, 1.0, (0.0, 0.0), (0, 0), t0 + k * dt_frame)
            for k in (-1, 0, 1)
        ]

    def test_analytic_frames_small_residual(self):
        report = ver.complex_hj_residual(self.frames(128, 1e-3), zl.free_potential())
        assert report.overall_linf < 2e-6

    def test_residual_second_order_in_frame_spacing(self):
        errs = [
            ver.complex_hj_residual(self.frames(128, d), zl.free_potential()).overall_linf
            for d in (4e-3, 2e-3, 1e-3)
        ]
        assert ver.fit_rate((4e-3, 2e-3, 1e-3), errs) == pytest.approx(2.0, abs=0.1)

    def test_residual_drops_with_resolution(self):
        errs = [
            ver.complex_hj_residual(self.frames(n, 1e-3), zl.free_potential()).overall_linf
            for n in (32, 64)
        ]
        assert errs[1] < errs[0] / 10

    def test_stationary_state_residual(self):
        # phase is exactly linear in t, so the only residual is spatial noise
        grid = zl.Grid2D(128, 10.0)
        fx, fy = zl.harmonic_ground_state(grid, 1.0).factors
        frames = [zl.WaveFunction(grid, (fx * np.exp(-1j * t), fy), t) for t in (0.499, 0.5, 0.501)]
        report = ver.complex_hj_residual(frames, zl.harmonic_potential(1.0))
        assert report.overall_linf < 1e-8
        assert report.overall_linf_centered < 1e-8

    def test_nan_of_a_later_frame_reaches_the_maxima(self):
        later = zl.analytic_free_gaussian(zl.Grid2D(64, 20.0), 1.0, (0.0, 0.0), (0, 0), 0.502)
        frames = self.frames(64, 1e-3) + [later]
        healthy = ver.complex_hj_residual(frames, zl.free_potential())
        assert math.isfinite(healthy.overall_linf) and math.isfinite(healthy.overall_linf_centered)
        # frame 3 is read only by the second interior frame
        nan = tuple(np.full_like(f, np.nan) for f in frames[3].factors)
        frames[3] = zl.WaveFunction(frames[3].grid, nan, frames[3].time)
        report = ver.complex_hj_residual(frames, zl.free_potential())
        assert math.isnan(report.overall_linf) and math.isnan(report.overall_linf_centered)

    def test_needs_three_frames(self):
        with pytest.raises(zl.InvalidInput, match="at least 3 consecutive frames, got 2"):
            ver.complex_hj_residual(self.frames(64, 1e-3)[:2], zl.free_potential())

    def test_axis_increments_adding_past_pi_do_not_wrap(self):
        """Each axis's phase moves by about 1.8 between the outer frames
        (k0 = 3, dt_frame = 0.2), together past pi: one principal log of the
        2D ratio wraps by 2 pi there, and the residual jumps by one branch,
        pi hbar / dt_frame = 15.7 (15.83 read before the residual split per
        axis).  The per-axis logs do not wrap, and the residual stays under
        half a branch.  A single axis whose increment passes pi still wraps."""
        cfg = replace(HJ_CFG, k0_x=3.0, k0_y=3.0, hj_time=0.5)
        dt_frame = 0.2
        frames = _analytic_frame_triple(cfg, 128, dt_frame)
        report = ver.complex_hj_residual(frames, zl.free_potential(), cfg.hbar, cfg.mass, cfg.hj_rho_floor)
        assert report.overall_linf < math.pi * cfg.hbar / (2 * dt_frame)

    @staticmethod
    def assert_matches_plain(frames, pot, dt_frame, hbar=1.0, mass=1.0, rho_floor=ver.HJ_RHO_FLOOR):
        """The per-axis residual against plain_hj_residual, to rounding.

        Per live cell the two forms differ only in rounding, with u the unit
        roundoff.  The ratio z of the next frame's Psi to the previous one's
        takes three complex operations in the plain form (the two products
        of np.outer and a divide) and two in the per-axis form (one divide
        per axis, the logs summed).  Each errs by at most 6u relative
        (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.6:
        sqrt 2 gamma_2 for a product, sqrt 2 gamma_4 for a divide), so the
        logs differ by at most 30u and dS/dt by 30u hbar / (2 dt_frame).
        Every other operation (the log's own rounding, the terms and their
        sums, at most 16 on any path) errs by at most u relative to the sum
        of the terms' magnitudes, scale.  overall_linf moves by at most that
        cell bound, the centred value by twice it plus the mean's rounding,
        log2(n^2) u scale for a pairwise sum.
        """
        report = ver.complex_hj_residual(frames, pot, hbar, mass, rho_floor)
        plain, scale = plain_hj_residual(frames, pot, hbar, mass, rho_floor)
        bound = U * (15 * hbar / dt_frame + 16 * scale)
        assert abs(report.overall_linf - plain.overall_linf) <= bound
        log2_cells = 2 * math.log2(frames[0].grid.n)
        assert abs(report.overall_linf_centered - plain.overall_linf_centered) <= 2 * bound + log2_cells * U * scale

    @pytest.mark.parametrize("n, dt_frame", HJ_SWEEP)
    def test_matches_the_plain_residual_on_the_default_sweep(self, n, dt_frame):
        frames = _analytic_frame_triple(HJ_CFG, n, dt_frame)
        self.assert_matches_plain(frames, zl.free_potential(), dt_frame, HJ_CFG.hbar, HJ_CFG.mass, HJ_CFG.hj_rho_floor)

    @pytest.mark.parametrize("stride", [1, 5])
    def test_matches_the_plain_residual_on_a_harmonic_stream(self, stride):
        pot = zl.harmonic_potential(1.0, 1.5)
        psi0 = zl.init_gaussian(zl.Grid2D(128, 10.0), (0.5, -0.5), 1.0, (1.0, 0.5))
        frames = list(zl.stream_frames(psi0, pot, 1e-3, 6 * stride, stride))
        self.assert_matches_plain(frames, pot, stride * 1e-3)

    def test_reads_no_plane(self, monkeypatch):
        """Neither check builds a frame's values or V on the n x n grid."""
        grid = zl.Grid2D(64, 8.0)
        harmonic = zl.harmonic_potential(1.0, 1.5)
        cases = [
            (self.frames(64, 1e-3), zl.free_potential()),
            (list(zl.stream_frames(zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.0, 0.5)), harmonic, 1e-3, 4, 2)), harmonic),
        ]

        def refuse(*args):
            raise AssertionError("an n x n plane was built")

        monkeypatch.setattr(schrodinger.WaveFunction, "values", property(refuse))
        monkeypatch.setattr(schrodinger.Potential, "values", refuse)
        for frames, pot in cases:
            assert math.isfinite(ver.complex_hj_residual(frames, pot).overall_linf)
            assert ver.least_action_saddle_check(frames[1], pot, n_points=20).saddle_ok

    def test_potential_enters_residual(self):
        # evaluating free frames against the wrong potential leaves V behind
        report = ver.complex_hj_residual(self.frames(64, 1e-3), zl.harmonic_potential(1.0))
        assert report.overall_linf > 1.0


@pytest.fixture(scope="module")
def packet():
    grid = zl.Grid2D(128, 20.0)
    return zl.analytic_free_gaussian(grid, 1.0, (0.5, 0.0), (0, 0), 0.3)


class TestLeastActionSaddle:

    def test_stationary_and_saddle(self, packet):
        report = ver.least_action_saddle_check(packet, zl.free_potential(), n_points=100, seed=3)
        assert report.saddle_ok
        assert report.max_stationarity_gradient < 1e-10
        assert report.max_real_mismatch < 1e-12
        assert report.max_imag_mismatch < 1e-12

    def test_with_harmonic_potential(self, packet):
        report = ver.least_action_saddle_check(
            packet, zl.harmonic_potential(0.5), hbar=1.0, mass=2.0, n_points=50, seed=9
        )
        assert report.saddle_ok

    def test_json_report(self, packet, tmp_path):
        report = ver.least_action_saddle_check(packet, zl.free_potential(), n_points=10, seed=1)
        report.to_json(tmp_path / "saddle.json")
        text = (tmp_path / "saddle.json").read_text()
        assert '"pass": true' in text


def loop_saddle_check(psi, pot, hbar=1.0, mass=1.0, n_points=100, seed=0, fd_step=1e-3, deltas=(1e-2, 1e-1),
                      rho_floor=ver.HJ_RHO_FLOOR):
    """One drawn cell at a time, as computed before the check took all its
    cells at once: the oracle for least_action_saddle_check."""
    rx, ry, floor, (ratio_x, ratio_y) = schrodinger.psi_ratios(psi, rho_floor, laplacian=True)
    live = np.flatnonzero(~(np.outer(rx, ry) < floor))
    i, j = np.divmod(live[np.random.default_rng(seed).integers(0, live.size, size=n_points)], psi.grid.n)
    (dx, d2x), (dy, d2y) = ratio_x[:, i], ratio_y[:, j]
    grad_s = -1j * hbar * np.array([dx, dy])
    lap_s = -1j * hbar * (d2x + d2y - dx**2 - dy**2)
    parts = schrodinger._potential_parts(psi.grid, pot, mass)
    v = parts[0][i] + parts[-1][j]

    def objective(vel, p):
        kinetic = 0.5 * mass * np.sum(vel * vel)
        return kinetic - v[p] - np.sum(vel * grad_s[:, p]) + 0.5j * hbar / mass * lap_s[p]

    directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / math.sqrt(2)]
    max_grad = max_real_mismatch = max_imag_mismatch = 0.0
    for p in range(n_points):
        v_star = grad_s[:, p] / mass
        base = objective(v_star, p)
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1j * np.array([1.0, 0.0]), 1j * np.array([0.0, 1.0])):
            fd = (objective(v_star + fd_step * e, p) - objective(v_star - fd_step * e, p)) / (2.0 * fd_step)
            max_grad = max(max_grad, abs(fd))
        for d in deltas:
            for e in directions:
                up = objective(v_star + d * e, p).real - base.real
                down = objective(v_star + 1j * d * e, p).real - base.real
                expected = 0.5 * mass * d**2
                max_real_mismatch = max(max_real_mismatch, abs(up - expected))
                max_imag_mismatch = max(max_imag_mismatch, abs(down + expected))
    scale = 0.5 * mass * max(deltas) ** 2
    saddle_ok = bool(
        max_grad < 1e-10
        and max_real_mismatch < 1e-10 * max(1.0, scale)
        and max_imag_mismatch < 1e-10 * max(1.0, scale)
    )
    return ver.SaddleReport(
        n_points=n_points,
        max_stationarity_gradient=float(max_grad),
        max_real_mismatch=float(max_real_mismatch),
        max_imag_mismatch=float(max_imag_mismatch),
        saddle_ok=saddle_ok,
        parameters={"seed": seed, "fd_step": fd_step, "deltas": list(deltas)},
    )


class TestSaddleArrayForm:
    POTENTIALS = {
        "free": zl.free_potential(),
        "harmonic": zl.harmonic_potential(0.5),
        "anisotropic": zl.harmonic_potential(1.0, 1.5),
    }

    @pytest.fixture(scope="class")
    def frames(self):
        """Two analytic free packets and a solver frame under the anisotropic harmonic V."""
        psi0 = zl.init_gaussian(zl.Grid2D(64, 8.0), (0.5, -0.5), 1.0, (1.0, 0.5))
        return {
            "analytic": zl.analytic_free_gaussian(zl.Grid2D(128, 20.0), 1.0, (0.5, 0.0), (0, 0), 0.3),
            "analytic_boosted": zl.analytic_free_gaussian(zl.Grid2D(64, 16.0), 1.0, (0.5, -1.0), (1.0, 0.5), 0.7),
            "harmonic_solver": list(zl.stream_frames(psi0, self.POTENTIALS["anisotropic"], 1e-3, 4, 2))[-1],
        }

    @pytest.mark.parametrize("frame", ["analytic", "analytic_boosted", "harmonic_solver"])
    @pytest.mark.parametrize("pot", ["free", "harmonic", "anisotropic"])
    @pytest.mark.parametrize(
        "hbar, mass, n_points, seed",
        [(1.0, 1.0, 100, 0), (0.7, 2.0, 1, 5), (2.5, 0.3, 37, 11), (1e-3, 1e3, 50, 3), (30.0, 1e-2, 20, 9)],
    )
    def test_equals_the_loop_oracle(self, frames, frame, pot, hbar, mass, n_points, seed):
        """Every term in the loop's order, the gradient's modulus by hypot:
        the whole report equals the per-point loop's, bit for bit."""
        psi, potential = frames[frame], self.POTENTIALS[pot]
        report = ver.least_action_saddle_check(psi, potential, hbar, mass, n_points, seed)
        assert report == loop_saddle_check(psi, potential, hbar, mass, n_points, seed)

    def test_floor_masking_every_cell_raises(self, packet):
        with pytest.raises(zl.InvalidInput, match="rho_floor = 2 masks every cell"):
            ver.least_action_saddle_check(packet, zl.free_potential(), rho_floor=2.0)

    def test_overflow_fails_the_check(self, packet):
        """hbar = 1e200 squares V past the float range, and inf - inf is NaN
        at every cell; the loop's builtin max dropped each NaN and passed."""
        with np.errstate(over="ignore", invalid="ignore"):
            report = ver.least_action_saddle_check(packet, zl.free_potential(), hbar=1e200, n_points=5)
        assert math.isnan(report.max_stationarity_gradient) and math.isnan(report.max_real_mismatch)
        assert not report.saddle_ok

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_no_points_raises(self, packet, n_points):
        with pytest.raises(zl.InvalidInput, match=f"n_points must be >= 1, got {n_points}"):
            ver.least_action_saddle_check(packet, zl.free_potential(), n_points=n_points)


def test_rate_report_json(tmp_path):
    report = ver.generator_identity_check(
        ver.CATALOG["quadratic"], zl.PhysParams(), zl.Permutation(), zl.CircularVelocity(), 0.5, SWEEP
    )
    path = tmp_path / "rate.json"
    report.to_json(path)
    text = path.read_text()
    for key in ('"check"', '"parameters"', '"samples"', '"fitted_rate"', '"pass"', '"eps_or_N"'):
        assert key in text


def test_fit_rate_rejects_zero_errors():
    with pytest.raises(ValueError):
        ver.fit_rate([1e-1, 1e-2], [0.0, 1e-3])
