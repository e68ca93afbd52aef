"""Split-step solver, analytic packets, gradient fields, frame exports."""

import math
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import schrodinger as sch
from zitterlab.cli import parse_config
from zitterlab.fileio import read_zlab_frame
from zitterlab.scenarios import run_scenario


@pytest.fixture(scope="module")
def grid128():
    return zl.Grid2D(128, 10.0)


def l2_diff(grid, a, b):
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * grid.cell_area()))


def reference_split_step(psi, pot, dt, n_steps, hbar=1.0, mass=1.0):
    """Unfused Strang loop: half kick, FFT, kinetic phase, IFFT, half kick per step."""
    grid = psi.grid
    half_kick = np.exp(-0.5j * dt * pot.values(grid, mass) / hbar)
    k = grid.wavenumbers
    kinetic_phase = np.exp(-0.5j * hbar * dt * (k[:, None] ** 2 + k[None, :] ** 2) / mass)
    values = psi.values
    for _ in range(n_steps):
        values = np.fft.ifft2(np.fft.fft2(values * half_kick) * kinetic_phase) * half_kick
    return values


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestGrid:
    def test_geometry(self, grid128):
        assert grid128.spacing == pytest.approx(20.0 / 128)
        assert grid128.axis[0] == -10.0
        assert grid128.axis[-1] == pytest.approx(10.0 - grid128.spacing)
        assert grid128.nyquist == pytest.approx(math.pi / grid128.spacing)

    @pytest.mark.parametrize("n", [8, 100, 15])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            zl.Grid2D(n, 10.0)


class TestInitGaussian:
    def test_normalized(self, grid128):
        psi = zl.init_gaussian(grid128, (0.5, -0.25), 1.0, (1.0, 0.0))
        assert abs(psi.norm() - 1.0) < 1e-9

    def test_even_symmetry_without_boost(self, grid128):
        psi = zl.init_gaussian(grid128, (0, 0), 1.0, (0, 0))
        v = psi.values
        assert np.max(np.abs(v.imag)) == 0.0
        # x -> -x mirror (axis excludes +L, so compare away from row 0)
        assert np.max(np.abs(v[1:, :] - v[:0:-1, :])) < 1e-12

    def test_boundary_amplitude_tiny(self):
        grid = zl.Grid2D(256, 20.0)
        psi = zl.init_gaussian(grid, (0, 0), 1.0, (0, 0))
        edge = np.abs(psi.values[0, :]).max()
        assert edge < 1e-40

    def test_too_narrow_rejected(self, grid128):
        with pytest.raises(zl.PacketTooNarrow):
            zl.init_gaussian(grid128, (0, 0), 0.5, (0, 0))

    def test_boundary_leak_rejected(self, grid128):
        with pytest.raises(zl.PacketTouchesBoundary):
            zl.init_gaussian(grid128, (9.0, 0), 1.0, (0, 0))

    def test_fast_boost_rejected(self, grid128):
        with pytest.raises(zl.ResolutionLoss):
            zl.init_gaussian(grid128, (0, 0), 1.0, (0.6 * grid128.nyquist, 0))


class TestAnalyticFreeGaussian:
    def test_matches_init_at_t0(self, grid128):
        psi = zl.init_gaussian(grid128, (0.5, 0), 1.0, (1.0, -0.5))
        exact = zl.analytic_free_gaussian(grid128, 1.0, (1.0, -0.5), (0.5, 0), 0.0)
        assert l2_diff(grid128, psi.values, exact.values) < 1e-12

    def test_dispersion_width(self, grid128):
        t = 1.5
        psi = zl.analytic_free_gaussian(grid128, 1.0, (0, 0), (0, 0), t)
        _, _, sx, sy = zl.moments(psi)
        expected = math.sqrt(1.0 + (t / 2.0) ** 2)
        assert sx == pytest.approx(expected, rel=1e-9)
        assert sy == pytest.approx(expected, rel=1e-9)

    def test_centroid_translates_with_boost(self, grid128):
        psi = zl.analytic_free_gaussian(grid128, 1.0, (1.0, 0.0), (0, 0), 1.0)
        x_mean, y_mean, _, _ = zl.moments(psi)
        assert x_mean == pytest.approx(1.0, abs=1e-9)
        assert y_mean == pytest.approx(0.0, abs=1e-9)

    def test_solves_schrodinger_spectrally(self, grid128):
        # i hbar dPsi/dt + (hbar^2/2m) Lap Psi == 0, time derivative by
        # central difference of analytic frames
        dt = 1e-5
        minus, here, plus = (
            zl.analytic_free_gaussian(grid128, 1.0, (0.5, 0), (0, 0), 0.4 + k * dt)
            for k in (-1, 0, 1)
        )
        dpsi_dt = (plus.values - minus.values) / (2 * dt)
        k = grid128.wavenumbers
        rhs = 0.5j * np.fft.ifft2(-(k[:, None] ** 2 + k[None, :] ** 2) * np.fft.fft2(here.values))
        assert np.max(np.abs(dpsi_dt - rhs)) < 1e-7


class TestSplitStep:
    def test_free_evolution_matches_analytic(self, grid128):
        psi0 = zl.init_gaussian(grid128, (0, 0), 1.0, (1.0, 0.0))
        psi = zl.split_step_evolve(psi0, zl.free_potential(), 1e-3, 250)
        exact = zl.analytic_free_gaussian(grid128, 1.0, (1.0, 0.0), (0, 0), psi.time)
        assert l2_diff(grid128, psi.values, exact.values) < 1e-6

    def test_norm_conserved(self, grid128):
        psi0 = zl.init_gaussian(grid128, (2.0, 0), math.sqrt(0.5), (0, 0))
        psi = zl.split_step_evolve(psi0, zl.harmonic_potential(1.0), 1e-3, 1000)
        assert abs(psi.norm() - 1.0) < 1e-12

    def test_coherent_state_returns_after_period(self, grid128):
        omega = 1.0
        psi0 = zl.init_gaussian(grid128, (2.0, 0), math.sqrt(0.5 / omega), (0, 0))
        n_steps = 3142
        dt = 2 * math.pi / omega / n_steps
        psi = zl.split_step_evolve(psi0, zl.harmonic_potential(omega), dt, n_steps)
        assert l2_diff(grid128, psi.values, psi0.values) < 1e-5

    def test_second_order_in_dt(self, grid128):
        omega = 1.0
        psi0 = zl.init_gaussian(grid128, (2.0, 0), math.sqrt(0.5), (0, 0))
        pot = zl.harmonic_potential(omega)
        errs = []
        for n_steps in (157, 314, 628):
            dt = 1.0 / n_steps
            psi = zl.split_step_evolve(psi0, pot, dt, n_steps)
            ref = zl.split_step_evolve(psi0, pot, 1.0 / 5024, 5024)
            errs.append(l2_diff(grid128, psi.values, ref.values))
        rate = zl.fit_rate([1.0 / 157, 1.0 / 314, 1.0 / 628], errs)
        assert rate == pytest.approx(2.0, abs=0.2)

    def test_eigenstate_energy_conserved(self, grid128):
        pot = zl.harmonic_potential(1.0)
        psi0 = zl.harmonic_ground_state(grid128, 1.0)
        e0 = zl.energy(psi0, pot)
        assert e0 == pytest.approx(1.0, rel=1e-10)  # hbar*omega in 2D
        psi = zl.split_step_evolve(psi0, pot, 1e-3, 1000)
        assert abs(zl.energy(psi, pot) - e0) / e0 < 1e-8

    def test_free_packet_energy_conserved(self, grid128):
        pot = zl.free_potential()
        psi0 = zl.init_gaussian(grid128, (0, 0), 1.0, (1.0, 0.0))
        e0 = zl.energy(psi0, pot)
        psi = zl.split_step_evolve(psi0, pot, 1e-3, 1000)
        assert abs(zl.energy(psi, pot) - e0) / abs(e0) < 1e-8

    def test_grid_sampled_potential_matches_closed_form(self, grid128):
        X, Y = grid128.mesh()
        sampled = sch.Potential(sch.PotentialKind.GRID_SAMPLED, samples=0.5 * (X**2 + Y**2))
        psi0 = zl.init_gaussian(grid128, (2.0, 0), math.sqrt(0.5), (0, 0))
        a = zl.split_step_evolve(psi0, sampled, 1e-3, 200)
        b = zl.split_step_evolve(psi0, zl.harmonic_potential(1.0), 1e-3, 200)
        assert np.array_equal(a.values, b.values)

    def test_grid_sampled_potential_shape_checked(self, grid128):
        bad = sch.Potential(sch.PotentialKind.GRID_SAMPLED, samples=np.zeros((4, 4)))
        psi0 = zl.init_gaussian(grid128, (0, 0), 1.0, (0, 0))
        with pytest.raises(ValueError):
            zl.split_step_evolve(psi0, bad, 1e-3, 1)

    def test_alias_guard_trips_on_noise(self, grid128):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        noise /= math.sqrt(np.sum(np.abs(noise) ** 2) * grid128.cell_area())
        # the harmonic path reads the spectrum before its last half kick
        for pot in (zl.free_potential(), zl.harmonic_potential(1.0)):
            with pytest.raises(zl.ResolutionLoss):
                zl.split_step_evolve(zl.WaveFunction(grid128, noise, 0.0), pot, 1e-3, 1)

    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0)], ids=["free", "harmonic"])
    def test_non_finite_psi_rejected(self, pot):
        grid = zl.Grid2D(16, 10.0)
        values = np.zeros((16, 16), dtype=complex)
        values[8, 8] = 1.0
        values[3, 5] = np.nan
        with pytest.raises(zl.ResolutionLoss):
            zl.split_step_evolve(zl.WaveFunction(grid, values, 0.0), pot, 1e-3, 3)

    def test_evolve_frames_timestamps(self, grid128):
        psi0 = zl.init_gaussian(grid128, (0, 0), 1.0, (0, 0))
        frames = zl.evolve_frames(psi0, zl.free_potential(), 1e-3, 100, 20)
        assert len(frames) == 6
        assert [round(f.time, 9) for f in frames] == [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]
        with pytest.raises(ValueError):
            zl.evolve_frames(psi0, zl.free_potential(), 1e-3, 100, 30)


class TestPropagator:
    @pytest.fixture(scope="class")
    def grid64(self):
        return zl.Grid2D(64, 8.0)

    # separable V (harmonic, harmonic_heavy, separable_sampled) runs on the
    # per-axis operators; the others run the per-step loop
    @pytest.mark.parametrize(
        "kind",
        ["free", "harmonic", "grid_sampled", "harmonic_heavy", "separable_sampled", "near_separable"],
    )
    @pytest.mark.parametrize("n_steps", [1, 2, 7])
    def test_matches_unfused_reference(self, grid64, kind, n_steps):
        X, Y = grid64.mesh()

        def sampled(v):
            return sch.Potential(sch.PotentialKind.GRID_SAMPLED, samples=v)

        pot, mass = {
            "free": (zl.free_potential(), 1.0),
            "harmonic": (zl.harmonic_potential(1.0, 1.5), 1.0),
            "grid_sampled": (sampled(0.3 * X**2 + 0.1 * X * Y), 1.0),
            "harmonic_heavy": (zl.harmonic_potential(1.0, 1.5), 2.5),
            "separable_sampled": (sampled(0.3 * X**2 + np.cos(Y)), 1.0),
            # off by 1e-6 XY, far above the separability tolerance: the loop
            # path, which the per-axis operators would miss by ~1e-7
            "near_separable": (sampled(0.5 * (X**2 + Y**2) + 1e-6 * X * Y), 1.0),
        }[kind]
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        psi = zl.Propagator(grid64, pot, 2e-2, hbar=1.0, mass=mass).advance(psi0, n_steps)
        assert psi.time == pytest.approx(n_steps * 2e-2)
        assert rel_l2(psi.values, reference_split_step(psi0, pot, 2e-2, n_steps, mass=mass)) <= 1e-12

    @pytest.mark.parametrize(
        "pot",
        [zl.free_potential(), zl.harmonic_potential(1.0), zl.harmonic_potential(1.0, 1.5)],
        ids=["free", "harmonic", "anisotropic"],
    )
    def test_cache_follows_n_steps(self, grid64, pot):
        psi0 = zl.init_gaussian(grid64, (0.5, 0), 1.0, (0.5, 0))
        prop = zl.Propagator(grid64, pot, 1e-2)
        psi, fresh = psi0, psi0
        for n_steps in (3, 5, 3):
            psi = prop.advance(psi, n_steps)
            fresh = zl.Propagator(grid64, pot, 1e-2).advance(fresh, n_steps)
            assert np.array_equal(psi.values, fresh.values)

    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0)], ids=["free", "harmonic"])
    def test_last_frame_matches_one_call(self, grid64, pot):
        psi0 = zl.init_gaussian(grid64, (0.5, 0), 1.0, (0.5, 0))
        frames = zl.evolve_frames(psi0, pot, 1e-2, 40, 5)
        whole = zl.split_step_evolve(psi0, pot, 1e-2, 40)
        assert rel_l2(frames[-1].values, whole.values) <= 1e-12

    def test_advance_returns_fresh_arrays(self, grid64):
        psi0 = zl.init_gaussian(grid64, (0, 0), 1.0, (0, 0))
        prop = zl.Propagator(grid64, zl.harmonic_potential(1.0), 1e-2)
        a = prop.advance(psi0, 3)
        b = prop.advance(psi0, 3)
        assert a.values is not b.values and np.array_equal(a.values, b.values)
        assert prop.advance(psi0, 0).values is not psi0.values

    def test_rejects_bad_input(self, grid64):
        psi0 = zl.WaveFunction(zl.Grid2D(64, 12.0), np.ones((64, 64), dtype=complex))
        prop = zl.Propagator(grid64, zl.free_potential(), 1e-2)
        with pytest.raises(ValueError):
            prop.advance(psi0, 1)
        with pytest.raises(ValueError):
            zl.Propagator(grid64, zl.free_potential(), 0.0)


class TestFrameStream:
    """Propagator.frames: k-space on the free path, advance() elsewhere."""

    @pytest.fixture(scope="class")
    def grid64(self):
        return zl.Grid2D(64, 8.0)

    @staticmethod
    def chained_advance(psi0, pot, dt, stride, n_frames):
        prop = zl.Propagator(psi0.grid, pot, dt)
        frames = [psi0.copy()]
        for _ in range(n_frames):
            frames.append(prop.advance(frames[-1], stride))
        return frames

    def test_free_stream_matches_advance(self, grid64):
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        stream = list(zl.stream_frames(psi0, zl.free_potential(), 2e-2, 28, 4))
        reference = self.chained_advance(psi0, zl.free_potential(), 2e-2, 4, 7)
        assert [f.time for f in stream] == [f.time for f in reference]
        assert np.array_equal(stream[0].values, psi0.values) and stream[0].values is not psi0.values
        for f, ref in zip(stream, reference):
            assert rel_l2(f.values, ref.values) <= 1e-12
            # the held spectrum is the frame's own FFT, up to roundoff
            assert rel_l2(f.spectrum, np.fft.fft2(f.values)) <= 1e-12
        listed = zl.evolve_frames(psi0, zl.free_potential(), 2e-2, 28, 4)
        assert all(f.spectrum is None for f in listed)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(listed, stream))

    @pytest.mark.parametrize("kind", ["separable", "loop"])
    def test_potential_stream_is_advance(self, grid64, kind):
        X, Y = grid64.mesh()
        pot = {
            "separable": zl.harmonic_potential(1.0, 1.5),
            "loop": sch.Potential(sch.PotentialKind.GRID_SAMPLED, samples=0.3 * X**2 + 0.1 * X * Y),
        }[kind]
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        stream = list(zl.stream_frames(psi0, pot, 2e-2, 21, 3))
        reference = self.chained_advance(psi0, pot, 2e-2, 3, 7)
        assert len(stream) == len(reference) == 8
        for f, ref in zip(stream, reference):
            assert f.time == ref.time and f.spectrum is None
            assert np.array_equal(f.values, ref.values)

    def test_arguments_checked_before_the_first_frame(self, grid64):
        psi0 = zl.init_gaussian(grid64, (0, 0), 1.0, (0, 0))
        with pytest.raises(zl.InvalidInput):
            zl.stream_frames(psi0, zl.free_potential(), 1e-2, 100, 30)

    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0)], ids=["free", "harmonic"])
    def test_guard_runs_per_frame(self, pot):
        grid = zl.Grid2D(16, 10.0)
        values = np.zeros((16, 16), dtype=complex)
        values[8, 8] = 1.0
        values[3, 5] = np.nan
        stream = zl.stream_frames(zl.WaveFunction(grid, values, 0.0), pot, 1e-3, 6, 2)
        next(stream)  # frame 0 is the input itself
        with pytest.raises(zl.ResolutionLoss):
            next(stream)


class TestGradientFields:
    """grad S = m Re V and grad log rho = -(2m/hbar) Im V from velocity_field."""

    def test_plane_phase_gradient(self, grid128):
        # grad S = hbar k0 wherever the density supports the ratio; at the
        # deep tail the 1/|Psi| amplification of FFT roundoff takes over
        k0 = (1.25, -0.75)
        psi = zl.init_gaussian(grid128, (0, 0), 1.2, k0)
        grad_s = zl.velocity_field(psi).v.real
        rho = psi.density()
        bulk = rho > 1e-6 * rho.max()
        assert np.allclose(grad_s[bulk][:, 0], k0[0], atol=1e-5)
        assert np.allclose(grad_s[bulk][:, 1], k0[1], atol=1e-5)
        assert abs(grad_s[64, 64, 0] - k0[0]) < 1e-8

    def test_harmonic_ground_log_density_slope(self, grid128):
        omega, mass, hbar = 1.0, 1.0, 1.0
        psi = zl.harmonic_ground_state(grid128, omega)
        field = zl.velocity_field(psi, hbar, mass, rho_floor=1e-6)
        grad_log_rho = -(2.0 * mass / hbar) * field.v.imag
        X, Y = grid128.mesh()
        bulk = ~field.node_mask
        expected = -2.0 * mass * omega / hbar * X
        assert np.max(np.abs(grad_log_rho[..., 0][bulk] - expected[bulk])) < 1e-6
        assert np.max(np.abs(mass * field.v.real[bulk])) < 1e-10

    def test_mask_flags_low_density(self, grid128):
        psi = zl.init_gaussian(grid128, (0, 0), 1.0, (0, 0))
        field = zl.velocity_field(psi, rho_floor=1e-4)
        assert field.node_mask.any() and not field.node_mask.all()
        assert np.all(field.v[field.node_mask] == 0.0)

    def test_laplacian_ratio_shares_the_spectrum(self, grid128):
        psi = zl.analytic_free_gaussian(grid128, 1.0, (1.0, 0.5), (0, 0), 0.4)
        # the 3-row call first, so the 2-row call reuses its held buffers
        live_l, ratios_l, rho_l, mask_l = sch.psi_ratios(psi, 1e-8, laplacian=True)
        live, ratios, rho, mask = sch.psi_ratios(psi, 1e-8)
        assert ratios_l.shape == (3, live.size) and ratios.shape == (2, live.size)
        assert np.array_equal(ratios_l[:2], ratios) and np.array_equal(mask_l, mask) and np.array_equal(rho_l, rho)
        assert np.array_equal(live_l, live) and np.array_equal(live, np.flatnonzero(~mask))
        assert live.size and mask.any()
        k = grid128.wavenumbers
        lap = np.fft.ifft2(-(k[:, None] ** 2 + k[None, :] ** 2) * np.fft.fft2(psi.values))
        expected = lap.ravel()[live] / psi.values.ravel()[live]
        assert np.array_equal(ratios_l[2], expected)

    def test_spectral_matches_fd4_at_h4(self):
        devs = []
        for n in (128, 256):
            grid = zl.Grid2D(n, 10.0)
            psi = zl.analytic_free_gaussian(grid, 1.0, (1.0, 0.5), (0, 0), 0.4)
            h = grid.spacing
            v = psi.values
            # d/dx psi from the kernel's ratio, on its live cells (a superset of bulk)
            live, ratios, _, _ = sch.psi_ratios(psi, 1e-4)
            gx = np.zeros_like(v)
            gx.ravel()[live] = ratios[0] * v.ravel()[live]
            fd4 = (
                -np.roll(v, -2, axis=0)
                + 8 * np.roll(v, -1, axis=0)
                - 8 * np.roll(v, 1, axis=0)
                + np.roll(v, 2, axis=0)
            ) / (12 * h)
            bulk = psi.density() > 1e-4 * psi.density().max()
            devs.append(np.max(np.abs((gx - fd4)[bulk])))
        assert devs[0] / devs[1] == pytest.approx(16.0, rel=0.25)


class TestExports:
    def test_zlab_roundtrip(self, grid128, tmp_path):
        psi = zl.init_gaussian(grid128, (0.5, 0), 1.0, (1.0, 0))
        psi.time = 0.625
        path = tmp_path / "frame.zlab"
        sch.export_frame(path, psi)
        values, half_width, time = read_zlab_frame(path)
        assert half_width == 10.0
        assert time == 0.625
        assert np.array_equal(values, psi.values)

    def test_summary_csv(self, grid128, tmp_path):
        psi0 = zl.init_gaussian(grid128, (0, 0), 1.0, (0, 0))
        frames = zl.evolve_frames(psi0, zl.free_potential(), 1e-3, 40, 20)
        path = tmp_path / "summary.csv"
        sch.frames_summary_csv(path, frames, zl.free_potential())
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm,energy,x_mean,y_mean,sigma_x,sigma_y"
        assert len(lines) == 4
        norm = float(lines[1].split(",")[1])
        assert norm == pytest.approx(1.0, abs=1e-9)


class TestStreamedSummary:
    @pytest.fixture(scope="class")
    def grid64(self):
        return zl.Grid2D(64, 8.0)

    def test_list_and_iterator_write_the_same_csv(self, grid64, tmp_path):
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        frames = list(zl.stream_frames(psi0, zl.free_potential(), 1e-2, 20, 5))
        listed, streamed = tmp_path / "listed.csv", tmp_path / "streamed.csv"
        last_l, rows_l = sch.frames_summary_csv(listed, frames, zl.free_potential())
        last_s, rows_s = sch.frames_summary_csv(streamed, iter(frames), zl.free_potential())
        assert listed.read_bytes() == streamed.read_bytes()
        assert last_l is last_s is frames[-1] and rows_l == rows_s and len(rows_l) == 5

    @pytest.mark.parametrize("kind", ["free", "harmonic"])
    def test_rows_are_the_per_frame_functions(self, grid64, tmp_path, kind):
        # one rho per frame and energy terms built once change no bit of a row
        pot = zl.free_potential() if kind == "free" else zl.harmonic_potential(1.0, 1.5)
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        frames = list(zl.stream_frames(psi0, pot, 1e-2, 20, 5, hbar=0.7, mass=1.3))
        _, rows = sch.frames_summary_csv(tmp_path / "s.csv", frames, pot, hbar=0.7, mass=1.3)
        for f, row in zip(frames, rows):
            assert row == [f.time, f.norm(), zl.energy(f, pot, 0.7, 1.3), *zl.moments(f)]

    def test_empty_stream_writes_the_header(self, tmp_path):
        last, rows = sch.frames_summary_csv(tmp_path / "s.csv", iter(()), zl.free_potential())
        assert last is None and rows == []
        assert (tmp_path / "s.csv").read_text() == "t,norm,energy,x_mean,y_mean,sigma_x,sigma_y\n"

    def test_energy_reads_the_held_spectrum(self, grid64):
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        frame = list(zl.stream_frames(psi0, zl.free_potential(), 1e-2, 20, 5))[-1]
        # the free energy is all kinetic, quadratic in the spectrum it sums over
        doubled = replace(frame, spectrum=2.0 * frame.spectrum)
        assert zl.energy(doubled, zl.free_potential()) == pytest.approx(
            4.0 * zl.energy(frame, zl.free_potential()), rel=1e-15
        )

    def test_held_and_recomputed_spectrum_agree_to_roundoff(self, grid64):
        """energy over the held spectrum S against energy over fft2(ifft2(S)).

        A radix-2 FFT of N points has a relative L2 error of at most
        eta log2 N, eta = u + gamma_4 (sqrt 2 + u) < 7u with u the unit
        roundoff (Higham, Accuracy and Stability of Numerical Algorithms,
        2nd ed., Thm 24.2).  The frame's values are one inverse FFT of S and
        the recomputed spectrum one forward FFT of them, plus the 1/N scaling:
        |dS| <= e |S| with e = 2 * 7u log2 N + u.  E = sum w |S|^2 dA/N with
        weights 0 <= w <= w_max and sum |S|^2 dA/N = norm^2 = 1, so
        |dE| <= w_max (2e + e^2).
        """
        pot = zl.free_potential()
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        n_points = grid64.n**2
        u = np.finfo(float).eps / 2
        e = 2 * 7 * u * math.log2(n_points) + u
        k = grid64.wavenumbers
        w_max = 0.5 * float(np.max(k[:, None] ** 2 + k[None, :] ** 2))
        bound = w_max * (2 * e + e * e)
        frames = list(zl.stream_frames(psi0, pot, 1e-2, 40, 5))
        assert all(f.spectrum is not None for f in frames)
        for f in frames:
            assert abs(zl.energy(f, pot) - zl.energy(replace(f, spectrum=None), pot)) <= bound


@pytest.mark.parametrize("write_frames", ["false", "true"])
def test_free_gaussian_holds_at_most_two_frames(tmp_path, monkeypatch, write_frames):
    # a list from evolve_frames would hold all 11 frames of this run
    real_stream = sch.stream_frames
    live = peak = 0

    def released():
        nonlocal live
        live -= 1

    def counted_stream(*args, **kwargs):
        nonlocal live, peak
        for frame in real_stream(*args, **kwargs):
            live += 1
            peak = max(peak, live)
            # count the values, which a replace()d copy of the frame shares
            weakref.finalize(frame.values, released)
            yield frame

    monkeypatch.setattr(sch, "stream_frames", counted_stream)
    cfg = parse_config(
        "scenario = free_gaussian\nn_grid = 64\nbox_half_width = 8\nT = 0.05\n"
        f"write_frames = {write_frames}\n"
    )
    result = run_scenario(cfg, tmp_path)
    assert result.passed
    assert peak == 2
    names = [os.path.basename(p) for p in result.files]
    frames = [f"frame_{i:04d}.zlab" for i in range(11)] if write_frames == "true" else []
    assert names == ["summary.csv", *frames, "free_gaussian.json"]


def test_harmonic_coherent_summary_energy_is_the_harmonic_one(tmp_path):
    # row 0 of summary.csv is frame 0, a copy of psi0, so its energy is
    # energy(psi0, V) to the bit when the summary is given the run's potential
    cfg = parse_config("scenario = harmonic_coherent\nn_grid = 64\nbox_half_width = 5.5\ncenter_x = 0.5\ndt = 3e-3\n")
    result = run_scenario(cfg, tmp_path)
    assert result.passed
    sigma0 = math.sqrt(cfg.hbar / (2.0 * cfg.mass * cfg.omega))
    psi0 = zl.init_gaussian(cfg.grid(), (cfg.center_x, cfg.center_y), sigma0, (0.0, 0.0))
    header, row0 = (tmp_path / "summary.csv").read_text().splitlines()[:2]
    energy = float(row0.split(",")[header.split(",").index("energy")])
    assert energy == zl.energy(psi0, zl.harmonic_potential(cfg.omega), cfg.hbar, cfg.mass)
