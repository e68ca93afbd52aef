"""Split-step solver, analytic packets, gradient fields, frame exports."""

import functools
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zitterlab as zl
from zitterlab import schrodinger as sch
from zitterlab.cli import parse_config
from zitterlab.fileio import read_zlab_frame
from zitterlab.scenarios import run_scenario

from gather import gathered_ratios


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


def nan_frame():
    """A 16^2 frame of one node (8, 8) and one NaN node (3, 5)."""
    fx, fy = np.zeros((2, 16), dtype=complex)
    fx[[3, 8]] = np.nan, 1.0
    fy[[5, 8]] = 1.0
    return zl.WaveFunction(zl.Grid2D(16, 10.0), (fx, fy))


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

    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_half_widths(self, half_width):
        with pytest.raises(ValueError, match="half_width must be finite and > 0"):
            zl.Grid2D(64, half_width)


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

    @pytest.mark.parametrize("k0", [(0.0, 0.0), (1.0, -0.5)], ids=["at_rest", "boosted"])
    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_ratios_are_the_plain_ratios_of_its_values(self, grid128, t, k0):
        """hj_residual reads an analytic frame's ratios per axis, from factors
        not renormalized on the grid: they are plain_ratios of its values
        within the bound of test_product_path_matches_the_plain_2d_reference,
        at e_k = u for the rounding of np.outer."""
        psi = zl.analytic_free_gaussian(grid128, 1.0, k0, (0.5, -0.5), t)
        live, ratios, _, mask = gathered_ratios(psi, 1e-8)
        assert live.size and mask.any()
        values = psi.values
        expected = plain_ratios(grid128, values, live)
        k_max = float(np.max(np.abs(grid128.wavenumbers)))
        e_d = ETA * (2 * math.log2(grid128.n**2) + 4 * math.log2(grid128.n)) + 2 * U
        r = np.abs(expected)
        bound = ((U + e_d) * k_max + r * U) * np.linalg.norm(values) / np.abs(values.ravel()[live]) + 2 * U * r
        assert np.all(np.abs(ratios - expected) <= bound)

    @staticmethod
    def periodised(grid, k0, center, t, hbar, mass):
        """analytic_free_gaussian's factors summed over the images m = -1, 0, 1
        of the box (center - 2 L m, phase e^{2 i L k0 m}): the packet's exact
        free evolution on the periodic box, to the e^-225 of the next image."""
        L, parts = grid.half_width, []
        for axis in range(2):
            f = 0
            for m in (-1, 0, 1):
                c = list(center)
                c[axis] -= 2 * L * m
                image = zl.analytic_free_gaussian(grid, 1.0, k0, c, t, hbar, mass)
                f = f + np.exp(2j * L * k0[axis] * m) * image.factors[axis]
            parts.append(f)
        return parts

    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 2.5)])
    @pytest.mark.parametrize("k0", [(0.0, 0.0), (1.0, -0.5)], ids=["at_rest", "boosted"])
    @pytest.mark.parametrize("t", [0.3, 1.5])
    def test_is_the_free_split_step_on_the_box(self, grid128, t, k0, hbar, mass):
        """The free solver is exact in time, so from the periodised packet at
        t = 0 it gives the periodised packet at t, to rounding: the free
        path's bound 4 ETA log2 n + 2 p of
        test_product_path_matches_the_plain_2d_reference, the reference's
        own two factors' 2 p_ref (their exponent is at most (2L)^2/(4 sigma0^2)
        + |k0| L + hbar k0^2 t/(2m) on the central image, and an image m != 0
        is below e^-25 where its exponent is large) and u for np.outer."""
        center = (0.5, -0.5)
        psi0 = zl.WaveFunction(grid128, tuple(self.periodised(grid128, k0, center, 0.0, hbar, mass)))
        psi = zl.split_step_evolve(psi0, zl.free_potential(), t / 10, 10, hbar, mass)
        expected = np.outer(*self.periodised(grid128, k0, center, t, hbar, mass))
        L, k_max, k0_max = grid128.half_width, float(np.max(np.abs(grid128.wavenumbers))), max(map(abs, k0))
        p = 4 * U + 3 * U * (0.5 * hbar / mass * t * 2 * k_max**2)
        p_ref = 4 * U + 3 * U * (L**2 + k0_max * L + hbar * k0_max**2 * t / (2 * mass))
        bound = 4 * ETA * math.log2(grid128.n) + 2 * p + 2 * p_ref + U
        assert psi.time == pytest.approx(t)
        assert rel_l2(psi.values, expected) <= bound


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

    def test_alias_guard_trips_on_noise(self, grid128):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((2, 128)) + 1j * rng.standard_normal((2, 128))
        psi = sch._product_state(grid128, *noise)
        # the harmonic path reads the spectrum before its last half kick
        for pot in (zl.free_potential(), zl.harmonic_potential(1.0)):
            with pytest.raises(zl.ResolutionLoss):
                zl.split_step_evolve(psi, pot, 1e-3, 1)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0)], ids=["free", "harmonic"])
    def test_alias_guard_trips_inside_the_band(self, grid128, pot, axis):
        # 1e-6 of the mass in a plane wave at 54/64 of k_max, inside the band
        # that starts at 0.75 k_max; the same wave at 1/2 of k_max passes.
        # The guard reads each axis's spectrum: the wave trips it on either.
        x = grid128.axis
        envelope = np.exp(-(x**2) / 4.0)
        for j, trips in ((54, True), (32, False)):
            wavy = envelope * (1.0 + 1e-3 * np.exp(1j * grid128.wavenumbers[j] * x))
            factors = (wavy, envelope.astype(complex))
            psi = sch._product_state(grid128, *(factors if axis == "x" else factors[::-1]))
            prop = zl.Propagator(grid128, pot, 1e-3)
            if trips:
                with pytest.raises(zl.ResolutionLoss, match="aliasing band"):
                    prop.advance(psi, 2)
            else:
                assert prop.advance(psi, 2).time == 2e-3

    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0)], ids=["free", "harmonic"])
    def test_non_finite_psi_rejected(self, pot):
        with pytest.raises(zl.ResolutionLoss):
            zl.split_step_evolve(nan_frame(), pot, 1e-3, 3)

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

    @pytest.mark.parametrize(
        "pot",
        [zl.free_potential(), zl.harmonic_potential(1.0), zl.harmonic_potential(1.0, 1.5)],
        ids=["free", "harmonic", "anisotropic"],
    )
    def test_cache_follows_n_steps(self, grid64, pot):
        psi = fresh = zl.init_gaussian(grid64, (0.5, 0), 1.0, (0.5, 0))
        prop = zl.Propagator(grid64, pot, 1e-2)
        for n_steps in (3, 5, 3, 3):
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

    def test_negative_n_steps_rejected(self, grid64):
        psi0 = zl.init_gaussian(grid64, (0, 0), 1.0, (0, 0))
        with pytest.raises(ValueError, match="n_steps must be >= 0"):
            zl.Propagator(grid64, zl.free_potential(), 1e-2).advance(psi0, -1)

    def test_rejects_bad_input(self, grid64):
        psi0 = zl.WaveFunction(zl.Grid2D(64, 12.0), (np.ones(64, dtype=complex), np.ones(64, dtype=complex)))
        prop = zl.Propagator(grid64, zl.free_potential(), 1e-2)
        with pytest.raises(ValueError):
            prop.advance(psi0, 1)
        with pytest.raises(ValueError):
            zl.Propagator(grid64, zl.free_potential(), 0.0)


class TestFrameStream:
    """Propagator.frames: advance() in a loop."""

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
            # the stream is advance() in a loop: equal bit for bit
            assert np.array_equal(f.values, ref.values)
        listed = zl.evolve_frames(psi0, zl.free_potential(), 2e-2, 28, 4)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(listed, stream))

    @pytest.mark.parametrize("other", [zl.Grid2D(32, 8.0), zl.Grid2D(64, 12.0)], ids=["n", "half_width"])
    def test_psi_on_another_grid_rejected_before_the_first_frame(self, grid64, other):
        f = np.ones(other.n, dtype=complex)
        frames = zl.Propagator(grid64, zl.free_potential(), 1e-2).frames(zl.WaveFunction(other, (f, f)), 2, 3)
        with pytest.raises(ValueError, match="psi lives on"):
            next(frames)

    def test_arguments_checked_before_the_first_frame(self, grid64):
        psi0 = zl.init_gaussian(grid64, (0, 0), 1.0, (0, 0))
        with pytest.raises(zl.InvalidInput):
            zl.stream_frames(psi0, zl.free_potential(), 1e-2, 100, 30)

    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0)], ids=["free", "harmonic"])
    def test_guard_runs_per_frame(self, pot):
        stream = zl.stream_frames(nan_frame(), pot, 1e-3, 6, 2)
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
        for axis, f in enumerate(psi.factors):
            r = np.abs(f) ** 2
            assert np.allclose(grad_s[r > 1e-6 * r.max(), axis], k0[axis], atol=1e-5)
        assert abs(grad_s[64, 0] - k0[0]) < 1e-8

    def test_harmonic_ground_log_density_slope(self, grid128):
        omega, mass, hbar = 1.0, 1.0, 1.0
        psi = zl.harmonic_ground_state(grid128, omega)
        field = zl.velocity_field(psi, hbar, mass, rho_floor=1e-6)
        grad_log_rho = -(2.0 * mass / hbar) * field.v.imag
        r = np.abs(psi.factors[0]) ** 2
        bulk = r * r.max() >= field.floor  # the x nodes of live cells
        expected = -2.0 * mass * omega / hbar * grid128.axis
        assert np.max(np.abs(grad_log_rho[bulk, 0] - expected[bulk])) < 1e-6
        assert np.max(np.abs(mass * field.v.real[bulk])) < 1e-10

    def test_mask_flags_low_density(self, grid128):
        psi = zl.init_gaussian(grid128, (0, 0), 1.0, (0, 0))
        field = zl.velocity_field(psi, rho_floor=1e-4)
        r = np.abs(psi.factors[0]) ** 2
        # an axis node with no live cell in its row holds 0
        masked = r * r.max() < field.floor
        assert masked.any() and not masked.all()
        assert np.all(field.v[masked] == 0.0)

    def test_laplacian_ratio_shares_the_spectrum(self, grid128):
        psi = zl.analytic_free_gaussian(grid128, 1.0, (1.0, 0.5), (0, 0), 0.4)
        live_l, ratios_l, rho_l, mask_l = gathered_ratios(psi, 1e-8, laplacian=True)
        live, ratios, rho, mask = gathered_ratios(psi, 1e-8)
        assert [r.shape for r in sch.psi_ratios(psi, 1e-8, laplacian=True)[3]] == [(2, grid128.n)] * 2
        assert ratios_l.shape == (3, live.size) and ratios.shape == (2, live.size)
        assert np.array_equal(ratios_l[:2], ratios) and np.array_equal(mask_l, mask) and np.array_equal(rho_l, rho)
        assert np.array_equal(live_l, live) and np.array_equal(live, np.flatnonzero(~mask))
        assert live.size and mask.any()
        # Lap(Psi)/Psi against one fft2 and ifft2 of psi.values: the 1D
        # second derivatives (two FFTs of n per axis) and the 2D one (two of
        # n^2) each err by at most ETA log2 of their lengths, relative to
        # k_max^2 ||psi||_2, and ||fx||_2 / |fx_i| <= ||psi||_2 / |psi_c|
        k = grid128.wavenumbers
        lap = np.fft.ifft2(-(k[:, None] ** 2 + k[None, :] ** 2) * np.fft.fft2(psi.values))
        psi_c = psi.values.ravel()[live]
        expected = lap.ravel()[live] / psi_c
        e = ETA * (2 * math.log2(grid128.n**2) + 4 * math.log2(grid128.n)) + 4 * U
        bound = e * 2 * float(np.max(k**2)) * np.linalg.norm(psi.values) / np.abs(psi_c) + 4 * U * np.abs(expected)
        assert np.all(np.abs(ratios_l[2] - expected) <= bound)

    def test_spectral_matches_fd4_at_h4(self):
        devs = []
        for n in (128, 256):
            grid = zl.Grid2D(n, 10.0)
            psi = zl.analytic_free_gaussian(grid, 1.0, (1.0, 0.5), (0, 0), 0.4)
            h = grid.spacing
            v = psi.values
            # d/dx psi from the kernel's ratio, on its live cells (a superset of bulk)
            live, ratios, _, _ = gathered_ratios(psi, 1e-4)
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


class TestProductPath:
    """A psi with factors under the free or harmonic potential evolves as its two 1D factors."""

    @pytest.fixture(scope="class")
    def grid64(self):
        return zl.Grid2D(64, 8.0)

    @pytest.mark.parametrize("kind", ["free", "harmonic", "harmonic_heavy"])
    @pytest.mark.parametrize("n_steps", [1, 2, 7])
    def test_matches_unfused_reference(self, grid64, kind, n_steps):
        pot, mass = {
            "free": (zl.free_potential(), 1.0),
            "harmonic": (zl.harmonic_potential(1.0, 1.5), 1.0),
            "harmonic_heavy": (zl.harmonic_potential(1.0, 1.5), 2.5),
        }[kind]
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        psi = zl.Propagator(grid64, pot, 2e-2, hbar=1.0, mass=mass).advance(psi0, n_steps)
        assert np.array_equal(psi.values, np.outer(*psi.factors))
        assert rel_l2(psi.values, reference_split_step(psi0, pot, 2e-2, n_steps, mass=mass)) <= 1e-12

    @pytest.mark.parametrize("kind", ["free", "harmonic"])
    def test_stream_is_advance(self, grid64, kind):
        pot = zl.free_potential() if kind == "free" else zl.harmonic_potential(1.0, 1.5)
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        stream = list(zl.stream_frames(psi0, pot, 2e-2, 21, 3))
        reference = TestFrameStream.chained_advance(psi0, pot, 2e-2, 3, 7)
        assert stream[0].factors[0] is not psi0.factors[0]
        for f, ref in zip(stream, reference):
            assert f.time == ref.time
            assert np.array_equal(f.values, ref.values)
            assert all(np.array_equal(a, b) for a, b in zip(f.factors, ref.factors))

    def test_harmonic_axis_parts_are_the_centre_column_and_row(self, grid64):
        hbar, mass, dt = 0.7, 1.3, 2e-2
        pot = zl.harmonic_potential(0.8, 1.5)
        v = pot.values(grid64, mass)
        c = grid64.n // 2
        assert grid64.axis[c] == 0.0
        prop = zl.Propagator(grid64, pot, dt, hbar, mass)
        assert len(prop._axes) == 2
        for (half, full, _), part in zip(prop._axes, (v[:, c], v[c, :])):
            assert np.array_equal(half, np.exp(-0.5j * dt * part / hbar))
            assert np.array_equal(full, np.exp(-1j * dt * part / hbar))
        isotropic = zl.Propagator(grid64, zl.harmonic_potential(0.8), dt, hbar, mass)
        assert len(isotropic._axes) == 1
        ax, ay = isotropic._cached_for(3)
        assert ax is ay

    def test_product_run_builds_no_2d_operator(self, grid64, monkeypatch, tmp_path):
        pot = zl.harmonic_potential(1.0, 1.5)
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        real_values = sch.Potential.values
        calls = []

        def counted(self, grid, mass):
            calls.append(grid)
            return real_values(self, grid, mass)

        monkeypatch.setattr(sch.Potential, "values", counted)
        frames = list(zl.Propagator(grid64, pot, 2e-2).frames(psi0, 3, 4))
        assert calls == []
        # nor does the summary: <V> sums V's per-axis parts against |fx|^2 and |fy|^2
        sch.frames_summary_csv(tmp_path / "s.csv", frames, pot)
        assert calls == []

    def test_readers_never_fft2_a_product_frame(self, grid64, monkeypatch, tmp_path):
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))

        def refuse(*args, **kwargs):
            raise AssertionError("fft2 of a product frame")

        monkeypatch.setattr(np.fft, "fft2", refuse)
        for pot in (zl.free_potential(), zl.harmonic_potential(1.0, 1.5)):
            frames = list(zl.stream_frames(psi0, pot, 2e-2, 6, 2))
            sch.frames_summary_csv(tmp_path / "s.csv", frames, pot)
            for f in frames:
                zl.velocity_field(f)
                sch.psi_ratios(f, laplacian=True)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestValuesOnDemand:
    """A product frame holds its factors alone; values is built at its first read and kept."""

    @pytest.fixture(scope="class")
    def grid64(self):
        return zl.Grid2D(64, 8.0)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The frames whose values are built, one entry per build."""
        built = []
        build = sch.WaveFunction.values.func
        counted = functools.cached_property(lambda self: built.append(self) or build(self))
        counted.__set_name__(sch.WaveFunction, "values")
        monkeypatch.setattr(sch.WaveFunction, "values", counted)
        return built

    def test_product_streams_hold_no_values(self, grid64, builds, tmp_path):
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        streams = {}
        for kind, pot in (("free", zl.free_potential()), ("harmonic", zl.harmonic_potential(1.0, 1.5))):
            held = streams[kind] = []
            stream = zl.stream_frames(psi0, pot, 1e-3, 200, 5)
            sch.frames_summary_csv(tmp_path / f"{kind}.csv", (held.append(f) or f for f in stream), pot)
        free = streams["free"]
        assert zl.ensemble_equivariance(free, 1000, 3).failures == 0
        params = [zl.PhysParams(epsilon=eps) for eps in (4e-3, 2e-3)]
        zl.guide_processes([zl.velocity_field(f) for f in free], params, zl.Permutation(), (0.5, -0.5), free[-1].time)
        assert builds == []
        frames = [psi0, *free, *streams["harmonic"]]
        assert len(frames) == 83 and all("values" not in vars(f) for f in frames)

    @pytest.mark.parametrize("kind", ["free", "harmonic"])
    def test_first_read_is_the_outer_product(self, grid64, builds, kind):
        pot = zl.free_potential() if kind == "free" else zl.harmonic_potential(1.0, 1.5)
        psi0 = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        for f in zl.stream_frames(psi0, pot, 2e-2, 6, 2):
            values = f.values
            assert np.array_equal(bits(values), bits(np.outer(*f.factors)))
            assert vars(f)["values"] is values and f.values is values
        assert len(builds) == 4

    def test_copy_holds_only_factors(self, grid64, builds):
        psi = zl.init_gaussian(grid64, (0.5, -0.5), 1.0, (1.0, 0.5))
        values = psi.values
        copy = psi.copy()
        assert "values" not in vars(copy) and len(builds) == 1
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(copy.factors, psi.factors))
        assert copy.time == psi.time and np.array_equal(bits(copy.values), bits(values))

    def test_eq_is_identity_and_repr_reads_no_array(self):
        psi = zl.init_gaussian(zl.Grid2D(64, 8.0), (0, 0), 1.0, (0, 0))
        for f in (psi, psi.copy()):
            assert f == f and not f == f.copy() and f != f.copy()
            assert repr(f) == "WaveFunction(grid=Grid2D(n=64, half_width=8.0), time=0.0)"
        assert "values" not in vars(psi)

    def test_a_frame_takes_two_axis_factors(self, grid64):
        f = np.ones(64, dtype=complex)
        for factors in (np.ones((64, 64), dtype=complex), (f, f[:32]), (f, f, f), (f, np.ones((64, 1)))):
            with pytest.raises(ValueError, match="two \\(64,\\) arrays"):
                sch.WaveFunction(grid64, factors)


class TestNormGuard:
    """The solver checks every frame's norm against frame 0's, within _norm_bound."""

    STRIDE = 4

    @pytest.mark.parametrize("kind, growth", [("free", 4), ("harmonic", 4 * STRIDE)])
    def test_fires_at_the_first_frame_past_the_bound(self, monkeypatch, kind, growth):
        # A kinetic phase of modulus 1 + d scales frame k's squared norm by
        # (1 + d)^(growth k): the free path applies the stride's phase once
        # per frame on each factor (|fx^|^2 |fy^|^2 by (1 + d)^4), and the
        # harmonic path's per-axis operators hold the 1D phase once per step
        # on each axis.  d is set so the drift crosses the bound at k = 2.5;
        # then frames 0..2 pass and frame 3 raises.
        grid = zl.Grid2D(64, 8.0)
        pot = zl.free_potential() if kind == "free" else zl.harmonic_potential(1.0)
        psi0 = zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.0, 0.5))

        def bound(k):
            return sch._norm_bound(grid.n, k * self.STRIDE)

        scale = 1.0 + math.expm1(math.log1p(bound(2.5)) / (2.5 * growth))

        def drift(k):
            return math.expm1(growth * k * math.log1p(scale - 1.0))

        # the measured norm is off the modelled one by roundoff, ~1e-15
        assert drift(2) < 0.95 * bound(2) and drift(3) > 1.05 * bound(3)
        real_phase = sch._kinetic_phase
        monkeypatch.setattr(sch, "_kinetic_phase", lambda s, k2: scale * real_phase(s, k2))
        stream = zl.stream_frames(psi0, pot, 1e-2, 6 * self.STRIDE, self.STRIDE)
        [next(stream) for _ in range(3)]
        with pytest.raises(zl.ResolutionLoss, match="norm moved"):
            next(stream)

    def test_bound_covers_the_default_runs(self):
        # the largest drift measured over the default wave scenarios is 2.6e-15
        assert sch._norm_bound(128, 1) > 2.6e-15
        assert sch._norm_bound(256, 1000) < 1e-9


U = np.finfo(float).eps / 2
ETA = 7 * U  # Higham Thm 24.2: a radix-2 FFT's relative L2 error is at most ETA log2 N


def gamma(m):
    """Higham's gamma_m = m u / (1 - m u), the relative error bound of m roundings."""
    return m * U / (1 - m * U)


def plain_ratios(grid, values, live):
    """(d/dx psi, d/dy psi)/psi of values (n, n) at the flat cells live: one
    fft2, then one ifft2 per component."""
    k = grid.wavenumbers
    spectrum = np.fft.fft2(values)
    grads = [np.fft.ifft2(1j * kk * spectrum).ravel()[live] for kk in (k[:, None], k[None, :])]
    return np.array(grads) / values.ravel()[live]


def plain_row(grid, values, pot, hbar, mass):
    """[norm, energy, x_mean, y_mean, sigma_x, sigma_y] of values (n, n)
    from their definitions: the kinetic energy summed over |fft2(values)|^2
    in k-space, the moments over the density's two axis marginals."""
    rho = np.abs(values) ** 2
    k2 = grid.wavenumbers**2
    kinetic = 0.5 * hbar * hbar * (k2[:, None] + k2[None, :]) / mass
    e_kin = np.sum(kinetic * np.abs(np.fft.fft2(values)) ** 2) / grid.n**2
    energy = (e_kin + np.sum(pot.values(grid, mass) * rho)) * grid.cell_area()
    means, sigmas = [], []
    for p in (rho.sum(axis=1), rho.sum(axis=0)):
        p = p / p.sum()
        means.append(float(np.dot(p, grid.axis)))
        sigmas.append(float(np.sqrt(np.dot(p, (grid.axis - means[-1]) ** 2))))
    return [math.sqrt(float(np.sum(rho)) * grid.cell_area()), float(energy), *means, *sigmas]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(["free", "harmonic"]),
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    k0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    sigma0=st.floats(0.8, 1.2),
    hbar=st.floats(0.5, 2.0),
    mass=st.floats(0.5, 2.0),
)
def test_product_path_matches_the_plain_2d_reference(tmp_path_factory, kind, center, k0, sigma0, hbar, mass):
    """Frames, psi_ratios and summary rows of the product path against plain
    2D numpy on the values: reference_split_step from psi0, plain_ratios and
    plain_row.

    First order in the unit roundoff u, with relative L2 errors and
    unitary (to O(u)) steps that carry an error forward without growth; the
    errors of the two sides add.  Each FFT adds at most ETA log2 of its
    length, and each multiply by a computed phase exp(-i theta) adds
    p = 4u + 3u theta_max (its rounding, and the argument's relative
    rounding times the largest argument).
    - The reference: k stride steps from psi0.values for frame k, each an
      FFT pair of n^2 points and three phases (two half kicks, exactly 1
      under the free potential, and the 2D kinetic phase).
    - Free, the product path: per frame an FFT pair of n and one phase on
      each axis.
    - Harmonic, the product path: per axis f A with the per-axis operator A,
      an inverse 1D FFT and the half kick.  An n-term complex product errs
      by at most gamma_{n+2} |A| |f| (Higham, Sec. 3.6), and
      || |A| ||_2 <= ||A||_F = sqrt n ||A||_2 for a scaled unitary A, so by
      gamma_{n+2} sqrt n.  _axis_operator builds A on the rows of the
      identity.  In the Frobenius norm, relative, each row FFT adds ETA
      log2 n, each phase p, and each matrix product of scaled unitaries X, Y
      gamma_{n+2} sqrt n, since || |X| |Y| ||_F <= ||X||_F ||Y||_F =
      sqrt n ||XY||_F.  The step S (two FFTs, two phases) is raised to
      stride - 1 = 2 by one product, and S^m carries m times S's error;
      then come a half kick, an FFT and a kinetic phase.  In the 2-norm A
      errs by sqrt n times that, as ||A||_F = sqrt n ||A||_2.
    So frame k's values differ by at most e_k = u + k (e + stride e_ref)
    relative, u for the rounding of np.outer(fx, fy).  A ratio d/psi at a
    live cell c moves by (|dd| + |r| |dpsi|) / |psi_c|, with |dpsi| <= e_k
    ||psi|| and |dd| <= (e_k + e_d) k_max ||psi||, e_d the derivative
    kernels' own FFT error.  A summary row's density moves by at most
    drho = 2 e' + e'^2 + 2 gamma_N in l1 relative, e' = e_k + ETA log2 N, so
    the norm by drho, the energy by (w_max + V_max) drho, the means by
    3 L drho and the widths by (4 L^2 3 drho + 4 L dmean) / sigma.
    """
    grid = zl.Grid2D(128, 10.0)
    n, N, L = grid.n, grid.n**2, grid.half_width
    stride, dt, n_frames = 3, 1e-2, 5
    pot = zl.free_potential() if kind == "free" else zl.harmonic_potential(1.0, 1.5)
    psi0 = zl.init_gaussian(grid, center, sigma0, k0)
    product = list(zl.stream_frames(psi0, pot, dt, n_frames * stride, stride, hbar, mass))
    plain = [reference_split_step(psi0, pot, dt, k * stride, hbar, mass) for k in range(n_frames + 1)]

    k_max = float(np.max(np.abs(grid.wavenumbers)))
    v_max = float(np.max(pot.values(grid, mass)))
    # the largest argument of a per-step phase of the reference: the 2D kinetic phase, the half kick
    p_ref = 4 * U + 3 * U * (hbar / mass * dt * k_max**2 + 0.5 * dt * v_max / hbar)
    e_ref = 2 * ETA * math.log2(N) + 3 * p_ref
    if kind == "free":
        p = 4 * U + 3 * U * (0.5 * hbar / mass * stride * dt * 2 * k_max**2)
        e = 4 * ETA * math.log2(n) + 2 * p
    else:
        # the largest argument of a per-step phase: the 2D kinetic phase, the full kick
        p = 4 * U + 3 * U * (hbar / mass * dt * k_max**2 + dt * v_max / hbar)
        g = gamma(n + 2) * math.sqrt(n)
        s_err = 2 * ETA * math.log2(n) + 2 * p
        a_err = (stride - 1) * s_err + g + ETA * math.log2(n) + 2 * p
        e = 2 * (math.sqrt(n) * a_err + g + ETA * math.log2(n) + p)
    e_d = ETA * (2 * math.log2(N) + 4 * math.log2(n)) + 2 * U

    _, rows = sch.frames_summary_csv(tmp_path_factory.mktemp("s") / "s.csv", product, pot, hbar, mass)
    w_max = 0.5 * hbar * hbar * 2 * k_max**2 / mass
    for k, (a, b) in enumerate(zip(product, plain)):
        e_k = U + k * (e + stride * e_ref)
        norm = float(np.linalg.norm(b))
        assert np.linalg.norm(a.values - b) <= e_k * norm

        live_a, ra, _, _ = gathered_ratios(a, 1e-8)
        rho_b = np.abs(b.ravel()) ** 2
        live_b = np.flatnonzero(rho_b >= 1e-8 * rho_b.max())
        both, ia, ib = np.intersect1d(live_a, live_b, return_indices=True)
        assert both.size > 0.9 * max(live_a.size, live_b.size)
        psi_c = np.abs(b.ravel()[both])
        rb = plain_ratios(grid, b, both)
        r = np.abs(rb)
        bound = ((e_k + e_d) * k_max + r * e_k) * norm / psi_c + 2 * U * r
        assert np.all(np.abs(ra[:, ia] - rb) <= bound)

        e1 = e_k + ETA * math.log2(N)
        drho = 2 * e1 + e1 * e1 + 2 * gamma(N)
        _, na, ea, *ma = rows[k]
        nb, eb, *mb = plain_row(grid, b, pot, hbar, mass)
        assert abs(na - nb) <= drho
        assert abs(ea - eb) <= (w_max + v_max) * drho
        dmean = 3 * L * drho
        assert all(abs(x - y) <= dmean for x, y in zip(ma[:2], mb[:2]))
        assert all(abs(x - y) <= (4 * L * L * 3 * drho + 4 * L * dmean) / y for x, y in zip(ma[2:], mb[2:]))
