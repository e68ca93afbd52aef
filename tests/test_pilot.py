"""Guiding velocity fields, Bohmian trajectories, guided process, ensembles."""

import dataclasses
import hashlib
import inspect
import math
import os
import re
import sys
import threading
import time
import weakref
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import zitterlab as zl
from zitterlab import pilot, schrodinger
from zitterlab.cli import parse_config
from zitterlab.scenarios import run_scenario


def field_workers():
    return [t for t in threading.enumerate() if t.name == "zitterlab-fields"]


@pytest.fixture(scope="module")
def grid():
    return zl.Grid2D(128, 10.0)


@pytest.fixture(scope="module")
def free_frames(grid):
    """Solver frames of a spreading packet, sigma0 = 1, T = 1."""
    psi0 = zl.init_gaussian(grid, (0, 0), 1.0, (0, 0))
    return zl.evolve_frames(psi0, zl.free_potential(), 1e-3, 1000, 5)


@pytest.fixture(scope="module")
def free_fields(free_frames):
    return [zl.velocity_field(f) for f in free_frames]


@pytest.fixture(scope="module")
def ground_fields(grid):
    """Stationary-state fields over one oscillator period (analytic frames)."""
    ground = zl.harmonic_ground_state(grid, 1.0)
    times = np.linspace(0.0, 2 * math.pi, 51)
    frames = [
        zl.WaveFunction(grid, ground.values * np.exp(-1j * t), float(t)) for t in times
    ]
    return [zl.velocity_field(f) for f in frames]


def spreading_width(t, sigma0=1.0):
    return sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)


class TestVelocityField:
    def test_spreading_packet_drift_profile(self, grid):
        # radial Bohmian velocity x * s'(t)/s(t) of the self-similar packet
        t = 0.8
        psi = zl.analytic_free_gaussian(grid, 1.0, (0, 0), (0, 0), t)
        field = zl.velocity_field(psi)
        g_t = (t / 4.0) / (1.0 + t * t / 4.0)
        X, Y = grid.mesh()
        bulk = psi.density() > 1e-4 * psi.density().max()
        assert np.max(np.abs(field.v[..., 0].real - g_t * X)[bulk]) < 1e-8
        assert np.max(np.abs(field.v[..., 1].real - g_t * Y)[bulk]) < 1e-8

    def test_real_ground_state_is_osmotic_only(self, grid):
        omega = 1.0
        psi = zl.harmonic_ground_state(grid, omega)
        field = zl.velocity_field(psi, rho_floor=1e-6)
        X, Y = grid.mesh()
        bulk = ~field.node_mask
        assert np.max(np.abs(field.v[..., 0].real[bulk])) < 1e-10
        # Im V = -(hbar/2m) grad log rho = omega * x per axis
        assert np.max(np.abs(field.v[..., 0].imag - omega * X)[bulk]) < 1e-6

    def test_action_decomposition_identity(self, grid):
        # m V = grad S - i (hbar/2) grad log rho with grad S = hbar Im(grad Psi/Psi)
        # and grad log rho = 2 Re(grad Psi/Psi) on the live cells
        psi = zl.analytic_free_gaussian(grid, 1.0, (0.5, -0.2), (0, 0), 0.5)
        hbar, mass = 1.0, 2.0
        field = zl.velocity_field(psi, hbar=hbar, mass=mass)
        live, ratios, _, mask = schrodinger.psi_ratios(psi)
        assert np.array_equal(mask, field.node_mask)
        lhs = mass * field.v.reshape(-1, 2)[live].T
        rhs = hbar * ratios.imag - 0.5j * hbar * (2.0 * ratios.real)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def plain_gradient(grid, values):
    """(n, n, 2) spectral gradient of values: one fft2, then one np.fft.ifft2 per component."""
    k = grid.wavenumbers
    spectrum = np.fft.fft2(values)
    return np.stack([np.fft.ifft2(1j * k[:, None] * spectrum), np.fft.ifft2(1j * k[None, :] * spectrum)], axis=-1)


def ratio_re_field(psi, hbar=1.0, mass=1.0, rho_floor=schrodinger.DEFAULT_RHO_FLOOR):
    """The Re V field from plain numpy: an fft2 of psi, one ifft2 per
    component and a complex divide.  The oracle for the field kernel."""
    rho = np.abs(psi.values) ** 2
    mask = rho < rho_floor * float(rho.max())
    ratio = plain_gradient(psi.grid, psi.values) / np.where(mask, 1.0, psi.values)[..., None]
    ratio[mask] = 0.0
    v = -1j * (hbar / mass) * ratio
    return pilot.VelocityField(psi.grid, np.ascontiguousarray(v.real), mask, psi.time)


class TestFieldKernel:
    """velocity_field against the plain-numpy ratio oracle."""

    EPS = np.finfo(float).eps

    @pytest.fixture(scope="class")
    def stream(self, grid):
        psi0 = zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.5, 0.5))
        return list(zl.stream_frames(psi0, zl.free_potential(), 1e-3, 600, 60))

    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 2.5)])
    def test_matches_ratio_oracle(self, stream, hbar, mass):
        # Both sides take the same spectral gradient g of the same psi.  Each
        # then rounds at most eight times in quantities bounded by |g|/|psi|
        # on the way to V (the oracle's complex divide and -i hbar/m scaling;
        # conj(psi) g, |psi|^2, the divide and the hbar/m scaling here), so
        # per component |V - V_oracle| <= 16 eps (hbar/m) |g|/|psi|.
        for f in stream:
            plain = zl.WaveFunction(f.grid, f.values, f.time)
            oracle = ratio_re_field(plain, hbar, mass)
            fld = zl.velocity_field(plain, hbar, mass, real=True)
            assert np.array_equal(fld.node_mask, oracle.node_mask)
            live = ~fld.node_mask
            g = np.abs(plain_gradient(f.grid, f.values))[live]
            bound = 16 * self.EPS * (hbar / mass) * g / np.abs(f.values[live])[:, None]
            assert np.all(np.abs(fld.v[live] - oracle.v[live]) <= bound)
            assert np.all(fld.v[~live] == 0.0)

    def test_held_spectrum_within_its_roundoff(self, stream):
        # With the stream's held spectrum S in place of fft2(psi), the
        # gradient moves by the inverse transform of D = S - fft2(psi) plus
        # the FFT roundoff of each side; per cell both are bounded by
        # k_max / n^2 times the l1 norm of what is transformed.
        grid = stream[0].grid
        n, k_max = grid.n, float(np.max(np.abs(grid.wavenumbers)))
        for f in stream:
            assert f.spectrum is not None
            plain = zl.WaveFunction(f.grid, f.values, f.time)
            fld, oracle = zl.velocity_field(f, real=True), ratio_re_field(plain)
            assert np.array_equal(fld.node_mask, oracle.node_mask)
            live = ~fld.node_mask
            d1 = np.abs(f.spectrum - np.fft.fft2(f.values)).sum()
            fft_roundoff = 2 * self.EPS * math.log2(n * n) * np.abs(f.spectrum).sum()
            g = np.abs(plain_gradient(grid, f.values))[live]
            a = np.abs(f.values[live])[:, None]
            bound = 16 * self.EPS * g / a + k_max * (d1 + fft_roundoff) / n**2 / a
            assert np.all(np.abs(fld.v[live] - oracle.v[live]) <= bound)

    def test_real_field_is_the_real_part(self, stream):
        for f in stream[:3]:
            full, real = zl.velocity_field(f, 0.7, 2.5), zl.velocity_field(f, 0.7, 2.5, real=True)
            assert real.v.dtype == float and full.v.dtype == complex
            assert np.array_equal(real.v, full.v.real)

    def test_cell_mask_dilates_the_node_mask(self, grid):
        mask = np.zeros((grid.n, grid.n), dtype=bool)
        mask[5, 7] = mask[0, 0] = True
        cells = pilot.VelocityField(grid, np.zeros((grid.n, grid.n, 2)), mask, 0.0).cell_mask
        # a node is a corner of the cells (i - 1 | i, j - 1 | j), wrapping at 0
        expected = np.zeros_like(mask)
        for i, j in ((5, 7), (0, 0)):
            for di in (-1, 0):
                for dj in (-1, 0):
                    expected[(i + di) % grid.n, (j + dj) % grid.n] = True
        assert np.array_equal(cells, expected)


def synthetic_field(grid, vx_node=None):
    """Constant-zero field with one node's Re Vx set, for interpolation tests."""
    v = np.zeros((grid.n, grid.n, 2), dtype=complex)
    mask = np.zeros((grid.n, grid.n), dtype=bool)
    if vx_node is not None:
        (i, j), value = vx_node
        v[i, j, 0] = value
    return pilot.VelocityField(grid, v, mask, 0.0)


class TestBohmVelocityAt:
    def test_exact_node_query(self, free_fields, grid):
        field = free_fields[100]
        i, j = 70, 64
        x = (grid.axis[i], grid.axis[j])
        np.testing.assert_allclose(zl.bohm_velocity_at(field, x), field.v[i, j].real, atol=1e-14)

    def test_bilinear_midpoint(self, grid):
        field = synthetic_field(grid, vx_node=((64, 64), 1.0))
        x_mid = (grid.axis[64] + grid.spacing / 2, grid.axis[64])
        np.testing.assert_allclose(zl.bohm_velocity_at(field, x_mid), [0.5, 0.0], atol=1e-14)

    def test_node_region_raises(self, grid):
        field = synthetic_field(grid)
        field.node_mask[80, 80] = True
        probe = (grid.axis[80] - 0.3 * grid.spacing, grid.axis[80])
        with pytest.raises(zl.NodeRegion):
            zl.bohm_velocity_at(field, probe)

    def test_outside_box_raises(self, grid):
        field = synthetic_field(grid)
        with pytest.raises(zl.LeftDomain):
            zl.bohm_velocity_at(field, (10.5, 0.0))


def bilinear_oracle(fld, pts):
    """The direct four-corner formula the shared stencil kernel replaced."""
    grid = fld.grid
    n, h, L = grid.n, grid.spacing, grid.half_width
    inside = np.all((pts >= -L) & (pts < L), axis=1)
    fx = (pts[:, 0] + L) / h
    fy = (pts[:, 1] + L) / h
    i0 = np.floor(fx).astype(np.int64)
    j0 = np.floor(fy).astype(np.int64)
    tx = (fx - i0)[:, None]
    ty = (fy - j0)[:, None]
    i0 = np.clip(i0, 0, n - 1)
    j0 = np.clip(j0, 0, n - 1)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    m = fld.node_mask
    ok = inside & ~(m[i0, j0] | m[i1, j0] | m[i0, j1] | m[i1, j1])
    v = fld.v
    vals = (
        (1 - tx) * (1 - ty) * v[i0, j0]
        + tx * (1 - ty) * v[i1, j0]
        + (1 - tx) * ty * v[i0, j1]
        + tx * ty * v[i1, j1]
    )
    return vals, ok


class WholeListInterpolator:
    """The bracket a forward-reading FrameInterpolator must reproduce: a
    searchsorted over every frame's time, then pilot's stencil and gathers."""

    def __init__(self, fields):
        self.fields = list(fields)
        self.times = np.array([f.time for f in self.fields])
        self.grid = self.fields[0].grid
        self.t0 = float(self.times[0])

    def complex_at(self, t, pts):
        i = min(max(int(np.searchsorted(self.times, t, side="right")) - 1, 0), len(self.fields) - 2)
        t0, t1 = float(self.times[i]), float(self.times[i + 1])
        a = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        idx, w, inside = pilot._stencil(self.grid, pts)
        v0, masked = pilot._gather(self.fields[i], idx, w)
        if a == 0.0:
            return v0, inside & ~masked
        v1, masked1 = pilot._gather(self.fields[i + 1], idx, w)
        return (1.0 - a) * v0 + a * v1, inside & ~(masked | masked1)

    def real_at(self, t, pts):
        vals, ok = self.complex_at(t, pts)
        return vals.real, ok


def ulp_retimed(free_frames, dt=0.005, count=60):
    """The first count frames, frame k at k dt, except where (k - 1) dt + dt,
    the time at which RK4 step k - 1 ends, rounds above k dt, the time at
    which step k starts: there the frame sits at the end of step k - 1, so
    step k starts an ulp before it and needs frame k - 1 again."""
    times = [(k - 1) * dt + dt if k and (k - 1) * dt + dt > k * dt else k * dt for k in range(count)]
    assert sum(t != k * dt for k, t in enumerate(times)) >= 5
    return [zl.WaveFunction(f.grid, f.values, t) for f, t in zip(free_frames, times)]


def kernel_probe_points(grid, m, rng):
    """m points: random ones plus the wrap row and column (i0 = n - 1), cells
    next to masked nodes, and points outside the box."""
    L, h = grid.half_width, grid.spacing
    pts = rng.uniform(-L, L, size=(m, 2))
    special = np.array(
        [
            [L - 0.3 * h, 0.1],  # wrap row: i1 = 0
            [0.2, L - 0.7 * h],  # wrap column: j1 = 0
            [L - 0.5 * h, L - 0.5 * h],  # wrap corner
            [grid.axis[40] + 0.4 * h, grid.axis[17] + 0.6 * h],  # next to a masked node
            [grid.axis[41], grid.axis[18]],  # on the masked node itself
            [L + 0.1, 0.0],  # outside the box
            [-L - 1e-9, -L],  # just below the lower edge
            [0.0, L],  # on the open upper edge
        ]
    )
    pts[: min(m, len(special))] = special[:m]
    return pts


@pytest.fixture
def array_kernel(monkeypatch):
    """The calls of pilot._stencil, the batch stencil, from now on."""
    calls = []
    stencil = pilot._stencil
    monkeypatch.setattr(pilot, "_stencil", lambda *args: calls.append(args) or stencil(*args))
    return calls


class TestTransportKernel:
    """The stencil/gather kernel reproduces the four-corner formula."""

    @pytest.fixture(scope="class")
    def masked_field(self):
        grid = zl.Grid2D(64, 8.0)
        rng = np.random.default_rng(3)
        v = rng.normal(size=(64, 64, 2)) + 1j * rng.normal(size=(64, 64, 2))
        mask = np.zeros((64, 64), dtype=bool)
        mask[41, 18] = True
        mask[63, 5] = True
        mask[10, 63] = True
        return pilot.VelocityField(grid, v, mask, 0.0)

    @pytest.mark.parametrize("m", [1, 1000])
    @pytest.mark.parametrize("real", [False, True])
    def test_matches_four_corner_oracle(self, masked_field, m, real):
        fld = masked_field
        if real:
            fld = pilot.VelocityField(fld.grid, np.ascontiguousarray(fld.v.real), fld.node_mask, 0.0)
        pts = kernel_probe_points(fld.grid, m, np.random.default_rng(m))  # m = 1: a wrap-row point
        expected, ok_expected = bilinear_oracle(fld, pts)
        idx, w, inside = pilot._stencil(fld.grid, pts)
        vals, masked = pilot._gather(fld, idx, w)
        assert vals.dtype == fld.v.dtype
        # same products summed in the same order: equal, not merely within 1e-14
        np.testing.assert_array_equal(vals, expected)
        assert np.array_equal(inside & ~masked, ok_expected)
        interp_vals, interp_ok = pilot.FrameInterpolator([fld]).complex_at(0.0, pts)
        np.testing.assert_array_equal(interp_vals, expected)
        assert np.array_equal(interp_ok, ok_expected)

    def test_probe_points_cover_every_case(self, masked_field):
        grid = masked_field.grid
        L = grid.half_width
        pts = kernel_probe_points(grid, 1000, np.random.default_rng(1000))
        _, ok = bilinear_oracle(masked_field, pts)
        i0 = np.floor((pts + L) / grid.spacing).astype(int)
        inside = np.all((pts >= -L) & (pts < L), axis=1)
        assert np.any(inside & (i0[:, 0] == grid.n - 1)) and np.any(inside & (i0[:, 1] == grid.n - 1))
        assert np.any(~inside)
        assert np.any(inside & ~ok)  # masked corners

    def test_two_frames_match_oracle_blend(self, masked_field):
        fld = masked_field
        later_mask = np.zeros_like(fld.node_mask)
        later_mask[30, 30] = True
        later = pilot.VelocityField(fld.grid, 2.0 * fld.v[::-1].copy(), later_mask, 0.1)
        interp = pilot.FrameInterpolator([fld, later])
        pts = kernel_probe_points(fld.grid, 1000, np.random.default_rng(5))
        pts[9] = (fld.grid.axis[30] + 0.5 * fld.grid.spacing, fld.grid.axis[30])
        v0, ok0 = bilinear_oracle(fld, pts)
        v1, ok1 = bilinear_oracle(later, pts)
        vals, ok = interp.complex_at(0.025, pts)
        np.testing.assert_array_equal(vals, 0.75 * v0 + 0.25 * v1)
        assert np.array_equal(ok, ok0 & ok1)
        assert not ok[9]

    @staticmethod
    def signed_zeros(fld):
        """fld with four blocks of v set to the four complex zeros, where sums
        of zero products show the sign rules of the arithmetic."""
        v = fld.v.copy()
        zeros = (complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.0, 0.0))
        for k, z in enumerate(zeros):
            v[5 + 12 * k : 17 + 12 * k, 3:30, k % 2] = z
        return pilot.VelocityField(fld.grid, v, fld.node_mask, fld.time)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["random", "signed_zeros"])
    @pytest.mark.parametrize("t", [None, 0.0, 0.025, 0.1], ids=["one_frame", "a0", "a_quarter", "a1"])
    def test_one_point_equals_its_batch_row_bit_for_bit(self, masked_field, array_kernel, real, zeros, t):
        later_mask = np.zeros_like(masked_field.node_mask)
        later_mask[30, 30] = True
        frames = [masked_field, pilot.VelocityField(masked_field.grid, 2.0 * masked_field.v[::-1], later_mask, 0.1)]
        if zeros:
            frames = [self.signed_zeros(f) for f in frames]
        if real:
            frames = [pilot.VelocityField(f.grid, np.ascontiguousarray(f.v.real), f.node_mask, f.time) for f in frames]
        interp = pilot.FrameInterpolator(frames[:1] if t is None else frames)
        t = 0.0 if t is None else t
        pts = kernel_probe_points(masked_field.grid, 1000, np.random.default_rng(8))
        vals, ok = interp.complex_at(t, pts)
        if zeros:  # the batch holds zeros of both signs
            parts = vals.view(float)
            assert np.any((parts == 0) & np.signbit(parts)) and np.any((parts == 0) & ~np.signbit(parts))
        array_kernel.clear()
        for k, (x, y) in enumerate(pts.tolist()):
            vx, vy, one_ok = interp.point_at(t, x, y)
            assert {type(vx), type(vy)} == {complex if vals.dtype.kind == "c" else float} and type(one_ok) is bool
            one = np.array([[vx, vy]])
            assert one.shape == (1, 2) and one.dtype == vals.dtype
            # uint64 views: assert_array_equal holds -0 and +0 equal
            assert np.array_equal(one.view(np.uint64), vals[k : k + 1].view(np.uint64)), k
            assert one_ok == ok[k], k
        assert not array_kernel  # every one-point query took the scalar path

    @pytest.mark.parametrize("point", [(math.nan, 0.1), (0.2, math.inf), (-math.inf, math.nan), (1e300, 0.0)])
    def test_non_finite_point_reads_what_the_array_kernel_reads(self, masked_field, point):
        later = pilot.VelocityField(masked_field.grid, 2.0 * masked_field.v[::-1], masked_field.node_mask, 0.1)
        with np.errstate(invalid="ignore"):  # the int64 cast of a NaN or far cell
            vx, vy, ok = pilot.FrameInterpolator([masked_field, later]).point_at(0.025, *point)
            expected, expected_ok = WholeListInterpolator([masked_field, later]).complex_at(0.025, np.array([point]))
        assert np.array_equal(np.array([[vx, vy]]).view(np.uint64), expected.view(np.uint64))
        assert not ok and not expected_ok[0]

    def test_guided_run_reads_one_point_in_scalars(self, tmp_path, monkeypatch, array_kernel):
        def digests(result):
            return [hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in result.files]

        cfg = parse_config(
            "scenario = guided_process\nn_grid = 64\nbox_half_width = 8\nT = 0.2\nguided_epsilons = 4e-3, 2e-3, 1e-3\n"
        )
        scalar = run_scenario(cfg, tmp_path / "scalar")
        assert not array_kernel
        # every one-point query through the array kernel writes the same bytes
        monkeypatch.setattr(pilot, "_point_stencil", lambda *args: None)
        array = run_scenario(cfg, tmp_path / "array")
        assert len(array_kernel) > 1000
        assert [os.path.basename(p) for p in scalar.files] == ["guided_centers.csv", "guided_process.json"]
        assert digests(scalar) == digests(array)

    def test_real_transport_gives_the_same_report(self, free_frames, monkeypatch):
        real = zl.ensemble_equivariance(free_frames, 2000, 21)
        # hand the transport the full complex fields instead of Re V only
        complex_field = pilot.velocity_field
        monkeypatch.setattr(pilot, "velocity_field", lambda *args, real: complex_field(*args))
        full = zl.ensemble_equivariance(free_frames, 2000, 21)
        assert full.tv_distance == real.tv_distance
        assert full.failures == real.failures
        assert np.array_equal(full.empirical, real.empirical)


class TestIntegrateTrajectory:
    def test_ground_state_is_stationary(self, ground_fields):
        traj = zl.integrate_trajectory(ground_fields, (0.5, -0.3), dt=2 * math.pi / 50)
        drift = np.max(np.linalg.norm(traj.positions - traj.positions[0], axis=1))
        assert drift < 1e-8

    def test_self_similar_spreading_law(self, free_fields):
        x0 = (1.0, 0.0)
        traj = zl.integrate_trajectory(free_fields, x0, dt=5e-3)
        exact = np.array([[spreading_width(t) * x0[0], 0.0] for t in traj.times])
        rel = np.max(
            np.linalg.norm(traj.positions - exact, axis=1) / np.linalg.norm(exact, axis=1)
        )
        assert rel < 1e-4
        assert np.all(np.diff(traj.times) > 0)

    def test_coherent_center_follows_classical_path(self, grid):
        # packet center obeys x'' = -omega^2 x; trajectory keeps the offset
        # from the center fixed (shape-preserving oscillation)
        omega = 1.0
        psi0 = zl.init_gaussian(grid, (2.0, 0.0), math.sqrt(0.5 / omega), (0, 0))
        n_steps = 3100
        dt = 2 * math.pi / omega / n_steps
        frames = zl.evolve_frames(psi0, zl.harmonic_potential(omega), dt, n_steps, 20)
        fields = [zl.velocity_field(f) for f in frames]
        traj = zl.integrate_trajectory(fields, (2.0, 0.0), dt=20 * dt)
        classical = np.array([[2.0 * math.cos(omega * t), 0.0] for t in traj.times])
        assert np.max(np.linalg.norm(traj.positions - classical, axis=1)) < 1e-3

    def test_dt_larger_than_frame_spacing_rejected(self, free_fields):
        with pytest.raises(ValueError):
            zl.integrate_trajectory(free_fields, (0.5, 0.0), dt=0.1)


class TestFrameSpan:
    """Queries past the frames raise instead of holding the last frame."""

    @pytest.fixture(scope="class")
    def short_fields(self):
        grid = zl.Grid2D(64, 8.0)
        psi0 = zl.init_gaussian(grid, (0, 0), 1.0, (0, 0))
        frames = zl.evolve_frames(psi0, zl.free_potential(), 1e-2, 20, 5)  # t = 0, 0.05, ..., 0.2
        return [zl.velocity_field(f) for f in frames]

    def test_trajectory_past_last_frame_rejected(self, short_fields):
        with pytest.raises(ValueError, match="past the last frame") as err:
            zl.integrate_trajectory(short_fields, (0.5, 0.0), dt=0.05, T=5.0)
        assert err.type is zl.InvalidInput

    def test_guided_process_past_last_frame_rejected(self, short_fields):
        with pytest.raises(ValueError, match="past the last frame") as err:
            zl.guide_process(short_fields, zl.PhysParams(epsilon=0.01), zl.Permutation(), (0.5, 0.0), 1.0)
        assert err.type is zl.InvalidInput

    def test_query_outside_span_rejected(self, short_fields):
        interp = pilot.FrameInterpolator(short_fields)
        pts = np.array([[0.5, 0.0]])
        for t in (-0.01, 0.2 + 1e-6, 5.0):
            with pytest.raises(ValueError, match="outside the frame span") as err:
                interp.complex_at(t, pts)
            assert err.type is zl.InvalidInput
        # roundoff past either end is still served by the end frame
        for t, frame in ((-1e-13, short_fields[0]), (0.2 + 1e-13, short_fields[-1])):
            vals, ok = interp.complex_at(t, pts)
            assert ok[0]
            np.testing.assert_array_equal(vals, pilot.FrameInterpolator([frame]).complex_at(frame.time, pts)[0])

    def test_query_before_the_window_rejected(self, short_fields):
        interp = pilot.FrameInterpolator(iter(short_fields))
        pts = np.array([[0.5, 0.0]])
        interp.complex_at(0.175, pts)  # brackets t = 0.15 | 0.2, so t = 0 and 0.05 are dropped
        assert len(interp.frames) == 3
        interp.complex_at(0.12, pts)  # the frame preceding the bracket is still held
        with pytest.raises(ValueError, match="reads forward") as err:
            interp.complex_at(0.01, pts)
        assert err.type is zl.InvalidInput

    def test_empty_or_unordered_stream_rejected(self, short_fields):
        with pytest.raises(zl.InvalidInput, match="at least one frame"):
            pilot.FrameInterpolator(iter([]))
        with pytest.raises(zl.InvalidInput, match="increasing"):
            pilot.FrameInterpolator([short_fields[1], short_fields[0]])
        unordered = [short_fields[0], short_fields[2], short_fields[1]]
        interp = pilot.FrameInterpolator(iter(unordered))
        with pytest.raises(zl.InvalidInput, match="increasing"):
            interp.complex_at(0.1, np.array([[0.5, 0.0]]))
        # a list is read like any stream: the misplaced frame raises when a query
        # pulls it, which T = None (the latest frame's time) always does
        with pytest.raises(zl.InvalidInput, match="increasing"):
            zl.integrate_trajectory(unordered, (0.5, 0.0), dt=0.05)
        with pytest.raises(zl.InvalidInput, match="increasing"):
            zl.integrate_trajectory(unordered, (0.5, 0.0), dt=0.05, T=0.1)
        with pytest.raises(zl.InvalidInput, match="increasing"):
            zl.guide_process(unordered, zl.PhysParams(epsilon=0.01), zl.Permutation(), (0.5, 0.0), 0.12)

    def test_span_end_still_integrates(self, short_fields):
        traj = zl.integrate_trajectory(short_fields, (0.5, 0.0), dt=0.05)
        assert traj.times[-1] == pytest.approx(0.2)


class TestTransportClock:
    """Transport starts at the first frame's time, wherever that lies."""

    SHIFT = 1.0

    @pytest.fixture(scope="class")
    def frames(self):
        grid = zl.Grid2D(64, 8.0)
        psi0 = zl.init_gaussian(grid, (0, 0), 1.0, (0.5, 0))
        return zl.evolve_frames(psi0, zl.free_potential(), 1e-2, 20, 5)  # t = 0, 0.05, ..., 0.2

    @pytest.fixture(scope="class")
    def shifted(self, frames):
        return [zl.WaveFunction(f.grid, f.values, f.time + self.SHIFT) for f in frames]

    @staticmethod
    def fields(frames):
        return [zl.velocity_field(f) for f in frames]

    def test_trajectory(self, frames, shifted):
        traj = zl.integrate_trajectory(self.fields(frames), (0.5, 0.2), dt=0.05)
        later = zl.integrate_trajectory(self.fields(shifted), (0.5, 0.2), dt=0.05)
        assert later.times[0] == self.SHIFT
        np.testing.assert_allclose(later.times, traj.times + self.SHIFT, rtol=0, atol=1e-12)
        np.testing.assert_allclose(later.positions, traj.positions, rtol=0, atol=1e-12)

    def test_guided_process(self, frames, shifted):
        params = zl.PhysParams(epsilon=0.01)
        run, ref = zl.guide_process(self.fields(frames), params, zl.Permutation(), (0.5, 0.2), 0.2)
        later, later_ref = zl.guide_process(
            self.fields(shifted), params, zl.Permutation(), (0.5, 0.2), 0.2 + self.SHIFT
        )
        assert len(later) == len(run)
        np.testing.assert_allclose(later.times, run.times + self.SHIFT, rtol=0, atol=1e-12)
        np.testing.assert_allclose(later.means, run.means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(later_ref.positions, ref.positions, rtol=0, atol=1e-12)

    def test_ensemble(self, frames, shifted):
        rep = zl.ensemble_equivariance(frames, 1000, 3)
        later = zl.ensemble_equivariance(shifted, 1000, 3)
        assert later.T == rep.T + self.SHIFT and later.failures == rep.failures == 0
        assert np.array_equal(later.empirical, rep.empirical)


class TestGuideProcess:
    def test_ground_state_center_pinned_with_exact_spin(self, ground_fields):
        params = zl.PhysParams(epsilon=0.02)
        run, ref = zl.guide_process(ground_fields, params, zl.Permutation(), (0.5, -0.3), 2.0)
        drift = np.max(np.linalg.norm(run.real_means() - run.real_means()[0], axis=1))
        assert drift < 1e-8
        assert np.max(np.abs(zl.measure_run(run).sigma_intrinsic + 0.5)) < 1e-12
        # the osmotic (imaginary) drift is nonzero off-center
        assert np.max(np.abs(run.means.imag)) > 1e-3

    def test_free_gaussian_tracks_reference(self, free_fields):
        for eps in (4e-3, 2e-3):
            params = zl.PhysParams(epsilon=eps)
            run, ref = zl.guide_process(free_fields, params, zl.Permutation(), (1.0, 0.0), 1.0)
            boundaries = np.arange(0, len(run), 4)
            gap = np.max(
                np.linalg.norm(run.real_means()[boundaries] - ref.positions[boundaries], axis=1)
            )
            assert gap < 10 * eps

    def test_halving_epsilon_halves_the_gap(self, free_fields):
        gaps = []
        for eps in (4e-3, 2e-3):
            run, ref = zl.guide_process(
                free_fields, zl.PhysParams(epsilon=eps), zl.Permutation(), (1.0, 0.0), 1.0
            )
            boundaries = np.arange(0, len(run), 4)
            gaps.append(
                np.max(np.linalg.norm(run.real_means()[boundaries] - ref.positions[boundaries], axis=1))
            )
        assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.5)

    def test_epsilon_above_frame_spacing_rejected(self, free_fields):
        with pytest.raises(ValueError):
            zl.guide_process(free_fields, zl.PhysParams(epsilon=0.5), zl.Permutation(), (1, 0), 1.0)

    @pytest.mark.parametrize("mode", [zl.EpsilonMode.COMPTON, zl.EpsilonMode.DE_BROGLIE])
    def test_non_fixed_epsilon_rejected_before_any_query(self, free_fields, monkeypatch, mode):
        # the process is driven with params.epsilon, which only fixed mode runs at
        def no_query(*args):
            raise AssertionError("queried the field")

        monkeypatch.setattr(pilot.FrameInterpolator, "point_at", no_query)
        params = [zl.PhysParams(epsilon=4e-3), zl.PhysParams(epsilon=4e-3, epsilon_mode=mode)]
        with pytest.raises(zl.InvalidInput, match="epsilon_mode = fixed"):
            zl.guide_processes(free_fields, params, zl.Permutation(), (1.0, 0.0), 1.0)


class TestEnsemble:
    def test_seeded_sampling_matches_density(self, free_frames):
        rng = np.random.default_rng(42)
        pts = zl.sample_from_density(free_frames[0], 20000, rng)
        hist, _, _ = np.histogram2d(
            pts[:, 0], pts[:, 1], bins=[np.linspace(-10, 10, 33)] * 2
        )
        expected = pilot.coarse_density_histogram(free_frames[0], 32) * 20000
        live = expected > 5
        chi2 = float(np.sum((hist[live] - expected[live]) ** 2 / expected[live]))
        p_value = stats.chi2.sf(chi2, df=int(live.sum()) - 1)
        assert p_value > 0.001

    def test_equivariance_report(self, free_frames):
        rep = zl.ensemble_equivariance(free_frames, 4000, 7)
        assert rep.failures == 0
        assert rep.tv_distance < 0.08  # noise floor at N=4e3
        again = zl.ensemble_equivariance(free_frames, 4000, 7)
        assert again.tv_distance == rep.tv_distance

    def test_stationary_state_keeps_histogram(self, ground_fields, grid):
        ground = zl.harmonic_ground_state(grid, 1.0)
        frames = [
            zl.WaveFunction(grid, ground.values * np.exp(-1j * t), float(t))
            for t in np.linspace(0, 1.0, 11)
        ]
        rep = zl.ensemble_equivariance(frames, 2000, 11)
        rng = np.random.default_rng(11)
        seeds = zl.sample_from_density(frames[0], 2000, rng)
        edges = np.linspace(-10, 10, 33)
        hist0, _, _ = np.histogram2d(seeds[:, 0], seeds[:, 1], bins=[edges, edges])
        assert np.array_equal(rep.empirical * 2000, hist0)

    def test_failure_fraction_guard(self, free_frames):
        # an absurd density floor masks the whole plane, so every path dies
        with pytest.raises(zl.EnsembleFailure):
            zl.ensemble_equivariance(free_frames[:3], 1000, 3, T=float(free_frames[2].time), rho_floor=0.9)

    def test_small_ensembles_rejected(self, free_frames):
        with pytest.raises(ValueError):
            zl.ensemble_equivariance(free_frames, 100, 1)

    def test_report_json(self, free_frames, tmp_path):
        rep = zl.ensemble_equivariance(free_frames, 1000, 5)
        path = tmp_path / "eq.json"
        rep.to_json(path)
        text = path.read_text()
        for key in ('"N"', '"seed"', '"T"', '"tv_distance"', '"bins"', '"failures"'):
            assert key in text


def rk4_oracle(interp, x0, dt, n_steps):
    """The RK4 loop _rk4_batch ran before it became a stepper, for one point
    that must stay alive: its history (n_steps + 1, 1, 2)."""
    x = np.array(x0, dtype=float)
    history = np.empty((n_steps + 1, 1, 2))
    history[0] = x
    t0 = interp.t0
    for s in range(n_steps):
        t = t0 + s * dt
        k1, ok1 = interp.real_at(t, x)
        k2, ok2 = interp.real_at(t + dt / 2, x + (dt / 2) * k1)
        k3, ok3 = interp.real_at(t + dt / 2, x + (dt / 2) * k2)
        k4, ok4 = interp.real_at(t + dt, x + dt * k3)
        assert (ok1 & ok2 & ok3 & ok4)[0]
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        history[s + 1] = x
    return history


def guide_process_oracle(fields, eps, x0, T):
    """guide_process as it was before guide_processes: the cycle loop
    through its own whole-list interpolator, then integrate_trajectory's
    reference through another.  Returns (times, means, ref times, ref
    positions, ref dt)."""
    interp = WholeListInterpolator(fields)
    t0 = interp.t0
    n_cycles = int(math.floor((T - t0) / (4.0 * eps) + 1e-9))
    x0 = np.asarray(x0, dtype=float).reshape(2)
    n_steps = 4 * n_cycles
    means = np.empty((n_steps + 1, 2), dtype=complex)
    means[0] = x0.astype(complex)
    mean = means[0].copy()
    for q in range(n_cycles):
        vals, ok = interp.complex_at(t0 + 4 * q * eps, mean.real.reshape(1, 2))
        assert ok[0]
        for r in range(1, 5):
            mean = mean + vals[0] * eps
            means[4 * q + r] = mean
    T_ref = t0 + n_steps * eps
    n_ref = max(1, int(round((T_ref - t0) / eps)))
    dt = (T_ref - t0) / n_ref
    history = rk4_oracle(WholeListInterpolator(fields), x0.reshape(1, 2), dt, n_ref)
    return t0 + np.arange(n_steps + 1) * eps, means, t0 + np.arange(n_ref + 1) * dt, history[:, 0, :], dt


class Pulled:
    """An iterator over items that counts how many were taken."""

    def __init__(self, items):
        self.items, self.count = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.count += 1
        return item


def drift_fields(n_frames, vx, masked_from=None):
    """Fields of the uniform drift V = (vx, 0) on the 64^2 box of half width
    8, at t = 0, 0.05, ...; from frame masked_from on every node is masked."""
    grid = zl.Grid2D(64, 8.0)
    for k in range(n_frames):
        v = np.zeros((grid.n, grid.n, 2), dtype=complex)
        v[..., 0] = vx
        mask = np.full((grid.n, grid.n), masked_from is not None and k >= masked_from)
        yield pilot.VelocityField(grid, v, mask, 0.05 * k)


def flipping_fields(n_frames, vx):
    """drift_fields whose velocity flips sign from one frame to the next."""
    for k, fld in enumerate(drift_fields(n_frames, vx)):
        yield dataclasses.replace(fld, v=-fld.v) if k % 2 else fld


class TestPointTransport:
    """integrate_trajectory moves its one point in Python floats through
    point_at, with the arithmetic of the array RK4: equal to it bit for bit."""

    @pytest.mark.parametrize("frames", ["free", "ulp_retimed", "shifted", "moving"])
    def test_equals_the_array_rk4(self, free_frames, free_fields, frames):
        x0, dt = (1.0, 0.2), 5e-3
        if frames == "free":
            fields, T = free_fields, 0.5
        elif frames == "ulp_retimed":
            fields, T = [zl.velocity_field(f) for f in ulp_retimed(free_frames)], 0.29
        elif frames == "shifted":  # dt = ((t0 + 0.29) - t0) / 58 is not 5e-3 here
            fields, T = [dataclasses.replace(f, time=f.time + 0.3) for f in free_fields[:61]], 0.59
        else:  # a moving packet from its center, where the position is as small as
            # its steps, so the last bits of the stage sum reach the position
            psi0 = zl.init_gaussian(zl.Grid2D(64, 8.0), (0, 0), 1.0, (0.5, 0.3))
            frames = zl.evolve_frames(psi0, zl.free_potential(), 1e-2, 100, 5)
            fields, T, x0, dt = [zl.velocity_field(f) for f in frames], 1.0, (0.0, 0.0), 0.01
        traj = zl.integrate_trajectory(iter(fields), x0, dt=dt, T=T)
        t0 = fields[0].time
        n_steps = max(1, int(round((T - t0) / dt)))
        dt = (T - t0) / n_steps
        history = rk4_oracle(WholeListInterpolator(fields), np.array([x0]), dt, n_steps)
        assert traj.dt == dt and np.array_equal(traj.times, t0 + np.arange(n_steps + 1) * dt)
        assert np.array_equal(traj.positions, history[:, 0, :])

    def test_a_failed_step_is_the_last_read(self):
        stream = Pulled(flipping_fields(21, 40.0))
        with pytest.raises(zl.LeftDomain, match="at t = 0, "):
            zl.integrate_trajectory(stream, (7.5, 0.0), 0.05, T=1.0)
        # step 0 reads at t = 0.05, which pulls the frame after it; no later frame is read
        assert stream.count == 3


class TestOneSweep:
    """guide_processes drives every process and reference from one
    forward-reading interpolator over a stream of fields."""

    EPSILONS = (4e-3, 2e-3, 1e-3)

    @pytest.fixture
    def steppers(self, monkeypatch):
        made = []
        for name in ("_guided_stepper", "_point_rk4_stepper"):

            def spy(*args, _make=getattr(pilot, name), **kwargs):
                made.append(_make(*args, **kwargs))
                return made[-1]

            monkeypatch.setattr(pilot, name, spy)
        return made

    @staticmethod
    def all_closed(steppers):
        return all(inspect.getgeneratorstate(g) == inspect.GEN_CLOSED for g in steppers)

    def sweep(self, fields, x0, T, epsilons=EPSILONS):
        params = [zl.PhysParams(epsilon=eps) for eps in epsilons]
        return zl.guide_processes(fields, params, zl.Permutation(), x0, T)

    @pytest.mark.parametrize("frames", ["free", "ulp_retimed", "shifted"])
    def test_equals_the_per_epsilon_oracle(self, free_frames, free_fields, frames):
        if frames == "free":
            fields, T = free_fields, 0.5
        elif frames == "ulp_retimed":
            fields, T = [zl.velocity_field(f) for f in ulp_retimed(free_frames)], 0.29
        else:  # the reference's dt = ((t0 + n eps) - t0) / n is not eps here
            fields, T = [dataclasses.replace(f, time=f.time + 0.3) for f in free_fields[:61]], 0.59
        x0 = (1.0, 0.2)
        for eps, (run, ref) in zip(self.EPSILONS, self.sweep(iter(fields), x0, T)):
            times, means, ref_times, positions, dt = guide_process_oracle(fields, eps, x0, T)
            assert np.array_equal(run.times, times) and np.array_equal(run.means, means)
            assert np.array_equal(ref.times, ref_times) and np.array_equal(ref.positions, positions)
            assert ref.dt == dt

    def test_generator_fields_are_released(self, free_fields, steppers):
        alive, peak = [0], [0]

        def released():
            alive[0] -= 1

        def fields():
            for f in free_fields:
                copy = dataclasses.replace(f)
                alive[0] += 1
                weakref.finalize(copy, released)
                peak[0] = max(peak[0], alive[0])
                yield copy
                del copy

        streamed = self.sweep(fields(), (1.0, 0.2), 0.3)
        held = self.sweep(free_fields, (1.0, 0.2), 0.3)
        for (run, ref), (run1, ref1) in zip(streamed, held):
            assert np.array_equal(run.means, run1.means) and np.array_equal(ref.positions, ref1.positions)
        # the window's three fields plus the one being built
        assert 0 < peak[0] <= 3 + 1
        assert len(steppers) == 12 and self.all_closed(steppers)

    def test_center_in_a_masked_cell_raises_mid_sweep(self, steppers):
        stream = Pulled(drift_fields(21, 1.0, masked_from=4))
        with pytest.raises(zl.NodeRegion, match="gravity center .* entered a masked region"):
            self.sweep(stream, (0.0, 0.0), 1.0, epsilons=(0.01, 0.005, 0.0025))
        assert stream.count <= 6
        assert len(steppers) == 6 and self.all_closed(steppers)

    def test_center_outside_the_box_wins_over_earlier_reference_failures(self, monkeypatch):
        failed = []
        make = pilot._point_rk4_stepper

        def spy(x0, t0, dt, n_steps, half_width):
            history, fail_step, left_box = yield from make(x0, t0, dt, n_steps, half_width)
            failed.append((t0 + fail_step * dt, left_box))
            return history, fail_step, left_box

        monkeypatch.setattr(pilot, "_point_rk4_stepper", spy)
        message = "gravity center (8.025, 0) left the box at t = 0.2"
        with pytest.raises(zl.LeftDomain, match=re.escape(message)):
            self.sweep(drift_fields(21, 5.0), (7.025, 0.0), 1.0, epsilons=(0.01, 0.005, 0.0025))
        # the references of eps = 0.005 and 0.0025 left the box at t = 0.19 and
        # 0.1925, before any process read a center outside it
        assert len(failed) == 2 and all(left and t < 0.195 for t, left in failed)

    def test_reference_leaving_the_box_raises(self, steppers):
        # the processes' last reads (t = 0.16, 0.18, 0.19) are inside the
        # box; the references run on to t = 0.2 and end at x = 8.025
        with pytest.raises(zl.LeftDomain, match="left the box"):
            self.sweep(Pulled(drift_fields(5, 5.0)), (7.025, 0.0), 0.2, epsilons=(0.01, 0.005, 0.0025))
        assert len(steppers) == 6 and self.all_closed(steppers)

    def test_T_past_the_stream_raises(self, steppers):
        stream = Pulled(drift_fields(5, 1.0))
        with pytest.raises(zl.InvalidInput, match="past the last frame"):
            self.sweep(stream, (0.0, 0.0), 1.0, epsilons=(0.01, 0.005, 0.0025))
        assert stream.count == 5
        assert len(steppers) == 6 and self.all_closed(steppers)

    def test_epsilon_above_the_spacing_raises_before_a_third_pull(self, steppers):
        stream = Pulled(drift_fields(21, 1.0))
        with pytest.raises(zl.InvalidInput, match="exceeds the frame spacing"):
            self.sweep(stream, (0.0, 0.0), 1.0, epsilons=(0.01, 0.1))
        assert stream.count == 2 and not steppers


class TestErrorText:
    """LeftDomain and NodeRegion name positions as plain numbers, also when
    they come in as numpy floats."""

    @pytest.mark.parametrize(
        "error, fields, x0, dt, T, text",
        [
            (
                zl.LeftDomain,
                lambda: drift_fields(5, 5.0),
                (7.025, 0.0),
                0.01,
                None,
                "trajectory from (7.025, 0) left the box at t = 0.19, position (7.975, 0)",
            ),
            # the stage point x + (dt/2) k1 = 8.5 is outside, the new position
            # x + (dt/6)(k1 + 2 k2 + 2 k3 + k4) = 7.5 is not
            (
                zl.LeftDomain,
                lambda: flipping_fields(21, 40.0),
                (7.5, 0.0),
                0.05,
                1.0,
                "trajectory from (7.5, 0) left the box at t = 0, position (7.5, 0)",
            ),
            (
                zl.NodeRegion,
                lambda: drift_fields(5, 1.0, masked_from=2),
                (0.5, -0.25),
                0.01,
                None,
                "trajectory from (0.5, -0.25) hit a masked region at t = 0.05, position (0.55, -0.25)",
            ),
        ],
        ids=["left_box", "stage_left_box", "masked"],
    )
    def test_trajectory(self, error, fields, x0, dt, T, text):
        with pytest.raises(error) as err:
            zl.integrate_trajectory(fields(), np.array(x0), dt, T)
        assert str(err.value) == text

    def test_bohm_velocity_at(self, grid):
        field = synthetic_field(grid)
        field.node_mask[80, 80] = True
        with pytest.raises(zl.LeftDomain) as left:
            zl.bohm_velocity_at(field, np.array([10.5, 0.25]))
        with pytest.raises(zl.NodeRegion) as masked:
            zl.bohm_velocity_at(field, np.array([grid.axis[80] - 0.25 * grid.spacing, grid.axis[80]]))
        assert str(left.value) == "query (10.5, 0.25) is outside the box [-10.0, 10.0)^2"
        assert str(masked.value) == "query (2.46094, 2.5) touches masked wave-function nodes"


class TestStreamedEnsemble:
    """ensemble_equivariance reads its frames once, through a window."""

    @staticmethod
    def same_report(a, b):
        assert (a.T, a.tv_distance, a.failures, a.failures_node, a.failures_left_box) == (
            b.T, b.tv_distance, b.failures, b.failures_node, b.failures_left_box
        )
        assert np.array_equal(a.empirical, b.empirical) and np.array_equal(a.target, b.target)

    def test_list_and_iterator_give_equal_reports(self, free_frames):
        T = float(free_frames[120].time)  # an interior frame: the stream goes on past T
        self.same_report(
            zl.ensemble_equivariance(free_frames, 2000, 21, T=T),
            zl.ensemble_equivariance(iter(free_frames), 2000, 21, T=T),
        )
        self.same_report(
            zl.ensemble_equivariance(free_frames, 2000, 21),
            zl.ensemble_equivariance(iter(free_frames), 2000, 21),
        )

    def test_window_transport_is_the_full_interpolator(self, free_frames):
        dt = 0.005
        fields = [zl.velocity_field(f, real=True) for f in ulp_retimed(free_frames, dt)]
        seeds = zl.sample_from_density(free_frames[0], 2000, np.random.default_rng(4))
        full = pilot._rk4_batch(WholeListInterpolator(fields), seeds, dt, 59)
        window = pilot.FrameInterpolator(iter(fields))
        streamed = pilot._rk4_batch(window, seeds, dt, 59)
        for a, b in zip(full, streamed):
            assert np.array_equal(a, b)
        assert len(window.frames) <= 3

    def test_generator_frames_are_released(self, free_frames):
        alive, peak = [0], [0]

        def released():
            alive[0] -= 1

        def frames():
            for f in free_frames:
                copy = f.copy()
                alive[0] += 1
                weakref.finalize(copy, released)
                peak[0] = max(peak[0], alive[0])
                yield copy
                del copy

        rep = zl.ensemble_equivariance(frames(), 2000, 21, T=float(free_frames[-1].time))
        self.same_report(rep, zl.ensemble_equivariance(free_frames, 2000, 21))
        # the window holds fields, not frames: besides the frame being turned
        # into a field, only frame 0 (until the seeds are drawn) and the frame
        # at T may be alive, within a window of three
        assert peak[0] <= 3 + 2

    def test_no_frame_at_T(self, free_frames):
        between = 0.5 * (free_frames[3].time + free_frames[4].time)
        for frames in (free_frames[:10], iter(free_frames[:10])):
            with pytest.raises(zl.InvalidInput, match="no frame at T"):
                zl.ensemble_equivariance(frames, 1000, 3, T=between)
        # the stream ends before T
        with pytest.raises(zl.InvalidInput, match="no frame at T"):
            zl.ensemble_equivariance(iter(free_frames[:10]), 1000, 3, T=float(free_frames[20].time))
        assert not field_workers()

    def test_stream_error_surfaces_where_the_serial_read_raises_it(self, free_frames):
        error = zl.ResolutionLoss("spectral mass reached the aliasing band; refine the grid")

        def failing(at):
            yield from free_frames[:at]
            raise error

        T = float(free_frames[120].time)
        with pytest.raises(zl.ResolutionLoss) as raised:
            zl.ensemble_equivariance(failing(60), 2000, 21, T=T)
        assert raised.value is error
        assert not field_workers()
        # the last RK4 step closes its bracket at T with frame 121, so an
        # error in place of frame 121 is read, and one after it is not
        with pytest.raises(zl.ResolutionLoss):
            zl.ensemble_equivariance(failing(121), 2000, 21, T=T)
        self.same_report(
            zl.ensemble_equivariance(failing(122), 2000, 21, T=T),
            zl.ensemble_equivariance(free_frames, 2000, 21, T=T),
        )
        assert not field_workers()

    def test_close_at_any_point_joins_the_worker(self):
        """Readers close the stream after every possible number of items,
        with the worker still building (even k) or waiting on a full slot
        (odd k, a reader slower than the worker): first one reader alone,
        then three at once with a short switch interval."""
        results = []

        def slowly():
            for i in range(10):
                time.sleep(1e-3)
                yield i

        def read(alone):
            for k in range(12):
                with closing(pilot._built_ahead(slowly())) as items:
                    got = []
                    for _, x in zip(range(k), items):
                        got.append(x)
                        time.sleep(3e-3 * (k % 2))
                results.append(got == list(range(min(k, 10))) and not (alone and field_workers()))

        def run(count):
            readers = [threading.Thread(target=read, args=(count == 1,), daemon=True) for _ in range(count)]
            for r in readers:
                r.start()
            for r in readers:
                r.join(timeout=60)
            assert not any(r.is_alive() for r in readers)

        run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run(3)
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 48
        assert not field_workers()


    @pytest.mark.parametrize("k", range(6))
    def test_close_after_k_items_bounds_the_reads(self, k):
        """Two builds are in flight: a reader that takes k items and closes
        has advanced the source at most k + 2 times, and the worker is gone."""
        source = Pulled(range(10))
        with closing(pilot._built_ahead(source)) as items:
            assert [x for _, x in zip(range(k), items)] == list(range(k))
        assert source.count <= k + 2
        assert not field_workers()


class TestFailureCauses:
    """Early terminations are counted by cause: a node, or leaving the box."""

    @pytest.fixture(scope="class")
    def fleeing_frames(self):
        # a packet at speed 5 in a box of half width 8, for T = 2
        grid = zl.Grid2D(64, 8.0)
        psi0 = zl.init_gaussian(grid, (0, 0), 1.0, (5.0, 0))
        return zl.evolve_frames(psi0, zl.free_potential(), 1e-2, 200, 5)

    def test_box_exit(self, fleeing_frames):
        rep = zl.ensemble_equivariance(fleeing_frames, 1000, 1, max_failure_fraction=1.0)
        assert rep.failures > 500
        assert rep.failures_left_box == rep.failures and rep.failures_node == 0

    def test_node(self, free_frames):
        rep = zl.ensemble_equivariance(
            free_frames[:3], 1000, 3, T=float(free_frames[2].time), rho_floor=0.9, max_failure_fraction=1.0
        )
        assert rep.failures > 500
        assert rep.failures_node == rep.failures and rep.failures_left_box == 0

    def test_failure_message_and_json_name_both(self, fleeing_frames, tmp_path):
        with pytest.raises(zl.EnsembleFailure, match=r"0 at a node and \d+ by leaving the box"):
            zl.ensemble_equivariance(fleeing_frames, 1000, 1)
        rep = zl.ensemble_equivariance(fleeing_frames, 1000, 1, max_failure_fraction=1.0)
        rep.to_json(tmp_path / "eq.json")
        text = (tmp_path / "eq.json").read_text()
        assert f'"failures_left_box": {rep.failures}' in text and '"failures_node": 0' in text


def test_trajectory_csv(free_fields, tmp_path):
    t1 = zl.integrate_trajectory(free_fields, (1.0, 0.0), dt=5e-3)
    t2 = zl.integrate_trajectory(free_fields, (0.0, 0.5), dt=5e-3)
    path = tmp_path / "traj.csv"
    pilot.trajectories_to_csv(path, [t1, t2])
    lines = path.read_text().splitlines()
    assert lines[0] == "seed_index,t,x,y"
    assert len(lines) == 1 + len(t1.times) + len(t2.times)
    assert lines[1].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "1"
