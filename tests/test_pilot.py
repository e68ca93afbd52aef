"""Guiding velocity fields, Bohmian trajectories, guided process, ensembles."""

import copy
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import zitterlab as zl
from zitterlab import pilot, schrodinger, verification
from zitterlab.cli import parse_config
from zitterlab.scenarios import run_scenario

from gather import gathered_ratios


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
    fx, fy = zl.harmonic_ground_state(grid, 1.0).factors
    times = np.linspace(0.0, 2 * math.pi, 51)
    return [zl.velocity_field(zl.WaveFunction(grid, (fx * np.exp(-1j * t), fy), float(t))) for t in times]


def spreading_width(t, sigma0=1.0):
    return sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)


def axis_densities(psi):
    return [np.abs(f) ** 2 for f in psi.factors]


def live_nodes(psi, fld):
    """(n, 2) flags of the x nodes (column 0) and y nodes (column 1) whose
    row or column of cells holds a node at or above fld's floor."""
    rx, ry = axis_densities(psi)
    return np.column_stack([rx * float(ry.max()) >= fld.floor, ry * float(rx.max()) >= fld.floor])


class TestVelocityField:
    def test_spreading_packet_drift_profile(self, grid):
        # radial Bohmian velocity x * s'(t)/s(t) of the self-similar packet
        t = 0.8
        psi = zl.analytic_free_gaussian(grid, 1.0, (0, 0), (0, 0), t)
        field = zl.velocity_field(psi)
        g_t = (t / 4.0) / (1.0 + t * t / 4.0)
        for axis, r in enumerate(axis_densities(psi)):
            bulk = r > 1e-4 * r.max()
            assert np.max(np.abs(field.v[:, axis].real - g_t * grid.axis)[bulk]) < 1e-8

    def test_real_ground_state_is_osmotic_only(self, grid):
        omega = 1.0
        psi = zl.harmonic_ground_state(grid, omega)
        field = zl.velocity_field(psi, rho_floor=1e-6)
        bulk = live_nodes(psi, field)[:, 0]
        assert np.max(np.abs(field.v[bulk, 0].real)) < 1e-10
        # Im V = -(hbar/2m) grad log rho = omega * x per axis
        assert np.max(np.abs(field.v[bulk, 0].imag - omega * grid.axis[bulk])) < 1e-6

    def test_action_decomposition_identity(self, grid):
        # m V = grad S - i (hbar/2) grad log rho with grad S = hbar Im(grad Psi/Psi)
        # and grad log rho = 2 Re(grad Psi/Psi) on the live cells
        psi = zl.analytic_free_gaussian(grid, 1.0, (0.5, -0.2), (0, 0), 0.5)
        hbar, mass = 1.0, 2.0
        field = zl.velocity_field(psi, hbar=hbar, mass=mass)
        live, ratios, rho, mask = gathered_ratios(psi)
        assert np.array_equal(mask, rho < field.floor)
        i, j = np.divmod(live, grid.n)
        lhs = mass * np.array([field.v[i, 0], field.v[j, 1]])
        rhs = hbar * ratios.imag - 0.5j * hbar * (2.0 * ratios.real)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_default_floor_keeps_the_deep_tail_live(self, grid):
        # the default rho_floor is 1e-12 of max rho: a cell at 1e-12 <= rho/max rho < 1e-6 is live
        psi = zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.0, 0.5))
        field = zl.velocity_field(psi)
        rho = psi.density()
        node_mask = rho < field.floor
        tail = (rho >= 1e-12 * rho.max()) & (rho < 1e-6 * rho.max())
        assert tail.sum() > 100
        assert not node_mask[tail].any()
        assert node_mask[rho < 0.5e-12 * rho.max()].all()


def plain_gradient(grid, values):
    """(n, n, 2) spectral gradient of values: one fft2, then one np.fft.ifft2 per component."""
    k = grid.wavenumbers
    spectrum = np.fft.fft2(values)
    return np.stack([np.fft.ifft2(1j * k[:, None] * spectrum), np.fft.ifft2(1j * k[None, :] * spectrum)], axis=-1)


def ratio_re_field(psi, hbar=1.0, mass=1.0, rho_floor=schrodinger.DEFAULT_RHO_FLOOR):
    """(Re V (n, n, 2), node mask) from plain numpy: an fft2 of psi.values,
    one ifft2 per component and a complex divide.  The oracle for the field
    kernel."""
    rho = np.abs(psi.values) ** 2
    mask = rho < rho_floor * float(rho.max())
    ratio = plain_gradient(psi.grid, psi.values) / np.where(mask, 1.0, psi.values)[..., None]
    ratio[mask] = 0.0
    return (-1j * (hbar / mass) * ratio).real, mask


class TestFieldKernel:
    """velocity_field against the plain-numpy ratio oracle."""

    EPS = np.finfo(float).eps

    @pytest.fixture(scope="class")
    def stream(self, grid):
        psi0 = zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.5, 0.5))
        return list(zl.stream_frames(psi0, zl.free_potential(), 1e-3, 600, 60))

    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 2.5)])
    def test_matches_ratio_oracle(self, stream, hbar, mass):
        # The field takes each factor's 1D spectral derivative, the oracle the
        # 2D spectral gradient g of psi.values.  A radix-2 FFT of N points errs
        # by at most 7u log2 N of its input's L2 norm (Higham, Thm 24.2), so
        # the two derivatives differ by at most e k_max ||psi||_2 at a cell,
        # e = 7u (2 log2 n^2 + 2 log2 n) + u (the rounding of psi.values); at a
        # live cell c the ratios then differ by e k_max ||psi||_2 / |psi_c|,
        # as ||fx||_2 / |fx_i| <= ||psi||_2 / |psi_c|.  Each side then rounds
        # at most eight times in quantities bounded by |g|/|psi_c| on the way
        # to V.  The node masks agree but where rho is within roundoff of the
        # floor.
        grid = stream[0].grid
        k_max = float(np.max(np.abs(grid.wavenumbers)))
        e = 3.5 * self.EPS * (2 * math.log2(grid.n**2) + 2 * math.log2(grid.n)) + self.EPS / 2
        for f in stream:
            oracle, mask = ratio_re_field(f, hbar, mass)
            fld = zl.velocity_field(f, hbar, mass, real=True)
            rho = f.density()
            differ = mask != (rho < fld.floor)
            assert np.all(np.abs(rho[differ] - fld.floor) <= 8 * self.EPS * fld.floor)
            live = ~mask & ~differ
            i, j = np.nonzero(live)
            v = np.column_stack([fld.v[i, 0], fld.v[j, 1]])
            g = np.abs(plain_gradient(grid, f.values))[live]
            psi_c = np.abs(f.values[live])[:, None]
            bound = (hbar / mass) * (e * k_max * np.linalg.norm(f.values) + 16 * self.EPS * g) / psi_c
            assert np.all(np.abs(v - oracle[live]) <= bound)
            assert np.all(fld.v[~live_nodes(f, fld)] == 0.0)

    def test_real_field_is_the_real_part(self, stream):
        for f in stream[:3]:
            full, real = zl.velocity_field(f, 0.7, 2.5), zl.velocity_field(f, 0.7, 2.5, real=True)
            assert real.v.dtype == float and full.v.dtype == complex
            assert np.array_equal(real.v, full.v.real)


def axis_field(grid, v, time=0.0, rho=None, floor=0.0):
    """The field of the per-axis values v (n, 2) at time, whose cells are
    tested on the node densities rho (n, 2), all 1 by default, against floor."""
    rho = np.ones(v.shape) if rho is None else rho
    return pilot.VelocityField(grid, v, np.minimum(rho, np.roll(rho, -1, axis=0)), floor, time)


def expanded(v, rho, floor):
    """(v (n, n, 2), node mask (n, n)) on the grid of axis_field's field of
    v, rho and floor: node (i, j) holds (v[i, 0], v[j, 1]) and is masked
    where rho[i, 0] rho[j, 1] < floor."""
    return np.stack(np.broadcast_arrays(v[:, None, 0], v[None, :, 1]), axis=-1), np.outer(*rho.T) < floor


def synthetic_field(grid, vx_node=None, masked_x=None):
    """Zero field with the Re Vx of one x node set, vx_node = (i, value), and
    the cells around x node masked_x masked, for interpolation tests."""
    v = np.zeros((grid.n, 2), dtype=complex)
    rho = np.ones((grid.n, 2))
    if vx_node is not None:
        v[vx_node[0], 0] = vx_node[1]
    if masked_x is not None:
        rho[masked_x, 0] = 0.0
    return axis_field(grid, v, rho=rho, floor=0.5)


class TestBohmVelocityAt:
    def test_exact_node_query(self, free_fields, grid):
        field = free_fields[100]
        i, j = 70, 64
        x = (grid.axis[i], grid.axis[j])
        np.testing.assert_allclose(zl.bohm_velocity_at(field, x), [field.v[i, 0].real, field.v[j, 1].real], atol=1e-14)

    def test_bilinear_midpoint(self, grid):
        field = synthetic_field(grid, vx_node=(64, 1.0))
        x_mid = (grid.axis[64] + grid.spacing / 2, grid.axis[64])
        np.testing.assert_allclose(zl.bohm_velocity_at(field, x_mid), [0.5, 0.0], atol=1e-14)

    def test_node_region_raises(self, grid):
        field = synthetic_field(grid, masked_x=80)
        probe = (grid.axis[80] - 0.3 * grid.spacing, grid.axis[80])
        with pytest.raises(zl.NodeRegion):
            zl.bohm_velocity_at(field, probe)

    def test_outside_box_raises(self, grid):
        field = synthetic_field(grid)
        with pytest.raises(zl.LeftDomain):
            zl.bohm_velocity_at(field, (10.5, 0.0))


def bilinear_oracle(grid, v, m, pts):
    """The direct four-corner formula of the field v (n, n, 2) with node mask
    m (n, n) at pts: (values, ok)."""
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
    ok = inside & ~(m[i0, j0] | m[i1, j0] | m[i0, j1] | m[i1, j1])
    vals = (
        (1 - tx) * (1 - ty) * v[i0, j0]
        + tx * (1 - ty) * v[i1, j0]
        + (1 - tx) * ty * v[i0, j1]
        + tx * ty * v[i1, j1]
    )
    return vals, ok


class WholeListInterpolator:
    """The reads a forward-reading FrameInterpolator must reproduce: a
    searchsorted over every frame's time for the bracket, then pilot's
    stencil.  Two fields blend their nodes per axis, then lerp, and take
    each frame's cell test."""

    def __init__(self, fields):
        self.fields = list(fields)
        self.times = np.array([f.time for f in self.fields])
        self.grid = self.fields[0].grid
        self.t0 = float(self.times[0])

    def complex_at(self, t, pts):
        i = min(max(int(np.searchsorted(self.times, t, side="right")) - 1, 0), len(self.fields) - 2)
        t0, t1 = float(self.times[i]), float(self.times[i + 1])
        a = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        stencil = pilot._Stencil(self.grid, pts)
        frames = self.fields[i : i + 2] if a else self.fields[i : i + 1]
        v = frames[0].v if a == 0.0 else (1.0 - a) * frames[0].v + a * frames[1].v
        vals = stencil.weight * v.take(stencil.lo) + stencil.frac * v.take(stencil.hi)
        masked = np.zeros(len(pts), dtype=bool)
        for f in frames:
            m = f.cell_min.take(stencil.lo)
            masked |= m[:, 0] * m[:, 1] < f.floor
        return vals, stencil.inside & ~masked

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
    return [zl.WaveFunction(f.grid, f.factors, t) for f, t in zip(free_frames, times)]


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
    """The calls of pilot._Stencil, the batch stencil, from now on."""
    calls = []
    stencil = pilot._Stencil
    monkeypatch.setattr(pilot, "_Stencil", lambda *args: calls.append(args) or stencil(*args))
    return calls


class TestTransportKernel:
    """The per-axis reads reproduce the four-corner formula."""

    @pytest.fixture(scope="class")
    def masked_field(self):
        """(v, rho, floor) of a random complex field on the 64^2 box of half
        width 8 whose cells around x node 41 and y node 18 are masked."""
        rng = np.random.default_rng(3)
        v = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
        rho = np.ones((64, 2))
        rho[[41, 18], [0, 1]] = 1e-3
        return v, rho, 0.1

    @pytest.mark.parametrize("m", [1, 1000])
    @pytest.mark.parametrize("real", [False, True])
    def test_matches_four_corner_oracle(self, masked_field, m, real):
        v, rho, floor = masked_field
        if real:
            v = np.ascontiguousarray(v.real)
        grid = zl.Grid2D(64, 8.0)
        pts = kernel_probe_points(grid, m, np.random.default_rng(m))  # m = 1: a wrap-row point
        expected, ok_expected = bilinear_oracle(grid, *expanded(v, rho, floor), pts)
        vals, ok = pilot.FrameInterpolator([axis_field(grid, v, rho=rho, floor=floor)]).complex_at(0.0, pts)
        assert vals.dtype == v.dtype
        assert np.array_equal(ok, ok_expected)
        bound = lerp_bound(v, pilot._Stencil(grid, pts))
        for part in ("real", "imag"):
            assert np.all((np.abs(getattr(vals - expected, part)) <= getattr(bound, part))[ok])

    def test_probe_points_cover_every_case(self, masked_field):
        grid = zl.Grid2D(64, 8.0)
        L = grid.half_width
        pts = kernel_probe_points(grid, 1000, np.random.default_rng(1000))
        _, ok = bilinear_oracle(grid, *expanded(*masked_field), pts)
        i0 = np.floor((pts + L) / grid.spacing).astype(int)
        inside = np.all((pts >= -L) & (pts < L), axis=1)
        assert np.any(inside & (i0[:, 0] == grid.n - 1)) and np.any(inside & (i0[:, 1] == grid.n - 1))
        assert np.any(~inside)
        assert np.any(inside & ~ok)  # masked corners

    def test_two_frames_match_oracle_blend(self, masked_field):
        """Between two fields the read is the time blend of their four-corner
        reads, and a point is ok only where both frames leave its cell live:
        point 9 sits in a cell that only the later frame masks."""
        v, rho, floor = masked_field
        grid = zl.Grid2D(64, 8.0)
        later_rho = np.ones_like(rho)
        later_rho[30, 0] = 1e-3
        fields = [axis_field(grid, v, 0.0, rho, floor), axis_field(grid, 2.0 * v[::-1], 0.1, later_rho, floor)]
        pts = kernel_probe_points(grid, 1000, np.random.default_rng(5))
        pts[9] = (grid.axis[30] + 0.5 * grid.spacing, grid.axis[30])
        reads = [bilinear_oracle(grid, *expanded(f.v, r, floor), pts) for f, r in zip(fields, (rho, later_rho))]
        vals, ok = pilot.FrameInterpolator(fields).complex_at(0.025, pts)
        assert np.array_equal(ok, reads[0][1] & reads[1][1])
        assert reads[0][1][9] and not ok[9]
        bound = TestAxisField.blend_bound(fields, reads, pts, 0.25)
        for part in ("real", "imag"):
            assert np.all((np.abs(getattr(vals - (0.75 * reads[0][0] + 0.25 * reads[1][0]), part)) <= getattr(bound, part))[ok])

    @pytest.mark.parametrize("point", [(math.nan, 0.1), (0.2, math.inf), (-math.inf, math.nan), (1e300, 0.0)])
    def test_non_finite_point_reads_what_the_array_kernel_reads(self, masked_field, point):
        v, rho, floor = masked_field
        grid = zl.Grid2D(64, 8.0)
        fields = [axis_field(grid, v, 0.0, rho, floor), axis_field(grid, 2.0 * v[::-1], 0.1, rho, floor)]
        with np.errstate(invalid="ignore"):  # the int64 cast of a NaN or far cell
            vx, vy, ok = pilot.FrameInterpolator(fields).point_at(0.025, *point)
            expected, expected_ok = WholeListInterpolator(fields).complex_at(0.025, np.array([point]))
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
        # 12 + 25 + 50 cycle boundaries, and 40 steps of the shared reference at
        # the frame spacing 5e-3 with four reads each
        assert len(array_kernel) == 87 + 4 * 40
        assert [os.path.basename(p) for p in scalar.files] == ["guided_centers.csv", "guided_process.json"]
        assert digests(scalar) == digests(array)

    def test_harmonic_ground_reads_product_fields_in_scalars(self, tmp_path, monkeypatch, array_kernel):
        """The stationary frames are product frames: no field takes an fft2 and
        no trajectory read builds a batch stencil."""
        fft2_calls = []

        def refuse(*args, **kwargs):
            fft2_calls.append(args)
            raise AssertionError("np.fft.fft2 called")

        monkeypatch.setattr(np.fft, "fft2", refuse)
        result = run_scenario(parse_config("scenario = harmonic_ground\n"), tmp_path)
        assert result.passed
        assert not fft2_calls and not array_kernel

    def test_real_transport_gives_the_same_report(self, free_frames, monkeypatch):
        real = zl.ensemble_equivariance(free_frames, 2000, 21)
        # hand the transport the full complex fields instead of Re V only
        complex_field = pilot.velocity_field
        monkeypatch.setattr(pilot, "velocity_field", lambda *args, real: complex_field(*args))
        full = zl.ensemble_equivariance(free_frames, 2000, 21)
        assert full.tv_distance == real.tv_distance
        assert full.failures == real.failures
        assert np.array_equal(full.empirical, real.empirical)


U = np.finfo(float).eps / 2


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * U / (1 - k * U)


# |per-axis lerp - four-corner sum| of one product field, in units of
# S = (1 - f)|v[lo]| + f|v[hi]| per axis and per real part:
# - the lerp fl(fl((1 - f) v[lo]) + fl(f v[hi])) is within gamma_2 S of
#   (1 - f) v[lo] + f v[hi];
# - the four-corner sum rounds each weight product, each term and three
#   additions, so it is within gamma_5 of its exact sum, whose term
#   magnitudes add up to (g + f') S <= (1 + u) S, with g = fl(1 - f') the
#   other axis's computed weights;
# - that exact sum is (g + f') times the exact lerp, and |g + f' - 1| <= u.
# A complex multiply by w + 0j rounds each part like a real one.
LERP_BOUND = gamma(2) + (1 + U) * gamma(5) + U


def split(z):
    """|Re z| + i |Im z|, the magnitudes of the two parts."""
    return np.abs(np.real(z)) + 1j * np.abs(np.imag(z))


def lerp_bound(v, stencil):
    """The per-part bound LERP_BOUND S of the per-axis reads of v (n, 2) at
    the stencil's points against their four-corner sums."""
    return LERP_BOUND * (stencil.weight * split(v.take(stencil.lo)) + stencil.frac * split(v.take(stencil.hi)))


def eager_field(psi, hbar, mass, rho_floor, real):
    """(v (n, n, 2), node_mask (n, n)) of psi's field on the grid, from
    psi_ratios gathered onto the live cells: those filled in place, 0
    elsewhere."""
    grid = psi.grid
    live, ratios, _, mask = gathered_ratios(psi, rho_floor)
    scale = hbar / mass
    v = np.zeros((grid.n * grid.n, 2), dtype=float if real else complex)
    v.real[live] = (scale * ratios.imag).T
    if not real:
        v.imag[live] = (-scale * ratios.real).T
    return v.reshape(grid.n, grid.n, 2), mask


def bits(a):
    """a as uint64 words: array_equal of two of these also tells -0 from +0."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestAxisField:
    """A field holds V per axis and is read through it, in agreement with
    the four-corner reads of its values on the grid."""

    GRID = zl.Grid2D(64, 8.0)

    @pytest.fixture(scope="class")
    def frames(self):
        # a packet moving along both axes, t = 0, 0.1, 0.2
        psi0 = zl.init_gaussian(self.GRID, (0.5, -0.5), 1.0, (1.5, -1.0))
        return zl.evolve_frames(psi0, zl.free_potential(), 1e-2, 20, 10)

    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 2.5)])
    @pytest.mark.parametrize("rho_floor", [schrodinger.DEFAULT_RHO_FLOOR, 1e-6])
    def test_field_on_the_grid_is_the_eager_arrays(self, frames, hbar, mass, rho_floor):
        for f in frames:
            fields = {real: zl.velocity_field(f, hbar, mass, rho_floor, real=real) for real in (False, True)}
            for real, fld in fields.items():
                v, mask = eager_field(f, hbar, mass, rho_floor, real)
                plane, node_mask = expanded(fld.v, np.column_stack(axis_densities(f)), fld.floor)
                plane[node_mask] = 0.0
                assert fld.v.dtype == v.dtype
                assert np.array_equal(bits(plane), bits(v)) and np.array_equal(node_mask, mask)
            # real=True is the complex field's real part, signed zeros included
            assert np.array_equal(bits(fields[True].v), bits(fields[False].v.real))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.one_of(
            st.floats(-18.0, 0.0).map(lambda e: 10.0**e),
            # a floor exactly on some cell's smallest corner product
            st.tuples(st.integers(0, 63), st.integers(0, 63)),
        ),
        st.integers(0, 2),
    )
    def test_axis_cell_test_is_the_cell_mask(self, frames, rho_floor, k):
        """A read of each cell's centre is ok exactly where the dilated node
        mask of the eager field leaves the cell live."""
        f = frames[k]
        cell = None
        if isinstance(rho_floor, tuple):
            cell = rho_floor
            rx, ry = (np.abs(g) ** 2 for g in f.factors)
            i, j = cell
            corner = min(rx[i], rx[(i + 1) % 64]) * min(ry[j], ry[(j + 1) % 64])
            top = float(rx.max()) * float(ry.max())
            # a rho_floor whose floor rounds onto the corner product, where one does
            near = corner / top
            exact = [r for r in (near, np.nextafter(near, 0.0), np.nextafter(near, 1.0)) if r * top == corner]
            rho_floor = exact[0] if exact else near
            cell = cell if exact else None
        fld = zl.velocity_field(f, rho_floor=rho_floor, real=True)
        _, mask = eager_field(f, 1.0, 1.0, rho_floor, True)
        # a cell is masked when any of its corner nodes i|i+1, j|j+1 is (periodic wrap)
        cells = mask | np.roll(mask, -1, axis=0)
        cells |= np.roll(cells, -1, axis=1)
        assert np.array_equal(np.outer(fld.cell_min[:, 0], fld.cell_min[:, 1]) < fld.floor, cells)
        L, h = self.GRID.half_width, self.GRID.spacing
        centres = -L + h * (np.stack(np.indices(cells.shape), axis=-1).reshape(-1, 2) + 0.5)
        _, ok = pilot.FrameInterpolator([fld]).complex_at(f.time, centres)
        assert np.array_equal(ok, ~cells.ravel())
        if cell is not None:
            assert not cells[cell]  # a product equal to the floor is live
            assert pilot.FrameInterpolator([fld]).point_at(f.time, *centres[cell[0] * 64 + cell[1]])[2]

    def probe_points(self, fld, rng):
        """Random points, points in the live cells nearest the floor and in
        the masked cells nearest it, and points on the box edges."""
        L, h = self.GRID.half_width, self.GRID.spacing
        products = np.outer(fld.cell_min[:, 0], fld.cell_min[:, 1]).ravel()
        order = np.argsort(products)
        first = np.searchsorted(products[order], fld.floor)  # the first live cell
        cells = np.concatenate([order[first : first + 40], order[max(first - 40, 0) : first]])
        near = np.column_stack(np.divmod(cells, self.GRID.n)) + rng.uniform(0, 1, size=(len(cells), 2))
        edges = np.array(
            [[-L, 0.3], [0.2, -L], [-L, -L], [L - 1e-12, 0.1], [0.4, L - 0.5 * h], [L, 0.0], [0.0, -L - 1e-9]]
        )
        return np.concatenate([rng.uniform(-L, L, size=(400, 2)), -L + h * near, edges])

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("rho_floor", [1e-6, 0.0])
    def test_the_two_read_forms_agree(self, frames, real, rho_floor):
        """complex_at, real_at and point_at of a field read per axis, against
        the four-corner formula (bilinear_oracle) of its eager arrays, blended
        in time: equal ok flags, and on the ok points values within
        LERP_BOUND (and the time blend's own rounding) of each other.  At a
        point that is not ok the values are unspecified."""
        axial = [zl.velocity_field(f, rho_floor=rho_floor, real=real) for f in frames[:2]]
        eager = [eager_field(f, 1.0, 1.0, rho_floor, real) for f in frames[:2]]
        pts = self.probe_points(axial[0], np.random.default_rng(12))
        reads = [bilinear_oracle(self.GRID, v, mask, pts) for v, mask in eager]
        for t in (0.0, 0.025, 0.1):
            a = t / frames[1].time
            vp, okp = reads[0] if a == 0.0 else ((1.0 - a) * reads[0][0] + a * reads[1][0], reads[0][1] & reads[1][1])
            va, ok = pilot.FrameInterpolator(axial).complex_at(t, pts)
            assert np.array_equal(ok, okp)
            if rho_floor:
                assert ok.any() and not ok.all()
            bound = self.blend_bound(axial, reads, pts, a)
            for part in ("real", "imag"):
                assert np.all((np.abs(getattr(va - vp, part)) <= getattr(bound, part))[ok])
            ra, rok = pilot.FrameInterpolator(axial).real_at(t, pts)
            assert np.array_equal(rok, okp) and np.all((np.abs(ra - vp.real) <= bound.real)[rok])
            ia = pilot.FrameInterpolator(axial)
            for k, (x, y) in enumerate(pts.tolist()):
                ax, ay, aok = ia.point_at(t, x, y)
                assert aok == ok[k], k
                if aok:
                    diff = np.array([ax, ay]) - vp[k]
                    assert np.all(np.abs(diff.real) <= bound[k].real) and np.all(np.abs(diff.imag) <= bound[k].imag)

    @staticmethod
    def blend_bound(axial, reads, pts, a):
        """The per-part bound on |per-axis read - four-corner read| at the
        weight a on the later frame; reads are the frames' four-corner reads."""
        stencil = pilot._Stencil(axial[0].grid, pts)
        if a == 0.0:
            return lerp_bound(axial[0].v, stencil)
        b = 1.0 - a
        own = 2 * gamma(2) * (b * split(reads[0][0]) + a * split(reads[1][0]))
        return b * lerp_bound(axial[0].v, stencil) + a * lerp_bound(axial[1].v, stencil) + own

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["random", "signed_zeros"])
    @pytest.mark.parametrize("t", [None, 0.0, 0.025, 0.1], ids=["one_frame", "a0", "a_quarter", "a1"])
    def test_one_point_equals_its_batch_row_bit_for_bit(self, array_kernel, real, zeros, t):
        grid, rng = self.GRID, np.random.default_rng(9)
        frames = []
        for time in (0.0, 0.1):
            v = rng.normal(size=(grid.n, 2)) + 1j * rng.normal(size=(grid.n, 2))
            if zeros:  # sums of zero products show the arithmetic's sign rules
                for k, z in enumerate((complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.0, 0.0))):
                    v[5 + 12 * k : 17 + 12 * k, k % 2] = z
            rho = rng.uniform(0.5, 1.0, size=(grid.n, 2))
            rho[[17, 40], [1, 0]] = 1e-3  # masks the cells around x node 40 and y node 17
            frames.append(axis_field(grid, np.ascontiguousarray(v.real) if real else v, time, rho, 0.1))
        interp = pilot.FrameInterpolator(frames[:1] if t is None else frames)
        t = 0.0 if t is None else t
        pts = kernel_probe_points(grid, 1000, np.random.default_rng(8))
        vals, ok = interp.complex_at(t, pts)
        if zeros:  # the batch holds zeros of both signs
            parts = vals.view(float)
            assert np.any((parts == 0) & np.signbit(parts)) and np.any((parts == 0) & ~np.signbit(parts))
        assert ok.any() and np.any(~ok & pilot._in_box(pts, grid.half_width))
        array_kernel.clear()
        for k, (x, y) in enumerate(pts.tolist()):
            vx, vy, one_ok = interp.point_at(t, x, y)
            assert {type(vx), type(vy)} == {complex if vals.dtype.kind == "c" else float} and type(one_ok) is bool
            assert np.array_equal(bits(np.array([[vx, vy]])), bits(vals[k : k + 1])), k
            assert one_ok == ok[k], k
        assert not array_kernel

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_cells_the_table_masks_take_each_frames_test(self, real):
        """Two fields whose floors differ: the table's cell test (the smaller
        cell minima against the larger floor) masks cells that both frames
        leave live, and complex_at and point_at still give the ok flags of the
        two frames' own tests, which are those of the four-corner formula."""
        grid, rng = self.GRID, np.random.default_rng(14)
        frames, oracle_ok = [], []
        for time, floor in ((0.0, 0.05), (0.1, 0.3)):
            v = rng.normal(size=(grid.n, 2)) + 1j * rng.normal(size=(grid.n, 2))
            rho = rng.uniform(0.2, 1.0, size=(grid.n, 2))
            frames.append(axis_field(grid, v.real.copy() if real else v, time, rho, floor))
            oracle_ok.append(lambda pts, v=v, rho=rho, floor=floor: bilinear_oracle(grid, *expanded(v, rho, floor), pts)[1])
        pts = kernel_probe_points(grid, 2000, np.random.default_rng(15))
        st = pilot._Stencil(grid, pts)

        def cell_test(cell_min, floor):
            m = cell_min.take(st.lo)
            return m[:, 0] * m[:, 1] < floor

        exact = cell_test(frames[0].cell_min, 0.05) | cell_test(frames[1].cell_min, 0.3)
        table = cell_test(np.minimum(frames[0].cell_min, frames[1].cell_min), 0.3)
        assert np.all(table | ~exact)  # the table's test is sufficient
        assert np.count_nonzero(st.inside & table & ~exact) >= 100  # and not necessary
        assert np.any(st.inside & exact) and np.any(st.inside & ~table)
        for t in (0.0, 0.025, 0.1):
            frames_read = frames if t else frames[:1]
            expected = st.inside & ~(exact if t else cell_test(frames[0].cell_min, 0.05))
            _, ok = pilot.FrameInterpolator(frames_read).complex_at(t, pts)
            assert np.array_equal(ok, expected)
            assert np.array_equal(np.logical_and.reduce([read(pts) for read in oracle_ok[: len(frames_read)]]), expected)
            interp = pilot.FrameInterpolator(frames_read)
            assert [interp.point_at(t, x, y)[2] for x, y in pts.tolist()] == expected.tolist()


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

    @pytest.mark.parametrize("dt", [0.0, -5e-3])
    def test_non_positive_dt_rejected(self, free_fields, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            zl.integrate_trajectory(free_fields, (0.5, 0.0), dt=dt)


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
        return [zl.WaveFunction(f.grid, f.factors, f.time + self.SHIFT) for f in frames]

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

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)], ids=["nan_real", "inf_imag"])
    def test_non_finite_field_raises(self, grid, bad):
        # a live field whose Vx is bad at every node: the first cycle's read is not finite
        v = np.zeros((grid.n, 2), dtype=complex)
        v[:, 0] = bad
        fields = [axis_field(grid, v, t) for t in (0.0, 0.1, 0.2)]
        with pytest.raises(zl.NonFiniteVelocity, match="guiding field produced a non-finite value"):
            zl.guide_process(fields, zl.PhysParams(epsilon=4e-3), zl.Permutation(), (1.0, 0.0), 0.2)

    def test_no_params_rejected_before_any_field_is_read(self):
        def fields():
            raise AssertionError("read a field")
            yield

        with pytest.raises(zl.InvalidInput, match="at least one PhysParams"):
            zl.guide_processes(fields(), [], zl.Permutation(), (1.0, 0.0), 1.0)

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

    @staticmethod
    def plane_histogram(psi, bins):
        """coarse_density_histogram's n^2 form: each of the four overlap
        pieces of every cell added into its bin by np.add.at."""
        rho = psi.density()
        bx0, bx1, fx = pilot._axis_bin_split(psi.grid, bins)
        by0, by1, fy = pilot._axis_bin_split(psi.grid, bins)
        hist = np.zeros((bins, bins))
        for bx, wx in ((bx0, fx), (bx1, 1.0 - fx)):
            for by, wy in ((by0, fy), (by1, 1.0 - fy)):
                np.add.at(hist, (bx[:, None], by[None, :]), rho * wx[:, None] * wy[None, :])
        return hist / hist.sum()

    @pytest.mark.parametrize("n, bins", [(64, 8), (64, 7), (128, 32), (256, 7)])
    def test_product_histogram_is_the_plane_sum(self, n, bins):
        """The per-axis histogram of a product frame equals the n^2 sum over
        psi.density() = outer(rx, ry) within the rounding of both.  The terms
        are non-negative, so a sum of k computed terms is within gamma_(k-1)
        of its exact value.  Each bin of the n^2 form sums at most 4 c^2
        terms of 3 roundings (c = n/bins + 2 cells touch a bin per axis);
        each per-axis sum at most 2c terms of 1 rounding, then one add and
        the outer product.  Normalizing adds the bins^2 - 1 additions of the
        total and one divide."""
        grid = zl.Grid2D(n, 8.0)
        psi = zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.5, -1.0))
        expected = self.plane_histogram(psi, bins)
        c = n // bins + 2
        plane, axial = 3 + 4 * c * c, 2 * (2 * c + 1) + 1
        k_plane, k_axial = 2 * plane + bins * bins, 2 * axial + bins * bins
        bound = (gamma(k_plane) + gamma(k_axial)) * expected / (1 - gamma(k_plane))
        assert np.all(np.abs(pilot.coarse_density_histogram(psi, bins) - expected) <= bound)

    def test_equivariance_report(self, free_frames):
        rep = zl.ensemble_equivariance(free_frames, 4000, 7)
        assert rep.failures == 0
        assert rep.tv_distance < 0.08  # noise floor at N=4e3
        again = zl.ensemble_equivariance(free_frames, 4000, 7)
        assert again.tv_distance == rep.tv_distance

    def test_stationary_state_keeps_histogram(self, ground_fields, grid):
        fx, fy = zl.harmonic_ground_state(grid, 1.0).factors
        frames = [zl.WaveFunction(grid, (fx * np.exp(-1j * t), fy), float(t)) for t in np.linspace(0, 1.0, 11)]
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

    @pytest.mark.parametrize("k", [1, 2])
    def test_default_failure_bound(self, free_frames, monkeypatch, k):
        # the default max_failure_fraction of 1e-3 lets 1 of 1000 paths fail, not 2
        real_batch = pilot._rk4_batch

        def failing_batch(*args):
            finals, alive, fail_step, left_box = real_batch(*args)
            assert alive.all()
            alive[:k] = False
            return finals, alive, fail_step, left_box

        monkeypatch.setattr(pilot, "_rk4_batch", failing_batch)
        T = float(free_frames[2].time)
        if k == 1:
            rep = zl.ensemble_equivariance(free_frames[:3], 1000, 3, T=T)
            assert rep.failures == rep.failures_node == 1
        else:
            with pytest.raises(zl.EnsembleFailure, match="2/1000"):
                zl.ensemble_equivariance(free_frames[:3], 1000, 3, T=T)

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


class TestMarginalCdf:
    """The batch transport of a product stream keeps each axis's marginal
    CDF along every path, F_T(x_T) = F_0(x_0), to within the transport's own
    error at the frame spacing."""

    GRID = zl.Grid2D(64, 8.0)
    STRIDE = 5  # solver steps of 1e-3 per frame: a frame spacing of 5e-3

    def test_is_the_gaussian_cdf(self):
        # |f|^2 of sigma0 = 1 is the normal density of variance 1 about 0.5; the
        # tail outside the box and the spectral error are far below 1e-12
        psi = zl.init_gaussian(self.GRID, (0.5, -0.5), 1.0, (1.5, -1.0))
        x = np.array([-8.0, -1.3, 0.5, 2.2, 8.0 - 1e-9])
        for axis, centre in ((0, 0.5), (1, -0.5)):
            expected = stats.norm.cdf(x, loc=centre)
            expected[0], expected[-1] = 0.0, 1.0
            assert np.max(np.abs(verification.marginal_cdf(psi, axis, x) - expected)) < 1e-12

    def transport(self, stride):
        """(residual, positions at T, alive, frame at T) of 2,000 samples of a
        packet moving along both axes, moved to T = 1 by _rk4_batch one frame
        interval per step."""
        psi0 = zl.init_gaussian(self.GRID, (0.5, -0.5), 1.0, (1.5, -1.0))
        frames = zl.evolve_frames(psi0, zl.free_potential(), 1e-3, 1000, stride)
        interp = pilot.FrameInterpolator(zl.velocity_field(f, real=True) for f in frames)
        x0 = zl.sample_from_density(frames[0], 2000, np.random.default_rng(5))
        xT, alive, _, _ = pilot._rk4_batch(interp, x0, interp.spacing, len(frames) - 1)
        residual = max(
            np.max(np.abs(verification.marginal_cdf(frames[-1], a, xT[alive, a])
                          - verification.marginal_cdf(frames[0], a, x0[alive, a])))
            for a in (0, 1)
        )
        return residual, xT, alive, frames[-1]

    def check(self):
        """(residual at STRIDE, its bound).  The transport error is second
        order in the frame spacing (the time interpolation), so the run at
        twice the stride moves each point 4 times as far from its exact end,
        and |F_T(x_2s) - F_T(x_s)| / 3 estimates the error at s (Richardson).
        The bound is twice the largest estimate."""
        residual, xs, alive, last = self.transport(self.STRIDE)
        _, x2s, alive2, _ = self.transport(2 * self.STRIDE)
        both = alive & alive2
        assert both.all()
        estimate = max(
            np.max(np.abs(verification.marginal_cdf(last, a, x2s[:, a]) - verification.marginal_cdf(last, a, xs[:, a])))
            for a in (0, 1)
        ) / 3
        return residual, 2 * estimate

    def test_transport_keeps_each_marginal_cdf(self):
        residual, bound = self.check()
        assert residual <= bound  # 4.6e-7 against 9.9e-7

    def test_a_velocity_error_of_1e_4_fails_the_check(self, monkeypatch):
        clean, _ = self.check()
        real_at = pilot.FrameInterpolator.real_at

        def scaled(self, t, pts):
            vals, ok = real_at(self, t, pts)
            return vals * (1 + 1e-4), ok

        monkeypatch.setattr(pilot.FrameInterpolator, "real_at", scaled)
        residual, bound = self.check()
        assert residual > bound  # 5.7e-5 against 9.9e-7
        assert residual > 10 * clean


def rk4_oracle(interp, x0, dt, n_steps, slopes=None):
    """The RK4 loop _rk4_batch ran before it became a stepper, for one point
    that must stay alive: its history (n_steps + 1, 1, 2).  A list slopes
    gets each step's stage slopes (4, 2)."""
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
        if slopes is not None:
            slopes.append(np.concatenate([k1, k2, k3, k4]))
    return history


def continuous_extension(history, slopes, h, offsets):
    """RK4's order-3 dense output of history (n + 1, 2) with stage slopes
    (n, 4, 2) and steps h, one offset from t0 at a time: y_i + h (b1 k1 +
    b2 k2 + b3 k3 + b4 k4) at theta = offset / h - i, with b1 = theta -
    3 theta^2 / 2 + 2 theta^3 / 3, b2 = b3 = theta^2 - 2 theta^3 / 3 and
    b4 = -theta^2 / 2 + 2 theta^3 / 3; an offset within 1e-9 steps of step
    boundary i is y_i."""
    out = []
    for offset in offsets:
        u = offset / h
        if abs(u - round(u)) <= 1e-9:
            out.append(history[round(u)])
            continue
        i = math.floor(u)
        th = u - i
        th2 = th * th
        th3 = th2 * th
        b1 = th - 3 * th2 / 2 + 2 * th3 / 3
        b2 = th2 - 2 * th3 / 3
        b4 = -th2 / 2 + 2 * th3 / 3
        k1, k2, k3, k4 = slopes[i]
        out.append(history[i] + h * (b1 * k1 + b2 * k2 + b2 * k3 + b4 * k4))
    return np.array(out)


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
        v = np.zeros((grid.n, 2), dtype=complex)
        v[:, 0] = vx
        yield axis_field(grid, v, 0.05 * k, floor=2.0 if masked_from is not None and k >= masked_from else 0.0)


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
    def test_equals_the_per_epsilon_oracle(self, free_frames, free_fields, frames, monkeypatch):
        # n: steps of the frame spacing 5e-3 over the latest process end, 0.5
        # or 0.288 (18, 36 and 72 cycles), so that no step is longer
        if frames == "free":
            fields, T, n = free_fields, 0.5, 100
        elif frames == "ulp_retimed":
            fields, T, n = [zl.velocity_field(f) for f in ulp_retimed(free_frames)], 0.29, 58
        else:  # a pair's dt = ((t0 + n eps) - t0) / n is not eps here
            fields, T, n = [dataclasses.replace(f, time=f.time + 0.3) for f in free_fields[:61]], 0.59, 58
        dense = []
        read = pilot._dense_output
        monkeypatch.setattr(pilot, "_dense_output", lambda *args: dense.append(args) or read(*args))
        x0 = (1.0, 0.2)
        pairs = self.sweep(iter(fields), x0, T)
        span = max((len(run) - 1) * eps for eps, (run, _) in zip(self.EPSILONS, pairs))
        h = span / n
        slopes = []
        history = rk4_oracle(WholeListInterpolator(fields), np.array([x0]), h, n, slopes)[:, 0, :]
        slopes = np.array(slopes).reshape(n, 4, 2)
        # one shared history, the RK4 oracle's at h bit for bit
        assert len(dense) == 3 and all(args[0] is dense[0][0] for args in dense)
        assert np.array_equal(dense[0][0], history) and np.array_equal(dense[0][1], slopes)
        for eps, (run, ref) in zip(self.EPSILONS, pairs):
            times, means, ref_times, _, dt = guide_process_oracle(fields, eps, x0, T)
            assert np.array_equal(run.times, times) and np.array_equal(run.means, means)
            assert np.array_equal(ref.times, ref_times) and ref.dt == dt
            assert (ref.rk4_dt, ref.rk4_steps) == (h, n)
            offsets = np.arange(len(ref_times)) * dt
            assert np.array_equal(ref.positions, continuous_extension(history, slopes, h, offsets))

    def test_step_doubling_difference_within_the_per_epsilon_references(self, free_fields):
        # at every cycle boundary, the shared reference against one at h / 2,
        # and each per-eps reference against its own half-step run
        x0, T = (1.0, 0.0), 1.0
        interp = WholeListInterpolator(free_fields)
        new, old = [], []
        for eps, (run, ref) in zip(self.EPSILONS, self.sweep(free_fields, x0, T)):
            h, n = ref.rk4_dt, ref.rk4_steps
            slopes = []
            half = rk4_oracle(interp, np.array([x0]), h / 2, 2 * n, slopes)[:, 0, :]
            offsets = np.arange(len(ref.times)) * ref.dt
            half = continuous_extension(half, np.array(slopes).reshape(2 * n, 4, 2), h / 2, offsets)
            new.append(np.max(np.linalg.norm(ref.positions[::4] - half[::4], axis=1)))
            _, _, _, positions, dt = guide_process_oracle(free_fields, eps, x0, T)
            half = rk4_oracle(interp, np.array([x0]), dt / 2, 2 * (len(positions) - 1))[::2, 0, :]
            old.append(np.max(np.linalg.norm(positions[::4] - half[::4], axis=1)))
        # the per-eps steps of 4e-3 and 2e-3 straddle frame times, where the
        # field's time interpolation has a kink; those of 1e-3 align with the
        # frames, and that reference, at a fifth of h, is the more accurate one
        assert new[0] <= old[0] and new[1] <= old[1]
        assert max(new) <= max(old)

    @pytest.mark.parametrize(
        "epsilons, reads",
        [("4e-3, 2e-3, 1e-3", 437 + 4 * 200), ("2e-3, 1e-3, 5e-4", 875 + 4 * 200)],
        ids=["default", "perfbench_guided"],
    )
    def test_guided_run_reads_each_boundary_and_four_per_reference_step(self, tmp_path, monkeypatch, epsilons, reads):
        # T = 1 at the frame spacing 5e-3: 200 reference steps, and one read per
        # cycle boundary (62 + 125 + 250 or 125 + 250 + 500 cycles)
        count = [0]
        point_at = pilot.FrameInterpolator.point_at

        def counted(*args):
            count[0] += 1
            return point_at(*args)

        monkeypatch.setattr(pilot.FrameInterpolator, "point_at", counted)
        result = run_scenario(parse_config(f"scenario = guided_process\nguided_epsilons = {epsilons}\n"), tmp_path)
        assert result.passed and count[0] == reads
        report = json.loads(Path(tmp_path, "guided_process.json").read_text())
        assert report["reference"] == {"dt": 1.0 / 200, "steps": 200}

    def test_generator_fields_are_released(self, free_fields, steppers):
        alive, peak = [0], [0]

        def released():
            alive[0] -= 1

        def fields():
            for f in free_fields:
                held = copy.copy(f)
                alive[0] += 1
                weakref.finalize(held, released)
                peak[0] = max(peak[0], alive[0])
                yield held
                del held

        streamed = self.sweep(fields(), (1.0, 0.2), 0.3)
        held = self.sweep(free_fields, (1.0, 0.2), 0.3)
        for (run, ref), (run1, ref1) in zip(streamed, held):
            assert np.array_equal(run.means, run1.means) and np.array_equal(ref.positions, ref1.positions)
        # the window's three fields plus the one being built
        assert 0 < peak[0] <= 3 + 1
        assert len(steppers) == 8 and self.all_closed(steppers)

    def test_center_in_a_masked_cell_raises_mid_sweep(self, steppers):
        stream = Pulled(drift_fields(21, 1.0, masked_from=4))
        with pytest.raises(zl.NodeRegion, match="gravity center .* entered a masked region"):
            self.sweep(stream, (0.0, 0.0), 1.0, epsilons=(0.01, 0.005, 0.0025))
        assert stream.count <= 6
        assert len(steppers) == 4 and self.all_closed(steppers)

    def test_center_outside_the_box_wins_over_earlier_reference_failures(self, monkeypatch):
        failed = []
        make = pilot._point_rk4_stepper

        def spy(x0, t0, dt, n_steps, half_width):
            history, slopes, fail_step, left_box = yield from make(x0, t0, dt, n_steps, half_width)
            failed.append((t0 + fail_step * dt, left_box))
            return history, slopes, fail_step, left_box

        monkeypatch.setattr(pilot, "_point_rk4_stepper", spy)
        message = "gravity center (8.075, 0) left the box at t = 0.21"
        with pytest.raises(zl.LeftDomain, match=re.escape(message)):
            self.sweep(drift_fields(21, 5.0), (7.025, 0.0), 1.0, epsilons=(0.0075,))
        # the reference (20 steps of 0.0495 over 33 cycles) left the box in its
        # step from t = 0.1485 to 0.198, before the process read a center outside it
        assert len(failed) == 1 and failed[0][1] and failed[0][0] == pytest.approx(0.1485)

    def test_reference_leaving_the_box_raises(self, steppers):
        # the processes' last reads (t = 0.16, 0.18, 0.19) are inside the
        # box; the references run on to t = 0.2 and end at x = 8.025
        with pytest.raises(zl.LeftDomain, match="left the box"):
            self.sweep(Pulled(drift_fields(5, 5.0)), (7.025, 0.0), 0.2, epsilons=(0.01, 0.005, 0.0025))
        assert len(steppers) == 4 and self.all_closed(steppers)

    def test_T_past_the_stream_raises(self, steppers):
        stream = Pulled(drift_fields(5, 1.0))
        with pytest.raises(zl.InvalidInput, match="past the last frame"):
            self.sweep(stream, (0.0, 0.0), 1.0, epsilons=(0.01, 0.005, 0.0025))
        assert stream.count == 5
        assert len(steppers) == 4 and self.all_closed(steppers)

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
        field = synthetic_field(grid, masked_x=80)
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

    def test_generator_frames_are_released(self, free_frames, monkeypatch):
        held = zl.ensemble_equivariance(free_frames, 2000, 21)
        alive, peak = {"frames": 0, "fields": 0}, {"frames": 0, "fields": 0}

        def released(kind):
            alive[kind] -= 1

        def counted(obj, kind):
            alive[kind] += 1
            peak[kind] = max(peak[kind], alive[kind])
            weakref.finalize(obj, released, kind)
            return obj

        def frames():
            for f in free_frames:
                yield counted(f.copy(), "frames")

        build = pilot.velocity_field
        monkeypatch.setattr(pilot, "velocity_field", lambda *a, **k: counted(build(*a, **k), "fields"))
        rep = zl.ensemble_equivariance(frames(), 2000, 21, T=float(free_frames[-1].time))
        self.same_report(rep, held)
        # the window holds fields, not frames: the only frames alive are
        # frame 0 until the seeds are drawn, the frame at T and the frame
        # being turned into a field
        assert 0 < peak["frames"] <= 3
        # the window's three fields plus the one _pull appends before
        # _bracket drops the oldest
        assert 0 < peak["fields"] <= 3 + 1

    def test_no_frame_at_T(self, free_frames):
        between = 0.5 * (free_frames[3].time + free_frames[4].time)
        for frames in (free_frames[:10], iter(free_frames[:10])):
            with pytest.raises(zl.InvalidInput, match="no frame at T"):
                zl.ensemble_equivariance(frames, 1000, 3, T=between)
        # the stream ends before T
        with pytest.raises(zl.InvalidInput, match="no frame at T"):
            zl.ensemble_equivariance(iter(free_frames[:10]), 1000, 3, T=float(free_frames[20].time))

    def test_T_before_the_first_frame(self, free_frames):
        for frames in (free_frames[2:10], iter(free_frames[2:10])):
            with pytest.raises(zl.InvalidInput, match="no frame at T"):
                zl.ensemble_equivariance(frames, 1000, 3, T=float(free_frames[1].time))

    @pytest.mark.parametrize("T", [None, 0.1])
    def test_no_frames_rejected(self, T):
        with pytest.raises(zl.InvalidInput, match="need at least one frame"):
            zl.ensemble_equivariance(iter([]), 1000, 3, T=T)

    def test_stream_error_surfaces_where_the_serial_read_raises_it(self, free_frames):
        error = zl.ResolutionLoss("spectral mass reached the aliasing band; refine the grid")

        def failing(at):
            yield from free_frames[:at]
            raise error

        T = float(free_frames[120].time)
        with pytest.raises(zl.ResolutionLoss) as raised:
            zl.ensemble_equivariance(failing(60), 2000, 21, T=T)
        assert raised.value is error
        # the last RK4 step closes its bracket at T with frame 121, so an
        # error in place of frame 121 is read, and one after it is not
        with pytest.raises(zl.ResolutionLoss):
            zl.ensemble_equivariance(failing(121), 2000, 21, T=T)
        self.same_report(
            zl.ensemble_equivariance(failing(122), 2000, 21, T=T),
            zl.ensemble_equivariance(free_frames, 2000, 21, T=T),
        )

    def test_fields_are_built_on_the_calling_thread(self, free_frames, monkeypatch):
        """Each Re V field is built on the caller's thread right after its
        frame is read, never ahead of the transport."""
        events = []

        def frames():
            for i, f in enumerate(free_frames):
                events.append(("read", i, threading.get_ident()))
                yield f

        build = pilot.velocity_field

        def logged(frame, *args, **kwargs):
            events.append(("build", round(float(frame.time) / float(free_frames[1].time)), threading.get_ident()))
            return build(frame, *args, **kwargs)

        monkeypatch.setattr(pilot, "velocity_field", logged)
        zl.ensemble_equivariance(frames(), 2000, 21, T=float(free_frames[20].time))
        caller = threading.get_ident()
        # frames 0 to 20 and the frame after T, which closes the last bracket
        assert events == [(kind, i, caller) for i in range(22) for kind in ("read", "build")]

    @pytest.mark.parametrize("k", range(6))
    def test_close_after_k_items_bounds_the_reads(self, free_frames, k):
        """An ensemble to T = frame k's time closes its stream after k frame
        intervals: it has read the frames up to T and at most the one after
        it, which closes the last RK4 bracket at T."""
        source = Pulled(free_frames)
        T = float(free_frames[k].time)
        self.same_report(
            zl.ensemble_equivariance(source, 2000, 21, T=T),
            zl.ensemble_equivariance(free_frames, 2000, 21, T=T),
        )
        assert k + 1 <= source.count <= k + 2


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


class TestBoxEdge:
    """The box is [-L, L) for every read and every transport step: a step
    that lands exactly on x = -L is taken, and the step after it fails."""

    @staticmethod
    def fields():
        """Re V = (-1, 0) at t = 0 and t = 1 on the 16^2 box of half width 10."""
        grid = zl.Grid2D(16, 10.0)
        v = np.zeros((grid.n, 2))
        v[:, 0] = -1.0
        return [axis_field(grid, v, t) for t in (0.0, 1.0)]

    def test_one_point(self):
        assert pilot.FrameInterpolator(self.fields()).point_at(0.5, -10.0, 0.0) == (-1.0, 0.0, True)
        with pytest.raises(zl.LeftDomain) as err:
            zl.integrate_trajectory(self.fields(), (-9.5, 0.0), 0.5, T=1.0)
        assert str(err.value) == "trajectory from (-9.5, 0) left the box at t = 0.5, position (-10, 0)"

    def test_batch(self):
        interp = pilot.FrameInterpolator(self.fields())
        finals, alive, fail_step, left_box = pilot._rk4_batch(interp, np.array([[-9.5, 0.0]]), 0.5, 2)
        assert finals.tolist() == [[-10.0, 0.0]]
        assert alive.tolist() == [False] and fail_step.tolist() == [1] and left_box.tolist() == [True]


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
    # cell by cell, as the earlier row loop wrote them
    trajectories = enumerate([t1, t2])
    assert lines[1:] == [
        f"{idx},{t:.17g},{x:.17g},{y:.17g}" for idx, tr in trajectories for t, (x, y) in zip(tr.times, tr.positions)
    ]
    pilot.trajectories_to_csv(path, [])
    assert path.read_text() == "seed_index,t,x,y\n"
