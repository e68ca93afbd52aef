"""The per-frame kernels hold a product frame's two axis factors as one (2, n)
array: they equal the former per-axis loops, kept here as references, bit
for bit, and raise the same errors."""

import math
import warnings

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import pilot
from zitterlab import schrodinger as sch


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def loop_guard(prop, spectra, norm0, steps):
    """The former per-axis _guard: one pass over each factor's spectrum."""
    grid = prop.grid
    band = np.abs(grid.wavenumbers) >= sch.ALIAS_BAND_FRACTION * grid.nyquist
    totals, alias = [], 0.0
    for spectrum in spectra:
        power = np.abs(spectrum) ** 2
        total = float(power.sum())
        if not math.isfinite(total):
            raise zl.ResolutionLoss("wave function became non-finite (NaN or inf)")
        ratio = float(power[band].sum()) / total if total > 0.0 else 0.0
        alias += ratio - alias * ratio
        totals.append(total)
    if alias > sch.ALIAS_MASS_LIMIT:
        raise zl.ResolutionLoss("spectral mass reached the aliasing band; refine the grid")
    norm = math.prod(totals) * grid.cell_area() / grid.n**2
    bound = sch._norm_bound(grid.n, steps)
    if abs(norm - norm0) > bound * norm0:
        raise zl.ResolutionLoss(
            f"the norm moved by {abs(norm / norm0 - 1.0):.3e} of frame 0's over {steps} steps, "
            f"past its roundoff bound {bound:.3e}"
        )


def loop_advance(prop, psi, n_steps, norm0, steps):
    """The former per-axis Propagator._advance, on prop's operators."""
    if norm0 is None:
        norm0 = sch._squared_norm(prop.grid, sch._densities(psi))
    cached = prop._cached_for(n_steps)
    if prop._axes is None:
        spectra = [np.fft.fft(f) * cached for f in psi.factors]
    else:
        spectra = [f @ op for f, op in zip(psi.factors, cached)]
    loop_guard(prop, spectra, norm0, steps)
    fx, fy = (np.fft.ifft(s) for s in spectra)
    if prop._axes is not None:
        fx, fy = fx * prop._axes[0][0], fy * prop._axes[-1][0]
    return zl.WaveFunction(prop.grid, (fx, fy), psi.time + n_steps * prop.dt)


def loop_frames(prop, psi, stride, n_frames):
    """Propagator.frames over loop_advance: frame k is frame 0 advanced by
    k strides (free), or frame k - 1 by one stride (harmonic)."""
    frame = psi.copy()
    norm0 = sch._squared_norm(prop.grid, sch._densities(frame))
    frames = [frame]
    for k in range(1, n_frames + 1):
        if prop._axes is None:
            frame = loop_advance(prop, frames[0], k * stride, norm0, k * stride)
        else:
            frame = loop_advance(prop, frame, stride, norm0, k * stride)
        frames.append(frame)
    return frames


def loop_psi_ratios(psi, rho_floor=sch.DEFAULT_RHO_FLOOR, laplacian=False):
    """The former per-axis psi_ratios: one FFT and one inverse FFT per axis."""
    k = psi.grid.wavenumbers
    rx, ry = sch._densities(psi)
    floor = rho_floor * (float(rx.max()) * float(ry.max()))
    axis_ratios = []
    for f, r, other in ((psi.factors[0], rx, ry), (psi.factors[1], ry, rx)):
        spectrum = np.fft.fft(f)
        derivs = np.fft.ifft([1j * k * spectrum, -(k**2) * spectrum][: 2 if laplacian else 1], axis=-1)
        keep = r * float(other.max()) >= floor
        ratio = np.zeros_like(derivs)
        ratio[:, keep] = derivs[:, keep] / f[keep]
        axis_ratios.append(ratio)
    return rx, ry, floor, axis_ratios


def loop_velocity_field(psi, hbar=1.0, mass=1.0, rho_floor=sch.DEFAULT_RHO_FLOOR, real=False):
    """The former velocity_field: column_stack of the per-axis loops and np.roll."""
    rx, ry, floor, (ratio_x, ratio_y) = loop_psi_ratios(psi, rho_floor)
    rho = np.column_stack([rx, ry])
    v = pilot._velocity(np.column_stack([ratio_x[0], ratio_y[0]]), hbar / mass, real)
    return pilot.VelocityField(psi.grid, v, np.minimum(rho, np.roll(rho, -1, axis=0)), floor, psi.time)


STREAMS = {
    # a free 256^2 packet, and an anisotropic well whose two axes take different operators
    "free256": (zl.Grid2D(256, 12.0), zl.free_potential(), (1.0, -0.5), (1.5, 0.75)),
    "anisotropic128": (zl.Grid2D(128, 10.0), zl.harmonic_potential(1.0, 1.5), (1.0, -0.5), (0.5, -1.0)),
}
FLOORS = [sch.DEFAULT_RHO_FLOOR, 1e-3, 0.5]  # 0.5 masks all but a few rows and columns


@pytest.fixture(scope="module", params=list(STREAMS))
def stream(request):
    """(propagator, frames) of a 20-frame stream, 10 steps apart."""
    grid, pot, center, k0 = STREAMS[request.param]
    psi0 = zl.init_gaussian(grid, center, 1.0, k0)
    prop = zl.Propagator(grid, pot, 5e-3)
    return prop, list(prop.frames(psi0, 10, 20))


def assert_same_ratios(stacked, loop):
    rx, ry, floor, (ratio_x, ratio_y) = stacked
    lrx, lry, lfloor, (lratio_x, lratio_y) = loop
    assert floor == lfloor or (math.isnan(floor) and math.isnan(lfloor))
    for a, b in ((rx, lrx), (ry, lry), (ratio_x, lratio_x), (ratio_y, lratio_y)):
        assert a.shape == b.shape and np.array_equal(bits(a), bits(b))


def assert_same_field(a, b):
    assert (a.grid, a.floor, a.time) == (b.grid, b.floor, b.time)
    assert a.v.shape == b.v.shape == (a.grid.n, 2) and a.v.dtype == b.v.dtype
    assert np.array_equal(bits(a.v), bits(b.v)) and np.array_equal(bits(a.cell_min), bits(b.cell_min))


class TestEqualsTheLoops:
    def test_frames(self, stream):
        prop, frames = stream
        reference = loop_frames(prop, frames[0], 10, 20)
        assert len(frames) == len(reference) == 21
        for a, b in zip(frames, reference):
            assert a.time == b.time
            assert all(np.array_equal(bits(fa), bits(fb)) for fa, fb in zip(a.factors, b.factors))

    @pytest.mark.parametrize("laplacian", [False, True])
    @pytest.mark.parametrize("rho_floor", FLOORS)
    def test_psi_ratios(self, stream, rho_floor, laplacian):
        for psi in stream[1]:
            assert_same_ratios(sch.psi_ratios(psi, rho_floor, laplacian), loop_psi_ratios(psi, rho_floor, laplacian))

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("rho_floor", FLOORS)
    def test_velocity_field(self, stream, rho_floor, real):
        for psi in stream[1]:
            args = (0.7, 1.3, rho_floor, real)
            assert_same_field(zl.velocity_field(psi, *args), loop_velocity_field(psi, *args))

    def test_a_high_floor_masks_whole_rows(self, stream):
        psi = stream[1][-1]
        _, _, _, (ratio_x, ratio_y) = sch.psi_ratios(psi, 0.5, laplacian=True)
        for ratio in (ratio_x, ratio_y):
            held = np.any(ratio != 0, axis=0)
            assert 0 < held.sum() < psi.grid.n // 4  # most axis nodes hold no live cell and read 0

    def test_underflowed_tails_raise_no_warning(self):
        # a narrow packet on a wide box: exp(-2 x^2) is exactly 0 past |x| ~ 19, and its density sooner
        grid = zl.Grid2D(128, 40.0)
        x = grid.axis
        psi = zl.WaveFunction(grid, (np.exp(-4.0 * (x - 1.0) ** 2 + 2j * x), np.exp(-2.0 * x**2 - 1j * x)))
        assert all((f == 0).sum() > grid.n // 4 for f in psi.factors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for laplacian in (False, True):
                stacked = sch.psi_ratios(psi, sch.DEFAULT_RHO_FLOOR, laplacian)
                assert_same_ratios(stacked, loop_psi_ratios(psi, sch.DEFAULT_RHO_FLOOR, laplacian))
            for real in (False, True):
                assert_same_field(zl.velocity_field(psi, real=real), loop_velocity_field(psi, real=real))


def errors_of(call):
    try:
        call()
    except zl.ResolutionLoss as exc:
        return str(exc)
    return None


class TestSameErrors:
    @pytest.fixture(scope="class")
    def grid(self):
        return zl.Grid2D(64, 8.0)

    @pytest.fixture(scope="class")
    def factors(self, grid):
        """A clean factor, one with a NaN node and one with 1e-6 of its mass at 54/64 of k_max."""
        x = grid.axis
        clean = np.exp(-(x**2) / 4.0 + 0.5j * x)
        nan = clean.copy()
        nan[5] = np.nan
        aliased = clean * (1.0 + 1e-3 * np.exp(1j * grid.wavenumbers[27] * x))
        return {"clean": clean, "nan": nan, "aliased": aliased}

    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0, 1.5)], ids=["free", "anisotropic"])
    @pytest.mark.parametrize(
        "pair, message",
        [
            (("nan", "clean"), "non-finite"),
            (("clean", "nan"), "non-finite"),
            (("aliased", "nan"), "non-finite"),  # the finiteness of both rows is read before the band
            (("clean", "aliased"), "aliasing band"),
            (("aliased", "clean"), "aliasing band"),
        ],
    )
    def test_bad_factors(self, grid, factors, pot, pair, message):
        psi = zl.WaveFunction(grid, tuple(factors[name] for name in pair))
        prop = zl.Propagator(grid, pot, 1e-3)
        stacked = errors_of(lambda: prop._advance(psi, 2, 1.0, 2))
        assert stacked is not None and message in stacked
        assert stacked == errors_of(lambda: loop_advance(prop, psi, 2, 1.0, 2))

    @pytest.mark.parametrize("pot", [zl.free_potential(), zl.harmonic_potential(1.0, 1.5)], ids=["free", "anisotropic"])
    @pytest.mark.parametrize("jump", [1.0 + 1e-9, 1.0 - 1e-9, 2.0])
    def test_norm_jump(self, grid, factors, pot, jump):
        psi = sch._product_state(grid, factors["clean"], factors["clean"])
        prop = zl.Propagator(grid, pot, 1e-3)
        norm0 = jump * sch._squared_norm(grid, sch._densities(psi))
        stacked = errors_of(lambda: prop._advance(psi, 3, norm0, 3))
        assert stacked is not None and stacked.startswith("the norm moved by")
        assert stacked == errors_of(lambda: loop_advance(prop, psi, 3, norm0, 3))


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024, 2048])
def test_alias_band_is_one_run_of_indices(n):
    grid = zl.Grid2D(n, 3.0)
    band = np.abs(grid.wavenumbers) >= sch.ALIAS_BAND_FRACTION * grid.nyquist
    index = np.zeros(n, dtype=bool)
    index[zl.Propagator(grid, zl.free_potential(), 1e-3)._axis_band] = True
    assert np.array_equal(index, band) and band[n // 2]


class TestWavenumbers:
    def test_computed_once_and_read_only(self):
        grid = zl.Grid2D(64, 8.0)
        k = grid.wavenumbers
        assert grid.wavenumbers is k
        assert np.array_equal(bits(k), bits(2.0 * np.pi * np.fft.fftfreq(64, d=grid.spacing)))
        with pytest.raises(ValueError, match="read-only"):
            k[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            k *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            grid._derivatives[0, 0, 1] = 0.0

    def test_equal_grids_stay_equal_and_hash_equal(self):
        a, b = zl.Grid2D(64, 8.0), zl.Grid2D(64, 8.0)
        a.wavenumbers, a._derivatives  # fill a's cache, not b's
        assert "wavenumbers" in vars(a) and "wavenumbers" not in vars(b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != zl.Grid2D(64, 9.0) and len({a, b}) == 1
