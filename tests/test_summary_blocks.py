"""frames_summary_csv sums its frames in stacked blocks of up to
SUMMARY_BLOCK: its rows, and energy() and moments() (the same kernel on
one-frame blocks), equal the former per-frame functions, kept here as
references, bit for bit."""

import math

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import schrodinger as sch
from zitterlab.fileio import write_csv

HEADER = ["t", "norm", "energy", "x_mean", "y_mean", "sigma_x", "sigma_y"]


def loop_energy(psi, rho, w, parts):
    """The former per-frame _energy: 1D sums over each factor and its FFT."""
    grid = psi.grid
    h = grid.spacing
    sx, sy = (float(r.sum()) for r in rho)
    nx, ny = sx * h, sy * h
    kx, ky = (float(np.sum(w * np.abs(np.fft.fft(f)) ** 2)) * h / grid.n for f in psi.factors)
    e = kx * ny + nx * ky
    if parts is not None:
        a, b = parts[0], parts[-1]
        e += (float(a @ rho[0]) * sy + sx * float(b @ rho[1])) * grid.cell_area()
    return e


def loop_moments(grid, rho):
    """The former per-frame _moments of the axis densities rho."""
    x = grid.axis
    means, sigmas = [], []
    for p in rho:
        p = p / p.sum()
        mean = float(np.dot(p, x))
        means.append(mean)
        sigmas.append(float(np.sqrt(np.dot(p, (x - mean) ** 2))))
    return (*means, *sigmas)


def loop_rows(frames, pot, hbar, mass):
    """The former frames_summary_csv rows: one frame at a time."""
    rows = []
    for frame in frames:
        grid = frame.grid
        terms = sch._energy_terms(grid, pot, hbar, mass)
        rho = sch._densities(frame)
        norm = math.sqrt(sch._squared_norm(grid, rho))
        rows.append([frame.time, norm, loop_energy(frame, rho, *terms), *loop_moments(grid, rho)])
    return rows


def bits(rows):
    return np.array(rows, dtype=float).view(np.uint64)


POTENTIALS = {
    "free": zl.free_potential(),
    "anisotropic": zl.harmonic_potential(1.0, 1.5),
    "isotropic": zl.harmonic_potential(0.8),
}


@pytest.fixture(scope="module", params=[64, 256], ids=lambda n: f"n{n}")
def grid(request):
    return zl.Grid2D(request.param, 8.0)


@pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("kind", sorted(POTENTIALS))
def test_block_rows_equal_the_per_frame_loop(grid, tmp_path, kind, hbar, mass):
    # 151 frames: blocks of 64, 64 and a partial 23
    n_frames = 2 * sch.SUMMARY_BLOCK + 23
    pot = POTENTIALS[kind]
    psi0 = zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.0, 0.5))
    frames = zl.evolve_frames(psi0, pot, 1e-3, 2 * (n_frames - 1), 2, hbar, mass)
    assert len(frames) == n_frames
    last, rows = sch.frames_summary_csv(tmp_path / "s.csv", iter(frames), pot, hbar, mass)
    reference = loop_rows(frames, pot, hbar, mass)
    assert last is frames[-1] and len(rows) == n_frames
    assert np.array_equal(bits(rows), bits(reference))
    write_csv(tmp_path / "loop.csv", HEADER, zip(*reference))
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    # energy() and moments() are the kernel on one-frame blocks
    for f in frames[:: 10]:
        rho = sch._densities(f)
        e = loop_energy(f, rho, *sch._energy_terms(grid, pot, hbar, mass))
        assert sch.energy(f, pot, hbar, mass) == e and type(sch.energy(f, pot, hbar, mass)) is float
        assert bits(sch.moments(f)).tolist() == bits(loop_moments(grid, rho)).tolist()


@pytest.mark.parametrize(
    "second",
    [zl.Grid2D(128, 10.0), zl.Grid2D(256, 8.0)],
    ids=["same_n_other_width", "other_n"],
)
def test_a_frame_on_another_grid_is_refused(tmp_path, second):
    first = zl.Grid2D(128, 8.0)
    frames = [zl.init_gaussian(g, (0.0, 0.0), 1.0, (0.0, 0.0)) for g in (first, second)]
    path = tmp_path / "summary.csv"
    with pytest.raises(zl.InvalidInput) as exc:
        sch.frames_summary_csv(path, frames, zl.free_potential())
    assert str(exc.value) == f"frame 1 lives on {second}, the summary's frames on {first}"
    assert not path.exists()


def test_an_error_in_the_second_block_writes_no_file(tmp_path):
    # a stiff well pushes the packet's spectrum into the aliasing band at frame 93
    grid = zl.Grid2D(64, 8.0)
    psi0 = zl.init_gaussian(grid, (0.5, 0.0), 1.0, (0.0, 0.0))
    pot = zl.harmonic_potential(4.0)
    yielded = 0

    def counted(stream):
        nonlocal yielded
        for frame in stream:
            yielded += 1
            yield frame

    path = tmp_path / "summary.csv"
    with pytest.raises(zl.ResolutionLoss, match="aliasing band"):
        sch.frames_summary_csv(path, counted(zl.stream_frames(psi0, pot, 1e-3, 400, 1)), pot)
    assert sch.SUMMARY_BLOCK < yielded < 2 * sch.SUMMARY_BLOCK
    assert not path.exists() and list(tmp_path.iterdir()) == []
