"""Axis swap as a bit-exact relation between two runs: swap the axes of the
initial state (its center and k0, and a harmonic V's wx and wy), and every
frame comes out with its two factors swapped, and every summary row with its
x and y columns swapped.  A defect on one axis breaks the relation wherever
the two axes differ, whatever the tolerance of the physics checks."""

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import schrodinger as sch

CENTER, K0 = (0.5, -0.75), (1.0, -0.5)
POTENTIALS = {
    "free": (zl.free_potential(), zl.free_potential()),
    "harmonic": (zl.harmonic_potential(1.0, 1.5), zl.harmonic_potential(1.5, 1.0)),
}
# a free stream long enough to span several blocks
CASES = [("free", 64, 2 * sch.FRAME_BLOCK + 3), ("free", 256, sch.FRAME_BLOCK + 2), ("harmonic", 64, 12)]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def swapped_streams(kind, n, n_frames, hbar=0.7, mass=1.3):
    """The frames of a packet and of its mirror, and each one's potential."""
    grid = zl.Grid2D(n, 8.0)
    pot, mirror_pot = POTENTIALS[kind]
    psi0 = zl.init_gaussian(grid, CENTER, 1.0, K0)
    mirror0 = zl.init_gaussian(grid, CENTER[::-1], 1.0, K0[::-1])
    frames = zl.evolve_frames(psi0, pot, 1e-2, 3 * n_frames, 3, hbar, mass)
    mirrored = zl.evolve_frames(mirror0, mirror_pot, 1e-2, 3 * n_frames, 3, hbar, mass)
    return (frames, pot), (mirrored, mirror_pot)


@pytest.mark.parametrize("kind, n, n_frames", CASES)
def test_frames_swap_their_factors(kind, n, n_frames):
    (frames, _), (mirrored, _) = swapped_streams(kind, n, n_frames)
    assert len(frames) == len(mirrored) == n_frames + 1
    for a, b in zip(frames, mirrored):
        assert a.time == b.time
        (ax, ay), (bx, by) = a.factors, b.factors
        assert np.array_equal(bits(ax), bits(by)) and np.array_equal(bits(ay), bits(bx))
    # the relation is not vacuous: the two axes differ
    assert not np.array_equal(frames[-1].factors[0], frames[-1].factors[1])


@pytest.mark.parametrize("kind, n, n_frames", CASES)
def test_summary_rows_swap_their_columns(tmp_path, kind, n, n_frames):
    (frames, pot), (mirrored, mirror_pot) = swapped_streams(kind, n, n_frames)
    _, rows = sch.frames_summary_csv(tmp_path / "a.csv", frames, pot, 0.7, 1.3)
    _, mirror_rows = sch.frames_summary_csv(tmp_path / "b.csv", mirrored, mirror_pot, 0.7, 1.3)
    assert len(rows) == len(mirror_rows) == n_frames + 1
    for (t, norm, energy, x, y, sx, sy), row in zip(rows, mirror_rows):
        assert row == [t, norm, energy, y, x, sy, sx]
    # the relation is not vacuous: the means differ, and the widths under an anisotropic V
    _, _, _, x, y, sx, sy = rows[-1]
    assert x != y and (kind == "free" or sx != sy)
