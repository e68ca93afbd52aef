"""V on the n x n grid, for the tests' reference solvers: the package
itself reads a potential only through its per-axis parts."""

import numpy as np

from zitterlab.schrodinger import PotentialKind


def potential_plane(pot, grid, mass):
    """V at array index [ix, iy], position (x[ix], y[iy]): zeros for the free
    V, (m/2)(wx^2 x^2 + wy^2 y^2) for a harmonic V."""
    if pot.kind is PotentialKind.FREE:
        return np.zeros((grid.n, grid.n))
    X, Y = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    wx, wy = pot.omega
    return 0.5 * mass * ((wx * X) ** 2 + (wy * Y) ** 2)
