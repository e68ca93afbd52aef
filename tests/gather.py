"""The per-axis ratios of psi_ratios, gathered onto the live cells."""

import numpy as np

from zitterlab import schrodinger


def gathered_ratios(psi, rho_floor=schrodinger.DEFAULT_RHO_FLOOR, laplacian=False):
    """(live, ratios, rho, mask) of psi: rho = np.outer(rx, ry) the n x n
    density, mask rho < floor, live = np.flatnonzero(~mask) the flat
    row-major indices of the live cells, and ratios (2, L) at the L live
    cells, (fx'/fx, fy'/fy), with laplacian=True a third row fx''/fx +
    fy''/fy = Lap(Psi)/Psi.  Live cell (i, j) reads axis nodes i and j,
    i, j = np.divmod(live, n)."""
    rx, ry, floor, (ratio_x, ratio_y) = schrodinger.psi_ratios(psi, rho_floor, laplacian)
    rho = np.outer(rx, ry)
    mask = rho < floor
    live = np.flatnonzero(~mask)
    i, j = np.divmod(live, psi.grid.n)
    ax, ay = ratio_x[:, i], ratio_y[:, j]
    ratios = [ax[0], ay[0], ax[1] + ay[1]] if laplacian else [ax[0], ay[0]]
    return live, np.array(ratios), rho, mask
