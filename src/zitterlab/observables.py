"""Cycle-averaged observables of the real-part process.

All quantities average the four vertices over the four instants of one cycle
(16 terms).  The vertex fluctuations around the gravity center contribute an
intrinsic angular momentum of exactly -hbar/2 (s_plus) or +hbar/2 (s_minus)
and position/momentum spreads whose product is exactly hbar/2, independent of
eps, mass and the drift program.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .fileio import write_csv
from .process import Permutation, ProcessRun, VERTICES


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2D wedge a_x b_y - a_y b_x on the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True, eq=False)
class CycleTable:
    """Observables of the C complete cycles of a run, one read-only (C,) array
    per column; string_lengths is (C, 4), the perimeters at n = 4q .. 4q+3."""

    cycle_index: np.ndarray
    t_start: np.ndarray
    sigma_z: np.ndarray
    sigma_orbital: np.ndarray
    sigma_intrinsic: np.ndarray
    delta_x: np.ndarray
    delta_px: np.ndarray
    heisenberg_product: np.ndarray
    string_lengths: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return self.cycle_index.size


def intrinsic_spin_closed_form(perm: Permutation, hbar: float) -> float:
    """(hbar/16) sum_j u^j ^ (s u^j - u^j), i.e. u^j ^ s u^j; -hbar/2 for s_plus, +hbar/2 for s_minus."""
    return hbar / 16.0 * float(np.sum(_wedge(VERTICES, perm.offset_table()[1])))


def measure_run(run: ProcessRun) -> CycleTable:
    """Observables of every complete cycle q, from the 5 states n = 4q..4q+4.

    sigma_z is the 16-term average of r^j_n ^ p^j_n with forward-difference
    momenta p^j_n = m (r^j_{n+1} - r^j_n)/eps.  The orbital part is the same
    average for the gravity center itself, so the intrinsic part is carried
    entirely by the vertex fluctuations and is +-hbar/2 to roundoff.  delta_x
    and delta_px are the 16-term spreads along x; string_lengths are the
    perimeters of the quadrilateral 1-2-3-4-1, zero at the cycle boundary and
    largest (the corner configuration) at n = 4q+2.

    All windows are gathered with one fancy index, and each 16-term average
    is one row reduction; cycle q uses the eps of its own steps, so
    de_broglie runs are exact.
    """
    c = run.n_cycles
    starts = 4 * np.arange(c)
    window = starts[:, None] + np.arange(5)  # (C, 5) step indices
    r, rm = run.real_vertices()[window], run.real_means()[window]  # (C, 5, 4, 2), (C, 5, 2)
    eps = run.epsilons[starts + 1][:, None, None]
    mass = run.params.mass
    p = mass * np.diff(r, axis=1) / eps[..., None]  # (C, 4, 4, 2) forward-difference momenta
    pm = mass * np.diff(rm, axis=1) / eps  # (C, 4, 2)
    sigma_z = np.mean(_wedge(r[:, :4], p).reshape(c, 16), axis=1)
    sigma_orbital = np.mean(_wedge(rm[:, :4], pm), axis=1)
    delta_x = np.sqrt(np.mean(((r[:, :4, :, 0] - rm[:, :4, None, 0]) ** 2).reshape(c, 16), axis=1))
    delta_px = np.sqrt(np.mean(((p[..., 0] - pm[:, :, None, 0]) ** 2).reshape(c, 16), axis=1))
    sides = np.roll(r[:, :4], -1, axis=-2) - r[:, :4]
    return CycleTable(
        cycle_index=np.arange(c),
        t_start=run.times[starts],
        sigma_z=sigma_z,
        sigma_orbital=sigma_orbital,
        sigma_intrinsic=sigma_z - sigma_orbital,
        delta_x=delta_x,
        delta_px=delta_px,
        heisenberg_product=delta_x * delta_px,
        string_lengths=np.sum(np.linalg.norm(sides, axis=-1), axis=-1),
    )


def observables_to_csv(path, table: CycleTable) -> None:
    """One row per cycle: q, then every float column with 17 significant digits."""
    header = ["q", "t_start", "sigma_z", "sigma_orbital", "sigma_intrinsic", "delta_x", "delta_px", "product"]
    header += [f"len{k}" for k in range(4)]
    columns = [table.cycle_index, table.t_start, table.sigma_z, table.sigma_orbital, table.sigma_intrinsic]
    columns += [table.delta_x, table.delta_px, table.heisenberg_product, *table.string_lengths.T]
    write_csv(path, header, columns)
