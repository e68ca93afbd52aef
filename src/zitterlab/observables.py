"""Cycle-averaged observables of the real-part process.

All quantities average the four vertices over the four instants of one cycle
(16 terms).  The vertex fluctuations around the gravity center contribute an
intrinsic angular momentum of exactly -hbar/2 (s_plus) or +hbar/2 (s_minus)
and position/momentum spreads whose product is exactly hbar/2, independent of
eps, mass and the drift program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import MisalignedCycle
from .fileio import write_csv
from .process import Permutation, ProcessRun, ProcessState, VERTICES


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2D wedge a_x b_y - a_y b_x on the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class CycleObservables:
    cycle_index: int
    t_start: float
    sigma_z: float
    sigma_orbital: float
    sigma_intrinsic: float
    delta_x: float
    delta_px: float
    heisenberg_product: float
    string_lengths: tuple  # lengths at n = 4q .. 4q+3


def _cycle_window(states: Sequence[ProcessState]):
    if len(states) != 5:
        raise MisalignedCycle(f"need the 5 states n = 4q..4q+4, got {len(states)}")
    n0 = states[0].step_index
    if n0 % 4 != 0:
        raise MisalignedCycle(f"cycle must start at n = 0 mod 4, got n = {n0}")
    for k, st in enumerate(states):
        if st.step_index != n0 + k:
            raise MisalignedCycle("states are not consecutive")
    r = np.stack([st.real_vertices() for st in states])  # (5, 4, 2)
    rm = np.stack([st.real_mean() for st in states])  # (5, 2)
    eps = states[1].params.epsilon  # eps in effect for the cycle's steps
    return r[None], rm[None], np.array([eps]), states[0].params.mass  # a batch of one for _cycle_kernel


def _perimeter(r: np.ndarray) -> np.ndarray:
    """Perimeter of the closed quadrilateral 1-2-3-4-1 over (..., 4, 2) vertices."""
    return np.sum(np.linalg.norm(np.roll(r, -1, axis=-2) - r, axis=-1), axis=-1)


def _cycle_kernel(r: np.ndarray, rm: np.ndarray, eps: np.ndarray, mass: float):
    """Observables of C cycles from (C, 5, 4, 2) real vertex windows over
    n = 4q..4q+4, their (C, 5, 2) means and the (C,) eps of each cycle.

    Returns the (C,) arrays sigma_z, sigma_orbital, sigma_intrinsic, delta_x,
    delta_px and the (C, 4) string lengths at n = 4q..4q+3.  Each 16-term
    average is one row reduction, summed in the same order for any C.
    """
    c = len(r)
    eps = eps[:, None, None]
    p = mass * np.diff(r, axis=1) / eps[..., None]  # (C, 4, 4, 2) forward-difference momenta
    pm = mass * np.diff(rm, axis=1) / eps  # (C, 4, 2)
    sigma_z = np.mean(_wedge(r[:, :4], p).reshape(c, 16), axis=1)
    sigma_orbital = np.mean(_wedge(rm[:, :4], pm), axis=1)
    dx2 = np.mean(((r[:, :4, :, 0] - rm[:, :4, None, 0]) ** 2).reshape(c, 16), axis=1)
    dp2 = np.mean(((p[..., 0] - pm[:, :, None, 0]) ** 2).reshape(c, 16), axis=1)
    return sigma_z, sigma_orbital, sigma_z - sigma_orbital, np.sqrt(dx2), np.sqrt(dp2), _perimeter(r[:, :4])


def _records(first_q: int, t_start, columns) -> list[CycleObservables]:
    """CycleObservables for consecutive cycles from the kernel's columns."""
    sigma_z, sigma_orb, sigma_int, delta_x, delta_px, lengths = (a.tolist() for a in columns)
    product = (columns[3] * columns[4]).tolist()
    cycles = range(first_q, first_q + len(sigma_z))
    fields = (sigma_z, sigma_orb, sigma_int, delta_x, delta_px, product, map(tuple, lengths))
    return list(map(CycleObservables, cycles, t_start, *fields))


def _one_cycle(states: Sequence[ProcessState]) -> CycleObservables:
    """The kernel on the one cycle that 5 consecutive states span."""
    return _records(states[0].step_index // 4, [states[0].time], _cycle_kernel(*_cycle_window(states)))[0]


def cycle_spin(states: Sequence[ProcessState]):
    """(sigma_z, sigma_orbital, sigma_intrinsic) for one cycle.

    sigma_z is the 16-term average of r^j_n ^ p^j_n with forward-difference
    momenta p^j_n = m (r^j_{n+1} - r^j_n)/eps.  The orbital part is the same
    average for the gravity center itself, so the intrinsic part is carried
    entirely by the vertex fluctuations and is +-hbar/2 to roundoff.
    """
    c = _one_cycle(states)
    return c.sigma_z, c.sigma_orbital, c.sigma_intrinsic


def intrinsic_spin_closed_form(perm: Permutation, hbar: float) -> float:
    """(hbar/16) sum_j u^j ^ s u^j; -hbar/2 for s_plus, +hbar/2 for s_minus."""
    shifted = VERTICES[(np.arange(4) + perm.shift()) % 4]
    return hbar / 16.0 * float(np.sum(_wedge(VERTICES.astype(float), shifted.astype(float))))


def cycle_uncertainties(states: Sequence[ProcessState]):
    """(delta_x, delta_px) along the x axis from the 16-term spreads."""
    c = _one_cycle(states)
    return c.delta_x, c.delta_px


def string_length(state: ProcessState) -> float:
    """Perimeter of the closed quadrilateral through the real vertices 1-2-3-4-1.

    Zero at cycle boundaries, maximal (corner configuration) at n = 4q+2.
    """
    return float(_perimeter(state.real_vertices()))


def measure_cycle(states: Sequence[ProcessState], cycle_index: int | None = None) -> CycleObservables:
    c = _one_cycle(states)
    return c if cycle_index is None else replace(c, cycle_index=cycle_index)


def measure_run(run: ProcessRun) -> list[CycleObservables]:
    """Observables for every complete cycle of a run.

    All windows are gathered with one fancy index and measured by one kernel
    call; cycle q uses the eps of its own steps, so de_broglie runs are exact.
    """
    starts = 4 * np.arange(run.n_cycles)
    window = starts[:, None] + np.arange(5)  # (C, 5) step indices
    r, rm = run.real_vertices()[window], run.real_means()[window]
    return _records(0, run.times[starts].tolist(), _cycle_kernel(r, rm, run.epsilons[starts + 1], run.params.mass))


def observables_to_csv(path, cycles: Sequence[CycleObservables]) -> None:
    header = [
        "q",
        "t_start",
        "sigma_z",
        "sigma_orbital",
        "sigma_intrinsic",
        "delta_x",
        "delta_px",
        "product",
        "len0",
        "len1",
        "len2",
        "len3",
    ]
    rows = [
        [
            c.cycle_index,
            c.t_start,
            c.sigma_z,
            c.sigma_orbital,
            c.sigma_intrinsic,
            c.delta_x,
            c.delta_px,
            c.heisenberg_product,
            *c.string_lengths,
        ]
        for c in cycles
    ]
    write_csv(path, header, rows)
