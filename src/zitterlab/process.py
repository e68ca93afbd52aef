"""Deterministic four-point vibration process and its classical limit.

An extended particle is carried by four complex processes Z^j(n*eps) in C^2,
one per vertex of the unit square.  Each step adds a common drift V(4q*eps)*eps
plus an internal hop gamma*(s^n u^j - s^(n-1) u^j), where s cycles the square's
vertices and gamma = (1+i)*sqrt(hbar*eps/(4m)).  After every four steps the
vertices re-coincide with their gravity center (the mean process), so the real
parts trace a closed string that is created and annihilated once per cycle.

The drift velocity is a prescribed function of time here; position-dependent
guidance from a wave function lives in :mod:`zitterlab.pilot`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import EpsilonUnderflow, InvalidInput, NonFiniteVelocity, StepBudgetExceeded
from .fileio import write_csv_blocks

# Unit-square vertices u^1..u^4 in the fixed listing order.
VERTICES = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], dtype=np.int64)

# Most 4-step cycles one process run may take, in any epsilon mode, before it
# is abandoned.
DE_BROGLIE_CYCLE_BUDGET = 10_000_000

# States per block of a streamed run, and kept positions per block of a
# classical path.  A whole number of cycles, so every run block starts on a
# cycle boundary.
_BLOCK_STATES = 4096

# The running sum before the first increment: x + -0.0 is x for every float
# x, where x + 0.0 would turn a -0.0 into 0.0.
_NO_SUM = np.full(2, complex(-0.0, -0.0))
_NO_SUM.setflags(write=False)

# run.csv's columns: n, t, then Re and Im of each point's x and y, vertices 1..4 and then the mean.
_RUN_CSV_HEADER = ["n", "t"] + [
    f"{part}_{name}"
    for name in [*(f"z{k}_{j}" for j in range(1, 5) for k in (1, 2)), "mean1", "mean2"]
    for part in ("re", "im")
]


class Sense(Enum):
    """Orientation of the vertex 4-cycle; selects the sign of the spin."""

    S_PLUS = "s_plus"
    S_MINUS = "s_minus"


@dataclass(frozen=True)
class Permutation:
    """One of the two circular permutations of the unit-square vertices.

    s_plus maps u1 -> u2 -> u3 -> u4 -> u1 (sum_j u^j ^ s u^j = -8, hence
    intrinsic spin -hbar/2); s_minus is its inverse.  s^4 is the identity and
    sum_j s^n u^j = 0 for every n.
    """

    sense: Sense = Sense.S_PLUS

    def shift(self) -> int:
        return 1 if self.sense is Sense.S_PLUS else -1

    def apply(self, n: int, j: int) -> np.ndarray:
        """s^n u^j for j in 1..4, as an integer 2-vector."""
        if not 1 <= j <= 4:
            raise ValueError(f"vertex index j must be in 1..4, got {j}")
        return VERTICES[(j - 1 + self.shift() * n) % 4]

    def offset_table(self) -> np.ndarray:
        """(4, 4, 2) int array: [n mod 4, j-1] -> s^n u^j - u^j, by apply's index rule."""
        r = np.arange(4)
        return VERTICES[(r + self.shift() * r[:, None]) % 4] - VERTICES


class EpsilonMode(Enum):
    FIXED = "fixed"
    DE_BROGLIE = "de_broglie"
    COMPTON = "compton"


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of one run.

    epsilon is the time step of the internal vibration; the cycle period is
    4*epsilon.  In de_broglie mode epsilon is refreshed at cycle boundaries
    from the current drift speed v as h/(4 m v^2); in compton mode it is the
    constant h/(4 m c^2), with h = 2*pi*hbar.
    """

    hbar: float = 1.0
    mass: float = 1.0
    epsilon: float = 0.01
    epsilon_mode: EpsilonMode = EpsilonMode.FIXED
    light_speed: float = 1.0
    epsilon_floor: float = 1e-12

    def __post_init__(self):
        for name in ("hbar", "mass", "epsilon", "light_speed", "epsilon_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"PhysParams.{name} must be finite and > 0, got {value}")

    def compton_epsilon(self) -> float:
        """h/(4 m c^2); EpsilonUnderflow below epsilon_floor, InvalidInput when not finite.

        light_speed * light_speed, not light_speed**2: a float multiply
        overflows to inf (and eps to 0) where ** raises.
        """
        denominator = 4.0 * self.mass * (self.light_speed * self.light_speed)
        eps = 2.0 * math.pi * self.hbar / denominator if denominator > 0.0 else math.inf
        if not math.isfinite(eps):
            raise InvalidInput(
                f"compton epsilon h/(4 m c^2) is {eps} for hbar = {self.hbar:g}, mass = {self.mass:g}, "
                f"light_speed = {self.light_speed:g}"
            )
        if eps < self.epsilon_floor:
            raise EpsilonUnderflow(f"compton epsilon {eps:.3e} fell below floor {self.epsilon_floor:.3e}")
        return eps

    def de_broglie_epsilon(self, speed: float) -> float:
        if speed <= 0.0:
            raise EpsilonUnderflow("de_broglie mode needs a nonzero drift speed")
        eps = 2.0 * math.pi * self.hbar / (4.0 * self.mass * speed**2)
        if eps < self.epsilon_floor:
            raise EpsilonUnderflow(
                f"de_broglie epsilon {eps:.3e} fell below floor {self.epsilon_floor:.3e}"
            )
        return eps


def gamma(params: PhysParams) -> complex:
    """Internal hop amplitude (1+i)*sqrt(hbar*eps/(4m)); |gamma|^2 = hbar*eps/2m."""
    return (1.0 + 1.0j) * math.sqrt(params.hbar * params.epsilon / (4.0 * params.mass))


def vertex_offset(n: int, j: int, perm: Permutation) -> np.ndarray:
    """s^n u^j - u^j as an integer 2-vector; (0, 0) whenever n = 0 mod 4."""
    if n < 0:
        raise ValueError(f"step index must be >= 0, got {n}")
    return perm.apply(n, j) - VERTICES[j - 1]


# ---------------------------------------------------------------------------
# velocity programs
# ---------------------------------------------------------------------------


class VelocityProgram:
    """Continuous complex drift velocity t -> V(t) in C^2.

    Subclasses evaluate vectorized over an array of times, returning an array
    of shape t.shape + (2,).
    """

    def __call__(self, t):
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ConstantVelocity(VelocityProgram):
    vx: complex = 0.0
    vy: complex = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (2,), dtype=complex)
        out[..., 0] = self.vx
        out[..., 1] = self.vy
        return out

    def describe(self) -> str:
        return f"constant({self.vx}, {self.vy})"


def zero_velocity() -> ConstantVelocity:
    return ConstantVelocity(0.0, 0.0)


@dataclass(frozen=True)
class CircularVelocity(VelocityProgram):
    """V(t) = amplitude * (cos(omega t), sin(omega t))."""

    omega: float = 1.0
    amplitude: float = 1.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (2,), dtype=complex)
        out[..., 0] = self.amplitude * np.cos(self.omega * t)
        out[..., 1] = self.amplitude * np.sin(self.omega * t)
        return out

    def describe(self) -> str:
        return f"circular(omega={self.omega}, amplitude={self.amplitude})"


@dataclass(frozen=True)
class PolynomialVelocity(VelocityProgram):
    """Per-component polynomial in t, low order first: V_k(t) = sum_i c_ki t^i."""

    coeffs_x: tuple = (0.0,)
    coeffs_y: tuple = (0.0,)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (2,), dtype=complex)
        out[..., 0] = np.polynomial.polynomial.polyval(t, np.asarray(self.coeffs_x, dtype=complex))
        out[..., 1] = np.polynomial.polynomial.polyval(t, np.asarray(self.coeffs_y, dtype=complex))
        return out

    def describe(self) -> str:
        return f"polynomial({list(self.coeffs_x)}, {list(self.coeffs_y)})"


class SampledVelocity(VelocityProgram):
    """Tabulated velocity with linear interpolation in time."""

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=complex)
        if times.ndim != 1 or values.shape != (times.size, 2):
            raise ValueError("SampledVelocity needs times (M,) and values (M, 2)")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("SampledVelocity times must be strictly increasing, M >= 2")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise NonFiniteVelocity("SampledVelocity table contains non-finite entries")
        self.times = times
        self.values = values

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (2,), dtype=complex)
        for k in range(2):
            out[..., k] = np.interp(t, self.times, self.values[:, k].real) + 1j * np.interp(
                t, self.times, self.values[:, k].imag
            )
        return out

    def describe(self) -> str:
        return f"sampled({self.times[0]}..{self.times[-1]}, {self.times.size} knots)"


def _eval_velocity(vel: VelocityProgram, t) -> np.ndarray:
    v = np.asarray(vel(t), dtype=complex)
    if not np.all(np.isfinite(v.view(float))):
        raise NonFiniteVelocity(f"velocity program {vel.describe()} returned a non-finite value")
    return v


class ProcessRun:
    """Record of a full run over the steps n = 0..n_steps, as read-only arrays:
    times (M,), means (M, 2) and vertices (M, 4, 2) complex, and epsilons (M,)
    giving the eps in effect for the step ending at each index (n = 0 carries
    the first cycle's eps).
    """

    def __init__(self, times, vertices, means, epsilons, params, perm):
        self.times = np.asarray(times, dtype=float)
        self.vertices = np.asarray(vertices, dtype=complex)
        self.means = np.asarray(means, dtype=complex)
        self.epsilons = np.asarray(epsilons, dtype=float)
        self.params = params
        self.perm = perm
        for arr in (self.times, self.vertices, self.means, self.epsilons):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.times.size

    @property
    def n_cycles(self) -> int:
        # a cycle needs the closing state at n = 4q + 4
        return (len(self) - 1) // 4

    def real_vertices(self) -> np.ndarray:
        return self.vertices.real

    def real_means(self) -> np.ndarray:
        return self.means.real

    def to_csv(self, path) -> None:
        """Write the run record; floats carry 17 significant digits."""
        _write_run_csv(path, [_Block(0, self.times, self.means, self.epsilons, self.vertices)])


class _Block(NamedTuple):
    """States start .. start + len(times) - 1 of a run, as ProcessRun holds them."""

    start: int
    times: np.ndarray
    means: np.ndarray
    epsilons: np.ndarray
    vertices: np.ndarray


def _write_run_csv(path, blocks) -> None:
    """The CSV of a run given as its _Blocks in order: the state index n, t,
    then the real and imaginary parts of vertices 1..4 and of the mean, each
    point's x before its y; floats carry 17 significant digits."""

    def columns(block):
        cells = [np.arange(block.start, block.start + len(block.times)), block.times]
        for z in [*block.vertices.transpose(1, 0, 2), block.means]:
            for k in range(2):
                cells += [z[:, k].real, z[:, k].imag]
        return cells

    write_csv_blocks(path, _RUN_CSV_HEADER, map(columns, blocks))


def run_process(params: PhysParams, perm: Permutation, vel: VelocityProgram, z0, T: float) -> ProcessRun:
    """Run the four-point process over [0, T]: the blocks of _run_blocks, joined.

    fixed/compton modes take n = floor(T/eps) uniform steps.  de_broglie mode
    marches whole cycles, refreshing eps at every cycle boundary from the
    current |Re V|, and stops at the first boundary reaching T.  All modes
    then share one recurrence: the step landing at n reads V at its cycle
    boundary, the time of step 4*floor(n/4) (so steps 1-3 of a cycle read V
    at its start and step 4 at its end), and mean_n = z0 + sum_{k<=n} V_k eps_k.
    """
    params, n_states, blocks = _run_blocks(params, perm, vel, z0, T)
    times, epsilons = np.empty(n_states), np.empty(n_states)
    means, vertices = np.empty((n_states, 2), dtype=complex), np.empty((n_states, 4, 2), dtype=complex)
    for block in blocks:
        rows = slice(block.start, block.start + len(block.times))
        times[rows], means[rows], epsilons[rows], vertices[rows] = block[1:]  # the fields after start
    return ProcessRun(times, vertices, means, epsilons, params, perm)


def _run_blocks(params: PhysParams, perm: Permutation, vel: VelocityProgram, z0, T: float):
    """(params, n_states, blocks): run_process's run as a stream of whole cycles.

    params has compton's eps filled in, n_states is the run's length, and
    blocks yields its states in order as _Blocks of _BLOCK_STATES states, the
    last one shorter, so every block starts on a cycle boundary.  A block
    holds O(_BLOCK_STATES) memory whatever T is; only a de_broglie run's
    schedule is held whole.  A bad T, eps or step budget, and any error of
    the de_broglie schedule, raise here; a non-finite V raises when its block
    is made.
    """
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    z0 = np.asarray(z0, dtype=complex).reshape(2)

    if params.epsilon_mode is EpsilonMode.DE_BROGLIE:
        # the schedule is made whole: V decides each cycle's eps, so the run's length is known only at its end
        times, epsilons, v = _de_broglie_schedule(params, vel, T)
        n_states = times.size

        def steps(start, stop):
            return times[start:stop], epsilons[start:stop], v[max(start - 1, 0) : stop - 1]

    else:
        if params.epsilon_mode is EpsilonMode.COMPTON:
            params = replace(params, epsilon=params.compton_epsilon())
        eps = params.epsilon
        n_steps = int(math.floor(T / eps + 1e-9))
        if n_steps > 4 * DE_BROGLIE_CYCLE_BUDGET:
            raise StepBudgetExceeded(f"{n_steps:.3g} steps exceed the budget of {DE_BROGLIE_CYCLE_BUDGET} cycles")
        n_states = n_steps + 1

        def steps(start, stop):
            n = np.arange(start, stop)
            return n * eps, np.full(n.size, eps), _eval_velocity(vel, 4 * (n[n > 0] // 4) * eps)

    return params, n_states, _blocks(params, perm, z0, n_states, steps)


def _blocks(params: PhysParams, perm: Permutation, z0, n_states: int, steps):
    """The _Blocks of _run_blocks; steps(start, stop) gives the times and
    epsilons of states start..stop-1 and the V of the steps landing on them."""
    carry = _NO_SUM
    for start in range(0, n_states, _BLOCK_STATES):
        stop = min(start + _BLOCK_STATES, n_states)
        times, epsilons, v = steps(start, stop)
        first = stop - start - len(v)  # 1 in the block of state 0, which no step lands on
        means = np.empty((stop - start, 2), dtype=complex)
        means[:first] = z0
        landed = means[first:]
        np.multiply(v, epsilons[first:, None], out=landed)
        carry = _running_sum(landed, carry)
        landed += z0
        yield _Block(start, times, means, epsilons, _vertices(means, epsilons, params, perm))


def _running_sum(increments, carry):
    """Replace increments (k, 2) by their running sum continued from carry,
    the sum before them, in place; returns the sum through their last row
    (carry itself when there is none).

    Each chunk's first increment takes the carry, so chunked sums equal one
    global cumsum bit for bit.
    """
    increments[:1] += carry
    np.cumsum(increments, axis=0, out=increments)
    return increments[-1].copy() if len(increments) else carry


def _de_broglie_schedule(params: PhysParams, vel: VelocityProgram, T: float):
    """(times, epsilons, v) of the whole cycles from t = 0 to the first
    boundary reaching T: V is evaluated once per boundary t_q, the last one
    included, eps_q = h/(4 m |Re V(t_q)|^2), and steps 1-3 of cycle q read
    V(t_q), step 4 V(t_{q+1}).  Index 0 carries the first cycle's eps.
    """
    t, times, epsilons, v = 0.0, [0.0], [], []
    while t < T - 1e-12:
        v_start = v[-1] if v else _eval_velocity(vel, t)
        eps = params.de_broglie_epsilon(float(np.linalg.norm(v_start.real)))
        v_end = _eval_velocity(vel, t + 4 * eps)
        times += [t + r * eps for r in range(1, 5)]
        epsilons += [eps] * 4
        v += [v_start, v_start, v_start, v_end]
        t += 4 * eps
        if len(epsilons) > 4 * DE_BROGLIE_CYCLE_BUDGET:
            raise StepBudgetExceeded(f"de_broglie run exceeded {DE_BROGLIE_CYCLE_BUDGET} cycles before t = {T:g}")
    epsilons.insert(0, epsilons[0] if epsilons else params.epsilon)
    return np.asarray(times), np.asarray(epsilons), np.asarray(v, dtype=complex).reshape(-1, 2)


def _vertices(means, epsilons, params: PhysParams, perm: Permutation) -> np.ndarray:
    """Vertex n = mean_n + gamma(eps_n) (s^n u^j - u^j) of consecutive states, the first on a cycle boundary.

    gamma is taken per step from epsilons, which covers de_broglie runs whose
    eps changes from cycle to cycle.
    """
    g = (1.0 + 1.0j) * np.sqrt(params.hbar * epsilons / (4.0 * params.mass))
    table = perm.offset_table()
    vertices = np.empty((len(means), 4, 2), dtype=complex)
    # the steps of each whole cycle take the (4, 4, 2) table in order; the last partial cycle its first rows
    whole = len(means) - len(means) % 4
    np.multiply(g[:whole].reshape(-1, 4, 1, 1), table, out=vertices[:whole].reshape(-1, 4, 4, 2))
    vertices[:whole] += means[:whole, None, :]
    vertices[whole:] = means[whole:, None, :] + g[whole:, None, None] * table[: len(means) - whole]
    return vertices


def _assemble_run(times, means, epsilons, params: PhysParams, perm: Permutation) -> ProcessRun:
    """ProcessRun from the mean path of states n = 0, 1, ...; vertices by _vertices."""
    return ProcessRun(times, _vertices(means, epsilons, params, perm), means, epsilons, params, perm)


def _step_count(t0: float, T: float, dt: float):
    """(n, dt'): n steps of dt' = (T - t0) / n cover [t0, T], dt' close to dt."""
    n_steps = max(1, int(round((T - t0) / dt)))
    return n_steps, (T - t0) / n_steps


def _fixed_epsilon(params: PhysParams, what: str) -> float:
    """params.epsilon, the eps that only a fixed-mode run takes; InvalidInput in another mode."""
    if params.epsilon_mode is not EpsilonMode.FIXED:
        raise InvalidInput(f"{what} need epsilon_mode = fixed, got {params.epsilon_mode.value}")
    return params.epsilon


def _whole_cycles(span: float, eps: float) -> int:
    """The whole 4-step cycles of eps in span; InvalidInput below one."""
    n_cycles = int(math.floor(span / (4.0 * eps) + 1e-9))
    if n_cycles < 1:
        raise InvalidInput("T does not cover one full 4-step cycle")
    return n_cycles


@dataclass(frozen=True)
class ClassicalPath:
    """High-accuracy solution of dZ/dt = V(t) used as the convergence reference."""

    times: np.ndarray
    positions: np.ndarray  # (M, 2) complex


def classical_trajectory(vel: VelocityProgram, z0, T: float, dt: float) -> ClassicalPath:
    """Integrate dZ/dt = V(t) with 4th-order accuracy (Simpson accumulation).

    For a pure time integrand the classic one-step RK4 rule reduces to
    Simpson's rule over each substep, so the whole path is a cumulative sum.
    """
    times, positions = zip(*_classical_path(vel, z0, T, dt, 1))
    return ClassicalPath(np.concatenate(times), np.concatenate(positions))


def _classical_path(vel: VelocityProgram, z0, T: float, dt: float, every: int):
    """(times, positions) blocks of classical_trajectory's path at every
    `every`-th step, _BLOCK_STATES kept positions a block, the last one shorter.

    Each block sums the steps from the previous block's last kept position to
    its own last, about _BLOCK_STATES steps at a time, continuing the running
    sum as _running_sum does, so the positions equal one global cumsum bit
    for bit while only a block is held.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    z0 = np.asarray(z0, dtype=complex).reshape(2)
    n_steps, dt = _step_count(0.0, T, dt)
    return _path_blocks(vel, z0, n_steps, dt, every)


def _path_blocks(vel: VelocityProgram, z0, n_steps: int, dt: float, every: int):
    n_kept, carry = n_steps // every + 1, _NO_SUM
    # each sum spans about _BLOCK_STATES steps, however many steps a kept position takes
    per_sum = max(1, _BLOCK_STATES // every)
    for first in range(0, n_kept, _BLOCK_STATES):
        kept = np.arange(first, min(first + _BLOCK_STATES, n_kept)) * every
        parts = []
        for part in np.split(kept, range(per_sum, kept.size, per_sum)):
            positions, carry = _path_block(vel, z0, part, dt, every, carry)
            parts.append(positions)
        yield kept * dt, np.concatenate(parts)


def _path_block(vel: VelocityProgram, z0, kept, dt: float, every: int, carry):
    """(positions, carry): the path at the kept steps, summed from carry, the
    sum at the kept step before them, and the sum through the last of them."""
    t = np.arange(max(kept[0] - every, 0), kept[-1] + 1) * dt
    v_nodes = _eval_velocity(vel, t)
    v_mid = _eval_velocity(vel, t[:-1] + dt / 2)
    sums = (dt / 6.0) * (v_nodes[:-1] + 4.0 * v_mid + v_nodes[1:])
    carry = _running_sum(sums, carry)
    # sums[i] is the position i + 1 steps after t[0]; position 0, in the first block, is z0
    picked = sums[every - 1 :: every]
    positions = np.empty((kept.size, 2), dtype=complex)
    positions[: kept.size - len(picked)] = z0
    np.add(picked, z0, out=positions[kept.size - len(picked) :])
    return positions, carry
