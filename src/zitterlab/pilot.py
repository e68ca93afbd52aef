"""Guidance of trajectories and of the four-point process by a wave function.

The complex guiding velocity is V = -i (hbar/m) grad(Psi)/Psi.  Its real part
(grad S)/m drives de Broglie-Bohm trajectories of the gravity center; its
imaginary part is the osmotic component -(hbar/2m) grad(log rho).  Cells where
rho falls below a floor are masked as nodes: velocity queries there are
errors, not extrapolations, because the guidance law is genuinely singular at
wave-function zeros.
"""

from __future__ import annotations

import cmath
import heapq
import math
import threading
from bisect import bisect_right
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import EnsembleFailure, InvalidInput, LeftDomain, NodeRegion, NonFiniteVelocity
from .fileio import write_csv, write_json
from .process import PhysParams, Permutation, _assemble_run, _fixed_epsilon, _step_count, _whole_cycles
from .schrodinger import DEFAULT_RHO_FLOOR, Grid2D, WaveFunction, psi_ratios


@dataclass
class VelocityField:
    """Complex guiding velocity sampled on the grid at one instant.

    v has shape (n, n, 2); node_mask is True where the field is invalid.
    At every unmasked node m*v = grad S - i (hbar/2) grad log rho.  A field
    used only for Bohmian transport may hold the real part Re V alone, as a
    real array of the same shape.
    """

    grid: Grid2D
    v: np.ndarray
    node_mask: np.ndarray
    time: float

    @cached_property
    def cell_mask(self) -> np.ndarray:
        """True for the cell (i, j) when any of its corner nodes i|i+1,
        j|j+1 is masked (periodic wrap); read from node_mask at first use."""
        m = self.node_mask | np.roll(self.node_mask, -1, axis=0)
        return m | np.roll(m, -1, axis=1)


def velocity_field(
    psi: WaveFunction,
    hbar: float = 1.0,
    mass: float = 1.0,
    rho_floor: float = DEFAULT_RHO_FLOOR,
    real: bool = False,
) -> VelocityField:
    """V = -i (hbar/m) grad(Psi)/Psi on the grid, 0 at masked nodes.

    grad(Psi)/Psi, rho and the node mask rho < rho_floor * max(rho) are
    those of psi_ratios, which reads psi.spectrum when the solver held it.
    On the live cells Re V = (hbar/m) Im(grad(Psi)/Psi) and
    Im V = -(hbar/m) Re(grad(Psi)/Psi).  With real=True, v holds Re V alone
    as float64, which is all Bohmian transport reads, and equals the real
    part of the complex field bit for bit.
    """
    grid = psi.grid
    live, ratios, _, mask = psi_ratios(psi, rho_floor)
    scale = hbar / mass
    v = np.zeros((grid.n * grid.n, 2), dtype=float if real else complex)
    v.real[live] = (scale * ratios.imag).T
    if not real:
        v.imag[live] = (-scale * ratios.real).T
    return VelocityField(grid, v.reshape(grid.n, grid.n, 2), mask, psi.time)


# Along each axis a cell has a lower (0) and an upper (1) corner node.
_UPPER = np.array([0, 1]).reshape(2, 1, 1)
_LOWER = 1.0 - _UPPER


def _stencil(grid: Grid2D, pts: np.ndarray):
    """Bilinear stencil of the points pts (M, 2) on the periodic grid.

    Returns the flat node indices (4, M) of the corners (i0, j0), (i1, j0),
    (i0, j1), (i1, j1), their weights (4, M, 1) and the in-box flags (M,).
    One stencil serves every frame sampled at the same points.  The large
    temporaries are updated in place: at 1e4 points each fresh one costs
    more in page faults than in arithmetic.
    """
    n, h, L = grid.n, grid.spacing, grid.half_width
    box = (pts >= -L) & (pts < L)
    f = pts + L
    f /= h
    c = np.floor(f)
    f -= c  # the position inside the cell, in [0, 1) per axis
    c = c.astype(np.int64)
    np.maximum(c, 0, out=c)
    np.minimum(c, n - 1, out=c)
    c = c.T + _UPPER  # (corner, axis, M): i0 | i0 + 1 and j0 | j0 + 1
    c[c == n] = 0  # the periodic wrap
    c[:, 0] *= n
    t = np.abs(_LOWER - f.T)  # their weights per axis: 1 - t | t
    idx = (c[None, :, 0] + c[:, None, 1]).reshape(4, -1)
    w = (t[None, :, 0] * t[:, None, 1]).reshape(4, -1, 1)
    return idx, w, box[:, 0] & box[:, 1]


def _gather(fld: VelocityField, idx: np.ndarray, w: np.ndarray):
    """Apply a stencil to one field: (values (M, 2), masked (M,) bool).

    v may be complex or real (Re V only); the values keep its dtype.  masked
    is True where any of the four corner nodes is masked: the cell mask at
    the lower corner idx[0].
    """
    g = fld.v.reshape(-1, 2).take(idx, axis=0)
    np.multiply(w, g, out=g)  # in place: a fresh (4, M, 2) product costs more in page faults
    vals = g[0] + g[1]
    vals += g[2]
    vals += g[3]
    return vals, fld.cell_mask.ravel().take(idx[0])


# Past 2**62 cells a cell index no longer fits _stencil's cast to int64.
_FAR = 2.0**62


def _point_stencil(grid: Grid2D, x: float, y: float):
    """_stencil of the one point (x, y) in Python scalars: the flat indices
    of its four corners, their weights and its in-box flag, or None when a
    coordinate is NaN, infinite or more than _FAR cells out.

    Each number comes from the same operations as _stencil's, so it equals
    _stencil's bit for bit.  For one point this replaces some twenty numpy
    calls on (1, 2) arrays, each of which costs more to set up than its
    arithmetic.
    """
    n, h, L = grid.n, grid.spacing, grid.half_width
    fx = (x + L) / h
    fy = (y + L) / h
    if not (-_FAR < fx < _FAR and -_FAR < fy < _FAR):
        return None
    i0, j0 = math.floor(fx), math.floor(fy)
    fx -= i0  # the position inside the cell, in [0, 1) per axis
    fy -= j0
    i0, j0 = min(max(i0, 0), n - 1), min(max(j0, 0), n - 1)
    i1 = i0 + 1 if i0 < n - 1 else 0  # the periodic wrap
    j1 = j0 + 1 if j0 < n - 1 else 0
    i0, i1 = i0 * n, i1 * n
    gx, gy = 1.0 - fx, 1.0 - fy
    idx = (i0 + j0, i1 + j0, i0 + j1, i1 + j1)
    return idx, (gx * gy, fx * gy, gx * fy, fx * fy), -L <= x < L and -L <= y < L


def _point_gather(fld: VelocityField, idx, w):
    """_gather of one point in Python scalars: (x value, y value, masked).

    The four products are summed in _gather's order.  On a complex field
    the caller passes each weight as w + 0j, the operand of numpy's complex
    multiply, so even the signs of zero parts are numpy's; Python's own
    float * complex does not promote on every version.
    """
    v = fld.v
    w0, w1, w2, w3 = w
    k0, k1, k2, k3 = idx
    item = v.item  # node k's components are items 2k and 2k + 1 of v
    x = w0 * item(2 * k0) + w1 * item(2 * k1) + w2 * item(2 * k2) + w3 * item(2 * k3)
    y = w0 * item(2 * k0 + 1) + w1 * item(2 * k1 + 1) + w2 * item(2 * k2 + 1) + w3 * item(2 * k3 + 1)
    return x, y, fld.cell_mask.item(k0)


def bohm_velocity_at(fld: VelocityField, x) -> np.ndarray:
    """Re V interpolated at one position; the Bohmian velocity grad(S)/m."""
    px, py = np.asarray(x, dtype=float).reshape(2).tolist()
    L = fld.grid.half_width
    point = _point_stencil(fld.grid, px, py)
    if point is None or not point[2]:  # a point without a stencil is outside the box too
        raise LeftDomain(f"query ({px:g}, {py:g}) is outside the box [-{L}, {L})^2")
    idx, w, _ = point
    if fld.v.dtype.kind == "c":
        w = [complex(c) for c in w]
    vx, vy, masked = _point_gather(fld, idx, w)
    if masked:
        raise NodeRegion(f"query ({px:g}, {py:g}) touches masked wave-function nodes")
    return np.array([vx.real, vy.real])


class FrameInterpolator:
    """Linear-in-time interpolation between velocity-field frames, read once
    from any iterable of fields, for queries that move forward in time (up to
    roundoff).

    A query first pulls fields while the newest is not after its time, so its
    bracket and weights are those of a search over the whole list.  Fields
    before the one preceding the bracket are then dropped: the next RK4 step
    starts at most a few ulps before this query, so at most three are held.
    The slack past either end is 1e-9 frame spacings; a single frame is valid
    at its own time only.  A query past the last frame or before the held
    window raises InvalidInput (a ValueError) instead of holding an end frame.
    """

    def __init__(self, fields):
        self._source = iter(fields)
        self.frames, self.times = [], []
        if not self._pull():
            raise InvalidInput("need at least one frame")
        self.grid, self.t0 = self.frames[0].grid, self.times[0]
        self.spacing = self.times[1] - self.t0 if self._pull() else math.inf
        self.slack = 1e-9 * self.spacing if len(self.times) > 1 else 0.0

    def _pull(self) -> bool:
        """Append the stream's next field; False once the stream has ended."""
        nxt = next(self._source, None)
        if nxt is None:
            return False
        if self.times and nxt.time <= self.times[-1]:
            raise InvalidInput("frames must be strictly increasing in time")
        self.frames.append(nxt)
        self.times.append(float(nxt.time))
        return True

    def _bracket(self, t: float):
        """(i, a): t lies between frames i and i + 1, at weight a on i + 1."""
        while self.times[-1] <= t and self._pull():
            pass
        if t < self.times[0] - self.slack:
            raise InvalidInput(
                f"t = {t:g} is outside the frame span: the interpolator reads forward, "
                f"and its first held frame is at t = {self.times[0]:g}"
            )
        if t > self.times[-1] + self.slack:
            raise InvalidInput(
                f"t = {t:g} is outside the frame span, past the last frame at t = {self.times[-1]:g}"
            )
        i, a = 0, 0.0
        if len(self.frames) > 1:
            i = min(max(bisect_right(self.times, t) - 1, 0), len(self.frames) - 2)
            t0, t1 = self.times[i], self.times[i + 1]
            a = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
            if i > 1:
                del self.frames[: i - 1], self.times[: i - 1]
                i = 1
        return i, a

    def complex_at(self, t: float, pts: np.ndarray):
        """Field values (M, 2) at time t and points pts, and the ok flags (M,).

        ok is False where a point is outside the box or any corner node of
        its cell is masked in either bracketing frame.
        """
        i, a = self._bracket(t)
        idx, w, inside = _stencil(self.grid, pts)
        v0, masked = _gather(self.frames[i], idx, w)
        if a == 0.0:
            return v0, inside & ~masked
        v1, masked1 = _gather(self.frames[i + 1], idx, w)
        return (1.0 - a) * v0 + a * v1, inside & ~(masked | masked1)

    def real_at(self, t: float, pts: np.ndarray):
        vals, ok = self.complex_at(t, pts)
        return vals.real, ok

    def point_at(self, t: float, x: float, y: float):
        """complex_at of the one point (x, y) in Python scalars: (vx, vy, ok),
        vx and vy complex or float as the fields are.

        The point is read with _point_stencil and _point_gather, bit for bit
        what complex_at gives for the row [[x, y]]; a NaN, infinite or far
        point, which has no scalar stencil, is read by complex_at itself.
        """
        point = _point_stencil(self.grid, x, y)
        if point is None:
            vals, ok = self.complex_at(t, np.array([[x, y]], dtype=float))
            return vals.item(0), vals.item(1), bool(ok[0])
        idx, w, inside = point
        i, a = self._bracket(t)
        b = 1.0 - a
        if self.frames[i].v.dtype.kind == "c":  # numpy's operands for complex products
            w, b, a = [complex(c) for c in w], complex(b), complex(a)
        vx, vy, masked = _point_gather(self.frames[i], idx, w)
        if a != 0.0:
            vx1, vy1, masked1 = _point_gather(self.frames[i + 1], idx, w)
            vx, vy, masked = b * vx + a * vx1, b * vy + a * vy1, masked or masked1
        return vx, vy, inside and not masked


def _in_box(pts: np.ndarray, half_width: float) -> np.ndarray:
    return np.all(np.abs(pts) < half_width, axis=1)


@dataclass
class Trajectory:
    """Time-stamped gravity-center path; positions stay inside the box."""

    times: np.ndarray
    positions: np.ndarray  # (M, 2) real
    seed_point: np.ndarray
    dt: float


def _sweep(read, steppers):
    """Run generator steppers, whose queries read serves, in the time order
    of their queries; return their results.

    A stepper yields a query (t, *args), is sent read(t, *args) and returns
    its result.  The queries of one stepper move forward in time up to
    roundoff, so read, called in (t, stepper index) order, may be one
    forward-reading FrameInterpolator's.  Every stepper is closed when the
    sweep returns or raises.
    """
    results = [None] * len(steppers)
    pending = []

    def advance(k, reply):
        try:
            query = steppers[k].send(reply)
        except StopIteration as done:
            results[k] = done.value
        else:
            heapq.heappush(pending, (query[0], k, query))

    try:
        for k in range(len(steppers)):
            advance(k, None)
        while pending:
            _, k, query = heapq.heappop(pending)
            advance(k, read(*query))
    finally:
        for stepper in steppers:
            stepper.close()
    return results


def _rk4_batch(interp: FrameInterpolator, x0: np.ndarray, dt: float, n_steps: int):
    """Vectorized RK4 transport of the points x0 (M, 2) through the frames,
    from the first frame's time, reading Re V with real_at:
    (finals, alive, fail_step, left_box).

    Failed points freeze in place; their first bad step index is recorded in
    fail_step.  A point fails by leaving the box (left_box: its new position
    or one of its RK4 stage points lies outside) or else at a masked cell.
    """
    x = np.array(x0, dtype=float)
    t0, L = interp.t0, interp.grid.half_width
    m = x.shape[0]
    alive = np.ones(m, dtype=bool)
    fail_step = np.full(m, -1, dtype=np.int64)
    left_box = np.zeros(m, dtype=bool)
    for s in range(n_steps):
        t = t0 + s * dt
        k1, ok1 = interp.real_at(t, x)
        x2 = x + (dt / 2) * k1
        k2, ok2 = interp.real_at(t + dt / 2, x2)
        x3 = x + (dt / 2) * k2
        k3, ok3 = interp.real_at(t + dt / 2, x3)
        x4 = x + dt * k3
        k4, ok4 = interp.real_at(t + dt, x4)
        ok_field = ok1 & ok2 & ok3 & ok4
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ok_domain = _in_box(x_new, L)
        newly_dead = alive & ~(ok_field & ok_domain)
        if newly_dead.any():
            fail_step[newly_dead] = s
            left_box |= newly_dead & ~(ok_domain & _in_box(x2, L) & _in_box(x3, L) & _in_box(x4, L))
        alive &= ok_field & ok_domain
        x = np.where(alive[:, None], x_new, x)
    return x, alive, fail_step, left_box


def _point_rk4_stepper(x0, t0: float, dt: float, n_steps: int, half_width: float):
    """RK4 transport of the one point x0 = (x, y) from t0, as a stepper of
    _sweep that reads Re V with point_at: _rk4_batch's arithmetic in
    Python floats, in its order, so its positions equal _rk4_batch's bit
    for bit.

    Returns (history, fail_step, left_box): the positions from x0 on and,
    when a step failed (fail_step, else None), whether the point left the
    box as _rk4_batch classifies it.  The failed step is the last one
    queried; history then ends at the position that step started from.
    """
    L = half_width
    x, y = x0
    history = [(x, y)]
    half, sixth = dt / 2, dt / 6.0
    for s in range(n_steps):
        t = t0 + s * dt
        k1x, k1y, ok1 = yield t, x, y
        k1x, k1y = k1x.real, k1y.real
        x2, y2 = x + half * k1x, y + half * k1y
        k2x, k2y, ok2 = yield t + half, x2, y2
        k2x, k2y = k2x.real, k2y.real
        x3, y3 = x + half * k2x, y + half * k2y
        k3x, k3y, ok3 = yield t + half, x3, y3
        k3x, k3y = k3x.real, k3y.real
        x4, y4 = x + dt * k3x, y + dt * k3y
        k4x, k4y, ok4 = yield t + dt, x4, y4
        k4x, k4y = k4x.real, k4y.real
        xn = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        yn = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        ok_domain = abs(xn) < L and abs(yn) < L
        if not (ok1 and ok2 and ok3 and ok4 and ok_domain):
            stages_in = all(abs(c) < L for c in (x2, y2, x3, y3, x4, y4))
            return history, s, not (ok_domain and stages_in)
        x, y = xn, yn
        history.append((x, y))
    return history, None, False


def _check_step(interp: FrameInterpolator, step: float, step_name: str) -> None:
    if step > interp.spacing * (1 + 1e-9):
        raise InvalidInput(f"{step_name} = {step:g} exceeds the frame spacing {interp.spacing:g}")


def _trajectory(transport, x0, t0: float, dt: float) -> Trajectory:
    """The Trajectory of the one point x0 = (x, y) that _point_rk4_stepper
    moved, or LeftDomain / NodeRegion where it failed."""
    history, fail_step, left_box = transport
    if fail_step is not None:
        px, py = history[-1]
        where = f"t = {t0 + fail_step * dt:g}, position ({px:g}, {py:g})"
        start = f"trajectory from ({x0[0]:g}, {x0[1]:g})"
        if left_box:
            raise LeftDomain(f"{start} left the box at {where}")
        raise NodeRegion(f"{start} hit a masked region at {where}")
    return Trajectory(t0 + np.arange(len(history)) * dt, np.array(history), np.array(x0), dt)


def integrate_trajectory(frames, x0, dt: float, T: float | None = None) -> Trajectory:
    """RK4 integration of dX/dt = Re V(X, t) with linear-in-time frames,
    from the first frame's time t0 to T (default: the latest frame's time,
    so that every frame is read and its order checked).

    frames may be any iterable of fields; it is read once, forward, and made
    a list only when T is None.  dt must not exceed the frame spacing;
    position error is O(dt^4) plus O(frame spacing^2) from the time
    interpolation.  A T past the last frame raises InvalidInput when the
    transport reaches that frame; the transport stops reading at the step
    where it leaves the box (LeftDomain) or meets a masked cell (NodeRegion).
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if T is None:
        frames = list(frames)
    interp = FrameInterpolator(frames)
    _check_step(interp, dt, "dt")
    if T is None:
        T = float(max(f.time for f in frames))
    t0 = interp.t0
    n_steps, dt = _step_count(t0, T, dt)
    x0 = np.asarray(x0, dtype=float).reshape(2).tolist()
    stepper = _point_rk4_stepper(x0, t0, dt, n_steps, interp.grid.half_width)
    return _trajectory(_sweep(interp.point_at, [stepper])[0], x0, t0, dt)


def _guided_stepper(x0, t0: float, eps: float, n_cycles: int, half_width: float):
    """The four-point process's means over n_cycles cycles from x0 = (x, y),
    as a stepper of _sweep that reads the complex V with point_at at each
    cycle boundary.  A center outside the box [-half_width, half_width)^2
    raises LeftDomain, one in a masked cell NodeRegion.

    The means are Python complex.  Each step adds v * complex(eps): numpy's
    complex multiply takes eps + 0j, while Python's own complex * float does
    not promote on every version, so the explicit operand keeps the means
    those of the array form mean + v * eps, bit for bit.
    """
    mx, my = complex(x0[0]), complex(x0[1])
    means = [(mx, my)]
    step = complex(eps)
    for q in range(n_cycles):
        t_q = t0 + 4 * q * eps
        cx, cy = mx.real, my.real
        vx, vy, ok = yield t_q, cx, cy
        if not ok:
            if not (-half_width <= cx < half_width and -half_width <= cy < half_width):
                raise LeftDomain(f"gravity center ({cx:g}, {cy:g}) left the box at t = {t_q:g}")
            raise NodeRegion(f"gravity center ({cx:g}, {cy:g}) entered a masked region at t = {t_q:g}")
        if not (cmath.isfinite(vx) and cmath.isfinite(vy)):
            raise NonFiniteVelocity("guiding field produced a non-finite value")
        dx, dy = vx * step, vy * step
        for _ in range(4):
            mx, my = mx + dx, my + dy
            means.append((mx, my))
    return np.array(means)


def guide_processes(frames, params_list, perm: Permutation, x0, T: float) -> list:
    """Drive the four-point process with the wave field along its own path,
    once per PhysParams in params_list, in one forward sweep of frames.

    Each process runs the whole 4-step cycles from the first frame's time t0
    to T.  At every cycle boundary t = t0 + 4q*eps the full complex field is
    read at the current real gravity center and held for the cycle's four
    steps (velocity decisions happen only at creation/annihilation instants).
    Returns one (process record, Bohmian reference) pair per params; the
    reference is integrate_trajectory from the same seed with dt = eps to
    the process's end, and their real parts agree to O(eps) plus
    interpolation error.

    frames, any iterable of fields, is read once: all processes and
    references query one FrameInterpolator in time order, which holds at
    most three fields.  An eps above the frame spacing, a T short of one
    cycle or an epsilon_mode other than fixed raises InvalidInput before any
    query; a center outside the box (LeftDomain) or in a masked cell
    (NodeRegion) or a query past the last frame (InvalidInput) raises when
    the sweep gets there, and a failed reference after the sweep.
    """
    interp = FrameInterpolator(frames)
    t0 = interp.t0
    x0 = np.asarray(x0, dtype=float).reshape(2).tolist()
    plans = []
    for params in params_list:
        eps = _fixed_epsilon(params, "guided processes")
        _check_step(interp, eps, "eps")
        n_cycles = _whole_cycles(T - t0, eps)
        plans.append((params, n_cycles, *_step_count(t0, t0 + 4 * n_cycles * eps, eps)))
    L = interp.grid.half_width
    steppers = []
    for params, n_cycles, n_ref, dt_ref in plans:
        steppers.append(_guided_stepper(x0, t0, params.epsilon, n_cycles, L))
        steppers.append(_point_rk4_stepper(x0, t0, dt_ref, n_ref, L))
    results = _sweep(interp.point_at, steppers)
    pairs = []
    for (params, n_cycles, _, dt_ref), means, transport in zip(plans, results[::2], results[1::2]):
        eps, n_steps = params.epsilon, 4 * n_cycles
        run = _assemble_run(t0 + np.arange(n_steps + 1) * eps, means, np.full(n_steps + 1, eps), params, perm)
        pairs.append((run, _trajectory(transport, x0, t0, dt_ref)))
    return pairs


def guide_process(frames, params: PhysParams, perm: Permutation, x0, T: float):
    """guide_processes for one PhysParams: (process record, reference)."""
    return guide_processes(frames, [params], perm, x0, T)[0]


# ---------------------------------------------------------------------------
# ensembles and equivariance
# ---------------------------------------------------------------------------


def sample_from_density(psi: WaveFunction, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sample of |Psi|^2 on the grid, jittered uniformly per cell.

    The sampled measure is the piecewise-constant density on grid cells, the
    same measure :func:`coarse_density_histogram` integrates, so the T = 0
    total-variation distance against it is pure multinomial noise.
    """
    grid = psi.grid
    weights = psi.density().ravel()
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cells = np.searchsorted(cdf, rng.random(n_samples), side="right")
    ix, iy = np.unravel_index(np.clip(cells, 0, weights.size - 1), (grid.n, grid.n))
    axis = grid.axis
    jitter = (rng.random((n_samples, 2)) - 0.5) * grid.spacing
    return np.column_stack([axis[ix], axis[iy]]) + jitter


def _axis_bin_split(grid: Grid2D, bins: int):
    """Per-cell coarse-bin index and in-bin fraction for the cell's span.

    Each grid cell [x - h/2, x + h/2) may straddle one coarse-bin edge; the
    returned (b0, frac) give the lower bin and the fraction of the cell lying
    in it (the rest belongs to b0 + 1).  Ends are clipped into the box bins.
    """
    h = grid.spacing
    w = 2.0 * grid.half_width / bins
    lo = grid.axis - 0.5 * h
    b0 = np.floor((lo + grid.half_width) / w).astype(np.int64)
    upper_edge = -grid.half_width + (b0 + 1) * w
    frac = np.clip((upper_edge - lo) / h, 0.0, 1.0)
    b1 = np.clip(b0 + 1, 0, bins - 1)
    b0 = np.clip(b0, 0, bins - 1)
    return b0, b1, frac


def coarse_density_histogram(psi: WaveFunction, bins: int) -> np.ndarray:
    """|Psi|^2 integrated over a bins x bins coarse grid, normalized to 1.

    Integrates the piecewise-constant cell measure exactly, splitting cells
    that straddle a coarse-bin edge by their overlap fractions.
    """
    grid = psi.grid
    rho = psi.density()
    bx0, bx1, fx = _axis_bin_split(grid, bins)
    by0, by1, fy = _axis_bin_split(grid, bins)
    hist = np.zeros((bins, bins))
    for bx, wx in ((bx0, fx), (bx1, 1.0 - fx)):
        for by, wy in ((by0, fy), (by1, 1.0 - fy)):
            np.add.at(hist, (bx[:, None], by[None, :]), rho * wx[:, None] * wy[None, :])
    return hist / hist.sum()


@dataclass
class EquivarianceReport:
    n_samples: int
    seed: int
    T: float
    tv_distance: float
    bins: int
    failures: int
    failures_node: int
    failures_left_box: int
    empirical: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)

    def to_json(self, path) -> None:
        write_json(
            path,
            {
                "N": self.n_samples,
                "seed": self.seed,
                "T": self.T,
                "tv_distance": self.tv_distance,
                "bins": self.bins,
                "failures": self.failures,
                "failures_node": self.failures_node,
                "failures_left_box": self.failures_left_box,
            },
        )


def _name_fields_worker():
    threading.current_thread().name = "zitterlab-fields"


def _built_ahead(fields):
    """Yield the items of the iterable fields, built on one worker thread
    with two builds in flight while the caller uses the items before.

    An exception raised by fields is re-raised here at its place in the
    stream, where a serial read would raise it.  The thread starts at the
    first next(); the end of the stream, a raise or close() cancels the
    pending build and joins it.  concurrent.futures is imported here, so
    that import zitterlab loads neither it nor the logging it imports.
    """
    from concurrent.futures import ThreadPoolExecutor

    source, end = iter(fields), object()
    worker = ThreadPoolExecutor(1, initializer=_name_fields_worker)
    try:
        ahead = [worker.submit(next, source, end) for _ in range(2)]
        while (item := ahead.pop(0).result()) is not end:
            ahead.append(worker.submit(next, source, end))
            yield item
    finally:
        worker.shutdown(cancel_futures=True)


def ensemble_equivariance(
    psi_frames,
    n_samples: int,
    seed: int,
    T: float | None = None,
    bins: int = 32,
    hbar: float = 1.0,
    mass: float = 1.0,
    rho_floor: float = DEFAULT_RHO_FLOOR,
    max_failure_fraction: float = 1e-3,
) -> EquivarianceReport:
    """Transport a sample of |Psi|^2 at the first frame's time t0 along
    Bohmian trajectories to T and compare with |Psi(T)|^2 on a coarse grid
    (total-variation distance).

    psi_frames may be any iterable of frames and is read once, in one
    forward sweep: the first frame is kept until the seeds are drawn, the
    frame at T for the histogram, and the transport steps once per frame
    interval through a window of three Re V fields.  The fields are built
    on one worker thread, two builds in flight ahead of the transport, so
    at most five are alive: the window's three, the one built and waiting
    and the one being built.  The worker's two FFT work buffers are
    allocated once per call.
    An error raised by the stream is raised here where a serial read would
    raise it; no thread outlives the call.  A list and an iterator over the
    same frames give equal reports.  T defaults to the last frame's time,
    which reads the whole iterable before transport.

    A transported ensemble keeping the quantum density is exactly the content
    of the continuity equation d(rho)/dt + div(rho grad(S)/m) = 0.
    """
    if n_samples < 1000:
        raise InvalidInput(f"need at least 1e3 samples, got {n_samples}")
    if T is None:
        psi_frames = list(psi_frames)
        T = float(psi_frames[-1].time) if psi_frames else 0.0
    tol = 1e-9 * max(1.0, abs(T))
    frames = iter(psi_frames)
    first = next(frames, None)
    if first is None:
        raise InvalidInput("need at least one frame")
    grid, t0 = first.grid, float(first.time)
    finals = sample_from_density(first, n_samples, np.random.default_rng(seed))
    target = first if abs(t0 - T) <= tol else None

    def later():
        nonlocal target
        for f in frames:
            if target is None and abs(f.time - T) <= tol:
                target = f
            if target is None and f.time > T:
                break
            yield f
        if target is None:
            raise InvalidInput(f"no frame at T = {T}")

    node = left = 0
    if T > t0:
        stream = chain([first], later())
        del first  # frame 0 is not needed past the seeds
        built = _built_ahead(velocity_field(f, hbar, mass, rho_floor, real=True) for f in stream)
        with closing(built) as fields:
            window = FrameInterpolator(fields)
            n_steps, dt = _step_count(t0, T, window.spacing)
            finals, alive, _, left_box = _rk4_batch(window, finals, dt, n_steps)
        left = int(np.count_nonzero(left_box))
        node = int(np.count_nonzero(~alive)) - left
        if node + left > max_failure_fraction * n_samples:
            raise EnsembleFailure(
                f"{node + left}/{n_samples} trajectories terminated early, {node} at a node and "
                f"{left} by leaving the box (limit {max_failure_fraction:.1%})"
            )
        finals = finals[alive]
    if target is None:
        raise InvalidInput(f"no frame at T = {T}")
    edges = np.linspace(-grid.half_width, grid.half_width, bins + 1)
    hist, _, _ = np.histogram2d(finals[:, 0], finals[:, 1], bins=[edges, edges])
    empirical = hist / hist.sum()
    target = coarse_density_histogram(target, bins)
    tv = 0.5 * float(np.abs(empirical - target).sum())
    return EquivarianceReport(n_samples, seed, float(T), tv, bins, node + left, node, left, empirical, target)


def trajectories_to_csv(path, trajectories) -> None:
    header = ["seed_index", "t", "x", "y"]
    rows = []
    for idx, tr in enumerate(trajectories):
        for t, pos in zip(tr.times, tr.positions):
            rows.append([idx, t, pos[0], pos[1]])
    write_csv(path, header, rows)
