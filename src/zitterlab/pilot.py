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
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EnsembleFailure, InvalidInput, LeftDomain, NodeRegion, NonFiniteVelocity
from .fileio import write_csv, write_json
from .process import PhysParams, Permutation, _assemble_run, _fixed_epsilon, _step_count, _whole_cycles
from .schrodinger import DEFAULT_RHO_FLOOR, Grid2D, WaveFunction, _densities, _stacked_ratios


@dataclass
class VelocityField:
    """Complex guiding velocity of a product frame at one instant, per axis:
    V(x, y) = (vx(x), vy(y)) on the live cells.

    v (n, 2) holds vx at the x nodes in column 0 and vy at the y nodes in
    column 1: complex, or for a field used only for Bohmian transport Re V
    alone as float.  At every live node m*v = grad S - i (hbar/2) grad log
    rho.  cell_min (n, 2) holds the smaller density of each cell's two nodes
    per axis, of the factors' densities |fx|^2 and |fy|^2, with the periodic
    wrap.  Cell (i, j) is live iff cell_min[i, 0] * cell_min[j, 1] >= floor
    = rho_floor max|fx|^2 max|fy|^2.  Rounding of a product of non-negative
    numbers is monotone, so that product is the smallest of the cell's four
    corner products, and the test equals bit for bit the node mask
    rho < floor of the n x n density, dilated to the cells.  repr and ==
    read no array.
    """

    grid: Grid2D
    v: np.ndarray = field(repr=False, compare=False)
    cell_min: np.ndarray = field(repr=False, compare=False)
    floor: float
    time: float


def _velocity(ratios: np.ndarray, scale: float, real: bool) -> np.ndarray:
    """V = -i scale ratios elementwise, as Re V = scale Im(ratios) and
    Im V = -scale Re(ratios); with real=True Re V alone, as float64."""
    v = np.empty(ratios.shape, dtype=float if real else complex)
    v.real = scale * ratios.imag
    if not real:
        v.imag = -scale * ratios.real
    return v


def velocity_field(
    psi: WaveFunction,
    hbar: float = 1.0,
    mass: float = 1.0,
    rho_floor: float = DEFAULT_RHO_FLOOR,
    real: bool = False,
) -> VelocityField:
    """V = -i (hbar/m) grad(Psi)/Psi per axis, O(n): vx and vy from the
    per-axis ratios of psi_ratios (2n numbers, 0 at an axis node with no
    live cell, both axes from one stacked FFT pair), the cell minima and
    the floor rho_floor * max(rho).
    On the live cells Re V = (hbar/m) Im(grad(Psi)/Psi) and
    Im V = -(hbar/m) Re(grad(Psi)/Psi).  With real=True, v holds Re V alone
    as float64, which is all Bohmian transport reads, and equals the real
    part of the complex field bit for bit.
    """
    rho, floor, ratios = _stacked_ratios(psi, rho_floor, False)
    cell_min = np.empty((psi.grid.n, 2))
    np.minimum(rho[:, :-1].T, rho[:, 1:].T, out=cell_min[:-1])
    np.minimum(rho[:, -1], rho[:, 0], out=cell_min[-1])  # the periodic wrap
    return VelocityField(psi.grid, _velocity(ratios[0].T, hbar / mass, real), cell_min, floor, psi.time)


def _in_box(pts: np.ndarray, half_width: float) -> np.ndarray:
    """(M,) flags of the points pts (M, 2) inside the box [-L, L)^2, L = half_width."""
    box = (pts >= -half_width) & (pts < half_width)
    return box[:, 0] & box[:, 1]


def _inside(x: float, y: float, half_width: float) -> bool:
    """_in_box of the one point (x, y) in Python scalars."""
    return -half_width <= x < half_width and -half_width <= y < half_width


class _Stencil:
    """Linear stencil of the points pts (M, 2) on the periodic grid, per axis.

    lo and hi (M, 2) are the flat indices, into an (n, 2) per-axis array, of
    the lower and upper node of each point's cell along x (column 0) and y
    (column 1); the upper node wraps to node 0.  frac (M, 2) is the position
    inside the cell, in [0, 1), so the weights are weight = 1 - frac (lower)
    and frac (upper).  inside flags the points in the box.  A bracket reads
    its per-axis table at lo and hi.  One stencil serves every frame sampled
    at the same points.  The large temporaries are updated in place: at 1e4
    points each fresh one costs more in page faults than in arithmetic.
    """

    def __init__(self, grid: Grid2D, pts: np.ndarray):
        n, h, L = grid.n, grid.spacing, grid.half_width
        f = pts + L
        f /= h
        c = np.floor(f)
        f -= c  # the position inside the cell, in [0, 1) per axis
        c = c.astype(np.int64)
        np.maximum(c, 0, out=c)
        np.minimum(c, n - 1, out=c)
        c *= 2
        c[:, 1] += 1  # column 1: the y axis
        hi = c + 2
        hi &= 2 * n - 1  # the periodic wrap: n is a power of two
        self.lo, self.hi, self.frac = c, hi, f
        self.weight = 1.0 - f
        self.inside = _in_box(pts, L)


def _masked_cells(cell_min: np.ndarray, floor: float, lo: np.ndarray) -> np.ndarray:
    """The per-axis cell test at the lower nodes lo (M, 2) of _Stencil: True
    where cell_min[lo_x, 0] * cell_min[lo_y, 1] < floor, the cell masked."""
    m = cell_min.take(lo)
    return m[:, 0] * m[:, 1] < floor


# Past 2**62 cells a cell index no longer fits _Stencil's cast to int64.
_FAR = 2.0**62


def _point_stencil(grid: Grid2D, x: float, y: float):
    """_Stencil of the one point (x, y) in Python scalars: its cell's nodes
    (i0, i1, j0, j1), their weights (1 - fx, fx, 1 - fy, fy) and its in-box
    flag, or None when a coordinate is NaN, infinite or more than _FAR cells
    out.

    Each number comes from the same operations as _Stencil's, so it equals
    _Stencil's bit for bit.  point_at takes it in place of some twenty numpy
    calls on (1, 2) arrays.
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
    return (i0, i1, j0, j1), (1.0 - fx, fx, 1.0 - fy, fy), _inside(x, y, L)


def bohm_velocity_at(fld: VelocityField, x) -> np.ndarray:
    """Re V interpolated at one position; the Bohmian velocity grad(S)/m."""
    px, py = np.asarray(x, dtype=float).reshape(2).tolist()
    L = fld.grid.half_width
    if not _inside(px, py, L):
        raise LeftDomain(f"query ({px:g}, {py:g}) is outside the box [-{L}, {L})^2")
    vx, vy, ok = FrameInterpolator([fld]).point_at(fld.time, px, py)
    if not ok:
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

    A bracket (i, a), a the weight on frame i + 1, is read from one per-axis
    table: v_a = (1 - a) v_i + a v_(i+1), or frame i's own v at a = 0, and
    the cell test of the smaller cell minimum of the two frames against the
    larger floor.  The last table is kept, so the RK4's two mid-stage reads
    share one.  A point reads (1 - frac) v_a[lo] + frac v_a[hi] per axis.
    Rounding of a product of non-negative numbers is monotone, so a cell the
    table's test leaves live is live in both frames; the cells it masks take
    each frame's own test, and the ok flags are those of the two frames'
    tests.
    """

    def __init__(self, fields):
        self._source = iter(fields)
        self.frames, self.times = [], []
        if not self._pull():
            raise InvalidInput("need at least one frame")
        self.grid, self.t0 = self.frames[0].grid, self.times[0]
        self.spacing = self.times[1] - self.t0 if self._pull() else math.inf
        self.slack = 1e-9 * self.spacing if len(self.times) > 1 else 0.0
        self._table_key = self._table = None

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

    def _axis_table(self, i: int, a: float):
        """(v_a, cell_min, floor) of the bracket (i, a); at a = 0 frame i's
        own arrays."""
        if a == 0.0:
            f = self.frames[i]
            return f.v, f.cell_min, f.floor
        key = (self.times[i], a)  # times strictly increase: times[i] names frame i and its successor
        if key != self._table_key:
            f0, f1 = self.frames[i], self.frames[i + 1]
            v = (1.0 - a) * f0.v + a * f1.v
            self._table = v, np.minimum(f0.cell_min, f1.cell_min), max(f0.floor, f1.floor)
            self._table_key = key
        return self._table

    def complex_at(self, t: float, pts: np.ndarray):
        """Field values (M, 2) at time t and points pts, and the ok flags (M,).

        ok is False where a point is outside the box or any corner node of
        its cell is masked in either bracketing frame; the values at such a
        point are unspecified.
        """
        i, a = self._bracket(t)
        st = _Stencil(self.grid, pts)
        v, cell_min, floor = self._axis_table(i, a)
        vals = v.take(st.lo)
        vals *= st.weight
        upper = v.take(st.hi)
        upper *= st.frac
        vals += upper
        masked = _masked_cells(cell_min, floor, st.lo)
        if a != 0.0 and masked.any():  # the table's test is sufficient, not necessary
            k = np.flatnonzero(masked)
            lo, (f0, f1) = st.lo[k], self.frames[i : i + 2]
            masked[k] = _masked_cells(f0.cell_min, f0.floor, lo) | _masked_cells(f1.cell_min, f1.floor, lo)
        return vals, st.inside & ~masked

    def real_at(self, t: float, pts: np.ndarray):
        vals, ok = self.complex_at(t, pts)
        return vals.real, ok

    def point_at(self, t: float, x: float, y: float):
        """complex_at of the one point (x, y) in Python scalars: (vx, vy, ok),
        vx and vy complex or float as the fields are.

        A point with a scalar stencil is read by the operations of
        complex_at's row [[x, y]], in its order, so the result equals that
        row bit for bit: each of the cell's two nodes per axis is blended in
        time and then the two are lerped, and each frame takes its own cell
        test.  On a complex field each weight is given as w + 0j, the
        operand of numpy's complex multiply, so even the signs of zero parts
        are numpy's; Python's own float * complex does not promote on every
        version.  A NaN, infinite or far point returns complex_at's row
        itself.
        """
        i, a = self._bracket(t)
        point = _point_stencil(self.grid, x, y)
        first = self.frames[i]
        later = None if a == 0.0 else self.frames[i + 1]
        if point is None:
            vals, ok = self.complex_at(t, np.array([[x, y]], dtype=float))
            return vals.item(0), vals.item(1), bool(ok[0])
        nodes, w, inside = point
        b = 1.0 - a
        if first.v.dtype.kind == "c":  # numpy's operands for complex products
            w, b, a = [complex(c) for c in w], complex(b), complex(a)
        # column 0 of node i is item 2i of an (n, 2) array, column 1 of node j item 2j + 1
        i0, i1, j0, j1 = nodes
        ix0, ix1, iy0, iy1 = 2 * i0, 2 * i1, 2 * j0 + 1, 2 * j1 + 1
        gx, fx, gy, fy = w
        v, m = first.v.item, first.cell_min.item
        masked = m(ix0) * m(iy0) < first.floor
        if later is None:
            vx = gx * v(ix0) + fx * v(ix1)
            vy = gy * v(iy0) + fy * v(iy1)
        else:
            v1, m = later.v.item, later.cell_min.item
            vx = gx * (b * v(ix0) + a * v1(ix0)) + fx * (b * v(ix1) + a * v1(ix1))
            vy = gy * (b * v(iy0) + a * v1(iy0)) + fy * (b * v(iy1) + a * v1(iy1))
            masked = masked or m(ix0) * m(iy0) < later.floor
        return vx, vy, inside and not masked


@dataclass
class Trajectory:
    """Time-stamped gravity-center path; positions stay inside the box.

    dt is the spacing of times.  The positions are read from rk4_steps RK4
    steps of rk4_dt: for integrate_trajectory these are the times' own
    steps, for a guide_processes reference the shared history's steps at
    the frame spacing, read at the times by dense output.
    """

    times: np.ndarray
    positions: np.ndarray  # (M, 2) real
    seed_point: np.ndarray
    dt: float
    rk4_dt: float
    rk4_steps: int


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
    The frozen rows are copied back only once some point has failed.
    """
    x = np.array(x0, dtype=float)
    t0, L = interp.t0, interp.grid.half_width
    m = x.shape[0]
    alive = np.ones(m, dtype=bool)
    dead = None  # the indices of the failed points, once there are some
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
            dead = np.flatnonzero(~alive)
        if dead is not None:
            x_new[dead] = x[dead]
        x = x_new
    return x, alive, fail_step, left_box


def _point_rk4_stepper(x0, t0: float, dt: float, n_steps: int, half_width: float):
    """RK4 transport of the one point x0 = (x, y) from t0, as a stepper of
    _sweep that reads Re V with point_at: _rk4_batch's arithmetic in
    Python floats, in its order, so its positions equal _rk4_batch's bit
    for bit.

    Returns (history, slopes, fail_step, left_box): the positions from x0
    on, each taken step's stage slopes (k1x, k1y, ..., k4x, k4y) and, when
    a step failed (fail_step, else None), whether the point left the box as
    _rk4_batch classifies it.  The failed step is the last one queried;
    history then ends at the position that step started from.
    """
    L = half_width
    x, y = x0
    history, slopes = [(x, y)], []
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
        ok_domain = _inside(xn, yn, L)
        if not (ok1 and ok2 and ok3 and ok4 and ok_domain):
            stages_in = _inside(x2, y2, L) and _inside(x3, y3, L) and _inside(x4, y4, L)
            return history, slopes, s, not (ok_domain and stages_in)
        x, y = xn, yn
        history.append((x, y))
        slopes.append((k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y))
    return history, slopes, None, False


def _check_step(interp: FrameInterpolator, step: float, step_name: str) -> None:
    if step > interp.spacing * (1 + 1e-9):
        raise InvalidInput(f"{step_name} = {step:g} exceeds the frame spacing {interp.spacing:g}")


def _history(transport, x0, t0: float, dt: float):
    """(positions (n + 1, 2), slopes (n, 4, 2)) of the one point x0 = (x, y)
    that _point_rk4_stepper moved n steps of dt from t0, or LeftDomain /
    NodeRegion where it failed."""
    history, slopes, fail_step, left_box = transport
    if fail_step is not None:
        px, py = history[-1]
        where = f"t = {t0 + fail_step * dt:g}, position ({px:g}, {py:g})"
        start = f"trajectory from ({x0[0]:g}, {x0[1]:g})"
        if left_box:
            raise LeftDomain(f"{start} left the box at {where}")
        raise NodeRegion(f"{start} hit a masked region at {where}")
    return np.array(history), np.array(slopes).reshape(-1, 4, 2)


def _dense_output(history: np.ndarray, slopes: np.ndarray, h: float, offsets: np.ndarray) -> np.ndarray:
    """Positions (M, 2) at t0 + offsets of the RK4 history with steps h:
    RK4's own order-3 continuous extension y_i + h sum_k b_k(theta) k_k at
    theta = offset / h - i (Hairer, Norsett & Wanner, Solving ODEs I, II.6),
    which needs no further read.  An offset within 1e-9 steps of a step
    boundary reads that boundary's y_i itself."""
    u = offsets / h
    i = np.rint(u)
    on_step = np.abs(u - i) <= 1e-9
    i = np.where(on_step, i, np.floor(u)).astype(np.int64)
    s = np.minimum(i, len(slopes) - 1)
    th = (u - s)[:, None]
    th2 = th * th
    c = 2.0 * (th2 * th) / 3.0
    b1, b23, b4 = th - 1.5 * th2 + c, th2 - c, c - 0.5 * th2
    k1, k2, k3, k4 = slopes[s, 0], slopes[s, 1], slopes[s, 2], slopes[s, 3]
    dense = history[s] + h * (b1 * k1 + b23 * k2 + b23 * k3 + b4 * k4)
    return np.where(on_step[:, None], history[i], dense)


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
    history, _ = _history(_sweep(interp.point_at, [stepper])[0], x0, t0, dt)
    return Trajectory(t0 + np.arange(n_steps + 1) * dt, history, np.array(x0), dt, dt, n_steps)


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
            if not _inside(cx, cy, half_width):
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
    Returns one (process record, Bohmian reference) pair per params; their
    real parts agree to O(eps) plus interpolation error.

    All pairs share one reference: RK4 from the same seed in n = ceil(span
    / frame spacing) steps of h = span / n, span running from t0 to the
    latest process end, so that no step is longer than the frame spacing.
    Each pair's reference Trajectory has the times of its process's n'
    steps, t0 + k ((t0 + n' eps) - t0) / n', and reads its positions from
    that one history by RK4's continuous extension (_dense_output).

    frames, any iterable of fields, is read once: all processes and the
    reference query one FrameInterpolator in time order, which holds at
    most three fields.  An empty params_list raises InvalidInput before any
    field is read, and an eps above the frame spacing, a T short of one
    cycle or an epsilon_mode other than fixed before any query; a center
    outside the box (LeftDomain) or in a masked cell (NodeRegion) or a query
    past the last frame (InvalidInput) raises when the sweep gets there,
    and a failed reference after the sweep.
    """
    if not params_list:
        raise InvalidInput("guided processes need at least one PhysParams")
    interp = FrameInterpolator(frames)
    t0 = interp.t0
    x0 = np.asarray(x0, dtype=float).reshape(2).tolist()
    plans = []
    for params in params_list:
        eps = _fixed_epsilon(params, "guided processes")
        _check_step(interp, eps, "eps")
        plans.append((params, _whole_cycles(T - t0, eps)))
    span = max(4 * n_cycles * params.epsilon for params, n_cycles in plans)
    n_ref = max(1, math.ceil(span / interp.spacing - 1e-9))
    h = span / n_ref
    L = interp.grid.half_width
    steppers = [_guided_stepper(x0, t0, params.epsilon, n_cycles, L) for params, n_cycles in plans]
    steppers.append(_point_rk4_stepper(x0, t0, h, n_ref, L))
    *results, transport = _sweep(interp.point_at, steppers)
    history, slopes = _history(transport, x0, t0, h)
    pairs = []
    for (params, n_cycles), means in zip(plans, results):
        eps, n_steps = params.epsilon, 4 * n_cycles
        run = _assemble_run(t0 + np.arange(n_steps + 1) * eps, means, np.full(n_steps + 1, eps), params, perm)
        n, dt = _step_count(t0, t0 + n_steps * eps, eps)
        offsets = np.arange(n + 1) * dt
        positions = _dense_output(history, slopes, h, offsets)
        pairs.append((run, Trajectory(t0 + offsets, positions, np.array(x0), dt, h, n_ref)))
    return pairs


def guide_process(frames, params: PhysParams, perm: Permutation, x0, T: float):
    """guide_processes for one PhysParams: (process record, reference), the
    reference integrated at the frame spacing to the process's end and read
    at its eps grid."""
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
    that straddle a coarse-bin edge by their overlap fractions.  The density
    is rx ry per cell, so the histogram is the outer product of the two
    per-axis sums, O(n) and not O(n^2).
    """
    grid = psi.grid
    bx0, bx1, fx = _axis_bin_split(grid, bins)
    by0, by1, fy = _axis_bin_split(grid, bins)
    rx, ry = _densities(psi)
    hx = np.bincount(bx0, rx * fx, bins) + np.bincount(bx1, rx * (1.0 - fx), bins)
    hy = np.bincount(by0, ry * fy, bins) + np.bincount(by1, ry * (1.0 - fy), bins)
    hist = np.outer(hx, hy)
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
    interval through a window of three Re V fields.  Each field is built
    on the calling thread as the transport pulls it, so at most four are
    alive: the window's three and the one just built.  An error raised by
    the stream is raised here, at the read that reaches it.  A list and an
    iterator over the same frames give equal reports.  T defaults to the
    last frame's time, which reads the whole iterable before transport.

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
        window = FrameInterpolator(velocity_field(f, hbar, mass, rho_floor, real=True) for f in stream)
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
    # per trajectory: its seed_index, t, x and y columns; no trajectory writes the header alone
    parts = [(np.full(len(tr.times), idx), tr.times, *tr.positions.T) for idx, tr in enumerate(trajectories)]
    write_csv(path, ["seed_index", "t", "x", "y"], [np.concatenate(column) for column in zip(*parts)])
