"""Numerical certification of the model's analytic identities.

Checks implemented here:

* cycle-boundary increments of vertex-averaged observables follow the
  complex generator D = d/dt + V.grad - i(hbar/2m) Lap at first order,
* vertices converge to the classical drift path at rate 1/2, the mean at
  rate 1 (sup norms over the run, log-log rate fits),
* solver or analytic wave frames satisfy the second-order complex
  Hamilton-Jacobi relation dS/dt + (grad S)^2/2m + V - i(hbar/2m) Lap S = 0
  on the real slice, evaluated entirely through grad(Psi)/Psi ratios,
* the quadratic-Lagrangian inner minimization is stationary at V = grad(S)/m
  with the saddle signature of a complex minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import HJ_RHO_FLOOR
from .errors import InvalidInput
from .fileio import write_json
from .process import (
    PhysParams,
    Permutation,
    VelocityProgram,
    run_process,  # bound here only for perfbench/smoke.py, which checks the tracer wraps every binding of it
    _classical_path,
    _run_blocks,
    _eval_velocity,
    _fixed_epsilon,
    _whole_cycles,
)
from .schrodinger import Potential, WaveFunction, _potential_parts, psi_ratios

REFERENCE_REFINEMENT = 10  # reference substeps per process step in the convergence sweep
SADDLE_FD_STEP = 1e-3  # central-difference step of the saddle check's stationarity gradient
SADDLE_DELTAS = (1e-2, 1e-1)  # sizes of the saddle check's real and imaginary perturbations


# ---------------------------------------------------------------------------
# holomorphic test functions with exact derivatives
# ---------------------------------------------------------------------------


class TestFunction:
    """Holomorphic map C^2 -> C with closed-form gradient and Laplacian."""

    name = "base"

    def value(self, z: np.ndarray, t: float) -> complex:
        raise NotImplementedError

    def grad(self, z: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def laplacian(self, z: np.ndarray, t: float) -> complex:
        raise NotImplementedError

    def dt(self, z: np.ndarray, t: float) -> complex:
        return 0.0


class QuadraticSum(TestFunction):
    """f = Z1^2 + Z2^2."""

    name = "quadratic"

    def value(self, z, t):
        return z[..., 0] ** 2 + z[..., 1] ** 2

    def grad(self, z, t):
        return 2.0 * z

    def laplacian(self, z, t):
        return 4.0 + 0.0 * z[..., 0]


class Product(TestFunction):
    """f = Z1 Z2."""

    name = "product"

    def value(self, z, t):
        return z[..., 0] * z[..., 1]

    def grad(self, z, t):
        return np.stack([z[..., 1], z[..., 0]], axis=-1)

    def laplacian(self, z, t):
        return 0.0 * z[..., 0]


class Cubic(TestFunction):
    """f = Z1^3."""

    name = "cubic"

    def value(self, z, t):
        return z[..., 0] ** 3

    def grad(self, z, t):
        return np.stack([3.0 * z[..., 0] ** 2, 0.0 * z[..., 1]], axis=-1)

    def laplacian(self, z, t):
        return 6.0 * z[..., 0]


class Linear(TestFunction):
    """f = Z1."""

    name = "linear"

    def value(self, z, t):
        return z[..., 0]

    def grad(self, z, t):
        return np.stack([np.ones_like(z[..., 0]), np.zeros_like(z[..., 1])], axis=-1)

    def laplacian(self, z, t):
        return 0.0 * z[..., 0]


class GaussianSeries(TestFunction):
    """Truncated entire series sum_{k<=4} (-g)^k/k! with g = Z1^2 + Z2^2."""

    name = "gaussian_series"
    order = 4

    def _g(self, z):
        return z[..., 0] ** 2 + z[..., 1] ** 2

    def _series(self, g, shift: int):
        total = 0.0 * g
        for k in range(self.order + 1 - shift):
            total = total + (-g) ** k / math.factorial(k)
        return total

    def value(self, z, t):
        return self._series(self._g(z), 0)

    def grad(self, z, t):
        # d/dZ_k = f'(g) * 2 Z_k with f'(g) = -sum_{k<=3} (-g)^k/k!
        return -self._series(self._g(z), 1)[..., None] * 2.0 * z

    def laplacian(self, z, t):
        g = self._g(z)
        fp = -self._series(g, 1)
        fpp = self._series(g, 2)
        return 4.0 * g * fpp + 4.0 * fp


CATALOG = {
    f.name: f for f in (QuadraticSum(), Product(), Cubic(), Linear(), GaussianSeries())
}


def dynkin_apply(f: TestFunction, z, t, vel_value, params: PhysParams):
    """df/dt + V.grad(f) - i (hbar/2m) Lap(f) from closed-form derivatives.

    z and vel_value have shape (..., 2) with matching leading axes, and t is
    a scalar or broadcasts against the leading shape.  One point gives a
    complex, a batch an array of the leading shape.
    """
    z = np.asarray(z, dtype=complex)
    vel_value = np.asarray(vel_value, dtype=complex)
    drift = np.sum(vel_value * f.grad(z, t), axis=-1)
    out = f.dt(z, t) + drift - 0.5j * params.hbar / params.mass * f.laplacian(z, t)
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------


def fit_rate(xs, errors) -> float:
    """Least-squares slope of log(error) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0):
        raise InvalidInput("rate fit needs strictly positive errors")
    if np.unique(xs).size < 2:
        raise InvalidInput("rate fit needs at least two distinct sweep values")
    return float(np.polyfit(np.log(xs), np.log(errors), 1)[0])


def sweep_samples(values, errors) -> list:
    """The "samples" of a sweep's JSON: one {"eps_or_N", "error"} per swept value."""
    return [{"eps_or_N": v, "error": e} for v, e in zip(values, errors)]


@dataclass
class RateReport:
    """Sweep record: errors per discretization value plus the fitted slope."""

    check: str
    values: tuple
    errors: tuple
    fitted_rate: float
    target: float
    band: tuple
    passed: bool
    parameters: dict

    def to_json(self, path) -> None:
        write_json(
            path,
            {
                "check": self.check,
                "parameters": self.parameters,
                "samples": sweep_samples(self.values, self.errors),
                "fitted_rate": self.fitted_rate,
                "target": self.target,
                "band": list(self.band),
                "pass": self.passed,
            },
        )


def _sweep_params(template: PhysParams, epsilons) -> list:
    """template at every swept eps, largest first.  InvalidInput for fewer
    than 4 values, under two decades, or a template that does not run at its
    own epsilon (only fixed mode does)."""
    _fixed_epsilon(template, "eps sweeps")
    eps = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    if eps.size < 4:
        raise InvalidInput(f"sweep needs at least 4 epsilons, got {eps.size}")
    if eps[0] / eps[-1] < 99.0:
        raise InvalidInput("sweep must span at least two decades")
    return [replace(template, epsilon=float(e)) for e in eps]


def _rate_report(check, values, errors, target, band, parameters) -> RateReport:
    rate = fit_rate(values, errors)
    passed = band[0] <= rate <= band[1]
    return RateReport(
        check=check,
        values=tuple(float(v) for v in values),
        errors=tuple(float(e) for e in errors),
        fitted_rate=rate,
        target=target,
        band=tuple(band),
        passed=passed,
        parameters=parameters,
    )


# ---------------------------------------------------------------------------
# cycle-boundary generator identity
# ---------------------------------------------------------------------------


def _increment_residuals(fs, params: PhysParams, perm: Permutation, vel: VelocityProgram, T: float) -> list:
    """cycle_increment_residuals of each test function in fs, from one run."""
    eps = _fixed_epsilon(params, "cycle increments")
    n_cycles = _whole_cycles(T, eps)
    _, _, blocks = _run_blocks(params, perm, vel, np.zeros(2, dtype=complex), 4 * n_cycles * eps)
    residuals = [[] for _ in fs]
    y_before = [np.empty(0, dtype=complex)] * len(fs)  # each f's Y at the state before the block's first boundary
    for block in blocks:
        # the block starts on a boundary: its boundaries are states 0, 4, ..., each after a cycle's
        # last state 3, 7, ... (in the block before for state 0); n = 0 ends no cycle.  Every batch
        # stays an array, even of one boundary, so each value is the one a whole-run batch gives.
        now = slice(4 if block.start == 0 else 0, None, 4)
        t = block.times[now]
        drift = _eval_velocity(vel, t)
        for k, f in enumerate(fs):
            y_now = np.mean(f.value(block.vertices[now], t[:, None]), axis=1)
            y_ends = np.mean(f.value(block.vertices[3::4], block.times[3::4, None]), axis=1)
            y_prev = np.concatenate([y_before[k], y_ends])[: len(y_now)]
            y_before[k] = y_ends[-1:]
            gap = (y_now - y_prev) / eps - dynkin_apply(f, block.means[now], t, drift, params)
            # hypot, as abs() of one complex does; np.abs of a complex array can
            # differ from it in the last bit
            residuals[k].append(np.hypot(gap.real, gap.imag))
    return [np.concatenate(r) for r in residuals]


def cycle_increment_residuals(
    f: TestFunction, params: PhysParams, perm: Permutation, vel: VelocityProgram, T: float
) -> np.ndarray:
    """|[Y(t) - Y(t-eps)]/eps - Df(mean(t), t)| at every boundary t = 4q*eps.

    Y(t) is the vertex average of f; D uses the drift value at the boundary
    and is evaluated at the mean process (the expansion lives around it).
    """
    return _increment_residuals((f,), params, perm, vel, T)[0]


def increment_maxima(fs, params_template: PhysParams, perm: Permutation, vel: VelocityProgram, T: float, epsilons):
    """(swept eps, largest first; (eps, f) array of each f's largest cycle_increment_residuals),
    from one process run per eps for all of fs.  A NaN residual makes its entry NaN."""
    sweep = _sweep_params(params_template, epsilons)
    maxima = [[np.max(r) for r in _increment_residuals(fs, params, perm, vel, T)] for params in sweep]
    return [params.epsilon for params in sweep], np.array(maxima)


def generator_report(f: TestFunction, swept, errors, T: float, vel: VelocityProgram) -> RateReport:
    """f's rate report from its largest residual at each swept eps (target 1)."""
    parameters = {"f": f.name, "T": T, "velocity": vel.describe()}
    return _rate_report("cycle_increment_generator", swept, errors, 1.0, (0.9, 1.1), parameters)


def generator_identity_check(
    f: TestFunction,
    params_template: PhysParams,
    perm: Permutation,
    vel: VelocityProgram,
    T: float,
    epsilons,
) -> RateReport:
    """Sweep eps and fit the rate of the boundary-increment residual (target 1).

    T is truncated per eps to a whole number of cycles.
    """
    swept, maxima = increment_maxima((f,), params_template, perm, vel, T, epsilons)
    return generator_report(f, swept, maxima[:, 0], T, vel)


# ---------------------------------------------------------------------------
# convergence to the classical drift path
# ---------------------------------------------------------------------------


def process_convergence_rates(
    params_template: PhysParams,
    perm: Permutation,
    vel: VelocityProgram,
    z0,
    T: float,
    epsilons,
):
    """(vertex RateReport, mean RateReport) against the 4th-order reference.

    Expected rates: 1/2 for the sup vertex deviation (the internal hop scales
    as sqrt(eps)), 1 for the mean process (frozen-drift Euler steps).
    """
    sweep = _sweep_params(params_template, epsilons)
    z0 = np.asarray(z0, dtype=complex).reshape(2)
    vertex_errors = []
    mean_errors = []
    for params in sweep:
        _, n_states, blocks = _run_blocks(params, perm, vel, z0, T)
        span, dt = (n_states - 1) * params.epsilon, params.epsilon / REFERENCE_REFINEMENT
        # the reference's kept positions come in blocks of as many states as the run's
        reference = _classical_path(vel, z0, span, dt, REFERENCE_REFINEMENT)
        maxima = []
        for block, (_, positions) in zip(blocks, reference, strict=True):
            vertex_dev = np.linalg.norm(block.vertices - positions[:, None, :], axis=2)
            mean_dev = np.linalg.norm(block.means - positions, axis=1)
            maxima.append([np.max(np.abs(vertex_dev)), np.max(mean_dev)])
        # np.max, unlike max(), passes a NaN in any block on
        vertex_max, mean_max = np.max(maxima, axis=0)
        vertex_errors.append(float(vertex_max))
        mean_errors.append(float(mean_max))
    eps_list = [params.epsilon for params in sweep]
    vertex_report = _rate_report(
        "vertex_convergence",
        eps_list,
        vertex_errors,
        target=0.5,
        band=(0.45, 0.55),
        parameters={"T": T, "velocity": vel.describe()},
    )
    mean_report = _rate_report(
        "mean_convergence",
        eps_list,
        mean_errors,
        target=1.0,
        band=(0.95, math.inf),
        parameters={"T": T, "velocity": vel.describe()},
    )
    return vertex_report, mean_report


# ---------------------------------------------------------------------------
# complex Hamilton-Jacobi residual on wave frames
# ---------------------------------------------------------------------------


@dataclass
class HJResidualReport:
    """Largest residual over the unmasked bulk of every interior frame, raw
    and with the frame's mean residual removed."""

    overall_linf: float
    overall_linf_centered: float


def _live_ratios(psi: WaveFunction, rho_floor: float):
    """(live, (ratio_x, ratio_y)) of psi: live, the n x n mask of the cells
    psi_ratios counts live, and the per-axis ratios with laplacian=True.
    InvalidInput where the floor masks every cell."""
    rx, ry, floor, ratios = psi_ratios(psi, rho_floor, laplacian=True)
    live = ~(np.outer(rx, ry) < floor)
    if not live.any():
        raise InvalidInput(f"rho_floor = {rho_floor:g} masks every cell")
    return live, ratios


def complex_hj_residual(
    psi_frames,
    pot: Potential,
    hbar: float = 1.0,
    mass: float = 1.0,
    rho_floor: float = HJ_RHO_FLOOR,
) -> HJResidualReport:
    """Evaluate dS/dt + (grad S)^2/2m + V - i(hbar/2m) Lap S on the real slice.

    All action derivatives are expressed through Psi ratios: grad S = -i hbar
    grad(Psi)/Psi, Lap S = -i hbar (Lap(Psi)/Psi - (grad(Psi)/Psi)^2), and
    dS/dt comes from the principal-log increment of Psi between the
    neighbouring frames (central difference, second order in the frame
    spacing).  A product frame's action splits as S = Sx(x) + Sy(y), so the
    residual at a live cell (i, j) is Rx[i] + Ry[j], each axis term from its
    own ratios, log and part of V.  A log wraps, by pi hbar / dt_frame, only
    where one axis's phase increment passes pi.
    """
    if len(psi_frames) < 3:
        raise InvalidInput(f"need at least 3 consecutive frames, got {len(psi_frames)}")
    parts = _potential_parts(psi_frames[0].grid, pot, mass)
    linf, linf_centered = [], []
    for prev_f, here, next_f in zip(psi_frames, psi_frames[1:], psi_frames[2:]):
        dt_frame = 0.5 * (next_f.time - prev_f.time)
        live, ratios = _live_ratios(here, rho_floor)
        terms = []
        for f0, f1, (d, d2), part in zip(prev_f.factors, next_f.factors, ratios, (parts[0], parts[-1])):
            with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at a node no live cell reads
                ds_dt = -1j * hbar * np.log(f1 / f0) / (2.0 * dt_frame)
            # -(hbar * hbar), not (-1j * hbar) ** 2: the same value, but a float
            # multiply overflows to inf where complex ** raises
            grad_s_sq = -(hbar * hbar) * d**2
            lap_s = -1j * hbar * (d2 - d**2)
            terms.append(ds_dt + grad_s_sq / (2.0 * mass) + part - 0.5j * hbar / mass * lap_s)
        residual = (terms[0][:, None] + terms[1])[live]
        linf.append(float(np.abs(residual).max()))
        linf_centered.append(float(np.abs(residual - np.mean(residual)).max()))
    # np.max keeps a NaN of any frame; builtin max drops one after the first
    return HJResidualReport(float(np.max(linf)), float(np.max(linf_centered)))


# ---------------------------------------------------------------------------
# marginal CDF of a frame
# ---------------------------------------------------------------------------


def marginal_cdf(psi: WaveFunction, axis: int, x) -> np.ndarray:
    """F(x) = the integral from -L to x of psi's density |f|^2 along axis
    (0: x, 1: y), normalized to 1 over the box [-L, L).

    |f|^2 is read as its trigonometric interpolant on the periodic grid (the
    Nyquist term as a cosine) and integrated term by term, so F(-L) = 0 and
    F(L) = 1.  The Bohmian flow of a product frame splits per axis, and a 1D
    flow keeps F along every path: F_T(x_T) = F_0(x_0) (Holland, The Quantum
    Theory of Motion, 1993, sec. 3).  Costs O(len(x) n).
    """
    grid = psi.grid
    n, L = grid.n, grid.half_width
    c = np.fft.rfft(np.abs(psi.factors[axis]) ** 2)
    c = c[1:] / c[0].real  # mode m of the density over its mean, m = 1..n/2
    k = (math.pi / L) * np.arange(1, n // 2 + 1)
    s = np.asarray(x, dtype=float).reshape(-1, 1) + L
    terms = (np.exp(1j * k * s) - 1.0) / (1j * k)
    terms *= c
    terms[:, :-1] *= 2.0  # modes m and -m; the Nyquist mode n/2 is one cosine
    return (s[:, 0] + terms.real.sum(axis=1)) / (2.0 * L)


# ---------------------------------------------------------------------------
# least-action stationarity and saddle signature
# ---------------------------------------------------------------------------


@dataclass
class SaddleReport:
    n_points: int
    max_stationarity_gradient: float
    max_real_mismatch: float
    max_imag_mismatch: float
    saddle_ok: bool
    parameters: dict

    def to_json(self, path) -> None:
        write_json(
            path,
            {
                "check": "least_action_saddle",
                "parameters": self.parameters,
                "n_points": self.n_points,
                "max_stationarity_gradient": self.max_stationarity_gradient,
                "max_real_mismatch": self.max_real_mismatch,
                "max_imag_mismatch": self.max_imag_mismatch,
                "pass": self.saddle_ok,
            },
        )


def least_action_saddle_check(
    psi: WaveFunction,
    pot: Potential,
    hbar: float = 1.0,
    mass: float = 1.0,
    n_points: int = 100,
    seed: int = 0,
    rho_floor: float = HJ_RHO_FLOOR,
) -> SaddleReport:
    """Check the quadratic-Lagrangian inner minimization around V = grad(S)/m.

    Objective g(V) = (m/2) V^2 - V.grad(S) + const(V).  At the stationary
    point the central finite-difference gradient (step SADDLE_FD_STEP)
    vanishes; real perturbations of each size in SADDLE_DELTAS raise Re g by
    exactly (m/2)|d|^2 and imaginary ones lower it by the same amount (the
    saddle that defines a complex minimum).  Every evaluation covers the
    n_points seeded picks of the live cells at once.
    """
    if n_points < 1:
        raise InvalidInput(f"n_points must be >= 1, got {n_points}")
    live, (ratio_x, ratio_y) = _live_ratios(psi, rho_floor)
    cells = np.flatnonzero(live)
    # the seeded picks of the live cells, their ratios and V gathered per axis
    i, j = np.divmod(cells[np.random.default_rng(seed).integers(0, cells.size, size=n_points)], psi.grid.n)
    (dx, d2x), (dy, d2y) = ratio_x[:, i], ratio_y[:, j]
    grad_s = -1j * hbar * np.array([dx, dy])
    lap_s = -1j * hbar * (d2x + d2y - dx**2 - dy**2)
    parts = _potential_parts(psi.grid, pot, mass)
    v = parts[0][i] + parts[-1][j]

    def objective(vel):  # vel (2, n_points), one velocity per drawn cell
        kinetic = 0.5 * mass * np.sum(vel * vel, axis=0)
        return kinetic - v - np.sum(vel * grad_s, axis=0) + 0.5j * hbar / mass * lap_s

    v_star = grad_s / mass
    base = objective(v_star).real
    axes = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    grads = []
    for e in (*axes, *(1j * e for e in axes)):
        step = (SADDLE_FD_STEP * e)[:, None]
        fd = (objective(v_star + step) - objective(v_star - step)) / (2.0 * SADDLE_FD_STEP)
        grads.append(np.hypot(fd.real, fd.imag))  # abs() of one complex; np.abs of an array can differ in the last bit
    real_mismatch, imag_mismatch = [], []
    for d in SADDLE_DELTAS:
        expected = 0.5 * mass * d**2
        for e in (*axes, np.array([1.0, 1.0]) / math.sqrt(2)):
            real_mismatch.append(np.abs(objective(v_star + (d * e)[:, None]).real - base - expected))
            imag_mismatch.append(np.abs(objective(v_star + (1j * d * e)[:, None]).real - base + expected))
    # np.max keeps a NaN of any cell, and a NaN fails the check
    max_grad, max_real, max_imag = (float(np.max(m)) for m in (grads, real_mismatch, imag_mismatch))
    tol = 1e-10 * max(1.0, 0.5 * mass * max(SADDLE_DELTAS) ** 2)
    saddle_ok = max_grad < 1e-10 and max_real < tol and max_imag < tol
    parameters = {"seed": seed, "fd_step": SADDLE_FD_STEP, "deltas": list(SADDLE_DELTAS)}
    return SaddleReport(n_points, max_grad, max_real, max_imag, saddle_ok, parameters)
