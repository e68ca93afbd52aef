"""2D time-dependent Schrodinger solver on a periodic grid.

Strang-split spectral scheme: half potential kick, exact kinetic phase in
Fourier space, half potential kick.  Every state is a product psi =
fx(x) fy(y), and under the free or a harmonic potential it evolves as its
two 1D factors.
Packets must stay well away from the box boundary; guards reject
under-resolved or boundary-touching initial data, and per-frame checks abort
evolutions that fill the top of the spectrum, turn non-finite or move the
norm past its roundoff bound.

i hbar dPsi/dt = -(hbar^2/2m) Lap Psi + V(x) Psi
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .config import DEFAULT_RHO_FLOOR
from .errors import InvalidInput, PacketTooNarrow, PacketTouchesBoundary, ResolutionLoss
from .fileio import write_csv, write_zlab_frame

# spectral band |k|_inf >= ALIAS_BAND_FRACTION * k_max watched by the aliasing guard
ALIAS_BAND_FRACTION = 0.75
ALIAS_MASS_LIMIT = 1e-8


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on [-L, L)^2 with n points per axis (power of two)."""

    n: int
    half_width: float

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise InvalidInput(f"n must be a power of two >= 16, got {self.n}")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be finite and > 0, got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """2 pi fftfreq(n, spacing), computed at the first read and read-only."""
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing))

    @cached_property
    def _derivatives(self) -> np.ndarray:
        """The spectral operators (1j k, -k^2) of d/dx and d^2/dx^2, as a
        read-only (2, 1, n) complex array that broadcasts over stacked
        factors."""
        k = self.wavenumbers
        return _read_only(np.array([1j * k, -(k**2)], dtype=complex)[:, None, :])

    @property
    def nyquist(self) -> float:
        return np.pi / self.spacing

    def cell_area(self) -> float:
        return self.spacing**2


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class WaveFunction:
    """Product state psi(x, y) = fx(x) fy(y) on a Grid2D at one instant.

    factors is the pair (fx, fy) of (n,) axis factors: the solver evolves a
    frame as its two factors, and its readers sum over them.  values =
    np.outer(fx, fy), indexed [ix, iy], is built at its first read and kept.
    Readers must modify neither.  repr reads neither, and == is identity.
    """

    grid: Grid2D
    factors: tuple = field(repr=False)
    time: float = 0.0

    def __post_init__(self):
        if len(self.factors) != 2 or any(np.shape(f) != (self.grid.n,) for f in self.factors):
            raise ValueError(f"factors must be two ({self.grid.n},) arrays")

    @cached_property
    def values(self) -> np.ndarray:
        return np.outer(*self.factors)

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.grid, _densities(self)))

    def density(self) -> np.ndarray:
        return np.outer(*_densities(self))

    def copy(self) -> "WaveFunction":
        """A copy of the factors alone, sharing no array."""
        return WaveFunction(self.grid, tuple(f.copy() for f in self.factors), self.time)


def _densities(psi: WaveFunction):
    """|psi|^2 as the pair (|fx|^2, |fy|^2) of the factors' densities."""
    return tuple(np.abs(f) ** 2 for f in psi.factors)


def _squared_norm(grid: Grid2D, rho) -> float:
    """The sum of np.outer(*rho), as _densities gives rho, times the cell area."""
    return float(rho[0].sum()) * float(rho[1].sum()) * grid.cell_area()


class PotentialKind(Enum):
    FREE = "free"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class Potential:
    """Real potential energy V(x) on the grid.

    harmonic: V = (m/2)(wx^2 x^2 + wy^2 y^2); the periodic wrap of V only
    matters where packets never go (boundary guard keeps them inside).
    """

    kind: PotentialKind = PotentialKind.FREE
    omega: tuple = (1.0, 1.0)


def free_potential() -> Potential:
    return Potential(PotentialKind.FREE)


def harmonic_potential(omega_x: float, omega_y: float | None = None) -> Potential:
    return Potential(PotentialKind.HARMONIC, (omega_x, omega_x if omega_y is None else omega_y))


def _tail_mass_outside_box(grid: Grid2D, center, sigma0: float) -> float:
    """Probability mass of the density Gaussian outside [-L, L]^2 (upper bound)."""
    total = 0.0
    for c in center:
        lo = (grid.half_width + c) / (math.sqrt(2.0) * sigma0)
        hi = (grid.half_width - c) / (math.sqrt(2.0) * sigma0)
        total += 0.5 * (math.erfc(hi) + math.erfc(lo))
    return total


def init_gaussian(grid: Grid2D, center, sigma0: float, k0) -> WaveFunction:
    """Normalized Gaussian packet sqrt(rho0) e^{i k0.x}, rho0 ~ exp(-|x-c|^2/2 sigma0^2)."""
    center = np.asarray(center, dtype=float).reshape(2)
    k0 = np.asarray(k0, dtype=float).reshape(2)
    if sigma0 < 4.0 * grid.spacing:
        raise PacketTooNarrow(
            f"sigma0 = {sigma0:g} is below 4 grid spacings ({4 * grid.spacing:g})"
        )
    if _tail_mass_outside_box(grid, center, sigma0) > 1e-12:
        raise PacketTouchesBoundary(
            f"packet at {tuple(center)} with sigma0 = {sigma0:g} leaks over the box edge"
        )
    if np.max(np.abs(k0)) >= 0.5 * grid.nyquist:
        raise ResolutionLoss(
            f"|k0| = {np.max(np.abs(k0)):g} exceeds half the Nyquist wavenumber {grid.nyquist:g}"
        )
    x = grid.axis
    return _product_state(grid, *(np.exp(-((x - c) ** 2) / (4.0 * sigma0**2) + 1j * kk * x) for c, kk in zip(center, k0)))


def _product_state(grid: Grid2D, fx: np.ndarray, fy: np.ndarray) -> WaveFunction:
    """The product frame of factors fx, fy at t = 0, each normalized on its
    axis; its values are built at their first read."""
    fx, fy = (f / np.sqrt(np.sum(np.abs(f) ** 2) * grid.spacing) for f in (fx, fy))
    return WaveFunction(grid, (fx, fy))


def _axis_operator(half_kick: np.ndarray, full_kick: np.ndarray, kinetic: np.ndarray, n_steps: int) -> np.ndarray:
    """A^T for one axis, where A = K F (D^2 F^-1 K F)^(n-1) D is the fused
    Strang sequence of advance() in 1D, run along the rows of the identity.

    The matrix S of one step D^2 F^-1 K F is built once and S^(n-1) formed
    by binary powering: O(log n) matrix products instead of n - 1 FFT pairs.
    """
    step = np.fft.fft(np.eye(len(kinetic)), axis=1)
    step *= kinetic
    np.fft.ifft(step, axis=1, out=step)
    step *= full_kick
    op = half_kick[:, None] * np.linalg.matrix_power(step, n_steps - 1)
    np.fft.fft(op, axis=1, out=op)
    op *= kinetic
    return op


def _kinetic_phase(scale, k2: np.ndarray) -> np.ndarray:
    """exp(-i scale k2) on the squared wavenumbers k2: the kinetic phase over
    a time t, scale = hbar t / 2m, a float or an array of them that
    broadcasts against k2."""
    return np.exp(-1j * scale * k2)


def _potential_parts(grid: Grid2D, pot: Potential, mass: float) -> list:
    """The distinct per-axis parts of V = a(x) + b(y), a = parts[0] and b =
    parts[-1]: 0.5 m (w x)^2 for a harmonic V, its column and row through
    the centre node, where V is exactly 0 (an isotropic V has one part), and
    one part of zeros for the free V."""
    if pot.kind is PotentialKind.FREE:
        return [np.zeros(grid.n)]
    return [0.5 * mass * (w * grid.axis) ** 2 for w in dict.fromkeys(pot.omega)]


def _norm_bound(n: int, steps: int) -> float:
    """Roundoff bound on |N_k / N_0 - 1|, N the squared norm, after steps
    steps of dt on an n x n grid.

    One Strang step is an FFT pair over n^2 points and two multiplies by
    unit-modulus factors.  A radix-2 FFT of N points has a relative L2 error
    of at most eta log2 N, eta = u + gamma_4 (sqrt 2 + u) < 7u with u the
    unit roundoff (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 24.2), and 7u also bounds a complex multiply by a computed
    unit-modulus factor, so a step scales the norm by at most 1 + e,
    e = 7u (2 log2 n^2 + 2).  The fused forms of advance() (the n-step phase,
    the per-axis operators) are held to the bound of the steps they stand
    for.  A free frame of a stream is frame 0's spectra times the phase of
    its time, one FFT of n points and one unit-modulus multiply per factor:
    each factor moves by at most (1 + 7u log2 n)(1 + 7u) = 1 + e1, and the
    product frame by (1 + e1)^2 = 1 + 2 e1 + e1^2 < 1 + e, as e - 2 e1 =
    14u log2 n exceeds e1^2, so _norm_bound(n, 1) bounds every free frame
    whatever its time.  Each squared norm is a sum of at most n^2 terms, off
    by at most gamma = n^2 u / (1 - n^2 u) relative (Higham, eq. 4.4).
    """
    u = np.finfo(float).eps / 2
    e = 7 * u * (2 * math.log2(n * n) + 2)
    gamma = n * n * u / (1 - n * n * u)
    return math.expm1(2 * steps * math.log1p(e)) * (1 + gamma) / (1 - gamma) + 2 * gamma / (1 - gamma)


# frames per block of a free frame stream, which holds a few (FRAME_BLOCK, 2, n) complex arrays
FRAME_BLOCK = 16


class Propagator:
    """Strang-split spectral propagator for one grid, potential, dt, hbar and mass.

    advance() reuses the operators for every call.  Each axis factor of psi
    is evolved alone, the two held as the rows of one (2, n) array: by the
    1D kinetic phase on their spectra under the free potential, or by the
    per-axis operators and half kicks under a harmonic one.  The constructor
    builds the axis aliasing band and, for a harmonic V, the per-axis kicks
    and kinetic phase.
    """

    def __init__(self, grid: Grid2D, pot: Potential, dt: float, hbar: float = 1.0, mass: float = 1.0):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.grid = grid
        self.dt = dt
        self._hbar_over_2m = 0.5 * hbar / mass
        k = grid.wavenumbers
        self._axes = None
        if pot.kind is PotentialKind.HARMONIC:
            parts = _potential_parts(grid, pot, mass)
            kinetic = _kinetic_phase(self._hbar_over_2m * dt, k**2)
            self._axes = [(np.exp(-0.5j * dt * p / hbar), np.exp(-1j * dt * p / hbar), kinetic) for p in parts]
            self._half_kicks = np.array([self._axes[0][0], self._axes[-1][0]])
        # |k| >= ALIAS_BAND_FRACTION * k_max: one run of indices around n/2 in fftfreq order; a
        # slice keeps each row's band sum in the 1D sum's order, where a boolean index may not
        band = np.flatnonzero(np.abs(k) >= ALIAS_BAND_FRACTION * grid.nyquist)
        self._axis_band = slice(band[0], band[-1] + 1)
        # a harmonic frame stream advances by one stride throughout, so one cached n suffices
        self._cached_key = None
        self._cached = None

    def _cached_for(self, n_steps: int):
        """The (A_x^T, A_y^T) pair of a harmonic V, or the free n-step phase
        of one axis."""
        if n_steps != self._cached_key:
            if self._axes is None:
                self._cached = _kinetic_phase(self._hbar_over_2m * n_steps * self.dt, self.grid.wavenumbers**2)
            else:
                ops = [_axis_operator(*axis, n_steps) for axis in self._axes]
                self._cached = (ops[0], ops[-1])
            self._cached_key = n_steps
        return self._cached

    def _guard(self, spectra: np.ndarray, norm0: float, steps: list, bound: float) -> list:
        """The verdict on each frame j of spectra, a (B, 2, n) array whose
        rows [j, 0] and [j, 1] are the spectra fx^, fy^ of frame j's
        factors: None, or the ResolutionLoss that frame j raises.  A frame
        passes if its spectra are finite, keep their mass out of the aliasing
        band, and give a squared norm within bound of norm0, frame 0's, the
        message naming its steps[j] steps.  One stacked pass takes every
        row's total and band sums, each in its 1D order; the checks then run
        frame by frame, row by row."""
        power = np.abs(spectra) ** 2
        totals = power.sum(axis=2).tolist()
        bands = power[:, :, self._axis_band].sum(axis=2).tolist()
        return [self._verdict(*frame, norm0, bound) for frame in zip(totals, bands, steps)]

    def _verdict(self, totals: list, bands: list, steps: int, norm0: float, bound: float):
        """_guard's checks on one frame, from its rows' total and band sums."""
        alias = 0.0
        for total, in_band in zip(totals, bands):
            if not math.isfinite(total):
                return ResolutionLoss("wave function became non-finite (NaN or inf)")
            ratio = in_band / total if total > 0.0 else 0.0
            alias += ratio - alias * ratio  # 1 - (in-band fraction of x) (in-band fraction of y)
        if alias > ALIAS_MASS_LIMIT:
            return ResolutionLoss("spectral mass reached the aliasing band; refine the grid")
        # Parseval: the sum of |psi^|^2 over n^2 modes is n^2 times that of |psi|^2
        norm = math.prod(totals) * self.grid.cell_area() / self.grid.n**2
        if abs(norm - norm0) > bound * norm0:
            return ResolutionLoss(
                f"the norm moved by {abs(norm / norm0 - 1.0):.3e} of frame 0's over {steps} steps, "
                f"past its roundoff bound {bound:.3e}"
            )
        return None

    def advance(self, psi: WaveFunction, n_steps: int) -> WaveFunction:
        """psi advanced by n_steps of dt, in a freshly allocated WaveFunction.

        Adjacent half kicks are fused into full kicks, so a call stands for
        half . [FFT . kinetic . IFFT . full]^(n-1) . FFT . kinetic . IFFT . half,
        run on each factor in 1D: a factor's FFT times the n-step 1D phase
        (free), or A f with the per-axis operator A (harmonic), inverted and
        given its axis's half kick.  The two factors go through each FFT,
        inverse FFT and kick as the rows of one (2, n) array; each row
        equals its 1D transform bit for bit.  The guards read the factors'
        spectra before the last IFFT, as _guard's block of one frame:
        finiteness, the aliasing band, and the norm against psi's.
        """
        return self._advance(psi, n_steps, None, n_steps)

    def _advance(self, psi: WaveFunction, n_steps: int, norm0, steps: int) -> WaveFunction:
        """advance(), its norm guarded against the squared norm norm0 (psi's
        when None) over steps steps."""
        if psi.grid != self.grid:
            raise ValueError(f"psi lives on {psi.grid}, the propagator on {self.grid}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        if n_steps == 0:
            return psi.copy()
        if norm0 is None:
            norm0 = _squared_norm(self.grid, _densities(psi))
        cached = self._cached_for(n_steps)
        if self._axes is None:
            spectra = np.fft.fft(np.asarray(psi.factors))
            spectra *= cached
        else:
            # one matrix-vector product per axis: a stacked product may sum in another order
            spectra = np.array([f @ op for f, op in zip(psi.factors, cached)])
        (verdict,) = self._guard(spectra[None], norm0, [steps], _norm_bound(self.grid.n, steps))
        if verdict is not None:
            raise verdict
        factors = np.fft.ifft(spectra)
        if self._axes is not None:
            factors *= self._half_kicks
        return WaveFunction(self.grid, tuple(factors), psi.time + n_steps * self.dt)

    def frames(self, psi: WaveFunction, frame_stride: int, n_frames: int) -> Iterator[WaveFunction]:
        """Frames k = 0..n_frames of psi, frame_stride steps apart, one at a
        time, each frame's norm guarded against frame 0's: a copy of psi,
        then each frame k equal to advance(psi, k frame_stride) bit for bit,
        its time included.

        A free stream keeps the spectra of psi's factors and builds frames
        FRAME_BLOCK at a time: one (B, 2, n) product with the kinetic phases
        of the block's times, one stacked guard pass and one stacked inverse
        FFT.  Frame k is then exact in k-space whatever k, held to the
        bound _norm_bound(n, 1), and costs no forward FFT.  Each frame takes
        a copy of its two factor rows, so it holds 2n numbers and keeps no
        block alive, and a frame that fails the guard raises when it is
        asked for, after the frames before it; the stream keeps none of the
        frames it yielded.  A harmonic stream advances the frame before by
        frame_stride, one frame when it is asked for, held to
        _norm_bound(n, k frame_stride).
        """
        if psi.grid != self.grid:
            raise ValueError(f"psi lives on {psi.grid}, the propagator on {self.grid}")
        norm0 = _squared_norm(self.grid, _densities(psi))
        yield psi.copy()
        if self._axes is not None:
            frame = psi
            for k in range(1, n_frames + 1):
                frame = self._advance(frame, frame_stride, norm0, k * frame_stride)
                yield frame
            return
        spectra0 = np.fft.fft(np.asarray(psi.factors))
        bound = _norm_bound(self.grid.n, 1)
        for start in range(1, n_frames + 1, FRAME_BLOCK):
            steps = [k * frame_stride for k in range(start, min(start + FRAME_BLOCK, n_frames + 1))]
            scale = self._hbar_over_2m * np.array(steps, dtype=float)[:, None, None] * self.dt
            spectra = spectra0 * _kinetic_phase(scale, self.grid.wavenumbers**2)
            verdicts = self._guard(spectra, norm0, steps, bound)
            factors = np.fft.ifft(spectra, out=spectra)
            for n_steps, verdict, (fx, fy) in zip(steps, verdicts, factors):
                if verdict is not None:
                    raise verdict
                yield WaveFunction(self.grid, (fx.copy(), fy.copy()), psi.time + n_steps * self.dt)


def split_step_evolve(
    psi: WaveFunction,
    pot: Potential,
    dt: float,
    n_steps: int,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> WaveFunction:
    """Advance by n_steps of dt with the Strang-split spectral scheme.

    Second-order accurate in dt; each factor is unitary so the discrete norm
    is conserved to roundoff.  Raises ResolutionLoss if more than 1e-8 of the
    spectral mass ends up in the top quarter of the wavenumber range, or if
    the wave function turns non-finite.
    """
    return Propagator(psi.grid, pot, dt, hbar, mass).advance(psi, n_steps)


def stream_frames(
    psi: WaveFunction,
    pot: Potential,
    dt: float,
    n_steps: int,
    frame_stride: int,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> Iterator[WaveFunction]:
    """The frames every frame_stride steps (the t = 0 frame included), one
    at a time from one Propagator, so the guards run once per frame.

    The arguments are checked here, before the first frame is asked for.
    """
    if n_steps % frame_stride != 0:
        raise InvalidInput(f"n_steps = {n_steps} is not a multiple of frame_stride = {frame_stride}")
    return Propagator(psi.grid, pot, dt, hbar, mass).frames(psi, frame_stride, n_steps // frame_stride)


def evolve_frames(
    psi: WaveFunction,
    pot: Potential,
    dt: float,
    n_steps: int,
    frame_stride: int,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> list[WaveFunction]:
    """stream_frames as a list."""
    return list(stream_frames(psi, pot, dt, n_steps, frame_stride, hbar, mass))


def analytic_free_gaussian(
    grid: Grid2D, sigma0: float, k0, center, t: float, hbar: float = 1.0, mass: float = 1.0
) -> WaveFunction:
    """Exact free evolution of the init_gaussian packet, sampled on the grid:
    a product frame of these per-axis factors, not renormalized on the grid.

    Per axis, with alpha = 1 + i hbar t/(2 m sigma0^2) and v0 = hbar k0/m:
    psi = (2 pi sigma0^2)^(-1/4) alpha^(-1/2)
          exp[-(x - c - v0 t)^2/(4 sigma0^2 alpha) + i k0 x - i hbar k0^2 t/(2m)],
    so the density width grows as sigma(t) = sigma0 |alpha|.
    """
    center = np.asarray(center, dtype=float).reshape(2)
    k0 = np.asarray(k0, dtype=float).reshape(2)
    # sigma0 * sigma0, not sigma0**2: a float multiply overflows to inf where ** raises
    s2 = sigma0 * sigma0
    alpha = 1.0 + 1j * hbar * t / (2.0 * mass * s2)
    x = grid.axis
    factors = []
    for c, kk in zip(center, k0):
        shifted = x - c - (hbar * kk / mass) * t
        factors.append(
            (2.0 * np.pi * s2) ** (-0.25)
            * alpha ** (-0.5)
            * np.exp(
                -(shifted**2) / (4.0 * s2 * alpha)
                + 1j * kk * x
                - 0.5j * hbar * kk**2 * t / mass
            )
        )
    return WaveFunction(grid, tuple(factors), t)


def harmonic_ground_state(grid: Grid2D, omega: float, hbar: float = 1.0, mass: float = 1.0) -> WaveFunction:
    """Real ground state of the isotropic harmonic well, normalized on the grid:
    a product frame of one Gaussian factor per axis."""
    f = np.exp(-0.5 * mass * omega * grid.axis**2 / hbar).astype(complex)
    return _product_state(grid, f, f)


def _stacked_ratios(psi: WaveFunction, rho_floor: float, laplacian: bool):
    """psi_ratios with the axes stacked: (rho, floor, ratios), rho (2, n)
    the factors' densities and ratios (1|2, 2, n), ratios[d, a] the
    ratio of derivative d + 1 along axis a.  One FFT and one inverse FFT
    serve both factors and derivatives."""
    f = np.asarray(psi.factors)
    rho = np.abs(f) ** 2
    peak = rho.max(axis=1)
    floor = rho_floor * (float(peak[0]) * float(peak[1]))
    derivs = np.fft.ifft(psi.grid._derivatives[: 2 if laplacian else 1] * np.fft.fft(f))
    keep = rho * peak[::-1, None] >= floor
    ratios = np.zeros_like(derivs)
    ratios[:, keep] = derivs[:, keep] / f[keep]
    return rho, floor, ratios


def psi_ratios(psi: WaveFunction, rho_floor: float = DEFAULT_RHO_FLOOR, laplacian: bool = False):
    """The spectral grad(Psi)/Psi of a product frame, per axis: (rx, ry,
    floor, (ratio_x, ratio_y)).

    rx and ry are the factors' densities and floor = rho_floor * max(rx)
    max(ry): cell (i, j) is live unless rx[i] ry[j] < floor, so a NaN
    density counts as live.  ratio_x has shape (1, n), fx'/fx, or with
    laplacian=True (2, n), adding fx''/fx, from 1D spectral derivatives;
    ratio_y likewise.  At cell (i, j), grad(Psi)/Psi = (ratio_x[0, i],
    ratio_y[0, j]) and Lap(Psi)/Psi = ratio_x[1, i] + ratio_y[1, j].  An
    axis node takes its ratios when it is live against the other axis's
    maximum: rounding is monotone, so that is when its row (or column) holds
    a live cell.  Each such node takes one complex divide per derivative,
    and every other node holds 0.  Both factors and both derivatives go
    through one stacked FFT and one stacked inverse FFT, whose rows equal
    the 1D transforms bit for bit.
    """
    rho, floor, ratios = _stacked_ratios(psi, rho_floor, laplacian)
    return rho[0], rho[1], floor, (ratios[:, 0], ratios[:, 1])


def _energy_terms(grid: Grid2D, pot: Potential, hbar: float, mass: float):
    """(w, parts): what <Psi|H|Psi> is summed against on one grid.  w holds
    the weights hbar^2 k^2/2m per axis, and parts a harmonic V's per-axis
    parts (a, b) of _potential_parts as one (2, n) array, else None.

    hbar * hbar, not hbar**2: a float multiply overflows to inf where ** raises.
    """
    w = 0.5 * (hbar * hbar) * grid.wavenumbers**2 / mass
    if pot.kind is not PotentialKind.HARMONIC:
        return w, None
    parts = _potential_parts(grid, pot, mass)
    return w, np.array([parts[0], parts[-1]])


def _summary_rows(grid: Grid2D, block: np.ndarray, w, parts) -> list:
    """(norm, energy, x_mean, y_mean, sigma_x, sigma_y) of each frame of
    block, a (B, 2, n) array whose [j, 0] and [j, 1] are frame j's fx and
    fy, summed against the terms w, parts of _energy_terms.

    With N the axis norms and K the axis kinetic sums over each factor's
    FFT, E_kin = K_x N_y + N_x K_y, plus, for a harmonic V = a(x) + b(y),
    <V> = ((a.rx) sum(ry) + sum(rx) (b.ry)) h^2; the factors' densities rx,
    ry are the density's two axis marginals.  The densities, the row sums,
    the FFTs and the kinetic sums are one call each over the block, every
    op row-wise or elementwise, so each row equals its frame's 1D sums bit
    for bit.  So are the dot products, each one np.vecdot over the block:
    it runs np.dot's per-row dot product, where a stacked matrix product
    (P @ x) may sum in another order.
    """
    h = grid.spacing
    rho = np.abs(block) ** 2
    sums = rho.sum(axis=2)
    norm = np.sqrt(sums[:, 0] * sums[:, 1] * grid.cell_area())
    kinetic = (w * np.abs(np.fft.fft(block)) ** 2).sum(axis=2) * h / grid.n
    axis_norms = sums * h
    energy = kinetic[:, 0] * axis_norms[:, 1] + axis_norms[:, 0] * kinetic[:, 1]
    if parts is not None:
        v = np.vecdot(parts, rho)
        energy += (v[:, 0] * sums[:, 1] + sums[:, 0] * v[:, 1]) * grid.cell_area()
    x = grid.axis
    p = rho / sums[:, :, None]
    means = np.vecdot(p, x)
    sigmas = np.sqrt(np.vecdot(p, (x - means[:, :, None]) ** 2))
    return np.column_stack([norm, energy, means, sigmas]).tolist()


def _frame_row(psi: WaveFunction, pot: Potential, hbar: float, mass: float) -> list:
    """_summary_rows of psi as a one-frame block."""
    grid = psi.grid
    return _summary_rows(grid, np.asarray(psi.factors)[None], *_energy_terms(grid, pot, hbar, mass))[0]


def energy(psi: WaveFunction, pot: Potential, hbar: float = 1.0, mass: float = 1.0) -> float:
    """<Psi| -hbar^2/2m Lap + V |Psi>, summed over the factors."""
    return _frame_row(psi, pot, hbar, mass)[1]


def moments(psi: WaveFunction):
    """(x_mean, y_mean, sigma_x, sigma_y) of the density."""
    return tuple(_frame_row(psi, free_potential(), 1.0, 1.0)[2:])


# frames per block of frames_summary_csv, which holds one (SUMMARY_BLOCK, 2, n) complex block
SUMMARY_BLOCK = 64


def frames_summary_csv(path, frames, pot: Potential, hbar: float = 1.0, mass: float = 1.0):
    """Write one row of t, norm, energy and moments per frame to path.

    frames is any iterable of frames on one grid, read once.  Each frame's
    factors are copied into a (SUMMARY_BLOCK, 2, n) block and the frame is
    dropped, so a stream is summarized in O(SUMMARY_BLOCK n) numbers and no
    frame's values are read.  Each full block, and the last partial one, goes
    through _summary_rows: its densities, sums, FFTs and dot products are
    stacked calls, each row equal to its frame's 1D sums bit for bit.
    energy() and moments() run the same kernel on a one-frame block, so
    every row equals them bit for bit.  The energy terms are built once, at
    the first frame.  A frame on another grid than the first raises
    InvalidInput; on any error no file is written.  Returns (last frame or
    None, rows).
    """
    header = ["t", "norm", "energy", "x_mean", "y_mean", "sigma_x", "sigma_y"]
    rows, times = [], []
    frame = grid = None
    for k, frame in enumerate(frames):
        if grid is None:
            grid = frame.grid
            terms = _energy_terms(grid, pot, hbar, mass)
            block = np.empty((SUMMARY_BLOCK, 2, grid.n), dtype=complex)
        elif frame.grid != grid:
            raise InvalidInput(f"frame {k} lives on {frame.grid}, the summary's frames on {grid}")
        block[len(times)] = frame.factors
        times.append(frame.time)
        if len(times) == SUMMARY_BLOCK:
            rows += [[t, *row] for t, row in zip(times, _summary_rows(grid, block, *terms))]
            times = []
    if times:
        rows += [[t, *row] for t, row in zip(times, _summary_rows(grid, block[: len(times)], *terms))]
    write_csv(path, header, zip(*rows))
    return frame, rows


def export_frame(path, psi: WaveFunction) -> None:
    write_zlab_frame(path, psi.values, psi.grid.half_width, psi.time)
