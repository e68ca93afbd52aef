"""2D time-dependent Schrodinger solver on a periodic grid.

Strang-split spectral scheme: half potential kick, exact kinetic phase in
Fourier space, half potential kick.  Packets must stay well away from the box
boundary; guards reject under-resolved or boundary-touching initial data and
an aliasing check aborts evolutions that fill the top of the spectrum or turn
non-finite.

i hbar dPsi/dt = -(hbar^2/2m) Lap Psi + V(x) Psi
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import InvalidInput, PacketTooNarrow, PacketTouchesBoundary, ResolutionLoss
from .fileio import write_csv, write_zlab_frame

# fraction of max rho below which a cell counts as a node
DEFAULT_RHO_FLOOR = 1e-12
# spectral band |k|_inf >= ALIAS_BAND_FRACTION * k_max watched by the aliasing guard
ALIAS_BAND_FRACTION = 0.75
ALIAS_MASS_LIMIT = 1e-8
# V counts as a(x) + b(y) when it deviates by at most this times max(1, max|V|)
SEPARABLE_TOLERANCE = 1e-13


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

    def mesh(self):
        """(X, Y) with array index [ix, iy] at position (x[ix], y[iy])."""
        x = self.axis
        return np.meshgrid(x, x, indexing="ij")

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    @property
    def nyquist(self) -> float:
        return np.pi / self.spacing

    def cell_area(self) -> float:
        return self.spacing**2


@dataclass
class WaveFunction:
    """Complex field on a Grid2D at one instant; values indexed [ix, iy].

    spectrum, when not None, is the 2D FFT of values that a free-potential
    advance() held in k-space; readers must not modify it.
    """

    grid: Grid2D
    values: np.ndarray
    time: float = 0.0
    spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_area()))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def copy(self) -> "WaveFunction":
        return WaveFunction(self.grid, self.values.copy(), self.time)


class PotentialKind(Enum):
    FREE = "free"
    HARMONIC = "harmonic"
    GRID_SAMPLED = "grid_sampled"


@dataclass(frozen=True)
class Potential:
    """Real potential energy V(x) on the grid.

    harmonic: V = (m/2)(wx^2 x^2 + wy^2 y^2); the periodic wrap of V only
    matters where packets never go (boundary guard keeps them inside).
    """

    kind: PotentialKind = PotentialKind.FREE
    omega: tuple = (1.0, 1.0)
    samples: np.ndarray | None = None

    def values(self, grid: Grid2D, mass: float) -> np.ndarray:
        if self.kind is PotentialKind.FREE:
            return np.zeros((grid.n, grid.n))
        if self.kind is PotentialKind.HARMONIC:
            X, Y = grid.mesh()
            wx, wy = self.omega
            return 0.5 * mass * ((wx * X) ** 2 + (wy * Y) ** 2)
        v = np.asarray(self.samples, dtype=float)
        if v.shape != (grid.n, grid.n):
            raise ValueError(f"sampled potential shape {v.shape} != grid {(grid.n, grid.n)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("sampled potential contains non-finite values")
        return v


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
    X, Y = grid.mesh()
    envelope = np.exp(-((X - center[0]) ** 2 + (Y - center[1]) ** 2) / (4.0 * sigma0**2))
    values = envelope * np.exp(1j * (k0[0] * X + k0[1] * Y))
    values = values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_area())
    return WaveFunction(grid, values, 0.0)


def _fft2(src: np.ndarray, out: np.ndarray, tmp: np.ndarray, inverse: bool = False) -> None:
    """2D FFT (or inverse) over the last two axes of src into out, one axis
    pass at a time through tmp.

    Passing the last axis first reproduces np.fft.fft2/ifft2 bit for bit,
    for each (n, n) slice of a stack as for one array.
    """
    # not np.fft.ifft2(..., out=): numpy 2.4 leaves that out wrong; the 1D passes are exact
    transform = np.fft.ifft if inverse else np.fft.fft
    transform(src, axis=-1, out=tmp)
    transform(tmp, axis=-2, out=out)


_held = threading.local()


def _held_buffers(count: int, n: int):
    """Two (count, n, n) complex work buffers, held per thread: fresh ones
    cost more in page faults than the FFTs that fill them.  A held pair of
    more rows is sliced, so a 2-row call after a 3-row one reuses it."""
    held = getattr(_held, "buffers", None)
    if held is None or held[0].shape[1] != n or held[0].shape[0] < count:
        held = _held.buffers = (np.empty((count, n, n), dtype=complex), np.empty((count, n, n), dtype=complex))
    return held[0][:count], held[1][:count]


def _spectrum(psi: WaveFunction) -> np.ndarray:
    """psi's 2D FFT: the spectrum the frame held, else one fft2 of its values."""
    return psi.spectrum if psi.spectrum is not None else np.fft.fft2(psi.values)


def _axis_parts(v: np.ndarray):
    """(a, b) with V = a(x) + b(y) to SEPARABLE_TOLERANCE, or None.

    a is the column and b the row of V through its smallest-|V| node, b
    shifted to vanish there.
    """
    i0, j0 = np.unravel_index(np.argmin(np.abs(v)), v.shape)
    a = v[:, j0]
    b = v[i0, :] - v[i0, j0]
    deviation = float(np.abs(a[:, None] + b[None, :] - v).max())
    if deviation > SEPARABLE_TOLERANCE * max(1.0, float(np.abs(v).max())):
        return None
    return a, b


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


class Propagator:
    """Strang-split spectral propagator for one grid, potential, dt, hbar and mass.

    The constructor builds the operators of one of three paths once, plus
    the aliasing-band mask and the n x n work buffers (one for the free
    potential, two for the others); advance() reuses them for every call, and
    frames() is advance() in a loop.  The free potential needs k^2 only.  A
    separable V = a(x) + b(y) needs the 1D kinetic phase and the half and full
    kicks of each axis.  Any other V needs the 2D kinetic phase and full kick.
    Both potential paths end with the 2D half kick.
    """

    def __init__(self, grid: Grid2D, pot: Potential, dt: float, hbar: float = 1.0, mass: float = 1.0):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.grid = grid
        self.dt = dt
        self._hbar_over_2m = 0.5 * hbar / mass
        k = grid.wavenumbers
        self._k2 = k[:, None] ** 2 + k[None, :] ** 2
        self._half_kick = self._full_kick = self._kinetic = self._axes = self._work = None
        if pot.kind is not PotentialKind.FREE:
            self._work = np.empty((grid.n, grid.n), dtype=complex)
            v = pot.values(grid, mass)
            self._half_kick = np.exp(-0.5j * dt * v / hbar)
            parts = _axis_parts(v)
            if parts is None:
                self._kinetic = np.exp(-1j * self._hbar_over_2m * dt * self._k2)
                self._full_kick = np.exp(-1j * dt * v / hbar)
            else:
                # an isotropic V on the square grid has one distinct axis
                if np.array_equal(*parts):
                    parts = parts[:1]
                kinetic = np.exp(-1j * self._hbar_over_2m * dt * k**2)
                self._axes = [(np.exp(-0.5j * dt * p / hbar), np.exp(-1j * dt * p / hbar), kinetic) for p in parts]
        self._band = np.maximum.outer(np.abs(k), np.abs(k)) >= ALIAS_BAND_FRACTION * grid.nyquist
        self._tmp = np.empty((grid.n, grid.n), dtype=complex)
        # a frame stream advances by one stride throughout, so one cached n suffices
        self._cached_steps = None
        self._cached = None

    def _cached_for(self, n_steps: int):
        """The free n-step phase, or the (A_x^T, A_y^T) pair of a separable V."""
        if n_steps != self._cached_steps:
            if self._axes is None:
                self._cached = np.exp(-1j * self._hbar_over_2m * n_steps * self.dt * self._k2)
            else:
                ops = [_axis_operator(*axis, n_steps) for axis in self._axes]
                self._cached = (ops[0], ops[-1])
            self._cached_steps = n_steps
        return self._cached

    def _check_spectrum(self, spectrum: np.ndarray) -> None:
        power = np.abs(spectrum) ** 2
        total = float(power.sum())
        if not math.isfinite(total):
            raise ResolutionLoss("wave function became non-finite (NaN or inf)")
        if total > 0.0 and float(power[self._band].sum()) / total > ALIAS_MASS_LIMIT:
            raise ResolutionLoss("spectral mass reached the aliasing band; refine the grid")

    def advance(self, psi: WaveFunction, n_steps: int) -> WaveFunction:
        """psi advanced by n_steps of dt, in a freshly allocated WaveFunction.

        Adjacent half kicks are fused into full kicks, so a call costs
        half . [FFT . kinetic . IFFT . full]^(n-1) . FFT . kinetic . IFFT . half.
        With the free potential the kicks are the identity: psi's spectrum
        (held, else one FFT) times the n-step kinetic phase is a fresh psi^,
        inverted into the result, which carries psi^ as its spectrum.  With a
        separable V every factor but the last half kick splits by axis, so
        psi^ is A_x psi A_y^T: two n x n matrix products with the per-axis
        operators, built once per n_steps.  The aliasing and finiteness guard
        reads psi^, the spectrum before the last IFFT.
        """
        if psi.grid != self.grid:
            raise ValueError(f"psi lives on {psi.grid}, the propagator on {self.grid}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        if n_steps == 0:
            return psi.copy()
        work, tmp = self._work, self._tmp
        if self._half_kick is None:
            spectrum = _spectrum(psi) * self._cached_for(n_steps)
        elif self._axes is not None:
            at_x, at_y = self._cached_for(n_steps)
            np.matmul(at_x.T, psi.values, out=tmp)
            spectrum = np.matmul(tmp, at_y, out=work)
        else:
            np.multiply(psi.values, self._half_kick, out=work)
            for _ in range(n_steps - 1):
                _fft2(work, work, tmp)
                work *= self._kinetic
                _fft2(work, work, tmp, inverse=True)
                work *= self._full_kick
            _fft2(work, work, tmp)
            spectrum = np.multiply(work, self._kinetic, out=work)
        self._check_spectrum(spectrum)
        time = psi.time + n_steps * self.dt
        if self._half_kick is None:
            values = np.empty_like(spectrum)
            _fft2(spectrum, values, tmp, inverse=True)
            return WaveFunction(self.grid, values, time, spectrum)
        _fft2(work, work, tmp, inverse=True)
        return WaveFunction(self.grid, work * self._half_kick, time)

    def frames(self, psi: WaveFunction, frame_stride: int, n_frames: int) -> Iterator[WaveFunction]:
        """Frames k = 0..n_frames of psi, frame_stride steps apart, one at a time:
        a copy of psi, then advance() of the frame before by frame_stride.

        With the free potential frame 0 carries its spectrum from one FFT, so
        the spectrum stays in k-space, psi_k^ = psi_{k-1}^ . (the stride
        phase): a frame costs one multiply and one IFFT.
        """
        if psi.grid != self.grid:
            raise ValueError(f"psi lives on {psi.grid}, the propagator on {self.grid}")
        frame = psi.copy()
        if self._half_kick is None:
            frame.spectrum = np.fft.fft2(frame.values)
        yield frame
        for _ in range(n_frames):
            frame = self.advance(frame, frame_stride)
            yield frame


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
    Free-potential frames carry their spectrum; see Propagator.frames.
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
    """stream_frames as a list; its frames hold no spectrum."""
    return [replace(f, spectrum=None) for f in stream_frames(psi, pot, dt, n_steps, frame_stride, hbar, mass)]


def analytic_free_gaussian(
    grid: Grid2D, sigma0: float, k0, center, t: float, hbar: float = 1.0, mass: float = 1.0
) -> WaveFunction:
    """Exact free evolution of the init_gaussian packet, sampled on the grid.

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
    # each factor depends on one axis: an (n, 1) column for x, a (1, n) row for y
    x = grid.axis
    factors = []
    for axis_coord, c, kk in ((x[:, None], center[0], k0[0]), (x[None, :], center[1], k0[1])):
        shifted = axis_coord - c - (hbar * kk / mass) * t
        factors.append(
            (2.0 * np.pi * s2) ** (-0.25)
            * alpha ** (-0.5)
            * np.exp(
                -(shifted**2) / (4.0 * s2 * alpha)
                + 1j * kk * axis_coord
                - 0.5j * hbar * kk**2 * t / mass
            )
        )
    return WaveFunction(grid, factors[0] * factors[1], t)


def harmonic_ground_state(grid: Grid2D, omega: float, hbar: float = 1.0, mass: float = 1.0) -> WaveFunction:
    """Real ground state of the isotropic harmonic well, normalized on the grid."""
    X, Y = grid.mesh()
    values = np.exp(-0.5 * mass * omega * (X**2 + Y**2) / hbar).astype(complex)
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_area())
    return WaveFunction(grid, values, 0.0)


def psi_ratios(psi: WaveFunction, rho_floor: float = DEFAULT_RHO_FLOOR, laplacian: bool = False):
    """(live, ratios, rho, mask): the spectral grad(Psi)/Psi on the live cells.

    mask is rho < rho_floor * max(rho) with rho = |Psi|^2, and live the flat
    row-major indices of the cells it leaves, np.flatnonzero(~mask).  ratios
    has shape (2, L) for L live cells, (d/dx Psi, d/dy Psi)/Psi, and with
    laplacian=True a third row Lap(Psi)/Psi.  The spectrum is psi.spectrum
    when the solver held it, else one fft2; the derivative spectra
    i k_x Psi^, i k_y Psi^ (and -k^2 Psi^) are inverted as one stacked FFT
    into held buffers, and each live cell takes one complex divide.
    """
    grid = psi.grid
    rho = psi.density()
    mask = rho < rho_floor * float(rho.max())
    spectrum = _spectrum(psi)
    k = grid.wavenumbers
    derivs, tmp = _held_buffers(3 if laplacian else 2, grid.n)
    np.multiply(1j * k[:, None], spectrum, out=derivs[0])
    np.multiply(1j * k[None, :], spectrum, out=derivs[1])
    if laplacian:
        np.multiply(-(k[:, None] ** 2 + k[None, :] ** 2), spectrum, out=derivs[2])
    _fft2(derivs, derivs, tmp, inverse=True)
    live = np.flatnonzero(~mask)
    ratios = derivs.reshape(len(derivs), -1)[:, live] / psi.values.ravel()[live]
    return live, ratios, rho, mask


def _energy_terms(grid: Grid2D, pot: Potential, hbar: float, mass: float):
    """(kinetic, v): the weights hbar^2 k^2/2m that |Psi^|^2 is summed against,
    and V on the grid, None for the free potential.

    hbar * hbar, not hbar**2: a float multiply overflows to inf where ** raises.
    """
    k = grid.wavenumbers
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    kinetic = 0.5 * (hbar * hbar) * k2 / mass
    return kinetic, None if pot.kind is PotentialKind.FREE else pot.values(grid, mass)


def _energy(psi: WaveFunction, rho: np.ndarray, kinetic: np.ndarray, v) -> float:
    grid = psi.grid
    e = np.sum(kinetic * np.abs(_spectrum(psi)) ** 2) * grid.cell_area() / grid.n**2
    if v is not None:
        e = e + np.sum(v * rho) * grid.cell_area()
    return float(e)


def energy(psi: WaveFunction, pot: Potential, hbar: float = 1.0, mass: float = 1.0) -> float:
    """<Psi| -hbar^2/2m Lap + V |Psi> with the kinetic part summed in k-space,
    over psi.spectrum when the solver held it, else over fft2(psi.values)."""
    return _energy(psi, psi.density(), *_energy_terms(psi.grid, pot, hbar, mass))


def _moments(grid: Grid2D, rho: np.ndarray):
    rho = rho * grid.cell_area()
    total = float(rho.sum())
    x = grid.axis
    px = rho.sum(axis=1) / total
    py = rho.sum(axis=0) / total
    x_mean = float(np.dot(px, x))
    y_mean = float(np.dot(py, x))
    sigma_x = float(np.sqrt(np.dot(px, (x - x_mean) ** 2)))
    sigma_y = float(np.sqrt(np.dot(py, (x - y_mean) ** 2)))
    return x_mean, y_mean, sigma_x, sigma_y


def moments(psi: WaveFunction):
    """(x_mean, y_mean, sigma_x, sigma_y) of the density."""
    return _moments(psi.grid, psi.density())


def frames_summary_csv(path, frames, pot: Potential, hbar: float = 1.0, mass: float = 1.0):
    """Write one row of t, norm, energy and moments per frame to path.

    frames is any iterable of frames on one grid, read once, so a stream is
    summarized without being held.  The energy terms are built once; per
    frame rho = |Psi|^2 is computed once and feeds the norm, the V rho sum
    and the moments.  Returns (last frame or None, rows).
    """
    header = ["t", "norm", "energy", "x_mean", "y_mean", "sigma_x", "sigma_y"]
    rows = []
    frame = terms = None
    for frame in frames:
        grid = frame.grid
        if terms is None:
            terms = _energy_terms(grid, pot, hbar, mass)
        rho = frame.density()
        norm = float(np.sqrt(np.sum(rho) * grid.cell_area()))
        rows.append([frame.time, norm, _energy(frame, rho, *terms), *_moments(grid, rho)])
    write_csv(path, header, rows)
    return frame, rows


def export_frame(path, psi: WaveFunction) -> None:
    write_zlab_frame(path, psi.values, psi.grid.half_width, psi.time)
