"""2D time-dependent Schrodinger solver on a periodic grid.

Strang-split spectral scheme: half potential kick, exact kinetic phase in
Fourier space, half potential kick.  A product state psi = fx(x) fy(y)
under the free or a harmonic potential evolves as its two 1D factors.
Packets must stay well away from the box boundary; guards reject
under-resolved or boundary-touching initial data, and per-frame checks abort
evolutions that fill the top of the spectrum, turn non-finite or move the
norm past its roundoff bound.

i hbar dPsi/dt = -(hbar^2/2m) Lap Psi + V(x) Psi
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidInput, PacketTooNarrow, PacketTouchesBoundary, ResolutionLoss
from .fileio import write_csv, write_zlab_frame

# fraction of max rho below which a cell counts as a node
DEFAULT_RHO_FLOOR = 1e-12
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


@dataclass(eq=False)
class WaveFunction:
    """Complex field on a Grid2D at one instant; values indexed [ix, iy].

    factors, when not None, is the pair (fx, fy) of (n,) axis factors of a
    product state: the solver evolves such a frame as its two factors, and
    its readers sum over them.  A product frame may be given values None;
    values = np.outer(fx, fy) is then built at its first read and kept.
    Readers must modify neither.  repr reads neither, and == is identity.
    """

    grid: Grid2D
    values: np.ndarray | None = field(repr=False)
    time: float = 0.0
    factors: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.values is None:
            if self.factors is None:
                raise ValueError("a WaveFunction needs values or factors")
            del self.values  # built by __getattr__ at the first read

    def __getattr__(self, name):
        factors = self.__dict__.get("factors")
        if name != "values" or factors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.values = np.outer(*factors)
        return self.values

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.grid, _densities(self)))

    def density(self) -> np.ndarray:
        rho = _densities(self)
        return np.outer(*rho) if isinstance(rho, tuple) else rho

    def copy(self) -> "WaveFunction":
        """A copy that shares no array; a product frame's copies only its factors."""
        if self.factors is None:
            return WaveFunction(self.grid, self.values.copy(), self.time)
        return WaveFunction(self.grid, None, self.time, factors=tuple(f.copy() for f in self.factors))


def _densities(psi: WaveFunction):
    """|psi|^2: the pair (|fx|^2, |fy|^2) of a product frame, else the (n, n) array."""
    if psi.factors is None:
        return np.abs(psi.values) ** 2
    return tuple(np.abs(f) ** 2 for f in psi.factors)


def _squared_norm(grid: Grid2D, rho) -> float:
    """The sum of rho, as _densities gives it, times the cell area."""
    if isinstance(rho, tuple):
        return float(rho[0].sum()) * float(rho[1].sum()) * grid.cell_area()
    return float(np.sum(rho) * grid.cell_area())


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
    x = grid.axis
    return _product_state(grid, *(np.exp(-((x - c) ** 2) / (4.0 * sigma0**2) + 1j * kk * x) for c, kk in zip(center, k0)))


def _product_state(grid: Grid2D, fx: np.ndarray, fy: np.ndarray) -> WaveFunction:
    """The product frame of factors fx, fy at t = 0, each normalized on its
    axis; its values are built at their first read."""
    fx, fy = (f / np.sqrt(np.sum(np.abs(f) ** 2) * grid.spacing) for f in (fx, fy))
    return WaveFunction(grid, None, 0.0, factors=(fx, fy))


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


def _kinetic_phase(scale: float, k2: np.ndarray) -> np.ndarray:
    """exp(-i scale k2) on the squared wavenumbers k2: the kinetic phase over
    a time t, scale = hbar t / 2m."""
    return np.exp(-1j * scale * k2)


def _harmonic_parts(grid: Grid2D, pot: Potential, mass: float) -> list:
    """The distinct per-axis parts 0.5 m (w x)^2 of a harmonic V = a(x) + b(y),
    a = parts[0] and b = parts[-1]: V's column and row through the centre
    node, where V is exactly 0.  An isotropic V has one part."""
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
    for.  Each squared norm is a sum of at most n^2 terms, off by at most
    gamma = n^2 u / (1 - n^2 u) relative (Higham, eq. 4.4).
    """
    u = np.finfo(float).eps / 2
    e = 7 * u * (2 * math.log2(n * n) + 2)
    gamma = n * n * u / (1 - n * n * u)
    return math.expm1(2 * steps * math.log1p(e)) * (1 + gamma) / (1 - gamma) + 2 * gamma / (1 - gamma)


class Propagator:
    """Strang-split spectral propagator for one grid, potential, dt, hbar and mass.

    advance() reuses the operators for every call, and frames() is advance()
    in a loop.  Which of three paths a call runs is fixed by its input,
    never detected:
    - the product path, for a psi with factors under the free or a harmonic
      potential: each axis factor is evolved alone, by the 1D kinetic phase
      on its spectrum (free) or by the per-axis operator and half kick
      (harmonic), and values is built from the factors at its first read;
    - the 2D free path, for any other psi under the free potential: k^2 only;
    - the 2D loop, for any other psi or potential: the 2D kinetic phase and
      the half and full kicks of V.
    The constructor builds the 1D parts: the axis aliasing band and, for a
    harmonic V, the per-axis kicks and kinetic phase.  The n x n operators
    (the 2D band, kinetic phase and kicks) and work buffers are built at the
    first 2D call, so a product-path run builds none; a sampled V, which
    only the loop runs, builds (and so checks) them here.
    """

    def __init__(self, grid: Grid2D, pot: Potential, dt: float, hbar: float = 1.0, mass: float = 1.0):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.grid = grid
        self.dt = dt
        self._pot, self._hbar, self._mass = pot, hbar, mass
        self._hbar_over_2m = 0.5 * hbar / mass
        k = grid.wavenumbers
        self._factored = pot.kind is not PotentialKind.GRID_SAMPLED
        self._axes = None
        if pot.kind is PotentialKind.HARMONIC:
            parts = _harmonic_parts(grid, pot, mass)
            kinetic = _kinetic_phase(self._hbar_over_2m * dt, k**2)
            self._axes = [(np.exp(-0.5j * dt * p / hbar), np.exp(-1j * dt * p / hbar), kinetic) for p in parts]
        self._axis_band = np.abs(k) >= ALIAS_BAND_FRACTION * grid.nyquist
        # a frame stream advances by one stride throughout, so one cached n suffices
        self._cached_key = None
        self._cached = None
        self._plane = None if self._factored else self._build_plane()

    @cached_property
    def _k2(self) -> np.ndarray:
        k = self.grid.wavenumbers
        return k[:, None] ** 2 + k[None, :] ** 2

    @cached_property
    def _band(self) -> np.ndarray:
        return np.logical_or.outer(self._axis_band, self._axis_band)

    def _build_plane(self):
        """(half_kick, full_kick, kinetic, work, tmp): the n x n kicks, kinetic
        phase and work buffers of the 2D paths.  Under the free potential all
        but tmp are None."""
        shape = (self.grid.n, self.grid.n)
        tmp = np.empty(shape, dtype=complex)
        if self._pot.kind is PotentialKind.FREE:
            return None, None, None, None, tmp
        v = self._pot.values(self.grid, self._mass)
        half_kick = np.exp(-0.5j * self.dt * v / self._hbar)
        full_kick = np.exp(-1j * self.dt * v / self._hbar)
        kinetic = _kinetic_phase(self._hbar_over_2m * self.dt, self._k2)
        return half_kick, full_kick, kinetic, np.empty(shape, dtype=complex), tmp

    def _cached_for(self, n_steps: int, product: bool):
        """The (A_x^T, A_y^T) pair of a harmonic V, or the free n-step phase
        (per axis on the product path, else 2D)."""
        key = (n_steps, product)
        if key != self._cached_key:
            if self._axes is None:
                k2 = self.grid.wavenumbers**2 if product else self._k2
                self._cached = _kinetic_phase(self._hbar_over_2m * n_steps * self.dt, k2)
            else:
                ops = [_axis_operator(*axis, n_steps) for axis in self._axes]
                self._cached = (ops[0], ops[-1])
            self._cached_key = key
        return self._cached

    def _guard(self, spectra, norm0: float, steps: int) -> None:
        """Raise ResolutionLoss unless the spectra of a new frame (psi^, or
        (fx^, fy^) on the product path) are finite, keep their mass out of
        the aliasing band, and give a squared norm within _norm_bound(n,
        steps) of norm0, frame 0's."""
        totals, alias = [], 0.0
        for spectrum in spectra:
            power = np.abs(spectrum) ** 2
            total = float(power.sum())
            if not math.isfinite(total):
                raise ResolutionLoss("wave function became non-finite (NaN or inf)")
            band = self._band if spectrum.ndim == 2 else self._axis_band
            ratio = float(power[band].sum()) / total if total > 0.0 else 0.0
            alias += ratio - alias * ratio  # 1 - (in-band fraction of x) (in-band fraction of y)
            totals.append(total)
        if alias > ALIAS_MASS_LIMIT:
            raise ResolutionLoss("spectral mass reached the aliasing band; refine the grid")
        # Parseval: the sum of |psi^|^2 over n^2 modes is n^2 times that of |psi|^2
        norm = math.prod(totals) * self.grid.cell_area() / self.grid.n**2
        bound = _norm_bound(self.grid.n, steps)
        if abs(norm - norm0) > bound * norm0:
            raise ResolutionLoss(
                f"the norm moved by {abs(norm / norm0 - 1.0):.3e} of frame 0's over {steps} steps, "
                f"past its roundoff bound {bound:.3e}"
            )

    def advance(self, psi: WaveFunction, n_steps: int) -> WaveFunction:
        """psi advanced by n_steps of dt, in a freshly allocated WaveFunction.

        Adjacent half kicks are fused into full kicks, so a call costs
        half . [FFT . kinetic . IFFT . full]^(n-1) . FFT . kinetic . IFFT . half,
        which the 2D loop runs as written: n_steps 2D FFT pairs.  On the
        product path that runs on each factor in 1D: a factor's FFT times the
        n-step 1D phase (free), or A f with the per-axis operator A
        (harmonic), inverted and given its axis's half kick; the result
        carries the new factors alone, its values built at their first read.
        On the 2D free path fft2(psi) times the n-step kinetic phase is psi^,
        inverted into the result.  The guards read psi^ (or the factors'
        spectra), the spectrum before the last IFFT: finiteness, the aliasing
        band, and the norm against psi's.
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
        time = psi.time + n_steps * self.dt
        if psi.factors is not None and self._factored:
            cached = self._cached_for(n_steps, product=True)
            if self._axes is None:
                spectra = [np.fft.fft(f) * cached for f in psi.factors]
            else:
                spectra = [f @ op for f, op in zip(psi.factors, cached)]
            self._guard(spectra, norm0, steps)
            fx, fy = (np.fft.ifft(s) for s in spectra)
            if self._axes is not None:
                fx, fy = fx * self._axes[0][0], fy * self._axes[-1][0]
            return WaveFunction(self.grid, None, time, factors=(fx, fy))
        if self._plane is None:
            self._plane = self._build_plane()
        half_kick, full_kick, kinetic, work, tmp = self._plane
        if half_kick is None:
            # a fresh psi^, inverted in place into the result's values
            work = np.fft.fft2(psi.values) * self._cached_for(n_steps, product=False)
        else:
            np.multiply(psi.values, half_kick, out=work)
            for _ in range(n_steps - 1):
                _fft2(work, work, tmp)
                work *= kinetic
                _fft2(work, work, tmp, inverse=True)
                work *= full_kick
            _fft2(work, work, tmp)
            work *= kinetic
        self._guard((work,), norm0, steps)
        _fft2(work, work, tmp, inverse=True)
        return WaveFunction(self.grid, work if half_kick is None else work * half_kick, time)

    def frames(self, psi: WaveFunction, frame_stride: int, n_frames: int) -> Iterator[WaveFunction]:
        """Frames k = 0..n_frames of psi, frame_stride steps apart, one at a time:
        a copy of psi, then advance() of the frame before by frame_stride,
        each frame's norm guarded against frame 0's.

        On the product path a frame costs four 1D FFTs (free) or two n x n
        matrix-vector products and two 1D inverse FFTs (harmonic), and holds
        2n numbers until its values are read.  On the 2D free path it costs
        one 2D FFT pair, and on the 2D loop frame_stride of them.
        """
        if psi.grid != self.grid:
            raise ValueError(f"psi lives on {psi.grid}, the propagator on {self.grid}")
        frame = psi.copy()
        norm0 = _squared_norm(self.grid, _densities(frame))
        yield frame
        for k in range(1, n_frames + 1):
            frame = self._advance(frame, frame_stride, norm0, k * frame_stride)
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
    Product frames carry their factors; see Propagator.frames.
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
    """Real ground state of the isotropic harmonic well, normalized on the grid:
    a product frame of one Gaussian factor per axis."""
    f = np.exp(-0.5 * mass * omega * grid.axis**2 / hbar).astype(complex)
    return _product_state(grid, f, f)


def psi_ratios(psi: WaveFunction, rho_floor: float = DEFAULT_RHO_FLOOR, laplacian: bool = False):
    """(live, ratios, rho, mask): the spectral grad(Psi)/Psi on the live cells.

    mask is rho < rho_floor * max(rho) with rho = |Psi|^2, and live the flat
    row-major indices of the cells it leaves, np.flatnonzero(~mask).  ratios
    has shape (2, L) for L live cells, (d/dx Psi, d/dy Psi)/Psi, and with
    laplacian=True a third row Lap(Psi)/Psi.  A product frame takes
    fx'/fx and fy'/fy (and fx''/fx + fy''/fy) from 1D spectral derivatives
    of its factors, with rho = np.outer(|fx|^2, |fy|^2).  Any other frame
    takes one fft2; the derivative spectra i k_x Psi^, i k_y Psi^ (and
    -k^2 Psi^) are inverted as one stacked FFT into held buffers, and each
    live cell takes one complex divide.
    """
    if psi.factors is not None:
        return _factor_ratios(psi, rho_floor, laplacian)
    grid = psi.grid
    rho = psi.density()
    mask = rho < rho_floor * float(rho.max())
    spectrum = np.fft.fft2(psi.values)
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


def _axis_ratios(psi: WaveFunction, rho_floor: float, laplacian: bool = False):
    """The per-axis parts of a product frame's psi_ratios: (rx, ry, floor,
    (ratio_x, ratio_y)).

    rx and ry are the factors' densities and floor = rho_floor * max(rx)
    max(ry): cell (i, j) is live when rx[i] ry[j] >= floor.  ratio_x has
    shape (1, n), fx'/fx, or with laplacian=True (2, n), adding fx''/fx, from
    1D spectral derivatives; ratio_y likewise.  An axis node takes its ratios
    when it is live against the other axis's maximum: rounding is monotone,
    so that is when its row (or column) holds a live cell.  Each such node
    takes one complex divide per derivative, and every other node holds 0.
    """
    k = psi.grid.wavenumbers
    rx, ry = _densities(psi)
    floor = rho_floor * (float(rx.max()) * float(ry.max()))
    axis_ratios = []
    for f, r, other in ((psi.factors[0], rx, ry), (psi.factors[1], ry, rx)):
        spectrum = np.fft.fft(f)
        derivs = np.fft.ifft([1j * k * spectrum, -(k**2) * spectrum][: 2 if laplacian else 1], axis=-1)
        keep = r * float(other.max()) >= floor
        ratio = np.zeros_like(derivs)
        ratio[:, keep] = derivs[:, keep] / f[keep]
        axis_ratios.append(ratio)
    return rx, ry, floor, axis_ratios


def _factor_ratios(psi: WaveFunction, rho_floor: float, laplacian: bool):
    """psi_ratios of a product frame: _axis_ratios gathered onto the live
    cells, with rho = np.outer(rx, ry) and mask = rho < floor."""
    rx, ry, floor, (ratio_x, ratio_y) = _axis_ratios(psi, rho_floor, laplacian)
    rho = np.outer(rx, ry)
    mask = rho < floor
    live = np.flatnonzero(~mask)
    i, j = np.divmod(live, psi.grid.n)
    ax, ay = ratio_x[:, i], ratio_y[:, j]
    ratios = [ax[0], ay[0], ax[1] + ay[1]] if laplacian else [ax[0], ay[0]]
    return live, np.array(ratios), rho, mask


class _EnergyTerms:
    """What <Psi|H|Psi> is summed against on one grid, each part built at its
    first use, so that product frames never build an n x n array under the
    free or a harmonic potential:
    - w, the weights hbar^2 k^2/2m per axis (product frames), and kinetic,
      the same on the 2D grid (any other frame);
    - parts, a harmonic V's per-axis parts (_harmonic_parts), else None;
    - v, V on the grid, None for the free potential.

    hbar * hbar, not hbar**2: a float multiply overflows to inf where ** raises.
    """

    def __init__(self, grid: Grid2D, pot: Potential, hbar: float, mass: float):
        self.grid, self.pot, self.hbar, self.mass = grid, pot, hbar, mass

    @cached_property
    def w(self) -> np.ndarray:
        return 0.5 * (self.hbar * self.hbar) * self.grid.wavenumbers**2 / self.mass

    @cached_property
    def kinetic(self) -> np.ndarray:
        k = self.grid.wavenumbers
        return 0.5 * (self.hbar * self.hbar) * (k[:, None] ** 2 + k[None, :] ** 2) / self.mass

    @cached_property
    def parts(self):
        return _harmonic_parts(self.grid, self.pot, self.mass) if self.pot.kind is PotentialKind.HARMONIC else None

    @cached_property
    def v(self):
        return None if self.pot.kind is PotentialKind.FREE else self.pot.values(self.grid, self.mass)


def _energy(psi: WaveFunction, rho, terms: _EnergyTerms) -> float:
    """<Psi|H|Psi> over rho as _densities gives it.

    A product frame sums in 1D: E_kin = K_x N_y + N_x K_y, with N the axis
    norms and K the axis kinetic sums over each factor's FFT.  Its <V> is
    ((a.rx) sum(ry) + sum(rx) (b.ry)) h^2 for a harmonic V = a(x) + b(y),
    else rx^T V ry.  Any other frame sums kinetic |Psi^|^2 and V rho in 2D.
    """
    grid = psi.grid
    if isinstance(rho, tuple):
        h = grid.spacing
        sx, sy = (float(r.sum()) for r in rho)
        nx, ny = sx * h, sy * h
        kx, ky = (float(np.sum(terms.w * np.abs(np.fft.fft(f)) ** 2)) * h / grid.n for f in psi.factors)
        e = kx * ny + nx * ky
        if terms.parts is not None:
            a, b = terms.parts[0], terms.parts[-1]
            e += (float(a @ rho[0]) * sy + sx * float(b @ rho[1])) * grid.cell_area()
        elif terms.v is not None:
            e += float(rho[0] @ terms.v @ rho[1]) * grid.cell_area()
        return e
    e = np.sum(terms.kinetic * np.abs(np.fft.fft2(psi.values)) ** 2) * grid.cell_area() / grid.n**2
    if terms.v is not None:
        e = e + np.sum(terms.v * rho) * grid.cell_area()
    return float(e)


def energy(psi: WaveFunction, pot: Potential, hbar: float = 1.0, mass: float = 1.0) -> float:
    """<Psi| -hbar^2/2m Lap + V |Psi>: over the factors of a product frame;
    else with the kinetic part summed in k-space, over fft2(psi.values)."""
    return _energy(psi, _densities(psi), _EnergyTerms(psi.grid, pot, hbar, mass))


def _moments(grid: Grid2D, rho):
    """(x_mean, y_mean, sigma_x, sigma_y) of rho as _densities gives it, from
    its two axis marginals (a product frame's are its factors' densities)."""
    marginals = rho if isinstance(rho, tuple) else (rho.sum(axis=1), rho.sum(axis=0))
    x = grid.axis
    means, sigmas = [], []
    for p in marginals:
        p = p / p.sum()
        mean = float(np.dot(p, x))
        means.append(mean)
        sigmas.append(float(np.sqrt(np.dot(p, (x - mean) ** 2))))
    return (*means, *sigmas)


def moments(psi: WaveFunction):
    """(x_mean, y_mean, sigma_x, sigma_y) of the density."""
    return _moments(psi.grid, _densities(psi))


def frames_summary_csv(path, frames, pot: Potential, hbar: float = 1.0, mass: float = 1.0):
    """Write one row of t, norm, energy and moments per frame to path.

    frames is any iterable of frames on one grid, read once, so a stream is
    summarized without being held.  The energy terms are built once, each
    at its first use; per frame rho (a product frame's two axis densities,
    else |Psi|^2) is computed once and feeds the norm, the energy and the
    moments.  Returns (last frame or None, rows).
    """
    header = ["t", "norm", "energy", "x_mean", "y_mean", "sigma_x", "sigma_y"]
    rows = []
    frame = terms = None
    for frame in frames:
        grid = frame.grid
        if terms is None:
            terms = _EnergyTerms(grid, pot, hbar, mass)
        rho = _densities(frame)
        norm = math.sqrt(_squared_norm(grid, rho))
        rows.append([frame.time, norm, _energy(frame, rho, terms), *_moments(grid, rho)])
    write_csv(path, header, zip(*rows))
    return frame, rows


def export_frame(path, psi: WaveFunction) -> None:
    write_zlab_frame(path, psi.values, psi.grid.half_width, psi.time)
