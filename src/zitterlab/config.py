"""The config schema of one scenario run: its keys, their value parsers and defaults.

This module imports only the standard library, so a config document parses
without numpy or any solver; :class:`ScenarioConfig`'s builders (``phys``,
``perm``, ``program``, ``grid``) import the process and wave layers when
called.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum

# The scenario catalog, in `zitterlab list-scenarios` order; scenarios.py maps
# each name to its runner in the same order.
SCENARIOS = (
    "process_free",
    "spin_table",
    "heisenberg_table",
    "convergence",
    "lemma1",
    "free_gaussian",
    "harmonic_ground",
    "harmonic_coherent",
    "equivariance",
    "hj_residual",
    "guided_process",
)
GUIDED_EPSILONS = (4e-3, 2e-3, 1e-3)
CONVERGENCE_EPSILONS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
TABLE_EPSILONS = (1e-1, 1e-2, 1e-3)
# The harmonic and guided scenarios run on 128 points over a half width of 10.
_SMALL_BOX = ("harmonic_ground", "harmonic_coherent", "guided_process")

# fraction of max rho below which a cell counts as a node
DEFAULT_RHO_FLOOR = 1e-12
HJ_RHO_FLOOR = 1e-4  # relative density floor for residual statistics


class Sense(Enum):
    """Orientation of the vertex 4-cycle; selects the sign of the spin."""

    S_PLUS = "s_plus"
    S_MINUS = "s_minus"


class EpsilonMode(Enum):
    FIXED = "fixed"
    DE_BROGLIE = "de_broglie"
    COMPTON = "compton"


def _number(kind=float, above=None):
    """Parser of one finite number of `kind` (float, int or complex), > `above` if given."""

    def parse(raw: str):
        value = kind(raw.replace(" ", "") if kind is complex else raw)
        if kind is not int and not cmath.isfinite(value):
            raise ValueError("must be finite")
        if above is not None and not value > above:
            raise ValueError(f"must be > {above}")
        return value

    return parse


def _list(item):
    """Parser of a non-empty comma list, each entry read by `item`."""

    def parse(raw: str) -> tuple:
        values = tuple(item(tok) for tok in raw.split(",") if tok.strip())
        if not values:
            raise ValueError("must be a non-empty comma list")
        return values

    return parse


def _choice(options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw

    return parse


def _flag(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be true/false")


_FINITE = _number(float)
_POSITIVE = _number(float, above=0.0)
_COUNT = _number(int, above=0)
_COMPLEX = _number(complex)


def _key(default, parse, **by_scenario):
    """A config key: its default, the parser of its value text and the
    scenarios whose default differs (name=value)."""
    return field(default=default, metadata={"parse": parse, "by_scenario": by_scenario})


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated key-value configuration of one scenario run.

    Every field but `provided` is a config key; its metadata holds the value
    parser and the per-scenario defaults that `cli.parse_config` fills in.
    `provided` names the keys the config document gave.
    """

    scenario: str = field(metadata={"parse": _choice(SCENARIOS), "by_scenario": {}})
    hbar: float = _key(1.0, _POSITIVE)
    mass: float = _key(1.0, _POSITIVE)
    epsilon: float = _key(0.01, _POSITIVE)
    epsilon_mode: str = _key("fixed", _choice([m.value for m in EpsilonMode]))
    light_speed: float = _key(1.0, _POSITIVE)
    epsilon_floor: float = _key(1e-12, _POSITIVE)
    permutation: str = _key("s_plus", _choice([s.value for s in Sense]))
    velocity: str = _key(
        "zero", _choice(("zero", "constant", "circular", "polynomial")), convergence="circular", lemma1="circular"
    )
    velocity_x: complex = _key(1.0, _COMPLEX)
    velocity_y: complex = _key(0.0, _COMPLEX)
    velocity_coeffs_x: tuple = _key((0.0,), _list(_COMPLEX))
    velocity_coeffs_y: tuple = _key((0.0,), _list(_COMPLEX))
    circular_omega: float = _key(1.0, _FINITE)
    circular_amplitude: float = _key(1.0, _FINITE)
    z0_x: complex = _key(0.0, _COMPLEX)
    z0_y: complex = _key(0.0, _COMPLEX)
    cycles: int = _key(100, _COUNT)
    epsilons: tuple = _key(
        CONVERGENCE_EPSILONS, _list(_POSITIVE), spin_table=TABLE_EPSILONS, heisenberg_table=TABLE_EPSILONS
    )
    T: float = _key(1.0, _POSITIVE)
    dt: float = _key(1e-3, _POSITIVE)
    n_grid: int = _key(256, _COUNT, **dict.fromkeys(_SMALL_BOX, 128))
    box_half_width: float = _key(20.0, _POSITIVE, **dict.fromkeys(_SMALL_BOX, 10.0))
    sigma0: float = _key(1.0, _POSITIVE)
    center_x: float = _key(0.0, _FINITE, harmonic_coherent=2.0)
    center_y: float = _key(0.0, _FINITE)
    k0_x: float = _key(0.0, _FINITE)
    k0_y: float = _key(0.0, _FINITE)
    omega: float = _key(1.0, _POSITIVE)
    frame_stride: int = _key(5, _COUNT)
    seed_x: float = _key(1.0, _FINITE)
    seed_y: float = _key(0.0, _FINITE)
    ensemble_n: int = _key(10000, _COUNT)
    seed: int = _key(12345, _number(int, above=-1))
    bins: int = _key(32, _COUNT)
    rho_floor: float = _key(DEFAULT_RHO_FLOOR, _POSITIVE)
    hj_rho_floor: float = _key(HJ_RHO_FLOOR, _POSITIVE)
    hj_time: float = _key(0.5, _POSITIVE)
    hj_dts: tuple = _key((4e-3, 2e-3, 1e-3), _list(_POSITIVE))
    hj_ns: tuple = _key((32, 64, 128), _list(_COUNT))
    guided_epsilons: tuple = _key(GUIDED_EPSILONS, _list(_POSITIVE))
    write_frames: bool = _key(False, _flag)
    provided: frozenset = field(default_factory=frozenset)

    def phys(self, epsilon: float | None = None) -> PhysParams:
        from .process import PhysParams

        return PhysParams(
            hbar=self.hbar,
            mass=self.mass,
            epsilon=self.epsilon if epsilon is None else float(epsilon),
            epsilon_mode=EpsilonMode(self.epsilon_mode),
            light_speed=self.light_speed,
            epsilon_floor=self.epsilon_floor,
        )

    def perm(self) -> Permutation:
        from .process import Permutation

        return Permutation(Sense(self.permutation))

    def program(self):
        from .process import CircularVelocity, ConstantVelocity, PolynomialVelocity, zero_velocity

        if self.velocity == "zero":
            return zero_velocity()
        if self.velocity == "constant":
            return ConstantVelocity(self.velocity_x, self.velocity_y)
        if self.velocity == "circular":
            return CircularVelocity(self.circular_omega, self.circular_amplitude)
        return PolynomialVelocity(self.velocity_coeffs_x, self.velocity_coeffs_y)

    def grid(self, n: int | None = None) -> Grid2D:
        from .schrodinger import Grid2D

        return Grid2D(self.n_grid if n is None else n, self.box_half_width)
