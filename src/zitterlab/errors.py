"""Exception hierarchy shared by all zitterlab modules."""


class ZitterlabError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteVelocity(ZitterlabError):
    """A velocity program or field produced a NaN/inf value."""


class EpsilonUnderflow(ZitterlabError):
    """An epsilon, a de_broglie refresh or the compton constant, fell below the configured floor."""


class StepBudgetExceeded(ZitterlabError):
    """A process run needed more cycles than its step budget allows."""


class PacketTooNarrow(ZitterlabError):
    """Initial packet width is below the resolvable minimum (4 grid spacings)."""


class PacketTouchesBoundary(ZitterlabError):
    """Initial packet carries more than 1e-12 probability mass outside the box."""


class ResolutionLoss(ZitterlabError):
    """The solver lost resolution: high-wavenumber spectral mass exceeds the
    aliasing guard threshold, or the evolving wave function is no longer finite."""


class NodeRegion(ZitterlabError):
    """A velocity query touched grid cells masked as wave-function nodes."""


class LeftDomain(ZitterlabError):
    """A trajectory position left the periodic box."""


class EnsembleFailure(ZitterlabError):
    """Too many ensemble trajectories terminated early."""


class ConfigError(ZitterlabError):
    """Base class for scenario-configuration problems (CLI exit code 2)."""


class UnknownField(ConfigError):
    """Config contains a key that no scenario understands."""


class UnknownScenario(ConfigError):
    """Config names a scenario outside the supported catalog."""


class OutOfRange(ConfigError):
    """Config value is outside its legal range."""


class MissingRequired(ConfigError):
    """Config omits a required key."""


class InvalidInput(ConfigError, ValueError):
    """Inputs that parse one by one but do not fit together (a too-short eps
    sweep, a grid size that is no power of two >= 16, a step count that is no
    multiple of the frame stride, a time outside the span of the velocity
    frames or with no frame at it, an eps or dt longer than the frame spacing,
    a T shorter than one 4-step cycle, fewer than 1e3 ensemble samples, a rate
    fit over fewer than two sweep values or an error that is zero, a density
    floor that masks every cell, a table run with no full cycle, cycle
    increments in an epsilon mode other than fixed)."""
