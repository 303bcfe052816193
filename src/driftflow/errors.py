"""Exception types shared across the package."""


class DriftflowError(Exception):
    """Base class for all package errors."""


class NegativePowerOfZeroMode(DriftflowError):
    """A negative fractional Laplacian power was applied to a field with nonzero mean."""


class UnsupportedP(DriftflowError):
    """Block Lp norms are only provided for p in {1, 2, 4, inf}."""


class InsufficientSamples(DriftflowError):
    """A time quadrature was requested with fewer than two samples."""


class QuadratureNotConverged(DriftflowError):
    """Radial quadrature did not stabilize under node doubling."""


class VacuumGas(DriftflowError):
    """The gas density 1 + a dropped below the admissible floor."""


class DegenerateMixture(DriftflowError):
    """The mixture density rho + n is not bounded away from zero."""


class StepRejected(DriftflowError):
    """A time step produced a state violating the system invariants."""


class NonFiniteField(DriftflowError):
    """A field holds a NaN or infinite coefficient."""


class Diverged(DriftflowError):
    """A trajectory exceeded the configured amplitude guard."""


class WindowTooShort(DriftflowError):
    """A fit window contains too few samples."""


class NonPositiveData(DriftflowError):
    """Log-log fitting requires strictly positive data."""


class FormatVersionMismatch(DriftflowError):
    """A snapshot file carries an unknown magic tag or format version."""


class ConfigError(DriftflowError):
    """A run configuration failed validation."""
