"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/schema problems are
distinguished from runtime failures inside the physics modules.
"""


class CryomuxError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CryomuxError, ValueError):
    """Invalid configuration: bad schema, units, or parameter domain.

    Also a ValueError, so callers that catch the built-in keep working."""


class ProtocolError(CryomuxError):
    """Digital programming protocol violated (stream lengths, framing)."""


class ModeViolationError(ProtocolError):
    """Operation issued in the wrong serial/parallel programming mode."""


class SingularityError(CryomuxError):
    """A closed-form expression was evaluated at a singular point."""


class IntegrationError(CryomuxError):
    """The master-equation integrator lost trace or positivity."""


class CalibrationError(CryomuxError):
    """Pulse calibration missed its target."""


class FitError(CryomuxError):
    """Nonlinear least-squares failure."""


class SingularJacobianError(FitError):
    """The Jacobian is rank deficient; a parameter is unidentifiable."""


class BoundsError(FitError):
    """Initial guess or requested step violates the parameter bounds."""


class DegenerateDataError(FitError):
    """The data carry no usable signal for the requested model."""
