"""Exception types raised by the bornexact package."""


class BornexactError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(BornexactError, ValueError):
    """An argument of a public entry point is out of its domain."""


class SingularCircle(BornexactError):
    """A transverse momentum fell inside the guard annulus around |p| = k."""


class GrazingIncidence(BornexactError):
    """Incident wave propagates parallel to the slab (cos(theta0) = 0)."""


class InvalidPolarization(BornexactError):
    """Polarization vector is zero or not orthogonal to the wave vector."""


class SideMismatch(BornexactError):
    """A left/right amplitude was contracted against the wrong detector side."""


class WindowTooSmall(BornexactError):
    """Truncation window does not cover the profile's support or decay region."""


class BoundsViolated(BornexactError):
    """Permittivity/permeability 33-component bounds (positive real part) fail."""


class IncidenceOutsideDisk(BornexactError):
    """Transverse incident momentum is not strictly inside the propagating disk."""


class DirectionOnRim(BornexactError):
    """Detector direction maps onto the guard annulus of the momentum disk."""


class StraddlesSupportEdge(BornexactError):
    """A grid-mode interpolation cell has nodes on both sides of q_x = alpha."""


class InvalidResolution(BornexactError):
    """Momentum grid resolution parameters are out of range."""


class ConfigError(BornexactError):
    """Run configuration file is missing, malformed, or inconsistent."""


class UnsupportedProfile(BornexactError):
    """The medium lacks a structural property the computation relies on."""
