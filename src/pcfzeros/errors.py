"""Exception and warning types shared across the package."""


class PcfZerosError(Exception):
    """Base class for errors raised by this package."""


class RegionError(PcfZerosError):
    """Requested point lies outside the supported evaluation region."""


class TurningPointError(PcfZerosError):
    """Coefficient A(z) vanishes; displacement/iteration undefined."""


class StepFailureError(PcfZerosError):
    """A Taylor step could not meet the tail tolerance after subdivision."""


class ConvergenceError(PcfZerosError):
    """A fixed-point or Newton iteration failed to converge."""


class HermiteParameterError(PcfZerosError):
    """Parameter a is (numerically) a Hermite case a = -k + 1/2, k >= 1."""


class TruncationWarning(UserWarning):
    """An asymptotic sum was truncated before reaching the target tolerance."""
