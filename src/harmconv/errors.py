"""Exception types shared across the package."""


class HarmconvError(Exception):
    """Base class for all package errors."""


class ParameterError(HarmconvError, ValueError):
    """A constructor or operation received an out-of-range parameter."""


class DomainError(HarmconvError, ValueError):
    """An evaluation point lies outside a function's domain."""


class SingularityError(HarmconvError):
    """Evaluation was requested too close to a singular point.

    The offending singularity is stored on the ``singularity`` attribute.
    """

    def __init__(self, message, singularity=None):
        super().__init__(message)
        self.singularity = singularity


class CriticalPointError(HarmconvError):
    """The denominator of a dilatation vanished at the evaluation point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class CohnInapplicableError(HarmconvError):
    """Cohn's reduction step requires |a_0| < |a_d|; the input violates it."""


class BoundaryDegenerateError(HarmconvError):
    """A polynomial appears to have zeros on the unit circle; the disk
    zero count is undefined by the reduction scheme."""


class QuadratureError(HarmconvError):
    """Adaptive integration failed to reach its tolerance.  Nothing raises
    it now: every value has a closed form."""
