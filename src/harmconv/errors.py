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
    """A Schur-Cohn step met end coefficients of equal modulus, and the
    circles |z| = 1 -+ 1e-6 did not settle the count: they count different
    zeros, as about a zero on the unit circle, or tie again."""


class QuadratureError(HarmconvError):
    """Adaptive integration failed to reach its tolerance.  Nothing raises
    it now, as every value has a closed form; it stays in ``__all__`` so
    that code which imports or catches it keeps working."""
