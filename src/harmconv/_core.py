"""Small shared helpers: scalar/array plumbing, parameter checks and angle
normalization."""
import math
import numbers

import numpy as np

from .errors import ParameterError

# evaluators refuse points closer than this to a singularity
SINGULARITY_GUARD = 1e-9
# a convolution derivative Hp this small counts as a critical point
CRITICAL_TOL = 1e-14


def prepare(z):
    """Coerce numbers to a complex array; report whether it was scalar."""
    arr = np.asarray(z)
    if arr.dtype.kind not in "iufc":
        raise ParameterError(f"points must be numbers, got dtype {arr.dtype}")
    return arr.astype(complex, copy=False), arr.ndim == 0


def finish(arr, scalar):
    return complex(arr[()]) if scalar else arr


def real(value, name):
    """value as a float; ParameterError unless it is a real number (no bool:
    a flag passed for a number is a mistake, not 0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return float(value)


def instance(value, cls, name):
    """value; ParameterError unless it is a cls (a spec passed for another
    would otherwise end in a bare AttributeError)."""
    if not isinstance(value, cls):
        raise ParameterError(
            f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def check_a(a):
    """a as a float; ParameterError unless -1 < a < 1 (NaN fails too)."""
    x = real(a, "a")
    if not -1 < x < 1:
        raise ParameterError(f"a must lie in (-1, 1), got {a!r}")
    return x


def positive_int(value, name):
    """value as an int; ParameterError unless it is an int >= 1 (no bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def norm_theta(theta):
    """Reduce an angle to (-pi, pi]; ParameterError unless it is a finite
    number."""
    t = real(theta, "theta")
    if not math.isfinite(t):
        raise ParameterError(f"theta must be a finite number, got {theta!r}")
    t = math.remainder(t, 2 * math.pi)
    if t <= -math.pi:
        t = math.pi
    return t
