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
    """Coerce to a complex array; report whether the input was scalar."""
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def finish(arr, scalar):
    return complex(arr[()]) if scalar else arr


def check_a(a):
    """a as a float; ParameterError unless -1 < a < 1 (NaN fails too)."""
    if a is None or not -1 < a < 1:
        raise ParameterError(f"a must lie in (-1, 1), got {a!r}")
    return float(a)


def positive_int(value, name):
    """value as an int; ParameterError unless it is an int >= 1 (no bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def norm_theta(theta):
    """Reduce an angle to (-pi, pi]; ParameterError unless it is a finite
    number."""
    if theta is None or not math.isfinite(theta):
        raise ParameterError(f"theta must be a finite number, got {theta!r}")
    t = math.remainder(float(theta), 2 * math.pi)
    if t <= -math.pi:
        t = math.pi
    return t


def theta_is_pi(theta, tol=1e-12):
    return abs(abs(norm_theta(theta)) - math.pi) < tol
