"""Small shared helpers: scalar/array plumbing, the block rule of every
points x terms kernel, parameter checks and angle normalization."""
import math
import numbers

import numpy as np

from .errors import ParameterError

# evaluators refuse points closer than this to a singularity
SINGULARITY_GUARD = 1e-9
# a convolution derivative Hp this small counts as a critical point
CRITICAL_TOL = 1e-14
MAX_RADIUS = 0.999  # the outermost radius of scan grids, figures, conv_value
RADIUS_SLACK = 1e-12  # r e^{it} at r = MAX_RADIUS can round an ulp past it
# the most elements of one kernel call in ``blocks``.  From 256 KiB (16,384
# complex elements) up numpy reuses temporaries in place, and c * x for a
# complex scalar c then runs as x * c, which rounds the last bit otherwise:
# under the bound a block of rings gives the ring-by-ring bits.  8,192-node
# ring blocks ran as fast as 15,840-node ones, at a third of the peak.
_BLOCK = 2 ** 13


def prepare(z, name="points"):
    """Coerce numbers to a complex array; report whether it was scalar."""
    arr = np.asarray(z)
    if arr.dtype.kind not in "iufc":
        raise ParameterError(f"{name} must be numbers, got dtype {arr.dtype}")
    return arr.astype(complex, copy=False), arr.ndim == 0


def blocks(f, z, per_row):
    """f applied to z's rows (its first axis), per_row elements a row, in
    blocks of whole rows of at most _BLOCK elements (a longer row goes
    alone), and the results concatenated.  An empty z takes one call."""
    rows = max(1, _BLOCK // per_row)
    return np.concatenate([f(z[i:i + rows])
                           for i in range(0, max(1, len(z)), rows)])


def coefficients(c):
    """c as a complex array; ParameterError unless 1-d, non-empty, finite."""
    arr = prepare(c, "coefficients")[0]
    if arr.ndim != 1 or len(arr) == 0 or not np.isfinite(arr).all():
        raise ParameterError("coefficients must be finite, 1-d and non-empty")
    return arr


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
