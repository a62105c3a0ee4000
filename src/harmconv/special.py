"""Complex elementary and special functions: the principal logarithm and the
dilogarithm Li2 on the closed unit disk.

Both functions accept scalars or numpy arrays and are safe to call
concurrently; they hold no mutable state.
"""
import math
from fractions import Fraction

import numpy as np

from ._core import prepare, finish
from .errors import DomainError

PI2_6 = math.pi ** 2 / 6

# |u| <= pi/3 where the series runs, so term k is below 6^-2k |u|: the tail
# past 12 terms is below 1e-20 |u|
_LOG_SERIES_TERMS = 12


def _even_bernoulli_over_factorial(count):
    # B_2k/(2k+1)! for k = 1..count; exact rationals, then floats
    bern = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        s = sum(Fraction(math.comb(m + 1, j)) * bern[j] for j in range(m))
        bern.append(-s / (m + 1))
    return np.array([float(bern[2 * k] / math.factorial(2 * k + 1))
                     for k in range(1, count + 1)])


_B_EVEN = _even_bernoulli_over_factorial(_LOG_SERIES_TERMS)


def log_principal(z):
    """Principal-branch logarithm, arg in (-pi, pi].

    Raises DomainError at z = 0 and at a non-finite z.
    """
    arr, scalar = prepare(z)
    if np.any(arr == 0) or not np.all(np.isfinite(arr)):
        raise DomainError("log_principal needs a finite nonzero z")
    return finish(np.log(arr), scalar)


def li2(z):
    """Dilogarithm sum_{k>=1} z^k/k^2 on the closed unit disk.

    Arguments with |z| in (1, 1+1e-12] are clamped to the circle; anything
    farther out, or NaN, raises DomainError.  Absolute and relative error
    stay below 1e-15 everywhere on the closed disk, subnormal z included.
    """
    arr, scalar = prepare(z)
    w = np.atleast_1d(arr).astype(complex).copy()
    r = np.abs(w)
    if not np.all(r <= 1 + 1e-12):  # NaN fails too
        raise DomainError("li2 is only evaluated on the closed unit disk")
    over = r > 1
    if np.any(over):
        w[over] /= r[over]

    # Li2(x) = sum_j B_j u^(j+1)/(j+1)! in u = -log(1-x), converging for
    # |u| < 2pi; Re x <= 1/2 keeps |u| <= pi/3.  Re z > 1/2 takes x = 1-z.
    left = w.real <= 0.5
    x = np.where(left, w, 1 - w)
    a, b = x.real, x.imag
    # log|1-x| and arg(1-x) without cancellation as x -> 0
    u = -(0.5 * np.log1p(a * (a - 2) + b * b) + 1j * np.arctan2(-b, 1 - a))
    s = u * u
    acc = np.zeros_like(s)
    for c in _B_EVEN[::-1]:  # B_odd = 0 past B_1 = -1/2
        acc = acc * s + c
    out = u + s * (u * acc - 0.25)

    # reflection Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z), with log z = -u
    one = w == 1
    refl = ~left & ~one
    out[refl] = PI2_6 + u[refl] * np.log(x[refl]) - out[refl]
    out[one] = PI2_6
    return finish(out.reshape(arr.shape), scalar)
