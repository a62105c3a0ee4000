"""The dilogarithm Li2 on the closed unit disk, and the complex logarithm
that every closed form in harmconv takes.

Both accept scalars or numpy arrays and are safe to call concurrently; they
hold no mutable state.
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


def _log(w):
    """Principal log w as log|w| + i arg w; real for real w.  numpy's complex
    log calls glibc clog, which for |w| in about [0.7, 1.5] takes a slow path
    exact to the last bit: there these two real ufuncs are 12-15x faster on
    a thousand points and more, and 4-5x elsewhere.  The callers' w already
    carries an ulp of rounding, so log w has about eps of absolute error
    either way.  np.abs is a hypot, so nothing overflows, and arctan2 keeps
    the sign of a zero imaginary part, so the branch cut is np.log's."""
    if not np.iscomplexobj(w):
        return np.log(w)
    out = np.empty(np.shape(w), complex)
    out.real = np.log(np.abs(w))
    out.imag = np.arctan2(w.imag, w.real)
    return out


def li2(z):
    """Dilogarithm sum_{k>=1} z^k/k^2 on the closed unit disk.

    Arguments with |z| in (1, 1+1e-12] are clamped to the circle; anything
    farther out, or NaN, raises DomainError.  Absolute and relative error
    stay below 1e-15 everywhere on the closed disk, subnormal z included.
    The points are checked here, once; ``_li2`` evaluates them.
    """
    arr, scalar = prepare(z)
    w = np.atleast_1d(arr).astype(complex)  # a copy: w is scaled in place
    r = np.abs(w)
    if not np.all(r <= 1 + 1e-12):  # NaN fails too
        raise DomainError("li2 is only evaluated on the closed unit disk")
    over = r > 1
    if np.any(over):
        w[over] /= r[over]
    return finish(_li2(w).reshape(arr.shape), scalar)


def _li2(w):
    """``li2`` at the complex points w, of any shape, on the closed unit
    disk, unchecked: a point outside it, or NaN, gives a wrong number
    rather than an error.  w is not written to."""
    # Li2(x) = sum_j B_j u^(j+1)/(j+1)! in u = -log(1-x), converging for
    # |u| < 2pi; Re x <= 1/2 keeps |u| <= pi/3.  Re z > 1/2 takes x = 1-z.
    left = w.real <= 0.5
    x = np.where(left, w, 1 - w)
    a, b = x.real, x.imag
    # log|1-x| and arg(1-x) without cancellation as x -> 0
    u = -(0.5 * np.log1p(a * (a - 2) + b * b) + 1j * np.arctan2(-b, 1 - a))
    s = u * u
    acc = np.full_like(s, _B_EVEN[-1])
    for c in _B_EVEN[-2::-1]:  # B_odd = 0 past B_1 = -1/2
        acc *= s
        acc += c
    out = u + s * (u * acc - 0.25)

    # reflection Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z), with log z = -u
    # and log(1-z) = _log(x): |x| is often near 1, where np.log is slow
    one = w == 1
    refl = ~left & ~one
    out[refl] = PI2_6 + u[refl] * _log(x[refl]) - out[refl]
    out[one] = PI2_6
    return out
