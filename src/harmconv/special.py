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

_SERIES_TERMS = 64       # |z| <= 0.5: term k is |z|^k/k^2, tail < 1e-20
_LOG_SERIES_TERMS = 40   # |u| <= 1.32 in the regions routed here; ratio ~ |u|/2pi


def _bernoulli_over_factorial(count):
    # b_j = B_j/(j+1)! with the B_1 = -1/2 convention; exact rationals, then floats
    bern = [Fraction(1)]
    for k in range(1, count):
        s = sum(Fraction(math.comb(k + 1, j)) * bern[j] for j in range(k))
        bern.append(-s / (k + 1))
    return np.array([float(b / math.factorial(j + 1)) for j, b in enumerate(bern)])


_B_OVER_FACT = _bernoulli_over_factorial(_LOG_SERIES_TERMS)


def log_principal(z):
    """Principal-branch logarithm, arg in (-pi, pi].

    Raises DomainError at z = 0 and at a non-finite z.
    """
    arr, scalar = prepare(z)
    if np.any(arr == 0) or not np.all(np.isfinite(arr)):
        raise DomainError("log_principal needs a finite nonzero z")
    return finish(np.log(arr), scalar)


def _li2_series(w):
    # direct defining series, Horner form; only called with |w| <= 0.5
    out = np.zeros_like(w)
    for k in range(_SERIES_TERMS, 0, -1):
        out = out * w + 1.0 / (k * k)
    return out * w


def _li2_log_series(u):
    # Li2 as a series in u = -log(1-z)
    out = np.zeros_like(u)
    for b in _B_OVER_FACT[::-1]:
        out = out * u + b
    return out * u


def li2(z):
    """Dilogarithm sum_{k>=1} z^k/k^2 on the closed unit disk.

    Arguments with |z| in (1, 1+1e-12] are clamped to the circle; anything
    farther out, or NaN, raises DomainError.  Absolute error stays below
    ~1e-14 everywhere on the closed disk.
    """
    arr, scalar = prepare(z)
    w = np.atleast_1d(arr).astype(complex).copy()
    r = np.abs(w)
    if not np.all(r <= 1 + 1e-12):  # NaN fails too
        raise DomainError("li2 is only evaluated on the closed unit disk")
    over = r > 1
    if np.any(over):
        w[over] /= r[over]

    out = np.empty_like(w)
    left = w.real <= 0.5
    direct = left & (np.abs(w) <= 0.5)
    out[direct] = _li2_series(w[direct])
    pulled = left & ~direct
    out[pulled] = _li2_log_series(-np.log(1 - w[pulled]))

    # Re z > 0.5: reflect through 1-z; the inner argument lands back on the left
    refl = ~left
    if np.any(refl):
        zz = w[refl]
        res = np.empty_like(zz)
        at_one = zz == 1
        res[at_one] = PI2_6
        zz2 = zz[~at_one]
        inner = np.empty_like(zz2)
        v = 1 - zz2
        small = np.abs(v) <= 0.5
        inner[small] = _li2_series(v[small])
        inner[~small] = _li2_log_series(-np.log(zz2[~small]))
        res[~at_one] = PI2_6 - np.log(zz2) * np.log(v) - inner
        out[refl] = res

    return finish(out.reshape(arr.shape), scalar)
