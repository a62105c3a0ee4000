"""The dilogarithm Li2 on the closed unit disk, Legendre's chi_2, which
the convolved values take once per root and point, and the complex
logarithm that every closed form in harmconv takes.

chi_2(x) = sum_{k>=0} x^(2k+1)/(2k+1)^2 = (Li2(x) - Li2(-x))/2 (Lewin,
Polylogarithms and Associated Functions, 1981) is one series in tau = 2
atanh x, or, past |tau| = |log x|, in log x by Landen's identity: one
evaluation where the dilogarithm pair took two series, two logs and a
reflection.  Both series, li2's in Bernoulli numbers and chi_2's in the
coefficients of sigma/sinh sigma, take their coefficients from one float
recurrence and are summed by one Horner loop, ``_horner``.

All accept scalars or numpy arrays and are safe to call concurrently; they
hold no mutable state.
"""
import math

import numpy as np

from ._core import prepare, finish
from .errors import DomainError

PI2_6 = math.pi ** 2 / 6

# chi_2's series variable never exceeds pi/2 (at x = +-i) and the series
# converges for |tau| < pi, so term k is below 4^-k: 26 terms reach eps
_CHI_SERIES_TERMS = 26


def _sigma_over_sinh(count):
    # a_k/(2(2k+1)) for k < count, a_k the coefficients of sigma/sinh sigma
    # in sigma^2k, -(2^2k - 2) B_2k/(2k)!: from (sigma/sinh sigma)(sinh sigma
    # /sigma) = 1, a_k = -sum_j a_(k-j)/(2j+1)!, in floats: within 2.8e-15
    # of the exact rationals, which in Fractions took 1.3 ms to import
    inv = [1 / math.factorial(2 * j + 1) for j in range(count)]
    a = [1.0]
    for k in range(1, count):
        a.append(-math.fsum(a[k - j] * inv[j] for j in range(1, k + 1)))
    return np.array([a[k] / (4 * k + 2) for k in range(count)])


_CHI_SERIES = _sigma_over_sinh(_CHI_SERIES_TERMS)

# |u| <= pi/3 where li2's series runs, so term k is below 6^-2k |u|: the
# tail past 12 terms is below 1e-20 |u|
_LOG_SERIES_TERMS = 12
# B_2k/(2k+1)! for k = 1..12, -2 _CHI_SERIES[k]/(4^k - 2): within 1.4e-15
# of the exact rationals
_B_EVEN = np.array([-2 * _CHI_SERIES[k] / (4 ** k - 2)
                    for k in range(1, _LOG_SERIES_TERMS + 1)])
# |x|^2 is floored here before its log, which then only the series route
# sees: below it |tau| ~ 2|x| is far under |log x|.  At x = 0 log 0 = -inf
# would warn, and the unused Landen value would be -inf * 0
_TINY = np.finfo(float).tiny


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


def _horner(c, x):
    """sum_k c[k] x^k by Horner's rule, for two coefficients or more.  Each
    product goes into a new array: numpy rounds a complex product written
    over its own operand otherwise on one element than on many.  Callers
    name the result before multiplying by it, for the same reason: past
    16,384 elements numpy writes a product over an unnamed operand."""
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = acc * x
        acc += ck
    return acc


def li2(z):
    """Dilogarithm sum_{k>=1} z^k/k^2 on the closed unit disk.

    Arguments with |z| in (1, 1+1e-12] are clamped to the circle; anything
    farther out, or NaN, raises DomainError.  Absolute and relative error
    stay below 1e-15 everywhere on the closed disk, subnormal z included.
    """
    arr, scalar = prepare(z)
    w = np.atleast_1d(arr).astype(complex)  # a copy: w is scaled in place
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
    acc = _horner(_B_EVEN, s)  # B_odd = 0 past B_1 = -1/2
    t = u * acc - 0.25  # named, as _horner asks
    out = u + s * t

    # reflection Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z), with log z = -u
    # and log(1-z) = _log(x): |x| is often near 1, where np.log is slow
    one = w == 1
    refl = ~left & ~one
    out[refl] = PI2_6 + u[refl] * _log(x[refl]) - out[refl]
    out[one] = PI2_6
    return finish(out.reshape(arr.shape), scalar)


def _chi2(x):
    """Legendre's chi_2(x) = (Li2(x) - Li2(-x))/2 at the complex points x,
    of any shape, on the closed unit disk but +-1, unchecked, for
    ``TermTable.odd_integrals``.  x is folded onto Re x >= 0, so chi_2(-x)
    is -chi_2(x) bit for bit, signed zeros included.  With tau = 2 atanh x,

        chi_2(x) = (tau/2) sum_k a_k tau^2k/(2k+1)

    from chi_2'(x) = atanh(x)/x, a_k the coefficients of sigma/sinh sigma,
    where |tau| <= |log x|, and elsewhere Landen's identity

        chi_2(x) = pi^2/8 + log(x) tau/2 - chi_2((1-x)/(1+x)),

    whose last term is the same series in -log x, the tau of (1-x)/(1+x).
    Either series variable is at most pi/2.  tau is taken in real
    arithmetic, log1p for its real part and arctan2 for its angle: the log
    of (1+x)/(1-x) loses the quotient's rounding, 5e-9 relative at x =
    1e-8.  Real x gives a real result."""
    x = np.asarray(x, complex)
    sign = np.copysign(1.0, x.real)
    a, b = np.abs(x.real), x.imag * sign  # x folded onto Re x >= 0
    tau = np.empty(x.shape, complex)
    tau.real = 0.5 * np.log1p(4 * a / ((1 - a) ** 2 + b * b))
    tau.imag = np.arctan2(2 * b, (1 - a) * (1 + a) - b * b)
    log = np.empty(x.shape, complex)  # log x, its modulus without a hypot
    log.real = 0.5 * np.log(np.maximum(a * a + b * b, _TINY))
    log.imag = np.arctan2(b, a)
    near = (tau.real ** 2 + tau.imag ** 2 <= log.real ** 2 + log.imag ** 2)
    s = np.where(near, tau, log)  # chi_2 is odd: log x stands for -log x
    out = np.where(near, 0, math.pi ** 2 / 8 + 0.5 * log * tau)  # + series
    acc = _horner(_CHI_SERIES, s * s)
    out += s * acc
    out.real *= sign
    out.imag *= sign
    return out
