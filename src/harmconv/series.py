"""Truncated Taylor-series arithmetic.

Coefficients live in plain numpy arrays indexed by power.  Mapping
coefficients come from closed-form expansions (geometric and logarithm
series, root-of-unity recurrences), never from numerical differentiation,
so the series route stays independent of the pointwise evaluators it is
used to check.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._core import finish, prepare
from .errors import ParameterError
from .mappings import MappingSpec


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a disk-analytic function."""
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ParameterError("coeffs must be a non-empty 1-d sequence")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _fa_coeffs(a, N):
    # h = (1+a)/2 * z/(1-z) + (1-a)/4 * log((1+z)/(1-z)); g flips the log sign
    h = np.zeros(N + 1, dtype=complex)
    g = np.zeros(N + 1, dtype=complex)
    for k in range(1, N + 1):
        base = (1 + a) / 2
        odd = (1 - a) / (2 * k) if k % 2 else 0.0
        h[k] = base + odd
        g[k] = base - odd
    return h, g


def _fn_coeffs(n, theta, N):
    # h' = 1/((1+u z^n)(1-z)^2)  =>  hp[m] = (m+1) - u*hp[m-n]; gp = u * shifted hp
    # u = e^{i theta} as -e^{-ie}, e = +-pi - theta exact near +-pi (as term_table)
    u = -cmath.exp(-1j * (math.copysign(math.pi, theta) - theta))
    hp = np.zeros(N, dtype=complex)
    gp = np.zeros(N, dtype=complex)
    for m in range(N):
        hp[m] = (m + 1) - (u * hp[m - n] if m >= n else 0)
        gp[m] = u * hp[m - n] if m >= n else 0
    h = np.zeros(N + 1, dtype=complex)
    g = np.zeros(N + 1, dtype=complex)
    h[1:] = hp / np.arange(1, N + 1)
    g[1:] = gp / np.arange(1, N + 1)
    return h, g


def taylor_of_mapping(spec: MappingSpec, N: int):
    """Taylor coefficients through order N of (h, g) for the given family."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    if spec.family == "F0":
        k = np.arange(N + 1, dtype=float)
        h = (k + 1) / 2
        g = -(k - 1) / 2
        h[0] = 0.0
        g[:2] = 0.0
        return TruncatedSeries(h), TruncatedSeries(g)
    if spec.family == "Fa":
        h, g = _fa_coeffs(spec.a, N)
        return TruncatedSeries(h), TruncatedSeries(g)
    n = 1 if spec.family == "F1" else spec.n
    h, g = _fn_coeffs(n, spec.theta, N)
    return TruncatedSeries(h), TruncatedSeries(g)


def hadamard(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise product; orders must agree."""
    if s.order != t.order:
        raise ParameterError(
            f"order mismatch: {s.order} vs {t.order}")
    return TruncatedSeries(s.coeffs * t.coeffs)


def series_eval(s: TruncatedSeries, z):
    """Evaluate the truncated polynomial at z (Horner)."""
    arr, scalar = prepare(z)
    return finish(np.polynomial.polynomial.polyval(arr, s.coeffs), scalar)


def series_derivative(s: TruncatedSeries) -> TruncatedSeries:
    if s.order == 0:
        return TruncatedSeries(np.zeros(1, dtype=complex))
    k = np.arange(1, s.order + 1)
    return TruncatedSeries(s.coeffs[1:] * k)


def series_div(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Formal quotient s/t truncated at s.order; t must have t_0 != 0."""
    if t.coeffs[0] == 0:
        raise ZeroDivisionError("series_div requires a unit constant term")
    N = s.order
    num = s.coeffs
    den = t.coeffs[: N + 1]
    q = np.zeros(N + 1, dtype=complex)
    q[0] = num[0] / den[0]
    for k in range(1, N + 1):
        m = min(k, len(den) - 1)
        acc = num[k] - np.dot(q[k - m:k], den[m:0:-1])
        q[k] = acc / den[0]
    return TruncatedSeries(q)


def shear_series(phi: TruncatedSeries, omega: TruncatedSeries):
    """Split phi = h + g given the dilatation series omega = g'/h'.

    h' = phi'/(1 + omega) and g' = phi' - h', both antidifferentiated with
    zero constant term, so h + g = phi holds coefficientwise by
    construction; g' = omega * h' holds to rounding.
    """
    if phi.coeffs[0] != 0:
        raise ParameterError("phi must vanish at 0")
    if omega.coeffs[0] == -1:
        raise ParameterError("shear degenerate: omega(0) = -1")
    if abs(omega.coeffs[0]) >= 1:
        raise ParameterError("shear requires |omega(0)| < 1")
    N = phi.order
    phip = series_derivative(phi)
    one_plus = np.zeros(N, dtype=complex)
    take = min(omega.order + 1, N)
    one_plus[:take] = omega.coeffs[:take]
    one_plus[0] += 1
    hp = series_div(phip, TruncatedSeries(one_plus))
    gp = TruncatedSeries(phip.coeffs - hp.coeffs)
    h = np.zeros(N + 1, dtype=complex)
    g = np.zeros(N + 1, dtype=complex)
    h[1:] = hp.coeffs / np.arange(1, N + 1)
    g[1:] = gp.coeffs / np.arange(1, N + 1)
    return TruncatedSeries(h), TruncatedSeries(g)
