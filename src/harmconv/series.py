"""Truncated Taylor-series arithmetic.

Coefficients live in plain numpy arrays indexed by power.  Mapping
coefficients come from the shear construction alone (Clunie and
Sheil-Small): h + g = s z/(1-z) and g' = omega h', solved by formal
division.  No term table, logarithm or dilogarithm enters, so the series
route stays independent of the pointwise evaluators it is used to check.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._core import coefficients, finish, instance, positive_int, prepare
from .errors import ParameterError
from .mappings import MappingSpec


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a disk-analytic function."""
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", coefficients(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def taylor_of_mapping(spec: MappingSpec, N: int):
    """Taylor coefficients through order N of (h, g) for the given family.

    Each family is the shear of s z/(1-z) along its dilatation omega:
    s = 1 + a and omega = (z+a)/(1+az) for Fa, s = 1 and omega = e^{i theta}
    z^n for Fn, with F1 = Fn(1, theta) and F0 = Fn(1, pi).
    """
    instance(spec, MappingSpec, "spec")
    N = positive_int(N, "N")
    omega = np.zeros(N + 1, dtype=complex)
    if spec.family == "Fa":
        a, s = spec.a, 1 + spec.a
        omega[0] = a
        omega[1:] = (1 - a * a) * (-a) ** np.arange(N)
    else:
        n, s = spec.n or 1, 1
        theta = math.pi if spec.family == "F0" else spec.theta
        # e^{i theta} as -e^{-ie}, e = +-pi - theta exact near +-pi
        if n <= N:
            omega[n] = -cmath.exp(-1j * (math.copysign(math.pi, theta) - theta))
    phi = np.full(N + 1, s, dtype=complex)
    phi[0] = 0
    return shear_series(TruncatedSeries(phi), TruncatedSeries(omega))


def hadamard(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise product; orders must agree."""
    instance(s, TruncatedSeries, "s")
    instance(t, TruncatedSeries, "t")
    if s.order != t.order:
        raise ParameterError(
            f"order mismatch: {s.order} vs {t.order}")
    return TruncatedSeries(s.coeffs * t.coeffs)


def series_eval(s: TruncatedSeries, z):
    """Evaluate the truncated polynomial at z (Horner)."""
    instance(s, TruncatedSeries, "s")
    arr, scalar = prepare(z)
    return finish(np.polynomial.polynomial.polyval(arr, s.coeffs), scalar)


def series_derivative(s: TruncatedSeries) -> TruncatedSeries:
    if instance(s, TruncatedSeries, "s").order == 0:
        return TruncatedSeries(np.zeros(1, dtype=complex))
    k = np.arange(1, s.order + 1)
    return TruncatedSeries(s.coeffs[1:] * k)


def series_div(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Formal quotient s/t truncated at s.order; t must have t_0 != 0."""
    instance(s, TruncatedSeries, "s")
    instance(t, TruncatedSeries, "t")
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
    instance(phi, TruncatedSeries, "phi")
    instance(omega, TruncatedSeries, "omega")
    if phi.coeffs[0] != 0:
        raise ParameterError("phi must vanish at 0")
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
