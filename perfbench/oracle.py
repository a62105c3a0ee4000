"""Reference values for the convolved half-plane mappings, computed without
harmconv.

Every right factor the benchmark uses (F0, F1, Fn) is a shear of
z/(1-z) with dilatation w(z) = u z^n, so it is fixed by the pair (u, n):

    h'(z) = 1 / ((1 + u z^n) (1 - z)^2),    g'(z) = u z^n h'(z).

F0 is (u, n) = (-1, 1), F1 at angle theta is (e^{i theta}, 1) and Fn is
(e^{i theta}, n).  theta is used as the exact double it arrives as, so
e^{i pi} is -1 + 1.22e-16 i here.  The left factor is the a-family, whose
Taylor coefficients are (1+a)/2 +/- (1-a)/(2k) on odd k and (1+a)/2 on even
k.  Two routes follow from that alone:

* derivatives (Hp, Gp) by mpmath quadrature of
      Hp = (1-a)/4 int_{-1}^{1} h'(tz) dt + (1+a)/2 h'(z)
      Gp = -(1-a)/4 int_{-1}^{1} g'(tz) dt + (1+a)/2 g'(z),
  valid anywhere in the open disk, about 20-60 ms a point;
* values H + conj(G) by the Taylor recurrence h'_m = (m+1) - u h'_{m-n}
  times the a-family coefficients, 6000 terms, for |z| <= 0.99.
"""
import cmath
import math

import numpy as np

DPS = 20
VALUE_TERMS = 6000
VALUE_MAX_RADIUS = 0.99
PROBE_RADIUS = 0.99  # the tables' probe radius


def shear_pair(family, theta=None, n=None):
    """(u, n) of the right factor's dilatation u z^n."""
    if family == "F0":
        return -1.0 + 0j, 1
    if family == "F1":
        return cmath.exp(1j * theta), 1
    if family == "Fn":
        return cmath.exp(1j * theta), int(n)
    raise ValueError(f"no shear pair for family {family!r}")


def derivatives(a, u, n, z):
    """(Hp, Gp) at z as Python complex numbers, by mpmath quadrature."""
    import mpmath as mp

    with mp.workdps(DPS):
        uu, zz, aa = mp.mpc(u), mp.mpc(z), mp.mpf(a)

        def hp(w):
            return 1 / ((1 + uu * w ** n) * (1 - w) ** 2)

        def gp(w):
            return uu * w ** n * hp(w)

        ih = mp.quad(lambda t: hp(t * zz), [-1, 0, 1])
        ig = mp.quad(lambda t: gp(t * zz), [-1, 0, 1])
        big_h = (1 - aa) / 4 * ih + (1 + aa) / 2 * hp(zz)
        big_g = -(1 - aa) / 4 * ig + (1 + aa) / 2 * gp(zz)
        return complex(big_h), complex(big_g)


def dilatation_modulus(a, u, n, z):
    """|Gp/Hp| at z."""
    big_h, big_g = derivatives(a, u, n, z)
    return abs(big_g / big_h)


def _right_coeffs(u, n, terms):
    # Taylor coefficients 0..terms of h and g: h_k = h'_{k-1}/k
    hp = np.zeros(terms, dtype=complex)
    m = np.arange(terms)
    hp[:n] = m[:n] + 1
    for lo in range(n, terms, n):
        hi = min(lo + n, terms)
        hp[lo:hi] = (m[lo:hi] + 1) - u * hp[lo - n:hi - n]
    gp = np.zeros(terms, dtype=complex)
    gp[n:] = u * hp[:-n]
    k = np.arange(1, terms + 1)
    h = np.concatenate(([0], hp / k))
    g = np.concatenate(([0], gp / k))
    return h, g


def values(a, u, n, z):
    """H(z) + conj(G(z)) at an array of points with |z| <= 0.99."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > VALUE_MAX_RADIUS + 1e-12):
        raise ValueError("the value series is only used for |z| <= 0.99")
    h, g = _right_coeffs(u, n, VALUE_TERMS)
    k = np.arange(VALUE_TERMS + 1)
    odd = (k % 2 == 1) * (1 - a) / (2 * np.maximum(k, 1))
    big_h = np.polynomial.polynomial.polyval(z, ((1 + a) / 2 + odd) * h)
    big_g = np.polynomial.polynomial.polyval(z, ((1 + a) / 2 - odd) * g)
    return big_h + np.conj(big_g)


def probe_point(num, den):
    """The table probe 0.99 e^{i pi num/den}, formed as the tables do."""
    ang = math.pi * num / den
    return PROBE_RADIUS * complex(math.cos(ang), math.sin(ang))
