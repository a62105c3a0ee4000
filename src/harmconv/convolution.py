"""Hadamard convolutions of the half-plane families.

The left factor is always the a-family, h_a = (1+a)/2 z/(1-z) + (1-a)/4 L
with L = log((1+z)/(1-z)) and g_a the same with L negated; the right
factor is F0, F1 or Fn, read from its term table (see ``mappings``).  The
convolved analytic parts are H and G, their derivatives Hp and Gp, and the
convolution's dilatation is Gp/Hp.

Convolving with z/(1-z) is the identity, and with L it integrates the odd
quotient (h(t) - h(-t))/t from 0 to z.  Both routes are closed forms in
the right factor's terms, with no quadrature and no small-|z| branch.
"""
from dataclasses import dataclass

import numpy as np

from ._core import (CRITICAL_TOL, MAX_RADIUS, check_a, finish, instance,
                    prepare)
from .errors import CriticalPointError, DomainError, ParameterError
from .mappings import MappingSpec, guard, make_mapping, term_table


@dataclass(frozen=True)
class ConvolutionSpec:
    """Pairing of the left a-family with a right factor mapping."""
    a: float
    right: MappingSpec

    def __post_init__(self):
        object.__setattr__(self, "a", check_a(self.a))
        if (not isinstance(self.right, MappingSpec)
                or self.right.family not in ("F0", "F1", "Fn")):
            raise ParameterError(
                f"right factor must be an F0, F1 or Fn MappingSpec, got {self.right!r}")


def conv_dilatation_f0(a, z):
    """Dilatation of the convolution with the canonical map F0.

    Equals -z p(z)/p*(z) with p(z) = z^2 + (1+3a)/2 z + (1+a)/2 and p* its
    reciprocal conjugate; p* is zero-free on the closed disk, so the
    expression is analytic there.
    """
    check_a(a)
    arr, scalar = prepare(z)
    guard(arr, ())
    b1 = (1 + 3 * a) / 2
    b0 = (1 + a) / 2
    p = arr * arr + b1 * arr + b0
    pstar = 1 + b1 * arr + b0 * arr * arr
    return finish(-arr * p / pstar, scalar)


def _values(a, t, z):
    """(H, G) at the 1-d points z for the right factor's table t."""
    h, g = t.parts(z)
    ih, ig = t.odd_integrals(z)
    return (1 + a) / 2 * h + (1 - a) / 4 * ih, (1 + a) / 2 * g - (1 - a) / 4 * ig


def _odd_guard(t, arr):
    # the odd quotient is singular at the singular points and their negatives
    guard(arr, np.concatenate((t.sing, -t.sing)))


def conv_parts_f1(a, theta, z):
    """Values (H, G) of the convolved analytic parts for a right F1
    factor, by the closed forms of ``conv_value``."""
    a = check_a(a)
    t = term_table(make_mapping("F1", theta=theta))
    arr, scalar = prepare(z)
    _odd_guard(t, arr)
    H, G = _values(a, t, arr.reshape(-1))
    return finish(H.reshape(arr.shape), scalar), finish(G.reshape(arr.shape), scalar)


def conv_derivatives(spec: ConvolutionSpec, z):
    """Derivatives (Hp, Gp) of the convolved analytic parts.

    Hp = (1-a)/4 D_h + (1+a)/2 h_r' and Gp = -(1-a)/4 D_g + (1+a)/2 g_r',
    with the odd quotients D_h = (h_r(z) - h_r(-z))/z and D_g the same
    for g_r, summed from the right factor's terms.  z = 0 gives (1, 0).
    """
    arr, scalar = prepare(z)
    t = term_table(instance(spec, ConvolutionSpec, "spec").right)
    _odd_guard(t, arr)
    Hp, Gp = _derivatives(spec.a, t, arr)
    return finish(Hp, scalar), finish(Gp, scalar)


def _derivatives(a, t, z, g=1):
    """(Hp, Gp) at the points z for the right factor's table t, unguarded;
    g > 1 only for a ring of nodes (see ``TermTable.odd_rests``)."""
    hp, gp = t.primes(z)
    rh, rg = t.odd_rests(z, g)  # D_h = 2 + z^2 rh, D_g = 2(s-1) + z^2 rg
    Hp = (1 - a) / 4 * (2 + z * z * rh) + (1 + a) / 2 * hp
    Gp = -(1 - a) / 4 * (2 * (t.s - 1) + z * z * rg) + (1 + a) / 2 * gp
    return Hp, Gp


def _ratio(Hp, Gp):
    """Gp/Hp, inf where |Hp| <= CRITICAL_TOL: there Hp counts as zero, a
    critical point, where the dilatation is undefined."""
    crit = np.abs(Hp) <= CRITICAL_TOL
    return np.divide(Gp, Hp, out=np.full_like(Hp, np.inf), where=~crit)


def _log_jets(a, t, z):
    """(omega, L1, L2) at the 1-d points z != 0, unguarded: omega = Gp/Hp,
    L1 = omega'/omega and L2 = (log omega)''.  One ``odd_rests`` call gives
    the odd quotient D, and D' = (f'(z) + f'(-z) - D)/z and D'' = (f''(z) -
    f''(-z) - 2D')/z, with f', f'' and f''' rational (``TermTable.jets``),
    need no further logarithm; each /z costs about eps/|z| of D's scale."""
    rh, rg = t.odd_rests(z)
    hj, gj = t.jets(np.stack((z, -z)))

    def part(sign, D, f1, f2, f3):
        # (F, F', F'') for F = sign (1-a)/4 D + (1+a)/2 f', each f at (z, -z)
        D1 = (f1[0] + f1[1] - D) / z
        D2 = (f2[0] - f2[1] - 2 * D1) / z
        return [sign * (1 - a) / 4 * d + (1 + a) / 2 * f[0]
                for d, f in zip((D, D1, D2), (f1, f2, f3))]

    H = part(1, 2 + z * z * rh, *hj)
    G = part(-1, 2 * (t.s - 1) + z * z * rg, *gj)
    lh, lg = H[1] / H[0], G[1] / G[0]
    return (_ratio(H[0], G[0]), lg - lh,
            G[2] / G[0] - lg * lg - H[2] / H[0] + lh * lh)


def conv_dilatation(spec: ConvolutionSpec, z):
    """The convolution's dilatation Gp/Hp; CriticalPointError at the first
    point where |Hp| <= CRITICAL_TOL (``_ratio``).

    For Fn its accuracy is absolute, not relative, where |Gp/Hp| is tiny
    (small |z|, large n): Gp sums terms of order one that cancel to about
    |z|^n, so its rounding error is about 1e-16 whatever its size.  At n = 40
    and |z| = 0.3, |Gp/Hp| = 4.3e-22 comes out 7.5e5 relative off.  Scans
    and radii only compare |Gp/Hp| with 1, so they are unaffected.
    """
    arr, scalar = prepare(z)
    t = term_table(instance(spec, ConvolutionSpec, "spec").right)
    _odd_guard(t, arr)
    w = _ratio(*_derivatives(spec.a, t, arr))
    if np.isinf(w).any():
        where = complex(arr[np.isinf(w)][0])
        raise CriticalPointError(f"vanishing derivative at z = {where:.6f}",
                                 point=where)
    return finish(w, scalar)


def conv_value(spec: ConvolutionSpec, z):
    """Value of the convolved harmonic mapping, H(z) + conj(G(z)).

    Closed forms for every right factor: H = (1+a)/2 h_r + (1-a)/4 I_h and
    G = (1+a)/2 g_r - (1-a)/4 I_g, where I_h and I_g integrate the odd
    quotients from 0 to z; a log term integrates to a dilogarithm pair.
    """
    arr, scalar = prepare(z)
    if not np.all(np.abs(arr) <= MAX_RADIUS):
        raise DomainError(f"conv_value requires |z| <= {MAX_RADIUS}")
    t = term_table(instance(spec, ConvolutionSpec, "spec").right)
    H, G = _values(spec.a, t, arr.reshape(-1))
    return finish((H + np.conj(G)).reshape(arr.shape), scalar)
