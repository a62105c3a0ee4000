"""Hadamard convolutions of the half-plane families.

The left factor is always the a-family, h_a = (1+a)/2 z/(1-z) + (1-a)/4 L
with L = log((1+z)/(1-z)) and g_a the same with L negated; the right
factor is F0, F1 or Fn, read from its term table (see ``mappings``).  The
convolved analytic parts are H and G, their derivatives Hp and Gp, and the
convolution's dilatation is Gp/Hp.

Convolving with z/(1-z) is the identity, and with L it integrates the odd
quotient (h(t) - h(-t))/t from 0 to z.  Both routes are closed forms in
the right factor's terms, with no quadrature and no small-|z| branch, and
``_left`` alone combines them, for values, derivatives and jets alike.

The quotient is even, so its integral is odd, bit for bit
(``TermTable.odd_integrals``).  On points that come in antipodal pairs
(z, -z), as render's rings of even size and fans of an even number of
rays do, ``_image`` takes the integrals once per pair; nothing checks that
the caller's pairs are exact.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._core import (CRITICAL_TOL, MAX_RADIUS, RADIUS_SLACK, blocks, check_a,
                    finish, instance, prepare)
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


def _left(a, f, D):
    """(H, G) = ((1+a)/2 f_h + (1-a)/4 D_h, (1+a)/2 f_g - (1-a)/4 D_g): the
    left factor's rule, written only here, for values or any derivative."""
    (fh, fg), (dh, dg) = f, D
    return (1 + a) / 2 * fh + (1 - a) / 4 * dh, (1 + a) / 2 * fg - (1 - a) / 4 * dg


def _image(a, t, z, pairs=False):
    """H + conj(G) at the 1-d points z, or the pairs below, for the right
    factor's table t, unchecked, for ``conv_value`` and render:
    ``_core.blocks`` of len(t.r) + 2 elements a point, the rows of
    ``TermTable.odd_integrals``.

    If pairs, z has shape (N, 2) and each row must be an antipodal pair
    (z_k, -z_k), exactly: nothing checks it.  The odd integrals are odd bit
    for bit, so they are taken on the first column only and negated for
    the second; the parts h and g, which are not odd, take both.  A pair
    counts as two points against the block's budget, so each block holds
    as many points as in the plain layout."""
    def image(y):
        if pairs:
            I = [np.stack((i, -i), -1).ravel() for i in t.odd_integrals(y[:, 0])]
        else:
            I = t.odd_integrals(y)
        H, G = _left(a, t.parts(y.ravel()), I)
        return (H + np.conj(G)).reshape(y.shape)
    return blocks(image, z, (2 if pairs else 1) * (len(t.r) + 2))


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
    H, G = _left(a, t.parts(arr), t.odd_integrals(arr))
    return finish(H, scalar), finish(G, scalar)


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


def _derivatives(a, t, z, g=None):
    """(Hp, Gp) at the points z for the right factor's table t, unguarded;
    g is None but for rings on z's last axis (see ``TermTable.odd_rests``).
    The odd quotient D is even, so on rings with even K, whose node k + K/2
    must be exactly -node k, D is taken on the first K/2 nodes and
    broadcast over both halves of h' and g', which are not even."""
    half = g is not None and np.shape(z)[-1] % 2 == 0
    y = z[..., :np.shape(z)[-1] // 2] if half else z
    rh, rg = t.odd_rests(y, g, half)  # D_h = 2 + y^2 rh, D_g = 2(s-1) + y^2 rg
    D = 2 + y * y * rh, 2 * (t.s - 1) + y * y * rg
    if not half:
        return _left(a, t.primes(z), D)
    halves = *np.shape(y)[:-1], 2, np.shape(y)[-1]
    H, G = _left(a, [p.reshape(halves) for p in t.primes(z)],
                 [d[..., None, :] for d in D])
    return H.reshape(np.shape(z)), G.reshape(np.shape(z))


def _ratio(Hp, Gp):
    """Gp/Hp, inf where |Hp| <= CRITICAL_TOL: there Hp counts as zero, a
    critical point, where the dilatation is undefined."""
    crit = np.abs(Hp) <= CRITICAL_TOL
    if not crit.any():
        return Gp / Hp
    return np.divide(Gp, Hp, out=np.full_like(Hp, np.inf), where=~crit)


@lru_cache(maxsize=8)
def _unit_ring(K):
    # e^{2 pi i k/K}, k < K, built once a K: its exp took about 30 of the
    # 230 us of a 1440-node ring, and a radius search asks for 2-8 rings.
    # For even K the second half is the first negated, exactly, so that
    # ``_derivatives`` may take the odd quotient, and render the odd
    # integrals, on the first half; they differ from their own exp by the
    # rounding of its angle, under 2e-15
    ring = np.exp(2j * math.pi * np.arange(K) / K)
    if K % 2 == 0:
        ring[K // 2:] = -ring[:K // 2]
    ring.flags.writeable = False
    return ring


def _ring_moduli(spec, radii, K):
    """(z, |Gp/Hp|) on the rings z[i, k] = radii[i] ``_unit_ring(K)``[k],
    the nodes e^{2 pi i k/K}, k < K, with node k + K/2 exactly -node k for
    even K; inf at a critical node (``_ratio``), unguarded.  The rings go
    to ``_derivatives`` in ``_core.blocks`` of whole rings, K elements a
    ring, so at most 8,192 nodes a call, and Fn's orbit takes n/gcd(n, K)
    logs per node.  For even K the whole odd quotient, its logs included,
    is taken on half of each ring (``TermTable.odd_rests``)."""
    t = term_table(spec.right)
    z = np.multiply.outer(radii, _unit_ring(K))
    g = math.gcd(t.n, K)
    return z, blocks(lambda y: np.abs(_ratio(*_derivatives(spec.a, t, y, g))),
                     z, K)


def _moduli(spec, z):
    """|Gp/Hp| at the points z, of any shape, by the rings' evaluator,
    unguarded; inf at a critical point (``_ratio``)."""
    return np.abs(_ratio(*_derivatives(spec.a, term_table(spec.right), z)))


def _log_jets(spec, z):
    """(omega, L1, L2) of spec at the 1-d points z != 0, unguarded: omega =
    Gp/Hp, L1 = omega'/omega, L2 = (log omega)''.  One ``odd_rests`` call
    gives the odd quotient D, and D' = (f'(z) + f'(-z) - D)/z and D'' =
    (f''(z) - f''(-z) - 2D')/z, with f', f'' and f''' rational (``jets``),
    need no further logarithm; each /z costs about eps/|z| of D's scale."""
    a, t = spec.a, term_table(spec.right)
    rh, rg = t.odd_rests(z)
    (h1, h2, h3), (g1, g2, g3) = t.jets(np.stack((z, -z)))  # each at (z, -z)
    D = 2 + z * z * rh, 2 * (t.s - 1) + z * z * rg
    D1 = (h1[0] + h1[1] - D[0]) / z, (g1[0] + g1[1] - D[1]) / z
    D2 = (h2[0] - h2[1] - 2 * D1[0]) / z, (g2[0] - g2[1] - 2 * D1[1]) / z
    H0, G0 = _left(a, (h1[0], g1[0]), D)
    H1, G1 = _left(a, (h2[0], g2[0]), D1)
    H2, G2 = _left(a, (h3[0], g3[0]), D2)
    lh, lg = H1 / H0, G1 / G0
    return _ratio(H0, G0), lg - lh, G2 / G0 - lg * lg - H2 / H0 + lh * lh


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
    quotients from 0 to z; a log term integrates to a dilogarithm pair,
    Li2(-rz) - Li2(rz) = -2 chi_2(rz), one ``special._chi2`` element.
    The points go to ``_image`` flat, a scalar as one, in bounded memory
    whatever n.  |z| may pass MAX_RADIUS by RADIUS_SLACK, as nodes on it do.
    """
    arr, scalar = prepare(z)
    if not np.all(np.abs(arr) <= MAX_RADIUS + RADIUS_SLACK):  # NaN fails too
        raise DomainError(f"conv_value requires |z| <= {MAX_RADIUS}")
    t = term_table(instance(spec, ConvolutionSpec, "spec").right)
    return finish(_image(spec.a, t, arr.ravel()).reshape(arr.shape), scalar)
