"""Closed-form harmonic half-plane mappings f = h + conj(g).

Four families are provided, each normalized so that h(0) = g(0) = 0 and
h'(0) = 1:

* ``F0`` -- the canonical half-plane map with dilatation -z;
* ``Fa`` -- dilatation (z+a)/(1+az), -1 < a < 1;
* ``F1`` -- dilatation e^{i*theta} z, theta != pi (mod 2pi);
* ``Fn`` -- dilatation e^{i*theta} z^n; Fn with n = 1 is F0 (theta = pi)
  or F1.

Each family is one table of terms, built by ``term_table``, the only code
that branches on the family; F0, F1 and Fn share one formula.  With
w = z/(1-z), phi(x) = (x - log1p x)/x^2 and v = u z^n,

    h = alpha w - k w^2 phi(d w) + sum_j c_j log(1 - r_j z),   g = s w - h,
    h' = (1 + b v)/((1 + v)(1-z)^2),  g' = (v + b)/((1 + v)(1-z)^2),

and the dilatation is (v + b)/(1 + b v).  The phi term is a pair of logs,
c log((1 - (1-d) z)/(1 - z)) = c log1p(d w), less c d w, which alpha holds;
for Fn, 1 - d is the root nearest 1 and k = c d^2 stays bounded as theta
-> +-pi, where c grows like 1/d^2; at theta = pi, d = 0.  Fn's lone roots
are r = 1 plus one orbit, (1-d) zeta^j with zeta = e^{-2 pi i/n}, j = 1..n-1,
the turns of the pair's root; on a ring of K equispaced nodes the orbit's
logs fall into n/gcd(n, K) rotation classes.  The odd quotient (h(z) -
h(-z))/z is even in z, and on a ring with even K node k + K/2 is exactly
-node k, so there the whole quotient, the pair and every lone log, is
taken on the first K/2 nodes (``TermTable.odd_rests``).  The singular
points, 1 and the reciprocals of the roots, lie on the unit circle.  The
evaluators take points of the open disk, scalars or arrays, in blocks of
bounded memory, and refuse points within 1e-9 of a singularity.
"""
import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._core import (SINGULARITY_GUARD, blocks, check_a, finish, instance,
                    norm_theta, positive_int, prepare)
from .errors import DomainError, ParameterError, SingularityError
from .special import _chi2, _log

# the parameters each family takes, and the check of each
_PARAMETERS = {"F0": (), "Fa": ("a",), "F1": ("theta",), "Fn": ("theta", "n")}
_CHECKS = dict(a=check_a, theta=norm_theta, n=lambda n: positive_int(n, "Fn's n"))
FAMILIES = tuple(_PARAMETERS)


@dataclass(frozen=True)
class MappingSpec:
    """A mapping family and its parameters, checked on construction:
    ParameterError for an unknown family, a missing or out-of-range parameter
    or F1 at theta = pi (use F0 = Fn(1, pi)).  Parameters the family does
    not take become None and theta is reduced to (-pi, pi]."""
    family: str
    a: Optional[float] = None
    theta: Optional[float] = None
    n: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}")
        need = _PARAMETERS[self.family]
        for name, check in _CHECKS.items():
            value = check(getattr(self, name)) if name in need else None
            object.__setattr__(self, name, value)
        if self.family == "F1" and self.theta == math.pi:
            raise ParameterError(
                "F1 excludes theta = pi; use Fn with n=1, theta=pi (F0) instead")


def make_mapping(family, a=None, theta=None, n=None) -> MappingSpec:
    """The MappingSpec of a family with these parameters."""
    return MappingSpec(family, a, theta, n)


# the most elements of one _atanh_rest over the orbit's classes in odd_rests
_ORBIT_BLOCK = 2 ** 16


class TermTable(NamedTuple):
    """One mapping as data; see the module docstring for the formulas."""
    alpha: complex    # coefficient of w = z/(1-z)
    k: complex        # pair weight c d^2
    d: complex        # 1 - r for the pair's root r
    c: np.ndarray     # lone-log coefficients c_j
    r: np.ndarray     # lone-log roots r_j: for n > 1, 1 and then the orbit
    s: float          # h + g = s z/(1-z)
    u: complex
    n: int
    b: float
    sing: np.ndarray  # singular points, 1 and 1/root for each root but 1
    spec: MappingSpec  # the mapping, the key of its rings' orbit data
    orbit: Optional[tuple]  # Fn's (circulants, roots) at any points (``_orbit``)

    def parts(self, z):
        """(h, g) at z."""
        w = z / (1 - z)
        phi = _phi(self.d * w) if self.d else 0.5  # phi(0) at theta = pi
        h = self.alpha * w - self.k * w * w * phi
        if len(self.r):  # the lone logs, as one product over points x roots
            h = h + _log(1 - np.multiply.outer(z, self.r)) @ self.c
        return h, self.s * w - h

    def primes(self, z):
        """(h', g') at z."""
        w = self.u * z ** self.n
        q = 1 / ((1 + w) * (1 - z) ** 2)
        return (1 + self.b * w) * q, (w + self.b) * q

    def jets(self, z):
        """((h', h'', h'''), (g', g'', g''')) at z, rational like ``primes``:
        h' = (1 + b w) q and g' = (w + b) q with q = 1/((1 + w)(1-z)^2), so
        q'/q = A = 2/(1-z) - w'/(1+w) and q''/q = A' + A^2."""
        n, u, b = self.n, self.u, self.b
        w, w1 = u * z ** n, n * u * z ** (n - 1)
        w2 = n * (n - 1) * u * z ** (n - 2) if n > 1 else 0
        q = 1 / ((1 + w) * (1 - z) ** 2)
        e = w1 / (1 + w)
        A = 2 / (1 - z) - e
        q1, q2 = A * q, (2 / (1 - z) ** 2 - w2 / (1 + w) + e * e + A * A) * q

        def jet(p, p1, p2):  # p q and its next two derivatives
            return p * q, p1 * q + p * q1, p2 * q + 2 * p1 * q1 + p * q2

        return jet(1 + b * w, b * w1, b * w2), jet(w + b, w1, w2)

    def odd_rests(self, z, g=None, half=False):
        """(R_h, R_g) with (h(z) - h(-z))/z = 2 + z^2 R_h and (g(z) -
        g(-z))/z = 2(s-1) + z^2 R_g, each summed from its own terms' rests:
        2 alpha/(1-z^2) for w, -2cr^3 E(rz) per lone log and 2k/m (d E(-dz/m)
        /m^2 - 1/(1-z^2)) for the pair, m = 1 - (1-d) z^2, with E(y) =
        (atanh(y)/y - 1)/y^2.

        The lone logs are r = 1 and the orbit r_j = (1-d) zeta^j, j = 1..n-1,
        zeta = e^{-2 pi i/n}; j = 0 is the pair's root, weight 0, but at d = 0
        it is 1 and takes the r = 1 log.  g = None takes any z.  Otherwise g
        divides n and the rings' size K, and each row on z's last axis must
        be a ring z_0 e^{2 pi i k/K}, k < K, with its own z_0, or, if half,
        the first K/2 nodes of one with even K whose node k + K/2 is exactly
        -node k: nothing checks it.  ``convolution._ring_moduli`` builds its
        rings itself, with z_0 = r, so its rows meet it; a stack of rotated
        rings goes to ``convolution._derivatives`` with its g, which passes
        half rings for even K.  The terms j = c + t n/g, t < g, of a class c
        < n/g share one E: r_j z_k = r_c z_(k - tK/g), so term j reads its
        class's E rotated by tK/g nodes within the ring.  With each ring as
        g rows of K/g, that is one g x g circulant of the class's weights,
        broadcast over the rings, and the orbit costs n/g logs per node, not
        n - 1.  Every term's rest is even in z, so a half ring gives the
        whole ring's: half a log per node for the pair, r = 1 and each class.
        Taken mod K/2, term t's turn of tK/g nodes is a whole number of rows
        when the half ring is h rows of K/(2h), h = g/2 for even g (terms t
        and t + g/2 then share a turn, and their weights add) and h = g for
        odd g (where the turns are 2t mod g).  The classes go through one
        ``_atanh_rest`` as classes x points, in blocks of at most
        _ORBIT_BLOCK elements.

        None of the orbit's data depends on z (``_orbit``): the table holds
        it for any points, and ``_ring_orbit`` builds it for rings once per
        table, g and half, in a bounded cache, so a call pays only for its
        points."""
        z2 = z * z
        q = 1 / (1 - z2)
        m = 1 - (1 - self.d) * z2
        # the pair; d = 0, at theta = pi, zeroes its atanh rest
        e = self.d * _atanh_rest(-self.d * z / m) / (m * m) if self.d else 0
        logs = 2 * self.k / m * (e - q)
        if self.n > 1:  # the lone logs, at r = 1 and on the orbit
            circulants, roots = (self.orbit if g is None
                                 else _ring_orbit(self.spec, g, half))
            h = circulants.shape[-1]  # the rows of a ring, or of a half ring
            if self.d:  # else 1 - d = 1: the r = 1 log is the orbit's j = 0
                logs = logs - 2 * self.c[0] * _atanh_rest(z)
            # [c, ..., p, s], size 1 on z's leading axes
            circulants = circulants.reshape(-1, *[1] * (np.ndim(z) - 1), h, h)
            size = max(1, _ORBIT_BLOCK // max(1, np.size(z)))
            for i in range(0, len(roots), size):
                rest = _atanh_rest(np.multiply.outer(roots[i:i + size], z))
                rows = rest.reshape(len(rest), *np.shape(z)[:-1], h, -1)
                logs = logs - (circulants[i:i + size] @ rows).sum(0).reshape(np.shape(z))
        return 2 * self.alpha * q + logs, 2 * (self.s - self.alpha) * q - logs

    def odd_integrals(self, z):
        """Integrals from 0 to z of the odd quotients, the Hadamard products
        with L = log((1+z)/(1-z)): alpha L - 2k F for w and the pair, plus
        c chi per lone log, chi = Li2(-rz) - Li2(rz) = -2 chi_2(rz), for h;
        s L minus that for g.  F, the second divided difference of chi_2(rz)
        at r = 1, 1, 1-d, is ``_chi_series`` at the near points, where rho =
        |d| max(1, |z/(1-z)|, |z/(1+z)|) < 1/4, and at the far points chi
        at r = 1 - d and r = 1 (r[0] for n > 1) over d^2, where 1/d^2 <= 16
        (rho/d)^2.  One ``_chi2`` call takes the lone logs' roots at every
        point and the far route's extra roots at the far points only, one
        element per root and point.  Each argument is r z with |r| = 1 and
        z in the open disk, as its callers check.  z may have any shape.

        Both integrals are odd, and z is folded onto Re z >= 0, as in
        ``_chi2``, so that those at -z are those at z negated bit for bit,
        signed zeros included; ``convolution._image`` takes them once per
        antipodal pair.  Without the fold, a sum that is exactly zero on an
        axis has the same sign at z and -z."""
        neg = np.signbit(z.real)
        z = np.where(neg, -z, z)  # folded: a negation is exact
        L = 2 * z * (1 + z * z * _atanh_rest(z))
        w, v, d, m = z / (1 - z), -z / (1 + z), self.d, len(self.c)
        near = abs(d) * np.maximum(1, np.maximum(np.abs(w), np.abs(v))) < 0.25
        extra = [1 - d] if m else [1, 1 - d]  # root 1 is r[0] for n > 1
        # chi at the lone roots at every point, then at the extra roots at
        # the far points
        y = np.concatenate((np.multiply.outer(z, self.r).ravel(),
                            np.multiply.outer(z[~near], extra).ravel()))
        chi = -2 * _chi2(y)
        chi_r = chi[:z.size * m].reshape(*z.shape, m)
        chi_f = chi[z.size * m:].reshape(-1, len(extra))
        ih = self.alpha * L + ((chi_r * self.c).sum(-1) if m else 0)
        pair = np.empty_like(z)  # -2k F
        if not near.all():  # chi at r = 1 and 1 - d
            far = ~near
            one = chi_r[..., 0][far] if m else chi_f[:, 0]
            pair[far] = self.k / d * ((chi_f[:, -1] - one) / d - L[far])
        if near.any():
            pair[near] = -2 * self.k * _chi_series(d, w[near], v[near], L[near] / 2)
        out = np.empty((2, *np.shape(z)), complex)  # I_h, I_g
        np.add(ih, pair, out=out[0, ...])
        np.subtract(self.s * L - ih, pair, out=out[1, ...])
        np.negative(out, out=out, where=neg)  # unfolded
        return out[0], out[1]


def _orbit(c, r, d, g=1, half=False):
    """(circulants, roots): Fn's lone-log orbit, from a table's lone-log
    coefficients c and roots r and its pair's d, as ``TermTable.odd_rests``
    sums it on rings of g rows, or on half rings of h rows if half, and,
    with g = 1 and not half, at any points.  The orbit j = k + t n/g, of
    class k < n/g, as [t, k] has the roots 1 - d and r_j, j >= 1, and the
    weights 2 c_j r_j^3, with j = 0's 0 for d != 0 (odd_rests sums the r =
    1 log apart) and 2 c_0 at d = 0.  On a half ring, h = g/2 for even g,
    where terms t and t + g/2 share the turn t mod g/2 and add their
    weights, and h = g for odd g, where term t turns 2t mod g rows.  Only
    the classes with a weight are kept: the h x h circulant [k, p, s] =
    w[(p - s) mod h, k] of each, and its root, both read-only.  None of it
    depends on the points, or on the ring's size K but through g and half."""
    w = np.append(0 if d else 2 * c[0], 2 * c[1:] * r[1:] ** 3).reshape(g, -1)
    roots = np.append(1 - d, r[1:])
    if half:
        h = g // 2 if g % 2 == 0 else g
        shift = np.arange(g) % h if g % 2 == 0 else 2 * np.arange(g) % g
        folded = np.zeros((h, w.shape[1]), complex)
        np.add.at(folded, shift, w)  # terms sharing a turn add weights
        w, g = folded, h
    turn = np.subtract.outer(np.arange(g), np.arange(g)) % g
    classes = np.flatnonzero(w.any(axis=0))
    circulants, roots = w.T[classes][:, turn], roots[classes]
    circulants.flags.writeable = roots.flags.writeable = False
    return circulants, roots


@lru_cache(maxsize=8)
def _ring_orbit(spec, g, half):
    """``_orbit`` of ``term_table(spec)`` on rings, built once per (spec, g,
    half) and kept for the 8 most recent: it holds (n/g) h^2 complex
    weights, 4 MiB at n = 1024 (g = n, h = 512), and a radius search or a
    scan asks for one."""
    t = term_table(spec)
    return _orbit(t.c, t.r, t.d, g, half)


def _atanh_rest(y):
    # E(y) = (atanh(y)/y - 1)/y^2 = 1/3 + y^2/5 + ... + y^16/19 + ... by
    # that series below |y| = 0.1, where the subtraction would cancel;
    # above it atanh(y) = log((1+y)/(1-y))/2, the log by _log: the
    # quotient's rounding, about eps absolute in its log, leaves E within
    # about 6 eps/|y|^3 relative.  E is even, and y is first folded onto
    # Re y >= 0, so E(-y) is E(y) bit for bit: a half ring's odd quotient
    # then has the bits the point route gives at either node of a pair
    y = y * np.copysign(1.0, np.real(y))
    small = np.abs(y) < 0.1
    x = np.where(small, 0.5, y)  # placeholder: the series replaces it
    out = np.asarray((_log((1 + x) / (1 - x)) / (2 * x) - 1) / (x * x))
    if small.any():
        t, acc = y[small] ** 2, 0
        for j in range(19, 1, -2):
            acc = acc * t + 1 / j
        out[small] = acc
    return out


def _phi(x):
    # (x - log1p x)/x^2, 1/2 at 0: with t = x/(2+x), log1p x = 2 atanh t,
    # so phi = (1-t)(1 - t (1-t) E(t))/2 and no term cancels
    v = 2 / (2 + x)  # 1 - t
    return v * (1 - x / (2 + x) * v * _atanh_rest(x / (2 + x))) / 2


def _chi_series(d, w, v, b):
    # F(d) = (f(1-d) - f(1) + d f'(1))/d^2 of f(r) = chi_2(rz) as the Taylor
    # series in -d, sum_k b_k (-d)^(k-1)/(k+1), with b_0 = atanh z and b_k =
    # (w^k - v^k)/(2k) - b_(k-1), w = z/(1-z), v = -z/(1+z): the terms
    # shrink like rho^k, and it runs until rho^k < 2^-56
    top = abs(d) * max(1, np.abs(w).max(), np.abs(v).max())
    dk, acc = 1, 0
    for j in range(1, 2 + (int(-38.8 / math.log(top)) if top else 0)):
        b = (w ** j - v ** j) / (2 * j) - b
        acc, dk = acc + b * dk / (j + 1), dk * -d
    return acc


@lru_cache(maxsize=256)
def term_table(spec: MappingSpec) -> TermTable:
    """The term table of a mapping, cached; F0 = Fn(1, pi), F1 = Fn(1, theta)."""
    if spec.family == "Fa":
        # (1+a)/2 w + (1-a)/4 log((1+z)/(1-z)): the pair at d = 2
        n, u, b, s, c, r = 1, 1, spec.a, 1 + spec.a, [], []
        alpha, k, d = 1, 1 - spec.a, 2
    else:
        # poles z^n = e^{ie}, e = +-pi - theta (exact near +-pi), at 1/r_j,
        # r_j = e^{-2i a_j}, a_j = e/2n + j pi/n; j = 0 is the pair's.  As
        # n cot(n a_0) = sum_j cot(a_j), and so for n^2/sin^2, alpha = 1/(1+u)
        # + c_0 d and the r = 1 log's c_0 - n/(4 sin^2(e/2)) are sums over
        # j >= 1, free of the 1/e in each of their terms
        n, b, s = spec.n or 1, 0, 1
        th = math.pi if spec.family == "F0" else spec.theta
        e = math.copysign(math.pi, th) - th
        u, psi, k = -cmath.exp(-1j * e), e / n, -cmath.exp(-1j * e / n) / n
        half = psi / 2 + math.pi * np.arange(1, n) / n
        cj = 1 / (4 * n * np.sin(half) ** 2)
        alpha = (n + 1) / (2 * n) - 0.5j / n * np.sum(1 / np.tan(half))
        d = complex(2 * math.sin(psi / 2) ** 2, math.sin(psi))  # 1 - e^{-i psi}
        c, r = np.append(-cj.sum(), cj), np.append(1, np.exp(-2j * half))
    c, r = np.array(c, dtype=complex), np.array(r, dtype=complex)
    keep = c != 0  # at n = 1 the lone log at r = 1 has coefficient 0
    roots = np.append(r[keep], 1 - d)
    sing = np.concatenate(([1 + 0j], 1 / roots[roots != 1]))
    orbit = _orbit(c[keep], r[keep], complex(d)) if n > 1 else None
    return TermTable(complex(alpha), complex(k), complex(d), c[keep], r[keep],
                     s, complex(u), n, b, sing, spec, orbit)


def singular_points(spec: MappingSpec) -> np.ndarray:
    """Unit-circle singularities of the closed forms for this family."""
    return term_table(instance(spec, MappingSpec, "spec")).sing.copy()


def guard(arr, sing):
    """DomainError unless every point lies in the open disk (NaN fails);
    SingularityError within SINGULARITY_GUARD of a point of sing (none if it
    is empty), all on the unit circle: only points that close are measured."""
    mod = np.abs(arr)
    if not np.all(mod < 1):
        raise DomainError("evaluation requires |z| < 1")
    edge = arr[mod > 1 - SINGULARITY_GUARD]
    d = np.abs(np.subtract.outer(edge, sing))
    near = d.min(axis=1, initial=np.inf) < SINGULARITY_GUARD
    if np.any(near):
        s = complex(sing[int(np.argmin(d[np.argmax(near)]))])
        raise SingularityError(
            f"point within {SINGULARITY_GUARD:g} of singularity {s:.6f}",
            singularity=s)


def _eval(spec, z, pick):
    # the points flat, a scalar as one, in ``_core.blocks`` of len(r) + 1
    arr, scalar = prepare(z)
    table = term_table(instance(spec, MappingSpec, "spec"))
    guard(arr, table.sing)
    out = blocks(lambda y: pick(table, y), arr.ravel(), len(table.r) + 1)
    return finish(out.reshape(arr.shape), scalar)


def eval_h(spec: MappingSpec, z):
    """Analytic part h of the mapping at z."""
    return _eval(spec, z, lambda t, z: t.parts(z)[0])


def eval_g(spec: MappingSpec, z):
    """Co-analytic part g of the mapping at z."""
    return _eval(spec, z, lambda t, z: t.parts(z)[1])


def eval_h_prime(spec: MappingSpec, z):
    return _eval(spec, z, lambda t, z: t.primes(z)[0])


def eval_g_prime(spec: MappingSpec, z):
    return _eval(spec, z, lambda t, z: t.primes(z)[1])


def eval_f(spec: MappingSpec, z):
    """The harmonic mapping value h(z) + conj(g(z))."""
    def f(t, z):
        h, g = t.parts(z)
        return h + np.conj(g)
    return _eval(spec, z, f)


def dilatation(spec: MappingSpec, z):
    """The second complex dilatation g'/h' in its closed form."""
    arr, scalar = prepare(z)
    guard(arr, ())
    t = term_table(instance(spec, MappingSpec, "spec"))
    w = t.u * arr ** t.n
    return finish((w + t.b) / (1 + t.b * w), scalar)
