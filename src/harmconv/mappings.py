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
logs fall into n/gcd(n, K) rotation classes (``TermTable.odd_rests``).  The
singular points, 1 and the reciprocals of the roots, lie on the unit circle.
The evaluators accept scalars or numpy arrays of points in the open unit
disk and refuse points within 1e-9 of a singularity.
"""
import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._core import (SINGULARITY_GUARD, check_a, finish, instance,
                    norm_theta, positive_int, prepare)
from .errors import DomainError, ParameterError, SingularityError
from .special import li2

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

    def parts(self, z):
        """(h, g) at z."""
        w = z / (1 - z)
        phi = _phi(self.d * w) if self.d else 0.5  # phi(0) at theta = pi
        h = self.alpha * w - self.k * w * w * phi
        for c, r in zip(self.c, self.r):
            h = h + c * np.log(1 - r * z)
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

    def odd_rests(self, z, g=1):
        """(R_h, R_g) with (h(z) - h(-z))/z = 2 + z^2 R_h and (g(z) -
        g(-z))/z = 2(s-1) + z^2 R_g, each summed from its own terms' rests:
        2 alpha/(1-z^2) for w, -2cr^3 E(rz) per lone log and 2k/m (d E(-dz/m)
        /m^2 - 1/(1-z^2)) for the pair, m = 1 - (1-d) z^2, with E(y) =
        (atanh(y)/y - 1)/y^2.

        The lone logs are r = 1 and the orbit r_j = (1-d) zeta^j, zeta =
        e^{-2 pi i/n}, j = 1..n-1 (j = 0 is the pair's root).  When g > 1
        divides n and K = len(z), and z is a ring z_0 e^{2 pi i k/K}, k < K,
        the terms j = c + t n/g, t < g, of a class c < n/g share one E:
        r_j z_k = r_c z_(k - tK/g), so term j reads its class's E rotated by
        tK/g nodes.  With the nodes as g rows of K/g, that is one g x g
        circulant of the class's weights, and the orbit costs n/g logs per
        node, not n - 1.  g = 1 takes any z.  The classes go through one
        ``_atanh_rest`` as classes x points, in blocks of at most _ORBIT_BLOCK
        elements: a few points take one call, a large grid one class a call.
        """
        z2 = z * z
        q = 1 / (1 - z2)
        m = 1 - (1 - self.d) * z2
        # the pair; d = 0, at theta = pi, zeroes its atanh rest
        e = self.d * _atanh_rest(-self.d * z / m) / (m * m) if self.d else 0
        logs = 2 * self.k / m * (e - q)
        if self.n > 1:  # the lone logs, at r = 1 and on the orbit
            logs = logs - 2 * self.c[0] * _atanh_rest(z)
            # the orbit's weights and roots, j = 0..n-1 as [t, c]; j = 0 is
            # the pair's root, weight 0, so at g = 1 its class is skipped
            w = np.append(0, 2 * self.c[1:] * self.r[1:] ** 3).reshape(g, -1)
            roots = np.append(1 - self.d, self.r[1:])
            turn = np.subtract.outer(np.arange(g), np.arange(g)) % g
            circulants = w.T[:, turn]  # [c, p, s] = w[(p - s) mod g, c]
            classes = np.flatnonzero(w.any(axis=0))
            size = max(1, _ORBIT_BLOCK // max(1, np.size(z)))
            for i in range(0, len(classes), size):
                c = classes[i:i + size]
                rest = _atanh_rest(np.multiply.outer(roots[c], z))
                logs = logs - (circulants[c] @ rest.reshape(len(c), g, -1)).sum(
                    axis=0).reshape(np.shape(z))
        return 2 * self.alpha * q + logs, 2 * (self.s - self.alpha) * q - logs

    def odd_integrals(self, z):
        """Integrals from 0 to z of the odd quotients, the Hadamard products
        with L = log((1+z)/(1-z)): alpha L - 2k F for w and the pair, plus
        c (Li2(-rz) - Li2(rz)) per lone log, for h; s L minus that for g.
        F, the second divided difference of chi_2(rz) at r = 1, 1, 1-d, is
        ``_chi_series`` where rho = |d| max(1, |z/(1-z)|, |z/(1+z)|) < 1/4,
        else four Li2 values (two more logs), where 1/d^2 <= 16 (rho/d)^2."""
        L = 2 * z * (1 + z * z * _atanh_rest(z))
        w, v, d, m = z / (1 - z), -z / (1 + z), self.d, len(self.c)
        near = abs(d) * np.maximum(1, np.maximum(np.abs(w), np.abs(v))) < 0.25
        r = self.r if near.all() else np.append(self.r, (1 - d, 1))
        logs = li2(np.multiply.outer((-1, 1), np.outer(r, z))) if len(r) else 0
        ih = self.alpha * L + (self.c @ (logs[0][:m] - logs[1][:m]) if m else 0)
        pair = np.empty_like(z)  # -2k F
        if len(r) > m:
            pair = self.k / d * ((logs[0][m] - logs[1][m] - logs[0][m + 1]
                                  + logs[1][m + 1]) / d - L)
        if near.any():
            pair[near] = -2 * self.k * _chi_series(d, w[near], v[near], L[near] / 2)
        return ih + pair, self.s * L - ih - pair


def _atanh_rest(y):
    # E(y) = (atanh(y)/y - 1)/y^2 = 1/3 + y^2/5 + ... + y^16/19 + ... by
    # that series below |y| = 0.1, where the subtraction would cancel;
    # above it atanh(y) = log((1+y)/(1-y))/2 costs E at most 3 eps/|y|^3
    small = np.abs(y) < 0.1
    x = np.where(small, 0.5, y)  # placeholder: the series replaces it
    out = np.asarray((np.log((1 + x) / (1 - x)) / (2 * x) - 1) / (x * x))
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
    return TermTable(complex(alpha), complex(k), complex(d), c[keep], r[keep],
                     s, complex(u), n, b, sing)


def singular_points(spec: MappingSpec) -> np.ndarray:
    """Unit-circle singularities of the closed forms for this family."""
    return term_table(instance(spec, MappingSpec, "spec")).sing.copy()


def guard(arr, sing):
    """DomainError unless every point lies in the open disk (NaN fails);
    SingularityError within SINGULARITY_GUARD of one of sing, which all lie
    on the unit circle, so only points that close to it are measured."""
    mod = np.abs(arr)
    if not np.all(mod < 1):
        raise DomainError("evaluation requires |z| < 1")
    edge = arr[mod > 1 - SINGULARITY_GUARD]
    d = np.abs(edge[:, None] - sing[None, :])
    near = d.min(axis=1) < SINGULARITY_GUARD
    if np.any(near):
        s = complex(sing[int(np.argmin(d[np.argmax(near)]))])
        raise SingularityError(
            f"point within {SINGULARITY_GUARD:g} of singularity {s:.6f}",
            singularity=s)


def _eval(spec, z, pick):
    arr, scalar = prepare(z)
    table = term_table(instance(spec, MappingSpec, "spec"))
    guard(arr, table.sing)
    return finish(pick(table, arr), scalar)


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
    if not np.all(np.abs(arr) < 1):
        raise DomainError("dilatation requires |z| < 1")
    t = term_table(instance(spec, MappingSpec, "spec"))
    w = t.u * arr ** t.n
    return finish((w + t.b) / (1 + t.b * w), scalar)
