"""Closed-form harmonic half-plane mappings f = h + conj(g).

Four families are provided, each normalized so that h(0) = g(0) = 0 and
h'(0) = 1:

* ``F0`` -- the canonical half-plane map with dilatation -z;
* ``Fa`` -- dilatation (z+a)/(1+az), -1 < a < 1;
* ``F1`` -- dilatation e^{i*theta} z, theta != pi (mod 2pi);
* ``Fn`` -- dilatation e^{i*theta} z^n; Fn with n = 1 is F0 (theta = pi)
  or F1.

Each family is one table of terms, built by ``term_table``, the only code
that branches on the family.  With w = u z^n,

    h = alpha z/(1-z) + beta (1/(1-z)^2 - 1)
        + sum_j c_j log((1 - r_j z)/(1 - p_j z)),       g = s z/(1-z) - h,
    h' = (1 + b w)/((1 + w)(1-z)^2),  g' = (w + b)/((1 + w)(1-z)^2),

and the dilatation is (w + b)/(1 + b w).  A log term with partner root
p = 0 is a lone log(1 - r z); F1 and Fa keep their two logs, which have
equal and opposite coefficients, as one pair, so that no operator
subtracts the two.  The singular points, 1 and the reciprocals of the
nonzero roots, lie on the unit circle.  The evaluators accept scalars or
numpy arrays of points in the open unit disk and refuse points within
1e-9 of a singularity.
"""
import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._core import (SINGULARITY_GUARD, check_a, finish, norm_theta,
                    positive_int, prepare, theta_is_pi)
from .errors import DomainError, ParameterError, SingularityError
from .special import li2

# the parameters each family takes
_PARAMETERS = {"F0": (), "Fa": ("a",), "F1": ("theta",), "Fn": ("theta", "n")}
FAMILIES = tuple(_PARAMETERS)


@dataclass(frozen=True)
class MappingSpec:
    """Validated descriptor of one mapping family; build via make_mapping."""
    family: str
    a: Optional[float] = None
    theta: Optional[float] = None
    n: Optional[int] = None


def make_mapping(family, a=None, theta=None, n=None) -> MappingSpec:
    """Validate parameters and construct a MappingSpec.  ParameterError for
    missing or out-of-range parameters; F1 at theta = pi is rejected with a
    pointer to Fn(n=1, theta=pi), which covers that case."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}, expected one of {FAMILIES}")
    need = _PARAMETERS[family]
    spec = MappingSpec(
        family,
        a=check_a(a) if "a" in need else None,
        theta=norm_theta(theta) if "theta" in need else None,
        n=positive_int(n, "Fn's n") if "n" in need else None)
    term_table(spec)  # refuses the parameters a family has no table for
    return spec


class TermTable(NamedTuple):
    """One mapping as data; see the module docstring for the formulas."""
    alpha: complex
    beta: float
    c: np.ndarray     # log-term coefficients c_j
    r: np.ndarray     # log-term roots r_j
    p: np.ndarray     # partner roots p_j, 0 for a lone log
    s: float          # h + g = s z/(1-z)
    u: complex
    n: int
    b: float
    sing: np.ndarray  # singular points, 1 and 1/root for each nonzero root

    def parts(self, z):
        """(h, g) at z."""
        geom = z / (1 - z)
        h = self.alpha * geom + self.beta * z * (2 - z) / (1 - z) ** 2
        for c, r, p in zip(self.c, self.r, self.p):
            h = h + c * np.log((1 - r * z) / (1 - p * z))
        return h, self.s * geom - h

    def primes(self, z):
        """(h', g') at z."""
        w = self.u * z ** self.n
        q = 1 / ((1 + w) * (1 - z) ** 2)
        return (1 + self.b * w) * q, (w + self.b) * q

    def odd_quotients(self, z):
        """((h(z) - h(-z))/z, (g(z) - g(-z))/z): 2 alpha/(1-z^2) +
        4 beta/(1-z^2)^2 and, per log term, -2c (atanh(rz) - atanh(pz))/z =
        -2c (r-p)/m atanh(y)/y with m = 1 - rpz^2, y = (r-p)z/m.  Each
        summand is its value at 0 plus a rest; the values add up to
        2 h'(0) = 2, so z = 0 is exact whatever the coefficients' rounding."""
        z2 = z * z
        q = 1 / (1 - z2)
        dh = 2 + (2 * self.alpha + 4 * self.beta * (1 + q)) * z2 * q
        for c, r, p in zip(self.c, self.r, self.p):
            d = r - p
            m = 1 - r * p * z2
            dh = dh - 2 * c * d * (_atanh_ratio(d * z / m) / m - 1)
        return dh, 2 * self.s * q - dh

    def odd_integrals(self, z):
        """Integrals from 0 to z of the odd quotients (1-d z), the Hadamard
        products with L = log((1+z)/(1-z)): alpha L + beta (2z/(1-z^2) + L)
        + c (Li2(-rz) - Li2(rz)) per root (-c for a partner), in one li2
        call; and s L minus that for g."""
        L = 2 * z * _atanh_ratio(z)
        paired = self.p != 0
        c = np.concatenate((self.c, -self.c[paired]))
        w = np.outer(np.concatenate((self.r, self.p[paired])), z)
        li = li2(np.concatenate((-w, w)))
        ih = (self.alpha * L + self.beta * (2 * z / (1 - z * z) + L)
              + c @ (li[:len(c)] - li[len(c):]))
        return ih, self.s * L - ih


def _atanh_ratio(w):
    # atanh(w)/w = log(v)/((v - 1)(1 - w)) with v = (1+w)/(1-w): Kahan's
    # log1p correction, the ratio log(v)/(v - 1) taken as 1 where v rounds
    # to 1, so it keeps full relative accuracy down to w = 0
    m = 1 - w
    v = 1 + 2 * w / m
    d = v - 1
    one = d == 0
    return (np.log(v) + one) / ((d + one) * m)


def _table(alpha=0.0, beta=0.0, c=(), r=(), p=None, s=1.0, u=1.0, n=1, b=0.0):
    c = np.array(c, dtype=complex)
    r = np.array(r, dtype=complex)
    p = np.zeros_like(r) if p is None else np.array(p, dtype=complex)
    keep = c != 0  # Fn at n = 1, theta = pi has a zero log coefficient
    c, r, p = c[keep], r[keep], p[keep]
    roots = np.concatenate((r, p))
    sing = np.concatenate(([1 + 0j], 1 / roots[(roots != 0) & (roots != 1)]))
    return TermTable(complex(alpha), beta, c, r, p, s, complex(u), n, b, sing)


@lru_cache(maxsize=256)
def term_table(spec: MappingSpec) -> TermTable:
    """The term table of a mapping, cached per spec; ParameterError for F1
    at theta = pi, where its coefficients have a pole."""
    if spec.family == "F0":
        return _table(beta=0.5, u=-1)
    if spec.family == "Fa":
        a = spec.a
        return _table(alpha=(1 + a) / 2, c=((1 - a) / 4,), r=(-1,), p=(1,),
                      s=1 + a, b=a)
    pi = theta_is_pi(spec.theta)
    if spec.family == "F1":
        if pi:
            raise ParameterError(
                "F1 is undefined at theta = pi; use Fn with n=1, theta=pi instead")
        u = cmath.exp(1j * spec.theta)
        return _table(alpha=1 / (1 + u), c=(u / (1 + u) ** 2,), r=(-u,), p=(1,),
                      u=u)
    n = spec.n
    if pi:
        k = np.arange(1, n)
        csc2 = 1 / np.sin(math.pi * k / n) ** 2
        return _table(alpha=(n - 1) / (2 * n), beta=1 / (2 * n),
                      c=np.append(-(n * n - 1) / (12 * n), csc2 / (4 * n)),
                      r=np.append(1, np.exp(-2j * math.pi * k / n)), u=-1, n=n)
    u = cmath.exp(1j * spec.theta)
    phi = ((2 * np.arange(n) + 1) * math.pi - spec.theta) / n
    csc2 = 1 / np.sin(phi / 2) ** 2
    return _table(alpha=1 / (1 + u),
                  c=np.append(-n * u / (1 + u) ** 2, csc2 / (4 * n)),
                  r=np.append(1, np.exp(-1j * phi)), u=u, n=n)


def singular_points(spec: MappingSpec) -> np.ndarray:
    """Unit-circle singularities of the closed forms for this family."""
    return term_table(spec).sing.copy()


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
    table = term_table(spec)
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
    t = term_table(spec)
    w = t.u * arr ** t.n
    return finish((w + t.b) / (1 + t.b * w), scalar)
