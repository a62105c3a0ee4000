"""Univalency decision machinery.

Contains a Schur-Cohn zero counter for polynomials in the unit disk,
grid scans of convolution dilatations with violation reporting, the
auxiliary function J, whose boundary values come from one closed form in
which no term cancels (the real part also from the piecewise argument
analysis), and the univalency radius by a safeguarded regula falsi on the
log of the circle maximum of |Gp/Hp|, which is nondecreasing in r while Hp
has no zeros (maximum modulus principle), out to |z| = 1 - 1e-6.  Each
circle maximum is the top of a 1440-node ring, refined at the ring's peaks
by Newton steps in angle on the closed-form first and second derivatives of
log(Gp/Hp).
"""
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._core import (CRITICAL_TOL, check_a, finish, instance, positive_int,
                    prepare, real)
from .convolution import (ConvolutionSpec, _derivatives, _log_jets,
                          _odd_guard)
from .errors import (BoundaryDegenerateError, CohnInapplicableError,
                     DomainError, ParameterError)
from .mappings import _phi, make_mapping, term_table


# ---------------------------------------------------------------------------
# polynomial zero counting

@dataclass(frozen=True)
class Poly:
    """Polynomial with ascending coefficients; trailing zeros are trimmed."""
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or len(c) == 0 or not np.isfinite(c).all():
            raise ParameterError("coeffs must be finite, 1-d and non-empty")
        c = np.trim_zeros(c, "b")
        if len(c) == 0:
            raise ParameterError("the zero polynomial has no defined degree")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def cohn_reduce(p: Poly) -> Poly:
    """One reduction step: q1(z) = (conj(a_d) p(z) - a_0 p*(z)) / z.

    p* is the reciprocal conjugate z^d conj(p(1/conj z)).  Applicable only
    when |a_0| < |a_d|; then p has exactly one more zero in the open unit
    disk than q1.
    """
    if p.degree < 1:
        raise ParameterError("cohn_reduce needs degree >= 1")
    c = p.coeffs
    a0, ad = c[0], c[-1]
    if abs(ad) <= abs(a0):
        raise CohnInapplicableError(
            "reduction requires |a_0| < |a_d|")
    num = np.conj(ad) * c - a0 * np.conj(c[::-1])
    # constant term cancels exactly; the rest is q1
    return Poly(num[1:])


def zeros_in_unit_disk(p: Poly) -> int:
    """Number of zeros of p inside the open unit disk.

    Iterates Cohn reductions, flipping to the reversed polynomial when the
    end coefficients force it.  Inputs whose end coefficients have equal
    modulus (the inconclusive configuration, in particular any polynomial
    with unit-circle zeros) raise BoundaryDegenerateError.
    """
    d = p.degree
    if d == 0:
        return 0
    c = p.coeffs
    a0m, adm = abs(c[0]), abs(c[-1])
    if abs(a0m - adm) <= 1e-10 * float(np.max(np.abs(c))):
        raise BoundaryDegenerateError(
            "end coefficients have equal modulus; count is undecidable")
    if a0m < adm:
        return 1 + zeros_in_unit_disk(cohn_reduce(p))
    # reversal maps zeros to reciprocals, exchanging inside and outside
    return d - zeros_in_unit_disk(Poly(c[::-1].copy()))


# ---------------------------------------------------------------------------
# grid scanning

@dataclass(frozen=True)
class GridSpec:
    """Scan lattice: circles at the given radii, equispaced angles."""
    radii: Tuple[float, ...]
    angles_count: int

    def __post_init__(self):
        if np.ndim(self.radii) != 1:
            raise ParameterError(
                f"radii must be a sequence of numbers, got {self.radii!r}")
        r = tuple(real(x, "each radius") for x in self.radii)
        object.__setattr__(self, "radii", r)
        if len(r) == 0:
            raise ParameterError("at least one radius required")
        if not all(0 < x <= 0.999 + 1e-12 for x in r):  # NaN fails too
            raise ParameterError("radii must lie in (0, 0.999]")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ParameterError("radii must be strictly increasing")
        object.__setattr__(self, "angles_count",
                           positive_int(self.angles_count, "angles_count"))


def default_grid(radii_count: int = 60, angles_count: int = 720,
                 max_radius: float = 0.999) -> GridSpec:
    """Radii accumulate geometrically toward the outer edge, where the
    interesting behaviour lives."""
    if not 0 < real(max_radius, "max_radius") <= 0.999:
        raise ParameterError(
            f"max_radius must lie in (0, 0.999], got {max_radius!r}")
    gaps = np.geomspace(1 - 0.05, 1 - max_radius,
                        positive_int(radii_count, "radii_count"))
    radii = 1.0 - gaps
    radii[-1] = max_radius
    return GridSpec(tuple(radii), angles_count)


def _cx(z):
    return None if z is None else {"re": float(z.real), "im": float(z.imag)}


def _uncx(d):
    return None if d is None else complex(d["re"], d["im"])


# one violation as json.dumps(indent=2) writes it inside the report
_VIOLATION = """    {
      "modulus": %s,
      "z": {
        "im": %s,
        "re": %s
      }
    }"""


@dataclass
class UnivalencyReport:
    """Outcome of a dilatation grid scan."""
    max_modulus: float
    argmax: Optional[complex]
    violations: List[Tuple[complex, float]]
    grid: GridSpec
    critical_points: List[complex]
    skipped: int = 0

    def _summary(self) -> dict:
        # every key but "violations"
        return {
            "max_modulus": self.max_modulus,
            "argmax": _cx(self.argmax),
            "grid": {"radii": list(self.grid.radii),
                     "angles_count": self.grid.angles_count},
            "critical_points": [_cx(z) for z in self.critical_points],
            "skipped": self.skipped,
        }

    def to_dict(self) -> dict:
        d = self._summary()
        d["violations"] = [{"z": _cx(z), "modulus": m} for z, m in self.violations]
        return d

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, byte for
        byte.  "violations" sorts last, so the rest goes through json and the
        entries through a template; json formats their floats, one flat
        column at a time, without the slow indenting encoder."""
        head = json.dumps(self._summary(), indent=2, sort_keys=True)[:-2]
        if not self.violations:
            return head + ',\n  "violations": []\n}'
        zs, ms = zip(*self.violations)
        columns = [json.dumps(col)[1:-1].split(", ") for col in (
            ms, [float(z.imag) for z in zs], [float(z.real) for z in zs])]
        entries = ",\n".join(_VIOLATION % row for row in zip(*columns))
        return f'{head},\n  "violations": [\n{entries}\n  ]\n}}'

    @classmethod
    def from_dict(cls, d: dict) -> "UnivalencyReport":
        return cls(
            max_modulus=d["max_modulus"],
            argmax=_uncx(d["argmax"]),
            violations=[(_uncx(v["z"]), v["modulus"]) for v in d["violations"]],
            grid=GridSpec(tuple(d["grid"]["radii"]), d["grid"]["angles_count"]),
            critical_points=[_uncx(z) for z in d["critical_points"]],
            skipped=d["skipped"],
        )

    @classmethod
    def from_json(cls, s: str) -> "UnivalencyReport":
        return cls.from_dict(json.loads(s))


def _scan_row(spec, r, ring):
    """Moduli of the dilatation on the circle |z| = r, nan at a critical
    node, and the critical nodes.  ring holds K equispaced unit nodes in
    angular order, so Fn's orbit takes n/gcd(n, K) logs per node; r <=
    OUTER_RADIUS keeps the nodes clear of the unit-circle singularities."""
    z = r * ring
    t = term_table(spec.right)
    Hp, Gp = _derivatives(spec.a, t, z, math.gcd(t.n, len(z)))
    crit = np.abs(Hp) <= CRITICAL_TOL
    mod = np.full(len(ring), np.nan)
    mod[~crit] = np.abs(Gp[~crit] / Hp[~crit])
    return mod, [complex(w) for w in z[crit]]


def scan_dilatation(spec: ConvolutionSpec, grid: GridSpec) -> UnivalencyReport:
    """Evaluate |dilatation| at every grid node, row-major over radii then
    angles.

    Nodes where the denominator vanishes are listed as critical points and
    excluded from the max/violation statistics.  GridSpec keeps every node
    within |z| <= 0.999, clear of the unit-circle singularities, so the
    report's ``skipped`` count is always 0.
    """
    instance(spec, ConvolutionSpec, "spec")
    K = instance(grid, GridSpec, "grid").angles_count
    ring = np.exp(2j * math.pi * np.arange(K) / K)
    scanned = [_scan_row(spec, r, ring) for r in grid.radii]
    criticals = [w for _, crit in scanned for w in crit]
    M = np.concatenate([mod for mod, _ in scanned])
    valid = ~np.isnan(M)
    if np.any(valid):
        imax = int(np.nanargmax(M))
        max_modulus = float(M[imax])
        argmax = complex(grid.radii[imax // K] * ring[imax % K])
    else:
        max_modulus = float("nan")
        argmax = None
    vio = np.flatnonzero(valid & (M >= 1))
    zs = np.asarray(grid.radii)[vio // K] * ring[vio % K]
    violations = list(zip(zs.tolist(), M[vio].tolist()))
    return UnivalencyReport(max_modulus=max_modulus, argmax=argmax,
                            violations=violations, grid=grid,
                            critical_points=criticals)


# ---------------------------------------------------------------------------
# the auxiliary function J

def _f1_odd_ratios(theta, z):
    """X = D_h/h1' and Y = D_g/(u z h1') of the right F1 factor, D_h and D_g
    its odd quotients, guarded as in ``conv_derivatives``; as D_g = z^2 R_g
    (``odd_rests``), Y keeps its relative accuracy down to z = 0."""
    t = term_table(make_mapping("F1", theta=theta))
    _odd_guard(t, z)
    h1p = t.primes(z)[0]
    rh, rg = t.odd_rests(z)
    return (2 + z * z * rh) / h1p, z * rg / (t.u * h1p)


def eval_J(theta, z):
    """The analytic comparison function J = X + Y on the open disk, with X, Y
    from ``_f1_odd_ratios``; J(0) = 2.  Like F1, undefined at theta = pi."""
    arr, scalar = prepare(z)
    X, Y = _f1_odd_ratios(theta, arr)
    return finish(X + Y, scalar)


def eval_B(theta, a, z):
    """The comparison quantity whose negativity underlies the dilatation
    bound; strictly negative away from 0 for every admissible theta, a.

    B = c^2 (|Y|^2 - |X|^2) with c = (1-a)/(2(1+a)) and X, Y as in eval_J.
    """
    check_a(a)
    arr, scalar = prepare(z)
    if np.any(arr == 0):
        raise DomainError("eval_B is undefined at z = 0")
    X, Y = _f1_odd_ratios(theta, arr)
    B = ((1 - a) / (2 * (1 + a))) ** 2 * (np.abs(Y) ** 2 - np.abs(X) ** 2)
    return float(B) if scalar else B


@dataclass(frozen=True)
class JBoundaryResult:
    """Boundary value or limit of J at e^{it}.

    ``re`` is the real part (math.inf at the pole), ``case`` names the
    piecewise branch, ``value`` is the full complex value when finite.
    """
    re: float
    case: str
    value: Optional[complex]


def J_boundary(theta, t) -> JBoundaryResult:
    """J(e^{it}), s = theta + t, with Re J by the piecewise argument analysis
    and limits at the four exceptional angles; like F1, undefined only at
    theta = pi.

    With c = cos(theta/2), P = sin(t/2) sin(s/2), Q = cos(t/2) cos(s/2) =
    c - P and x = c/P, J = -2i sin(t/2) cos(s/2)/c (2 + 2D/x), where D =
    2 atanh(e^{is}) + 2 atanh(e^{it}) = log|1 - x| + i(A - B), and A - B is
    pi or -pi where sin t and sin s are both positive or both negative, else
    0.  The real part of 2 + 2D/x is -2x phi(-x) for |x| < 1/2, phi(y) =
    (y - log1p y)/y^2, and 2 + 2 log|Q/P|/x elsewhere: no term cancels, so
    the value keeps its relative accuracy as theta -> +-pi, where x -> 0
    under the 1/c."""
    th = make_mapping("F1", theta=theta).theta
    if not math.isfinite(real(t, "t")):
        raise ParameterError(f"t must be a finite number, got {t!r}")
    tau = 2 * math.pi
    tt = float(t) % tau
    tol = 1e-12

    def near(x):
        d = (tt - x) % tau
        return d < tol or tau - d < tol

    if near(0.0):
        return JBoundaryResult(0.0, "limit-z=1", 0j)
    if near(math.pi):
        if abs(th) < tol:
            return JBoundaryResult(0.0, "limit-z=-1", 0j)
        return JBoundaryResult(math.inf, "limit-z=-1", None)
    if near(math.pi - th):
        return JBoundaryResult(0.0, "limit-conj-pole", 0j)
    if near(tau - th):
        v = 4j * math.tan(th / 2)
        return JBoundaryResult(0.0, "limit-4i-tan", v)

    s = th + tt
    st, su = math.sin(tt), math.sin(s)
    if st > 0 and su > 0:
        ab, case = math.pi, "A-B=pi"
    elif st < 0 and su < 0:
        ab, case = -math.pi, "A-B=-pi"
    else:
        ab, case = 0.0, "A-B=0"
    c, P = math.cos(th / 2), math.sin(tt / 2) * math.sin(s / 2)
    re = 2 * math.sin(tt / 2) ** 2 * su / c ** 2 * ab
    x = c / P
    if abs(x) < 0.5:  # where 2 log|1 - x|/x would cancel the 2
        inner = -2 * x * float(_phi(np.float64(-x)))
    else:
        inner = 2 + 2 / x * math.log(abs(math.cos(tt / 2) * math.cos(s / 2) / P))
    pref = -2j * math.sin(tt / 2) * math.cos(s / 2) / c
    return JBoundaryResult(re, case, pref * complex(inner, 2 * ab / x))


# ---------------------------------------------------------------------------
# univalency radius

# the search's outer circle, 1 - (the least tol): its ring nodes stay 1e-6
# from the unit circle's singular points, far outside the 1e-9 guard
OUTER_RADIUS = 1 - 1e-6


def _circle_max(spec, r):
    """max |Gp/Hp| on |z| = r, inf at a critical node: the top of a 1440-node
    ring, raised by three Newton steps on phi(t) = log |omega(r e^{it})| from
    each of the ring's local maxima.  With L1 = omega'/omega and L2 = (log
    omega)'' (``_log_jets``), phi' = Re(i z L1) and phi'' = Re(-z L1 - z^2
    L2); a step is taken only where phi'' < 0 and is clipped to one ring
    step.  The result is the largest |omega| evaluated, the ring's and the
    steps', so it is a value at a point of the circle.  A ring that already
    reaches 1 is returned unrefined: a sample is a lower bound of the
    maximum, so the circle fails the search's test either way.  So is a ring
    of radius below 0.01, where the derivatives' /z forms cancel."""
    step = 2 * math.pi / 1440
    mod, crit = _scan_row(spec, r, np.exp(1j * step * np.arange(1440)))
    if crit:
        return math.inf
    top = np.max(mod)
    if top >= 1 or r < 0.01:
        return float(top)
    t = step * np.flatnonzero((mod >= np.roll(mod, 1)) & (mod > np.roll(mod, -1)))
    table = term_table(spec.right)
    for _ in range(3):
        z = r * np.exp(1j * t)
        w, L1, L2 = _log_jets(spec.a, table, z)
        top = np.max(np.abs(w), initial=top)
        d1, d2 = np.real(1j * z * L1), np.real(-z * L1 - z * z * L2)
        t = t - np.clip(np.divide(d1, d2, out=np.zeros_like(d1), where=d2 < 0),
                        -step, step)
    Hp, Gp = _derivatives(spec.a, table, r * np.exp(1j * t))
    return float(np.max(np.abs(Gp / Hp), initial=top))


def _log_or_nan(m):
    # log M(r) for the regula falsi; nan where it is not finite
    return math.log(m) if 0 < m < math.inf else math.nan


def univalency_radius(spec: ConvolutionSpec, tol: float = 1e-6) -> float:
    """Univalency radius r: max |Gp/Hp| < 1 on |z| = r and >= 1 on
    |z| = r + tol; 1.0 when the circle |z| = OUTER_RADIUS = 1 - 1e-6 passes.

    So 1.0 certifies max |Gp/Hp| < 1 on |z| = 1 - 1e-6, and by the maximum
    modulus argument below on the disk inside it; for F0 and F1 right factors
    it is also the paper's theorem, local univalence in the whole disk.

    If Hp has no zeros on |z| <= r (assumed, not checked), Gp/Hp is analytic
    there, so its maximum M(r) on |z| = r is nondecreasing by the maximum
    modulus principle, and unbounded toward a zero of Hp.  The search keeps
    a bracket [lo, hi] of [0, OUTER_RADIUS] with "no critical node and
    M < 1" at lo and not at hi, and narrows it by Illinois regula falsi on
    log M(r), each probe at least tol/2 inside the bracket.  M is a 1440-node ring's
    top raised by Newton steps from its peaks (``_circle_max``), always a
    value at a point of the circle; a ring that already reaches 1 gives its
    sample for M.  It bisects instead while log M is not finite at an end
    (M(0) is never computed) and whenever the bracket has fallen behind one
    halving per two probes, so it needs at most about twice the circles of a
    plain bisection: 43 against 21 at tol = 1e-6.
    """
    instance(spec, ConvolutionSpec, "spec")
    tol = real(tol, "tol")
    if not 1e-6 <= tol < 1:
        raise ParameterError(f"tol must lie in [1e-6, 1), got {tol!r}")
    m = _circle_max(spec, OUTER_RADIUS)
    if m < 1:
        return 1.0
    lo, hi = 0.0, OUTER_RADIUS
    y_lo, y_hi = math.nan, _log_or_nan(m)
    moved = 0  # the end the last step replaced: -1 lo, +1 hi
    steps = 0
    while hi - lo > tol:
        # regula falsi while both ends have a finite log M and the bracket
        # has kept pace with one halving per two steps (one step of grace)
        if (math.isfinite(y_lo + y_hi)
                and hi - lo <= OUTER_RADIUS * 2 ** ((1 - steps) / 2)):
            r = hi - y_hi * (hi - lo) / (y_hi - y_lo)
            r = min(max(r, lo + tol / 2), hi - tol / 2)
        else:
            r = (lo + hi) / 2
        steps += 1
        m = _circle_max(spec, r)
        # Illinois: an end kept for the second step running has its log M
        # halved, so that the next probe moves toward it
        if m < 1:
            if moved < 0:
                y_hi /= 2
            lo, y_lo, moved = r, _log_or_nan(m), -1
        else:
            if moved > 0:
                y_lo /= 2
            hi, y_hi, moved = r, _log_or_nan(m), 1
    return lo
