"""Univalency decision machinery.

Contains a Schur-Cohn zero counter for polynomials in the unit disk, grid
scans of convolution dilatations with violation reporting, the auxiliary
function J, whose boundary values come from one closed form in which no
term cancels (the real part also from the piecewise argument analysis),
and the univalency radius out to |z| = 1 - 1e-6: the largest circle on
which |Gp/Hp| stays below 1, whose circle maximum is nondecreasing in r
while Hp has no zeros (maximum modulus principle).  The search runs in
three phases: it brackets the radius on ring tops, rings of at least 1440
nodes and eight a period of z^n, by bisection in log(1 - r); it solves
once for the point where the circle touches |Gp/Hp| = 1, by 2-D Newton on
log |Gp/Hp| from every peak of the bracket's failing ring, and returns a
radius 2^-36 below it whose circle passes (its ring's peaks raised by
Newton in angle to the circle maximum) and tol outside which one point
reaches 1; failing that, it bisects to tol on such circles.  Scan rows and
radius rings are built and evaluated by ``convolution._ring_moduli``, and
the Newton jets and point values come from ``convolution`` too; J and the
point values read a term table.
"""
import cmath
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Tuple

import numpy as np

from ._core import (MAX_RADIUS, RADIUS_SLACK, check_a, coefficients, finish,
                    instance, positive_int, prepare, real)
from ._text import json_floats
from .convolution import (ConvolutionSpec, _log_jets, _moduli, _odd_guard,
                          _ring_moduli)
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
        c = np.trim_zeros(coefficients(self.coeffs), "b")
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
    if instance(p, Poly, "p").degree < 1:
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
    end coefficients force it.  Each polynomial is scaled to a largest
    coefficient of modulus 1 before it is reduced, which leaves its zeros
    unchanged: a reduction about squares the coefficients' size, so
    unscaled they overflow or underflow within a few dozen steps.  End
    coefficients of equal modulus (to 1e-10, scaled) at a step tie, with or
    without a zero on the unit circle (zeros 0.5 and 2 tie).  A tie counts
    the zeros of q(rho z), q the polynomial of that step, at rho = 1 - 1e-6
    and 1 + 1e-6, those of q within |z| < rho: equal counts leave no zero
    between the two circles and are q's count.  BoundaryDegenerateError is
    raised when the counts differ, as for a zero on the unit circle, or
    when a step of either count ties again, as for 25 equispaced zeros on
    |z| = 0.5 and 25 on |z| = 2 (whose scaled end coefficients differ by
    1.5e-12 at rho = 1 -+ 1e-6, and tie at 1 -+ 1e-5 too).
    """
    return _cohn_count(instance(p, Poly, "p"), True)


def _cohn_count(p, retry):
    # zeros_in_unit_disk; a tie retries on the circles 1 -+ 1e-6 if retry
    d = p.degree
    if d == 0:
        return 0
    c = p.coeffs / np.max(np.abs(p.coeffs))
    a0m, adm = abs(c[0]), abs(c[-1])
    if abs(a0m - adm) <= 1e-10:
        # p(rho z) counts p's zeros in |z| < rho: if the two counts agree,
        # no zero lies between the circles
        counts = {_cohn_count(Poly(c * rho ** np.arange(d + 1)), False)
                  for rho in ((1 - 1e-6, 1 + 1e-6) if retry else ())}
        if len(counts) != 1:
            raise BoundaryDegenerateError(
                "end coefficients have equal modulus, and the circles "
                "|z| = 1 -+ 1e-6 do not settle the count")
        return counts.pop()
    if a0m < adm:
        return 1 + _cohn_count(cohn_reduce(Poly(c)), retry)
    # reversal maps zeros to reciprocals, exchanging inside and outside
    return d - _cohn_count(Poly(c[::-1].copy()), retry)


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
        if not all(0 < x <= MAX_RADIUS + RADIUS_SLACK for x in r):  # NaN fails too
            raise ParameterError(f"radii must lie in (0, {MAX_RADIUS}]")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ParameterError("radii must be strictly increasing")
        object.__setattr__(self, "angles_count",
                           positive_int(self.angles_count, "angles_count"))


def default_grid(radii_count: int = 60, angles_count: int = 720,
                 max_radius: float = MAX_RADIUS) -> GridSpec:
    """Radii from 0.05 out to max_radius, whose gaps to the unit circle
    shrink geometrically, so they accumulate toward the outer edge, where
    the interesting behaviour lives.  One radius is max_radius itself, in
    (0, MAX_RADIUS]; more need max_radius in (0.05, MAX_RADIUS], far enough
    above 0.05 that the radii stay distinct floats (about 1e-14 for 60)."""
    count, inner = positive_int(radii_count, "radii_count"), 0.05
    low = inner if count > 1 else 0
    if not low < real(max_radius, "max_radius") <= MAX_RADIUS:
        raise ParameterError(
            f"max_radius must lie in ({low}, {MAX_RADIUS}] for {count} "
            f"radii, got {max_radius!r}")
    gaps = np.geomspace(1 - inner, 1 - max_radius, count)
    radii = 1.0 - gaps
    radii[-1] = max_radius
    if np.any(np.diff(radii) <= 0):
        raise ParameterError(
            f"max_radius {max_radius!r} is too close to {inner} for {count} "
            f"radii: neighbouring radii round to the same float")
    return GridSpec(tuple(radii), angles_count)


def _cx(z):
    return None if z is None else {"re": float(z.real), "im": float(z.imag)}


def _uncx(d):
    return complex(*(real(d[k], k) for k in ("re", "im")))


# one violation as json.dumps(indent=2) writes it inside the report
_VIOLATION = """    {
      "modulus": %s,
      "z": {
        "im": %s,
        "re": %s
      }
    }"""


def _padded(text, k):
    # k rows of text, NUL-padded to whole 32-bit words
    b = text.encode() + b"\0" * (-len(text) % 4)
    return np.broadcast_to(np.frombuffer(b, "<u4"), (k, len(b) // 4))


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
        entries through a template, a row of 32-bit words per entry in one
        byte matrix, whose three floats ``_text.json_floats`` writes a
        column at a time; one ``translate`` drops the NUL padding.

        json writes a float x as ``float.__repr__``: the fewest digits q
        that read back as x, the nearest such to x.  The writer finds them
        for 1e-6 <= |x| < 1e13.  With E = floor(log10 |x|) and k = 16 - E
        <= 22, 10^k is a float, and Dekker's two-product against 10^k split
        in halves gives y = |x| 10^k = hi + lo exactly, y in [10^16, 10^17).
        hi is an even integer there, so D = hi + rint(lo) is y rounded to
        an integer, half to even, and delta = lo - rint(lo) = y - D is
        exact.  Rounding y to q < 17 digits rounds u = (D mod 10^5) + delta
        to a multiple of P = 10^(17 - q); the result reads back as x when it
        lies within half an ulp of |x| times 10^k, an exact float h, and it
        then reads back at P/10 too, so q is 17 less the number of P from 10
        to 10^5 at which it does.  17 digits always read back.  u and the
        distances are below 10^5 + 1 and carry at most a few roundings of
        about 1e-11, so each comparison is exact unless a distance lies
        within 1e-9 P of h or of P/2.

        json's own encoder writes, one entry at a time: zero, NaN and the
        infinities; |x| outside [1e-6, 1e13), subnormals included; powers
        of two, whose ulp below is half the one above; a rounding within
        1e-9 P of half an ulp, or of a tie between two roundings that both
        read back; x whose exponent ``log10`` misjudges, within an ulp or
        so of a power of ten; and x of 12 digits or fewer.  A point that is
        not a complex or a modulus that is not a float, such as an int that
        prints as an int or a list that json nests and indents, sends the
        whole report to json."""
        zs = list(map(itemgetter(0), self.violations))
        ms = list(map(itemgetter(1), self.violations))
        if not set(map(type, zs)) <= {complex} or not set(map(type, ms)) <= {float}:
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)
        head = json.dumps(self._summary(), indent=2, sort_keys=True)[:-2]
        if not self.violations:
            return head + ',\n  "violations": []\n}'
        k = len(self.violations)
        z, m = np.fromiter(zs, complex, k), np.fromiter(ms, float, k)
        # an entry is ",\n" a %s b %s c %s d, its modulus, im and re in the
        # slots; each piece is NUL-padded to whole 32-bit words
        pieces = _VIOLATION.split("%s")
        pieces[0] = ",\n" + pieces[0]
        parts = []
        for piece, x in zip(pieces, (m, z.imag, z.real)):
            parts += [_padded(piece, k), json_floats(x)]
        parts.append(_padded(pieces[-1], k))
        head = _padded(head + ',\n  "violations": [', 1).tobytes()
        tail = b"\n  ]\n}"
        width = sum(p.shape[1] for p in parts)
        text = bytearray(len(head) + 4 * k * width + len(tail))
        text[:len(head)], text[-len(tail):] = head, tail
        body = np.frombuffer(text, "<u4", k * width, len(head)).reshape(k, width)
        np.concatenate(parts, axis=1, out=body)
        body[0, 0] ^= ord(",")  # the first entry follows "[" directly
        return text.translate(None, b"\0").decode("ascii")

    @classmethod
    def from_dict(cls, d: dict) -> "UnivalencyReport":
        """The report ``to_dict`` wrote; ParameterError for a missing key or
        a value of the wrong type (numbers real, ``skipped`` an int >= 0)."""
        try:
            if type(d["skipped"]) is not int or d["skipped"] < 0:  # no bool
                raise ParameterError(f"skipped must be an int >= 0: {d['skipped']!r}")
            return cls(
                max_modulus=real(d["max_modulus"], "max_modulus"),
                argmax=None if d["argmax"] is None else _uncx(d["argmax"]),
                violations=[(_uncx(v["z"]), real(v["modulus"], "modulus"))
                            for v in d["violations"]],
                grid=GridSpec(tuple(d["grid"]["radii"]), d["grid"]["angles_count"]),
                critical_points=[_uncx(z) for z in d["critical_points"]],
                skipped=d["skipped"],
            )
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"not a report dict: {exc!r}") from None

    @classmethod
    def from_json(cls, s: str) -> "UnivalencyReport":
        """The report ``to_json`` wrote; ParameterError for text that is not
        JSON or not a report."""
        try:
            d = json.loads(s)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"not report JSON: {exc}") from None
        return cls.from_dict(d)


def scan_dilatation(spec: ConvolutionSpec, grid: GridSpec) -> UnivalencyReport:
    """Evaluate |dilatation| at every grid node, row-major over radii then
    angles.

    The rows are the rings of ``convolution._ring_moduli``, the radii
    times the unit ring, and the critical points, the argmax and the
    violations are read from its nodes and moduli.  Nodes where
    the denominator vanishes are listed as critical points and excluded
    from the max/violation statistics.  GridSpec keeps every node within
    |z| <= MAX_RADIUS, clear of the unit-circle singularities, so the
    report's ``skipped`` count is always 0.
    """
    instance(spec, ConvolutionSpec, "spec")
    K = instance(grid, GridSpec, "grid").angles_count
    z, M = (x.ravel() for x in _ring_moduli(spec, grid.radii, K))
    criticals = z[np.isinf(M)].tolist()
    M[~np.isfinite(M)] = -1  # critical nodes: out of the max and violations
    imax = int(np.argmax(M))
    max_modulus, argmax = float("nan"), None
    if M[imax] >= 0:
        max_modulus, argmax = float(M[imax]), complex(z[imax])
    vio = np.flatnonzero(M >= 1)
    violations = list(zip(z[vio].tolist(), M[vio].tolist()))
    return UnivalencyReport(max_modulus=max_modulus, argmax=argmax,
                            violations=violations, grid=grid,
                            critical_points=criticals)


# ---------------------------------------------------------------------------
# the auxiliary function J

PI_LO = 1.2246467991473532e-16  # pi - float(pi): pi + PI_LO is pi to 1e-32


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
    under the 1/c.  With s = k pi + sigma, |sigma| <= pi/2, sigma rounded once
    from theta + t - k (pi + PI_LO), e^{is/2} = i^k e^{i sigma/2} keeps its
    relative accuracy at s = 0, pi (J's zero) and 2 pi, unlike a rounded s."""
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

    k = round((th + tt) / math.pi)
    sigma = math.fsum((th, tt, -k * math.pi, -k * PI_LO))
    half = 1j ** k * complex(math.cos(sigma / 2), math.sin(sigma / 2))
    st, su = math.sin(tt), (-1) ** k * math.sin(sigma)  # su = sin s
    if st > 0 and su > 0:
        ab, case = math.pi, "A-B=pi"
    elif st < 0 and su < 0:
        ab, case = -math.pi, "A-B=-pi"
    else:
        ab, case = 0.0, "A-B=0"
    sin_t, cos_t = math.sin(tt / 2), math.cos(tt / 2)
    c, P = math.cos(th / 2), sin_t * half.imag
    re = 2 * sin_t ** 2 * su / c ** 2 * ab
    x = c / P
    if abs(x) < 0.5:  # where 2 log|1 - x|/x would cancel the 2
        inner = -2 * x * float(_phi(np.float64(-x)))
    else:
        inner = 2 + 2 / x * math.log(abs(cos_t * half.real / P))
    pref = -2j * sin_t * half.real / c
    return JBoundaryResult(re, case, pref * complex(inner, 2 * ab / x))


# ---------------------------------------------------------------------------
# univalency radius

# the search's outer circle, 1 - (the least tol): its ring nodes stay 1e-6
# from the unit circle's singular points, far outside the 1e-9 guard
OUTER_RADIUS = 1 - 1e-6

# the bracket hands over to the tangency solve once its failing end's ring
# tops out at 1.25 or less
_NEAR = 1.25

# Newton steps of either solve, at most.  A tangency has converged once its
# steps in r and t are at most _STEP_TOL, which leaves about _STEP_TOL^2
# (1e-18) to go, and the returned radius lies _MARGIN below it, well above
# that and the rounding of log |omega|.  A circle maximum's Newton ends with
# a step that raises log |omega| by at most _RISE_TOL
_STEPS = 10
_STEP_TOL = 2.0 ** -30
_MARGIN = 2.0 ** -36
_RISE_TOL = 2.0 ** -26


def _ring(spec, r):
    # |Gp/Hp| on the ring of |z| = r: K = n ceil(max(1440, 8n)/n) nodes
    n = spec.right.n or 1
    return _ring_moduli(spec, (r,), n * -(-max(1440, 8 * n) // n))[1][0]


def _peaks(mod):
    # the angles of the local maxima of a ring's moduli (the ring closes),
    # each at the vertex of the parabola through it and its two neighbours
    wrapped = np.concatenate((mod[-1:], mod, mod[:1]))
    k = np.flatnonzero((mod >= wrapped[:-2]) & (mod > wrapped[2:]))
    left, mid, right = wrapped[k], mod[k], wrapped[k + 2]
    shift = (left - right) / (2 * (left - 2 * mid + right))  # in [-1/2, 1/2]
    return 2 * math.pi / len(mod) * (k + shift)


def _phi_jets(spec, r, t):
    """|omega| and the partial derivatives phi_t, phi_tt, phi_r and phi_rt of
    phi = log |omega| at the points r e^{it}.  With L1 = omega'/omega and
    L2 = (log omega)'' (``_log_jets``): phi_t = Re(i z L1), phi_tt =
    Re(-z L1 - z^2 L2), phi_r = Re(z L1)/r and phi_rt = Re(i (z L1 + z^2
    L2))/r."""
    z = r * np.exp(1j * t)
    w, L1, L2 = _log_jets(spec, z)
    zL1, z2L2 = z * L1, z * z * L2
    return (np.abs(w), np.real(1j * zL1), np.real(-zL1 - z2L2),
            np.real(zL1) / r, np.real(1j * (zL1 + z2L2)) / r)


def _refine(spec, r, mod):
    """The top of the moduli ``mod`` of the ring of |z| = r (``_ring``),
    raised by Newton steps on phi(t) = log |omega(r e^{it})| from each of
    the ring's peaks (``_peaks``, ``_phi_jets``): a step is taken only where
    phi_tt < 0 and is clipped to one ring step.  A peak's steps go on until
    the next would raise phi by at most _RISE_TOL (at most _STEPS of them),
    and that last step is taken and valued by omega alone, which leaves it
    about _RISE_TOL^2 below its peak.  The result is the largest |omega| of
    the ring and of the iterates, so it is a value at a point of the
    circle.  A ring that already reaches 1 is returned unrefined: a sample
    is a lower bound of the maximum, so the circle fails the search's test
    either way.  So is a ring of radius below 0.01, where the derivatives'
    /z forms cancel."""
    step = 2 * math.pi / len(mod)
    top = np.max(mod)
    if top >= 1 or r < 0.01:
        return float(top)
    t, settled = _peaks(mod), []
    for _ in range(_STEPS):
        w, ft, ftt = _phi_jets(spec, r, t)[:3]
        top = np.max(w, initial=top)
        dt = np.clip(np.divide(ft, ftt, out=np.zeros_like(ft), where=ftt < 0),
                     -step, step)
        rising = -ft * dt > 2 * _RISE_TOL  # the step's rise is about -ft dt/2
        t = t - dt
        settled.append(t[~rising])
        t = t[rising]
        if not len(t):
            break
    z = r * np.exp(1j * np.concatenate(settled + [t]))
    return float(np.max(_moduli(spec, z), initial=top))


def _circle_max(spec, r):
    """max |Gp/Hp| on |z| = r, inf at a critical node: the top of a ring of
    K = n ceil(max(1440, 8n)/n) nodes (n = 1 for F0 and F1), eight or more
    a period 2 pi/n of z^n and a multiple of n, so that Fn's orbit is one
    rotation class (``_ring_moduli``), refined by Newton from its peaks
    (``_refine``)."""
    return _refine(spec, r, _ring(spec, r))


def _tangency(spec, hi, mod):
    """(r*, t*): the least radius r* in (0, hi) at which the circle |z| = r*
    touches the level set |omega| = 1, at z = r* e^{it*}, or None.

    It solves phi = 0 and phi_t = 0 for phi(r, t) = log |omega(r e^{it})|
    by 2-D Newton (``_phi_jets``), from (hi, t) at every peak t of the
    moduli ``mod`` of the ring of |z| = hi (``_peaks``) at once, one
    ``_log_jets`` call a step.  Each iterate's r is clipped to [0, hi], and
    its step in t to an eighth of a period 2 pi/n of z^n.  A seed drops out
    when its iterate is not finite or not at a peak of its circle (phi_tt
    >= 0), when it is clipped a second time (its tangency lies beyond the
    bracket), or after _STEPS steps.  It has converged when its steps in r
    and t are at most _STEP_TOL, to a point strictly inside (0, hi) at a
    peak of the circle (phi_tt < 0) where phi grows with r (phi_r > 0);
    Newton's quadratic convergence then leaves r about _STEP_TOL^2 from the
    tangency.  r* is the least converged radius."""
    step = math.pi / 4 / (spec.right.n or 1)
    t = _peaks(mod)
    r = np.full_like(t, hi)
    held = np.zeros(len(t), bool)  # clipped once already
    found = []
    with np.errstate(all="ignore"):  # a seed gone astray is dropped below
        for _ in range(_STEPS):
            w, ft, ftt, fr, frt = _phi_jets(spec, r, t)
            phi, det = np.log(w), fr * ftt - ft * frt
            dr, dt = (ft * ft - phi * ftt) / det, (frt * phi - fr * ft) / det
            t = t + np.clip(dt, -step, step)
            new = np.clip(r + dr, 0.0, hi)
            done = ((np.maximum(abs(dr), abs(dt)) <= _STEP_TOL) & (ftt < 0)
                    & (fr > 0) & (0 < new) & (new < hi))
            found += zip(new[done].tolist(), t[done].tolist())
            clipped = new != r + dr
            live = ~done & ~(clipped & held) & (ftt < 0) & np.isfinite(new + t)
            r, t, held = new[live], t[live], (held | clipped)[live]
            if not len(r):
                break
    return min(found, default=None)


def _bracket(spec, mod, tol):
    """(lo, hi, mod): a bracket of the radius narrowed on ring tops alone
    from (0, OUTER_RADIUS), whose ring moduli are ``mod``.  hi's ring tops
    out at 1 or more, lo's below 1 (0 is never probed), and ``mod`` is hi's
    ring.  Each probe bisects log(1 - r), the scale of every feature of
    omega near |z| = 1, at r = 1 - sqrt((1 - lo)(1 - hi)), strictly inside
    the bracket.  It stops once hi's ring tops out at 1.25 or less, or hi -
    lo <= tol."""
    lo, hi = 0.0, OUTER_RADIUS
    while hi - lo > tol and not np.max(mod) <= _NEAR:
        r = 1 - math.sqrt((1 - lo) * (1 - hi))
        ring = _ring(spec, r)
        if np.max(ring) < 1:
            lo = r
        else:
            hi, mod = r, ring
    return lo, hi, mod


def univalency_radius(spec: ConvolutionSpec, tol: float = 1e-6) -> float:
    """Univalency radius r: max |Gp/Hp| < 1 on |z| = r and >= 1 on
    |z| = r + tol; 1.0 when the circle |z| = OUTER_RADIUS = 1 - 1e-6 passes.

    So 1.0 certifies max |Gp/Hp| < 1 on |z| = 1 - 1e-6, and by the maximum
    modulus argument below on the disk inside it; for F0 and F1 right factors
    it is also the paper's theorem, local univalence in the whole disk.

    If Hp has no zeros on |z| <= r (assumed, not checked), Gp/Hp is analytic
    there, so its maximum M(r) on |z| = r is nondecreasing by the maximum
    modulus principle, and unbounded toward a zero of Hp.  A circle passes
    when M(r) < 1, M(r) its ring's top raised by Newton from the ring's
    peaks (``_circle_max``), a value at a point of the circle.

    The search runs in three phases.
    1. Bracket: [lo, hi] is narrowed on ring tops alone by bisection in
       log(1 - r) (``_bracket``) until hi's ring tops out at 1.25 or less,
       or hi - lo <= tol.
    2. Tangency, once, if hi - lo > tol: from every peak of hi's ring it
       solves for (r*, t*), where |z| = r* touches |Gp/Hp| = 1
       (``_tangency``).  As |Gp/Hp| = 1 at r* e^{it*}, the radius is at
       most r*, and it is r* at the winning peak.  The candidate r = r* -
       _MARGIN (2^-36) is returned if |Gp/Hp| >= 1 at the one point
       (r + tol) e^{it*}, so that the circle r + tol fails, and r's own
       circle passes.  A candidate whose circle fails becomes hi.
    3. Fallback, bisection to tol on circles: it starts from lo if lo < hi
       and lo's circle passes, else from 0.  lo passes (or is 0), hi
       fails, and lo is returned.
    So r always passes and r + tol always fails.  The benchmark's four Fn
    radii take 2-8 rings and 5-7 ``_log_jets`` calls, and no fallback.
    """
    instance(spec, ConvolutionSpec, "spec")
    tol = real(tol, "tol")
    if not 1e-6 <= tol < 1:
        raise ParameterError(f"tol must lie in [1e-6, 1), got {tol!r}")
    mod = _ring(spec, OUTER_RADIUS)
    if _refine(spec, OUTER_RADIUS, mod) < 1:
        return 1.0
    lo, hi, mod = _bracket(spec, mod, tol)
    found = _tangency(spec, hi, mod) if hi - lo > tol else None
    if found is not None:
        r, t = found[0] - _MARGIN, found[1]
        z = (r + tol) * cmath.exp(1j * t)
        if r + tol >= hi or _moduli(spec, np.array([z]))[0] >= 1:
            if _circle_max(spec, r) < 1:
                return r
            hi = r
    if lo >= hi:
        lo = 0.0
    elif lo > 0 and not _circle_max(spec, lo) < 1:
        lo, hi = 0.0, lo
    while hi - lo > tol:
        r = (lo + hi) / 2
        if _circle_max(spec, r) < 1:
            lo = r
        else:
            hi = r
    return lo
