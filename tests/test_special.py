import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from harmconv import DomainError, li2
from harmconv.special import _CHI_SERIES, _chi2, _log

PI2_6 = math.pi ** 2 / 6
SETTINGS = settings(max_examples=200, deadline=None, database=None)


def polar(r, t):
    return r * complex(math.cos(t), math.sin(t))


def max_rel_error(z):
    """Largest relative error of li2 against 40-digit mpmath on z."""
    mp = pytest.importorskip("mpmath")
    got = li2(z)
    with mp.workdps(40):
        return max(float(abs(mp.mpc(g) - ref) / abs(ref)) for g, ref in
                   zip(got, (mp.polylog(2, mp.mpc(w)) for w in z)))


def test_li2_pinned_values():
    assert li2(0.0) == 0
    assert abs(li2(1.0) - PI2_6) < 1e-15
    assert abs(li2(-1.0) + PI2_6 / 2) < 1e-15
    # Li2(1/2) = pi^2/12 - ln(2)^2/2
    assert abs(li2(0.5) - (PI2_6 / 2 - math.log(2) ** 2 / 2)) < 1e-15


def test_li2_matches_naive_series_inside_half_disk():
    rng = np.random.default_rng(7)
    z = 0.5 * np.sqrt(rng.uniform(size=200)) * np.exp(
        2j * math.pi * rng.uniform(size=200))
    k = np.arange(1, 260)
    naive = np.array([np.sum(w ** k / k ** 2) for w in z])  # tail < 1e-15
    assert np.max(np.abs(li2(z) - naive)) < 1e-13


def test_li2_conjugation_symmetry():
    rng = np.random.default_rng(8)
    z = np.sqrt(rng.uniform(size=500)) * np.exp(
        2j * math.pi * rng.uniform(size=500))
    assert np.max(np.abs(li2(np.conj(z)) - np.conj(li2(z)))) < 1e-13


def test_li2_landen_identity():
    # z/(z-1) stays in the closed disk only for Re z <= 1/2, so sample there
    rng = np.random.default_rng(9)
    pts = []
    while len(pts) < 500:
        z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        if abs(z) <= 0.95 and z.real <= 0.5:
            pts.append(z)
    z = np.array(pts)
    lhs = li2(z) + li2(z / (z - 1)) + 0.5 * np.log(1 - z) ** 2
    assert np.max(np.abs(lhs)) < 1e-12


def test_li2_boundary_against_reference():
    mp = pytest.importorskip("mpmath")
    t = np.linspace(0.05, 2 * math.pi - 0.05, 40)
    z = np.exp(1j * t)
    ref = np.array([complex(mp.polylog(2, complex(w))) for w in z])
    assert np.max(np.abs(li2(z) - ref)) < 1e-10


def test_li2_interior_against_reference():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(10)
    z = (1 - 1e-6) * np.sqrt(rng.uniform(size=100)) * np.exp(
        2j * math.pi * rng.uniform(size=100))
    ref = np.array([complex(mp.polylog(2, complex(w))) for w in z])
    assert np.max(np.abs(li2(z) - ref)) < 1e-13


def test_li2_clamps_roundoff_and_rejects_outside():
    # just outside the circle from roundoff is tolerated
    li2((1 + 5e-13) * np.exp(0.3j))
    with pytest.raises(DomainError):
        li2(1.01)
    with pytest.raises(DomainError):
        li2(np.array([0.2, 1.5j]))


def test_li2_region_seams_are_continuous():
    # values on either side of the internal routing boundaries must agree
    for z0, d in [(0.5 * np.exp(0.4j), 1e-9), (0.5 + 0.6j, 1e-9j)]:
        lo = li2(z0 - d)
        hi = li2(z0 + d)
        assert abs(lo - hi) < 1e-7


def test_li2_relative_accuracy_at_tiny_and_subnormal_z():
    rng = np.random.default_rng(11)
    k = np.linspace(1, 300, 300)
    z = 10.0 ** -k * np.exp(2j * math.pi * rng.uniform(size=k.size))
    z = np.concatenate([z, [1.2e-313 + 1.87e-313j, 5e-324, -5e-324j,
                            2.2e-308 - 1e-320j]])
    assert max_rel_error(z) <= 1e-15


def test_li2_relative_accuracy_near_one_and_across_the_seam():
    rng = np.random.default_rng(12)
    d = np.logspace(-16, -1, 100)
    near_one = np.concatenate([
        1 - d * np.exp(1j * rng.uniform(-1.5, 1.5, size=d.size)),
        np.exp(1j * d), (1 - d) * np.exp(-1j * d), [1.0]])
    y = rng.uniform(-math.sqrt(0.75), math.sqrt(0.75), size=50)
    half = np.full(y.size, 0.5)
    seam = np.concatenate([np.nextafter(half, 0) + 1j * y, half + 1j * y,
                           np.nextafter(half, 1) + 1j * y,
                           [np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)]])
    assert max_rel_error(near_one) <= 1e-15
    assert max_rel_error(seam) <= 1e-15


@SETTINGS
@given(r=st.floats(0, 1), t=st.floats(-math.pi, math.pi))
def test_li2_landen_identity_on_the_closed_left_half_disk(r, t):
    # Re z <= 1/2 on the closed disk keeps z/(z-1) in the disk; a point
    # right of it is mirrored in the imaginary axis
    z = polar(r, t)
    if z.real > 0.5:
        z = -z.conjugate()
    lhs = li2(z) + li2(z / (z - 1)) + 0.5 * np.log(1 - z) ** 2
    assert abs(lhs) < 1e-14


@SETTINGS
@given(r=st.floats(1e-300, 1), t=st.floats(-math.pi / 3, math.pi / 3))
def test_li2_reflection_identity(r, t):
    # |t| <= pi/3 keeps 1 - z in the disk too; with z <-> 1 - z this
    # covers every z where both sides are evaluated on the disk
    z = polar(r, t)
    assume(z != 1)
    rhs = PI2_6 - np.log(z) * np.log(1 - z)
    assert abs(li2(z) + li2(1 - z) - rhs) < 1e-14


def test_log_against_mpmath_with_numpys_branch_cut():
    # log|w| + i arg w on |w| from 1e-3 to 1e3, dense in [0.7, 1.5] (where
    # np.log's complex loop takes its exact slow path), within 4 eps of
    # max(1, |log w|); |w|^2 would leave the floats at 1e+-200, |w| does
    # not; on the negative real axis the sign of a zero imaginary part
    # picks the side of the cut, as in np.log
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(13)
    mod = np.concatenate([np.exp(rng.uniform(-math.log(1e3), math.log(1e3), 1000)),
                          rng.uniform(0.7, 1.5, 2000)])
    w = mod * np.exp(1j * rng.uniform(-math.pi, math.pi, mod.size))
    above, below = np.zeros((2, 41), complex)
    above.real = below.real = -np.geomspace(1e-3, 1e3, 41)
    below.imag = -0.0
    w = np.concatenate([w, [1e200 * np.exp(1j), 1e-200 * np.exp(-2j)],
                        above, below, [1, -1, 1j, -1j, 0.7, 1.5]])
    got = _log(w)
    assert np.array_equal(np.signbit(got.imag), np.signbit(np.log(w).imag))
    assert np.all(got[-88:-47].imag == math.pi)
    assert np.all(got[-47:-6].imag == -math.pi)
    with mp.workdps(50):
        # mpmath has no signed zero: below the cut is the conjugate of above
        ref = [mp.log(mp.mpc(v.real, abs(v.imag))) for v in w]
        ref = [mp.conj(r) if math.copysign(1, v.imag) < 0 else r
               for r, v in zip(ref, w)]
        err = np.array([float(abs(mp.mpc(g) - r)) for g, r in zip(got, ref)])
    eps = np.finfo(float).eps
    assert np.all(err <= 4 * eps * np.maximum(1, np.abs(got)))


@pytest.mark.parametrize("w", [np.float64(0.3), 2.0, np.array([0.5, 1.0, 7.0])],
                         ids=["float64", "float", "array"])
def test_log_of_real_input_is_real(w):
    # a real argument keeps np.log's real loop: no complex result, which a
    # caller storing into a real array would reject
    got = _log(w)
    assert not np.iscomplexobj(got)
    assert np.array_equal(got, np.log(w))


def chi2_seam(phi):
    """The radius on the ray e^{i phi}, 0 <= phi < pi/2, where |2 atanh x| =
    |log x|: the first grows with |x| and the second falls (bisection)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        x = mid * complex(math.cos(phi), math.sin(phi))
        lo, hi = (mid, hi) if abs(2 * np.arctanh(x)) < abs(np.log(x)) else (lo, mid)
    return lo


def chi2_points():
    # the disk, the circles |x| = 0.999 and |x| = 1 (+-1 excluded), the
    # small and the named points, and both sides of the seam where the
    # series in tau hands over to Landen's identity
    rng = np.random.default_rng(32)
    disk = np.sqrt(rng.uniform(size=400)) * np.exp(2j * math.pi * rng.uniform(size=400))
    inner = 0.999 * np.exp(2j * math.pi * np.arange(201) / 201)
    unit = np.exp(1j * math.pi * np.arange(1, 64) / 32)
    unit = unit[np.abs(unit.real) < 1]
    named = np.array([1e-8 + 1e-9j, 1e-300, 3e-12j, 1j, -1j, 0.999, -0.999])
    seam = [r * f * complex(math.cos(phi), math.sin(phi))
            for phi in (0, 0.3, 0.8, 1.2, 1.5) for r in [chi2_seam(phi)]
            for f in (1 - 1e-3, 1 - 1e-12, 1 + 1e-12, 1 + 1e-3)]
    seam = np.array(seam)
    return np.concatenate([disk, inner, unit, named, seam, -seam, seam.conj()])


def test_chi2_against_mpmath():
    # (Li2(x) - Li2(-x))/2 at 40 digits, within 4 eps relative: 4.9e-16
    # measured on the disk, where Landen's identity subtracts from pi^2/8,
    # and at most 4.1e-16 on the circles and at the seam
    mp = pytest.importorskip("mpmath")
    x = chi2_points()
    got = _chi2(x)
    with mp.workdps(40):
        ref = [(mp.polylog(2, v) - mp.polylog(2, -v)) / 2
               for v in map(mp.mpc, x)]
        err = np.array([float(abs(mp.mpc(g) - r) / abs(r)) for g, r in zip(got, ref)])
    assert err.max() <= 4 * np.finfo(float).eps


def test_chi2_is_odd_bit_for_bit():
    # x is folded onto Re x >= 0, so -x lands on the same point and the
    # result is negated exactly, signed zeros included
    zeros = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])
    signed = np.array([complex(a, b) for a in (0.0, -0.0, 0.5) for b in (0.5, -0.5, 0.0, -0.0)])
    x = np.concatenate([chi2_points(), zeros, signed])
    assert (-_chi2(x)).tobytes() == _chi2(-x).tobytes()


def test_chi2_of_real_input_is_real():
    x = np.concatenate([np.linspace(-0.999, 0.999, 2001), [1e-300, -1e-300, math.sqrt(2) - 1]])
    got = _chi2(x)
    assert np.all(got.imag == 0)
    # against the plain series where 400 terms leave a tail below 1e-70
    inside = np.abs(x) <= 0.8
    k = 2 * np.arange(400) + 1
    naive = np.array([np.sum(v ** k / k ** 2) for v in x[inside]])
    assert np.max(np.abs(got.real[inside] - naive)) < 1e-15


def test_chi2_at_zero_is_zero_without_a_warning():
    # rays start at z = 0, and the suite turns warnings into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _chi2(0) == 0
        assert np.all(_chi2(np.zeros(3, complex)) == 0)


def test_chi2_point_alone_has_its_bits_in_a_block():
    # a value-route block holds at most 8,192 chi_2 arguments; each point
    # has the bits it has alone, on either route
    rng = np.random.default_rng(33)
    x = 0.999 * np.sqrt(rng.uniform(size=8192)) * np.exp(
        2j * math.pi * rng.uniform(size=8192))
    got = _chi2(x)
    pick = rng.choice(x.size, 64, replace=False)
    assert np.array_equal(got[pick], [_chi2(x[i:i + 1])[0] for i in pick])
    assert np.array_equal(got[pick], [_chi2(x[i]) for i in pick])


def test_chi2_series_coefficients_against_exact_rationals():
    # a_k/(2(2k+1)), a_k = -(2^2k - 2) B_2k/(2k)! the coefficients of
    # sigma/sinh sigma, from Bernoulli numbers in exact rationals; the
    # kernel's float recurrence keeps them within 3e-15
    count = len(_CHI_SERIES)
    bern = [Fraction(1)]
    for m in range(1, 2 * count - 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    exact = [-(2 ** (2 * k) - 2) * bern[2 * k] / math.factorial(2 * k) / (4 * k + 2)
             for k in range(count)]
    assert count == 26
    for got, want in zip(_CHI_SERIES, exact):
        assert abs(Fraction(float(got)) - want) <= 4e-15 * abs(want)
