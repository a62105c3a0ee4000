import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from harmconv import DomainError, li2
from harmconv.special import log_principal

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


def test_log_principal_branch_convention():
    assert log_principal(1.0) == 0
    assert log_principal(-1.0) == pytest.approx(1j * math.pi)
    assert log_principal(1j) == pytest.approx(0.5j * math.pi)


def test_log_principal_rejects_zero():
    with pytest.raises(DomainError):
        log_principal(0.0)
    with pytest.raises(DomainError):
        log_principal(np.array([1.0, 0.0]))


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
