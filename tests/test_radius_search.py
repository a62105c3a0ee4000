"""The univalency radius search on synthetic circle maxima, and the number of
circles it spends on real ones."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from harmconv import ConvolutionSpec, analysis, make_mapping, univalency_radius

TOL = 1e-6
OUTER = analysis.OUTER_RADIUS
# a plain bisection of [0, OUTER] to TOL takes 21 circles with the first one
BISECTION_CIRCLES = 1 + math.ceil(math.log2(OUTER / TOL))
SPEC = ConvolutionSpec(0.5, make_mapping("F0"))  # unused by the fakes


def search(monkeypatch, fake):
    """univalency_radius with fake(r) as the circle maximum; the answer and
    the probed radii in order."""
    probes = []

    def circle_max(spec, r):
        probes.append(r)
        return fake(r)

    monkeypatch.setattr(analysis, "_circle_max", circle_max)
    return univalency_radius(SPEC, TOL), probes


def check_search(fake, r, probes):
    # a radius passes when fake < 1 there (so nan fails); the first circle
    # is OUTER, every later probe lies strictly inside the bracket the
    # earlier ones left, and the bracket keeps a pass at lo (0 is never
    # probed) and a failure at hi
    def passes(rho):
        return fake(rho) < 1

    assert probes[0] == OUTER and not passes(OUTER)
    lo, hi = 0.0, OUTER
    for p in probes[1:]:
        assert lo < p < hi
        if passes(p):
            lo = p
        else:
            hi = p
        assert (lo == 0 or passes(lo)) and not passes(hi)
    assert r == lo and hi - lo <= TOL
    assert passes(r) and not passes(r + TOL)
    assert len(probes) <= 2 * BISECTION_CIRCLES


def power(r0, k):
    return lambda r: (r / r0) ** k


def kinked(r):
    # two lobes: the slow one crosses 1 first, the steep one takes over
    # above the crossing
    return max(0.95 * (r / 0.6) ** 0.5, (r / 0.75) ** 30)


def kinked_below(r):
    # a steep lobe levels off at 0.9 below the crossing, where a flat one
    # takes over and crosses 1
    return max(0.9 * min(1.0, (r / 0.5) ** 40), (r / 0.8) ** 2)


def zero_then_critical(r):
    # M = 0 on small circles and inf from a critical radius on
    if r < 0.3:
        return 0.0
    return math.inf if r >= 0.9 else (r / 0.8) ** 10


def critical_first(r):
    # a critical node appears before M reaches 1
    if r < 0.3:
        return 0.0
    return math.inf if r >= 0.7 else (r / 0.9) ** 3


def step(r0, below, above):
    return lambda r: below if r < r0 else above


@pytest.mark.parametrize("fake", [
    power(0.7, 5), power(0.95, 40), power(0.2, 1.5), power(0.998, 80),
    kinked, kinked_below, zero_then_critical, critical_first,
    step(0.4137, 0.5, 2.0), step(0.842839, 0.9, 1e6), step(0.01, 1e-3, 1.0),
    step(0.99, 0.0, math.inf), step(0.6, 0.5, math.nan),
], ids=["power-0.7-5", "power-0.95-40", "power-0.2-1.5", "power-0.998-80",
        "kinked", "kinked-below", "zero-then-critical", "critical-first",
        "step", "step-lopsided", "step-low", "step-zero-inf", "step-nan"])
def test_search_on_synthetic_maxima(monkeypatch, fake):
    r, probes = search(monkeypatch, fake)
    check_search(fake, r, probes)


def test_clean_circle_is_the_only_probe(monkeypatch):
    r, probes = search(monkeypatch, power(1.5, 3))
    assert r == 1.0 and probes == [OUTER]


@settings(max_examples=200, deadline=None, database=None)
@given(r0=st.floats(0.05, 0.999, exclude_min=True, exclude_max=True),
       k=st.floats(1, 80))
def test_search_on_random_power_laws(r0, k):
    fake = power(r0, k)
    with pytest.MonkeyPatch.context() as mp:
        r, probes = search(mp, fake)
    check_search(fake, r, probes)


@pytest.mark.parametrize("a,n,theta", [
    (0.5, 2, math.pi), (0.7, 10, -math.pi / 2), (-0.5, 2, math.pi / 2),
    (0.0, 40, math.pi)], ids=["n2-pi", "n10-minus-half-pi", "n2-half-pi",
                               "n40-pi"])
def test_circle_count_on_dense_ring_cases(monkeypatch, a, n, theta):
    # the cases of TestRadius::test_radius_against_dense_ring; a bisection
    # spends BISECTION_CIRCLES on each
    circle_max = analysis._circle_max
    probes = []

    def counting(spec, r):
        probes.append(r)
        return circle_max(spec, r)

    monkeypatch.setattr(analysis, "_circle_max", counting)
    univalency_radius(ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta)),
                      TOL)
    assert len(probes) <= 15
