"""The univalency radius search on synthetic circle maxima, and the number of
circles it spends on real ones."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmconv import ConvolutionSpec, analysis, make_mapping, univalency_radius

TOL = 1e-6
OUTER = analysis.OUTER_RADIUS
# a plain bisection of [0, OUTER] to TOL takes 21 circles with the first one
BISECTION_CIRCLES = 1 + math.ceil(math.log2(OUTER / TOL))
SPEC = ConvolutionSpec(0.5, make_mapping("F0"))  # unused by the fakes
STEER = analysis._STEER


def search(monkeypatch, fake, top=None):
    """univalency_radius with top(r) as a circle's ring top (fake itself
    unless given) and fake(r) as its refined maximum; the answer and the
    events in order, ("ring", r) for each ring and ("refine", r) for each
    refinement."""
    top = top or fake
    events = []

    def ring(spec, r):
        events.append(("ring", r))
        return np.array([top(r)])

    def refine(spec, r, mod):
        events.append(("refine", r))
        return fake(r)

    monkeypatch.setattr(analysis, "_ring", ring)
    monkeypatch.setattr(analysis, "_refine", refine)
    return univalency_radius(SPEC, TOL), events


def check_search(fake, r, events, top=None):
    # a radius passes when fake < 1 there (so nan fails).  A ring whose top
    # reads below STEER becomes lo unrefined, so lo passes or is such a
    # steered circle; once the bracket closes, the steered los are refined
    # from the top down to one that passes, each that fails becomes hi, and
    # from then on every circle is refined.  The first circle is OUTER,
    # every later probe lies strictly inside the bracket the earlier ones
    # left, no two probes in a row are clipped to tol/2 from the same end
    # (the second bisects), and the bracket keeps a pass at lo (0 is never
    # probed) and a failure at hi
    top = top or fake

    def passes(rho):
        return fake(rho) < 1

    probes = [p for kind, p in events if kind == "ring"]
    assert events[:2] == [("ring", OUTER), ("refine", OUTER)]
    assert probes[0] == OUTER and not passes(OUTER)
    los, hi, steer, steered, clipped = [0.0], OUTER, STEER, set(), 0
    for kind, p in events[2:]:
        if kind == "ring":
            assert los[-1] < p < hi
            clip = (p == hi - TOL / 2) - (p == los[-1] + TOL / 2)
            assert not clip or clip != clipped, p
            clipped = clip
            if top(p) < steer:
                steered.add(p)
            if p in steered or passes(p):
                los.append(p)
            else:
                hi = p
        elif p in steered:  # a steered lo, refined once the bracket closed
            assert p == los[-1]
            steered.remove(p)
            if not passes(p):
                hi, steer = los.pop(), -math.inf
        lo = los[-1]
        assert (lo == 0 or passes(lo) or lo in steered) and not passes(hi)
    lo = los[-1]
    assert r == lo and hi - lo <= TOL
    assert passes(r) and not passes(r + TOL)
    assert r == 0 or ("refine", r) in events
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


def missed_band(r):
    # a ring top of power(0.7, 5) that misses the peak, reading 0.85, on a
    # band of 10 tol above the crossing, where the circle fails
    return 0.85 if 0.7 <= r < 0.7 + 10 * TOL else (r / 0.7) ** 5


@pytest.mark.parametrize("fake", [
    power(0.7, 5), power(0.95, 40), power(0.2, 1.5), power(0.998, 80),
    kinked, kinked_below, zero_then_critical, critical_first,
    step(0.4137, 0.5, 2.0), step(0.842839, 0.9, 1e6), step(0.01, 1e-3, 1.0),
    step(0.99, 0.0, math.inf), step(0.6, 0.5, math.nan),
], ids=["power-0.7-5", "power-0.95-40", "power-0.2-1.5", "power-0.998-80",
        "kinked", "kinked-below", "zero-then-critical", "critical-first",
        "step", "step-lopsided", "step-low", "step-zero-inf", "step-nan"])
def test_search_on_synthetic_maxima(monkeypatch, fake):
    r, events = search(monkeypatch, fake)
    check_search(fake, r, events)


def test_clean_circle_is_the_only_probe(monkeypatch):
    r, events = search(monkeypatch, power(1.5, 3))
    assert r == 1.0 and events == [("ring", OUTER), ("refine", OUTER)]


@pytest.mark.parametrize("top", [
    missed_band, lambda r: 0.8 * (r / 0.7) ** 5], ids=["missed-band", "low-ring"])
def test_failing_returned_circle_reopens_the_bracket(monkeypatch, top):
    # the search closes on a steered circle whose refined maximum fails: it
    # becomes hi, and the search goes on below it
    fake = power(0.7, 5)
    r, events = search(monkeypatch, fake, top)
    check_search(fake, r, events, top)
    reopened = [p for kind, p in events
                if kind == "refine" and top(p) < STEER and fake(p) >= 1]
    assert len(reopened) >= 1 and r < 0.7 <= min(reopened)


def test_missed_band_does_not_creep(monkeypatch):
    # the steered lo's log M reads far below its circle's: Illinois halves
    # it a probe at a time, and while it is far off, regula falsi lands
    # within tol/2 of hi probe after probe.  Clipped there seven times in a
    # row, one tol/2 step each, the search took 28 rings; a second clipped
    # probe in a row bisects instead
    fake = power(0.7, 5)
    r, events = search(monkeypatch, fake, missed_band)
    check_search(fake, r, events, missed_band)
    assert len([p for kind, p in events if kind == "ring"]) <= 16


@settings(max_examples=200, deadline=None, database=None)
@given(r0=st.floats(0.05, 0.999, exclude_min=True, exclude_max=True),
       k=st.floats(1, 80))
def test_search_on_random_power_laws(r0, k):
    fake = power(r0, k)
    with pytest.MonkeyPatch.context() as mp:
        r, events = search(mp, fake)
    check_search(fake, r, events)


@pytest.mark.parametrize("a,n,theta", [
    (0.5, 2, math.pi), (0.7, 10, -math.pi / 2), (-0.5, 2, math.pi / 2),
    (0.0, 40, math.pi)], ids=["n2-pi", "n10-minus-half-pi", "n2-half-pi",
                               "n40-pi"])
def test_circle_count_on_dense_ring_cases(monkeypatch, a, n, theta):
    # the cases of TestRadius::test_radius_against_dense_ring; a bisection
    # spends BISECTION_CIRCLES on each
    ring = analysis._ring
    probes = []

    def counting(spec, r):
        probes.append(r)
        return ring(spec, r)

    monkeypatch.setattr(analysis, "_ring", counting)
    univalency_radius(ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta)),
                      TOL)
    assert len(probes) <= 15


def test_only_the_returned_circle_is_refined_below_the_threshold(monkeypatch):
    # Fn n=40 theta=pi a=0: circles whose ring tops out below STEER take
    # their ring alone, and the returned circle goes through the Newton jets
    spec = ConvolutionSpec(0.0, make_mapping("Fn", n=40, theta=math.pi))
    calls = []  # (name, radius, ring top or None)

    def counting(f):
        def wrapped(*args):
            out = f(*args)
            if f.__name__ == "_ring_moduli":
                calls.append((f.__name__, args[1][0], np.max(out[1])))
            else:
                calls.append((f.__name__, np.max(np.abs(args[1])), None))
            return out
        return wrapped

    for name in ("_ring_moduli", "_log_jets"):
        monkeypatch.setattr(analysis, name, counting(getattr(analysis, name)))
    r = univalency_radius(spec, TOL)

    def jets_at(rho):
        return [c for c in calls
                if c[0] == "_log_jets" and abs(c[1] - rho) <= 1e-12]

    tops = {rho: top for name, rho, top in calls if name == "_ring_moduli"}
    steering = [rho for rho, top in tops.items() if top < STEER and rho != r]
    assert r in tops and len(steering) >= 3
    assert all(not jets_at(rho) for rho in steering)
    assert len(jets_at(r)) == 3
