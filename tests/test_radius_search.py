"""The univalency radius search on synthetic circle maxima, and the rings and
Newton jets it spends on real ones."""
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


def crossing(fake, lo, hi):
    """The least radius in (lo, hi] whose circle fails, to the last float by
    bisection, or None unless lo passes and hi fails."""
    if not (fake(lo) < 1 and not fake(hi) < 1):
        return None
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        lo, hi = (mid, hi) if fake(mid) < 1 else (lo, mid)


def off_by(shift):
    # a tangency step that returns the true crossing shifted by shift tol,
    # or halfway to the bracket's end where that lies closer
    def wrong(fake, lo, hi):
        c = crossing(fake, lo, hi)
        if c is None:
            return None
        return min(c + shift * TOL, (c + hi) / 2) if shift > 0 else \
            max(c + shift * TOL, (lo + c) / 2)
    return wrong


# fake tangency steps, given the fake circle maximum and the bracket: the
# true crossing, one 30 tol too high or too low, or nothing
TANGENCIES = {
    "true": crossing, "high": off_by(30), "low": off_by(-30),
    "none": lambda fake, lo, hi: None,
}


def search(monkeypatch, fake, tangency="true", top=None):
    """univalency_radius with top(r) as a circle's ring top (fake itself
    unless given), fake(r) as its refined maximum and as |omega| at any
    point of it, and the tangency step of TANGENCIES[tangency] on (0, hi];
    the answer and the events in order: ("ring", r), ("refine", r),
    ("tangency", hi) and ("point", |z|)."""
    top = top or fake
    events = []

    def ring(spec, r):
        events.append(("ring", r))
        return np.array([top(r)])

    def refine(spec, r, mod):
        events.append(("refine", r))
        return fake(r)

    def tangent(spec, hi, mod):
        events.append(("tangency", hi))
        r = TANGENCIES[tangency](fake, 0.0, hi)
        return None if r is None else (r, 0.0)

    def moduli(spec, z):
        events.extend(("point", p) for p in np.abs(z))
        return np.array([fake(p) for p in np.abs(z)])

    for name, f in (("_ring", ring), ("_refine", refine),
                    ("_tangency", tangent), ("_moduli", moduli)):
        monkeypatch.setattr(analysis, name, f)
    return univalency_radius(SPEC, TOL), events


def check_search(fake, r, events, top=None, rings=2 * BISECTION_CIRCLES):
    # a radius passes when fake < 1 there (so nan fails).  The first circle
    # is OUTER and fails.  The bracket keeps a failure at hi and, below it,
    # the radii whose ring or circle passed, lo the last (0 is never
    # probed).  A ring with no refinement after it is a probe on ring tops:
    # it lies strictly inside the bracket, at the midpoint of log(1 - r),
    # 1 - sqrt((1 - lo)(1 - hi)).  A refined circle
    # that fails becomes hi and ends the probes on ring tops and the
    # tangency steps; one at or below lo also drops every radius whose
    # circle has not passed.  The tangency step gets the bracket's hi, with
    # more than tol between hi and lo, and searches down to the largest
    # radius whose circle passed, which is 0 then; the point check lies tol
    # outside the candidate it returned.  The answer passes, r + tol fails, it is 0 or was refined,
    # and the search took at most the given number of rings
    top = top or fake

    def passes(rho):
        return fake(rho) < 1

    assert events[:2] == [("ring", OUTER), ("refine", OUTER)]
    assert not passes(OUTER)
    los, hi = [(0.0, True)], OUTER
    tangency = distrust = False
    for i, (kind, p) in enumerate(events[2:], 2):
        lo = los[-1][0]
        if kind == "ring" and events[i + 1:i + 2] != [("refine", p)]:
            assert lo < p < hi and not distrust
            assert p == 1 - math.sqrt((1 - lo) * (1 - hi))
            if top(p) < 1:
                los.append((p, False))
            else:
                hi = p
        elif kind == "refine":
            # a bisection probe, the bracket's lo or the tangency's candidate
            assert lo < p < hi or p == lo or tangency and p < hi
            tangency = False
            if not passes(p):
                hi, distrust = p, True
                if p <= lo:
                    los = [(x, ok) for x, ok in los if ok and x < p]
            elif lo < p < hi:
                los.append((p, True))
        elif kind == "tangency":
            assert not distrust
            assert (0.0, p) == (max(x for x, ok in los if ok), hi)
            assert hi - lo > TOL
            tangency = True
        elif kind == "point":
            assert tangency and p < hi
        assert not passes(hi)
    assert passes(r) and not passes(r + TOL)
    assert r == 0 or ("refine", r) in events
    assert len([e for e in events if e[0] == "ring"]) <= rings


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


FAKES = {
    "power-0.7-5": power(0.7, 5), "power-0.95-40": power(0.95, 40),
    "power-0.2-1.5": power(0.2, 1.5), "power-0.998-80": power(0.998, 80),
    "kinked": kinked, "kinked-below": kinked_below,
    "zero-then-critical": zero_then_critical, "critical-first": critical_first,
    "step": step(0.4137, 0.5, 2.0), "step-lopsided": step(0.842839, 0.9, 1e6),
    "step-low": step(0.01, 1e-3, 1.0),
    "step-zero-inf": step(0.99, 0.0, math.inf),
    "step-nan": step(0.6, 0.5, math.nan),
}


@pytest.mark.parametrize("name", list(FAKES))
def test_search_on_synthetic_maxima(monkeypatch, name):
    # with each fake tangency step
    for tangency in TANGENCIES:
        with monkeypatch.context() as m:
            r, events = search(m, FAKES[name], tangency)
        check_search(FAKES[name], r, events)


@pytest.mark.parametrize("name", ["power-0.7-5", "power-0.95-40", "kinked",
                                  "kinked-below", "power-0.998-80"])
def test_true_tangency_returns_its_crossing(monkeypatch, name):
    # the returned radius lies _MARGIN below the crossing the tangency step
    # found, and the search needs no refined circle but the first and that
    # one, and few rings
    fake = FAKES[name]
    r, events = search(monkeypatch, fake, "true")
    check_search(fake, r, events)
    found = crossing(fake, 0.0, [e for e in events if e[0] == "tangency"][-1][1])
    assert r == found - analysis._MARGIN
    refined = [e for e in events if e[0] == "refine"]
    assert refined == [("refine", OUTER), ("refine", r)]
    assert len([e for e in events if e[0] == "ring"]) <= 12


def test_clean_circle_is_the_only_probe(monkeypatch):
    r, events = search(monkeypatch, power(1.5, 3))
    assert r == 1.0 and events == [("ring", OUTER), ("refine", OUTER)]


def wide_band(r):
    # ring tops of power(0.7, 5) that read 0.9 from the crossing to 0.95
    return 0.9 if 0.7 <= r < 0.95 else (r / 0.7) ** 5


@pytest.mark.parametrize("top", [
    missed_band, lambda r: 0.8 * (r / 0.7) ** 5, wide_band],
    ids=["missed-band", "low-ring", "wide-band"])
def test_failing_returned_circle_reopens_the_bracket(monkeypatch, top):
    # ring tops read low, so lo's ring can pass where its circle fails.  A
    # candidate above the crossing fails its circle, which becomes hi, and
    # the search goes on below it; so does a bracket lo whose circle fails,
    # and then the search bisects on refined circles from 0 (with ring tops kept, the wide band took 472,336 rings)
    fake = power(0.7, 5)
    for tangency in TANGENCIES:
        with monkeypatch.context() as m:
            r, events = search(m, fake, tangency, top)
        # the wide band's tops jump from 0.9 to 3.5 at 0.95, where the probes
        # on ring tops close the bracket, as for a step: the circle there
        # fails, and a bisection on refined circles follows
        wide = top is wide_band
        check_search(fake, r, events, top, (2 + wide) * BISECTION_CIRCLES)
        failed = [p for kind, p, *_ in events[2:]
                  if kind == "refine" and not fake(p) < 1]
        if tangency in ("high", "none"):
            assert failed and r < 0.7 <= min(failed)


def test_missed_band_does_not_creep(monkeypatch):
    # the ring tops read 0.85 on a band above the crossing, far below the
    # circle's maximum.  A regula falsi on ring tops clipped its probes to
    # tol/2 from hi seven times in a row there, and took 28 rings.  Each
    # probe now halves the bracket in log(1 - r) whatever the tops read, so
    # nothing creeps: with the true tangency the search takes a handful of
    # rings; with no tangency it bisects on refined circles, no more than a
    # plain bisection
    fake = power(0.7, 5)
    r, events = search(monkeypatch, fake, "true", missed_band)
    check_search(fake, r, events, missed_band)
    assert len([e for e in events if e[0] == "ring"]) <= 8
    r, events = search(monkeypatch, fake, "none", missed_band)
    check_search(fake, r, events, missed_band)
    assert len([e for e in events if e[0] == "refine"]) <= BISECTION_CIRCLES


@pytest.mark.parametrize("tangency", ["high", "low"])
def test_wrong_tangency_is_caught(monkeypatch, tangency):
    # a candidate above the crossing fails its circle and becomes hi; one
    # below it by more than tol fails the point check at r + tol, and the
    # search bisects on refined circles
    fake = power(0.7, 5)
    r, events = search(monkeypatch, fake, tangency)
    check_search(fake, r, events)
    refined = [e[1] for e in events if e[0] == "refine"]
    if tangency == "high":
        assert any(not fake(p) < 1 for p in refined[1:])
    else:
        assert len([e for e in events if e[0] == "tangency"]) == 1
        assert len(refined) >= 10


@settings(max_examples=200, deadline=None, database=None)
@given(r0=st.floats(0.05, 0.999, exclude_min=True, exclude_max=True),
       k=st.floats(1, 80), tangency=st.sampled_from(list(TANGENCIES)))
def test_search_on_random_power_laws(r0, k, tangency):
    fake = power(r0, k)
    with pytest.MonkeyPatch.context() as mp:
        r, events = search(mp, fake, tangency)
    check_search(fake, r, events)


@pytest.mark.parametrize("a,n,theta,rings,jets", [
    (0.5, 2, math.pi, 2, 5), (-0.2, 15, math.pi, 8, 7),
    (0.7, 10, -math.pi / 2, 4, 6), (0.0, 40, math.pi, 8, 6),
    (-0.5, 256, 2.0, 3, 9)],
    ids=["n2-pi", "n15-pi", "n10-minus-half-pi", "n40-pi", "n256-a-0.5"])
def test_ring_and_jet_counts_on_benchmark_ops(monkeypatch, a, n, theta,
                                              rings, jets):
    # the benchmark's Fn radius ops: the search before the tangency solve
    # took 7/10/8/10 rings and 6/12/9/15 jet calls on them, and a regula
    # falsi bracket 2/6/6/6 rings.  At large n log M(r) is convex near 1,
    # where that bracket was mostly forced bisections: it took 10 rings on
    # n256-a-0.5
    calls = []

    def counting(f):
        def wrapped(*args):
            calls.append(f.__name__)
            return f(*args)
        return wrapped

    for name in ("_ring_moduli", "_log_jets"):
        monkeypatch.setattr(analysis, name, counting(getattr(analysis, name)))
    univalency_radius(ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta)),
                      TOL)
    assert calls.count("_ring_moduli") == rings
    assert calls.count("_log_jets") == jets


@pytest.mark.parametrize("a,n,theta", [
    (0.5, 2, math.pi), (0.7, 10, -math.pi / 2), (-0.5, 2, math.pi / 2),
    (0.0, 40, math.pi)], ids=["n2-pi", "n10-minus-half-pi", "n2-half-pi",
                               "n40-pi"])
def test_circle_count_on_dense_ring_cases(monkeypatch, a, n, theta):
    # the cases of TestRadius::test_radius_against_dense_ring; a bisection
    # spends BISECTION_CIRCLES on each, and the search before the tangency
    # solve took 7-10; n40-pi takes exactly 8
    ring = analysis._ring
    probes = []

    def counting(spec, r):
        probes.append(r)
        return ring(spec, r)

    monkeypatch.setattr(analysis, "_ring", counting)
    univalency_radius(ConvolutionSpec(a, make_mapping("Fn", n=n, theta=theta)),
                      TOL)
    assert len(probes) <= 8
