"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test pins the tolerances and budgets it enforces; run with -v to get
one pass/fail line per criterion.
"""
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from harmconv import (ConvolutionSpec, FigureSpec, J_boundary, Poly,
                      compute_table, conv_dilatation, conv_dilatation_f0,
                      default_grid, eval_J, hadamard, li2, make_mapping,
                      render_webbing, scan_dilatation, series_derivative,
                      series_div, series_eval, taylor_of_mapping,
                      univalency_radius, zeros_in_unit_disk)
from harmconv.render import _curves

A_GRID = (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)
THETA_GRID = (0.0, math.pi / 6, -math.pi / 6, math.pi / 3, -math.pi / 3,
              math.pi / 2, -math.pi / 2, 5 * math.pi / 6)


def test_criterion_01_table_1_reproduction():
    t0 = time.monotonic()
    rows = compute_table(1)
    elapsed = time.monotonic() - t0
    assert len(rows) == 14 and rows[0]["n"] == 2 and rows[-1]["n"] == 15
    for r in rows:
        assert r["diff"] <= 1e-4, r
    pinned = next(r for r in rows if r["n"] == 2)
    assert pinned["computed"] == pytest.approx(1.06019, abs=1e-4)
    assert elapsed < 5.0


def test_criterion_02_table_2_reproduction():
    t0 = time.monotonic()
    rows = compute_table(2)
    elapsed = time.monotonic() - t0
    assert len(rows) == 14
    for r in rows:
        assert r["diff"] <= 1e-4, r
    pinned = next(r for r in rows if r["n"] == 10)
    assert pinned["theta"] == "-1pi/2"
    assert pinned["computed"] == pytest.approx(1.97405, abs=1e-4)
    assert elapsed < 5.0


def test_criterion_03_bounded_dilatation_and_zero_count():
    rng = np.random.default_rng(1404)
    for a in np.arange(-0.95, 0.951, 0.05):
        a = round(float(a), 2)
        z = 0.999 * np.sqrt(rng.uniform(size=10_000)) * np.exp(
            2j * math.pi * rng.uniform(size=10_000))
        assert np.max(np.abs(conv_dilatation_f0(a, z))) < 1, a
        p = Poly([(1 + a) / 2, (1 + 3 * a) / 2, 1.0])
        assert zeros_in_unit_disk(p) == 2, a


def test_criterion_04_locally_univalent_scan_and_J_positivity():
    grid = default_grid()
    for a in A_GRID:
        for th in THETA_GRID:
            right = make_mapping("F1", theta=th)
            rep = scan_dilatation(ConvolutionSpec(a, right), grid)
            assert rep.violations == [], (a, th, rep.violations[:3])

    radii = np.linspace(0.01, 0.99, 100)
    angles = np.exp(2j * math.pi * np.arange(360) / 360)
    zgrid = (radii[:, None] * angles[None, :]).ravel()
    for th in THETA_GRID:
        assert np.min(eval_J(th, zgrid).real) > 0, th

    t = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
    for th in THETA_GRID:
        res = [J_boundary(th, x).re for x in t]
        assert min(res) >= -1e-12, th


ORACLE_CASES = (
    [("F0", None, None, a) for a in (-0.8, -0.3, 0.2, 0.7)]
    + [("F1", None, th, a) for th, a in
       ((0.0, 0.5), (math.pi / 6, -0.5), (math.pi / 6, 0.8),
        (-math.pi / 6, 0.3), (math.pi / 3, 0.0), (-math.pi / 3, -0.7),
        (math.pi / 2, 0.6), (-math.pi / 2, -0.2), (5 * math.pi / 6, 0.4),
        (-5 * math.pi / 6, 0.9))]
    + [("Fn", n, math.pi, a) for n, a in
       ((2, 0.5), (2, -0.6), (3, 0.5), (4, -0.5), (5, 0.8), (6, -0.4),
        (7, 0.0), (8, 0.3))]
    + [("Fn", n, th, a) for n, th, a in
       ((2, math.pi / 8, 0.5), (3, math.pi / 12, -0.5),
        (4, math.pi / 3, 0.5), (5, math.pi / 6, 0.8),
        (6, -math.pi / 3, 0.7), (7, 5 * math.pi / 6, -0.3),
        (8, -2 * math.pi / 3, 0.0), (12, math.pi / 2, 0.9))]
)


def test_criterion_05_closed_form_matches_series_oracle():
    assert len(ORACLE_CASES) == 30
    t0 = time.monotonic()
    rng = np.random.default_rng(256)
    worst = 0.0
    for family, n, th, a in ORACLE_CASES:
        right = make_mapping(family, theta=th, n=n)
        spec = ConvolutionSpec(a, right)
        ha, ga = taylor_of_mapping(make_mapping("Fa", a=a), 256)
        hr, gr = taylor_of_mapping(right, 256)
        q = series_div(series_derivative(hadamard(ga, gr)),
                       series_derivative(hadamard(ha, hr)))
        z = 0.7 * np.sqrt(rng.uniform(size=100)) * np.exp(
            2j * math.pi * rng.uniform(size=100))
        dev = np.max(np.abs(conv_dilatation(spec, z) - series_eval(q, z)))
        worst = max(worst, float(dev))
        assert dev < 1e-8, (family, n, th, a, dev)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, (elapsed, worst)


def test_criterion_06_degree_one_factor_collapses_to_closed_form():
    rng = np.random.default_rng(61)
    z = 0.99 * np.sqrt(rng.uniform(size=1000)) * np.exp(
        2j * math.pi * rng.uniform(size=1000))
    for a in (-0.7, -0.2, 0.3, 0.8):
        spec = ConvolutionSpec(a, make_mapping("Fn", n=1, theta=math.pi))
        assert np.max(np.abs(conv_dilatation(spec, z)
                             - conv_dilatation_f0(a, z))) < 1e-12


def test_criterion_07_dilogarithm_values_and_landen():
    assert abs(li2(1.0) - math.pi ** 2 / 6) < 1e-12
    assert abs(li2(-1.0) + math.pi ** 2 / 12) < 1e-12
    rng = np.random.default_rng(77)
    pts = []
    while len(pts) < 500:
        w = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        if abs(w) <= 0.95 and w.real <= 0.5:
            pts.append(w)
    z = np.array(pts)
    resid = li2(z) + li2(z / (z - 1)) + 0.5 * np.log(1 - z) ** 2
    assert np.max(np.abs(resid)) < 1e-12


def test_criterion_08_boundary_limits_of_J():
    for th in (math.pi / 6, math.pi / 3, math.pi / 2):
        at_one = J_boundary(th, 0.0)
        assert at_one.re == pytest.approx(0.0, abs=1e-10)
        assert at_one.value == pytest.approx(0.0, abs=1e-10)
        at_pole = J_boundary(th, 2 * math.pi - th)
        assert at_pole.re == pytest.approx(0.0, abs=1e-10)
        assert at_pole.value.imag == pytest.approx(4 * math.tan(th / 2),
                                                   abs=1e-10)


FIGURE_1_SETS = [(a, math.pi / 6) for a in (-0.5, 0.0, 0.5, 0.8)]
FIGURE_2_SETS = [(0.5, th) for th in (0.0, math.pi / 6, math.pi / 3,
                                      math.pi / 2)]


def test_criterion_09_figures_render_structurally():
    fig = FigureSpec()
    t0 = time.monotonic()
    fig1_docs = []
    for a, th in FIGURE_1_SETS:
        spec = ConvolutionSpec(a, make_mapping("F1", theta=th))
        fig1_docs.append(render_webbing(spec, fig))
    fig1_elapsed = time.monotonic() - t0
    assert fig1_elapsed < 10.0

    for (a, th), svg in zip(FIGURE_1_SETS + FIGURE_2_SETS,
                            fig1_docs + [render_webbing(
                                ConvolutionSpec(a, make_mapping("F1", theta=th)),
                                fig) for a, th in FIGURE_2_SETS]):
        ET.fromstring(svg)
        assert svg.count("<polyline") == fig.rings + fig.rays, (a, th)
        assert "dropped samples: 0" in svg, (a, th)
        spec = ConvolutionSpec(a, make_mapping("F1", theta=th))
        assert render_webbing(spec, fig) == svg, (a, th)
        curves = _curves(spec, fig)
        ys = curves[fig.rings - 1].imag
        y0, y1 = ys.min(), ys.max()
        for y in np.linspace(y0 + 0.02 * (y1 - y0), y1 - 0.02 * (y1 - y0), 33):
            s = np.sign(ys - y)
            if np.any(s == 0):
                continue
            assert int(np.sum(s[:-1] != s[1:])) <= 2, (a, th, y)


def test_criterion_10_univalency_radius():
    for a in A_GRID:
        for th in THETA_GRID:
            spec = ConvolutionSpec(a, make_mapping("F1", theta=th))
            assert univalency_radius(spec, 1e-6) == 1.0, (a, th)
    bad = ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi))
    r = univalency_radius(bad, 1e-6)
    assert r < 0.99
    assert r == pytest.approx(0.966208, abs=5e-5)
