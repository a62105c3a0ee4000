import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from harmconv import (ConvolutionSpec, FigureSpec, ParameterError, _core,
                      conv_value, convolution, make_mapping, render_webbing,
                      render)
from harmconv._core import MAX_RADIUS
from harmconv.mappings import TermTable, term_table
from harmconv.render import _curves

SMALL = FigureSpec(rings=4, rays=8, samples_per_curve=96)


def spec_f1(a=0.5, theta=math.pi / 6):
    return ConvolutionSpec(a, make_mapping("F1", theta=theta))


def test_figure_spec_validation():
    with pytest.raises(ParameterError):
        FigureSpec(rings=0)
    with pytest.raises(ParameterError):
        FigureSpec(rays=1)
    with pytest.raises(ParameterError):
        FigureSpec(samples_per_curve=32)
    with pytest.raises(ParameterError):
        FigureSpec(max_radius=1.0)


def test_svg_is_well_formed():
    svg = render_webbing(spec_f1(), SMALL)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("viewBox")


def test_byte_determinism():
    a = render_webbing(spec_f1(), SMALL)
    b = render_webbing(spec_f1(), SMALL)
    assert a == b


def test_curve_count_and_drop_comment():
    svg = render_webbing(spec_f1(), SMALL)
    assert svg.count("<polyline") == SMALL.rings + SMALL.rays
    assert "<!-- dropped samples: 0 -->" in svg


def test_rays_meet_at_the_origin_image():
    # every ray starts at z=0, whose image is 0
    curves = _curves(spec_f1(), SMALL)
    for k in range(SMALL.rays):
        ray = curves[SMALL.rings + k]
        assert abs(ray[0]) < 1e-12


def test_vertices_match_conv_value():
    spec = spec_f1()
    curves = _curves(spec, SMALL)
    ring0 = curves[0]
    r = SMALL.max_radius * 1 / SMALL.rings
    S = SMALL.samples_per_curve
    t = 2 * math.pi * np.arange(S + 1) / S
    want = conv_value(spec, r * np.exp(1j * t))
    assert np.max(np.abs(ring0 - want)) < 1e-12


def test_real_family_symmetric_about_real_axis():
    # a=0, theta=0: all series coefficients real, so the picture mirrors
    curves = _curves(spec_f1(a=0.0, theta=0.0), SMALL)
    pts = np.concatenate(curves)
    ys = np.sort(np.round(pts.imag, 9))
    assert np.max(np.abs(ys + ys[::-1])) < 1e-8


def test_outer_ring_is_convex_in_horizontal_direction():
    fig = FigureSpec(rings=6, rays=8, samples_per_curve=512)
    curves = _curves(spec_f1(), fig)
    ys = curves[fig.rings - 1].imag
    y0, y1 = ys.min(), ys.max()
    for y in np.linspace(y0 + 0.02 * (y1 - y0), y1 - 0.02 * (y1 - y0), 41):
        s = np.sign(ys - y)
        if np.any(s == 0):
            continue
        assert int(np.sum(s[:-1] != s[1:])) <= 2


def test_stroke_options_pass_through():
    svg = render_webbing(spec_f1(), SMALL, stroke="#ff0000", stroke_width=2.0)
    assert 'stroke="#ff0000"' in svg
    m = re.search(r'stroke-width="([0-9.]+)"', svg)
    assert m and float(m.group(1)) > 0


@pytest.mark.parametrize("stroke", ["red", "#f00", "#1F3D7A"])
def test_colour_strokes_accepted(stroke):
    svg = render_webbing(spec_f1(), SMALL, stroke=stroke)
    assert f'stroke="{stroke}"' in svg


@pytest.mark.parametrize("stroke,width", [
    ('"/><script>alert(1)</script><g x="', 1.0), ("#12345g", 1.0),
    ("", 1.0), ("red ", 1.0), (None, 1.0),
    ("red", float("nan")), ("red", math.inf), ("red", 0.0), ("red", -1.0),
], ids=["markup", "bad-hex", "empty", "space", "none", "width-nan",
        "width-inf", "width-zero", "width-negative"])
def test_bad_stroke_rejected(stroke, width):
    with pytest.raises(ParameterError):
        render_webbing(spec_f1(), SMALL, stroke=stroke, stroke_width=width)


BLOCK_SPECS = [
    ConvolutionSpec(0.5, make_mapping("F0")),
    spec_f1(0.8),
    ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=math.pi)),
    ConvolutionSpec(-0.2, make_mapping("Fn", n=15, theta=math.pi)),
    ConvolutionSpec(0.5, make_mapping("Fn", n=3, theta=math.pi / 4)),
]
BLOCK_IDS = ["F0", "F1", "Fn2-pi", "Fn15-pi", "Fn3-pi/4"]
FIGURES = {"default": FigureSpec(),
           "reduced": FigureSpec(rings=4, rays=8, samples_per_curve=64)}


def antipodal_ring(K):
    """e^{2 pi i k/K}, k < K, with node k + K/2 exactly -node k for even K:
    the nodes of a figure's rings and the turns of its rays, built here
    independently of the library."""
    ring = np.exp(2j * math.pi * np.arange(K) / K)
    if K % 2 == 0:
        ring[K // 2:] = -ring[:K // 2]
    return ring


def curve_params(fig):
    """The points of each webbing curve, as _curves samples them: each ring
    closes on its first node."""
    S = fig.samples_per_curve
    nodes = antipodal_ring(S)
    s = fig.max_radius * np.arange(S) / (S - 1)
    return ([fig.max_radius * (j + 1) / fig.rings * np.append(nodes, nodes[0])
             for j in range(fig.rings)]
            + [s * turn for turn in antipodal_ring(fig.rays)])


# Fn n=2 at theta = 3 and 3.1 (a=0.5): curves near z = 1 take the far
# dilogarithm route and the rest the series, so blocks mix the two
MIXED_SPECS = [ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=theta))
               for theta in (3, 3.1)]
MIXED_IDS = ["Fn2-3", "Fn2-3.1"]


def assert_matches_conv_value(spec, fig):
    # curves sent to conv_value in blocks come back as conv_value gives
    # them one curve a call
    curves = _curves(spec, fig)
    params = curve_params(fig)
    assert len(curves) == len(params)
    for c, zs in zip(curves, params):
        want = conv_value(spec, zs)
        assert c.shape == want.shape
        assert np.all(np.abs(c - want) <= 1e-13 * np.maximum(1, np.abs(want)))


@pytest.mark.parametrize("size", FIGURES)
@pytest.mark.parametrize("spec", BLOCK_SPECS + MIXED_SPECS,
                         ids=BLOCK_IDS + MIXED_IDS)
def test_blocks_match_one_call_per_curve(spec, size):
    assert_matches_conv_value(spec, FIGURES[size])


# samples with no antipode: rings of odd S, rays of odd K, and both
UNPAIRED = {"odd-S": FigureSpec(rings=3, rays=4, samples_per_curve=65),
            "odd-K": FigureSpec(rings=2, rays=3, samples_per_curve=64),
            "odd-both": FigureSpec(rings=2, rays=5, samples_per_curve=65)}


@pytest.mark.parametrize("size", UNPAIRED)
@pytest.mark.parametrize("spec", BLOCK_SPECS + MIXED_SPECS,
                         ids=BLOCK_IDS + MIXED_IDS)
def test_unpaired_curves_match_one_call_per_curve(spec, size, monkeypatch):
    # odd curves take rows of one member, in a second _image call; a layout
    # with no samples makes no call
    fig, layouts = UNPAIRED[size], []

    def image(a, t, z):
        layouts.append(z.shape[1])
        return convolution._image(a, t, z)

    monkeypatch.setattr(render, "_image", image)
    assert_matches_conv_value(spec, fig)
    paired = fig.samples_per_curve % 2 == 0 or fig.rays % 2 == 0
    assert layouts == ([2, 1] if paired else [1])


@pytest.mark.parametrize("size", [*FIGURES, *UNPAIRED])
@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=BLOCK_IDS)
def test_rings_close_bit_for_bit(spec, size):
    # a ring's last vertex is its first vertex's image, copied: recomputed
    # at e^{2 pi i}, the F0 ring at 0.99 closed 3.6e-10 below the real axis
    fig = {**FIGURES, **UNPAIRED}[size]
    for ring in _curves(spec, fig)[:fig.rings]:
        assert ring[-1:].tobytes() == ring[:1].tobytes()


# value-route calls per figure, at 2, 2, 4, 17 and 5 kernel elements a point:
# 8,704 antipodal pairs in blocks of 2,048, 2,048, 1,024, 240 and 819 pairs,
# and 384 pairs; the 10, and 4, closing vertices are copies
CALLS = {"default": [5, 5, 9, 37, 11], "reduced": [1, 1, 1, 2, 1]}


@pytest.mark.parametrize("size", FIGURES)
@pytest.mark.parametrize("k", range(len(BLOCK_SPECS)), ids=BLOCK_IDS)
def test_each_call_takes_whole_curves_within_the_budget(k, size, monkeypatch):
    # a figure of even S and K is one _image call on rows of antipodal
    # pairs, and _image's blocks split it into value-route calls, one
    # odd_integrals each on the pairs' first members, of at most _BLOCK
    # kernel elements, points x (lone-log roots + 2) with both members
    # counted, or one pair alone; a block ends where the budget does, not
    # where a curve does
    spec, fig = BLOCK_SPECS[k], FIGURES[size]
    images, seen = [], []
    odd_integrals = TermTable.odd_integrals

    def image(a, t, z):
        images.append(z)
        return convolution._image(a, t, z)

    def values(t, z):
        seen.append(z)
        return odd_integrals(t, z)

    monkeypatch.setattr(render, "_image", image)
    monkeypatch.setattr(TermTable, "odd_integrals", values)
    curves = _curves(spec, fig)
    assert len(images) == 1
    z = images[0]
    assert z.shape == (len(z), 2)
    assert z[:, 1].tobytes() == (-z[:, 0]).tobytes()
    assert np.array_equal(z[:, 0], np.concatenate(seen))
    assert 2 * len(z) + fig.rings == sum(len(c) for c in curves)
    per = 2 * (len(term_table(spec.right).r) + 2)
    sizes = [len(y) for y in seen]
    assert all(n * per <= _core._BLOCK or n == 1 for n in sizes)
    assert sizes[:-1] == [_core._BLOCK // per] * (len(sizes) - 1)
    assert len(seen) == CALLS[size][k]


def test_default_f1_figure_traced_peak():
    # each value-route block takes chi_2 once a root and pair, at most
    # 4,096 arguments: the default figure's traced peak read 1,530 KiB,
    # 2,023 KiB with the odd integrals taken at every point, and 2,607 KiB
    # with them as dilogarithm pairs
    spec, fig = spec_f1(a=0.8), FigureSpec()
    render_webbing(spec, fig)  # the term table, outside the trace
    tracemalloc.start()
    try:
        render_webbing(spec, fig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1750 * 1024


def one_curve(xs, ys):
    """A curve whose vertices the SVG writes as (x, y): y is -Im."""
    c = np.empty(len(xs), complex)
    c.real, c.imag = xs, np.negative(ys)
    return c


def percent(xs, ys):
    return " ".join(f"{'%.6f' % x},{'%.6f' % y}" for x, y in zip(xs, ys))


@pytest.fixture
def fallbacks(monkeypatch):
    """The vertices _points writes by the % route."""
    seen = []

    def spy(xy):
        seen.append(xy)
        return "%.6f,%.6f" % xy

    monkeypatch.setattr(render, "_point", spy)
    return seen


# values the vectorised route writes: signed zeros, values just below and
# past a half (to 0 and to 1e-6), carries into a new digit and a new digit
# group, nine integer digits, subnormals
FAST = [0.0, -0.0, -1e-9, 4e-7, -5e-7 * (1 + 1e-9), 9.9999996, 999.9999996,
        999999.9999996, 999999999.0, -123456789.1234564, 5e-324, 1e-310]
# values it must leave to %: exact ties (0.0078125 * 10^6 = 7812.5), a
# printed integer part past nine digits, and numbers that are not finite
SLOW = [0.0078125, -0.0234375, 1.0078125, 999999999.9999996, 1e9, -1e9, 2e9,
        1e300, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("v", FAST + SLOW)
def test_points_write_each_value_as_percent(v, fallbacks):
    got = render._points([one_curve([v], [-v])])
    assert got == [percent([v], [-v])]
    assert bool(fallbacks) == (v in SLOW or math.isnan(v))


@pytest.mark.parametrize("k", [0, 1, 12, 7812, 123456, 10 ** 9 + 7,
                               10 ** 12 + 3, 10 ** 14 + 1])
def test_points_near_a_half(k, fallbacks):
    # the values within four ulps of (k + 1/2) 10^-6, one call each: those
    # whose float product v 10^6 is a half-integer fall back, the others go
    # the vectorised way, and all of them print as %
    v = (k + 0.5) / 1e6
    values = v + np.spacing(v) * np.arange(-4, 5)
    on_half = 0
    for x in values:
        before = len(fallbacks)
        assert render._points([one_curve([x], [x])]) == [percent([x], [x])]
        assert (len(fallbacks) > before) == (x * 1e6 % 1 == 0.5)
        on_half += x * 1e6 % 1 == 0.5
    assert 0 < on_half < len(values)


def test_points_random_values(fallbacks):
    # 10^5 values at scales from 1e-7 to 1e8, in curves of 50 vertices;
    # sorted by size, the rare values whose product lands on a half share
    # few curves
    rng = np.random.default_rng(21)
    v = rng.choice((-1.0, 1.0), 10 ** 5) * 10 ** rng.uniform(-7, 8, 10 ** 5)
    v = v[np.argsort(np.abs(v))].reshape(-1, 2, 50)
    got = [s for xs, ys in v for s in render._points([one_curve(xs, ys)])]
    assert got == [percent(xs, ys) for xs, ys in v]
    assert len(fallbacks) < 5000  # of 50,000 vertices: 1,850 with this seed


def test_points_split_curves_and_join_vertices():
    # one call: several curves, one string each, and values of one to three
    # digit groups side by side, so small ones sit behind all-NUL groups
    curves = [one_curve([0.5, -1.25], [2.0, 0.0]), one_curve([3.0], [-4.0]),
              one_curve([1e3, 1e6, 1e8], [-1e-6, 7e-6, 1.5e5])]
    assert render._points(curves) == [percent(c.real, -c.imag) for c in curves]


PERFBENCH_FIGURES = [
    (spec_f1(0.8), "default"),
    (ConvolutionSpec(-0.5, make_mapping("F1", theta=-2 * math.pi / 3)), "default"),
    (BLOCK_SPECS[0], "reduced"),
    (BLOCK_SPECS[2], "reduced"),
    (BLOCK_SPECS[3], "reduced"),
    (BLOCK_SPECS[4], "reduced"),
] + [(spec, size) for spec in MIXED_SPECS for size in FIGURES]
PERFBENCH_IDS = ["F1-pi/6", "F1--2pi/3", "F0", "Fn2-pi", "Fn15-pi", "Fn3-pi/4",
                 ] + [f"{i}-{size}" for i in MIXED_IDS for size in FIGURES]


@pytest.mark.parametrize("spec,size", PERFBENCH_FIGURES, ids=PERFBENCH_IDS)
def test_svg_matches_the_per_point_route(spec, size, monkeypatch, fallbacks):
    # the whole document, against the vertices written one % call each; no
    # vertex of these figures needs the % route
    fig = FIGURES[size]
    svg = render_webbing(spec, fig)
    assert not fallbacks
    monkeypatch.setattr(render, "_polylines", lambda curves: [
        " ".join("%.6f,%.6f" % (x, y) for x, y in zip(c.real, -c.imag))
        for c in curves])
    assert svg == render_webbing(spec, fig)


@pytest.mark.parametrize("spec", [
    spec_f1(), ConvolutionSpec(0.5, make_mapping("Fn", n=3, theta=math.pi / 4))],
    ids=["F1-pi/6", "Fn3-pi/4"])
def test_renders_out_to_the_largest_radius(spec):
    # FigureSpec accepts max_radius = MAX_RADIUS, where |0.999 e^{it}| rounds
    # an ulp above 0.999 at some ring nodes: the figure is drawn all the same
    fig = FigureSpec(max_radius=MAX_RADIUS)
    svg = render_webbing(spec, fig)
    points = [e.get("points") for e in ET.fromstring(svg).iter(
        "{http://www.w3.org/2000/svg}polyline")]
    assert len(points) == fig.rings + fig.rays
    assert points == [percent(c.real, -c.imag) for c in _curves(spec, fig)]


@pytest.mark.parametrize("fig,calls", [
    (FigureSpec(), 5), (FIGURES["reduced"], 1),
    (FigureSpec(rings=1, rays=2, samples_per_curve=5000), 3),
    (FigureSpec(rings=3, rays=9, samples_per_curve=1500), 6),
], ids=["default", "reduced", "long-curves", "uneven"])
def test_each_text_block_takes_whole_curves_within_the_budget(
        fig, calls, monkeypatch):
    # _points gets consecutive whole curves of at most _TEXT_BLOCK vertices
    # in all, or one curve longer than that
    curves = _curves(spec_f1(), fig)
    seen = []

    def spy(block):
        seen.append(block)
        return points(block)

    points = render._points
    monkeypatch.setattr(render, "_points", spy)
    assert render._polylines(curves) == points(curves)
    assert list(map(id, (c for block in seen for c in block))) == list(
        map(id, curves))
    for block in seen:
        size = sum(len(c) for c in block)
        assert size <= render._TEXT_BLOCK or len(block) == 1
    assert len(seen) == calls
