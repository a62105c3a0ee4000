import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from harmconv import (ConvolutionSpec, FigureSpec, ParameterError,
                      conv_value, make_mapping, render_webbing, render)
from harmconv.mappings import term_table
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


def curve_params(fig):
    """The points of each webbing curve, as _curves samples them."""
    S = fig.samples_per_curve
    t = 2 * math.pi * np.arange(S + 1) / S
    s = fig.max_radius * np.arange(S) / (S - 1)
    return ([fig.max_radius * (j + 1) / fig.rings * np.exp(1j * t)
             for j in range(fig.rings)]
            + [s * np.exp(2j * math.pi * k / fig.rays) for k in range(fig.rays)])


# Fn n=2 at theta = 3 and 3.1 (a=0.5): curves near z = 1 take the far
# dilogarithm route and the rest the series, so blocks mix the two
MIXED_SPECS = [ConvolutionSpec(0.5, make_mapping("Fn", n=2, theta=theta))
               for theta in (3, 3.1)]
MIXED_IDS = ["Fn2-3", "Fn2-3.1"]


@pytest.mark.parametrize("size", FIGURES)
@pytest.mark.parametrize("spec", BLOCK_SPECS + MIXED_SPECS,
                         ids=BLOCK_IDS + MIXED_IDS)
def test_blocks_match_one_call_per_curve(spec, size):
    # curves sent to conv_value in blocks come back as conv_value gives
    # them one curve a call
    fig = FIGURES[size]
    curves = _curves(spec, fig)
    params = curve_params(fig)
    assert len(curves) == len(params)
    for c, zs in zip(curves, params):
        want = conv_value(spec, zs)
        assert c.shape == want.shape
        assert np.all(np.abs(c - want) <= 1e-13 * np.maximum(1, np.abs(want)))


# conv_value calls per figure: 2, 2, 4, 17 and 5 kernel elements a point
CALLS = {"default": [5, 5, 12, 34, 12], "reduced": [1, 1, 1, 2, 1]}


@pytest.mark.parametrize("size", FIGURES)
@pytest.mark.parametrize("k", range(len(BLOCK_SPECS)), ids=BLOCK_IDS)
def test_each_call_takes_whole_curves_within_the_budget(k, size, monkeypatch):
    # every conv_value call holds consecutive whole curves of at most
    # _RENDER_BLOCK kernel elements, points x (lone-log roots + 2), but a
    # curve longer than that goes alone: Fn n=15 has 15 roots, so each of
    # its 512-sample curves (8,704 or 8,721 elements) takes one call
    spec, fig = BLOCK_SPECS[k], FIGURES[size]
    seen = []

    def spy(s, z):
        seen.append(len(z))
        return conv_value(s, z)

    monkeypatch.setattr(render, "conv_value", spy)
    ends = np.cumsum([len(c) for c in _curves(spec, fig)])
    last = np.searchsorted(ends, np.cumsum(seen))  # each call's last curve
    assert np.array_equal(ends[last], np.cumsum(seen))
    alone = np.diff(last, prepend=-1) == 1
    elements = np.multiply(seen, len(term_table(spec.right).r) + 2)
    assert np.all((elements <= render._RENDER_BLOCK) | alone)
    assert len(seen) == CALLS[size][k]
    if BLOCK_IDS[k] == "Fn15-pi" and size == "default":
        assert alone.all() and min(elements) > render._RENDER_BLOCK
