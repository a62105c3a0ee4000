import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from harmconv import (ConvolutionSpec, FigureSpec, ParameterError,
                      make_mapping, render_webbing)
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
    from harmconv import conv_value
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
