"""SVG webbing plots: the unit disk's image under a convolved mapping,
drawn as concentric ring images and radial segment images.

Output is plain SVG 1.1 text, byte-identical for identical inputs.
"""
import math
import re
from dataclasses import dataclass

import numpy as np

from ._core import MAX_RADIUS, instance, positive_int, real
from .convolution import ConvolutionSpec, conv_value
from .errors import ParameterError
from .mappings import term_table

_FMT = "%.6f"
# an SVG 1.1 hex colour or a colour name: nothing that can end the attribute
_COLOUR = re.compile(r"#(?:[0-9a-fA-F]{3}){1,2}|[a-zA-Z]+")


@dataclass(frozen=True)
class FigureSpec:
    """Webbing density and viewport size."""
    rings: int = 10
    rays: int = 24
    samples_per_curve: int = 512
    max_radius: float = 0.99
    width_px: int = 640
    height_px: int = 640

    def __post_init__(self):
        for name, least in (("rings", 1), ("rays", 2), ("samples_per_curve", 64),
                            ("width_px", 1), ("height_px", 1)):
            if positive_int(getattr(self, name), name) < least:
                raise ParameterError(f"{name} must be >= {least}")
        if not 0 < real(self.max_radius, "max_radius") <= MAX_RADIUS:
            raise ParameterError(f"max_radius must lie in (0, {MAX_RADIUS}]")


# the most kernel elements, points x (lone-log roots + 2), of one conv_value
# call in _curves: blocks of whole curves pay its fixed cost once a block,
# and a bound on elements rather than points keeps an Fn figure's li2 rows as
# small as an F1 figure's (one call a figure added 9 MiB of peak RSS)
_RENDER_BLOCK = 2 ** 13


def _curves(spec: ConvolutionSpec, fig: FigureSpec):
    """Sample all webbing curves; returns a list of vertex arrays, each
    an array of complex image points.  The curves go to ``conv_value`` in
    blocks of whole curves of at most _RENDER_BLOCK kernel elements (a
    longer curve goes alone), and the values are split back into curves."""
    S = fig.samples_per_curve
    t = 2 * math.pi * np.arange(S + 1) / S  # rings are closed loops
    s = fig.max_radius * np.arange(S) / (S - 1)
    params = [fig.max_radius * (j + 1) / fig.rings * np.exp(1j * t)
              for j in range(fig.rings)]
    params += [s * np.exp(1j * (2 * math.pi * k / fig.rays))
               for k in range(fig.rays)]
    roots = len(term_table(instance(spec, ConvolutionSpec, "spec").right).r)
    per = max(1, _RENDER_BLOCK // ((roots + 2) * (S + 1)))
    values = [conv_value(spec, np.concatenate(params[i:i + per]))
              for i in range(0, len(params), per)]
    ends = np.cumsum([len(p) for p in params[:-1]])
    return np.split(np.concatenate(values), ends)


def render_webbing(spec: ConvolutionSpec, fig: FigureSpec,
                   stroke: str = "#1f3d7a", stroke_width: float = 1.0) -> str:
    """Render the disk image webbing as an SVG document string.

    ``stroke`` is a hex colour or a colour name and ``stroke_width`` a
    finite positive width in pixels; anything else is a ParameterError.
    """
    instance(fig, FigureSpec, "fig")  # _curves checks spec
    if not isinstance(stroke, str) or not _COLOUR.fullmatch(stroke):
        raise ParameterError(f"stroke must be a hex colour or a colour name, "
                             f"got {stroke!r}")
    if not 0 < real(stroke_width, "stroke_width") < math.inf:
        raise ParameterError(f"stroke_width must be finite and > 0, "
                             f"got {stroke_width!r}")
    curves = _curves(spec, fig)
    xs = np.concatenate([c.real for c in curves])
    ys = np.concatenate([-c.imag for c in curves])  # SVG y points down
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    margin = 0.05 * max(x1 - x0, y1 - y0)
    vb = (x0 - margin, y0 - margin,
          (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)

    sw = stroke_width * vb[2] / fig.width_px  # pixels -> user units
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{fig.width_px}" height="{fig.height_px}" '
        f'viewBox="{_FMT % vb[0]} {_FMT % vb[1]} {_FMT % vb[2]} {_FMT % vb[3]}">',
        # no sample is dropped: FigureSpec caps max_radius at MAX_RADIUS,
        # inside conv_value's domain; the comment stays for readers of the SVG
        "<!-- dropped samples: 0 -->",
        f'<g fill="none" stroke="{stroke}" stroke-width="{_FMT % sw}">',
    ]
    point = f"{_FMT},{_FMT}".__mod__
    for c in curves:
        pts = " ".join(map(point, zip(c.real, -c.imag)))
        lines.append(f'<polyline points="{pts}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
