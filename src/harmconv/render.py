"""SVG webbing plots: the unit disk's image under a convolved mapping,
drawn as concentric ring images and radial segment images.

Output is plain SVG 1.1 text, byte-identical for identical inputs.  Every
number is written as ``"%.6f" % value``.  The polyline vertices, about
35,000 numbers in a default figure, go through ``_points``, a numpy
formatter that writes the same bytes as ``%`` without a Python call per
vertex; a block of curves it cannot prove exact falls back to ``%``.
"""
import math
import re
from dataclasses import dataclass

import numpy as np

from ._core import MAX_RADIUS, instance, positive_int, real
from ._text import WORDS, groups
from .convolution import ConvolutionSpec, _image, _unit_ring
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


def _curves(spec: ConvolutionSpec, fig: FigureSpec):
    """Sample all webbing curves; returns a list of vertex arrays, each
    an array of complex image points H + conj(G), as ``conv_value`` gives
    them.  Ring j's nodes are r_j times those of ``convolution._unit_ring(S)``,
    ray k runs along node k of ``_unit_ring(K)``, and each ring closes on a
    copy of its first vertex's image.  For even S node k + S/2 of a ring
    is exactly -node k, and for even K ray k + K/2 is exactly -ray k: such
    samples go to ``convolution._image`` as antipodal pairs, all in one
    call, which takes their odd integrals once a pair.  The rings of odd S
    and the rays of odd K go as lone points in a second call, made only if
    there are any.  FigureSpec keeps every sample within |z| <= max_radius
    < 1, so the unchecked ``_image``, which bounds its memory, may take
    them."""
    S, R, K = fig.samples_per_curve, fig.rings, fig.rays
    table = term_table(instance(spec, ConvolutionSpec, "spec").right)
    # each grid as (u, f), its sample [k, j] at u[k] f[j]: ring node k at
    # radius j, and ray k at distance j.  For even len(u) row k + len(u)/2
    # is -row k, and only the first half is sampled, with its negation
    grids = [(_unit_ring(S), fig.max_radius * np.arange(1, R + 1) / R),
             (_unit_ring(K), fig.max_radius * np.arange(S) / (S - 1))]
    values = [None, None]
    for pairs in (True, False):
        which = [g for g, (u, _) in enumerate(grids)
                 if (len(u) % 2 == 0) == pairs]
        if not which:
            continue
        zs = [np.multiply.outer(u[:len(u) // 2] if pairs else u, f).ravel()
              for u, f in (grids[g] for g in which)]
        z = np.concatenate(zs)
        v = _image(spec.a, table, np.stack((z, -z), -1) if pairs else z, pairs)
        # [k, j, member] back to [k + member len(u)/2, j]
        for g, part in zip(which, np.split(v.reshape(len(z), -1), [len(zs[0])])):
            u, f = grids[g]
            values[g] = np.moveaxis(part.reshape(-1, len(f), part.shape[-1]),
                                    -1, 0).reshape(len(u), len(f))
    rings, rays = values  # rings as [node, radius]
    return [*np.concatenate((rings.T, rings[:1].T), 1), *rays]


# the most vertices one _points call formats, in whole curves (a longer curve
# goes alone): a default F1 figure's traced peak stays 2,839 KiB, as with one
# % call a vertex, where one call a figure raised it to 3,680 KiB
_TEXT_BLOCK = 2 ** 12
# y = |v| 10^6 below this rounds to an integer of at most 15 digits, nine
# before the point, which float64 and int64 hold exactly
_TEXT_LIMIT = 1e15 - 0.5
# "," after x and " " after y, in byte 3 of the last word of each number
_SEPARATORS = np.array([ord(","), ord(" ")], "<u4") << 24
_point = f"{_FMT},{_FMT}".__mod__


def _points(curves):
    """The ``points`` text of each curve: ``" ".join("%.6f,%.6f" % (x, y))``
    over its vertices, x = Re and y = -Im (SVG y points down), byte for byte.

    ``%.6f`` prints p = |v| 10^6 correctly rounded to an integer, half to
    even.  10^6 is a float and rounding is monotone, so the float product y
    lies on the same side of every half-integer h as p, or on h itself; below
    2^52 every h is a float and y - floor(y) is exact.  So wherever y is not
    a half-integer, ``np.rint(y)`` is the integer ``%`` prints.  A product
    that lands on a half (a tie, or p within about an ulp of one) could round
    either way.  The digits go into 32-bit words of three, NUL bytes stand
    for leading zeros, and one ``translate`` removes them; the sign comes
    from ``np.signbit``, so -0.0 and -1e-9 print "-0.000000" as with ``%``.
    If any value of the block lands on a half, is not finite or would print
    more than nine digits before the point (|v| >= 10^9 - 5e-7), the whole
    block takes the ``%`` route instead."""
    c = np.concatenate(curves)
    v = np.stack((c.real, -c.imag), -1)
    y = np.abs(v) * 1e6
    if not (np.all(y < _TEXT_LIMIT)  # NaN and inf fail here
            and np.all(y - np.floor(y) != 0.5)):
        return [" ".join(map(_point, zip(z.real, -z.imag))) for z in curves]
    whole, frac = np.divmod(np.rint(y).astype(np.int64), 10 ** 6)
    top = int(whole.max())
    k = 1 + (top >= 1000) + (top >= 10 ** 6)
    # per vertex: x's words, then y's: integer groups, ".ddd", "ddd" + separator
    words = np.empty((len(c), 2, k + 2), "<u4")
    hi, lo = np.divmod(frac, 1000)
    words[..., -2] = np.take(WORDS, hi) | ord(".")
    words[..., -1] = (np.take(WORDS, lo) >> 8) | _SEPARATORS
    ends = np.cumsum([len(z) for z in curves]) - 1
    words[ends, 1, -1] ^= (ord(" ") ^ ord("\n")) << 24  # "\n" ends a curve
    words[..., :k] = groups(whole, k)
    words[..., 0] |= np.signbit(v) * np.uint32(ord("-"))
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    return text.split("\n")[:-1]


def _polylines(curves):
    """``_points`` of every curve, in blocks of whole curves of at most
    _TEXT_BLOCK vertices (a longer curve goes alone)."""
    text, first, size = [], 0, 0
    for i, c in enumerate(curves):
        if size and size + len(c) > _TEXT_BLOCK:
            text += _points(curves[first:i])
            first, size = i, 0
        size += len(c)
    return text + _points(curves[first:])


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
    c = np.concatenate(curves)
    x0, x1 = float(c.real.min()), float(c.real.max())
    y0, y1 = float(-c.imag.max()), float(-c.imag.min())  # SVG y points down
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
        # inside the open disk; the comment stays for readers of the SVG
        "<!-- dropped samples: 0 -->",
        f'<g fill="none" stroke="{stroke}" stroke-width="{_FMT % sw}">',
    ]
    lines += [f'<polyline points="{pts}"/>' for pts in _polylines(curves)]
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
