"""Command-line interface.

Angles are accepted as exact rational multiples of pi ("7pi/8", "-pi/4",
"pi", "0") or as plain radian floats.  Exit codes: 0 on success, 1 when a
tolerance check fails, 2 on usage errors, a bad parameter included.
"""
import csv
import json
import math
import re
import sys

import click
import numpy as np

from . import tables
from .analysis import default_grid, scan_dilatation, univalency_radius
from .convolution import ConvolutionSpec, conv_dilatation, conv_value
from .errors import ParameterError
from .mappings import make_mapping
from .render import FigureSpec, render_webbing
from .series import (hadamard, series_derivative, series_div, series_eval,
                     taylor_of_mapping)

_ANGLE_RE = re.compile(r"^([+-]?)(\d*)pi(?:/(\d+))?$")


def parse_angle(text: str) -> float:
    s = text.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        return sign * math.pi * num / den
    try:
        return float(s)
    except ValueError:
        raise click.BadParameter(f"cannot parse angle {text!r}")


def _conv_spec(family, n, theta, a):
    # the --family choices are the family names in lower case
    th = None if theta is None else parse_angle(theta)
    return ConvolutionSpec(a, make_mapping(family.capitalize(), theta=th, n=n))


_family_options = [
    click.option("--family", type=click.Choice(["f0", "f1", "fn"]),
                 required=True, help="Right convolution factor."),
    click.option("--a", type=float, required=True,
                 help="Left factor parameter, in (-1, 1)."),
    click.option("--n", type=int, default=None, help="Order for family fn."),
    click.option("--theta", default=None,
                 help="Angle for f1/fn, e.g. 'pi', '-pi/4', '7pi/8'."),
]


def _with_family(fn):
    for opt in reversed(_family_options):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    def invoke(self, ctx):
        # a ParameterError from any command is a usage error, exit code 2
        try:
            return super().invoke(ctx)
        except ParameterError as exc:
            raise click.UsageError(str(exc)) from None


@click.group(cls=_Main)
def main():
    """Half-plane harmonic mappings, their convolutions, and univalency
    diagnostics."""


@main.command()
@click.argument("which", type=click.IntRange(1, 2))
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]),
              default="text", show_default=True)
def table(which, fmt):
    """Recompute bundled reference table WHICH and report differences.

    Exits 1 if any row deviates by more than 1e-4.
    """
    rows = tables.compute_table(which)
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
    elif fmt == "csv":
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)
    else:
        click.echo(f"{'n':>3} {'a':>5} {'theta':>8} {'z angle':>8} "
                   f"{'computed':>10} {'reference':>10} {'diff':>9}")
        for r in rows:
            click.echo(f"{r['n']:>3} {r['a']:>5} {r['theta']:>8} "
                       f"{r['z_angle']:>8} {r['computed']:>10.5f} "
                       f"{r['reference']:>10.5f} {r['diff']:>9.2e}")
    if any(r["diff"] > tables.TOLERANCE for r in rows):
        click.echo("FAIL: at least one row off by more than "
                   f"{tables.TOLERANCE:g}", err=True)
        sys.exit(1)


@main.command()
@_with_family
@click.option("--radii", type=int, default=60, show_default=True,
              help="Number of scan circles.")
@click.option("--angles", type=int, default=720, show_default=True,
              help="Nodes per circle.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def check(family, a, n, theta, radii, angles, fmt):
    """Scan |dilatation| of the convolution over a disk grid."""
    spec = _conv_spec(family, n, theta, a)
    report = scan_dilatation(spec, default_grid(radii, angles))
    if fmt == "json":
        click.echo(report.to_json())
        return
    click.echo(f"max |dilatation|  {report.max_modulus:.6f}")
    click.echo(f"at z              {report.argmax:.6f}")
    click.echo(f"violations        {len(report.violations)}")
    click.echo(f"critical points   {len(report.critical_points)}")
    click.echo(f"skipped nodes     {report.skipped}")


@main.command()
@_with_family
@click.option("--tol", type=float, default=1e-6, show_default=True)
def radius(family, a, n, theta, tol):
    """Estimate the univalency radius of the convolution.

    1.0 means max |dilatation| < 1 on |z| = 1 - 1e-6; for f0 and f1 it is
    also the paper's theorem, local univalence in the whole disk.
    """
    r = univalency_radius(_conv_spec(family, n, theta, a), tol)
    click.echo(f"{r:.6f}")


@main.command()
@_with_family
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              required=True, help="Output SVG path.")
@click.option("--rings", type=int, default=10, show_default=True)
@click.option("--rays", type=int, default=24, show_default=True)
@click.option("--samples", type=int, default=512, show_default=True)
@click.option("--max-radius", type=float, default=0.99, show_default=True)
@click.option("--stroke", default="#1f3d7a", show_default=True)
@click.option("--stroke-width", type=float, default=1.0, show_default=True)
def render(family, a, n, theta, out, rings, rays, samples, max_radius,
           stroke, stroke_width):
    """Write the disk-image webbing of the convolution as SVG."""
    spec = _conv_spec(family, n, theta, a)
    fig = FigureSpec(rings=rings, rays=rays, samples_per_curve=samples,
                     max_radius=max_radius)
    svg = render_webbing(spec, fig, stroke=stroke, stroke_width=stroke_width)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    click.echo(out)


@main.command()
@_with_family
@click.option("--order", type=click.IntRange(min=1), default=256,
              show_default=True, help="Series truncation order.")
@click.option("--samples", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--seed", type=int, default=20240817, show_default=True)
def oracle(family, a, n, theta, order, samples, seed):
    """Compare the closed-form dilatation and values against the
    coefficientwise series route at random points with |z| <= 0.7; exits 1
    when either deviates by more than 1e-8."""
    spec = _conv_spec(family, n, theta, a)
    ha, ga = taylor_of_mapping(make_mapping("Fa", a=a), order)
    hr, gr = taylor_of_mapping(spec.right, order)
    H, G = hadamard(ha, hr), hadamard(ga, gr)
    quotient = series_div(series_derivative(G), series_derivative(H))
    rng = np.random.default_rng(seed)
    r = 0.7 * np.sqrt(rng.uniform(size=samples))
    phi = rng.uniform(0, 2 * math.pi, size=samples)
    zs = r * np.exp(1j * phi)
    dev = float(np.max(np.abs(conv_dilatation(spec, zs)
                              - series_eval(quotient, zs))))
    vdev = float(np.max(np.abs(conv_value(spec, zs) - series_eval(H, zs)
                               - np.conj(series_eval(G, zs)))))
    click.echo(f"max deviation {dev:.3e} over {samples} samples")
    click.echo(f"max value deviation {vdev:.3e} over {samples} samples")
    if max(dev, vdev) > 1e-8:
        click.echo("FAIL: deviation above 1e-8", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
