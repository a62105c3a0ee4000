"""The benchmark's three workloads, each a fixed list of operations (ops)
on harmconv's public functions.

An op's inputs never depend on the seed; the seed only picks which of its
outputs the checks compare with the oracle.  Ops call harmconv through the
package attribute at call time, so the traced run sees its wrappers.
"""
import math
from dataclasses import dataclass
from typing import Optional

PI = math.pi

# FigureSpec fields of the two render sizes; "default" is FigureSpec()
FIGURES = {
    "default": dict(rings=10, rays=24, samples_per_curve=512),
    "reduced": dict(rings=4, rays=8, samples_per_curve=64),
}
GRID_NODES = 60 * 720  # default_grid()


def figure_samples(rings, rays, samples_per_curve):
    # closed rings repeat their first sample, rays do not
    return rings * (samples_per_curve + 1) + rays * samples_per_curve


# Faults in harmconv that make an op fail on every run, whatever the seed:
# op name -> (the one check the fault fails, what the fault is).  Any other
# failure of these ops is unexpected.
KNOWN_FAULTS = {
    "scan F1 theta=pi-1e-6 a=0.5": (
        "scan.node_oracle",
        "F1 dilatation near theta = pi loses digits to cancelling "
        "1/(1+u)^2 prefactors: off by 1.0e-4 at z = 0.05 (ROADMAP item 3)"),
    "radius Fn n=2 theta=pi a=0.5": (
        "radius.inside",
        "1440-node circles miss the peak between nodes, so the radius is "
        "0.04 tol too large: max |w| = 1.0000001 on |z| = r (ROADMAP item 4)"),
    "radius Fn n=10 theta=-pi/2 a=0.7": (
        "radius.inside",
        "the same fault: the radius is 3.1 tol too large, max |w| = "
        "1.0000678 on |z| = r (ROADMAP item 4)"),
    "radius Fn n=40 theta=pi a=0": (
        "radius.inside",
        "1440-node circles miss narrow lobes, so the radius is 36 tol too "
        "large: max |w| = 1.0029625 on |z| = r (ROADMAP item 4)"),
}


@dataclass(frozen=True)
class Right:
    family: str
    theta: Optional[float] = None
    n: Optional[int] = None
    label: str = ""

    def mapping(self, hc):
        if self.family == "F0":
            return hc.make_mapping("F0")
        if self.family == "F1":
            return hc.make_mapping("F1", theta=self.theta)
        return hc.make_mapping("Fn", theta=self.theta, n=self.n)

    @property
    def samples_group(self):
        # F0 is Fn with n = 1 at theta = pi
        return "f1" if self.family == "F1" else "fn"


def _f0():
    return Right("F0", label="F0")


def _f1(theta, label):
    return Right("F1", theta=theta, label=f"F1 theta={label}")


def _fn(n, theta, label):
    return Right("Fn", theta=theta, n=n, label=f"Fn n={n} theta={label}")


@dataclass(frozen=True)
class Op:
    kind: str                   # scan | radius | table | render
    a: Optional[float] = None
    right: Optional[Right] = None
    table: Optional[int] = None
    figure: Optional[str] = None  # render: "default" | "reduced"

    @property
    def name(self):
        if self.kind == "table":
            return f"table {self.table}"
        a = f"{self.a:g}"
        size = f" {self.figure}" if self.figure else ""
        return f"{self.kind} {self.right.label} a={a}{size}"

    @property
    def samples(self):
        """Curve samples of a render op."""
        return figure_samples(**FIGURES[self.figure])

    @property
    def group(self):
        """'f1' for F1 right factors; 'fn' for F0, Fn and the tables."""
        return "fn" if self.right is None else self.right.samples_group

    def bind(self, hc):
        """A zero-argument callable that performs the op."""
        if self.kind == "table":
            return lambda: hc.compute_table(self.table)
        spec = hc.ConvolutionSpec(self.a, self.right.mapping(hc))
        if self.kind == "scan":
            grid = hc.default_grid()

            def scan():
                report = hc.scan_dilatation(spec, grid)
                return report, report.to_json()
            return scan
        if self.kind == "radius":
            return lambda: hc.univalency_radius(spec, tol=1e-6)
        fig = hc.FigureSpec() if self.figure == "default" \
            else hc.FigureSpec(**FIGURES["reduced"])
        return lambda: hc.render_webbing(spec, fig)

    def warm(self, hc):
        """Touch the op's lazy state with a one-point call."""
        if self.kind == "table":
            hc.conv_dilatation(hc.ConvolutionSpec(
                0.5, hc.make_mapping("Fn", theta=PI, n=2)), 0.5)
            return
        spec = hc.ConvolutionSpec(self.a, self.right.mapping(hc))
        hc.conv_dilatation(spec, 0.5)
        if self.kind == "render":
            hc.conv_value(spec, 0.1)


WORKLOADS = {
    "scan": (
        Op("scan", 0.5, _f0()),
        Op("scan", 0.5, _f1(PI / 6, "pi/6")),
        Op("scan", 0.5, _f1(PI - 1e-6, "pi-1e-6")),
        Op("scan", 0.5, _fn(2, PI, "pi")),
        Op("scan", -0.2, _fn(15, PI, "pi")),
        Op("scan", 0.5, _fn(3, PI / 4, "pi/4")),
        Op("scan", 0.7, _fn(10, -PI / 2, "-pi/2")),
    ),
    "radius": (
        Op("radius", 0.5, _f1(PI / 6, "pi/6")),
        Op("radius", -0.5, _f1(3 * PI / 4, "3pi/4")),
        Op("radius", 0.9, _f1(-PI / 3, "-pi/3")),
        Op("radius", 0.5, _f0()),
        Op("radius", 0.5, _fn(2, PI, "pi")),
        Op("radius", -0.2, _fn(15, PI, "pi")),
        Op("radius", 0.7, _fn(10, -PI / 2, "-pi/2")),
        Op("radius", 0.0, _fn(40, PI, "pi")),
        Op("table", table=1),
        Op("table", table=2),
    ),
    "render": (
        Op("render", 0.8, _f1(PI / 6, "pi/6"), figure="default"),
        Op("render", -0.5, _f1(-2 * PI / 3, "-2pi/3"), figure="default"),
        Op("render", 0.5, _f0(), figure="reduced"),
        Op("render", 0.5, _fn(2, PI, "pi"), figure="reduced"),
        Op("render", -0.2, _fn(15, PI, "pi"), figure="reduced"),
        Op("render", 0.5, _fn(3, PI / 4, "pi/4"), figure="reduced"),
    ),
}

# The paper's published |dilatation| at z = 0.99 e^{i pi q}: rows of
# (n, a, theta as (num, den) of pi, q as (num, den), value).  Table 1 fixes
# theta = pi, table 2 varies it.
PAPER_TABLES = {
    1: (
        (2, 0.5, (1, 1), (1, 3), 1.06019),
        (3, 0.5, (1, 1), (3, 4), 1.28884),
        (4, -0.5, (1, 1), (1, 8), 1.07326),
        (5, -0.5, (1, 1), (1, 10), 1.04422),
        (6, -0.4, (1, 1), (1, 11), 1.03038),
        (7, 0.5, (1, 1), (1, 3), 1.04396),
        (8, 0.5, (1, 1), (1, 3), 1.02052),
        (9, 0.5, (1, 1), (1, 2), 1.12641),
        (10, 0.3, (1, 1), (1, 4), 1.05563),
        (11, -0.7, (1, 1), (1, 5), 1.32055),
        (12, 0.0, (1, 1), (1, 5), 1.09197),
        (13, 0.0, (1, 1), (1, 5), 1.00698),
        (14, -0.4, (1, 1), (1, 6), 1.20222),
        (15, -0.2, (1, 1), (1, 6), 1.04876),
    ),
    2: (
        (2, 0.5, (1, 8), (1, 2), 1.16334),
        (3, 0.5, (1, 12), (1, 2), 1.09124),
        (4, 0.5, (1, 3), (1, 3), 1.05616),
        (5, 0.8, (1, 6), (2, 3), 1.06377),
        (6, 0.7, (1, 3), (1, 2), 1.09271),
        (7, 0.7, (1, 6), (1, 2), 1.01364),
        (8, 0.6, (-1, 3), (1, 2), 1.04091),
        (9, 0.7, (1, 2), (-7, 8), 1.20496),
        (10, 0.7, (-1, 2), (-7, 8), 1.97405),
        (11, 0.4, (1, 2), (-7, 8), 1.42585),
        (12, 0.0, (1, 2), (7, 8), 1.09957),
        (13, 0.9, (-1, 16), (7, 8), 1.01078),
        (14, 0.9, (-3, 4), (7, 8), 1.08478),
        (15, 0.9, (-1, 4), (-7, 8), 1.00032),
    ),
}
