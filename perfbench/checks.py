"""Correctness checks for each op's output, run outside the timed region.

Each check compares the output with the oracle (oracle.py) or with a
property the method must have, never with a stored copy of an earlier
output.  Every check runs, and `check` returns the ones that failed as
{check name: reason}, empty when the output passes.  Only a check whose
failure leaves nothing to examine (a malformed grid, radius or figure)
stops the checks after it.
"""
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

import oracle
from workloads import FIGURES, PAPER_TABLES

ORACLE_TOL = 1e-8         # |w| against the oracle, as acceptance criterion 05
TABLE_TOL = 1e-4          # table rows against the paper
PRINT_TOL = 5e-7 + 1e-9   # SVG coordinates are printed with 6 decimals
RADIUS_TOL = 1e-6         # the tol the radius ops pass

GRID_RADII, GRID_ANGLES = 60, 720
# (radius index, angle index) grid nodes checked on every scan
FIXED_SCAN_NODES = ((0, 0), (20, 137), (35, 450), (59, 263), (59, 540))
SEEDED_SCAN_NODES = 4
SEEDED_VERTICES = 24
REFINE_NODES = 11520      # coarse ring before the angular refinement
REFINE_STEPS = 48         # golden-section steps per local maximum


class _Stop(Exception):
    pass


class _Failures(dict):
    """Failed checks by name, with the first reason each gave."""

    def require(self, ok, name, reason, fatal=False):
        if not ok:
            self.setdefault(name, reason)
            if fatal:
                raise _Stop


def _spec(hc, op):
    return hc.ConvolutionSpec(op.a, op.right.mapping(hc))


def _pair(op):
    r = op.right
    return oracle.shear_pair(r.family, r.theta, r.n)


def _cx(z):
    return None if z is None else {"re": z.real, "im": z.imag}


# --------------------------------------------------------------------------
# scan

def _node_index(z, radii):
    i = int(np.argmin(np.abs(np.asarray(radii) - abs(z))))
    k = round(math.atan2(z.imag, z.real) / (2 * math.pi) * GRID_ANGLES) % GRID_ANGLES
    return i, k


def check_scan(op, output, hc, rng, fail):
    report, text = output
    radii = report.grid.radii
    fail.require(len(radii) == GRID_RADII and report.grid.angles_count == GRID_ANGLES
                 and all(0 < p < q for p, q in zip(radii, radii[1:]))
                 and radii[-1] == 0.999,
                 "scan.grid", "grid is not 60 increasing radii to 0.999 x 720 "
                 "angles", fatal=True)

    expected = {
        "max_modulus": report.max_modulus,
        "argmax": _cx(report.argmax),
        "violations": [{"z": _cx(z), "modulus": m} for z, m in report.violations],
        "grid": {"radii": list(radii), "angles_count": GRID_ANGLES},
        "critical_points": [_cx(z) for z in report.critical_points],
        "skipped": report.skipped,
    }
    fail.require(json.loads(text) == expected, "scan.json",
                 "JSON does not round-trip to the report")

    nodes = list(FIXED_SCAN_NODES) + list(zip(
        rng.integers(0, GRID_RADII, SEEDED_SCAN_NODES).tolist(),
        rng.integers(0, GRID_ANGLES, SEEDED_SCAN_NODES).tolist()))
    zs = np.array([radii[i] * np.exp(2j * np.pi * k / GRID_ANGLES) for i, k in nodes])
    a, (u, n) = op.a, _pair(op)

    w_max = oracle.dilatation_modulus(a, u, n, report.argmax)
    fail.require(abs(w_max - report.max_modulus) <= ORACLE_TOL, "scan.max_oracle",
                 f"max_modulus {report.max_modulus:.10f} at {report.argmax:.6f} "
                 f"is off the oracle {w_max:.10f}")

    # harmconv's pointwise |w| at the sampled nodes, the kernel the scan
    # used: the oracle checks its accuracy, the report must agree with it
    # (the nodes are formed here, so to within rounding)
    w_prog = np.abs(hc.conv_dilatation(_spec(hc, op), zs))
    vio = {_node_index(z, radii): m for z, m in report.violations}
    for (i, k), z, wp in zip(nodes, zs, w_prog):
        wo = oracle.dilatation_modulus(a, u, n, z)
        fail.require(abs(wp - wo) <= ORACLE_TOL, "scan.node_oracle",
                     f"|w| at node {z:.6f} is {wp:.10f}, oracle {wo:.10f} "
                     f"(off by {abs(wp - wo):.1e})")
        fail.require(wp <= report.max_modulus + ORACLE_TOL, "scan.max_bound",
                     f"|w| = {wp:.10f} at node {z:.6f} exceeds max_modulus")
        if (i, k) in vio:
            fail.require(abs(vio[(i, k)] - wp) <= ORACLE_TOL, "scan.violations",
                         f"violation modulus {vio[(i, k)]:.10f} at {z:.6f} is "
                         f"not the pointwise {wp:.10f}")
        else:
            fail.require(wp < 1 + ORACLE_TOL, "scan.violations",
                         f"|w| = {wp:.10f} at {z:.6f} is not listed as a violation")


# --------------------------------------------------------------------------
# radius

def _modulus(hc, spec, theta, r):
    hp, gp = hc.conv_derivatives(spec, r * np.exp(1j * theta))
    return np.abs(gp / hp)


def refined_max(hc, spec, r):
    """Largest |w| on |z| = r and where it sits: every local maximum of a
    dense ring, refined in angle by golden-section search."""
    step = 2 * math.pi / REFINE_NODES
    t = step * np.arange(REFINE_NODES)
    m = _modulus(hc, spec, t, r)
    peaks = np.nonzero((m >= np.roll(m, 1)) & (m > np.roll(m, -1)))[0]
    lo, hi = t[peaks] - step, t[peaks] + step
    g = (math.sqrt(5) - 1) / 2
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = _modulus(hc, spec, c, r), _modulus(hc, spec, d, r)
    for _ in range(REFINE_STEPS):
        left = fc > fd  # the maximum lies in [lo, d]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fx = _modulus(hc, spec, x, r)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    best_t = np.concatenate((t[peaks], c, d))
    best_m = np.concatenate((m[peaks], fc, fd))
    j = int(np.argmax(best_m))
    return float(best_m[j]), complex(r * np.exp(1j * best_t[j]))


def _confirmed_max(hc, op, r, fail):
    w_prog, z = refined_max(hc, _spec(hc, op), r)
    u, n = _pair(op)
    w = oracle.dilatation_modulus(op.a, u, n, z)
    fail.require(abs(w - w_prog) <= ORACLE_TOL, "radius.oracle",
                 f"refined max |w| {w_prog:.10f} at {z:.6f} is off the oracle "
                 f"{w:.10f}")
    return w, z


def check_radius(op, r, hc, rng, fail):
    """max |w| < 1 on |z| = r and >= 1 on |z| = r + tol (where that lies
    in the disk): r is below the true radius by at most tol.  A radius of 1
    needs max |w| < 1 at 0.999, the last radius the search tries."""
    fail.require(isinstance(r, float) and 0 < r <= 1, "radius.range",
                 f"radius {r!r} is not in (0, 1]", fatal=True)
    if op.right.family == "F1":
        fail.require(r == 1.0, "radius.f1_theorem",
                     f"F1 radius is {r!r}, the paper's F1 theorem gives 1")
    w, z = _confirmed_max(hc, op, min(r, 0.999), fail)
    fail.require(w < 1, "radius.inside",
                 f"max |w| = {w:.9f} >= 1 at {z:.7f}, inside the returned "
                 f"radius {r:.7f}")
    if r + RADIUS_TOL < 1:
        w, z = _confirmed_max(hc, op, r + RADIUS_TOL, fail)
        fail.require(w >= 1, "radius.outside",
                     f"max |w| = {w:.9f} < 1 on |z| = r + tol; the radius "
                     f"{r:.7f} is short by more than tol")


# --------------------------------------------------------------------------
# tables

def check_table(op, rows, hc, rng, fail):
    paper = PAPER_TABLES[op.table]
    fail.require(len(rows) == len(paper)
                 and all(row["n"] == n and row["a"] == a
                         for row, (n, a, *_) in zip(rows, paper)),
                 "table.rows", f"table {op.table} rows are not the paper's "
                 "(n, a) in order", fatal=True)
    for row, (n, a, th, q, ref) in zip(rows, paper):
        got = row["computed"]
        fail.require(abs(got - ref) <= TABLE_TOL, "table.paper",
                     f"table {op.table} n={n}: {got:.6f} is off the paper's {ref}")
        u, nn = oracle.shear_pair("Fn", math.pi * th[0] / th[1], n)
        w = oracle.dilatation_modulus(a, u, nn, oracle.probe_point(*q))
        fail.require(abs(got - w) <= ORACLE_TOL, "table.oracle",
                     f"table {op.table} n={n}: {got:.10f} is off the oracle {w:.10f}")


# --------------------------------------------------------------------------
# render

_SVG = "{http://www.w3.org/2000/svg}"
_DROPPED = re.compile(r"<!-- dropped samples: (\d+) -->")


def _sample_point(curve, vertex, rings, rays, S, R):
    if curve < rings:
        return R * (curve + 1) / rings * np.exp(2j * np.pi * vertex / S)
    return R * vertex / (S - 1) * np.exp(2j * np.pi * (curve - rings) / rays)


def check_render(op, svg, hc, rng, fail):
    fig = FIGURES[op.figure]
    rings, rays, S = fig["rings"], fig["rays"], fig["samples_per_curve"]
    R = 0.99  # FigureSpec's max_radius
    m = _DROPPED.search(svg)
    fail.require(m is not None and m.group(1) == "0", "render.dropped",
                 "samples were dropped")
    polys = list(ET.fromstring(svg).iter(_SVG + "polyline"))
    fail.require(len(polys) == rings + rays, "render.curves",
                 f"{len(polys)} polylines, expected {rings + rays}", fatal=True)
    curves = [np.array([[float(v) for v in p.split(",")]
                        for p in poly.get("points").split()]) for poly in polys]
    for c, pts in enumerate(curves):
        fail.require(len(pts) == (S + 1 if c < rings else S), "render.curves",
                     f"curve {c} has {len(pts)} vertices", fatal=True)

    # the last vertex of every curve, plus seeded ones
    picks = [(c, len(pts) - 1) for c, pts in enumerate(curves)]
    for c in rng.integers(0, rings + rays, SEEDED_VERTICES).tolist():
        picks.append((c, int(rng.integers(0, len(curves[c])))))
    zs = np.array([_sample_point(c, v, rings, rays, S, R) for c, v in picks])
    u, n = _pair(op)
    want = oracle.values(op.a, u, n, zs)
    for (c, v), z, w in zip(picks, zs, want):
        x, y = curves[c][v]
        fail.require(abs(x - w.real) <= PRINT_TOL and abs(y + w.imag) <= PRINT_TOL,
                     "render.vertex_oracle",
                     f"vertex {v} of curve {c} is ({x}, {y}); the oracle value "
                     f"at {z:.6f} is {w:.9f}")


CHECKS = {"scan": check_scan, "radius": check_radius, "table": check_table,
          "render": check_render}


def check(op, output, hc, rng):
    """{check name: reason} of every check the output fails."""
    fail = _Failures()
    try:
        CHECKS[op.kind](op, output, hc, rng, fail)
    except _Stop:
        pass
    return dict(fail)
