"""Record harmconv's outputs, or name those that moved since a record.

    python tools/outputs.py --write FILE     # record this checkout's outputs
    python tools/outputs.py --compare FILE   # recompute them against FILE

The checkout's own ``src`` is imported, whatever harmconv is installed, and
only through harmconv's public names.  Recorded:

* every op of ``perfbench/workloads.py``'s WORKLOADS: a scan's report JSON
  and a figure's SVG by sha1, a radius and a table by ``repr``;
* the radii the CI job pins, and Fn n=256 theta=2 a=-0.5;
* 9 specs x 7 figure shapes of ``render_webbing``, by sha1;
* ``conv_value``, ``conv_dilatation``, ``conv_derivatives`` and ``eval_h``
  (and, for an F1 factor, ``conv_parts_f1``) at 200 seeded points of
  |z| < 0.999 for 40 seeded random specs, and ``conv_value`` at 10 of them
  as Python scalars.

A text is hashed whole and by part (an SVG's polylines, a report's top-level
fields), so a moved text names how many of its parts moved; numbers name how
many moved, the largest |new - old|/|old| and the largest |new - old| (a
tiny Fn dilatation is accurate only in absolute terms).  Bits follow the numpy and
BLAS build: compare only records written by the same build.  ``--compare``
exits 1 if anything moved.
"""
import argparse
import hashlib
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import harmconv as hc  # noqa: E402

PI = math.pi
# (n, theta, a, tol) of the Fn radii the CI job pins, and n = 256
RADII = [(2, PI, 0.5, 1e-6), (40, PI, 0.0, 1e-6), (15, PI, -0.2, 1e-6),
         (10, -PI / 2, 0.7, 1e-6), (1024, PI / 2, 0.0, 1e-6),
         (512, 2.0, -0.5, 1e-6),
         (2, -0.6221618858265954, -0.9919908894416408, 1e-6),
         (2, PI, 0.5, 1e-3), (40, PI, 0.0, 1e-3), (256, 2.0, -0.5, 1e-6)]
# figure specs besides the benchmark's render ops: (n, theta, a) of Fn
FIGURE_FNS = [(10, -PI / 2, 0.7), (40, 2.0, -0.5), (2, 3.1, 0.5)]
SHAPES = {
    "default": {}, "reduced": dict(rings=4, rays=8, samples_per_curve=64),
    "odd-S": dict(rings=3, rays=4, samples_per_curve=65),
    "odd-K": dict(rings=2, rays=3, samples_per_curve=64),
    "odd-both": dict(rings=2, rays=5, samples_per_curve=65),
    "S=5000": dict(samples_per_curve=5000), "r=0.999": dict(max_radius=0.999),
}


def workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


def text(kind, value):
    """A text output: its sha1, and the sha1 of each part."""
    if kind == "svg":
        parts = re.findall(r'points="([^"]*)"', value)
    else:
        parts = [json.dumps(v, sort_keys=True) for v in json.loads(value).values()]
    return {"sha1": sha1(value), "parts": [sha1(p) for p in parts]}


def numbers(values):
    """A numeric output: its values' real and imaginary parts."""
    v = np.asarray(values, complex).ravel()
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def label(right):
    return " ".join([right.family] + [f"{k}={getattr(right, k)!r}"
                                      for k in ("n", "theta")
                                      if getattr(right, k) is not None])


def floats(reprs):
    """The numbers written in a list of reprs, as one numeric output."""
    return numbers([float(x) for r in reprs for x in re.findall(
        r"-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|inf", r)])


def call(f, *args):
    try:
        return numbers(f(*args))
    except hc.HarmconvError as e:
        return {"error": type(e).__name__}


def record():
    out, ops_of = {}, workloads()
    for ops in ops_of.values():
        for op in ops:
            result = op.bind(hc)()
            if op.kind == "scan":
                out[op.name] = text("json", result[1])
            elif op.kind == "render":
                out[op.name] = text("svg", result)
            elif op.kind == "table":
                out[op.name] = {"repr": [repr(row) for row in result]}
            else:
                out[op.name] = {"repr": [repr(result)]}
    for n, theta, a, tol in RADII:
        spec = hc.ConvolutionSpec(a, hc.make_mapping("Fn", n=n, theta=theta))
        out[f"radius Fn n={n} theta={theta!r} a={a!r} tol={tol:g}"] = {
            "repr": [repr(hc.univalency_radius(spec, tol))]}
    specs = [(op.a, op.right.mapping(hc)) for op in ops_of["render"]]
    specs += [(a, hc.make_mapping("Fn", n=n, theta=theta))
              for n, theta, a in FIGURE_FNS]
    for a, right in specs:
        for shape, fields in SHAPES.items():
            svg = hc.render_webbing(hc.ConvolutionSpec(a, right),
                                    hc.FigureSpec(**fields))
            out[f"figure {label(right)} a={a!r} {shape}"] = text("svg", svg)
    rng = np.random.default_rng(35)
    for i in range(40):
        family = str(rng.choice(["F0", "F1", "Fn"]))
        theta, n = float(rng.uniform(-PI, PI)), int(rng.integers(2, 65))
        a = float(rng.uniform(-0.95, 0.95))
        z = 0.999 * np.sqrt(rng.uniform(size=200)) * np.exp(
            2j * PI * rng.uniform(size=200))
        right = {"F0": lambda: hc.make_mapping("F0"),
                 "F1": lambda: hc.make_mapping("F1", theta=theta),
                 "Fn": lambda: hc.make_mapping("Fn", n=n, theta=theta)}[family]()
        spec, name = hc.ConvolutionSpec(a, right), f"{label(right)} a={a!r}"
        out[f"conv_value {name}"] = call(hc.conv_value, spec, z)
        out[f"conv_value scalars {name}"] = call(
            lambda: [hc.conv_value(spec, complex(p)) for p in z[:10]])
        out[f"conv_dilatation {name}"] = call(hc.conv_dilatation, spec, z)
        out[f"conv_derivatives {name}"] = call(
            lambda: np.stack(hc.conv_derivatives(spec, z)))
        out[f"eval_h {label(right)}"] = call(hc.eval_h, right, z)
        if family == "F1":
            out[f"conv_parts_f1 {name}"] = call(
                lambda: np.stack(hc.conv_parts_f1(a, theta, z)))
    return out


def moved(old, new):
    """None if new has old's bits, else how it moved."""
    if json.dumps(old) == json.dumps(new):  # floats by repr: -0.0 and NaN too
        return None
    if "parts" in old and "parts" in new:
        count = sum(p != q for p, q in zip(old["parts"], new["parts"]))
        return (f"{count} of {len(old['parts'])} parts moved"
                + (", and the part count" if len(old["parts"]) != len(new["parts"])
                   else "") + " (hashed: no magnitude)")
    if "repr" in old and "repr" in new:
        old, new = floats(old["repr"]), floats(new["repr"])
    if "re" in old and "re" in new and len(old["re"]) == len(new["re"]):
        u, v = (np.array([x["re"], x["im"]]) for x in (old, new))
        diff = (u.view(np.int64) != v.view(np.int64)).any(0)
        move = np.hypot(*(v - u)[:, diff])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = move / np.hypot(*u[:, diff])
        return (f"{np.count_nonzero(diff)} of {u.shape[1]} values moved, "
                f"largest relative move {rel.max(initial=0):.3g}, largest "
                f"absolute {move.max(initial=0):.3g}")
    return f"was {json.dumps(old)[:80]}, now {json.dumps(new)[:80]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE")
    group.add_argument("--compare", metavar="FILE")
    args = parser.parse_args()
    out = record()
    if args.write:
        Path(args.write).write_text(json.dumps(out))
        print(f"{len(out)} outputs written to {args.write}")
        return 0
    old = json.loads(Path(args.compare).read_text())
    lines = [f"{name}: {'missing now' if name not in out else 'new'}"
             for name in sorted(set(old) ^ set(out))]
    lines += [f"{name}: {m}" for name in old if name in out
              for m in [moved(old[name], out[name])] if m]
    print("\n".join([*lines, f"{len(lines)} of {len(set(old) | set(out))} "
                                "outputs moved"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
