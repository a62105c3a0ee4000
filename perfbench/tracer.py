"""Per-layer tracing of harmconv from outside the package.

`Tracer.active()` replaces each traced public function at every
module-level name bound to it across harmconv's modules (the modules import
these functions by name, so `convolution.conv_derivatives` and
`analysis.conv_derivatives` are both replaced), and restores the originals
on exit.  The spans of the block stay in memory in `Tracer.spans` as
[name, parent, start, end, size, extra], and `write_jsonl` writes them as
JSON lines at the end of a run.

A span's self time is its duration minus the durations of its direct child
spans.  Calls run on one thread, so children nest inside their parent.
"""
import json
import re
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import figure_samples

# traced public functions, by the module (layer) that defines them
LAYERS = {
    "special": ("li2",),
    "mappings": ("eval_h", "eval_g", "eval_h_prime", "eval_g_prime",
                 "singular_points"),
    "convolution": ("conv_derivatives", "conv_dilatation", "conv_parts_f1",
                    "conv_value"),
    "analysis": ("scan_dilatation", "univalency_radius"),
    "render": ("render_webbing",),
    "tables": ("compute_table",),
}
TO_JSON = "analysis.UnivalencyReport.to_json"

# the public call each op makes directly
ENTRY_POINTS = ("analysis.scan_dilatation", TO_JSON,
                "analysis.univalency_radius", "render.render_webbing",
                "tables.compute_table")


# work size of a call, from its arguments
SIZE = {
    "special.li2": lambda a: np.size(a[0]),
    "convolution.conv_parts_f1": lambda a: np.size(a[2]),
    "analysis.scan_dilatation": lambda a: len(a[1].radii) * a[1].angles_count,
    "render.render_webbing": lambda a: figure_samples(
        a[1].rings, a[1].rays, a[1].samples_per_curve),
}
for _name in ("mappings.eval_h", "mappings.eval_g", "mappings.eval_h_prime",
              "mappings.eval_g_prime", "convolution.conv_derivatives",
              "convolution.conv_dilatation", "convolution.conv_value"):
    SIZE[_name] = lambda a: np.size(a[1])

_DROPPED = re.compile(r"<!-- dropped samples: (\d+) -->")

# what a call's result adds to its span
RESULT = {
    TO_JSON: lambda out: len(out.encode()),
    "render.render_webbing": lambda out: int(_DROPPED.search(out).group(1)),
}


PACKAGE = "harmconv"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        size_of = SIZE.get(name)
        result_of = RESULT.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    int(size_of(args)) if size_of else 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if result_of:
                span[5] = result_of(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _install(self):
        pkg = PACKAGE
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == pkg or key.startswith(pkg + "."))]
        for layer, names in LAYERS.items():
            owner = sys.modules[f"{pkg}.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cls = sys.modules[f"{pkg}.analysis"].UnivalencyReport
        original = cls.__dict__["to_json"]
        self._undo.append((cls, "to_json", original))
        setattr(cls, "to_json", self._wrap(TO_JSON, original))

    def _remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        """Trace every call made inside the block into a fresh span list."""
        self.spans = []
        self._install()
        try:
            yield
        finally:
            self._remove()


def write_jsonl(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, parent, start, end, size, extra) in enumerate(spans):
            fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                 "start": start, "end": end, "size": size,
                                 "extra": extra}) + "\n")


def self_times(spans):
    """Self time of each span."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def _ancestor(spans, i, name):
    """Index of span i's nearest ancestor called name, or -1."""
    p = spans[i][1]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][1]
    return p


def layer_metrics(spans):
    """Per-layer counts and self times of the spans."""
    own = self_times(spans)
    calls, size, self_s, extra = {}, {}, {}, {}
    circles = deriv_in_value = 0
    quadrature_values = set()  # conv_value spans that ran conv_derivatives
    for i, (name, _, _, _, n, x) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if x is not None:
            extra[name] = extra.get(name, 0) + x
        if name == "convolution.conv_derivatives":
            circles += _ancestor(spans, i, "analysis.univalency_radius") >= 0
            v = _ancestor(spans, i, "convolution.conv_value")
            if v >= 0:
                quadrature_values.add(v)
                deriv_in_value += n

    out = {}
    for layer, names in LAYERS.items():
        for fname in names:
            key = f"{layer}.{fname}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_s"] = self_s.get(key, 0.0)
            if key in SIZE:
                out[f"{key}.points"] = size.get(key, 0)
    out[f"{TO_JSON}.calls"] = calls.get(TO_JSON, 0)
    out[f"{TO_JSON}.self_s"] = self_s.get(TO_JSON, 0.0)
    out[f"{TO_JSON}.bytes"] = extra.get(TO_JSON, 0)
    out["analysis.scan_dilatation.nodes"] = out.pop("analysis.scan_dilatation.points")
    out["render.render_webbing.samples"] = out.pop("render.render_webbing.points")
    out["render.render_webbing.dropped"] = extra.get("render.render_webbing", 0)
    out["analysis.univalency_radius.circles"] = circles
    # F1 values come from the closed form (conv_parts_f1), so only the
    # samples of conv_value calls that ran the quadrature count
    samples = sum(spans[v][4] for v in quadrature_values)
    out["convolution.conv_value.derivative_points_per_sample"] = \
        deriv_in_value / samples if samples else 0.0
    out["entry.self_s"] = sum(self_s.get(k, 0.0) for k in ENTRY_POINTS)
    return out
