#!/usr/bin/env python3
"""harmconv benchmark.

    python3 perfbench/run.py --workload scan|radius|render|all \
        [--seed N] [--seconds S] [--trace 0|1]

Runs whole passes over the workload's op list (workloads.py) for at least
--seconds, in one process with HARMCONV_THREADS unset, then checks the
first pass's outputs against the oracle (checks.py) and requires every
later pass to repeat them exactly.  With --trace 0 it reports the
end-to-end metrics, timed with tracing off; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics (tracer.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from workloads import GRID_NODES, KNOWN_FAULTS, WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# Set-up is reported at a reference start-up speed: the median set-up probe
# is scaled by IMPORT_REFERENCE_S over the median time of a fresh
# interpreter that imports numpy alone, run right after each probe.  That
# import is most of set-up and drifts with it over minutes, which the
# numpy kernel below does not follow.
IMPORT_REFERENCE_S = 0.23

# Op times are reported at a reference machine speed: each measured time is
# scaled by REFERENCE_S / r, where r is the time the reference kernel took
# right before and after it.  The speed of a shared machine drifts by tens
# of percent over seconds; the kernel slows with it, so the ratio holds.
REFERENCE_S = 0.038
_REF_SMALL = 0.9 * np.exp(2j * np.pi * np.arange(720) / 720)
_REF_LARGE = 0.99 * np.exp(2j * np.pi * np.arange(1440) / 1440)
_REF_ROOTS = np.exp(-2j * np.pi * np.arange(1, 40) / 40)


def reference_seconds():
    """Wall time of a fixed kernel in the mix harmconv's ops run: numpy
    complex ufuncs on 720- and 1440-point arrays (the scan rows and radius
    circles) and interpreted loops."""
    t0 = time.perf_counter()
    for _ in range(16):
        np.log(1 - _REF_SMALL[:, None] * _REF_ROOTS[:14]).sum(axis=-1)
        (_REF_SMALL - _REF_SMALL * _REF_SMALL / 2) / (1 - _REF_SMALL) ** 2
        acc = 0
        for i in range(2000):
            acc += i
    for _ in range(2):
        np.log(1 - _REF_LARGE[:, None] * _REF_ROOTS).sum(axis=-1)
        np.abs(_REF_LARGE[:, None] - _REF_ROOTS).min(axis=1)
    return time.perf_counter() - t0


def at_reference_speed(seconds, before, after):
    return seconds * REFERENCE_S / ((before + after) / 2)


END_TO_END = {"setup_s": "s", "wall_s": "s", "f1_s": "s", "fn_s": "s",
              "peak_rss_mib": "MiB"}

_POINT_FUNCS = ("special.li2", "mappings.eval_h", "mappings.eval_g",
                "mappings.eval_h_prime", "mappings.eval_g_prime",
                "convolution.conv_derivatives", "convolution.conv_value",
                "convolution.conv_parts_f1")
PER_LAYER = {f"{f}.{k}": ("count" if k == "calls" else "points")
             for f in _POINT_FUNCS for k in ("calls", "points")}
PER_LAYER.update({
    "mappings.singular_points.calls": "count",
    "convolution.conv_dilatation.calls": "count",
    "convolution.conv_value.derivative_points_per_sample": "points/sample",
    "analysis.scan_dilatation.calls": "count",
    "analysis.scan_dilatation.nodes": "nodes",
    "analysis.UnivalencyReport.to_json.calls": "count",
    "analysis.UnivalencyReport.to_json.bytes": "bytes",
    "analysis.univalency_radius.calls": "count",
    "analysis.univalency_radius.circles": "circles",
    "render.render_webbing.calls": "count",
    "render.render_webbing.samples": "samples",
    "render.render_webbing.dropped": "samples",
    "tables.compute_table.calls": "count",
})
# Self times of the layers every workload calls.  A layer that a workload
# never calls would read a constant 0 there; its self time is printed in
# the summary and kept in the spans file instead.
for _f in ("mappings.eval_h", "mappings.eval_g", "mappings.eval_h_prime",
           "mappings.eval_g_prime", "convolution.conv_derivatives", "entry"):
    PER_LAYER[f"{_f}.self_s"] = "s"
PER_LAYER.update({"trace.overhead_s": "s", "process.cpu_s": "s"})


def load_harmconv():
    """Import harmconv and its CLI from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import harmconv
    import harmconv.cli  # noqa: F401  (its import cost is part of set-up)
    if Path(harmconv.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"harmconv was imported from {harmconv.__file__}, "
                          f"not from {SRC}")
    return harmconv


def set_up(workload):
    """Import, build the op list, warm lazy state: what set-up time covers."""
    hc = load_harmconv()
    ops = WORKLOADS[workload]
    calls = [op.bind(hc) for op in ops]
    for op in ops:
        op.warm(hc)
    return hc, ops, calls


def _interpreter_seconds(*args):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(workload):
    """Median time of fresh interpreters running set_up(), at reference
    start-up speed (IMPORT_REFERENCE_S)."""
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        times.append(_interpreter_seconds(str(Path(__file__).resolve()),
                                          "--workload", workload, "--setup-only"))
        refs.append(_interpreter_seconds("-c", "import numpy"))
    return statistics.median(times) * IMPORT_REFERENCE_S / statistics.median(refs)


def run_pass(hc, calls):
    """One pass: (outputs, errors, per-op seconds at reference speed,
    wall s, cpu s).  Wall and cpu cover the ops alone."""
    outs, errors, times = [], [], []
    gc.collect()
    wall = cpu = 0.0
    before = reference_seconds()
    for call in calls:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outs.append(call())
            errors.append(None)
        except hc.HarmconvError as exc:
            outs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        t = time.perf_counter() - t0
        cpu += time.process_time() - c0
        wall += t
        after = reference_seconds()
        times.append(at_reference_speed(t, before, after))
        before = after
    return outs, errors, times, wall, cpu


def unexpected(op, verdict):
    """The failed checks of an op's verdict that no known fault explains."""
    known = KNOWN_FAULTS.get(op.name, (None,))[0]
    return [check for check in verdict if check != known]


class Run:
    """Passes over one workload's ops, their timings and their accounting."""

    def __init__(self, hc, ops, calls, tracer=None):
        self.hc, self.ops, self.calls, self.tracer = hc, ops, calls, tracer
        self.first = None        # (outputs, errors) of the first pass
        self.first_keys = None   # what later passes must repeat
        self.changed = []        # per later pass: ops whose output changed
        self.times = [[] for _ in ops]   # per op, untraced passes, at reference speed
        self.pass_s = {False: [], True: []}  # per pass, at reference speed
        self.walls = {False: [], True: []}   # per pass, measured
        self.cpu = []
        self.layers = []         # per traced pass: tracer.layer_metrics
        self.spans = None        # of the first traced pass

    def one_pass(self, traced=False):
        if traced:
            from tracer import layer_metrics
            with self.tracer.active():
                outs, errors, times, wall, _ = run_pass(self.hc, self.calls)
            self.layers.append(layer_metrics(self.tracer.spans))
            if self.spans is None:
                self.spans = self.tracer.spans
        else:
            outs, errors, times, wall, cpu = run_pass(self.hc, self.calls)
            for i, t in enumerate(times):
                self.times[i].append(t)
            self.cpu.append(cpu)
        self.pass_s[traced].append(sum(times))
        self.walls[traced].append(wall)
        # a scan is compared by its JSON text
        keys = [(out[1] if op.kind == "scan" and out else out, err)
                for op, out, err in zip(self.ops, outs, errors)]
        if self.first is None:
            self.first, self.first_keys = (outs, errors), keys
        else:
            self.changed.append({i for i, k in enumerate(keys)
                                 if k != self.first_keys[i]})

    def verdicts(self, rng):
        """Per op, {check name: reason} of what failed on the first pass:
        the checks, or "raised" for a HarmconvError."""
        import checks
        outs, errors = self.first
        return [{"raised": err} if err else checks.check(op, out, self.hc, rng)
                for op, out, err in zip(self.ops, outs, errors)]

    def accounting(self, verdicts):
        """(attempted, failed) over every pass.  An op that failed on the
        first pass fails on every pass; one whose output changes after it
        fails on each pass where it does, and gets "repeat" in its verdict."""
        passes = 1 + len(self.changed)
        failed_first = [bool(v) for v in verdicts]
        failed = passes * sum(failed_first)
        for changed in self.changed:
            for i in changed:
                failed += not failed_first[i]
                verdicts[i]["repeat"] = "output differs from the first pass"
        return passes * len(self.ops), failed

    def op_seconds(self, pred):
        """Summed per-op median time of the ops that pred selects."""
        return sum(statistics.median(self.times[i])
                   for i, op in enumerate(self.ops) if pred(op))

    def end_to_end(self, setup_s, peak_rss_mib):
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(self.pass_s[False]),
            "f1_s": self.op_seconds(lambda op: op.group == "f1"),
            "fn_s": self.op_seconds(lambda op: op.group == "fn"),
            "peak_rss_mib": peak_rss_mib,
        }

    def workload_figures(self):
        """Throughputs and times named for one workload, from the same
        per-op medians; printed in the summary."""
        kinds = {op.kind for op in self.ops}
        out = {}
        if "scan" in kinds:
            out["scan_nodes_per_s"] = (len(self.ops) * GRID_NODES
                                       / self.op_seconds(lambda op: True), "nodes/s")
        if "radius" in kinds:
            out["radius_s"] = (self.op_seconds(lambda op: op.kind == "radius"), "s")
            out["table_s"] = (self.op_seconds(lambda op: op.kind == "table"), "s")
        if "render" in kinds:
            for group in ("f1", "fn"):
                samples = sum(op.samples for op in self.ops if op.group == group)
                rate = samples / self.op_seconds(lambda op: op.group == group)
                out[f"render_{group}_samples_per_s"] = (rate, "samples/s")
        return out

    def per_layer(self):
        """Counts of the first traced pass (every traced pass repeats them)
        and median self times."""
        out = {k: statistics.median(p[k] for p in self.layers)
               if k.endswith("self_s") else v for k, v in self.layers[0].items()}
        # each traced pass against the untraced pass right before it
        out["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(self.pass_s[False], self.pass_s[True]))
        out["process.cpu_s"] = statistics.median(self.cpu)
        return out


def run_workload(args):
    os.environ.pop("HARMCONV_THREADS", None)
    setup_s = None if args.trace else measure_setup(args.workload)
    hc, ops, calls = set_up(args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer, write_jsonl
        tracer = Tracer()
    run = Run(hc, ops, calls, tracer)
    start = time.perf_counter()
    while True:
        run.one_pass()
        if args.trace:
            run.one_pass(traced=True)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = run.verdicts(np.random.default_rng(args.seed))
    attempted, failed = run.accounting(verdicts)

    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  "
          f"failed {failed}")
    correct = True
    for op, verdict in zip(ops, verdicts):
        bad = unexpected(op, verdict)
        correct = correct and not bad
        for check, reason in verdict.items():
            print(f"  FAILED {op.name}: {check}: {reason}")
            print("    UNEXPECTED: not a known fault" if check in bad
                  else f"    known fault: {KNOWN_FAULTS[op.name][1]}")
    for traced, walls in run.walls.items():
        if walls:
            print(f"  {'traced' if traced else 'untraced'} pass walls (s): "
                  + " ".join(f"{w:.3f}" for w in walls))
    for i, op in enumerate(ops):
        print(f"  op {op.name}: median {statistics.median(run.times[i]):.4f} s")
    if args.trace:
        layers = run.per_layer()
        for key in run.layers[0]:
            if not key.endswith("self_s") and any(p[key] != layers[key] for p in run.layers):
                print(f"  UNSTEADY count {key}: {[p[key] for p in run.layers]}")
                correct = False
        for key in sorted(layers):
            print(f"  {key} {layers[key]:.6g}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        write_jsonl(run.spans, out_dir / f"spans-{args.workload}.jsonl")
    else:
        e2e = run.end_to_end(setup_s, peak_rss_mib)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        figures = {k: (m["value"], m["unit"]) for k, m in metrics.items()}
        for key, (value, unit) in {**figures, **run.workload_figures()}.items():
            print(f"  {key} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="run the set-up alone; used to time it")
    args = p.parse_args(argv)
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    try:
        if args.setup_only:
            set_up(args.workload)
            return 0
        return run_workload(args)
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
