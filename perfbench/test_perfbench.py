"""Tests of the benchmark itself: the oracle, the tracer and the checks.

Run with `python -m pytest perfbench -q` from the repository root.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import harmconv as hc
from harmconv.series import (hadamard, series_derivative, series_eval,
                             taylor_of_mapping)

import checks
import oracle
import run
from tracer import Tracer, layer_metrics, self_times
from workloads import KNOWN_FAULTS, WORKLOADS, Op, Right

RIGHTS = sorted({op.right for ops in WORKLOADS.values() for op in ops
                 if op.right is not None}, key=lambda r: r.label)


def _series_route(a, right, z, order=256):
    ha, ga = taylor_of_mapping(hc.make_mapping("Fa", a=a), order)
    hr, gr = taylor_of_mapping(right.mapping(hc), order)
    big_h, big_g = hadamard(ha, hr), hadamard(ga, gr)
    return (series_eval(big_h, z) + np.conj(series_eval(big_g, z)),
            series_eval(series_derivative(big_h), z),
            series_eval(series_derivative(big_g), z))


@pytest.mark.parametrize("right", RIGHTS, ids=lambda r: r.label)
def test_oracle_matches_series_inside_radius_0_7(right):
    rng = np.random.default_rng(7)
    z = 0.7 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
    u, n = oracle.shear_pair(right.family, right.theta, right.n)
    for a in (-0.5, 0.5):
        value, hp, gp = _series_route(a, right, z)
        assert np.max(np.abs(oracle.values(a, u, n, z) - value)) < 1e-11
        for zi, h, g in zip(z, hp, gp):
            oh, og = oracle.derivatives(a, u, n, zi)
            assert abs(oh - h) < 1e-11 and abs(og - g) < 1e-11


def test_tracer_self_times_nest_and_wrappers_come_off():
    spec = hc.ConvolutionSpec(0.5, hc.make_mapping("Fn", theta=math.pi, n=3))
    f1 = hc.ConvolutionSpec(0.5, hc.make_mapping("F1", theta=math.pi / 6))
    fig = hc.FigureSpec(rings=1, rays=2, samples_per_curve=64)
    original = hc.convolution.conv_derivatives
    tracer = Tracer()
    with tracer.active():
        assert hc.analysis.conv_derivatives is not original
        assert hc.conv_derivatives is hc.analysis.conv_derivatives
        hc.scan_dilatation(spec, hc.default_grid(4, 16)).to_json()
        hc.render_webbing(spec, fig)
        hc.render_webbing(f1, fig)
    assert hc.analysis.conv_derivatives is original
    assert hc.convolution.conv_derivatives is original
    assert "to_json" in vars(hc.UnivalencyReport)
    assert not hasattr(hc.UnivalencyReport.to_json, "__wrapped__")

    spans = tracer.spans
    own = self_times(spans)
    child_self = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child_self[s[1]] += own[i]
    for i, s in enumerate(spans):
        assert own[i] >= -1e-9
        assert child_self[i] <= s[3] - s[2] + 1e-9
    roots = [s for s in spans if s[1] < 0]
    assert sum(own) == pytest.approx(sum(s[3] - s[2] for s in roots), abs=1e-9)

    m = layer_metrics(spans)
    samples = 65 + 2 * 64
    assert m["analysis.scan_dilatation.nodes"] == 64
    assert m["render.render_webbing.samples"] == 2 * samples
    assert m["render.render_webbing.dropped"] == 0
    assert m["convolution.conv_value.points"] == 2 * samples
    assert m["special.li2.calls"] > 0
    # the F1 figure's samples come from the closed form, not the quadrature
    in_values = sum(s[4] for i, s in enumerate(spans)
                    if s[0] == "convolution.conv_derivatives"
                    and spans[s[1]][0] == "convolution.conv_value")
    assert m["convolution.conv_value.derivative_points_per_sample"] == \
        pytest.approx(in_values / samples)


def _output(op):
    return op.bind(hc)()


def _rng():
    return np.random.default_rng(11)


def test_perturbed_scan_report_fails_its_check():
    op = Op("scan", 0.5, Right("Fn", theta=math.pi, n=2, label="Fn n=2"))
    report, text = _output(op)
    assert checks.check(op, (report, text), hc, _rng()) == {}
    report.max_modulus += 1e-6
    assert "scan.max_oracle" in checks.check(op, (report, report.to_json()),
                                             hc, _rng())
    report.max_modulus -= 1e-6
    assert list(checks.check(op, (report, text.replace('"skipped": 0', '"skipped": 1')),
                             hc, _rng())) == ["scan.json"]


def test_known_fault_excuses_only_its_own_check():
    op = next(op for op in WORKLOADS["scan"] if op.name in KNOWN_FAULTS)
    report, text = _output(op)
    verdict = checks.check(op, (report, text), hc, _rng())
    assert list(verdict) == [KNOWN_FAULTS[op.name][0]]
    assert run.unexpected(op, verdict) == []
    # the checks after the known failure still run
    bad = checks.check(op, (report, text.replace('"skipped": 0', '"skipped": 1')),
                       hc, _rng())
    assert run.unexpected(op, bad) == ["scan.json"]
    assert run.unexpected(op, {"raised": "ParameterError"}) == ["raised"]


def test_perturbed_radius_fails_its_check():
    f1 = Op("radius", 0.5, Right("F1", theta=math.pi / 6, label="F1"))
    fn = Op("radius", -0.2, Right("Fn", theta=math.pi, n=15, label="Fn n=15"))
    r = _output(fn)
    assert checks.check(fn, r, hc, _rng()) == {}
    assert list(checks.check(fn, r + 5e-6, hc, _rng())) == ["radius.inside"]
    assert list(checks.check(fn, r - 5e-6, hc, _rng())) == ["radius.outside"]
    assert checks.check(f1, 1.0, hc, _rng()) == {}
    assert "radius.f1_theorem" in checks.check(f1, 0.999999, hc, _rng())


def test_known_radius_fault_is_seen_on_the_returned_radius():
    op = next(op for op in WORKLOADS["radius"]
              if op.name == "radius Fn n=2 theta=pi a=0.5")
    r = _output(op)
    verdict = checks.check(op, r, hc, _rng())
    assert list(verdict) == ["radius.inside"] == [KNOWN_FAULTS[op.name][0]]
    short = checks.check(op, r - 5e-6, hc, _rng())
    assert run.unexpected(op, short) == ["radius.outside"]


def test_perturbed_table_row_fails_its_check():
    op = Op("table", table=1)
    rows = _output(op)
    assert checks.check(op, rows, hc, _rng()) == {}
    rows[3]["computed"] += 1e-7
    assert list(checks.check(op, rows, hc, _rng())) == ["table.oracle"]


def test_perturbed_svg_vertex_fails_its_check():
    op = Op("render", 0.8, Right("F1", theta=math.pi / 6, label="F1"),
            figure="default")
    svg = _output(op)
    assert checks.check(op, svg, hc, _rng()) == {}
    head, tail = svg.split("<polyline points=\"", 1)
    points, rest = tail.split("\"", 1)
    verts = points.split()
    x, y = verts[-1].split(",")
    verts[-1] = f"{float(x) + 1e-5:.6f},{y}"
    bad = head + "<polyline points=\"" + " ".join(verts) + "\"" + rest
    assert list(checks.check(op, bad, hc, _rng())) == ["render.vertex_oracle"]


def test_benchmark_json_names_every_metric_run_prints():
    bench = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
