import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from harmconv import UnivalencyReport
from harmconv.cli import main, parse_angle


@pytest.fixture
def runner():
    return CliRunner()


class TestParseAngle:
    @pytest.mark.parametrize("text,want", [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("7pi/8", 7 * math.pi / 8),
        ("-pi/4", -math.pi / 4),
        ("2pi/3", 2 * math.pi / 3),
        ("0", 0.0),
        ("1.25", 1.25),
        (" pi / 6 ", math.pi / 6),
    ])
    def test_accepted(self, text, want):
        assert parse_angle(text) == pytest.approx(want)

    def test_rejected(self):
        import click
        for text in ("pie/3", "pi/0", "-3pi/0"):
            with pytest.raises(click.BadParameter):
                parse_angle(text)


def test_table_1_passes(runner):
    res = runner.invoke(main, ["table", "1"])
    assert res.exit_code == 0, res.output
    assert "1.06019" in res.output


def test_table_2_csv(runner):
    res = runner.invoke(main, ["table", "2", "--format", "csv"])
    assert res.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert len(rows) == 14
    assert rows[8]["n"] == "10"
    assert float(rows[8]["reference"]) == pytest.approx(1.97405)
    assert all(abs(float(r["diff"])) < 1e-4 for r in rows)


def test_table_json(runner):
    res = runner.invoke(main, ["table", "1", "--format", "json"])
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert rows[0]["n"] == 2 and rows[-1]["n"] == 15


def test_table_exit_1_on_tolerance_failure(runner, monkeypatch):
    from harmconv import tables

    def fake(which):
        return [{"n": 2, "a": 0.5, "theta": "1pi/1", "z_angle": "1pi/3",
                 "computed": 1.0, "reference": 1.2, "diff": 0.2}]
    monkeypatch.setattr(tables, "compute_table", fake)
    res = runner.invoke(main, ["table", "1"])
    assert res.exit_code == 1


def test_invalid_table_number(runner):
    res = runner.invoke(main, ["table", "3"])
    assert res.exit_code == 2


def test_check_text_and_json(runner):
    args = ["check", "--family", "f1", "--theta", "pi/6", "--a", "0.5",
            "--radii", "12", "--angles", "90"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert "violations        0" in res.output
    res2 = runner.invoke(main, args + ["--format", "json"])
    assert res2.exit_code == 0
    rep = UnivalencyReport.from_json(res2.output)
    assert rep.violations == [] and rep.max_modulus < 1


def test_check_missing_theta_usage_error(runner):
    res = runner.invoke(main, ["check", "--family", "f1", "--a", "0.5"])
    assert res.exit_code == 2


def test_check_bad_a_usage_error(runner):
    res = runner.invoke(main, ["check", "--family", "f1", "--theta", "pi/6",
                               "--a", "1.5"])
    assert res.exit_code == 2


@pytest.mark.parametrize("grid", [["--radii", "0"], ["--angles", "0"]])
def test_check_empty_grid_usage_error(runner, grid):
    res = runner.invoke(main, ["check", "--family", "f1", "--theta", "pi/6",
                               "--a", "0.5"] + grid)
    assert res.exit_code == 2
    assert "positive integer" in res.output


def test_zero_denominator_angle_usage_error(runner):
    res = runner.invoke(main, ["radius", "--family", "fn", "--n", "2",
                               "--theta", "pi/0", "--a", "0.5"])
    assert res.exit_code == 2
    assert "zero denominator" in res.output


def test_f1_theta_pi_redirects(runner):
    res = runner.invoke(main, ["check", "--family", "f1", "--theta", "pi",
                               "--a", "0.5"])
    assert res.exit_code == 2
    assert "n=1" in res.output


def test_radius_output(runner):
    res = runner.invoke(main, ["radius", "--family", "fn", "--n", "2",
                               "--theta", "pi", "--a", "0.5", "--tol", "1e-4"])
    assert res.exit_code == 0
    assert float(res.output.strip()) == pytest.approx(0.9662, abs=1e-3)


@pytest.mark.parametrize("tol", ["nan", "inf", "1"])
def test_radius_bad_tol_usage_error(runner, tol):
    res = runner.invoke(main, ["radius", "--family", "fn", "--n", "2",
                               "--theta", "pi", "--a", "0.5", "--tol", tol])
    assert res.exit_code == 2
    assert "tol must lie in" in res.output


def test_render_writes_svg(runner, tmp_path):
    out = tmp_path / "fig.svg"
    res = runner.invoke(main, [
        "render", "--family", "f1", "--theta", "pi/6", "--a", "0.5",
        "--out", str(out), "--rings", "3", "--rays", "6", "--samples", "64"])
    assert res.exit_code == 0, res.output
    text = out.read_text()
    assert text.startswith("<?xml") and "<svg" in text
    assert text.count("<polyline") == 9


def test_oracle_passes(runner):
    res = runner.invoke(main, ["oracle", "--family", "fn", "--n", "2",
                               "--theta", "pi", "--a", "0.5",
                               "--samples", "25"])
    assert res.exit_code == 0
    assert "max deviation" in res.output


@pytest.mark.parametrize("bad", [["--order", "0"], ["--samples", "0"],
                                 ["--samples", "-1"]])
def test_oracle_bad_counts_usage_error(runner, bad):
    res = runner.invoke(main, ["oracle", "--family", "f0", "--a", "0.5"] + bad)
    assert res.exit_code == 2


def test_render_bad_stroke_usage_error(runner, tmp_path):
    out = tmp_path / "fig.svg"
    res = runner.invoke(main, [
        "render", "--family", "f1", "--theta", "pi/6", "--a", "0.5",
        "--out", str(out), "--stroke", '"/><script>alert(1)</script><g x="'])
    assert res.exit_code == 2
    assert not out.exists()


def test_oracle_checks_values(runner, monkeypatch):
    # a value error the dilatation cannot see still fails the oracle
    from harmconv import cli, convolution

    def off(spec, z):
        return convolution.conv_value(spec, z) + 1e-6

    monkeypatch.setattr(cli, "conv_value", off)
    res = runner.invoke(main, ["oracle", "--family", "fn", "--n", "2",
                               "--theta", "pi", "--a", "0.5",
                               "--samples", "25"])
    assert res.exit_code == 1
    assert "max value deviation" in res.output


def test_oracle_f0(runner):
    res = runner.invoke(main, ["oracle", "--family", "f0", "--a", "-0.4",
                               "--samples", "25"])
    assert res.exit_code == 0
