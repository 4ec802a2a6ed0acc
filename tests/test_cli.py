"""End-to-end tests of the command-line interface."""

import argparse
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import impactval
from impactval import leverage as lev
from impactval.cli import main, parse_fraction, parse_grid
from impactval.impact import ImpactParams

SRC = Path(impactval.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_fraction():
    assert parse_fraction("0.063") == 0.063
    assert parse_fraction("6.3%") == pytest.approx(0.063)
    assert parse_fraction(" 15% ") == pytest.approx(0.15)


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "--Q", "1e6", "--p0", "10", "--sigma", "nan", "--V", "1e6"],
        ["value", "--Q", "1e6", "--p0", "10", "--sigma", "2%", "--V", "inf"],
        ["value", "--Q=-inf", "--p0", "10", "--sigma", "2%", "--V", "1e6"],
        ["value", "--Q", "1e6", "--p0", "nan", "--sigma", "nan%", "--V", "1e6"],
        ["critical", "--lambda0", "nan", "--impact", "0.1"],
        ["critical", "--lambda0", "9", "--impact", "inf%"],
        ["trajectory", "--lambda0", "9", "--impact=-inf"],
        ["bankruptcy", "--lambda0", "9", "--eta", "inf"],
        ["bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid", "0:nan:3"],
        ["estimate", "series.csv", "--Y", "nan"],
    ],
)
def test_non_finite_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_parse_grid():
    grid = parse_grid("0:0.3:4")
    assert np.allclose(grid, [0.0, 0.1, 0.2, 0.3])
    with pytest.raises(Exception):
        parse_grid("0:0.3")


def test_grid_over_the_memory_budget_refused_before_it_is_built(monkeypatch, capsys):
    # 10**12 points would take terabytes; the count alone is refused.
    with pytest.raises(argparse.ArgumentTypeError, match="^a 1000000000000-point grid needs"):
        parse_grid("0:0.3:1000000000000")
    # A 1 MiB budget holds 819 transition-curve points of 1280 bytes.
    monkeypatch.setattr(lev, "MEMORY_BUDGET_BYTES", 2**20)
    assert len(parse_grid("0:0.3:819")) == 819
    with pytest.raises(SystemExit) as exc:
        main(["bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid", "0:0.3:820"])
    assert exc.value.code == 2
    assert "argument --impact-grid: a 820-point grid needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode_flags, largest",
    [
        (["--lambda0", "9", "--impact", "0.1"], 2621),
        # Two points, entry and exit, per grid value.
        (["--mode", "roundtrip", "--Q", "1e6", "--p0", "10", "--sigma", "19%", "--V", "1e6"], 1310),
    ],
    ids=["exit", "roundtrip"],
)
def test_trajectory_grid_over_the_memory_budget_exit_1(monkeypatch, capsys, mode_flags, largest):
    # A 1 MiB budget holds 2621 trajectory points of 400 bytes.
    monkeypatch.setattr(lev, "MEMORY_BUDGET_BYTES", 2**20)
    code, out, _ = run(capsys, "trajectory", *mode_flags, "--grid", str(largest))
    assert code == 0 and out
    code, out, err = run(capsys, "trajectory", *mode_flags, "--grid", str(largest + 1))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: a {largest + 1}-point grid needs")
    assert len(err.splitlines()) == 1


def test_value_empty_position(capsys):
    code, out, _ = run(
        capsys, "value", "--Q", "0", "--p0", "100", "--sigma", "2%", "--V", "1e6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mtm_value"] == 0.0
    assert payload["impact_adjusted_value"] == 0.0


def test_value_worked_example(capsys):
    # Q = 5% of cap, V = 0.5% of cap per day, sigma = 2%: impact ~ 6.3%,
    # haircut ~ 4.2%.
    code, out, _ = run(
        capsys, "value", "--Q", "5e7", "--p0", "1", "--sigma", "2%", "--V", "5e6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["impact"] == pytest.approx(0.02 * math.sqrt(10.0), rel=1e-9)
    assert payload["haircut"] == pytest.approx((2.0 / 3.0) * 0.0632455532, rel=1e-6)


def test_value_zero_volatility(capsys):
    code, out, _ = run(
        capsys, "value", "--Q", "1e6", "--p0", "10", "--sigma", "0", "--V", "1e6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["haircut"] == 0.0
    assert payload["mtm_value"] == payload["impact_adjusted_value"]


def test_value_text_output_mentions_warnings(capsys):
    code, out, _ = run(
        capsys, "value", "--Q", "1e8", "--p0", "1", "--sigma", "5%", "--V", "1e6"
    )
    assert code == 0
    assert "WARN_LARGE_IMPACT" in out


def test_value_missing_required_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["value", "--p0", "100"])
    assert exc.value.code == 2


def test_value_missing_params_exit_1(capsys):
    code, _, err = run(capsys, "value", "--Q", "1e6", "--p0", "10")
    assert code == 1
    assert "error:" in err


def test_value_non_finite_params_file_exit_1(tmp_path, capsys):
    params = tmp_path / "params.ini"
    params.write_text("Y = 1.0\nsigma = nan\nV = 1e6\n")
    code, out, err = run(
        capsys, "value", "--Q", "1e6", "--p0", "10", "--params", str(params), "--format", "json"
    )
    assert code == 1
    assert out == ""
    assert err == "error: sigma must be finite, got nan\n"


def test_trajectory_no_impact_is_linear(capsys):
    code, out, _ = run(
        capsys, "trajectory", "--lambda0", "9", "--impact", "0", "--grid", "11"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    for row in rows:
        assert float(row["lambda_mtm"]) == pytest.approx(
            9.0 * (1.0 - float(row["x"])), abs=1e-12
        )


def test_trajectory_family_with_divergence(tmp_path, capsys):
    # The curve family: only the 0.19 trajectory carries divergence markers.
    for impact in ("0", "0.1", "0.15", "0.19"):
        out_file = tmp_path / f"traj_{impact}.csv"
        code, _, _ = run(
            capsys, "trajectory", "--lambda0", "9", "--impact", impact,
            "--grid", "201", "--out", str(out_file),
        )
        assert code == 0
        body = out_file.read_text()
        mtm_cells = [row["lambda_mtm"] for row in csv.DictReader(io.StringIO(body))]
        if impact == "0.19":
            assert "inf" in mtm_cells
        else:
            assert "inf" not in mtm_cells


def test_trajectory_from_position_flags(capsys):
    code, out, _ = run(
        capsys, "trajectory", "--Q", "1e6", "--p0", "10", "--L", "8888888.888888889",
        "--sigma", "15%", "--V", "1e6", "--grid", "5",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["lambda_mtm"]) == pytest.approx(9.0, rel=1e-6)


def test_trajectory_roundtrip_supercritical(capsys):
    code, out, _ = run(
        capsys, "trajectory", "--mode", "roundtrip", "--Q", "1e6", "--p0", "10",
        "--E0", "1111111.1111111112", "--sigma", "19%", "--V", "1e6", "--grid", "100",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 200  # entry leg + exit leg
    entry_adj = [row["lambda_adj"] for row in rows[:100]]
    assert "inf" in entry_adj
    entry_mtm = [row["lambda_mtm"] for row in rows[:100]]
    assert "inf" not in entry_mtm


def test_trajectory_roundtrip_requires_position(capsys):
    code, _, err = run(capsys, "trajectory", "--mode", "roundtrip", "--lambda0", "9")
    assert code == 1
    assert "roundtrip" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda0", "9", "--impact", "0.1", "--grid", "0"],
        ["--lambda0", "9", "--impact", "0.1", "--grid", "1"],
        ["--mode", "roundtrip", "--Q", "1e6", "--p0", "10", "--sigma", "19%", "--V", "1e6",
         "--grid", "1"],
    ],
    ids=["exit-0", "exit-1", "roundtrip-1"],
)
def test_trajectory_grid_below_two_exit_1(capsys, argv):
    code, out, err = run(capsys, "trajectory", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: grid must be >= 2")
    assert len(err.splitlines()) == 1


def test_critical_lambda0_only(capsys):
    code, out, _ = run(capsys, "critical", "--lambda0", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["I_c"] == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_critical_json_writes_null_for_infinite_leverage(capsys):
    # Zero impact gives lambda_c = inf, which JSON cannot spell.
    code, out, _ = run(capsys, "critical", "--lambda0", "9", "--impact", "0", "--format", "json")
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["lambda_c"] is None
    assert payload["regime"] == "SUBCRITICAL"


def test_critical_subcritical_report(capsys):
    code, out, _ = run(
        capsys, "critical", "--lambda0", "9", "--impact", "15%", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "SUBCRITICAL"
    assert 0.0 < payload["x_star"] < 1.0
    assert payload["lambda_c"] == pytest.approx(10.0)


def test_critical_supercritical_report(capsys):
    code, out, _ = run(
        capsys, "critical", "--lambda0", "9", "--impact", "0.19", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "SUPERCRITICAL"
    assert 0.0 < payload["x_c"] < 1.0


def test_critical_needs_inputs(capsys):
    code, _, err = run(capsys, "critical")
    assert code == 1
    assert "lambda0" in err


def test_bankruptcy_curve_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "bankruptcy", "--lambda0", "9", "--eta", "10",
        "--impact-grid", "0.1:0.25:4", "--trials", "200", "--sigma", "1%",
        "--seed", "77", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 4
    assert set(rows[0]) == {"calI", "p_bankrupt", "std_error", "p_bankrupt_noimpact"}
    probs = [float(r["p_bankrupt"]) for r in rows]
    assert probs[0] < 0.5 < probs[-1]


def test_bankruptcy_deterministic_given_seed(capsys):
    args = [
        "bankruptcy", "--lambda0", "9", "--eta", "10",
        "--impact-grid", "0.12:0.2:3", "--trials", "100", "--seed", "5",
    ]
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_bankruptcy_zero_noise_step(capsys):
    code, out, _ = run(
        capsys, "bankruptcy", "--lambda0", "9", "--eta", "1",
        "--impact-grid", "0.12:0.2:3", "--trials", "1", "--noise-sigma", "0",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["p_bankrupt"]) for r in rows] == [0.0, 0.0, 1.0]


def test_bankruptcy_csv_cells_parse_as_floats(capsys):
    # The grid holds calI = 0, an infeasible point (0.02) and feasible ones.
    code, out, _ = run(
        capsys, "bankruptcy", "--lambda0", "9", "--eta", "10",
        "--impact-grid", "0:0.32:17", "--trials", "20", "--sigma", "1%", "--seed", "3",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 18
    cells = [cell for row in rows[1:] for cell in row]
    assert len(cells) == 17 * 4
    for cell in cells:
        float(cell)
    assert rows[2][0] == "0.02"


def test_bankruptcy_bad_grid_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid", "0-0.3-4"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        # calI = 0.02 at sigma = 2% and eta = 1e-9 alone asks for a 1e9-day horizon.
        (["--eta", "1e-9", "--trials", "10"], "GiB"),
        (["--eta", "0"], "eta must be positive"),
        (["--eta", "10", "--sigma", "0"], "sigma must be positive"),
        # Finite inputs whose horizon overflows, or whose Y * sigma underflows.
        (["--eta", "10", "--impact-grid", "1e200:1e200:1"], "calI=1e+200 needs an infinite horizon"),
        (["--eta", "10", "--sigma", "1e-200", "--Y", "1e-200"], "Y * sigma must be positive"),
        # The horizon is printed to three digits, not as a 303-digit integer.
        (["--eta", "1e-300", "--trials", "10"], "error: a 2.25e+302-day horizon needs"),
        # A one-day horizon whose position size overflows names calI, Y and sigma.
        (["--eta", "1e303", "--impact-grid", "6.4e149:6.4e149:1", "--trials", "10", "--sigma", "2%"],
         "calI=6.4e+149 needs an infinite position size at Y=1.0, sigma=0.02"),
        # A noise level whose random walk overflows is refused, without numpy's warnings.
        (["--eta", "10", "--sigma", "1%", "--impact-grid", "0.1:0.3:3", "--trials", "200",
          "--noise-sigma", "1e308"], "the random walk overflows at a daily noise level of 1e+308"),
        # So is a finite walk whose sums could overflow, in either mode.
        (["--eta", "10", "--sigma", "1%", "--impact-grid", "0.1:0.3:3", "--trials", "200",
          "--noise-sigma", "1e300", "--mc-mode", "anywhere"],
         "the random walk overflows at a daily noise level of 1e+300"),
        (["--eta", "10", "--sigma", "1%", "--impact-grid", "0.1:0.3:3", "--trials", "200",
          "--noise-sigma", "1e306"], "the random walk overflows at a daily noise level of 1e+306"),
    ],
)
def test_bankruptcy_bad_horizon_exit_1(flags, message, capsys):
    code, out, err = run(capsys, "bankruptcy", "--lambda0", "9", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1", "-0.5%"])
def test_bankruptcy_negative_noise_sigma_exit_1(value, capsys):
    code, out, err = run(
        capsys, "bankruptcy", "--lambda0", "9", "--eta", "10", "--trials", "10",
        f"--noise-sigma={value}",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: noise_sigma must be finite and non-negative")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "trials, grid",
    [("0", "0:0:1"), ("-5", "0.001:0.001:1")],
    ids=["zero-calI-grid", "infeasible-grid"],
)
def test_bankruptcy_trials_below_one_exit_1(trials, grid, capsys):
    # Neither grid has a point that simulates, so only the up-front check sees --trials.
    code, out, err = run(
        capsys, "bankruptcy", "--lambda0", "9", "--eta", "10", "--trials", trials,
        "--impact-grid", grid,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: n_trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize(
    "argv, fmt",
    [
        (["value", "--Q", "1e6", "--p0", "10", "--sigma", "2%", "--V", "1e6"], "csv"),
        (["critical", "--lambda0", "9", "--impact", "0.1"], "csv"),
        (["estimate", "series.csv"], "csv"),
        (["trajectory", "--lambda0", "9", "--impact", "0.1", "--grid", "3"], "json"),
        (["bankruptcy", "--lambda0", "9", "--eta", "10", "--trials", "10"], "json"),
    ],
    ids=["value-csv", "critical-csv", "estimate-csv", "trajectory-json", "bankruptcy-json"],
)
def test_format_a_command_does_not_write_exit_2(argv, fmt, capsys):
    for flags in (["--format", fmt, *argv], [*argv, "--format", fmt]):
        code, out, err = run(capsys, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[0]} --format is ") and err.endswith(f", not {fmt}\n")
        assert err.count("\n") == 1


def test_report_bundled_fixture(capsys):
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == 0
    rows = {row["name"]: row for row in json.loads(out)}
    expected_i1 = {
        "BUND": 0.004, "SP500": 0.016, "MSFT": 0.063,
        "AAPL": 0.089, "KKR": 0.079, "ClubMed": 0.135,
    }
    for name, target in expected_i1.items():
        assert abs(rows[name]["impact_vol_based"] - target) < 1e-3
    assert rows["CDS"]["impact_vol_based"] is None
    assert rows["CDS"]["impact_spread_based"] == pytest.approx(0.2, rel=1e-12)
    assert rows["CDS"]["lambda_c"] == pytest.approx(7.5, rel=1e-12)


def test_report_text_renders_missing_as_dashes(capsys):
    code, out, _ = run(capsys, "report")
    assert code == 0
    cds_line = next(line for line in out.splitlines() if line.startswith("CDS"))
    assert "--" in cds_line
    assert "7.5" in cds_line


def test_report_text_line_for_line(tmp_path, capsys):
    path = tmp_path / "assets.ini"
    path.write_text(
        "[Full]\nsigma = 2%\nV = 1e6\nQ = 4e6\nS = 0.1%\nv = 1e4\nb = 0.7\n\n"
        "[Bad]\nsigma = abc\nV = 1e6\nQ = 1e5\n\n"
        "[Spread]\nS = 0.10\nv = 10e6\nQ = 100e6\nb = 0.6324555320336759\n\n"
        "[Empty]\n"
    )
    code, out, err = run(capsys, "report", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "asset   sigma                                                   V      S     v      I1  I2    lambda_c",
        "Full    2%                                                      1e+06  0.1%  1e+04  4%  1.4%  37.5",
        "Bad     error: sigma: could not convert string to float: 'abc'",
        "Spread  --                                                      --     10%   1e+07  --  20%   7.5",
        "Empty   error: no usable parameters",
    ]
    assert out.endswith("\n")


@pytest.mark.parametrize(
    "command, positional",
    [("value", ""), ("trajectory", ""), ("critical", ""), ("bankruptcy", ""),
     ("report", " [assets]"), ("estimate", " series")],
)
def test_each_usage_line_ends_with_the_global_flags(capsys, command, positional):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: impactval {command} [-h] ")
    assert " ".join(usage.split()).endswith(
        "[--format {text,json,csv}] [--seed SEED] [--out PATH]" + positional
    )


def test_report_empty_asset_list(tmp_path, capsys):
    empty = tmp_path / "empty.ini"
    empty.write_text("# no assets\n")
    code, out, _ = run(capsys, "report", str(empty), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1  # header only


def test_report_row_level_error_marker(tmp_path, capsys):
    path = tmp_path / "assets.ini"
    path.write_text("[Mystery]\nQ = 1e6\n")
    code, out, _ = run(capsys, "report", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["error"] == "no usable parameters"


@pytest.mark.parametrize(
    "body, error",
    [
        ("sigma = 2%\nV = 0\nQ = 1e6\n", "V must be positive, got 0.0"),
        ("sigma = 2%\nV = -5\nQ = 1e6\n", "V must be positive, got -5.0"),
        ("sigma = 2%\nV = 1e6\nQ = 1e6\n", None),
        ("sigma = nan\nV = 1e6\nQ = 1e6\n", "sigma: expected a finite number, got 'nan'"),
        ("S = 1e-4\nv = 0\nb = 0.7\nQ = 1e6\n", "v must be positive, got 0.0"),
    ],
    ids=["zero-volume", "negative-volume", "percent-sigma", "nan-sigma", "zero-quote-volume"],
)
def test_report_bad_asset_errors_in_its_row(tmp_path, capsys, body, error):
    path = tmp_path / "assets.ini"
    path.write_text(f"[Good]\nsigma = 0.02\nV = 1e6\nQ = 4e6\n\n[Asset]\n{body}")
    code, out, _ = run(capsys, "report", str(path), "--format", "json")
    assert code == 0
    good, asset = json.loads(out)
    assert good["impact_vol_based"] == pytest.approx(0.04)
    assert good["error"] is None
    assert asset["error"] == error
    if error is None:
        assert asset["sigma"] == pytest.approx(0.02)
        assert asset["impact_vol_based"] == pytest.approx(0.02)
        assert asset["lambda_c"] == pytest.approx(75.0)
    else:
        assert asset["impact_vol_based"] is None and asset["lambda_c"] is None


def test_report_csv_carries_the_error_column(tmp_path, capsys):
    path = tmp_path / "assets.ini"
    path.write_text(
        "[Good]\nsigma = 0.02\nV = 1e6\nQ = 4e6\n\n"
        "[ZeroV]\nsigma = 2%\nV = 0\nQ = 1e6\n\n"
        "[WordV]\nsigma = 2%\nV = abc\nQ = 1e6\n\n"
        "[NanSigma]\nsigma = nan\nV = 1e6\nQ = 1e6\n"
    )
    code, out, _ = run(capsys, "report", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0])[-1] == "error"
    errors = {row["name"]: row["error"] for row in rows}
    assert errors == {
        "Good": "",
        "ZeroV": "V must be positive, got 0.0",
        "WordV": "V: could not convert string to float: 'abc'",
        "NanSigma": "sigma: expected a finite number, got 'nan'",
    }
    assert float(rows[0]["impact_vol_based"]) == pytest.approx(0.04)


def test_report_malformed_file_exit_1(tmp_path, capsys):
    path = tmp_path / "assets.ini"
    path.write_text("Q = 1e6\n")
    code, _, err = run(capsys, "report", str(path))
    assert code == 1
    assert err.startswith("error: cannot parse asset config")
    assert len(err.splitlines()) == 1


def test_report_unreadable_file(capsys):
    code, _, err = run(capsys, "report", "/nonexistent/assets.ini")
    assert code == 1
    assert "error:" in err


def gaussian_series_csv(path, n=200, seed=9, sigma=0.015):
    rng = np.random.default_rng(seed)
    close = 100.0 * np.cumprod(1.0 + rng.normal(0.0, sigma, size=n))
    volume = rng.uniform(5e5, 1.5e6, size=n)
    lines = ["date,close,volume"]
    day = np.datetime64("2024-01-01")
    for i in range(n):
        lines.append(f"{day + i},{float(close[i])!r},{float(volume[i])!r}")
    path.write_text("\n".join(lines) + "\n")


def test_estimate_constant_series(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    lines = ["date,close,volume"]
    day = np.datetime64("2024-01-01")
    for i in range(140):
        lines.append(f"{day + i},100.0,1e6")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "estimate", str(path))
    assert code == 0
    assert "sigma = 0.0" in out


def test_estimate_round_trips_into_value(tmp_path, capsys):
    series = tmp_path / "series.csv"
    gaussian_series_csv(series)
    params_file = tmp_path / "params.ini"
    code, _, _ = run(capsys, "estimate", str(series), "--out", str(params_file))
    assert code == 0
    code, out, _ = run(
        capsys, "value", "--Q", "1e6", "--p0", "50", "--params", str(params_file),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["impact"] > 0.0
    assert payload["impact_adjusted_value"] < payload["mtm_value"]


def test_estimate_short_file_exit_1(tmp_path, capsys):
    series = tmp_path / "short.csv"
    gaussian_series_csv(series, n=30)
    code, _, err = run(capsys, "estimate", str(series))
    assert code == 1
    assert "131" in err


def test_estimate_json_format(tmp_path, capsys):
    series = tmp_path / "series.csv"
    gaussian_series_csv(series)
    code, out, _ = run(capsys, "estimate", str(series), "--format", "json", "--Y", "0.7")
    assert code == 0
    payload = json.loads(out)
    assert payload["Y"] == 0.7
    assert payload["sigma"] > 0.0


def test_estimate_calls_through_the_cli_module_names(tmp_path, capsys, monkeypatch):
    # The benchmark's tracer wraps these names, although the estimation
    # module they come from loads only when estimate runs.
    import impactval.cli as cli

    series = tmp_path / "series.csv"
    gaussian_series_csv(series)
    calls = []
    for name in ("load_series", "estimate_params"):
        def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    code, _, _ = run(capsys, "estimate", str(series))
    assert code == 0
    assert calls == ["load_series", "estimate_params"]


def test_global_flags_accepted_before_and_after_subcommand(capsys):
    code_a, out_a, _ = run(capsys, "--format", "json", "critical", "--lambda0", "9")
    code_b, out_b, _ = run(capsys, "critical", "--lambda0", "9", "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2



@pytest.mark.parametrize(
    "argv, warning",
    [
        (
            ["bankruptcy", "--lambda0", "9", "--eta", "1", "--trials", "300", "--seed", "3",
             "--mc-mode", "anywhere", "--impact-grid", "0.1:0.3:5"],
            "calI=0.3: 173/67500 simulated prices were negative; "
            "the Gaussian noise model is being stretched",
        ),
        (
            ["value", "--Q", "1e6", "--p0", "1", "--sigma", "2%", "--V", "1e6", "--S", "0.1%",
             "--b", "1.5"],
            "b=1.5 lies outside the typical range (0.6, 0.9)",
        ),
    ],
    ids=["bankruptcy", "value"],
)
def test_warnings_print_as_one_line(argv, warning, capsys):
    import warnings

    shown = warnings.showwarning
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == f"warning: {warning}\n"
    assert out.splitlines()[0] in ("calI,p_bankrupt,std_error,p_bankrupt_noimpact",
                                   "mark-to-market value:   1e+06")
    assert warnings.showwarning is shown


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("noise", [[], ["--noise-sigma", "0"]], ids=["noisy", "noise-free"])
def test_bankruptcy_seed_out_of_range_exit_1(seed, noise, capsys):
    code, out, err = run(
        capsys, "bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid", "0.1:0.2:3",
        "--trials", "10", "--seed", seed, *noise,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: master_seed must be an integer in [0, 2**128), got {seed}\n"


def test_bankruptcy_largest_seed(capsys):
    code, out, _ = run(
        capsys, "bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid", "0.1:0.2:3",
        "--trials", "10", "--seed", str(2**128 - 1),
    )
    assert code == 0
    assert len(out.splitlines()) == 4


def run_program(*argv: str, flags=(), env=None) -> subprocess.CompletedProcess:
    """Run the program entry, ``python -m impactval.cli``, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    return subprocess.run(
        [sys.executable, *flags, "-m", "impactval.cli", *argv],
        env=env, capture_output=True, encoding="utf-8", timeout=120,
    )


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["critical", "--lambda0", "9", "--impact", "0.19"], 0, ""),
        (
            ["value", "--Q", "1e6", "--p0", "1", "--sigma", "2%", "--V", "1e6", "--S", "0.1%",
             "--b", "1.5"],
            0,
            "warning: b=1.5 lies outside the typical range (0.6, 0.9)\n",
        ),
        (
            ["bankruptcy", "--lambda0", "9", "--eta", "1", "--trials", "300", "--seed", "3",
             "--mc-mode", "anywhere", "--impact-grid", "0.1:0.3:5"],
            0,
            "warning: calI=0.3: 173/67500 simulated prices were negative; "
            "the Gaussian noise model is being stretched\n",
        ),
        (["value", "--Q", "1e6", "--p0", "10"], 1,
         "error: impact parameters required: --params FILE or --sigma and --V\n"),
        (["critical", "--lambda0", "9", "--format", "csv"], 2,
         "error: critical --format is text or json, not csv\n"),
    ],
    ids=["ok", "warning", "bankruptcy-warning", "error", "usage"],
)
def test_program_entry_exit_codes_under_dev_mode(argv, code, err):
    # Development mode with ResourceWarning as an error: exiting after
    # gc.freeze() leaves no file or stream unclosed.
    proc = run_program(*argv, flags=("-X", "dev", "-W", "error::ResourceWarning"))
    assert proc.returncode == code
    assert proc.stderr == err
    assert (proc.stdout != "") == (code == 0)


def test_program_entry_argparse_error_exit_2():
    proc = run_program("bankruptcy", "--lambda0", "9", flags=("-X", "dev"))
    assert proc.returncode == 2
    assert "error: the following arguments are required: --eta" in proc.stderr


def test_program_entry_writes_a_whole_csv_to_a_pipe():
    proc = run_program("trajectory", "--lambda0", "9", "--impact", "0.25", "--grid", "2000",
                       "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert len(rows) == 2001
    assert proc.stdout.endswith("\n")
    assert all(len(row) == len(rows[0]) for row in rows)


def test_report_reads_its_ini_as_utf8_in_an_ascii_locale(tmp_path):
    assets = tmp_path / "a.ini"
    assets.write_text("[café]\nsigma = 2%\nV = 1e6\nQ = 1e5\n", encoding="utf-8")
    proc = run_program(
        "report", str(assets), "--format", "json",
        flags=("-X", "utf8=0"), env={"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [row["name"] for row in json.loads(proc.stdout)] == ["café"]


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_program_entry_writes_utf8_in_an_ascii_locale(fmt, tmp_path):
    # In the C locale Python's stdout is ASCII; the program entry writes UTF-8
    # there too, so a non-ASCII asset name prints whole and the run exits 0.
    assets = tmp_path / "a.ini"
    assets.write_text("[café]\nsigma = 2%\nV = 1e6\nQ = 1e5\n", encoding="utf-8")
    proc = run_program(
        "report", str(assets), "--format", fmt,
        flags=("-X", "utf8=0"), env={"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "café" in proc.stdout


@pytest.mark.parametrize("command", ["value", "report", "estimate"])
def test_readers_skip_a_byte_order_mark(command, tmp_path, capsys):
    # Spreadsheets may start a UTF-8 file with a byte-order mark: each reader
    # gives the same output for such a file as for the same file without it.
    source = tmp_path / "source"
    if command == "value":
        ImpactParams(Y=1.0, sigma=0.02, V=1e6, S=1e-3, v=1e4, b=0.7).save(source)
    elif command == "report":
        source.write_text("[café]\nsigma = 2%\nV = 1e6\nQ = 1e5\n", encoding="utf-8")
    else:
        gaussian_series_csv(source)
    text = source.read_text(encoding="utf-8")
    outputs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / name
        path.write_text(prefix + text, encoding="utf-8")
        argv = {
            "value": ["value", "--Q", "1e6", "--p0", "10", "--params", str(path)],
            "report": ["report", str(path), "--format", "csv"],
            "estimate": ["estimate", str(path)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command", ["value", "trajectory", "critical", "bankruptcy", "report", "estimate"]
)
def test_program_entry_names_the_encoding_of_every_file(command, tmp_path):
    # -X warn_default_encoding warns wherever a file is opened in the locale's encoding.
    params, assets, series = tmp_path / "params.ini", tmp_path / "a.ini", tmp_path / "series.csv"
    ImpactParams(Y=1.0, sigma=0.02, V=1e6).save(params)
    assets.write_text("[café]\nsigma = 2%\nV = 1e6\nQ = 1e5\n", encoding="utf-8")
    gaussian_series_csv(series)
    argv = {
        "value": ["--Q", "1e6", "--p0", "10", "--params", str(params)],
        "trajectory": ["--lambda0", "9", "--impact", "0.1", "--grid", "11"],
        "critical": ["--lambda0", "9", "--impact", "0.1"],
        "bankruptcy": ["--lambda0", "9", "--eta", "10", "--impact-grid", "0.1:0.2:3",
                       "--trials", "20"],
        "report": [str(assets), "--format", "csv"],
        "estimate": [str(series)],
    }[command]
    out = tmp_path / "out"
    proc = run_program(command, *argv, "--out", str(out), flags=("-X", "warn_default_encoding"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.stat().st_size > 0


def test_main_leaves_the_collector_unfrozen(capsys):
    # Only the program entry freezes; library and in-process calls do not.
    before = gc.get_freeze_count()
    assert run(capsys, "critical", "--lambda0", "9", "--impact", "0.19")[0] == 0
    assert run(capsys, "value", "--Q", "1e6", "--p0", "10")[0] == 1
    assert gc.get_freeze_count() == before


def test_console_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"impactval": "impactval.cli:run"}
