"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/selftest.py``.
The file is not named ``test_*`` so that the library's own suite does not
pick it up; the quick-mode tests start the CLI many times.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]
    assert run.tail_percentile(samples) == (90.0, 90.0)
    value, pct = run.tail_percentile([float(i) for i in range(1, 22)])
    assert value == 11.0 and sum(s > value for s in range(1, 22)) == 10
    assert pct == pytest.approx(100 * 11 / 21)


def test_tail_percentile_falls_back_to_maximum_without_ten_beyond():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_percentile([float(i) for i in range(10)]) == (9.0, 100.0)
    assert run.tail_percentile([float(i) for i in range(11)]) == (0.0, 100 / 11)


def _config(calI: float, lambda0: float, eta: float, sigma: float, trials: int):
    from impactval import ImpactParams, LiquidationSchedule, MonteCarloConfig, Position

    T = workloads.n_days(calI, eta, sigma)
    Q = (calI / sigma) ** 2 * 1e6
    return MonteCarloConfig(
        position=Position(Q=Q, p0=1.0, L=Q * (1.0 - 1.0 / lambda0)),
        params=ImpactParams(Y=1.0, sigma=sigma, V=1e6),
        schedule=LiquidationSchedule(Q=Q, delta_q=Q / T, V=1e6),
        n_trials=trials,
        master_seed=20240611,
    )


@pytest.mark.parametrize("calI", [0.06, 0.12, 0.16, 0.2])
def test_at_end_oracle_matches_brute_force_paths(calI):
    from impactval import simulate_price_path

    trials = 3000
    config = _config(calI, 9.0, 10.0, 0.01, trials)
    bankrupt = sum(
        simulate_price_path(config, i).total_proceeds < config.position.L for i in range(trials)
    )
    P = checks.at_end_oracle(calI, 9.0, 10.0, 0.01)
    assert abs(bankrupt / trials - P) <= checks.oracle_margin(P, trials)


def _curve_command(tmp_path: Path, trials: int, mode: str = "at-end") -> workloads.Command:
    import random

    cmd = workloads.bankruptcy_command(tmp_path, random.Random(5), 10.0, trials, mode)
    from impactval.cli import main

    assert main(list(cmd.args)) == 0
    return cmd


def test_curve_check_passes_and_counts_work(tmp_path):
    cmd = _curve_command(tmp_path, 400)
    result = checks.check(cmd)
    assert result.ok, result.problems
    layout = workloads.grid_layout(10.0)
    feasible = [p for p in layout if p["feasible"] and p["calI"] > 0]
    assert result.trials == 400 * len(feasible)
    assert result.trial_days == 400 * sum(p["n_days"] for p in feasible)
    assert result.rows == 17


def test_curve_check_rejects_a_shifted_probability(tmp_path):
    cmd = _curve_command(tmp_path, 400)
    lines = cmd.out.read_text().splitlines()
    cells = lines[9].split(",")  # calI = 0.16, p ~ 0.48
    cells[1] = repr(float(cells[1]) + 0.15)
    lines[9] = ",".join(cells)
    cmd.out.write_text("\n".join(lines) + "\n")
    assert any("oracle" in p for p in checks.check(cmd).problems)


def test_trajectory_check_rejects_nan(tmp_path):
    import random

    wl = workloads.Analytics(tmp_path, ROOT, quick=True)
    exit_cmd = wl.exports_round(random.Random(3), grid=500)[0]
    from impactval.cli import main

    assert main(list(exit_cmd.args)) == 0
    assert checks.check(exit_cmd).ok
    exit_cmd.out.write_text(exit_cmd.out.read_text().replace("inf", "nan", 1))
    assert not checks.check(exit_cmd).ok
    wrong = dataclasses.replace(exit_cmd, expect=dict(exit_cmd.expect, grid=499))
    assert not checks.check(wrong).ok


def test_parse_importtime_charges_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:        50 |         50 |         numpy._core",
        "import time:        10 |         60 |       numpy",
        "import time:         5 |         65 |     impactval.estimation",
        "import time:        20 |         20 |           scipy.special",
        "import time:        30 |         50 |         scipy.optimize",
        "import time:         5 |         55 |       scipy",
        "import time:         1 |         56 |     impactval.montecarlo",
        "import time:         2 |        123 |   impactval",
        "import time:         7 |        130 | impactval.cli",
    ])
    out = tracing.parse_importtime(text)
    assert out == pytest.approx(
        {"cli.import_s": 130e-6, "cli.import_numpy_s": 60e-6, "cli.import_scipy_s": 55e-6}
    )


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_quick_mode_runs_every_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] != 0 for k, v in result["metrics"].items())
