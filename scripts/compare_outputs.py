"""Compare this checkout's outputs with another checkout's, byte for byte.

Usage::

    python scripts/compare_outputs.py OTHER_CHECKOUT

OTHER_CHECKOUT is a second copy of the repository (for example one made
with ``git archive``) whose ``src`` is imported in place of this one's.
Both sides run the same cases, each in its own interpreter:

- every command the benchmark workloads in ``bench/workloads.py`` send,
  and every subcommand in each of its formats, plus usage and data errors,
  each memory-budget refusal, walks whose sums could overflow, a position
  whose market value overflows, a warning, each subcommand's ``--help``
  and CSV and JSON written with ``--out``, as ``python -m impactval.cli``
  subprocesses: exit code, stdout, stderr and the ``--out`` file are
  compared;
- the ``repr`` of ``transition_curve`` on the benchmark's Monte Carlo grid,
  on the same grid at eta = 1, on the long-horizon path-wise grid, on 2000
  two-day points, on 100 points of 1 to 256 days, at noise_sigma 1e300
  and 1e308 (where the walk overflows and is refused) in both modes and on
  random configurations (both modes, noise_sigma None, 0 and random, 1 to
  2000 trials), with the warnings each one raised;
- the ``repr`` of each public record as the library builds it: the
  results of ``check_validity``, ``classify`` in both regimes,
  ``bankruptcy_probability``, ``fit_transition``, ``load_series`` on a
  small CSV and ``simulate_price_path``, a schedule from
  ``LiquidationSchedule.from_participation`` and its ``MonteCarloConfig``,
  the error of each checked constructor on a bad field, each checked
  record's ``inspect.signature`` and its ``_replace`` with a bad field;
- a ``MarketSeries`` with tuple columns after a ``pickle`` round trip,
  ``==`` and ``hash`` of two such twins, and the ``AttributeError`` of
  assigning or deleting a field of it and of a trajectory point;
- the ``repr`` of the points of ``deleverage_trajectory`` (past x_c, where
  leverage diverges) and of ``entry_exit_trajectories``, as built and after
  a ``pickle`` round trip.

The script prints each case that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RANDOM_CONFIGS = 160


def cli_cases(work: Path) -> list[tuple[str, list[str], Path | None]]:
    """(name, argv, output file) of every CLI case; input files are written to ``work``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    cases = []
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = cls(work, ROOT, quick=False)
        rng = random.Random(f"compare-{name}")
        for i, cmd in enumerate(workload.round(rng) + workload.reference_round(rng)):
            cases.append((f"{name}-{i}-{cmd.kind}", list(cmd.args), cmd.out))
    series = work / "series.csv"  # written by the analytics workload above
    assets = work / "assets.ini"
    assets.write_text(
        "[good]\nsigma = 2%\nV = 1e6\nQ = 1e5\nS = 0.1%\nv = 1e4\nb = 0.5\n"
        "[bad]\nsigma = abc\nV = 1e6\nQ = 1e5\n[empty]\n",
        encoding="utf-8",
    )
    position = ["--Q", "1e6", "--p0", "10", "--L", "5e6", "--sigma", "2%", "--V", "1e5"]
    overflowing = ["--Q", "1e308", "--p0", "10", "--sigma", "2%", "--V", "1e6"]
    curve = ["bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid", "0:0.3:7",
             "--trials", "300", "--sigma", "1%"]
    overflow = ["bankruptcy", "--lambda0", "9", "--eta", "10", "--sigma", "1%",
                "--impact-grid", "0.1:0.3:3", "--trials", "200"]
    argvs = {
        "value-text": ["value", *position],
        "value-json": ["value", *position, "--format", "json"],
        "value-csv": ["value", *position, "--format", "csv"],
        "value-no-params": ["value", "--Q", "1", "--p0", "1"],
        "trajectory-text": ["trajectory", "--lambda0", "9", "--impact", "0.15", "--grid", "21"],
        "trajectory-csv": ["trajectory", "--lambda0", "9", "--impact", "0.25", "--grid", "21",
                           "--format", "csv"],
        "trajectory-position": ["trajectory", *position, "--grid", "11"],
        "trajectory-roundtrip": ["trajectory", "--mode", "roundtrip", "--Q", "1e6", "--p0", "10",
                                 "--E0", "1.1e6", "--sigma", "19%", "--V", "1e6", "--grid", "11"],
        "trajectory-json": ["trajectory", "--lambda0", "9", "--impact", "0.15", "--format", "json"],
        "trajectory-grid-1": ["trajectory", "--lambda0", "9", "--impact", "0.15", "--grid", "1"],
        "critical-text": ["critical", "--lambda0", "9", "--impact", "0.19"],
        "critical-json": ["critical", "--lambda0", "9", "--impact", "0.1", "--format", "json"],
        "critical-lambda0": ["critical", "--lambda0", "9"],
        "critical-position": ["critical", *position, "--format", "json"],
        "critical-none": ["critical"],
        # A position whose market value Q * p0 overflows a float.
        "critical-overflow": ["critical", *overflowing],
        "trajectory-overflow": ["trajectory", *overflowing, "--grid", "3"],
        "trajectory-roundtrip-overflow": ["trajectory", "--mode", "roundtrip", *overflowing,
                                          "--grid", "3"],
        "value-overflow": ["value", *overflowing, "--format", "json"],
        "bankruptcy-text": [*curve, "--seed", "7"],
        "bankruptcy-csv": [*curve, "--seed", "8", "--format", "csv"],
        "bankruptcy-anywhere": [*curve, "--seed", "9", "--mc-mode", "anywhere"],
        "bankruptcy-no-noise": [*curve, "--noise-sigma", "0"],
        "bankruptcy-warning": ["bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid",
                               "0.1:0.2:3", "--trials", "50", "--sigma", "1%",
                               "--noise-sigma", "50%"],
        "bankruptcy-json": [*curve, "--format", "json"],
        "bankruptcy-bad-grid": ["bankruptcy", "--lambda0", "9", "--eta", "10",
                                "--impact-grid", "0:1"],
        "bankruptcy-zero-trials": [*curve, "--trials", "0"],
        "bankruptcy-big-seed": [*curve, "--trials", "20", "--seed", str(2**128 - 1)],
        # Finite walks whose sums could overflow, refused in both modes.
        "bankruptcy-overflow-anywhere": [*overflow, "--noise-sigma", "1e300", "--mc-mode",
                                         "anywhere"],
        "bankruptcy-overflow-at-end": [*overflow, "--noise-sigma", "1e306"],
        "bankruptcy-grid-over-budget": ["bankruptcy", "--lambda0", "9", "--eta", "10",
                                        "--impact-grid", "0:0.3:1000000"],
        "bankruptcy-horizon-over-budget": ["bankruptcy", "--lambda0", "9", "--eta", "1e-9"],
        "trajectory-over-budget": ["trajectory", "--lambda0", "9", "--impact", "0.1",
                                   "--grid", "3000000"],
        "trajectory-roundtrip-over-budget": ["trajectory", "--mode", "roundtrip", "--Q", "1e6",
                                             "--p0", "10", "--sigma", "19%", "--V", "1e6",
                                             "--grid", "3000000"],
        "report-text": ["report"],
        "report-json": ["report", "--format", "json"],
        "report-csv": ["report", "--format", "csv"],
        "report-file": ["report", str(assets), "--format", "csv"],
        "report-file-text": ["report", str(assets)],
        "report-missing": ["report", str(work / "missing.ini")],
        "estimate-text": ["estimate", str(series)],
        "estimate-json": ["estimate", str(series), "--format", "json"],
        "estimate-csv": ["estimate", str(series), "--format", "csv"],
        "estimate-missing": ["estimate", str(work / "missing.csv")],
        "no-command": [],
        "unknown-command": ["nonsense"],
        "help": ["--help"],
    }
    for command in ("value", "trajectory", "critical", "bankruptcy", "report", "estimate"):
        argvs[f"{command}-help"] = [command, "--help"]
    cases += [(name, argv, None) for name, argv in argvs.items()]
    out = work / "out.txt"
    to_file = {
        "value-out": ["value", *position, "--format", "json"],
        "report-csv-out": ["report", str(assets), "--format", "csv"],
        "bankruptcy-out": [*curve, "--seed", "10"],
    }
    cases += [(name, [*argv, "--out", str(out)], out) for name, argv in to_file.items()]
    return cases


def cli_records(work: Path) -> dict:
    """Exit code, stdout, stderr and output file of each CLI case, run in this interpreter's tree."""
    records = {}
    for name, argv, out in cli_cases(work):
        if out is not None and out.exists():
            out.unlink()
        proc = subprocess.run([sys.executable, "-m", "impactval.cli", *argv], cwd=work,
                              capture_output=True, text=True, timeout=600)
        records[f"cli {name}"] = {
            "exit": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "file": out.read_text(encoding="utf-8") if out is not None and out.exists() else None,
        }
    return records


def curve_configs() -> list[tuple[str, tuple, dict]]:
    """(name, positional arguments, keywords) of each transition_curve case."""
    grid = [0.32 * i / 16 for i in range(17)]
    configs = [
        ("mc_curve", (9.0, 10.0, grid, 10_000, 12345), {"sigma": 0.01}),
        ("eta-1", (9.0, 1.0, grid, 2_000, 2**64 + 3), {"sigma": 0.01}),
        ("long-horizon", (9.0, 0.1, grid, 1_000, 77),
         {"sigma": 0.01, "bankruptcy_mode": "ANYWHERE_ON_PATH"}),
        # AT_END decides _RUN = 64 points at a time: many points of a few
        # days, and more than 64 points with horizons past 64 days.
        ("two-day", (9.0, 10.0, [0.04 + 0.0049 * i / 1999 for i in range(2000)], 10_000, 5),
         {"sigma": 0.01}),
        ("past-run-days", (9.0, 1.0, [0.32 * i / 104 for i in range(105)], 2_000, 6),
         {"sigma": 0.02}),
    ]
    # Walks near the float maximum, and past it, where no AT_END point is
    # decided from the totals.
    configs += [
        (f"noise-{noise:g}-{mode}", (9.0, 10.0, grid, 1_000, 8),
         {"sigma": 0.01, "bankruptcy_mode": mode, "noise_sigma": noise})
        for noise in (1e300, 1e308)
        for mode in ("AT_END", "ANYWHERE_ON_PATH")
    ]
    rng = random.Random(20261018)
    for i in range(RANDOM_CONFIGS):
        eta = 10 ** rng.uniform(-1.5, 1.5)
        Y, sigma = rng.uniform(0.3, 2.0), rng.uniform(0.005, 0.05)
        # At most 2000 days per point keeps each case short.
        top = min(0.6, Y * sigma * math.sqrt(2000 * eta))
        grid = sorted(rng.uniform(0.0, top) for _ in range(rng.randint(1, 12)))
        if rng.random() < 0.3:
            grid[0] = 0.0
        keywords = {
            "Y": Y,
            "sigma": sigma,
            "bankruptcy_mode": rng.choice(["AT_END", "ANYWHERE_ON_PATH"]),
            "noise_sigma": rng.choice([None, 0.0, rng.uniform(0.0, 0.1)]),
        }
        trials = round(10 ** rng.uniform(0.0, math.log10(2000)))
        seed = rng.choice([rng.randrange(2**31), rng.randrange(2**128)])
        configs.append((f"random-{i}", (rng.uniform(1.05, 30.0), eta, grid, trials, seed), keywords))
    return configs


def curve_records() -> dict:
    """repr of each transition_curve result, or of its error, with its warnings."""
    from impactval import montecarlo as mc

    records = {}
    for name, args, keywords in curve_configs():
        if "bankruptcy_mode" in keywords:
            keywords = dict(keywords, bankruptcy_mode=mc.BankruptcyMode[keywords["bankruptcy_mode"]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = repr(mc.transition_curve(*args, **keywords))
            except ValueError as exc:
                result = f"ValueError: {exc}"
        records[f"curve {name}"] = {"result": result, "warnings": [str(w.message) for w in caught]}
    return records


def library_records(work: Path) -> dict:
    """repr of each public record as the library builds it, or of its constructor's error."""
    import inspect
    from datetime import date

    from impactval import estimation, impact, leverage, valuation
    from impactval import montecarlo as mc

    series = work / "small-series.csv"
    series.write_text(
        "date,close,volume,spread\n2024-01-02,10.5,1e6,0.001\n2024-01-03,10.25,2e6,0.002\n",
        encoding="utf-8",
    )
    params = impact.ImpactParams(Y=1.0, sigma=0.02, V=1e6, S=1e-3, v=1e4, b=0.7, phi=5e3)
    position = valuation.Position(Q=1e5, p0=10.0, L=9.9e5)
    schedule = mc.LiquidationSchedule.from_participation(Q=1e5, V=1e6, eta=0.01)
    config = mc.MonteCarloConfig(position, params, schedule, n_trials=200, master_seed=3)

    def tuple_series():
        return estimation.MarketSeries(
            (date(2024, 1, 2), date(2024, 1, 3)), (10.5, 10.25), (1e6, 2e6), (1e-3, 2e-3)
        )

    trajectories = {  # x_c is 0.15 at lambda0 = 9, calI = 0.3
        "exit": leverage.deleverage_trajectory(9.0, 0.3, leverage.linspace(0.0, 1.0, 6)),
        "roundtrip": leverage.entry_exit_trajectories(position, params, grid_size=4),
    }
    built = {
        "params": lambda: params,
        "position": lambda: position,
        "validity": lambda: impact.check_validity(params, 1e5),
        "validity-flagged": lambda: impact.check_validity(params, 1e9, schedule),
        "classify-subcritical": lambda: leverage.classify(9.0, 0.1),
        "classify-supercritical": lambda: leverage.classify(9.0, 0.3),
        "schedule": lambda: schedule,
        "config": lambda: config,
        "bankruptcy-probability": lambda: mc.bankruptcy_probability(config),
        "fit-transition": lambda: mc.fit_transition(
            [0.05, 0.1, 0.15, 0.2, 0.25], [0.02, 0.2, 0.5, 0.8, 0.98]
        ),
        "load-series": lambda: estimation.load_series(series),
        "policy": lambda: estimation.EstimationPolicy(window_days=20),
        "price-path": lambda: mc.simulate_price_path(config, 4),
        "bad-params": lambda: impact.ImpactParams(Y=1.0, sigma=0.02, V=0.0),
        "bad-position": lambda: valuation.Position(Q=1.0, p0=-1.0),
        "bad-series": lambda: estimation.MarketSeries(
            [date(2024, 1, 2), date(2024, 1, 1)], [1.0, 2.0], [1.0, 1.0]
        ),
        "bad-policy": lambda: estimation.EstimationPolicy(halflife_days=0),
        "series-pickled": lambda: pickle.loads(pickle.dumps(tuple_series())),
        "series-twins": lambda: (tuple_series() == tuple_series(),
                                 hash(tuple_series()) == hash(tuple_series())),
        "series-assign": lambda: setattr(tuple_series(), "close", ()),
        "series-delete": lambda: delattr(tuple_series(), "close"),
        "trajectory-assign": lambda: setattr(trajectories["exit"][0], "x", 1.0),
        "trajectory-delete": lambda: delattr(trajectories["exit"][0], "lambda_adj"),
        "bad-schedule": lambda: mc.LiquidationSchedule(Q=1.0, delta_q=-1.0, V=1.0),
        "bad-config": lambda: mc.MonteCarloConfig(position, params, schedule, 200, -1),
        "replace-params": lambda: params._replace(V=-1.0),
        "replace-position": lambda: position._replace(L=-1.0),
        "replace-policy": lambda: estimation.EstimationPolicy()._replace(window_days=0),
        "replace-schedule": lambda: schedule._replace(delta_q=math.inf),
        "replace-config": lambda: config._replace(master_seed=2**128),
    }
    for mode, points in trajectories.items():
        built[f"trajectory-{mode}"] = lambda points=points: points
        built[f"trajectory-{mode}-pickled"] = lambda points=points: pickle.loads(pickle.dumps(points))
    for cls in (impact.ImpactParams, valuation.Position, estimation.EstimationPolicy,
                mc.LiquidationSchedule, mc.MonteCarloConfig):
        built[f"signature-{cls.__name__}"] = lambda cls=cls: inspect.signature(cls)
    records = {}
    for name, build in built.items():
        try:
            result = repr(build())
        except (AttributeError, ValueError) as exc:
            result = f"{type(exc).__name__}: {exc}"
        records[f"record {name}"] = result
    return records


def emit(work: Path) -> None:
    """Print every record of the tree on PYTHONPATH as one JSON object."""
    import impactval

    source = Path(os.environ["PYTHONPATH"]).resolve()
    if source not in Path(impactval.__file__).resolve().parents:
        raise SystemExit(f"error: impactval loads from {impactval.__file__}, not from {source}")
    records = cli_records(work)
    records.update(curve_records())
    records.update(library_records(work))
    json.dump(records, sys.stdout)


def collect(checkout: Path, work: Path) -> dict:
    """Records of one checkout; both sides use the same work directory, so paths in messages agree."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, __file__, "--emit", str(work)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=3600)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run on {checkout} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path, help="checkout to compare with")
    parser.add_argument("--emit", metavar="WORK", type=Path, help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if opts.emit:
        emit(opts.emit)
        return 0
    if opts.other is None:
        parser.error("the checkout to compare with is required")
    if not (opts.other / "src" / "impactval" / "cli.py").is_file():
        parser.error(f"no impactval sources under {opts.other}")
    with tempfile.TemporaryDirectory() as work:
        ours = collect(ROOT, Path(work))
        theirs = collect(opts.other.resolve(), Path(work))
    differ = [name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name)]
    for name in sorted(differ):
        print(f"differs: {name}\n  this:  {ours.get(name)!r:.1000}\n  other: {theirs.get(name)!r:.1000}")
    print(f"{len(ours)} cases, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
