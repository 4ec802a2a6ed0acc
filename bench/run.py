"""End-to-end and per-layer benchmark of the impactval CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc_curve --seed 1 --seconds 50 --trace 0

With ``--trace 0`` one closed-loop client runs the workload's CLI commands
(``python -m impactval.cli`` with ``src`` on the path) as subprocesses for
``--seconds`` and reports the end-to-end metrics.  Command times are given in
calibration units: each command's wall time divided by the time of a fixed
calibration loop run just before and just after it, so that the speed of a
shared host, which drifts by a quarter within a minute, cancels out; the raw
seconds are printed beside them.  ``setup_s``, the time of a fresh
``import impactval.cli``, is scaled the same way and given in seconds at the
reference speed at which the calibration loop takes ``CAL_REF_S``.  With
``--trace 1`` the same commands run in-process with spans around each layer
call and the per-layer metrics are reported.  Every output is checked.  The
last stdout line is the JSON result; the line before it holds the run's
metadata, and the full record (with spans, when traced) is written under
``.bench_results/``.
``--quick`` runs every workload at a small size, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import CheckResult, check
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every run, its checks included, ends well inside 180 seconds.
HARD_LIMIT_S = 170.0
SETUP_EVERY_S = 8.0
# The calibration loop takes 0.2-0.35 s on a 2-core cloud VM (Xeon), as the
# host's load varies.  setup_s is reported in seconds at the reference speed
# at which the loop takes CAL_REF_S.
CAL_LOOP = 2_000_000
CAL_STREAMS = 6000
CAL_SEED = 20240611
CAL_REF_S = 0.25
# At least this many rounds per run, so a mixed workload always has its whole
# command mix at least twice, whatever the speed of the host.
MIN_ROUNDS = 2
# Children run numpy single-threaded, so one command occupies one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_p50_cal": "cal",
    "cmd_tail_cal": "cal",
    "rows_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main_self_s": "s",
    "montecarlo.transition_curve_s": "s",
    "montecarlo.trials": "count",
    "montecarlo.trial_days": "count",
    "montecarlo.trial_rng_us": "us",
    "montecarlo.rng_share": "ratio",
    "montecarlo.noise_ns_per_day": "ns",
    "montecarlo.bankruptcy_probability_s": "s",
    "montecarlo.transition_csv_rows_s": "s",
    "montecarlo.fit_transition_s": "s",
    "leverage.deleverage_trajectory_s": "s",
    "leverage.entry_exit_trajectories_s": "s",
    "leverage.write_trajectory_csv_s": "s",
    "leverage.trajectory_rows": "count",
    "impact.expected_impact_us": "us",
    "leverage.classify_us": "us",
    "leverage.crossover_point_us": "us",
    "leverage.bankruptcy_point_us": "us",
    "estimation.load_series_s": "s",
    "estimation.estimate_params_s": "s",
    "trace.overhead_s": "s",
}

# Printed with the metrics but not gated: failed_frac is the result line's
# failed/attempted, the raw seconds drift with the host, and the Monte Carlo
# rates exist only where trials run.
EXTRA_UNITS = {
    "failed_frac": "ratio",
    "calibration_s": "s",
    "setup_wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "rows_per_s": "1/s",
    "trials_per_s": "1/s",
    "trial_days_per_s": "1/s",
    "cmd_samples": "count",
    "cmd_tail_percentile": "%",
}

# Which end-to-end figure each per-layer metric should move, and where.
# On the Monte Carlo workloads the grid and trial count are fixed, so
# trials_per_s and trial_days_per_s (printed, not gated) move with
# cmd_p50_cal, the gated metric there.  BENCHMARK.json lists mc_curve and
# analytics only: with two workloads each run can be long enough to be
# steady on a 2-core host.  mc_long_horizon, the bypass for an RNG-only
# change and the memory-heavy case, is run by name.
PREDICTIONS = [
    {"id": "import", "layer": ["cli.import_s", "cli.import_scipy_s", "cli.import_numpy_s"],
     "moves": ["setup_s@*", "cmd_p50_cal@analytics"]},
    {"id": "cli-self", "layer": ["cli.main_self_s"], "moves": ["cmd_p50_cal@analytics"]},
    {"id": "mc-curve", "layer": ["montecarlo.transition_curve_s", "montecarlo.trials", "montecarlo.trial_days"],
     "moves": ["cmd_p50_cal@mc_curve", "cmd_p50_cal@mc_long_horizon"]},
    {"id": "rng", "layer": ["montecarlo.trial_rng_us", "montecarlo.rng_share"],
     "moves": ["cmd_p50_cal@mc_curve"], "bypass": ["mc_long_horizon (small)", "analytics (none)"]},
    {"id": "noise", "layer": ["montecarlo.noise_ns_per_day"], "moves": ["cmd_p50_cal@mc_long_horizon"]},
    {"id": "kernel", "layer": ["montecarlo.bankruptcy_probability_s"],
     "moves": ["cmd_p50_cal@mc_long_horizon", "peak_rss_mb@mc_long_horizon", "cmd_p50_cal@mc_curve"]},
    {"id": "csv-fit", "layer": ["montecarlo.transition_csv_rows_s", "montecarlo.fit_transition_s"],
     "moves": [], "note": "off the hot path; tracked so a scipy-free fit shows its cost"},
    {"id": "exports", "layer": ["leverage.deleverage_trajectory_s", "leverage.entry_exit_trajectories_s",
                                "leverage.write_trajectory_csv_s", "impact.expected_impact_us",
                                "leverage.trajectory_rows"],
     "moves": ["rows_per_cal@analytics"]},
    {"id": "roots", "layer": ["leverage.classify_us", "leverage.crossover_point_us", "leverage.bankruptcy_point_us"],
     "moves": [], "note": "closed-form roots must not regress"},
    {"id": "estimation", "layer": ["estimation.load_series_s", "estimation.estimate_params_s"],
     "moves": ["cmd_p50_cal@analytics"]},
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    returncode: int
    maxrss_mb: float
    stderr: str


def run_child(argv: list[str], env: dict, stderr_path: Path, timeout: float) -> ChildRun:
    """Run one process to completion; wall time includes interpreter start.

    Peak memory is the child's own ``ru_maxrss``, read with ``os.wait4``.
    """
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                    stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:])


def calibrate() -> float:
    """Seconds taken by a fixed loop of interpreter and numpy work.

    The loop mixes pure-Python arithmetic with building Philox generators
    and drawing from them, the two kinds of work the CLI commands do.  It
    never changes with the program, so a command's wall time divided by it
    measures the program in units of the host's current speed.
    """
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    root = np.random.SeedSequence(CAL_SEED)
    for _ in range(CAL_STREAMS):
        np.random.Generator(np.random.Philox(root.spawn(1)[0])).standard_normal(50)
    return perf_counter() - start


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ``beyond`` samples above it.

    With ``beyond`` or fewer samples no percentile qualifies and the
    maximum is reported, as percentile 100.  Below 2 * beyond + 1 samples
    the qualifying percentile lies under the median; the percentile and the
    sample count are printed with the value.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n


class Run:
    """State of one benchmark invocation: inputs, counters and the record."""

    def __init__(self, opts) -> None:
        self.opts = opts
        self.start = perf_counter()
        self.rng = random.Random(opts.seed)
        self.env = child_env()
        self.results_dir = ROOT / ".bench_results"
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=ROOT / ".bench_work"))
        self.workload = WORKLOADS[opts.workload](self.work, ROOT, opts.quick)
        self.attempted = 0
        self.failures: list[dict] = []
        self.notes: set[str] = set()
        self.commands: list[dict] = []
        self.worst_se = 0.0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.start)

    def record(self, cmd: Command, ok_exit: bool, detail: str, result: CheckResult | None,
               wall: float, rss: float | None = None, cal: float | None = None) -> bool:
        """Count one operation; it fails on a bad exit or a failed output check."""
        self.attempted += 1
        problems = [] if ok_exit else [detail]
        if ok_exit and result is not None:
            problems = result.problems
            self.notes.update(result.notes)
            self.worst_se = max(self.worst_se, result.worst_se)
        entry = {"argv": list(cmd.args), "wall_s": wall}
        if rss is not None:
            entry["maxrss_mb"] = rss
        if cal is not None:
            entry["calibration_s"] = cal
        self.commands.append(entry)
        if problems:
            self.failures.append({"argv": list(cmd.args), "problems": problems[:5]})
        return not problems

    def python_argv(self, cmd: Command) -> list[str]:
        return [sys.executable, "-m", "impactval.cli", *cmd.args]

    def warm_up(self) -> None:
        """Compile bytecode and confirm that children import this checkout's sources."""
        proc = subprocess.run(
            [sys.executable, "-c", "import impactval.cli, impactval; print(impactval.__file__)"],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        location = Path(proc.stdout.strip() or ".").resolve()
        if proc.returncode != 0 or SRC.resolve() not in location.parents:
            raise SystemExit(f"error: children import impactval from {location}, not {SRC}: {proc.stderr[-500:]}")


def e2e(run: Run) -> tuple[dict, dict]:
    """Closed loop, one client, subprocess per command; tracing off."""
    opts, wl = run.opts, run.workload
    run.warm_up()

    calibrate()  # the first call pays for the numpy import
    cals = [calibrate()]

    def timed(argv: list[str], stderr_name: str, timeout: float) -> tuple[ChildRun, float]:
        """Run one child between two calibrations; returns it with their geometric mean."""
        child = run_child(argv, run.env, run.work / stderr_name, timeout)
        cals.append(calibrate())
        return child, math.sqrt(cals[-2] * cals[-1])

    setup_walls: list[float] = []
    setup_scaled: list[float] = []

    def set_up() -> None:
        child, cal = timed([sys.executable, "-c", "import impactval.cli"], "setup.err", 60)
        setup_walls.append(child.wall_s)
        setup_scaled.append(child.wall_s / cal)

    # Set-up is sampled before the loop and then between commands, at most
    # every SETUP_EVERY_S, so that its median covers the same stretch of time
    # as the commands.
    for _ in range(1 if opts.quick else 3):
        set_up()
    last_setup = perf_counter()
    walls: list[float] = []
    scaled: list[float] = []  # wall / calibration, per command
    rss = 0.0
    rows = 0
    csv_wall = csv_cal = 0.0
    trials = trial_days = 0
    mc_wall = 0.0
    round_walls: list[float] = []
    deadline = perf_counter() + opts.seconds
    # Whole rounds only, so the command mix is the same in every run; past
    # MIN_ROUNDS a round starts only if a typical round still ends before the
    # deadline.
    while len(round_walls) < MIN_ROUNDS or perf_counter() + statistics.median(round_walls) <= deadline:
        round_start = perf_counter()
        for cmd in wl.round(run.rng):
            child, cal = timed(run.python_argv(cmd), "cmd.err", max(1.0, run.remaining()))
            result = check(cmd) if child.returncode == 0 else None
            ok = run.record(cmd, child.returncode == 0, f"exit {child.returncode}: {child.stderr}",
                            result, child.wall_s, child.maxrss_mb, cal)
            walls.append(child.wall_s)
            scaled.append(child.wall_s / cal)
            rss = max(rss, child.maxrss_mb)
            if ok and result.rows:
                rows += result.rows
                csv_wall += child.wall_s
                csv_cal += child.wall_s / cal
            if ok and result.trials:
                trials += result.trials
                trial_days += result.trial_days
                mc_wall += child.wall_s
            if run.remaining() < 0:
                raise SystemExit("error: run exceeded its time limit")
            if perf_counter() - last_setup >= SETUP_EVERY_S:
                set_up()
                last_setup = perf_counter()
        round_walls.append(perf_counter() - round_start)
    tail, tail_pct = tail_percentile(scaled)
    metrics = {
        "setup_s": CAL_REF_S * statistics.median(setup_scaled),
        "cmd_p50_cal": statistics.median(scaled),
        "cmd_tail_cal": tail,
        "rows_per_cal": rows / csv_cal if csv_cal else 0.0,
        "peak_rss_mb": rss,
    }
    extra = {
        "cmd_samples": len(walls),
        "cmd_tail_percentile": tail_pct,
        "calibration_s": statistics.median(cals),
        "setup_wall_s": statistics.median(setup_walls),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail_percentile(walls)[0],
        "rows_per_s": rows / csv_wall if csv_wall else 0.0,
        "setup_wall_samples": setup_walls,
        "calibration_samples": cals,
        "rounds": len(round_walls),
        "failed_frac": len(run.failures) / run.attempted,
    }
    if mc_wall:
        extra["trials_per_s"] = trials / mc_wall
        extra["trial_days_per_s"] = trial_days / mc_wall
    return metrics, extra


def traced(run: Run) -> tuple[dict, dict]:
    """In-process rounds with spans, untraced rounds for the overhead, and layer probes."""
    import tracing

    opts, wl = run.opts, run.workload
    run.warm_up()
    metrics = tracing.import_breakdown(sys.executable, run.env, ROOT, 1 if opts.quick else 3)
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import impactval.cli as cli

    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    walls = {True: [], False: []}

    def play(cmds: list[Command], with_spans: bool) -> None:
        total = 0.0
        for cmd in cmds:
            start = perf_counter()
            try:
                if with_spans:
                    with tracer.patched():
                        code = traced_main(list(cmd.args))
                else:
                    code = cli.main(list(cmd.args))
                detail = f"exit {code}"
            except Exception as exc:  # the CLI's own failure, counted like a crash
                code, detail = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
            total += wall
            run.record(cmd, code == 0, detail, check(cmd) if code == 0 else None, wall)
        walls[with_spans].append(total)

    deadline = perf_counter() + opts.seconds
    rounds = 0
    played: list[Command] = []
    while rounds == 0 or perf_counter() + statistics.median(walls[True]) + statistics.median(walls[False]) <= deadline:
        cmds = wl.round(run.rng)
        rounds += 1
        tracer.round_id = rounds
        # Alternate the order so neither side always runs on a cold cache.
        for with_spans in ((False, True) if rounds % 2 else (True, False)):
            play(cmds, with_spans)
        played += cmds
        if run.remaining() < 60:
            break
    own_rounds = range(1, rounds + 1)
    # Round 0 is the reference round: it reaches the layers this workload's
    # rounds do not, so that every per-layer metric has a measured value.
    tracer.round_id = 0
    reference_cmds = wl.reference_round(run.rng)
    play(reference_cmds, True)
    walls[True].pop()
    played += reference_cmds
    selfs = tracer.self_times()
    reference: list[str] = []
    sources = [(tracing.SPAN_METRICS, selfs), ({n: n for n in tracing.COUNT_METRICS}, tracer.counts)]
    for names, table in sources:
        for key, metric in names.items():
            ids = own_rounds if any((r, key) in table for r in own_rounds) else [0]
            if ids == [0]:
                reference.append(metric)
            metrics[metric] = statistics.median(table.get((r, key), 0) for r in ids)

    mc_cmd = next(c for c in played if c.kind == "bankruptcy")
    roundtrip_cmd = next(c for c in played if "roundtrip" in c.args)
    metrics.update(tracing.layer_probes(mc_cmd, roundtrip_cmd, tracer.last_curve, run.rng, opts.quick))
    metrics["montecarlo.rng_share"] = (
        metrics["montecarlo.trial_rng_us"] * 1e-6 * metrics["montecarlo.trials"]
        / metrics["montecarlo.transition_curve_s"]
    )
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    layer_self: dict[str, float] = {}
    for (r, span), t in selfs.items():
        if r in own_rounds:
            layer = span.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + t / rounds
    extra = {
        "rounds": rounds,
        "traced_round_s": walls[True],
        "untraced_round_s": walls[False],
        "layer_self_s_per_round": layer_self,
        "reference_metrics": reference,
        "failed_frac": len(run.failures) / run.attempted,
        "spans": tracer.dump(),
    }
    return metrics, extra


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def meta(run: Run) -> dict:
    return {
        "workload": run.opts.workload,
        "seed": run.opts.seed,
        "seconds": run.opts.seconds,
        "trace": run.opts.trace,
        "quick": run.opts.quick,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "workload_inputs": run.workload.describe(),
        "predictions": PREDICTIONS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's tests")
    opts = parser.parse_args(argv)
    if not (SRC / "impactval" / "cli.py").is_file():
        print(f"error: no impactval sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(opts)
    try:
        record = meta(run)
        metrics, extra = (traced if opts.trace else e2e)(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    units = PER_LAYER_UNITS if opts.trace else END_TO_END_UNITS
    # Children forked from a large parent would inherit its RSS in ru_maxrss.
    record["bench_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update(extra, loadavg_end=os.getloadavg(), commands=run.commands,
                  failures=run.failures, notes=sorted(run.notes), worst_oracle_se=run.worst_se)
    spans = record.pop("spans", None)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    run.results_dir.mkdir(exist_ok=True)
    out = run.results_dir / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    out.write_text(json.dumps(dict(result, meta=record, spans=spans)) + "\n", encoding="utf-8")

    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    for name, unit in EXTRA_UNITS.items():
        if name in extra:
            print(f"{name:40s} {extra[name]:14.6g} {unit}")
    summary = {k: record[k] for k in record if k not in ("commands", "predictions")}
    print(json.dumps({"meta": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
