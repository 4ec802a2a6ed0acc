"""Workload definitions: the CLI invocations each workload sends.

Every input comes from a ``random.Random`` seeded with the benchmark's
``--seed``; the program sees only the generated arguments and files.  A
workload is a sequence of rounds; a round is the list of commands one
closed-loop client sends back to back.
"""

from __future__ import annotations

import datetime
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Monte Carlo transition grid shared by both Monte Carlo workloads: lambda0 = 9,
# sigma = 1%, calI in 0..0.32 over 17 points.  At eta = 10 it holds a calI = 0
# row and one infeasible row (horizon rounds below one day).
MC_LAMBDA0 = 9.0
MC_SIGMA_TEXT = "1%"
MC_SIGMA = 1 / 100.0  # parse_fraction("1%") computes exactly this
MC_GRID = (0.0, 0.32, 17)
MC_GRID_TEXT = "0:0.32:17"

# 20 years of trading days for the estimate input.
SERIES_DAYS = 20 * 252


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m impactval.cli <args>``.

    ``expect`` holds what the output check needs to know about the inputs.
    """

    kind: str
    args: tuple[str, ...]
    out: Path
    expect: dict = field(default_factory=dict)


def grid_values(start: float, stop: float, count: int) -> list[float]:
    """The grid ``numpy.linspace(start, stop, count)`` builds, element for element."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    values = [i * step + start for i in range(count)]
    values[-1] = stop
    return values


def n_days(calI: float, eta: float, sigma: float, Y: float = 1.0) -> int:
    """Documented horizon rule of the transition curve: round((calI/(Y*sigma))^2 / eta)."""
    return round((calI / (Y * sigma)) ** 2 / eta)


def grid_layout(eta: float) -> list[dict]:
    """Per-point horizon and feasibility of the Monte Carlo grid at ``eta``."""
    layout = []
    for calI in grid_values(*MC_GRID):
        days = n_days(calI, eta, MC_SIGMA) if calI > 0.0 else 0
        layout.append({"calI": calI, "n_days": days, "feasible": calI == 0.0 or days >= 1})
    return layout


def _r(x: float) -> str:
    return repr(float(x))


class Workload:
    name = ""

    def __init__(self, work: Path, root: Path, quick: bool) -> None:
        self.work = work
        self.root = root
        self.quick = quick

    def round(self, rng: random.Random) -> list[Command]:
        raise NotImplementedError

    def reference_round(self, rng: random.Random) -> list[Command]:
        """Small commands that reach the layers this workload's rounds do not.

        Only the traced run uses them, so that every per-layer metric has a
        measured value on every workload.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        return {}


def bankruptcy_command(work: Path, rng: random.Random, eta: float, trials: int, mode: str) -> Command:
    seed = rng.randrange(2**31)
    out = work / "curve.csv"
    args = [
        "bankruptcy", "--lambda0", _r(MC_LAMBDA0), "--eta", _r(eta),
        "--impact-grid", MC_GRID_TEXT, "--trials", str(trials), "--sigma", MC_SIGMA_TEXT,
    ]
    if mode == "anywhere":
        args += ["--mc-mode", "anywhere"]
    args += ["--seed", str(seed), "--out", str(out)]
    expect = {
        "lambda0": MC_LAMBDA0, "eta": eta, "sigma": MC_SIGMA, "trials": trials,
        "mode": mode, "seed": seed, "grid": grid_values(*MC_GRID),
    }
    return Command("bankruptcy", tuple(args), out, expect)


class McCurve(Workload):
    """The paper's transition regime: horizons of 2 to 102 days, 10k trials.

    Per-trial RNG stream construction dominates, so this is the workload
    where a cheaper stream setup shows.
    """

    name = "mc_curve"
    eta = 10.0
    mode = "at-end"

    @property
    def trials(self) -> int:
        return 200 if self.quick else 10000

    def round(self, rng):
        return [bankruptcy_command(self.work, rng, self.eta, self.trials, self.mode)]

    def reference_round(self, rng):
        analytics = Analytics(self.work, self.root, self.quick)
        grid = 2000 if self.quick else 10000
        return analytics.exports_round(rng, grid=grid) + [analytics.estimate_command(rng)]

    def describe(self):
        layout = grid_layout(self.eta)
        return {
            "grid": layout,
            "infeasible_calI": [p["calI"] for p in layout if not p["feasible"]],
            "longest_n_days": max(p["n_days"] for p in layout),
        }


class McLongHorizon(McCurve):
    """The same grid at eta 0.1 with the path-wise test: horizons to ~10k days.

    Noise generation, cumsum and the path-wise test dominate and stream
    construction is ~10%, so an RNG-only change should barely move it; it is
    also the memory-heavy workload.
    """

    name = "mc_long_horizon"
    eta = 0.1
    mode = "anywhere"

    @property
    def trials(self) -> int:
        return 30 if self.quick else 1000


def write_series(path: Path, rng: random.Random) -> dict:
    """Write a synthetic daily market CSV and return the generator's parameters.

    Simple returns are sigma * N(0, 1), so the estimator's EMA of squared
    returns targets sigma^2; volume, spread and best-quote volume are
    lognormal with the given means.
    """
    sigma = rng.uniform(0.01, 0.03)
    V = 10 ** rng.uniform(5.0, 7.0)
    S = rng.uniform(2e-4, 2e-3)
    v = V * rng.uniform(1e-3, 1e-2)

    def lognormal(mean: float, disp: float) -> float:
        return mean * math.exp(disp * rng.gauss(0.0, 1.0) - 0.5 * disp * disp)

    day = datetime.date(2000, 1, 3)
    close = 100.0
    lines = ["date,close,volume,spread,best_quote_volume"]
    for _ in range(SERIES_DAYS):
        lines.append(
            f"{day.isoformat()},{close!r},{lognormal(V, 0.25)!r},"
            f"{lognormal(S, 0.2)!r},{lognormal(v, 0.2)!r}"
        )
        close *= 1.0 + sigma * rng.gauss(0.0, 1.0)
        day += datetime.timedelta(days=3 if day.weekday() == 4 else 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"sigma": sigma, "V": V, "S": S, "v": v}


class Analytics(Workload):
    """Closed-form commands and two 100k-point trajectory exports, no Monte Carlo.

    The short commands are dominated by interpreter start and imports, the
    exports by per-point Python loops and CSV writing.
    """

    name = "analytics"

    def __init__(self, work, root, quick):
        super().__init__(work, root, quick)
        self._series: tuple[Path, dict] | None = None

    def series(self, rng: random.Random) -> tuple[Path, dict]:
        """The estimate input, generated once per run."""
        if self._series is None:
            path = self.work / "series.csv"
            self._series = (path, write_series(path, rng))
        return self._series

    @property
    def trajectory_grid(self) -> int:
        return 2000 if self.quick else 100000

    def round(self, rng):
        return self.short_round(rng) + self.exports_round(rng, grid=self.trajectory_grid)

    def short_round(self, rng):
        cmds = []
        Q = 10 ** rng.uniform(6.0, 9.0)
        p0 = rng.uniform(5.0, 200.0)
        sigma = rng.uniform(0.01, 0.04)
        V = Q / 10 ** rng.uniform(0.0, 2.0)
        L = rng.uniform(0.0, 0.8) * Q * p0
        out = self.work / "value.json"
        cmds.append(Command(
            "value",
            ("value", "--Q", _r(Q), "--p0", _r(p0), "--L", _r(L), "--sigma", _r(sigma),
             "--V", _r(V), "--format", "json", "--out", str(out)),
            out, {"Q": Q, "p0": p0, "L": L, "sigma": sigma, "V": V, "Y": 1.0},
        ))
        for regime, lo, hi in (("SUBCRITICAL", 0.2, 1.3), ("SUPERCRITICAL", 1.7, 3.0)):
            lambda0 = rng.uniform(2.0, 20.0)
            calI = rng.uniform(lo, hi) / lambda0
            out = self.work / f"critical-{regime.lower()}.json"
            cmds.append(Command(
                "critical",
                ("critical", "--lambda0", _r(lambda0), "--impact", _r(calI),
                 "--format", "json", "--out", str(out)),
                out, {"lambda0": lambda0, "calI": calI, "regime": regime},
            ))
        out = self.work / "report.json"
        assets = self.root / "src" / "impactval" / "data" / "assets.ini"
        cmds.append(Command("report", ("report", "--format", "json", "--out", str(out)),
                            out, {"assets": assets}))
        cmds.append(self.estimate_command(rng))
        return cmds

    def estimate_command(self, rng):
        path, truth = self.series(rng)
        out = self.work / "estimate.json"
        return Command("estimate", ("estimate", str(path), "--format", "json", "--out", str(out)),
                       out, dict(truth, Y=1.0))

    def exports_round(self, rng, grid: int):
        lambda0 = rng.uniform(5.0, 15.0)
        calI = rng.uniform(1.6, 2.5) / lambda0
        out = self.work / "exit.csv"
        exit_cmd = Command(
            "trajectory",
            ("trajectory", "--lambda0", _r(lambda0), "--impact", _r(calI),
             "--grid", str(grid), "--out", str(out)),
            out, {"mode": "exit", "grid": grid, "lambda0": lambda0, "calI": calI},
        )
        Q = 1e6 * rng.uniform(0.5, 2.0)
        p0 = rng.uniform(5.0, 50.0)
        V = Q * rng.uniform(0.8, 1.25)
        sigma = rng.uniform(0.10, 0.25)
        E0 = Q * p0 / rng.uniform(5.0, 12.0)
        out = self.work / "roundtrip.csv"
        roundtrip_cmd = Command(
            "trajectory",
            ("trajectory", "--mode", "roundtrip", "--Q", _r(Q), "--p0", _r(p0), "--E0", _r(E0),
             "--sigma", _r(sigma), "--V", _r(V), "--grid", str(grid), "--out", str(out)),
            out, {"mode": "roundtrip", "grid": grid, "Q": Q, "p0": p0, "E0": E0,
                  "sigma": sigma, "V": V},
        )
        return [exit_cmd, roundtrip_cmd]

    def reference_round(self, rng):
        return [bankruptcy_command(self.work, rng, McCurve.eta, 100 if self.quick else 500, "at-end")]

    def describe(self):
        return {"trajectory_grid": self.trajectory_grid}


WORKLOADS = {cls.name: cls for cls in (McCurve, McLongHorizon, Analytics)}
