"""Per-layer measurement from the benchmark's side of each layer boundary.

Spans are recorded by wrapping the module attributes the CLI calls through
(``impactval.montecarlo.transition_curve``, ``impactval.cli.load_series``,
...) for the duration of a traced round; nothing inside ``src/`` changes.
Spans stay in memory and are written out when the run ends.  The import
breakdown comes from ``python -X importtime`` in a fresh interpreter, and a
few layer costs that no CLI span isolates (one RNG stream, one noise draw,
one root solve) are timed directly on the layer's public functions.
"""

from __future__ import annotations

import contextlib
import importlib
import random
import re
import statistics
import subprocess
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, span name): every library call the CLI makes through a
# module attribute.  Span names are "<layer>.<function>", layers being the
# modules under src/impactval/.
PATCHES = (
    ("impactval.montecarlo", "transition_curve", "montecarlo.transition_curve"),
    ("impactval.montecarlo", "transition_csv_rows", "montecarlo.transition_csv_rows"),
    ("impactval.leverage", "deleverage_trajectory", "leverage.deleverage_trajectory"),
    ("impactval.leverage", "entry_exit_trajectories", "leverage.entry_exit_trajectories"),
    ("impactval.leverage", "write_trajectory_csv", "leverage.write_trajectory_csv"),
    ("impactval.leverage", "classify", "leverage.classify"),
    ("impactval.leverage", "critical_impact", "leverage.critical_impact"),
    ("impactval.cli", "load_series", "estimation.load_series"),
    ("impactval.cli", "estimate_params", "estimation.estimate_params"),
    ("impactval.cli", "liquidation_value", "valuation.liquidation_value"),
    ("impactval.cli", "average_valuation_price", "valuation.average_valuation_price"),
    ("impactval.cli", "expected_impact", "impact.expected_impact"),
    ("impactval.cli", "check_validity", "impact.check_validity"),
    ("impactval.cli", "impact_from_spread", "impact.impact_from_spread"),
)

# Span self times reported as per-layer metrics: span name -> metric name.
SPAN_METRICS = {
    "cli.main": "cli.main_self_s",
    "montecarlo.transition_curve": "montecarlo.transition_curve_s",
    "montecarlo.transition_csv_rows": "montecarlo.transition_csv_rows_s",
    "leverage.deleverage_trajectory": "leverage.deleverage_trajectory_s",
    "leverage.entry_exit_trajectories": "leverage.entry_exit_trajectories_s",
    "leverage.write_trajectory_csv": "leverage.write_trajectory_csv_s",
    "estimation.load_series": "estimation.load_series_s",
    "estimation.estimate_params": "estimation.estimate_params_s",
}
COUNT_METRICS = ("montecarlo.trials", "montecarlo.trial_days", "leverage.trajectory_rows")


def _count(tracer: "Tracer", span: str, args: tuple, kwargs: dict, result) -> None:
    """Work counts recorded at the boundary where the work happens."""
    if span == "montecarlo.transition_curve":
        n_trials = args[3] if len(args) > 3 else kwargs["n_trials"]
        for pt in result:
            if pt.feasible and pt.calI > 0.0:
                tracer.add("montecarlo.trials", n_trials)
                tracer.add("montecarlo.trial_days", n_trials * pt.n_days)
        tracer.last_curve = result
    elif span == "leverage.write_trajectory_csv":
        tracer.add("leverage.trajectory_rows", len(args[0]))


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    round_id: int


class Tracer:
    """In-memory span recorder for one process, one thread."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.round_id = 0
        self.last_curve = None
        self._stack: list[int] = []

    def add(self, name: str, n: int) -> None:
        self.counts[(self.round_id, name)] += n

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.round_id)
            _count(self, name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route the CLI's library calls through span-recording wrappers."""
        saved = []
        try:
            for module_name, attr, span in PATCHES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(span, getattr(module, attr)))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[tuple[int, str], float]:
        """Per (round, span name) self time: duration minus time in child spans.

        Spans nest strictly within one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[(span.round_id, span.name)] += span.end - span.start - child_time[i]
        return totals

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.round_id] for s in self.spans]


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, float]:
    """Import costs in seconds from ``-X importtime`` output of ``import impactval.cli``.

    ``cli.import_s`` is the cumulative time of the ``impactval.cli`` entry.
    numpy and scipy are charged the cumulative time of their outermost
    entries, which includes whatever they imported that was not loaded yet:
    the time a user would save if the package were not imported.
    """
    entries = []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)) // 2, match.group(4), int(match.group(2))))
    out = {"cli.import_s": 0.0, "cli.import_numpy_s": 0.0, "cli.import_scipy_s": 0.0}
    # Entries are printed after their children; walk backwards so that each
    # entry's ancestors are on the stack when it is reached.
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "impactval.cli" and depth == 0:
            out["cli.import_s"] += cumulative_us * 1e-6
        for package in ("numpy", "scipy"):
            inside = name == package or name.startswith(package + ".")
            if inside and not any(a == package or a.startswith(package + ".") for _, a in stack):
                out[f"cli.import_{package}_s"] += cumulative_us * 1e-6
        stack.append((depth, name))
    return out


def import_breakdown(python: str, env: dict, cwd, reps: int) -> dict[str, float]:
    """Median import costs over ``reps`` fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(reps):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import impactval.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        )
        for key, value in parse_importtime(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def _per_call(fn, calls: list, reps: int = 3) -> float:
    """Median over ``reps`` passes of the mean seconds per call of ``fn(*args)``."""
    passes = []
    for _ in range(reps):
        start = perf_counter()
        for args in calls:
            fn(*args)
        passes.append((perf_counter() - start) / len(calls))
    return statistics.median(passes)


def layer_probes(mc_cmd, roundtrip_cmd, curve, rng: random.Random, quick: bool) -> dict[str, float]:
    """Costs of single calls into layer functions, at the workload's inputs.

    ``mc_cmd`` is the workload's (or the reference round's) bankruptcy
    command, ``roundtrip_cmd`` its roundtrip trajectory command and
    ``curve`` the transition curve a traced round produced.
    """
    import numpy as np

    from impactval import impact, leverage, montecarlo as mc
    from impactval.valuation import Position
    from workloads import n_days

    e = mc_cmd.expect
    out: dict[str, float] = {}
    n = 200 if quick else 2000
    indices = [(e["seed"], rng.randrange(e["trials"])) for _ in range(n)]
    out["montecarlo.trial_rng_us"] = _per_call(mc.trial_rng, indices) * 1e6

    feasible = [c for c in e["grid"] if c > 0.0 and n_days(c, e["eta"], e["sigma"]) >= 1]
    calI = max(feasible)
    horizon = n_days(calI, e["eta"], e["sigma"])
    gens = [mc.trial_rng(seed, i) for seed, i in indices[:200]]
    out["montecarlo.noise_ns_per_day"] = (
        _per_call(lambda g: g.standard_normal(horizon), [(g,) for g in gens]) / horizon * 1e9
    )

    # The single-config kernel at the grid's longest feasible point, built as
    # transition_curve builds it.
    q_over_v = (calI / e["sigma"]) ** 2
    Q, V = q_over_v * 1e6, 1e6
    config = mc.MonteCarloConfig(
        position=Position(Q=Q, p0=1.0, L=Q * (1.0 - 1.0 / e["lambda0"])),
        params=impact.ImpactParams(Y=1.0, sigma=e["sigma"], V=V),
        schedule=mc.LiquidationSchedule(Q=Q, delta_q=Q / horizon, V=V),
        n_trials=e["trials"],
        master_seed=e["seed"],
        bankruptcy_mode=(mc.BankruptcyMode.ANYWHERE_ON_PATH if e["mode"] == "anywhere"
                         else mc.BankruptcyMode.AT_END),
    )
    out["montecarlo.bankruptcy_probability_s"] = _per_call(mc.bankruptcy_probability, [(config,)], reps=1)

    calIs = np.array([pt.calI for pt in curve])
    ps = np.array([pt.p_bankrupt for pt in curve])
    out["montecarlo.fit_transition_s"] = _per_call(mc.fit_transition, [(calIs, ps)])

    r = roundtrip_cmd.expect
    params = impact.ImpactParams(Y=1.0, sigma=r["sigma"], V=r["V"])
    qs = [(params, x * r["Q"]) for x in np.linspace(0.0, 1.0, min(r["grid"], 10000))]
    out["impact.expected_impact_us"] = _per_call(impact.expected_impact, qs) * 1e6

    # A (lambda0, calI) sweep over both regimes; these are the only callers
    # of the bisection in rootfind.
    pairs = []
    while len(pairs) < (100 if quick else 400):
        lambda0, product = rng.uniform(1.5, 20.0), rng.uniform(0.1, 3.0)
        if abs(product - 1.5) > 1e-3:
            pairs.append((lambda0, product / lambda0))
    sub = [p for p in pairs if p[0] * p[1] < 1.5]
    sup = [p for p in pairs if p[0] * p[1] > 1.5]
    out["leverage.classify_us"] = _per_call(leverage.classify, pairs) * 1e6
    out["leverage.crossover_point_us"] = _per_call(leverage.crossover_point, sub) * 1e6
    out["leverage.bankruptcy_point_us"] = _per_call(leverage.bankruptcy_point, sup) * 1e6
    return out
