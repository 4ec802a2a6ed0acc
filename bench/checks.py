"""Output checks: each command's output file against an independent oracle.

A check returns a ``CheckResult``; a command whose check reports any
problem counts as failed.  The checks also count the work an output
represents (Monte Carlo trials and trial-days, CSV rows), so that rates are
derived from what the program actually produced.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from dataclasses import dataclass, field

from workloads import Command, n_days

# Allowed distance between a Monte Carlo probability and its oracle, in
# standard errors.  At 5 SE a false alarm has probability ~1e-6 per
# comparison; the 1/N term keeps the margin non-zero at p = 0 or 1.
ORACLE_SE = 5.0

TRAJECTORY_COLUMNS = [
    "x", "q_held", "marginal_price", "cash", "lambda_noimpact", "lambda_mtm", "lambda_adj",
]
CURVE_COLUMNS = ["calI", "p_bankrupt", "std_error", "p_bankrupt_noimpact"]


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    rows: int = 0  # CSV data rows written
    trials: int = 0  # (trial, feasible grid point) pairs
    trial_days: int = 0
    worst_se: float = 0.0  # largest |MC - oracle| in standard errors
    notes: list[str] = field(default_factory=list)  # program defects that do not fail the check

    @property
    def ok(self) -> bool:
        return not self.problems


def norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def at_end_oracle(calI: float, lambda0: float, eta: float, sigma: float, *, impact: bool = True,
                  Y: float = 1.0, V: float = 1e6, p0: float = 1.0) -> float:
    """Exact AT_END bankruptcy probability of one transition-curve point.

    Daily prices are det(t) + p0*s*(n_1 + ... + n_t), so total proceeds
    dq * sum_t price(t) are Gaussian with standard deviation
    dq * p0 * s * sqrt(T(T+1)(2T+1)/6), and
    P = Phi((L/dq - sum_t det(t)) / (p0 * s * sqrt(T(T+1)(2T+1)/6))).
    The point is built as ``transition_curve`` builds it (noise at sigma).
    """
    T = n_days(calI, eta, sigma, Y)
    q_over_v = (calI / (Y * sigma)) ** 2
    Q = q_over_v * V
    L = Q * p0 * (1.0 - 1.0 / lambda0)
    dq = Q / T
    if impact:
        det_sum = math.fsum(p0 * (1.0 - Y * sigma * math.sqrt(t * dq / V)) for t in range(1, T + 1))
    else:
        det_sum = T * p0
    sd = p0 * sigma * math.sqrt(T * (T + 1) * (2 * T + 1) / 6.0)
    return norm_cdf((L / dq - det_sum) / sd)


def oracle_margin(p: float, n: int) -> float:
    return ORACLE_SE * math.sqrt((p * (1.0 - p) + 1.0 / n) / n)


def parse_cell(cell: str, result: CheckResult) -> float:
    """Parse a numeric CSV cell; a numpy scalar repr is noted, not failed."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        result.notes.append(f"numpy repr in CSV cell {cell!r}")
        cell = cell[len("np.float64("):-1]
    return float(cell)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def check_bankruptcy(cmd: Command) -> CheckResult:
    e = cmd.expect
    res = CheckResult()
    with open(cmd.out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != CURVE_COLUMNS:
        res.problems.append(f"bad header {rows[:1]}")
        return res
    data = rows[1:]
    res.rows = len(data)
    if len(data) != len(e["grid"]):
        res.problems.append(f"{len(data)} rows for a {len(e['grid'])}-point grid")
        return res
    N, anywhere = e["trials"], e["mode"] == "anywhere"
    for expected_calI, row in zip(e["grid"], data):
        calI, p, se, pn = (parse_cell(c, res) for c in row)
        where = f"calI={calI!r}"
        if not close(calI, expected_calI, 1e-12):
            res.problems.append(f"{where}: expected grid value {expected_calI!r}")
            continue
        if calI == 0.0:
            if (p, se, pn) != (0.0, 0.0, 0.0):
                res.problems.append(f"{where}: zero-impact row must be all zeros")
            continue
        T = n_days(calI, e["eta"], e["sigma"])
        if T < 1:
            if not all(math.isnan(x) for x in (p, se, pn)):
                res.problems.append(f"{where}: horizon {T} days must be reported infeasible (nan)")
            continue
        if not all(0.0 <= x <= 1.0 for x in (p, pn)):
            res.problems.append(f"{where}: probabilities {p}, {pn} outside [0, 1]")
            continue
        if abs(p * N - round(p * N)) > 1e-6 * N or abs(pn * N - round(pn * N)) > 1e-6 * N:
            res.problems.append(f"{where}: probabilities are not counts over {N} trials")
        if not math.isclose(se, math.sqrt(p * (1.0 - p) / N), rel_tol=1e-9, abs_tol=1e-15):
            res.problems.append(f"{where}: std_error {se} != sqrt(p(1-p)/N)")
        if pn > p:
            # Impact lowers every price of the same draw, so it can only add bankruptcies.
            res.problems.append(f"{where}: p_bankrupt_noimpact {pn} > p_bankrupt {p}")
        for got, impact in ((p, True), (pn, False)):
            P = at_end_oracle(calI, e["lambda0"], e["eta"], e["sigma"], impact=impact)
            tol = oracle_margin(P, N)
            # Path-wise bankruptcy contains the final-day test; with one day they coincide.
            two_sided = not anywhere or T == 1
            if got < P - tol or (two_sided and got > P + tol):
                res.problems.append(
                    f"{where}: {'p_bankrupt' if impact else 'p_bankrupt_noimpact'} {got} vs "
                    f"AT_END oracle {P:.6f} (margin {tol:.6f}, T={T})"
                )
            if two_sided:
                res.worst_se = max(res.worst_se, abs(got - P) / (tol / ORACLE_SE))
        res.trials += N
        res.trial_days += N * T
    return res


def _json(cmd: Command, res: CheckResult):
    try:
        return json.loads(cmd.out.read_text(encoding="utf-8"))
    except ValueError as exc:
        res.problems.append(f"invalid JSON: {exc}")
        return None


def check_value(cmd: Command) -> CheckResult:
    e, res = cmd.expect, CheckResult()
    out = _json(cmd, res)
    if out is None:
        return res
    impact = e["Y"] * e["sigma"] * math.sqrt(e["Q"] / e["V"])
    mtm = e["Q"] * e["p0"]
    adj = e["p0"] * e["Q"] * (1.0 - 2.0 / 3.0 * impact)
    expected = {
        "mtm_value": mtm,
        "impact_adjusted_value": adj,
        "average_valuation_price": e["p0"] * (1.0 - 2.0 / 3.0 * impact),
        "impact": impact,
        "haircut": (mtm - adj) / mtm,
    }
    for key, want in expected.items():
        if not isinstance(out.get(key), float) or not close(out[key], want):
            res.problems.append(f"{key}: {out.get(key)!r} != {want!r}")
    warns = ["WARN_LARGE_IMPACT"] if impact > 0.20 else []
    if out.get("warnings") != warns:
        res.problems.append(f"warnings {out.get('warnings')!r} != {warns!r}")
    return res


def check_critical(cmd: Command) -> CheckResult:
    e, res = cmd.expect, CheckResult()
    out = _json(cmd, res)
    if out is None:
        return res
    lam, calI = e["lambda0"], e["calI"]
    if out.get("regime") != e["regime"]:
        res.problems.append(f"regime {out.get('regime')!r} != {e['regime']!r}")
        return res
    if not close(out.get("lambda_c", math.nan), 1.5 / calI, 1e-12):
        res.problems.append(f"lambda_c {out.get('lambda_c')!r} != 1.5/calI")
    if not close(out.get("I_c", math.nan), 1.5 / lam, 1e-12):
        res.problems.append(f"I_c {out.get('I_c')!r} != 1.5/lambda0")
    if e["regime"] == "SUPERCRITICAL":
        x_c = out.get("x_c")
        if not isinstance(x_c, float) or not 0.0 < x_c <= 1.0:
            res.problems.append(f"x_c {x_c!r} outside (0, 1]")
            return res
        u = math.sqrt(x_c)
        residual = lam * calI * u * (1.0 - u * u / 3.0) - 1.0
        if abs(residual) > 1e-9:
            res.problems.append(f"x_c {x_c!r}: cubic residual {residual:.3g}")
    else:
        x_star = out.get("x_star")
        if not isinstance(x_star, float) or not 0.0 < x_star < 1.0:
            res.problems.append(f"x_star {x_star!r} outside (0, 1)")
            return res
        u = math.sqrt(x_star)
        lam_x = lam * (1.0 - x_star) * (1.0 - calI * u) / (1.0 - lam * calI * u * (1.0 - x_star / 3.0))
        if abs(lam_x / lam - 1.0) > 1e-9:
            res.problems.append(f"x_star {x_star!r}: lambda(x*)/lambda0 - 1 = {lam_x / lam - 1.0:.3g}")
    return res


def _cubic_x_c(product: float) -> float:
    """Smallest root in (0, 1] of u^3 - 3u + 3/product = 0, squared (trigonometric form)."""
    u = 2.0 * math.cos((math.acos(-1.5 / product) + 4.0 * math.pi) / 3.0)
    return u * u


def _trajectory_row_problem(row: list[str]) -> str | None:
    if len(row) != len(TRAJECTORY_COLUMNS):
        return f"row of {len(row)} cells"
    for cell in row:
        value = float(cell)
        if math.isnan(value) or value == -math.inf or (value == math.inf and cell != "inf"):
            return f"cell {cell!r}: divergence must serialize as 'inf', never nan or -inf"
    return None


def check_trajectory(cmd: Command) -> CheckResult:
    """Row count, leg endpoints, 'inf' spelling and where divergence starts.

    The file is streamed: the benchmark process must stay small, because a
    child's ru_maxrss includes the parent memory it was forked from.
    """
    e, res = cmd.expect, CheckResult()
    n, exit_mode = e["grid"], e["mode"] == "exit"
    # Exit inputs are supercritical: mark-to-market leverage diverges exactly
    # past x_c and impact-adjusted leverage is infinite throughout.
    x_c = _cubic_x_c(e["lambda0"] * e["calI"]) if exit_mode else None
    diverged = False
    prev_x = -1.0
    with open(cmd.out, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != TRAJECTORY_COLUMNS:
            res.problems.append(f"bad header {header}")
            return res
        for i, row in enumerate(reader):
            problem = _trajectory_row_problem(row)
            x = float(row[0]) if problem is None else math.nan
            if problem is None and i % n == 0 and x != 0.0:
                problem = f"leg {i // n} starts at x={x}"
            if problem is None and i % n == n - 1:
                if x != 1.0:
                    problem = f"leg {i // n} ends at x={x}"
                elif not exit_mode:
                    q_end = e["Q"] if i < n else 0.0
                    if not close(float(row[1]), q_end, 1e-12):
                        problem = f"q_held {row[1]} at the end of leg {i // n}, expected {q_end!r}"
            if problem is None and exit_mode:
                if row[5] == "inf" and not diverged:
                    diverged = True
                    if x < x_c - 1e-9 or prev_x > x_c + 1e-9:
                        problem = f"divergence starts at x={x}, not at x_c={x_c:.9f}"
                elif row[5] != "inf" and diverged:
                    problem = f"finite leverage at x={x} after divergence"
                elif row[6] != "inf":
                    problem = f"impact-adjusted leverage {row[6]} at x={x}, expected inf"
            if problem is not None:
                res.problems.append(f"row {i + 1}: {problem}")
                return res
            prev_x = x
            res.rows += 1
    legs = 1 if exit_mode else 2
    if res.rows != legs * n:
        res.problems.append(f"{res.rows} rows, expected {legs} x {n}")
    if exit_mode and not diverged:
        res.problems.append(f"no divergence although x_c={x_c:.9f}")
    return res


def check_report(cmd: Command) -> CheckResult:
    e, res = cmd.expect, CheckResult()
    out = _json(cmd, res)
    if out is None:
        return res
    table = configparser.ConfigParser()
    table.optionxform = str
    table.read(e["assets"], encoding="utf-8")
    if [row.get("name") for row in out] != table.sections():
        res.problems.append(f"assets {[row.get('name') for row in out]} != {table.sections()}")
        return res
    for row in out:
        asset = table[row["name"]]
        get = {k: asset.getfloat(k, fallback=None) for k in ("Y", "sigma", "V", "Q", "S", "v", "b")}
        Y = get["Y"] if get["Y"] is not None else 1.0
        i1 = i2 = None
        if None not in (get["sigma"], get["V"], get["Q"]):
            i1 = Y * get["sigma"] * math.sqrt(get["Q"] / get["V"])
        if None not in (get["S"], get["v"], get["b"], get["Q"]):
            i2 = Y * get["b"] * get["S"] * math.sqrt(get["Q"] / get["v"])
        impact = i1 if i1 else i2
        want = {"sigma": get["sigma"], "V": get["V"], "S": get["S"], "v": get["v"],
                "impact_vol_based": i1, "impact_spread_based": i2,
                "lambda_c": 1.5 / impact if impact else None}
        for key, value in want.items():
            got = row.get(key)
            if (value is None) != (got is None) or (value is not None and not close(got, value, 1e-12)):
                res.problems.append(f"{row['name']}.{key}: {got!r} != {value!r}")
    return res


def check_estimate(cmd: Command) -> CheckResult:
    """Estimates must be finite and near the generator's parameters.

    The EMA over a 126-day window with a 63-day half-life averages ~109
    effective days, so sigma carries ~7% relative error and the lognormal
    volume, spread and quote-volume means ~2-3%; the margins are ~5 SE.
    """
    e, res = cmd.expect, CheckResult()
    out = _json(cmd, res)
    if out is None:
        return res
    if out.get("Y") != e["Y"]:
        res.problems.append(f"Y {out.get('Y')!r} != {e['Y']!r}")
    for key, rel in (("sigma", 0.35), ("V", 0.15), ("S", 0.15), ("v", 0.15)):
        got = out.get(key)
        if not isinstance(got, float) or not math.isfinite(got) or abs(got / e[key] - 1.0) > rel:
            res.problems.append(f"{key} estimate {got!r} not within {rel:.0%} of {e[key]!r}")
    return res


CHECKS = {
    "bankruptcy": check_bankruptcy,
    "value": check_value,
    "critical": check_critical,
    "trajectory": check_trajectory,
    "report": check_report,
    "estimate": check_estimate,
}


def check(cmd: Command) -> CheckResult:
    try:
        return CHECKS[cmd.kind](cmd)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return CheckResult(problems=[f"output unreadable: {type(exc).__name__}: {exc}"])
