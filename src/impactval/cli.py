"""Command-line interface.

Commands: value, trajectory, critical, bankruptcy, report, estimate.
Figures are emitted as plot-ready CSV rather than images; exit codes are
0 on success, 1 for computation/data errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import warnings
from pathlib import Path

# Only what every command needs loads here; each command imports the rest
# itself.  Library calls go through module attributes, which the benchmark's
# tracer patches: the names imported here, and the estimation names, which
# __getattr__ (PEP 562) loads on first access, so that only `estimate` loads
# the estimation module.
from .impact import ImpactParams, check_validity, expected_impact, impact_from_spread
from .valuation import Position, average_valuation_price, liquidation_value

_ESTIMATION_NAMES = ("EstimationPolicy", "estimate_params", "load_series")


def __getattr__(name: str):
    if name not in _ESTIMATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import estimation

    return getattr(estimation, name)


def finite_float(text: str) -> float:
    """Parse a finite number; nan and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def parse_fraction(text: str) -> float:
    """Parse a finite decimal fraction, accepting a '%' suffix ('6.3%' -> 0.063)."""
    text = text.strip()
    if text.endswith("%"):
        return finite_float(text[:-1]) / 100.0
    return finite_float(text)


def parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:count' into a uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    start, stop = parse_fraction(parts[0]), parse_fraction(parts[1])
    count = int(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid count must be >= 1, got {count}")
    from . import leverage as lev

    try:  # each point becomes a transition-curve point
        lev.check_memory(count * lev.CURVE_POINT_BYTES, f"a {count}-point grid")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lev.linspace(start, stop, count)


def _percent(x: float) -> str:
    return f"{100.0 * x:.4g}%"


def _params_from_args(args) -> ImpactParams:
    if args.params is not None:
        return ImpactParams.load(args.params)
    if args.sigma is None or args.V is None:
        raise ValueError("impact parameters required: --params FILE or --sigma and --V")
    return ImpactParams(
        Y=args.Y, sigma=args.sigma, V=args.V, S=args.S, v=args.v, b=args.b, phi=args.phi
    )


def _add_params_flags(parser) -> None:
    parser.add_argument("--params", metavar="FILE", help="impact-parameter config file")
    parser.add_argument("--Y", type=finite_float, default=1.0, help="impact coefficient (default 1)")
    parser.add_argument("--sigma", type=parse_fraction, help="daily volatility (fraction or %%)")
    parser.add_argument("--V", type=finite_float, help="daily volume, same units as Q")
    parser.add_argument("--S", type=parse_fraction, default=None, help="bid-ask spread fraction")
    parser.add_argument("--v", type=finite_float, default=None, help="volume at best quotes")
    parser.add_argument("--b", type=finite_float, default=None, help="spread-volatility coefficient")
    parser.add_argument("--phi", type=finite_float, default=None, help="transactions per day")


def _add_position_flags(parser, required=False) -> None:
    parser.add_argument("--Q", type=finite_float, required=required)
    parser.add_argument("--p0", type=finite_float, required=required)
    parser.add_argument("--L", type=finite_float, default=0.0)


def _leverage_and_impact(args) -> tuple[float, float]:
    """(lambda0, calI) of the position given by --Q, --p0, --L and the impact parameters."""
    from . import leverage as lev

    params = _params_from_args(args)
    lambda0 = lev.mtm_leverage(args.Q, args.p0, args.L)
    if math.isinf(lambda0):
        raise ValueError("position has non-positive equity; leverage is undefined")
    if math.isnan(lambda0):  # Q * p0 overflowed, as Position refuses
        raise ValueError(f"Q * p0 must be finite, got {args.Q} * {args.p0}")
    return lambda0, expected_impact(params, args.Q)


def _write_text(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_safe(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _write_json(args, payload) -> None:
    """Write indented JSON; nan and infinities are written as null."""
    import json

    _write_text(args, json.dumps(_json_safe(payload), indent=2, allow_nan=False) + "\n")


def cmd_value(args) -> int:
    params = _params_from_args(args)
    pos = Position(Q=args.Q, p0=args.p0, L=args.L)
    mtm = pos.mtm_value
    adj = liquidation_value(pos, params)
    impact = expected_impact(params, args.Q)
    p_tilde = average_valuation_price(pos, params) if args.Q > 0 else args.p0
    haircut = (mtm - adj) / mtm if mtm > 0 else 0.0
    report = check_validity(params, args.Q)
    payload = {
        "mtm_value": mtm,
        "impact_adjusted_value": adj,
        "average_valuation_price": p_tilde,
        "impact": impact,
        "haircut": haircut,
        "warnings": [flag.value for flag in report.flags],
    }
    if args.format == "json":
        _write_json(args, payload)
    else:
        lines = [
            f"mark-to-market value:   {mtm:.6g}",
            f"impact-adjusted value:  {adj:.6g}",
            f"average valuation price: {p_tilde:.6g}",
            f"impact (full position): {impact:.6g} ({_percent(impact)})",
            f"haircut:                {haircut:.6g} ({_percent(haircut)})",
            "warnings:               "
            + (", ".join(payload["warnings"]) if payload["warnings"] else "none"),
        ]
        _write_text(args, "\n".join(lines) + "\n")
    return 0


def cmd_trajectory(args) -> int:
    from . import leverage as lev

    if args.grid < 2:
        raise ValueError(f"grid must be >= 2, got {args.grid}")
    points = 2 * args.grid if args.mode == "roundtrip" else args.grid
    lev.check_memory(points * lev.TRAJECTORY_POINT_BYTES, f"a {args.grid}-point grid")
    if args.mode == "roundtrip":
        if args.Q is None or args.p0 is None:
            raise ValueError("roundtrip mode requires --Q and --p0 plus impact parameters")
        params = _params_from_args(args)
        pos = Position(Q=args.Q, p0=args.p0, L=args.L, E0=args.E0)
        entry, exit_leg = lev.entry_exit_trajectories(pos, params, grid_size=args.grid)
        points = entry + exit_leg
    else:
        if args.lambda0 is not None and args.impact is not None:
            lambda0, cal_i = args.lambda0, args.impact
        elif args.Q is not None and args.p0 is not None:
            lambda0, cal_i = _leverage_and_impact(args)
        else:
            raise ValueError("need --lambda0 and --impact, or a full position with parameters")
        points = lev.deleverage_trajectory(lambda0, cal_i, lev.linspace(0.0, 1.0, args.grid))
    lev.write_trajectory_csv(points, args.out or sys.stdout)
    return 0


def cmd_critical(args) -> int:
    from . import leverage as lev

    if args.lambda0 is not None:
        lambda0 = args.lambda0
        cal_i = args.impact
    elif args.Q is not None and args.p0 is not None:
        lambda0, cal_i = _leverage_and_impact(args)
    else:
        raise ValueError("need --lambda0, or a full position with parameters")

    if cal_i is None:
        payload = {"lambda0": lambda0, "I_c": lev.critical_impact(lambda0)}
    else:
        report = lev.classify(lambda0, cal_i)
        payload = {
            "lambda0": lambda0,
            "calI": report.calI,
            "regime": report.regime.value,
            "I_c": report.I_c,
            "lambda_c": report.lambda_c,
        }
        if report.x_star is not None:
            payload["x_star"] = report.x_star
        if report.x_c is not None:
            payload["x_c"] = report.x_c
    if args.format == "json":
        _write_json(args, payload)
    else:
        lines = []
        for key, value in payload.items():
            if isinstance(value, float):
                lines.append(f"{key}: {value:.10g}")
            else:
                lines.append(f"{key}: {value}")
        _write_text(args, "\n".join(lines) + "\n")
    return 0


def cmd_bankruptcy(args) -> int:
    from . import leverage as lev
    from . import montecarlo as mc

    mode = (
        mc.BankruptcyMode.ANYWHERE_ON_PATH
        if args.mc_mode == "anywhere"
        else mc.BankruptcyMode.AT_END
    )
    points = mc.transition_curve(
        args.lambda0,
        args.eta,
        args.impact_grid,
        args.trials,
        args.seed,
        Y=args.Y,
        sigma=args.sigma,
        bankruptcy_mode=mode,
        noise_sigma=args.noise_sigma,
    )
    lev.write_csv(mc.transition_csv_rows(points), args.out or sys.stdout)
    return 0


_number = "{:.4g}".format
# (text header, row key, text format) of each column after the asset's name.
_REPORT_COLUMNS = (
    ("sigma", "sigma", _percent),
    ("V", "V", _number),
    ("S", "S", _percent),
    ("v", "v", _number),
    ("I1", "impact_vol_based", _percent),
    ("I2", "impact_spread_based", _percent),
    ("lambda_c", "lambda_c", _number),
)
_REPORT_FIELDS = (*(key for _, key, _ in _REPORT_COLUMNS), "error")


def _asset_row(asset) -> dict:
    """Impacts and critical leverage of one asset section; bad values raise ValueError."""
    from . import leverage as lev

    def number(key, parse=finite_float):
        raw = asset.get(key)
        if raw is None:
            return None
        try:
            return parse(raw)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    Y = number("Y")
    if Y is None:
        Y = 1.0
    sigma, V, Q = number("sigma", parse_fraction), number("V"), number("Q")
    S, v, b = number("S", parse_fraction), number("v"), number("b")
    i1 = i2 = None
    if sigma is not None and V is not None and Q is not None:
        i1 = expected_impact(ImpactParams(Y=Y, sigma=sigma, V=V), Q)
    if S is not None and v is not None and b is not None and Q is not None:
        if v <= 0:
            raise ValueError(f"v must be positive, got {v}")
        i2 = impact_from_spread(Y, b, S, Q / v)
    # The volume-based impact sets the critical leverage when both exist.
    positive = [i for i in (i1, i2) if i is not None and i > 0]
    return {
        "sigma": sigma,
        "V": V,
        "S": S,
        "v": v,
        "impact_vol_based": i1,
        "impact_spread_based": i2,
        "lambda_c": lev.CRITICAL_PRODUCT / positive[0] if positive else None,
        "error": None if (i1 is not None or i2 is not None) else "no usable parameters",
    }


def _report_rows(config_path: str):
    """One row per asset section; an asset with bad values carries the error in its row."""
    import configparser

    config = configparser.ConfigParser(interpolation=None)
    config.optionxform = str  # V and v are distinct keys
    try:
        read = config.read(config_path, encoding="utf-8-sig")
    except configparser.Error as exc:
        detail = "; ".join(line.strip() for line in exc.message.splitlines())
        raise ValueError(f"cannot parse asset config {config_path!r}: {detail}") from None
    if not read:
        raise ValueError(f"cannot read asset config {config_path!r}")
    rows = []
    for section in config.sections():
        try:
            row = _asset_row(config[section])
        except ValueError as exc:
            row = dict.fromkeys(_REPORT_FIELDS)
            row["error"] = str(exc)
        rows.append({"name": section, **row})
    return rows


def cmd_report(args) -> int:
    from . import leverage as lev

    path = args.assets
    if path is None:
        import importlib.resources

        path = str(importlib.resources.files("impactval") / "data" / "assets.ini")
    rows = _report_rows(path)
    if args.format == "json":
        _write_json(args, rows)
        return 0
    if args.format == "csv":
        def cell(value):
            return "" if value is None else repr(value) if isinstance(value, float) else str(value)

        out = [["name", *_REPORT_FIELDS]]
        out += [[cell(row[key]) for key in out[0]] for row in rows]
        lev.write_csv(out, args.out or sys.stdout)
        return 0

    table = [["asset", *(header for header, _, _ in _REPORT_COLUMNS)]]
    for row in rows:
        if row["error"]:
            cells = [f"error: {row['error']}"] + [""] * (len(_REPORT_COLUMNS) - 1)
        else:
            cells = ["--" if row[key] is None else fmt(row[key]) for _, key, fmt in _REPORT_COLUMNS]
        table.append([row["name"], *cells])
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip() for r in table]
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def cmd_estimate(args) -> int:
    cli = sys.modules[__name__]  # through __getattr__, or the tracer's patches
    series = cli.load_series(args.series)
    policy = cli.EstimationPolicy(
        window_days=args.window, exclusion_days=args.exclusion, halflife_days=args.halflife
    )
    params = cli.estimate_params(series, policy, Y=args.Y)
    if args.format == "json":
        _write_json(args, {k: v for k, v in params._asdict().items() if v is not None})
    else:
        _write_text(args, params.to_config_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactval",
        description="Impact-adjusted valuation and critical-leverage analytics",
    )

    def add_global_flags(target, suppress=False):
        for flag, default, kwargs in (
            ("--format", "text", {"choices": ("text", "json", "csv")}),
            ("--seed", 12345, {"type": int, "help": "master seed for stochastic runs"}),
            ("--out", None, {"metavar": "PATH", "help": "write output to a file instead of stdout"}),
        ):
            target.add_argument(flag, default=argparse.SUPPRESS if suppress else default, **kwargs)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, formats, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, formats=formats)
        return p

    p = command("value", cmd_value, ("text", "json"), "mark-to-market vs impact-adjusted valuation")
    _add_position_flags(p, required=True)
    _add_params_flags(p)

    p = command("trajectory", cmd_trajectory, ("text", "csv"),
                "leverage trajectory CSV (exit or round trip)")
    p.add_argument("--lambda0", type=finite_float)
    p.add_argument("--impact", type=parse_fraction, help="full-position impact I(Q)")
    _add_position_flags(p)
    p.add_argument("--E0", type=finite_float, help="initial equity (roundtrip mode)")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--mode", choices=("exit", "roundtrip"), default="exit")
    _add_params_flags(p)

    p = command("critical", cmd_critical, ("text", "json"),
                "criticality report (regime, I_c, lambda_c, x*, x_c)")
    p.add_argument("--lambda0", type=finite_float)
    p.add_argument("--impact", type=parse_fraction)
    _add_position_flags(p)
    _add_params_flags(p)

    p = command("bankruptcy", cmd_bankruptcy, ("text", "csv"),
                "bankruptcy-probability transition curve CSV")
    p.add_argument("--lambda0", type=finite_float, required=True)
    p.add_argument("--eta", type=finite_float, required=True, help="participation rate delta_q/V")
    p.add_argument("--impact-grid", type=parse_grid, default="0:0.3:16", help="start:stop:count")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--sigma", type=parse_fraction, default=0.02,
                   help="daily volatility (default 0.02)")
    p.add_argument("--noise-sigma", type=parse_fraction, default=None,
                   help="background noise level (0 for deterministic paths)")
    p.add_argument("--Y", type=finite_float, default=1.0)
    p.add_argument("--mc-mode", choices=("at-end", "anywhere"), default="at-end")

    p = command("report", cmd_report, ("text", "json", "csv"),
                "per-asset impact and critical-leverage table")
    p.add_argument("assets", nargs="?", default=None,
                   help="INI file, one section per asset (default: bundled fixture)")

    p = command("estimate", cmd_estimate, ("text", "json"),
                "estimate impact parameters from a market CSV")
    p.add_argument("series", help="daily market data CSV")
    p.add_argument("--window", type=int, default=126)
    p.add_argument("--exclusion", type=int, default=5)
    p.add_argument("--halflife", type=int, default=63)
    p.add_argument("--Y", type=finite_float, default=1.0)

    # Last, so that each command's usage line ends with them.  A command's
    # flags default to nothing, so that they keep what was given before it.
    for target in (parser, *sub.choices.values()):
        add_global_flags(target, suppress=target is not parser)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning as one stderr line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format not in args.formats:
        allowed = " or ".join(args.formats)
        print(f"error: {args.command} --format is {allowed}, not {args.format}", file=sys.stderr)
        return 2
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def run() -> None:
    """Program entry: run main(), then exit without collecting what is still alive.

    gc.freeze() moves every live object to the permanent generation, so the
    interpreter's collections at shutdown no longer walk the objects numpy
    and the command leave behind.  main() never freezes, because tests and
    the benchmark call it in-process.
    """
    sys.stdout.reconfigure(encoding="utf-8")  # on any locale, as every file the CLI writes
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
