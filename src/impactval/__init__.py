"""Impact-adjusted valuation, critical leverage, and liquidation risk."""

import importlib

__version__ = "0.1.0"

# Every public name, and each library submodule, mapped to the submodule that
# defines it.  Names load on first access (PEP 562), so importing the package
# loads no submodule and each CLI command imports only what it runs; the Monte
# Carlo layer, the only user of numpy, loads only when one of its names is used.
_MODULE_NAMES = {
    "estimation": (
        "EstimationPolicy", "MarketSeries", "ema", "estimate_params", "load_series",
    ),
    "impact": (
        "ImpactParams", "Validity", "ValidityReport", "check_validity", "expected_impact",
        "impact_from_spread", "volatility_from_spread",
    ),
    "leverage": (
        "DIVERGED", "CriticalityReport", "Regime", "TrajectoryPoint", "bankruptcy_point",
        "cash_raised", "classify", "critical_impact", "critical_leverage",
        "critical_leverage_from_spread", "crossover_point", "deleverage_lambda",
        "deleverage_trajectory", "entry_exit_trajectories", "impact_adjusted_leverage_exit",
        "mtm_leverage", "small_x_expansion", "write_trajectory_csv",
    ),
    "montecarlo": (
        "BankruptcyMode", "LiquidationSchedule", "MonteCarloConfig", "MonteCarloResult",
        "bankruptcy_probability", "fit_transition", "simulate_price_path", "transition_curve",
    ),
    "valuation": (
        "Position", "average_valuation_price", "liquidation_value",
        "liquidation_value_discrete", "remaining_liquidation_value",
    ),
}
_LAZY = {
    name: module
    for module, names in _MODULE_NAMES.items()
    for name in (module, *names)
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = importlib.import_module(f"{__name__}.{module}")
    return submodule if name == module else getattr(submodule, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
