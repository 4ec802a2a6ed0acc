"""Impact-adjusted valuation, critical leverage, and liquidation risk."""

from .estimation import EstimationPolicy, MarketSeries, ema, estimate_params, load_series
from .impact import (
    ImpactParams,
    ImpactQuote,
    TradeDirection,
    Validity,
    ValidityReport,
    check_validity,
    expected_impact,
    impact_from_spread,
    quote,
    volatility_from_spread,
)
from .leverage import (
    DIVERGED,
    CriticalityReport,
    Regime,
    TrajectoryPoint,
    bankruptcy_point,
    cash_raised,
    classify,
    critical_impact,
    critical_leverage,
    critical_leverage_from_spread,
    crossover_point,
    deleverage_lambda,
    deleverage_trajectory,
    entry_exit_trajectories,
    impact_adjusted_leverage_exit,
    mtm_leverage,
    small_x_expansion,
    write_trajectory_csv,
)
from .valuation import (
    Position,
    average_valuation_price,
    liquidation_value,
    liquidation_value_discrete,
    remaining_liquidation_value,
)

__version__ = "0.1.0"

# The Monte Carlo layer needs numpy; its names are looked up on first access
# (PEP 562) so that importing the package, and the CLI, does not load numpy.
_MONTECARLO_NAMES = frozenset(
    {
        "BankruptcyMode",
        "LiquidationSchedule",
        "MonteCarloConfig",
        "MonteCarloResult",
        "bankruptcy_probability",
        "fit_transition",
        "simulate_price_path",
        "transition_curve",
    }
)


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
