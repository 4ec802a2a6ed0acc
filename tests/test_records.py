"""The record contract: every public record of the package behaves alike.

Keyword construction with defaults, a signature that lists the fields and
their defaults, equality and hashing by field, pickling, immutability, the
``Name(field=value, ...)`` repr, and each checked constructor's message on
a bad field, also where ``_replace`` brings it in.
"""

import enum
import importlib
import inspect
import pickle
import weakref
from datetime import date

import pytest

import impactval
from impactval.estimation import EstimationPolicy, MarketSeries
from impactval.impact import ImpactParams, Validity, ValidityReport
from impactval.leverage import TRAJECTORY_COLUMNS, CriticalityReport, Regime, TrajectoryPoint
from impactval.montecarlo import (
    BankruptcyMode,
    FittedTransition,
    LiquidationSchedule,
    MonteCarloConfig,
    MonteCarloResult,
    PricePath,
    TransitionPoint,
)
from impactval.valuation import Position

PARAMS = ImpactParams(Y=1.0, sigma=0.02, V=1000.0)
POSITION = Position(Q=100.0, p0=2.0, L=50.0)
SCHEDULE = LiquidationSchedule(Q=100.0, delta_q=10.0, V=1000.0)

# (class, keywords given, fields left at their defaults, repr, a bad field and its message)
RECORDS = [
    (
        ImpactParams,
        {"Y": 1.0, "sigma": 0.02, "V": 1000.0, "b": 0.7},
        {"S": None, "v": None, "phi": None},
        "ImpactParams(Y=1.0, sigma=0.02, V=1000.0, S=None, v=None, b=0.7, phi=None)",
        ({"V": -1.0}, "V must be positive, got -1.0"),
    ),
    (
        ValidityReport,
        {"impact": 0.3, "participation": None, "flags": (Validity.WARN_LARGE_IMPACT,)},
        {},
        "ValidityReport(impact=0.3, participation=None, "
        "flags=(<Validity.WARN_LARGE_IMPACT: 'WARN_LARGE_IMPACT'>,))",
        None,
    ),
    (
        Position,
        {"Q": 100.0, "p0": 2.0},
        {"L": 0.0, "E0": None},
        "Position(Q=100.0, p0=2.0, L=0.0, E0=None)",
        ({"p0": 0.0}, "p0 must be positive, got 0.0"),
    ),
    (
        MarketSeries,
        {"dates": (date(2024, 1, 1), date(2024, 1, 2)), "close": (1.0, 2.0), "volume": (5.0, 6.0)},
        {"spread": None, "best_quote_volume": None},
        "MarketSeries(dates=(datetime.date(2024, 1, 1), datetime.date(2024, 1, 2)), "
        "close=(1.0, 2.0), volume=(5.0, 6.0), spread=None, best_quote_volume=None)",
        ({"dates": (date(2024, 1, 2), date(2024, 1, 1))},
         "dates must be strictly increasing; violation at row 2"),
    ),
    (
        EstimationPolicy,
        {"window_days": 20},
        {"exclusion_days": 5, "halflife_days": 63},
        "EstimationPolicy(window_days=20, exclusion_days=5, halflife_days=63)",
        ({"exclusion_days": 20}, "exclusion_days must lie in [0, window_days), got 20"),
    ),
    (
        CriticalityReport,
        {"calI": 0.1, "lambda0": 9.0, "regime": Regime.SUBCRITICAL, "I_c": 0.25,
         "lambda_c": 15.0, "x_star": 0.5},
        {"x_c": None},
        "CriticalityReport(calI=0.1, lambda0=9.0, regime=<Regime.SUBCRITICAL: 'SUBCRITICAL'>, "
        "I_c=0.25, lambda_c=15.0, x_star=0.5, x_c=None)",
        None,
    ),
    (
        TrajectoryPoint,
        {"x": 0.5, "q_held": 50.0, "marginal_price": 0.9, "cash": 48.0,
         "lambda_noimpact": 2.0, "lambda_mtm": 2.5, "lambda_adj": float("inf")},
        {},
        "TrajectoryPoint(x=0.5, q_held=50.0, marginal_price=0.9, cash=48.0, "
        "lambda_noimpact=2.0, lambda_mtm=2.5, lambda_adj=inf)",
        None,
    ),
    (
        LiquidationSchedule,
        {"Q": 100.0, "delta_q": 10.0, "V": 1000.0},
        {},
        "LiquidationSchedule(Q=100.0, delta_q=10.0, V=1000.0)",
        ({"delta_q": 0.0}, "delta_q must be positive and finite, got 0.0"),
    ),
    (
        MonteCarloConfig,
        {"position": POSITION, "params": PARAMS, "schedule": SCHEDULE, "n_trials": 10,
         "master_seed": 7},
        {"bankruptcy_mode": BankruptcyMode.AT_END, "noise_sigma": None},
        "MonteCarloConfig(position=Position(Q=100.0, p0=2.0, L=50.0, E0=None), "
        "params=ImpactParams(Y=1.0, sigma=0.02, V=1000.0, S=None, v=None, b=None, phi=None), "
        "schedule=LiquidationSchedule(Q=100.0, delta_q=10.0, V=1000.0), n_trials=10, "
        "master_seed=7, bankruptcy_mode=<BankruptcyMode.AT_END: 'AT_END'>, noise_sigma=None)",
        ({"n_trials": 0}, "n_trials must be >= 1, got 0"),
    ),
    (
        MonteCarloResult,
        {"p_bankrupt": 0.25, "std_error": 0.1, "n_trials": 20, "negative_price_trials": 0},
        {},
        "MonteCarloResult(p_bankrupt=0.25, std_error=0.1, n_trials=20, negative_price_trials=0)",
        None,
    ),
    (
        PricePath,
        {"prices": (2.0, 1.5), "total_proceeds": 15.0, "negative_steps": 0},
        {},
        "PricePath(prices=(2.0, 1.5), total_proceeds=15.0, negative_steps=0)",
        None,
    ),
    (
        TransitionPoint,
        {"calI": 0.1, "p_bankrupt": 0.5, "std_error": 0.05, "p_bankrupt_noimpact": 0.25},
        {"feasible": True, "n_days": 0, "negative_price_trials": 0},
        "TransitionPoint(calI=0.1, p_bankrupt=0.5, std_error=0.05, p_bankrupt_noimpact=0.25, "
        "feasible=True, n_days=0, negative_price_trials=0)",
        None,
    ),
    (
        FittedTransition,
        {"center": 0.15, "width": 0.05, "slope": 51.2},
        {},
        "FittedTransition(center=0.15, width=0.05, slope=51.2)",
        None,
    ),
]


@pytest.mark.parametrize(
    "cls, given, defaults, text, bad", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_contract(cls, given, defaults, text, bad):
    record = cls(**given)
    fields = {**given, **defaults}
    assert {name: getattr(record, name) for name in fields} == fields
    signature = inspect.signature(cls).parameters
    assert set(signature) == set(fields)
    assert {name: signature[name].default for name in defaults} == defaults
    assert repr(record) == text
    twin = cls(**given)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    if isinstance(record, tuple):  # a named tuple also equals the plain tuple of its fields
        assert record == tuple(fields[name] for name in record._fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(given)))
    assert record == twin
    assert not hasattr(record, "__dict__")  # every record keeps its fields in slots
    with pytest.raises(TypeError):
        weakref.ref(record)
    if bad is not None:
        changes, message = bad
        builds = [lambda: cls(**{**given, **changes})]
        if isinstance(record, tuple):
            builds.append(lambda: record._replace(**changes))
        for build in builds:
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == message


def test_the_contract_covers_every_public_record():
    records = set()
    for module_name in impactval._MODULE_NAMES:
        module = importlib.import_module(f"impactval.{module_name}")
        records |= {
            obj for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and not issubclass(obj, enum.Enum)
        }
    assert records == {case[0] for case in RECORDS}


def test_trajectory_point_fields_are_the_csv_columns():
    assert tuple(inspect.signature(TrajectoryPoint).parameters) == TRAJECTORY_COLUMNS
    match TrajectoryPoint(*range(7)):  # fields match by position, in column order
        case TrajectoryPoint(0, 1, 2, 3, 4, 5, 6):
            pass
        case unmatched:
            pytest.fail(f"{unmatched!r} does not match by position")
