"""Tests for slow-moving parameter estimation from market series."""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impactval.estimation import (
    EstimationPolicy,
    MarketSeries,
    ema,
    estimate_params,
    load_series,
)
from impactval.impact import expected_impact


def trading_days(n: int, start=date(2024, 1, 1)):
    return [start + timedelta(days=i) for i in range(n)]


def make_series(close, volume=None, **kwargs):
    close = np.asarray(close, dtype=float)
    if volume is None:
        volume = np.full(close.size, 1e6)
    return MarketSeries(
        dates=trading_days(close.size), close=close, volume=np.asarray(volume, float), **kwargs
    )


def test_ema_of_constant():
    assert ema([3.7] * 50, halflife_days=10) == pytest.approx(3.7, rel=1e-15)


def test_ema_long_halflife_is_arithmetic_mean():
    values = np.arange(1.0, 101.0)
    assert ema(values, halflife_days=1e12) == pytest.approx(values.mean(), abs=1e-9)


def test_ema_latest_weight_explicit_arithmetic():
    # 19 zeros then a one, halflife 1: weight of the latest value is
    # 1 / sum_{k=0..19} 2^-k = 1 / (2 - 2^-19).
    values = [0.0] * 19 + [1.0]
    oracle = 1.0 / sum(2.0 ** (-k) for k in range(20))
    assert ema(values, halflife_days=1) == pytest.approx(oracle, rel=1e-12)
    assert ema(values, halflife_days=1) == pytest.approx(0.5, abs=1e-5)


def test_ema_rejects_empty():
    with pytest.raises(ValueError):
        ema([], halflife_days=10)


@pytest.mark.parametrize("halflife", [0, -1.0, math.nan, math.inf])
def test_ema_rejects_halflife_not_finite_and_positive(halflife):
    with pytest.raises(ValueError, match="halflife_days must be finite and positive"):
        ema([1.0, 2.0], halflife)


def test_policy_validation():
    with pytest.raises(ValueError, match=r"^window_days must be >= 1, got 0$"):
        EstimationPolicy(window_days=0)
    with pytest.raises(ValueError, match=r"^exclusion_days must lie in \[0, window_days\), got 10$"):
        EstimationPolicy(window_days=10, exclusion_days=10)
    with pytest.raises(ValueError, match=r"^halflife_days must be positive, got 0$"):
        EstimationPolicy(halflife_days=0)


def test_constant_series_gives_zero_volatility():
    series = make_series([100.0] * 200, [5e5] * 200)
    params = estimate_params(series, EstimationPolicy(), Y=1.0)
    assert params.sigma == 0.0
    assert params.V == pytest.approx(5e5, rel=1e-12)
    assert params.S is None and params.v is None


def test_alternating_returns_recover_r_exactly():
    r = 0.013
    close = [100.0]
    for i in range(220):
        close.append(close[-1] * (1.0 + r if i % 2 == 0 else 1.0 - r))
    params = estimate_params(make_series(close), EstimationPolicy(), Y=1.0)
    assert params.sigma == pytest.approx(r, rel=1e-12)


def test_gaussian_series_recovers_sigma():
    # Wide window and long halflife keep the sampling error well under 3%.
    rng = np.random.default_rng(404)
    sigma_true = 0.02
    returns = rng.normal(0.0, sigma_true, size=9999)
    close = 100.0 * np.cumprod(1.0 + returns)
    policy = EstimationPolicy(window_days=9000, exclusion_days=5, halflife_days=4500)
    params = estimate_params(make_series(close), policy, Y=1.0)
    assert abs(params.sigma - sigma_true) / sigma_true < 0.03
    # Cross-check against the plain sample standard deviation oracle.
    sample_std = float(np.sqrt(np.mean(np.square(returns))))
    assert abs(params.sigma - sample_std) / sample_std < 0.03


def test_estimates_spread_and_quote_volume_when_present():
    n = 200
    series = make_series(
        [50.0] * n,
        [2e6] * n,
        spread=np.full(n, 3e-4),
        best_quote_volume=np.full(n, 1e4),
    )
    params = estimate_params(series, EstimationPolicy(), Y=1.0)
    assert params.S == pytest.approx(3e-4, rel=1e-12)
    assert params.v == pytest.approx(1e4, rel=1e-12)


def test_short_history_error_names_required_length():
    series = make_series([100.0] * 100)
    with pytest.raises(ValueError, match="131"):
        estimate_params(series, EstimationPolicy(), Y=1.0)


def test_excluded_days_cannot_move_estimates():
    rng = np.random.default_rng(55)
    close = 100.0 * np.cumprod(1.0 + rng.normal(0.0, 0.02, size=200))
    volume = rng.uniform(1e5, 1e6, size=200)
    baseline = estimate_params(make_series(close, volume), EstimationPolicy(), Y=1.0)

    shocked_close = close.copy()
    shocked_volume = volume.copy()
    shocked_close[-5:] *= 0.5  # crash confined to the excluded week
    shocked_volume[-5:] *= 10.0
    shocked = estimate_params(make_series(shocked_close, shocked_volume), EstimationPolicy(), Y=1.0)
    assert shocked.sigma == baseline.sigma
    assert shocked.V == baseline.V


def test_unit_sanity_with_expected_impact():
    series = make_series([100.0] * 200, [4e6] * 200)
    params = estimate_params(series, EstimationPolicy(), Y=1.0)
    # Constant series: sigma = 0, so impact is exactly zero at any size.
    assert expected_impact(params, 4e7) == 0.0
    assert params.V == pytest.approx(4e6, rel=1e-12)


def test_series_validation():
    with pytest.raises(ValueError, match="^dates must be strictly increasing; violation at row 2$"):
        MarketSeries(
            dates=[date(2024, 1, 2), date(2024, 1, 1)],
            close=np.array([1.0, 2.0]),
            volume=np.array([1.0, 1.0]),
        )
    with pytest.raises(ValueError, match="^non-positive close at row 2$"):
        make_series([100.0, -3.0, 100.0])
    with pytest.raises(ValueError, match="^column 'volume' has length 2, expected 3$"):
        MarketSeries(
            dates=trading_days(3),
            close=np.array([1.0, 2.0, 3.0]),
            volume=np.array([1.0, 1.0]),
        )


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("column", ["close", "volume", "spread", "best_quote_volume"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_rejects_non_finite_values(as_array, column, bad):
    columns = {name: [1.0, 2.0, 3.0] for name in ("close", "volume", "spread", "best_quote_volume")}
    columns[column][1] = bad
    if as_array:
        columns = {name: np.array(values) for name, values in columns.items()}
    with pytest.raises(ValueError, match=f"^non-finite {column} at row 2$"):
        MarketSeries(dates=trading_days(3), **columns)


def test_series_reports_the_first_bad_value():
    # The nan close at row 2 is reported, not the inf volume at row 3.
    with pytest.raises(ValueError, match="^non-finite close at row 2$"):
        MarketSeries(trading_days(3), close=[1.0, math.nan, 2.0], volume=[1.0, 1.0, math.inf])
    with pytest.raises(ValueError, match="^non-positive volume at row 3$"):
        MarketSeries(trading_days(3), close=[1.0, 2.0, 3.0], volume=[1.0, 1.0, 0.0])


def write_csv(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_series_well_formed(tmp_path):
    path = write_csv(
        tmp_path,
        "date,close,volume\n"
        "2024-01-01,100.0,1e6\n"
        "2024-01-02,101.5,1.1e6\n"
        "2024-01-03,100.9,9e5\n",
    )
    series = load_series(path)
    assert len(series) == 3
    assert series.close[1] == 101.5
    assert series.spread is None and series.best_quote_volume is None


def test_load_series_with_optional_columns(tmp_path):
    path = write_csv(
        tmp_path,
        "date,close,volume,spread,best_quote_volume\n"
        "2024-01-01,100.0,1e6,0.0003,1e4\n"
        "2024-01-02,101.0,1e6,0.0004,1.2e4\n",
    )
    series = load_series(path)
    assert series.spread is not None
    assert series.best_quote_volume[1] == pytest.approx(1.2e4)


def test_load_series_descending_dates(tmp_path):
    path = write_csv(
        tmp_path,
        "date,close,volume\n2024-01-05,100.0,1e6\n2024-01-04,101.0,1e6\n",
    )
    with pytest.raises(ValueError, match="row 2"):
        load_series(path)


def test_load_series_missing_columns(tmp_path):
    path = write_csv(tmp_path, "date,close\n2024-01-01,100.0\n")
    with pytest.raises(ValueError, match="volume"):
        load_series(path)


def test_load_series_bad_cells(tmp_path):
    path = write_csv(
        tmp_path, "date,close,volume\n2024-01-01,100.0,1e6\nnot-a-date,101.0,1e6\n"
    )
    with pytest.raises(ValueError, match="row 2"):
        load_series(path)
    path2 = write_csv(
        tmp_path, "date,close,volume\n2024-01-01,abc,1e6\n", name="bad2.csv"
    )
    with pytest.raises(ValueError, match="row 1"):
        load_series(path2)


@pytest.mark.parametrize(
    "header, row, col, cell",
    [
        ("date,close,volume", "nan,1e6", "close", "nan"),
        ("date,close,volume", "101.0,inf", "volume", "inf"),
        ("date,close,volume,spread", "101.0,1e6,-inf", "spread", "-inf"),
        ("date,close,volume,spread,best_quote_volume", "101.0,1e6,0.0003,NaN",
         "best_quote_volume", "NaN"),
    ],
    ids=["close-nan", "volume-inf", "spread-minus-inf", "quote-volume-nan"],
)
def test_load_series_non_finite_cells_name_the_row(tmp_path, header, row, col, cell):
    n_extra = header.count(",") - 2
    first = "2024-01-01,100.0,1e6" + ",1e4" * n_extra
    path = write_csv(tmp_path, f"{header}\n{first}\n2024-01-02,{row}\n")
    with pytest.raises(ValueError, match=f"row 2: non-finite {col} value '{cell}'"):
        load_series(path)


def test_load_series_empty_file(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(ValueError, match="header"):
        load_series(path)


def test_load_series_reads_rows_as_dict_reader_did(tmp_path):
    # Blank lines are skipped and not counted, a repeated column reads its
    # last copy, extra cells are ignored and cells are stripped by float().
    path = write_csv(
        tmp_path,
        "volume,date,close,close\n\n"
        "1e6, 2024-01-01 ,1.0,100.0,extra\n\n"
        "2e6,2024-01-02,2.0,101.0\n",
    )
    series = load_series(path)
    assert series.close == (100.0, 101.0) and series.volume == (1e6, 2e6)
    path = write_csv(tmp_path, "date,close,volume\n\n2024-01-01,100.0,1e6\n\n2024-01-02,1,x\n")
    with pytest.raises(ValueError, match="row 2: non-numeric volume value 'x'"):
        load_series(path)


def test_series_stores_its_columns_as_tuples_that_compare_and_hash(tmp_path):
    close, volume = [1.0, 2.0], [5.0, 6.0]
    twins = [MarketSeries(trading_days(2), np.array(close), np.array(volume)) for _ in range(2)]
    assert twins[0] == twins[1] and hash(twins[0]) == hash(twins[1])
    series = MarketSeries(trading_days(2), close, volume)
    close[1] = -1.0  # the caller's list changes after the checks
    assert series.close == (1.0, 2.0) and series == twins[0]
    path = write_csv(tmp_path, "date,close,volume\n2024-01-01,1.0,5.0\n2024-01-02,2.0,6.0\n")
    assert hash(load_series(path)) == hash(series)


@pytest.mark.parametrize(
    "text, message",
    [
        ("date,close,volume\n2024-01-01,100.0\n", "row 1: non-numeric volume value None"),
        ("close,volume,date\n100.0,1e6\n", "row 1: bad date None"),
        ("\ufeffclose,volume,date\n100.0,1e6\n", "row 1: bad date None"),
    ],
    ids=["volume", "date", "date-after-a-byte-order-mark"],
)
def test_load_series_short_row_names_the_missing_cell(tmp_path, text, message):
    with pytest.raises(ValueError, match=message):
        load_series(write_csv(tmp_path, text))


def numpy_ema(values, halflife_days):
    """The array formulation of :func:`ema`: exp2 weights, a dot product and a sum."""
    values = np.asarray(values, dtype=np.float64)
    lags = np.arange(values.size - 1, -1, -1, dtype=np.float64)
    weights = np.exp2(-lags / halflife_days)
    return float(np.dot(weights, values) / weights.sum())


def numpy_estimate(close, volume, spread, policy):
    """The array formulation of :func:`estimate_params`: (sigma, V, S)."""
    cut = len(close) - policy.exclusion_days
    window, halflife = policy.window_days, policy.halflife_days
    close = np.asarray(close[:cut], dtype=np.float64)
    returns = close[1:] / close[:-1] - 1.0
    sigma = math.sqrt(numpy_ema(np.square(returns[-window:]), halflife))
    return (
        sigma,
        numpy_ema(np.asarray(volume[:cut])[-window:], halflife),
        numpy_ema(np.asarray(spread[:cut])[-window:], halflife),
    )


# The rewrite sums in another order (exactly rounded fsum against a dot
# product), so its results may differ from the array formulas in the last bits.
EQUIVALENCE = 1e-12
positive = st.floats(1e-6, 1e9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(positive, min_size=1, max_size=400), halflife=st.floats(0.1, 1e4))
def test_ema_matches_array_formula(values, halflife):
    assert ema(values, halflife) == pytest.approx(numpy_ema(values, halflife), rel=EQUIVALENCE)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    window=st.integers(1, 150),
    exclusion_share=st.floats(0.0, 1.0, exclude_max=True),
    halflife=st.integers(1, 200),
    extra=st.integers(0, 30),
    data=st.data(),
)
def test_estimate_params_matches_array_formula(window, exclusion_share, halflife, extra, data):
    assume(window + extra >= 2)  # one close gives no return, and both formulas raise
    policy = EstimationPolicy(window, int(exclusion_share * window), halflife)
    n = window + policy.exclusion_days + extra
    column = st.lists(st.floats(0.5, 2e3), min_size=n, max_size=n)
    close, volume, spread = data.draw(column), data.draw(column), data.draw(column)
    expected = numpy_estimate(close, volume, spread, policy)
    for kind in (list, np.array):
        series = MarketSeries(
            dates=trading_days(n), close=kind(close), volume=kind(volume), spread=kind(spread)
        )
        params = estimate_params(series, policy, Y=1.0)
        assert (params.sigma, params.V, params.S) == pytest.approx(expected, rel=EQUIVALENCE)
