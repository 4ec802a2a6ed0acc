"""Tests for discrete and continuous liquidation values."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from impactval.impact import ImpactParams, expected_impact
from impactval.leverage import cash_raised
from impactval.valuation import (
    Position,
    average_valuation_price,
    liquidation_value,
    liquidation_value_discrete,
    remaining_liquidation_value,
)


def params_with_impact(Q: float, calI: float, Y: float = 1.0) -> ImpactParams:
    """Build parameters so that the full-position impact I(Q) equals calI."""
    V = Q
    sigma = calI / Y
    return ImpactParams(Y=Y, sigma=sigma, V=V)


def test_position_validation():
    with pytest.raises(ValueError, match=r"^Q must be non-negative, got -1\.0$"):
        Position(Q=-1.0, p0=1.0)
    with pytest.raises(ValueError, match=r"^p0 must be positive, got 0\.0$"):
        Position(Q=1.0, p0=0.0)
    with pytest.raises(ValueError, match=r"^L must be non-negative, got -1\.0$"):
        Position(Q=1.0, p0=1.0, L=-1.0)
    with pytest.raises(ValueError, match=r"^Q \* p0 must be finite, got 1e\+308 \* 10\.0$"):
        Position(Q=1e308, p0=10.0)


@pytest.mark.parametrize("field", ["Q", "p0", "L", "E0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_position_rejects_non_finite(field, value):
    kwargs = {"Q": 1.0, "p0": 1.0, "L": 0.0, "E0": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Position(**kwargs)


def test_position_equity_and_value():
    pos = Position(Q=100.0, p0=2.0, L=150.0)
    assert pos.mtm_value == 200.0
    assert pos.equity == 50.0
    # Explicit E0 overrides the mark-to-market equity.
    assert Position(Q=100.0, p0=2.0, L=150.0, E0=30.0).equity == 30.0


def test_discrete_no_impact_is_mark_to_market():
    pos = Position(Q=1e4, p0=100.0)
    params = ImpactParams(Y=1.0, sigma=0.0, V=1e4)
    for n in (1, 7, 1000):
        assert liquidation_value_discrete(pos, params, n) == pytest.approx(1e6, rel=1e-15)


def test_discrete_single_block_full_impact():
    pos = Position(Q=1e4, p0=100.0)
    params = params_with_impact(1e4, 0.09)
    assert liquidation_value_discrete(pos, params, 1) == pytest.approx(1e6 * 0.91, rel=1e-12)


def test_discrete_converges_to_continuous():
    pos = Position(Q=1e4, p0=100.0)
    params = params_with_impact(1e4, 0.09)
    # Continuous limit: 1e6 * (1 - (2/3)*0.09) = 940,000.
    value = liquidation_value_discrete(pos, params, 10**6)
    assert value == pytest.approx(940_000.0, rel=1e-4)


def test_discrete_brute_force_oracle():
    # Independent brute-force sum without the factored form.
    pos = Position(Q=500.0, p0=7.0, L=0.0)
    params = ImpactParams(Y=1.2, sigma=0.03, V=2000.0)
    n = 1000
    total = 0.0
    for t in range(1, n + 1):
        total += (pos.Q / n) * pos.p0 * (1.0 - expected_impact(params, t * pos.Q / n))
    assert liquidation_value_discrete(pos, params, n) == pytest.approx(total, rel=1e-12)


def test_discrete_rejects_zero_increments():
    pos = Position(Q=1.0, p0=1.0)
    params = ImpactParams(Y=1.0, sigma=0.02, V=1.0)
    with pytest.raises(ValueError):
        liquidation_value_discrete(pos, params, 0)


def test_discrete_empty_position():
    params = ImpactParams(Y=1.0, sigma=0.02, V=1.0)
    assert liquidation_value_discrete(Position(Q=0.0, p0=1.0), params, 10) == 0.0


def numpy_liquidation_value_discrete(pos, params, n_increments):
    """The array formulation of :func:`liquidation_value_discrete`: sum of sqrt(t/N)."""
    cal_i = expected_impact(params, pos.Q)
    t = np.arange(1, n_increments + 1, dtype=np.float64)
    mean_impact = cal_i * float(np.sqrt(t / n_increments).sum()) / n_increments
    return pos.p0 * pos.Q * (1.0 - mean_impact)


@pytest.mark.parametrize("n", [1, 2, 10, 10**4, 10**6])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(Q=st.floats(1e-3, 1e12), p0=st.floats(1e-3, 1e5), cal_i=st.floats(0.0, 0.9))
def test_discrete_matches_array_formula(n, Q, p0, cal_i):
    # fsum of sqrt(t) / (N sqrt(N)) against a pairwise sum of sqrt(t/N): the
    # last bits may differ, and 1 - mean impact >= 0.1 keeps that relative.
    pos = Position(Q=Q, p0=p0)
    params = params_with_impact(Q, cal_i)
    assert liquidation_value_discrete(pos, params, n) == pytest.approx(
        numpy_liquidation_value_discrete(pos, params, n), rel=1e-12
    )


def test_discrete_gap_monotone_in_increments():
    pos = Position(Q=1e4, p0=100.0)
    for cal_i in (0.05, 0.2, 0.5):
        params = params_with_impact(1e4, cal_i)
        exact = liquidation_value(pos, params)
        gaps = [
            abs(liquidation_value_discrete(pos, params, n) - exact) / exact
            for n in (10**2, 10**4, 10**6)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


def test_continuous_value_no_impact():
    pos = Position(Q=1e4, p0=100.0)
    params = ImpactParams(Y=1.0, sigma=0.0, V=1e4)
    assert liquidation_value(pos, params) == 1e6


def test_continuous_value_ten_days_of_volume():
    # p0*Q = 1e9, sigma = 2%, Q = 10 V: value = 1e9 * (1 - (2/3)*0.02*sqrt(10)).
    pos = Position(Q=1e7, p0=100.0)
    params = ImpactParams(Y=1.0, sigma=0.02, V=1e6)
    expected = 1e9 * (1.0 - (2.0 / 3.0) * 0.02 * math.sqrt(10.0))
    got = liquidation_value(pos, params)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(9.578e8, rel=1e-3)


def test_continuous_value_extrapolates_negative():
    # Past I(Q) = 1.5 the formula value goes negative and is returned as-is.
    pos = Position(Q=1e4, p0=100.0)
    assert liquidation_value(pos, params_with_impact(1e4, 1.5)) == pytest.approx(0.0, abs=1e-6)
    assert liquidation_value(pos, params_with_impact(1e4, 1.6)) < 0.0


def test_average_valuation_price():
    pos = Position(Q=1e4, p0=100.0)
    assert average_valuation_price(pos, params_with_impact(1e4, 0.06)) == pytest.approx(96.0)
    pos50 = Position(Q=1e4, p0=50.0)
    assert average_valuation_price(pos50, params_with_impact(1e4, 0.15)) == pytest.approx(45.0)


def test_average_valuation_price_no_impact():
    pos = Position(Q=1e4, p0=100.0)
    params = ImpactParams(Y=1.0, sigma=0.0, V=1e4)
    assert average_valuation_price(pos, params) == 100.0


def test_average_valuation_price_equals_value_per_share():
    pos = Position(Q=3.3e5, p0=17.0)
    params = ImpactParams(Y=1.0, sigma=0.025, V=1e5)
    assert average_valuation_price(pos, params) == pytest.approx(
        liquidation_value(pos, params) / pos.Q, rel=1e-12
    )


def test_average_valuation_price_empty_position():
    params = ImpactParams(Y=1.0, sigma=0.02, V=1.0)
    with pytest.raises(ValueError):
        average_valuation_price(Position(Q=0.0, p0=1.0), params)


def test_remaining_value_endpoints():
    pos = Position(Q=100.0, p0=1.0)
    params = ImpactParams(Y=1.0, sigma=0.1, V=100.0)
    assert remaining_liquidation_value(pos, params, 0.0) == pytest.approx(
        liquidation_value(pos, params), rel=1e-12
    )
    assert remaining_liquidation_value(pos, params, 100.0) == pytest.approx(0.0, abs=1e-12)


def test_remaining_value_quadrature_oracle():
    pos = Position(Q=100.0, p0=1.0)
    params = ImpactParams(Y=1.0, sigma=0.1, V=100.0)

    def integrand(u):
        return pos.p0 * (1.0 - expected_impact(params, u))

    oracle, _ = quad(integrand, 50.0, 100.0, epsabs=1e-12, epsrel=1e-12)
    assert remaining_liquidation_value(pos, params, 50.0) == pytest.approx(oracle, rel=1e-10)


def test_remaining_value_rejects_out_of_range():
    pos = Position(Q=100.0, p0=1.0)
    params = ImpactParams(Y=1.0, sigma=0.1, V=100.0)
    with pytest.raises(ValueError):
        remaining_liquidation_value(pos, params, -1.0)
    with pytest.raises(ValueError):
        remaining_liquidation_value(pos, params, 101.0)


def test_remaining_value_additivity_with_cash_raised():
    pos = Position(Q=5e5, p0=40.0)
    params = ImpactParams(Y=1.0, sigma=0.03, V=2e5)
    rng = np.random.default_rng(21)
    full = remaining_liquidation_value(pos, params, 0.0)
    for sold in rng.uniform(0.0, pos.Q, size=40):
        lhs = full - remaining_liquidation_value(pos, params, sold)
        assert lhs == pytest.approx(cash_raised(pos, params, sold), rel=1e-10, abs=1e-6)


@pytest.mark.parametrize(
    "value, pos, params, what",
    [
        (liquidation_value, Position(Q=1e300, p0=1e7), ImpactParams(Y=1.0, sigma=1e10, V=1.0),
         "liquidation value"),
        (lambda pos, params: liquidation_value_discrete(pos, params, 3),
         Position(Q=1e300, p0=1e7), ImpactParams(Y=1.0, sigma=1e10, V=1.0), "liquidation value"),
        # Q * p0 and p0 * Q * (1 - (2/3) * I(Q)) are finite; p0 * (1 - (2/3) * I(Q)) is not.
        (average_valuation_price, Position(Q=1e-300, p0=1e300),
         ImpactParams(Y=1.0, sigma=1e300, V=1e-300), "average valuation price"),
    ],
    ids=["continuous", "discrete", "average-price"],
)
def test_values_that_overflow_are_refused(value, pos, params, what):
    # Finite inputs and a finite impact, but the value overflows to -inf.
    cal_i = expected_impact(params, pos.Q)
    assert math.isfinite(cal_i)
    message = f"{what} must be finite, got p0 = {pos.p0}, Q = {pos.Q}, I(Q) = {cal_i}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        value(pos, params)


def test_value_subadditive_in_size():
    params = ImpactParams(Y=1.0, sigma=0.02, V=1e6)
    small = liquidation_value(Position(Q=1e6, p0=10.0), params)
    big = liquidation_value(Position(Q=2e6, p0=10.0), params)
    assert big < 2.0 * small
