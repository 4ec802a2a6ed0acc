"""Tests for the volume-based and spread-based impact formulas."""

import math
import re
import warnings

import numpy as np
import pytest

from impactval.impact import (
    ImpactParams,
    Validity,
    check_validity,
    expected_impact,
    impact_from_spread,
    volatility_from_spread,
)
from impactval.montecarlo import LiquidationSchedule


def test_expected_impact_zero_size():
    params = ImpactParams(Y=1.0, sigma=0.02, V=1e6)
    assert expected_impact(params, 0.0) == 0.0


def test_expected_impact_large_stock_position():
    # sigma = 2%/day and a position of ten days of volume.
    params = ImpactParams(Y=1.0, sigma=0.02, V=1.25e9)
    impact = expected_impact(params, 12.5e9)
    assert impact == pytest.approx(0.02 * math.sqrt(10.0), rel=1e-12)
    assert impact == pytest.approx(0.063, abs=5e-4)


def test_expected_impact_direct_evaluation():
    params = ImpactParams(Y=0.5, sigma=0.02, V=1000.0)
    # 0.5 * 0.02 * sqrt(250/1000) = 0.005
    assert expected_impact(params, 250.0) == pytest.approx(0.005, rel=1e-12)


def test_expected_impact_rejects_negative_size():
    params = ImpactParams(Y=1.0, sigma=0.02, V=1e6)
    with pytest.raises(ValueError):
        expected_impact(params, -1.0)


@pytest.mark.parametrize(
    "params, q",
    [
        (ImpactParams(Y=1.0, sigma=0.02, V=1e-320), 1e6),
        (ImpactParams(Y=1e300, sigma=1e300, V=1e6), 1e6),
        (ImpactParams(Y=1e300, sigma=1e300, V=1e6), 0.0),  # inf * sqrt(0) is nan
    ],
    ids=["tiny-V", "huge-Y-sigma", "huge-Y-sigma-zero-q"],
)
def test_expected_impact_refuses_an_overflow(params, q):
    with pytest.raises(ValueError, match=f"must be finite, got Q = {q}, V = {params.V}$"):
        expected_impact(params, q)


def test_expected_impact_pure_square_root_law():
    params = ImpactParams(Y=1.3, sigma=0.017, V=3.7e7)
    rng = np.random.default_rng(11)
    for _ in range(50):
        q1, q2 = sorted(rng.uniform(1.0, 1e8, size=2))
        r1 = expected_impact(params, q1) / math.sqrt(q1)
        r2 = expected_impact(params, q2) / math.sqrt(q2)
        assert r1 == pytest.approx(r2, rel=1e-12)
        assert expected_impact(params, q1) <= expected_impact(params, q2)


def test_expected_impact_scale_consistency():
    rng = np.random.default_rng(12)
    for _ in range(25):
        q, v_daily, k = rng.uniform(1.0, 1e6, size=3)
        base = expected_impact(ImpactParams(Y=1.0, sigma=0.02, V=v_daily), q)
        scaled = expected_impact(ImpactParams(Y=1.0, sigma=0.02, V=k * v_daily), k * q)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_impact_from_spread_bond_futures():
    # N = Q/v = 140e9 / 40e6 = 3500 child trades.
    impact = impact_from_spread(Y=1.0, b=0.79, S=1.5e-4, N=3500.0)
    assert impact == pytest.approx(0.0070, abs=2e-4)


def test_impact_from_spread_empty_position():
    assert impact_from_spread(Y=1.0, b=0.7, S=1e-3, N=0.0) == 0.0


def test_impact_from_spread_direct_evaluation():
    assert impact_from_spread(Y=1.0, b=0.6, S=0.01, N=100.0) == pytest.approx(0.06, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"Y": 0.0, "b": 0.7, "S": 0.01, "N": 1.0},
    {"Y": 1.0, "b": -0.7, "S": 0.01, "N": 1.0},
    {"Y": 1.0, "b": 0.7, "S": 0.0, "N": 1.0},
    {"Y": 1.0, "b": 0.7, "S": 0.01, "N": -1.0},
])
def test_impact_from_spread_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        impact_from_spread(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"Y": 1.0, "b": 0.7, "S": 1.0, "N": math.inf},
        {"Y": 1e300, "b": 0.7, "S": 1e10, "N": 4.0},
        {"Y": 1.0, "b": 0.7, "S": 0.01, "N": math.nan},
    ],
    ids=["infinite-N", "product-overflows", "nan-N"],
)
def test_impact_from_spread_refuses_a_non_finite_result(kwargs):
    message = "impact I must be finite, got Y = {Y}, b = {b}, S = {S}, N = {N}".format(**kwargs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        impact_from_spread(**kwargs)


def test_volatility_from_spread_direct():
    assert volatility_from_spread(b=0.75, S=2e-4, phi=10000.0, T=1.0) == pytest.approx(0.015)
    assert volatility_from_spread(b=1.0, S=0.01, phi=1.0, T=4.0) == pytest.approx(0.02)


def test_volatility_from_spread_zero_horizon():
    assert volatility_from_spread(b=0.75, S=2e-4, phi=10000.0, T=0.0) == 0.0


def test_volatility_from_spread_rejects_bad_inputs():
    with pytest.raises(ValueError):
        volatility_from_spread(b=0.0, S=2e-4, phi=1.0, T=1.0)
    with pytest.raises(ValueError):
        volatility_from_spread(b=0.75, S=2e-4, phi=1.0, T=-1.0)


def test_cross_formula_consistency():
    # With V = v*phi*T and N = Q/v the two impact formulas coincide and the
    # liquidation horizon T drops out.
    rng = np.random.default_rng(13)
    for _ in range(30):
        Y = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.6, 0.9)
        S = rng.uniform(1e-4, 1e-2)
        phi = rng.uniform(100.0, 1e5)
        T = rng.uniform(0.5, 20.0)
        v = rng.uniform(100.0, 1e6)
        Q = rng.uniform(1.0, 1e8)
        V = v * phi * T
        via_spread = impact_from_spread(Y, b, S, Q / v)
        via_vol = Y * volatility_from_spread(b, S, phi, T) * math.sqrt(Q / V)
        assert via_spread == pytest.approx(via_vol, rel=1e-12)


def test_check_validity_inside_bounds():
    params = ImpactParams(Y=1.0, sigma=0.02, V=1e6)
    schedule = LiquidationSchedule(Q=9e6, delta_q=1e5, V=1e6)
    report = check_validity(params, 9e6, schedule)
    assert report.ok
    assert report.impact == pytest.approx(0.06)
    assert report.participation == pytest.approx(0.1)


def test_check_validity_flags_large_impact():
    params = ImpactParams(Y=1.0, sigma=0.25, V=1e6)
    report = check_validity(params, 1e6)
    assert report.impact == pytest.approx(0.25)
    assert Validity.WARN_LARGE_IMPACT in report.flags
    assert not report.ok


def test_check_validity_flags_large_participation():
    params = ImpactParams(Y=1.0, sigma=0.001, V=1e6)
    schedule = LiquidationSchedule(Q=1e6, delta_q=5e5, V=1e6)
    report = check_validity(params, 1e6, schedule)
    assert report.participation == pytest.approx(0.5)
    assert Validity.WARN_LARGE_PARTICIPATION in report.flags


def test_check_validity_never_blocks():
    # Even absurd inputs come back as a report, not an exception.
    params = ImpactParams(Y=2.0, sigma=0.5, V=1.0)
    report = check_validity(params, 1e6)
    assert report.impact > 1.0


def test_params_validation():
    with pytest.raises(ValueError, match=r"^Y must be non-negative, got -1\.0$"):
        ImpactParams(Y=-1.0, sigma=0.02, V=1e6)
    with pytest.raises(ValueError, match=r"^sigma must be non-negative, got -0\.02$"):
        ImpactParams(Y=1.0, sigma=-0.02, V=1e6)
    with pytest.raises(ValueError, match=r"^V must be positive, got 0\.0$"):
        ImpactParams(Y=1.0, sigma=0.02, V=0.0)
    with pytest.raises(ValueError, match=r"^S must be positive when given, got -0\.0001$"):
        ImpactParams(Y=1.0, sigma=0.02, V=1e6, S=-1e-4)
    with pytest.raises(ValueError, match=r"^phi must be positive when given, got 0\.0$"):
        ImpactParams(Y=1.0, sigma=0.02, V=1e6, phi=0.0)


@pytest.mark.parametrize("field", ["Y", "sigma", "V", "S", "v", "b", "phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    kwargs = {"Y": 1.0, "sigma": 0.02, "V": 1e6, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ImpactParams(**kwargs)


def test_params_unusual_b_warns_but_constructs():
    with pytest.warns(UserWarning):
        params = ImpactParams(Y=1.0, sigma=0.02, V=1e6, b=0.3)
    assert params.b == 0.3


@pytest.mark.parametrize(
    "build",
    [
        lambda: ImpactParams(1.0, 0.02, 1e6, b=0.5),
        lambda: ImpactParams._make([1.0, 0.02, 1e6, None, None, 0.5, None]),
        lambda: ImpactParams(1.0, 0.02, 1e6)._replace(b=0.5),
    ],
    ids=["constructor", "make", "replace"],
)
def test_params_warning_names_the_callers_line(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build()
    (w,) = caught
    assert str(w.message) == "b=0.5 lies outside the typical range (0.6, 0.9)"
    assert w.filename == __file__
    assert w.lineno == build.__code__.co_firstlineno


def test_params_warning_from_code_without_a_module_name():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec("ImpactParams(1.0, 0.02, 1e6, b=0.5)", {"ImpactParams": ImpactParams})
    (w,) = caught
    assert str(w.message) == "b=0.5 lies outside the typical range (0.6, 0.9)"
    assert w.filename == "<string>"


def test_params_warning_from_a_config_names_the_callers_line(tmp_path):
    text = "Y=1\nsigma=0.02\nV=1e6\nb=0.5\n"
    path = tmp_path / "params.ini"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ImpactParams.from_config_text(text)
        ImpactParams.load(path)
    assert [w.filename for w in caught] == [__file__, __file__]
    assert caught[1].lineno == caught[0].lineno + 1


def test_params_config_round_trip(tmp_path):
    params = ImpactParams(Y=1.0, sigma=0.0213, V=1.25e9, S=3.7e-4, v=1e6, b=0.774)
    path = tmp_path / "params.ini"
    params.save(path)
    assert ImpactParams.load(path) == params


def test_params_config_text_parsing_errors():
    with pytest.raises(ValueError, match="line 1"):
        ImpactParams.from_config_text("not a config\n")
    with pytest.raises(ValueError, match="unknown key"):
        ImpactParams.from_config_text("Y = 1\nsigma = 0.02\nV = 1e6\nbogus = 3\n")
    with pytest.raises(ValueError, match="bad number"):
        ImpactParams.from_config_text("Y = 1\nsigma = oops\nV = 1e6\n")
    with pytest.raises(ValueError, match="missing required"):
        ImpactParams.from_config_text("Y = 1\nsigma = 0.02\n")


def test_params_config_ignores_comments_and_blanks():
    text = "# asset parameters\nY = 1.0\n\nsigma = 0.02  # daily\nV = 1e6\n"
    params = ImpactParams.from_config_text(text)
    assert params.sigma == 0.02
    assert params.V == 1e6

