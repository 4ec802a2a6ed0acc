"""Tests for leverage trajectories and the critical-leverage analysis."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impactval.impact import ImpactParams
from impactval.leverage import (
    CRITICAL_PRODUCT,
    DIVERGED,
    TRAJECTORY_COLUMNS,
    Regime,
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
from impactval.valuation import Position, liquidation_value


def params_with_impact(Q: float, calI: float) -> ImpactParams:
    return ImpactParams(Y=1.0, sigma=calI, V=Q)


def leveraged_position(lambda0: float, calI: float, Q: float = 1e6, p0: float = 10.0):
    """A fully entered position with the requested leverage and total impact."""
    pos = Position(Q=Q, p0=p0, L=Q * p0 * (1.0 - 1.0 / lambda0))
    return pos, params_with_impact(Q, calI)


def test_mtm_leverage_basic():
    assert mtm_leverage(9.0, 1.0, 8.0) == pytest.approx(9.0)
    assert mtm_leverage(123.0, 4.0, 0.0) == 1.0
    assert mtm_leverage(10.0, 1.0, 10.0) == DIVERGED
    assert mtm_leverage(10.0, 1.0, 12.0) == DIVERGED


def test_cash_raised_endpoints():
    pos, params = leveraged_position(9.0, 0.15)
    assert cash_raised(pos, params, 0.0) == 0.0
    assert cash_raised(pos, params, pos.Q) == pytest.approx(
        liquidation_value(pos, params), rel=1e-12
    )


def test_cash_raised_quarter_position():
    # calI = 0.15, q = Q/4, p0*Q = 1: cash = 0.25 * (1 - 0.1 * 0.5) = 0.2375.
    pos = Position(Q=1.0, p0=1.0)
    params = params_with_impact(1.0, 0.15)
    assert cash_raised(pos, params, 0.25) == pytest.approx(0.2375, rel=1e-12)


def test_cash_raised_quadrature_oracle():
    from scipy.integrate import quad

    from impactval.impact import expected_impact

    pos = Position(Q=3e5, p0=25.0)
    params = ImpactParams(Y=1.0, sigma=0.04, V=1e5)
    for q_sold in (1e4, 1.5e5, 3e5):
        oracle, _ = quad(
            lambda u: pos.p0 * (1.0 - expected_impact(params, u)),
            0.0, q_sold, epsabs=1e-10, epsrel=1e-12,
        )
        assert cash_raised(pos, params, q_sold) == pytest.approx(oracle, rel=1e-10)


def test_cash_raised_rejects_out_of_range():
    pos, params = leveraged_position(9.0, 0.15)
    with pytest.raises(ValueError):
        cash_raised(pos, params, -1.0)
    with pytest.raises(ValueError):
        cash_raised(pos, params, pos.Q * 1.01)


def test_deleverage_no_impact_is_linear():
    for x in np.linspace(0.0, 1.0, 21):
        assert deleverage_lambda(9.0, 0.0, float(x)) == pytest.approx(9.0 * (1.0 - x))


def test_deleverage_quarter_point_value():
    # 9 * 0.75 * 0.925 / (1 - 1.35 * 0.5 * (1 - 1/12)) = 16.37704918...
    got = deleverage_lambda(9.0, 0.15, 0.25)
    expected = 9.0 * 0.75 * 0.925 / (1.0 - 9.0 * 0.15 * 0.5 * (1.0 - 0.25 / 3.0))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(16.377, abs=1e-3)


def test_deleverage_peak_doubles_subcritical():
    points = deleverage_trajectory(9.0, 0.15, np.linspace(0.0, 1.0, 4001))
    peak = max(pt.lambda_mtm for pt in points)
    assert peak > 18.0
    assert math.isfinite(peak)
    assert points[-1].lambda_mtm == pytest.approx(0.0, abs=1e-12)


def test_deleverage_supercritical_diverges_before_completion():
    points = deleverage_trajectory(9.0, 0.19, np.linspace(0.0, 1.0, 2001))
    diverged = [pt.x for pt in points if pt.lambda_mtm == DIVERGED]
    assert diverged
    assert min(diverged) < 1.0


def test_deleverage_trajectory_point_fields():
    points = deleverage_trajectory(9.0, 0.15, [0.0, 0.25, 1.0])
    first, mid, last = points
    assert first.lambda_mtm == pytest.approx(9.0)
    assert first.marginal_price == 1.0
    assert mid.q_held == pytest.approx(0.75)
    assert mid.marginal_price == pytest.approx(1.0 - 0.15 * 0.5)
    assert mid.cash == pytest.approx(0.2375)
    assert mid.lambda_noimpact == pytest.approx(9.0 * 0.75)
    assert last.cash == pytest.approx(1.0 - 0.1)


def test_deleverage_trajectory_validation():
    with pytest.raises(ValueError):
        deleverage_trajectory(0.5, 0.1, [0.0])
    with pytest.raises(ValueError):
        deleverage_trajectory(9.0, -0.1, [0.0])
    with pytest.raises(ValueError):
        deleverage_trajectory(9.0, 0.1, [1.5])


def test_small_x_expansion_values():
    assert small_x_expansion(9.0, 0.15, 0.0) == 9.0
    assert small_x_expansion(9.0, 0.15, 1e-4) == pytest.approx(9.108, rel=1e-12)
    assert small_x_expansion(1.0, 0.7, 0.3) == 1.0
    with pytest.raises(ValueError):
        small_x_expansion(9.0, 0.15, -1e-9)


def test_small_x_expansion_consistency():
    # The error relative to the first-order term vanishes as x -> 0.
    lambda0, cal_i = 9.0, 0.15
    ratios = []
    for x in (1e-4, 1e-6, 1e-8):
        err = abs(deleverage_lambda(lambda0, cal_i, x) - small_x_expansion(lambda0, cal_i, x))
        ratios.append(err / (lambda0 * cal_i * math.sqrt(x)))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-3


def test_initial_rise_is_universal():
    rng = np.random.default_rng(31)
    for _ in range(50):
        lambda0 = rng.uniform(1.01, 25.0)
        cal_i = rng.uniform(1e-3, 1.2)
        assert deleverage_lambda(lambda0, cal_i, 1e-8) > lambda0


def test_crossover_no_impact_limit():
    assert crossover_point(9.0, 0.0) == 0.0
    assert crossover_point(1.0, 0.1) == 0.0


def test_crossover_meets_trajectory_tolerance():
    x_star = crossover_point(9.0, 0.10)
    assert 0.0 < x_star < 1.0
    back = deleverage_lambda(9.0, 0.10, x_star)
    assert abs(back - 9.0) < 1e-10 * 9.0


def test_crossover_grid_scan_oracle():
    # Dense scan of the trajectory equation brackets the same root.
    lambda0, cal_i = 9.0, 0.10
    x = np.linspace(1e-12, 1.0, 10**7)
    u = np.sqrt(x)
    lam = lambda0 * (1.0 - x) * (1.0 - cal_i * u) / (1.0 - lambda0 * cal_i * u * (1.0 - x / 3.0))
    above = lam > lambda0
    first_drop = int(np.argmax(~above[1:]))  # first grid index back at/below lambda0
    lo, hi = x[first_drop], x[first_drop + 1]
    x_star = crossover_point(lambda0, cal_i)
    assert lo <= x_star <= hi


def _printed_crossover_form(lambda0, cal_i, denom):
    """The closed form printed for x*, evaluated literally with the given denominator."""
    inner = 1.0 - (4.0 / 3.0) * (lambda0 - 1.0) * (3.0 - lambda0) * cal_i**2
    return (1.0 - math.sqrt(inner)) / denom


def test_crossover_reports_printed_form_mismatch():
    lambda0, cal_i = 9.0, 0.10
    x_star = crossover_point(lambda0, cal_i)
    ratio = _printed_crossover_form(lambda0, cal_i, (2.0 - lambda0 / 3.0) * cal_i)
    printed = math.sqrt(ratio) if ratio >= 0.0 else math.nan
    assert not abs(printed - x_star) / x_star <= 1e-6
    # With the derivation's denominator the ratio is u* = sqrt(x*).
    u_star = _printed_crossover_form(lambda0, cal_i, 2.0 * (1.0 - lambda0 / 3.0) * cal_i)
    assert u_star * u_star == pytest.approx(x_star, rel=1e-12)


def test_crossover_below_one_for_random_subcritical_pairs():
    rng = np.random.default_rng(32)
    for _ in range(60):
        lambda0 = rng.uniform(1.01, 20.0)
        cal_i = rng.uniform(1e-4, 1.0) * (CRITICAL_PRODUCT / lambda0) * 0.999
        x_star = crossover_point(lambda0, cal_i)
        assert 0.0 <= x_star < 1.0


def test_crossover_rejects_supercritical():
    with pytest.raises(ValueError):
        crossover_point(9.0, 0.2)


def test_bankruptcy_point_boundary_exact():
    # lambda0 * calI = 3/2 with binary-exact products.
    for lambda0, cal_i in ((3.0, 0.5), (6.0, 0.25), (12.0, 0.125)):
        assert bankruptcy_point(lambda0, cal_i) == pytest.approx(1.0, abs=1e-9)


def test_bankruptcy_point_absent_subcritical():
    assert bankruptcy_point(9.0, 0.15) is None


def test_bankruptcy_point_cubic_oracle():
    # Smallest positive root of p*u - p*u^3/3 - 1 = 0 with p = lambda0*calI.
    lambda0, cal_i = 9.0, 0.19
    p = lambda0 * cal_i
    roots = np.roots([-p / 3.0, 0.0, p, -1.0])
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real <= 1.0)
    assert real
    x_c = bankruptcy_point(lambda0, cal_i)
    assert x_c == pytest.approx(real[0] ** 2, abs=1e-10)
    assert 0.0 < x_c < 1.0


def test_bankruptcy_point_matches_denominator_sign_change():
    lambda0, cal_i = 11.0, 0.3
    x = np.linspace(0.0, 1.0, 10**6)
    denom = 1.0 - lambda0 * cal_i * np.sqrt(x) * (1.0 - x / 3.0)
    flip = int(np.argmax(denom <= 0.0))
    x_c = bankruptcy_point(lambda0, cal_i)
    assert x[flip - 1] <= x_c <= x[flip]


def test_bankruptcy_point_boundary_continuity():
    # x_c -> 1 as the product approaches 3/2 from above.
    previous = None
    for eps in (1e-1, 1e-2, 1e-4, 1e-8):
        x_c = bankruptcy_point(9.0, (CRITICAL_PRODUCT + eps) / 9.0)
        if previous is not None:
            assert x_c > previous
        previous = x_c
    assert previous > 1.0 - 1e-3


def test_bankruptcy_point_validation():
    with pytest.raises(ValueError):
        bankruptcy_point(1.0, 0.5)
    with pytest.raises(ValueError):
        bankruptcy_point(9.0, 0.0)


def _bisect_root(f, lo, hi, xtol=1e-13, max_iter=200):
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    f_hi = f(hi)
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < xtol:
            break
    return 0.5 * (lo + hi)


def _bisected_crossover(lambda0, cal_i):
    """Oracle for x*: bracketed bisection on the trajectory equation itself."""

    def excess(u):
        return deleverage_lambda(lambda0, cal_i, u * u) - lambda0

    # Leverage exceeds lambda0 just after selling starts; bracket below the
    # small-x estimate of the crossover, u ~ (lambda0 - 1) * calI.
    u_lo = min(0.5 * (lambda0 - 1.0) * cal_i, 0.5)
    while u_lo > 1e-300 and excess(u_lo) <= 0.0:
        u_lo *= 0.5
    if excess(u_lo) <= 0.0:
        return 0.0
    return _bisect_root(excess, u_lo, 1.0, xtol=1e-15) ** 2


def _bisected_bankruptcy(lambda0, cal_i):
    """Oracle for x_c: bisection on lambda0*calI*u*(1 - u^2/3) = 1 over (0, 1]."""
    product = lambda0 * cal_i

    def gap(u):
        return product * u * (1.0 - u * u / 3.0) - 1.0

    if gap(1.0) < 0.0:
        return None
    if gap(1.0) == 0.0:
        return 1.0
    return _bisect_root(gap, 0.0, 1.0, xtol=1e-12) ** 2


def _quadratic_residual(lambda0, cal_i, x_star):
    """Relative residual of calI*(1 - lambda0/3)*u^2 - u + calI*(lambda0 - 1) at u = sqrt(x*)."""
    u = math.sqrt(x_star)
    terms = (cal_i * (1.0 - lambda0 / 3.0) * u * u, -u, cal_i * (lambda0 - 1.0))
    return abs(sum(terms)) / sum(abs(t) for t in terms)


def _cubic_residual(lambda0, cal_i, x_c):
    """Residual of u^3 - 3u + 3/(lambda0*calI) at u = sqrt(x_c); each term is at most 3."""
    u = math.sqrt(x_c)
    return abs(u**3 - 3.0 * u + 3.0 / (lambda0 * cal_i))


# Where the bisection oracle is well conditioned: lambda0 well above 1 (so the
# excess lambda(x) - lambda0 is not a tiny difference of O(lambda0) terms)
# and products clear of the double root at lambda0 = 3/2, calI = 1.
# Derandomized, so that every run checks the same draws.
property_settings = settings(max_examples=300, deadline=None, derandomize=True)
oracle_lambda0 = st.floats(1.1, 50.0)
sub_products = st.floats(0.05, 1.49)
sup_products = st.floats(1.51, 6.0)


@property_settings
@given(lambda0=oracle_lambda0, product=sub_products)
def test_crossover_matches_bisection_oracle(lambda0, product):
    cal_i = product / lambda0
    x_star = crossover_point(lambda0, cal_i)
    assert x_star == pytest.approx(_bisected_crossover(lambda0, cal_i), rel=1e-8)
    assert _quadratic_residual(lambda0, cal_i, x_star) <= 1e-12
    assert abs(deleverage_lambda(lambda0, cal_i, x_star) / lambda0 - 1.0) <= 1e-12


@property_settings
@given(lambda0=oracle_lambda0, product=sup_products)
def test_bankruptcy_point_matches_bisection_oracle(lambda0, product):
    cal_i = product / lambda0
    x_c = bankruptcy_point(lambda0, cal_i)
    assert x_c == pytest.approx(_bisected_bankruptcy(lambda0, cal_i), abs=1e-12)
    assert _cubic_residual(lambda0, cal_i, x_c) <= 1e-12


@property_settings
@given(
    lambda0=st.floats(1.0, 1e3, exclude_min=True),
    product=st.floats(1e-12, 1.5, exclude_max=True),
)
def test_crossover_residual_over_the_subcritical_range(lambda0, product):
    cal_i = product / lambda0
    assume(lambda0 * cal_i < CRITICAL_PRODUCT)
    x_star = crossover_point(lambda0, cal_i)
    # For lambda0 > 3/2 the root tends to 1 as the product tends to 3/2, and
    # an ulp below the boundary it rounds to 1.
    assert 0.0 < x_star <= 1.0
    assert _quadratic_residual(lambda0, cal_i, x_star) <= 1e-12


@property_settings
@given(lambda0=st.floats(1.0, 1e3, exclude_min=True), product=st.floats(1.5, 1e3))
def test_bankruptcy_point_residual_over_the_supercritical_range(lambda0, product):
    cal_i = product / lambda0
    x_c = bankruptcy_point(lambda0, cal_i)
    assume(x_c is not None)  # None where the rounded product fell below 3/2
    assert 0.0 < x_c <= 1.0
    assert _cubic_residual(lambda0, cal_i, x_c) <= 1e-12


@property_settings
@given(lambda0=oracle_lambda0, product=st.one_of(sub_products, sup_products, st.just(1.5)))
def test_classify_matches_bisection_oracle(lambda0, product):
    cal_i = product / lambda0
    report = classify(lambda0, cal_i)
    if abs(lambda0 * cal_i - CRITICAL_PRODUCT) <= 1e-12:
        assert report.regime is Regime.CRITICAL and report.x_c == 1.0
    elif _bisected_bankruptcy(lambda0, cal_i) is None:
        assert report.regime is Regime.SUBCRITICAL and report.x_c is None
        assert report.x_star == pytest.approx(_bisected_crossover(lambda0, cal_i), rel=1e-8)
    else:
        assert report.regime is Regime.SUPERCRITICAL and report.x_star is None
        assert report.x_c == pytest.approx(_bisected_bankruptcy(lambda0, cal_i), abs=1e-12)


def test_crossover_tiny_impact_is_positive():
    # The bisection's bracket search finds no point above lambda0 here and
    # reports 0.0.
    x_star = crossover_point(9.0, 1e-12)
    assert x_star > 0.0
    assert x_star == pytest.approx(6.4e-23, rel=1e-9)
    assert _quadratic_residual(9.0, 1e-12, x_star) <= 1e-15


def test_crossover_near_double_root():
    # lambda0 = 3/2 and calI one ulp below 1: the discriminant is 2.2e-16,
    # where the bisection finds no sign change.
    lambda0, cal_i = 1.5, 0.9999999999999999
    x_star = crossover_point(lambda0, cal_i)
    assert 0.0 < x_star < 1.0
    assert _quadratic_residual(lambda0, cal_i, x_star) <= 1e-15


def test_crossover_at_most_one_an_ulp_below_boundary():
    # Rounding put u* a few ulp above 1 here; the bisection found no sign
    # change, because lambda(1) itself rounds to a divergence.
    for lambda0 in (65.0, 749.8683536464167):
        cal_i = 1.4999999999999998 / lambda0
        assert lambda0 * cal_i < CRITICAL_PRODUCT
        x_star = crossover_point(lambda0, cal_i)
        assert 1.0 - 1e-12 < x_star <= 1.0
        assert _quadratic_residual(lambda0, cal_i, x_star) <= 1e-15


def test_bankruptcy_point_exactly_one_at_binary_exact_products():
    for lambda0, cal_i in ((3.0, 0.5), (6.0, 0.25), (12.0, 0.125), (24.0, 0.0625)):
        assert bankruptcy_point(lambda0, cal_i) == 1.0


def test_bankruptcy_point_non_increasing_ulps_above_boundary():
    for lambda0 in (3.0, 9.0, 24.0):
        cal_i = CRITICAL_PRODUCT / lambda0
        xs = []
        for _ in range(200):
            xs.append(bankruptcy_point(lambda0, cal_i))
            cal_i = math.nextafter(cal_i, 1.0)
        assert all(x <= 1.0 for x in xs)
        assert all(later <= earlier for earlier, later in zip(xs, xs[1:]))


def test_critical_impact():
    assert abs(critical_impact(9.0) - 1.0 / 6.0) < 1e-12
    with pytest.raises(ValueError):
        critical_impact(0.0)


def test_critical_leverage_stock_and_futures():
    stock = critical_leverage(ImpactParams(Y=1.0, sigma=0.02, V=1e9), Q=1e10)
    assert stock == pytest.approx(1.5 / (0.02 * math.sqrt(10.0)), rel=1e-12)
    assert stock == pytest.approx(23.7, abs=0.1)
    futures = critical_leverage(ImpactParams(Y=1.0, sigma=0.004, V=1e9), Q=1e9)
    assert futures == pytest.approx(375.0, rel=1e-12)


def test_critical_leverage_requires_positive_impact():
    with pytest.raises(ValueError):
        critical_leverage(ImpactParams(Y=1.0, sigma=0.0, V=1e9), Q=1e9)
    with pytest.raises(ValueError):
        critical_leverage(ImpactParams(Y=1.0, sigma=0.02, V=1e9), Q=0.0)


def test_critical_leverage_from_spread():
    got = critical_leverage_from_spread(Y=1.0, b=0.6, S=0.01, N=100.0)
    assert got == pytest.approx(1.5 / 0.06, rel=1e-12)
    with pytest.raises(ValueError):
        critical_leverage_from_spread(Y=1.0, b=0.6, S=0.01, N=0.0)


def test_impact_adjusted_exit_no_impact():
    pos, _ = leveraged_position(9.0, 0.15)
    params = ImpactParams(Y=1.0, sigma=0.0, V=pos.Q)
    for frac in (0.0, 0.25, 0.5, 0.99):
        got = impact_adjusted_leverage_exit(pos, params, frac * pos.Q)
        assert got == pytest.approx(9.0 * (1.0 - frac), rel=1e-9)


def test_impact_adjusted_exit_constant_denominator():
    pos, params = leveraged_position(9.0, 0.15)
    # Starting value: (1 - (2/3)*0.15) / (1/9 - (2/3)*0.15) = 81.
    assert impact_adjusted_leverage_exit(pos, params, 0.0) == pytest.approx(81.0, rel=1e-9)
    assert impact_adjusted_leverage_exit(pos, params, pos.Q) == pytest.approx(0.0, abs=1e-9)


def test_impact_adjusted_exit_supercritical_diverges_immediately():
    pos, params = leveraged_position(9.0, 0.19)
    for frac in (0.0, 0.3, 0.9):
        assert impact_adjusted_leverage_exit(pos, params, frac * pos.Q) == DIVERGED


def test_impact_adjusted_equity_constant_along_exit():
    rng = np.random.default_rng(33)
    from impactval.valuation import remaining_liquidation_value

    for _ in range(30):
        lambda0 = rng.uniform(1.1, 20.0)
        cal_i = rng.uniform(0.01, 0.5)
        Q = rng.uniform(1e2, 1e9)
        pos, params = leveraged_position(lambda0, cal_i, Q=Q, p0=rng.uniform(0.5, 500.0))
        total = liquidation_value(pos, params)
        for sold in rng.uniform(0.0, Q, size=10):
            combined = remaining_liquidation_value(pos, params, sold) + cash_raised(
                pos, params, sold
            )
            assert abs(combined - total) <= 1e-10 * abs(total)


def test_classify_regimes():
    sub = classify(9.0, 0.15)
    assert sub.regime is Regime.SUBCRITICAL
    assert sub.x_star is not None and 0.0 < sub.x_star < 1.0
    assert sub.x_c is None
    assert sub.I_c == pytest.approx(1.0 / 6.0)
    assert sub.lambda_c == pytest.approx(10.0)

    sup = classify(9.0, 0.19)
    assert sup.regime is Regime.SUPERCRITICAL
    assert sup.x_c is not None and 0.0 < sup.x_c < 1.0
    assert sup.x_star is None

    crit = classify(6.0, 0.25)
    assert crit.regime is Regime.CRITICAL
    assert crit.x_c == 1.0


def test_classify_trichotomy():
    rng = np.random.default_rng(34)
    for _ in range(100):
        lambda0 = rng.uniform(1.01, 20.0)
        cal_i = rng.uniform(1e-3, 1.4)
        if abs(lambda0 * cal_i - CRITICAL_PRODUCT) <= 1e-9:
            continue
        report = classify(lambda0, cal_i)
        if lambda0 * cal_i < CRITICAL_PRODUCT:
            assert report.regime is Regime.SUBCRITICAL and report.x_star is not None
        else:
            assert report.regime is Regime.SUPERCRITICAL and report.x_c is not None


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(1.0, 0.1)
    with pytest.raises(ValueError):
        classify(9.0, -0.1)


def test_round_trip_no_impact_coincides():
    pos = Position(Q=1e6, p0=10.0, E0=2e6)
    params = ImpactParams(Y=1.0, sigma=0.0, V=1e6)
    entry, exit_leg = entry_exit_trajectories(pos, params, grid_size=101)
    for pt in entry:
        assert pt.lambda_mtm == pytest.approx(pt.lambda_noimpact, rel=1e-12)
        assert pt.lambda_adj == pytest.approx(pt.lambda_noimpact, rel=1e-12)
    # Exit retraces the entry values in reverse order.
    for pt_in, pt_out in zip(entry, reversed(exit_leg)):
        assert pt_in.lambda_mtm == pytest.approx(pt_out.lambda_mtm, rel=1e-9, abs=1e-12)


def test_round_trip_supercritical_adj_diverges_during_entry():
    # lambda0 * calI = 9 * 0.19 well above 3/2 at full entry.
    pos = Position(Q=1e6, p0=10.0, E0=1e6 * 10.0 / 9.0)
    params = params_with_impact(1e6, 0.19)
    entry, _ = entry_exit_trajectories(pos, params, grid_size=400)
    diverged_at = [pt.x for pt in entry if pt.lambda_adj == DIVERGED]
    assert diverged_at and min(diverged_at) < 1.0
    mtm_at_divergence = [pt.lambda_mtm for pt in entry if pt.x >= min(diverged_at)]
    assert all(math.isfinite(v) for v in mtm_at_divergence)


def test_round_trip_entry_mtm_below_linear():
    pos = Position(Q=1e6, p0=10.0, E0=1e6 * 10.0 / 9.0)
    params = params_with_impact(1e6, 0.10)
    entry, _ = entry_exit_trajectories(pos, params, grid_size=400)
    assert max(pt.lambda_mtm for pt in entry) < max(pt.lambda_noimpact for pt in entry)


def test_round_trip_adjusted_dominates_where_levered():
    # The adjusted measure dominates where net liabilities are positive
    # (cash in hand can flip the comparison by rounding-level amounts).
    pos = Position(Q=1e6, p0=10.0, E0=1e6 * 10.0 / 9.0)
    params = params_with_impact(1e6, 0.10)
    entry, exit_leg = entry_exit_trajectories(pos, params, grid_size=400)
    e0 = pos.E0
    for pt in entry:
        if pt.cash > 2.0 * e0:  # safely past the self-financed stretch
            assert pt.lambda_adj >= pt.lambda_mtm
            assert pt.lambda_adj >= pt.lambda_noimpact
    for pt in exit_leg:
        if pt.x < 0.5:
            assert pt.lambda_adj >= pt.lambda_mtm


def test_round_trip_validation():
    params = params_with_impact(1e6, 0.1)
    with pytest.raises(ValueError):
        entry_exit_trajectories(Position(Q=1e6, p0=10.0, E0=-1.0), params)
    with pytest.raises(ValueError):
        entry_exit_trajectories(Position(Q=1e6, p0=10.0, E0=1e6), params, grid_size=1)


def test_trajectory_csv_schema_and_sentinel():
    points = deleverage_trajectory(9.0, 0.19, np.linspace(0.0, 1.0, 51))
    buffer = io.StringIO()
    write_trajectory_csv(points, buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert tuple(rows[0]) == TRAJECTORY_COLUMNS
    assert TRAJECTORY_COLUMNS == (
        "x", "q_held", "marginal_price", "cash", "lambda_noimpact", "lambda_mtm", "lambda_adj"
    )
    assert len(rows) == 52
    flat = [cell for row in rows[1:] for cell in row]
    assert "inf" in flat
    # Every cell parses as a float ('inf' included).
    for cell in flat:
        float(cell)


def test_trajectory_csv_file_round_trip(tmp_path):
    points = deleverage_trajectory(9.0, 0.1, [0.0, 0.5, 1.0])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(points, path)
    rows = list(csv.reader(path.open()))
    assert len(rows) == 4
    assert float(rows[1][4]) == pytest.approx(9.0)
