"""Tests for stochastic liquidation paths and bankruptcy probabilities."""

import argparse
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impactval import leverage, montecarlo
from impactval.cli import main, parse_grid
from impactval.impact import ImpactParams
from impactval.montecarlo import (
    _BATCH,
    BankruptcyMode,
    LiquidationSchedule,
    MonteCarloConfig,
    _check_memory,
    _cumulative_noise,
    bankruptcy_probability,
    fit_transition,
    simulate_price_path,
    transition_csv_rows,
    transition_curve,
    trial_rng,
)
from impactval.valuation import Position, liquidation_value_discrete


def make_config(lambda0, calI, n_days, *, sigma=0.02, V=1e6, p0=1.0, **kwargs):
    """Config with given leverage and total impact, liquidated over n_days."""
    Q = V * (calI / sigma) ** 2
    pos = Position(Q=Q, p0=p0, L=Q * p0 * (1.0 - 1.0 / lambda0))
    return MonteCarloConfig(
        position=pos,
        params=ImpactParams(Y=1.0, sigma=sigma, V=V),
        schedule=LiquidationSchedule(Q=Q, delta_q=Q / n_days, V=V),
        master_seed=kwargs.pop("master_seed", 99),
        n_trials=kwargs.pop("n_trials", 100),
        **kwargs,
    )


def test_schedule_identities():
    sched = LiquidationSchedule(Q=1e6, delta_q=2e4, V=4e5)
    assert sched.T == 50.0
    assert sched.eta == pytest.approx(0.05)
    assert sched.eta == pytest.approx(sched.Q / (sched.V * sched.T), rel=1e-15)


def test_schedule_from_participation():
    sched = LiquidationSchedule.from_participation(Q=1e6, V=4e5, eta=0.05)
    assert sched.delta_q == pytest.approx(2e4)
    assert sched.T == pytest.approx(50.0)


def test_schedule_validation():
    with pytest.raises(ValueError, match=r"^Q must be positive and finite, got 0\.0$"):
        LiquidationSchedule(Q=0.0, delta_q=1.0, V=1.0)
    with pytest.raises(ValueError, match=r"^delta_q must be positive and finite, got 0\.0$"):
        LiquidationSchedule(Q=1.0, delta_q=0.0, V=1.0)
    with pytest.raises(ValueError, match=r"^V must be positive and finite, got 0\.0$"):
        LiquidationSchedule(Q=1.0, delta_q=1.0, V=0.0)
    for name in ("Q", "delta_q", "V"):
        for bad in (math.nan, math.inf, -math.inf):
            values = {"Q": 1.0, "delta_q": 1.0, "V": 1.0, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be positive"):
                LiquidationSchedule(**values)
    # Finite inputs whose T overflows.
    with pytest.raises(ValueError, match="^T = Q / delta_q must be finite"):
        LiquidationSchedule(Q=1e300, delta_q=1e-300, V=1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="^n_trials must be >= 1, got 0$"):
        make_config(9.0, 0.15, 10, n_trials=0)


def test_config_rejects_disagreeing_copies_of_q_and_v():
    config = make_config(9.0, 0.15, 10)
    Q, V = config.position.Q, config.params.V
    for schedule, match in (
        (LiquidationSchedule(Q=Q / 2, delta_q=Q / 20, V=V), "schedule Q="),
        (LiquidationSchedule(Q=Q, delta_q=Q / 10, V=V * 50), "schedule V="),
    ):
        with pytest.raises(ValueError, match=match):
            MonteCarloConfig(
                position=config.position, params=config.params, schedule=schedule,
                n_trials=10, master_seed=0,
            )


def test_fractional_day_schedule_rejected():
    config = make_config(9.0, 0.15, 10)
    bad = MonteCarloConfig(
        position=config.position,
        params=config.params,
        schedule=LiquidationSchedule(Q=config.schedule.Q, delta_q=config.schedule.Q / 10.5, V=1e6),
        n_trials=1,
        master_seed=0,
    )
    with pytest.raises(ValueError):
        simulate_price_path(bad, 0)


def test_zero_noise_final_price_exact():
    config = make_config(9.0, 0.15, 25, noise_sigma=0.0)
    path = simulate_price_path(config, 0)
    assert path.prices[0] == 1.0
    assert path.prices[-1] == pytest.approx(1.0 - 0.15, rel=1e-14)
    assert path.negative_steps == 0


def test_zero_noise_proceeds_match_discrete_valuation():
    config = make_config(9.0, 0.15, 40, noise_sigma=0.0)
    path = simulate_price_path(config, 0)
    oracle = liquidation_value_discrete(config.position, config.params, 40)
    assert path.total_proceeds == pytest.approx(oracle, rel=1e-12)


def test_no_impact_no_noise_constant_price():
    V = 1e6
    Q = 2e5
    pos = Position(Q=Q, p0=1.0, L=Q * (1.0 - 1.0 / 9.0))
    config = MonteCarloConfig(
        position=pos,
        params=ImpactParams(Y=0.0, sigma=0.02, V=V),
        schedule=LiquidationSchedule(Q=Q, delta_q=Q / 20, V=V),
        n_trials=10,
        master_seed=7,
        noise_sigma=0.0,
    )
    path = simulate_price_path(config, 0)
    assert np.all(path.prices == 1.0)
    assert bankruptcy_probability(config).p_bankrupt == 0.0


def test_paths_bit_identical_per_seed_and_index():
    config = make_config(9.0, 0.15, 30, master_seed=123)
    a = simulate_price_path(config, 5)
    b = simulate_price_path(config, 5)
    assert np.array_equal(a.prices, b.prices)
    c = simulate_price_path(config, 6)
    assert not np.array_equal(a.prices, c.prices)


def test_trial_streams_are_order_insensitive():
    draws = {i: trial_rng(42, i).standard_normal(4) for i in (3, 0, 7)}
    again = {i: trial_rng(42, i).standard_normal(4) for i in (7, 3, 0)}
    for i, values in draws.items():
        assert np.array_equal(values, again[i])


def test_bankruptcy_probability_reproducible():
    config = make_config(9.0, 0.17, 20, n_trials=500, master_seed=2024)
    first = bankruptcy_probability(config)
    second = bankruptcy_probability(config)
    assert first == second
    assert first.std_error == pytest.approx(
        math.sqrt(first.p_bankrupt * (1 - first.p_bankrupt) / 500)
    )


def test_deterministic_step_at_critical_impact():
    # Noise off: bankruptcy flips from 0 to 1 across calI = 3/(2*lambda0).
    below = make_config(9.0, 0.15, 100, noise_sigma=0.0, n_trials=1)
    above = make_config(9.0, 0.18, 100, noise_sigma=0.0, n_trials=1)
    assert bankruptcy_probability(below).p_bankrupt == 0.0
    assert bankruptcy_probability(above).p_bankrupt == 1.0


def test_half_probability_at_transition_center():
    # At calI = I_c the expected proceeds equal the debt, so noise makes
    # bankruptcy a near coin flip (discreteness biases it slightly up).
    n_days = 28
    eta = 10.0
    cal_i = 1.0 / 6.0
    sigma = cal_i / math.sqrt(n_days * eta)
    config = make_config(
        9.0, cal_i, n_days, sigma=sigma, n_trials=10_000, master_seed=5150
    )
    assert config.schedule.eta == pytest.approx(eta, rel=1e-12)
    result = bankruptcy_probability(config)
    assert result.p_bankrupt == pytest.approx(0.5, abs=0.05)


def test_anywhere_on_path_at_least_at_end():
    for cal_i in (0.12, 0.15, 0.1667):
        at_end = bankruptcy_probability(
            make_config(9.0, cal_i, 25, n_trials=400, master_seed=88)
        )
        anywhere = bankruptcy_probability(
            make_config(
                9.0, cal_i, 25, n_trials=400, master_seed=88,
                bankruptcy_mode=BankruptcyMode.ANYWHERE_ON_PATH,
            )
        )
        assert anywhere.p_bankrupt >= at_end.p_bankrupt


def test_negative_price_warning():
    config = make_config(9.0, 0.15, 50, noise_sigma=0.5, n_trials=50, master_seed=3)
    with pytest.warns(UserWarning, match="negative"):
        bankruptcy_probability(config)


def test_transition_curve_zero_point_and_monotonicity():
    grid = [0.0, 0.08, 0.12, 0.15, 0.1667, 0.19, 0.22, 0.26]
    points = transition_curve(9.0, 10.0, grid, n_trials=2000, master_seed=7, sigma=0.01)
    assert points[0].p_bankrupt == 0.0
    probs = [pt.p_bankrupt for pt in points]
    errs = [pt.std_error for pt in points]
    for i in range(1, len(probs)):
        assert probs[i] >= probs[i - 1] - 3.0 * (errs[i] + errs[i - 1]) - 1e-12
    # No-impact companion stays near zero at this noise level.
    assert max(pt.p_bankrupt_noimpact for pt in points) < 0.01


def test_transition_curve_marks_infeasible_points():
    # calI = 0.02 with sigma = 0.02 gives Q = V, i.e. a tenth of a day at eta = 10.
    points = transition_curve(9.0, 10.0, [0.02, 0.2], n_trials=50, master_seed=1)
    assert not points[0].feasible
    assert math.isnan(points[0].p_bankrupt)
    assert points[1].feasible


def test_transition_curve_deterministic_given_seed():
    grid = [0.1, 0.1667, 0.24]
    a = transition_curve(9.0, 10.0, grid, n_trials=300, master_seed=11)
    b = transition_curve(9.0, 10.0, grid, n_trials=300, master_seed=11)
    assert a == b


def test_transition_curve_single_trial_reproducible():
    points = transition_curve(9.0, 1.0, [0.15], n_trials=1, master_seed=4)
    again = transition_curve(9.0, 1.0, [0.15], n_trials=1, master_seed=4)
    assert points == again
    assert points[0].p_bankrupt in (0.0, 1.0)


def test_transition_curve_validation():
    with pytest.raises(ValueError):
        transition_curve(9.0, 10.0, [], n_trials=10, master_seed=0)
    with pytest.raises(ValueError):
        transition_curve(1.0, 10.0, [0.1], n_trials=10, master_seed=0)
    with pytest.raises(ValueError):
        transition_curve(9.0, 10.0, [-0.1], n_trials=10, master_seed=0)
    for kwargs in ({"sigma": 0.0}, {"Y": 0.0}):
        with pytest.raises(ValueError):
            transition_curve(9.0, 10.0, [0.1], n_trials=10, master_seed=0, **kwargs)
    for eta in (0.0, -1.0):
        with pytest.raises(ValueError):
            transition_curve(9.0, eta, [0.1], n_trials=10, master_seed=0)
    # Non-finite inputs are refused with the domain message, before any simulation.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^lambda0 must be > 1"):
            transition_curve(bad, 10.0, [0.1], n_trials=10, master_seed=0)
        with pytest.raises(ValueError, match="^eta must be positive"):
            transition_curve(9.0, bad, [0.1], n_trials=10, master_seed=0)
        for kwargs in ({"sigma": bad}, {"Y": bad}):
            with pytest.raises(ValueError, match="^Y and sigma must be positive"):
                transition_curve(9.0, 10.0, [0.1], n_trials=10, master_seed=0, **kwargs)
        for grid in ([bad], [0.0, 0.2, bad], np.array([0.2, bad])):
            with pytest.raises(ValueError, match="^calI must be non-negative"):
                transition_curve(9.0, 10.0, grid, n_trials=10, master_seed=0)
    # Finite inputs whose horizon overflows, or whose Y * sigma underflows.
    for grid in ([1e200], [0.1, 1e200], [1.0]):
        with pytest.raises(ValueError, match="needs an infinite horizon"):
            eta = 1e-320 if grid == [1.0] else 10.0
            transition_curve(9.0, eta, grid, n_trials=10, master_seed=0)
    # A one-day horizon whose position size Q = (calI / (Y * sigma))**2 * V overflows.
    with pytest.raises(ValueError, match="^calI=6\\.4e\\+149 needs an infinite position size"):
        transition_curve(9.0, 1e303, [6.4e149], n_trials=10, master_seed=0)
    with pytest.raises(ValueError, match="^Y \\* sigma must be positive"):
        transition_curve(9.0, 10.0, [0.1], n_trials=10, master_seed=0, Y=1e-200, sigma=1e-200)
    with pytest.raises(ValueError, match="^a 2\\.5e\\+301-day horizon needs"):
        transition_curve(9.0, 1e-300, [0.1], n_trials=10, master_seed=0, sigma=0.02)
    # Checked before the grid, also when no point would simulate.
    for grid in ([0.1], [0.0], [0.001]):
        for n_trials in (0, -5):
            with pytest.raises(ValueError, match="n_trials must be >= 1"):
                transition_curve(9.0, 10.0, grid, n_trials=n_trials, master_seed=0)


@pytest.mark.parametrize("noise_sigma", [-0.1, -1e-300, math.nan, math.inf])
def test_noise_sigma_must_be_finite_and_non_negative(noise_sigma):
    with pytest.raises(ValueError, match="noise_sigma"):
        make_config(9.0, 0.15, 25, noise_sigma=noise_sigma)
    # A grid without a feasible point builds no config, and is checked too.
    for grid in ([0.1], [0.0]):
        with pytest.raises(ValueError, match="noise_sigma"):
            transition_curve(9.0, 10.0, grid, n_trials=10, master_seed=0, noise_sigma=noise_sigma)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.0, "3", None])
def test_master_seed_must_be_a_128_bit_integer(seed):
    message = "^master_seed must be an integer in \\[0, 2\\*\\*128\\)"
    with pytest.raises(ValueError, match=message):
        make_config(9.0, 0.15, 25, master_seed=seed)
    # The noise-free path draws nothing, and a grid without a feasible point
    # simulates nothing; both are checked all the same.
    for noise_sigma, grid in ((None, [0.15]), (0.0, [0.15]), (None, [0.0])):
        with pytest.raises(ValueError, match=message):
            transition_curve(9.0, 10.0, grid, n_trials=10, master_seed=seed, noise_sigma=noise_sigma)


@pytest.mark.parametrize("seed", [0, 2**128 - 1, np.uint64(2**64 - 1)])
def test_master_seed_range_is_inclusive(seed):
    make_config(9.0, 0.15, 25, master_seed=seed)
    (point,) = transition_curve(9.0, 10.0, [0.15], n_trials=20, master_seed=seed, sigma=0.01)
    _, (bankrupt, bankrupt_noimpact, _) = _oracle_counts(
        9.0, 10.0, 0.15, 20, seed, BankruptcyMode.AT_END, None
    )
    assert (point.p_bankrupt, point.p_bankrupt_noimpact) == (bankrupt / 20, bankrupt_noimpact / 20)


def test_memory_budget_checked_before_allocation():
    # calI = 0.3 at sigma = 2% and eta = 1e-9 asks for a 2.25e11-day horizon:
    # its noise-free price vector alone would take 1.8 TB.
    with pytest.raises(ValueError, match=r"^a 2\.25e\+11-day horizon needs [0-9.e+]+ GiB"):
        transition_curve(9.0, 1e-9, [0.3], 10, 1)
    with pytest.raises(ValueError, match="GiB"):
        bankruptcy_probability(make_config(9.0, 0.3, 10**10, n_trials=10))


def test_memory_budget_admits_long_horizon_grid(monkeypatch):
    # The long-horizon benchmark grid (calI to 0.32 at sigma = 1%, eta = 0.1,
    # horizons to 10240 days, 1000 trials) fits in a quarter of the budget.
    horizons = [round((c / 0.01) ** 2 / 0.1) for c in np.linspace(0.0, 0.32, 17)[1:]]
    assert max(horizons) == 10240
    monkeypatch.setattr(leverage, "MEMORY_BUDGET_BYTES", 2**30 // 4)
    _check_memory(horizons, 1000)
    with pytest.raises(ValueError):
        _check_memory(horizons + [4 * 10240], 1000)


def test_fit_transition_recovers_synthetic_probit():
    from scipy.special import erf as _erf

    slope, center = 20.0, 0.16
    xs = np.linspace(0.05, 0.3, 15)
    ps = 0.5 * (1.0 + _erf(slope * (xs - center) / math.sqrt(2.0)))
    fitted = fit_transition(xs, ps)
    assert fitted.center == pytest.approx(center, abs=1e-8)
    assert fitted.slope == pytest.approx(slope, rel=1e-6)
    assert fitted.width == pytest.approx(2.5631031310892007 / slope, rel=1e-6)
    assert all(type(v) is float for v in (fitted.center, fitted.width, fitted.slope))


def test_fit_transition_skips_nan_points():
    xs = np.array([0.05, 0.1, 0.15, 0.2, 0.25])
    ps = np.array([np.nan, 0.02, 0.5, 0.98, 1.0])
    fitted = fit_transition(xs, ps)
    assert 0.1 < fitted.center < 0.2


def test_fit_transition_needs_three_points():
    with pytest.raises(ValueError):
        fit_transition(np.array([0.1, 0.2]), np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    "ps, reason",
    [
        ([0.0, 0.0, 0.0, 0.0, 0.0], "no convergence"),
        ([0.0, 0.0, 1.0, 1.0, 1.0], "singular"),
        ([0.0, 0.0, 0.5, 1.0, 1.0], "no convergence"),
        ([0.9, 0.6, 0.5, 0.4, 0.1], "not positive"),
        ([0.5, 0.5, 0.5, 0.5, 0.5], "rises by"),
    ],
    ids=["all-zero", "step", "one-interior-point", "falling", "flat"],
)
def test_fit_transition_rejects_curves_without_a_transition(ps, reason):
    with pytest.raises(ValueError, match=f"cannot fit a transition: .*{reason}"):
        fit_transition(np.linspace(0.05, 0.25, 5), np.array(ps))


def _probit(xs, slope, center):
    from scipy.special import ndtr

    return ndtr(slope * (np.asarray(xs) - center))


def _tight_curve_fit(xs, ps):
    """(slope, center) from scipy's curve_fit at its tightest tolerances.

    Same model and start values as fit_transition; at its default
    tolerances curve_fit stops up to 1e-5 relative short of the minimum.
    """
    from scipy.optimize import curve_fit

    center0 = float(np.interp(0.5, np.clip(ps, 1e-6, 1 - 1e-6), xs))
    span = max(xs.max() - xs.min(), 1e-6)
    (slope, center), _ = curve_fit(
        _probit, xs, ps, p0=[4.0 / span, center0],
        xtol=1e-15, ftol=1e-15, gtol=1e-15, maxfev=100000,
    )
    return slope, center


def _sum_of_squares(xs, ps, slope, center):
    return float(((_probit(xs, slope, center) - ps) ** 2).sum())


# Acceptance 8's setups: eta -> (sigma, grid, trials), and the (slope, center)
# that scipy's curve_fit gave on each curve at its default tolerances.
ACCEPTANCE_8 = {
    10.0: ((0.01, np.linspace(0.06, 0.30, 17), 10_000), (20.603257395469292, 0.16789851944747605)),
    1.0: ((0.02, np.linspace(0.05, 0.45, 15), 2_500), (5.088232319847658, 0.20303075684999844)),
    0.1: ((0.05, np.linspace(0.05, 0.60, 12), 2_500), (1.301962547943167, 0.24274131294546433)),
}


@pytest.mark.filterwarnings("ignore:.*simulated prices were negative")
@pytest.mark.parametrize("eta", ACCEPTANCE_8)
def test_fit_transition_on_acceptance_curves(eta):
    (sigma, grid, n_trials), (old_slope, old_center) = ACCEPTANCE_8[eta]
    points = transition_curve(9.0, eta, grid, n_trials, 20260823, sigma=sigma)
    xs = np.array([pt.calI for pt in points])
    ps = np.array([pt.p_bankrupt for pt in points])
    fitted = fit_transition(xs, ps)
    slope, center = _tight_curve_fit(xs, ps)
    assert fitted.center == pytest.approx(center, rel=1e-7)
    assert fitted.width == pytest.approx(2.5631031310892007 / slope, rel=1e-7)
    assert fitted.center == pytest.approx(old_center, rel=2e-5)
    assert fitted.slope == pytest.approx(old_slope, rel=2e-5)
    assert _sum_of_squares(xs, ps, fitted.slope, fitted.center) <= _sum_of_squares(
        xs, ps, old_slope, old_center
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(5, 24),
    lo=st.floats(0.0, 0.3),
    span=st.floats(0.05, 1.0),
    center_at=st.floats(0.2, 0.8),
    steepness=st.floats(3.0, 40.0),
    trials=st.sampled_from([30, 100, 500, 2000, 10000]),
)
def test_fit_transition_matches_tight_curve_fit(
    seed, n_points, lo, span, center_at, steepness, trials
):
    xs = np.linspace(lo, lo + span, n_points)
    truth = _probit(xs, steepness / span, lo + center_at * span)
    ps = np.random.default_rng(seed).binomial(trials, truth) / trials
    assume(((ps > 0.0) & (ps < 1.0)).sum() >= 3 and ps.min() < 0.2 and ps.max() > 0.8)
    fitted = fit_transition(xs, ps)
    slope, center = _tight_curve_fit(xs, ps)
    assert fitted.center == pytest.approx(center, rel=1e-6)
    assert fitted.width == pytest.approx(2.5631031310892007 / slope, rel=1e-6)


def test_transition_csv_rows():
    points = transition_curve(9.0, 10.0, [0.0, 0.2], n_trials=20, master_seed=2)
    rows = transition_csv_rows(points)
    assert rows[0] == ["calI", "p_bankrupt", "std_error", "p_bankrupt_noimpact"]
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.0


# Seeds of one and of two 64-bit key words, up to the largest.
@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**64 + 3, 2**128 - 1])
def test_rekeyed_stream_matches_trial_rng(seed):
    indices = (0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 9999)
    batches = list(_cumulative_noise(seed, 10_000, 5, 1.0))
    # Whole batches, then a partial last one.
    assert [len(batch) for batch in batches] == [_BATCH] * 19 + [10_000 - 19 * _BATCH]
    for i in indices:
        expected = np.random.Generator(np.random.Philox(key=seed).jumped(i)).standard_normal(5)
        assert np.array_equal(trial_rng(seed, i).standard_normal(5), expected)
        row = batches[i // _BATCH][i % _BATCH]
        assert np.array_equal(row, np.cumsum(expected))
    # The whole 64-bit counter word: indices past 2**63 must not wrap.
    last = np.random.Generator(np.random.Philox(key=seed).jumped(2**64 - 1)).standard_normal(5)
    assert np.array_equal(trial_rng(seed, 2**64 - 1).standard_normal(5), last)


def _oracle_counts(lambda0, eta, cal_i, n_trials, seed, mode, noise_sigma, sigma=0.01):
    """Bankruptcy counts of one curve point from per-trial public price paths."""
    n_days = round((cal_i / sigma) ** 2 / eta)
    config = make_config(
        lambda0, cal_i, n_days, sigma=sigma, n_trials=n_trials, master_seed=seed,
        bankruptcy_mode=mode, noise_sigma=noise_sigma,
    )
    drift_free = MonteCarloConfig(
        position=config.position,
        params=ImpactParams(Y=0.0, sigma=sigma, V=config.params.V),
        schedule=config.schedule,
        n_trials=n_trials,
        master_seed=seed,
        noise_sigma=noise_sigma,
    )
    dq, L = config.schedule.delta_q, config.position.L
    q_rem = np.maximum(config.position.Q - np.arange(1, n_days + 1) * dq, 0.0)

    def bankrupt(daily):
        if mode is BankruptcyMode.AT_END:
            return dq * daily.sum() < L
        return any(dq * np.cumsum(daily) + q_rem * daily < L)

    counts = [0, 0, 0]
    for i in range(n_trials):
        path = simulate_price_path(config, i)
        counts[0] += bankrupt(path.prices[1:])
        counts[1] += bankrupt(simulate_price_path(drift_free, i).prices[1:])
        counts[2] += path.negative_steps > 0
    return n_days, counts


@pytest.mark.filterwarnings("ignore:.*simulated prices were negative")
@pytest.mark.parametrize("mode", list(BankruptcyMode))
@pytest.mark.parametrize("noise_sigma", [None, 0.0, 0.4])
def test_transition_curve_matches_per_trial_oracle(mode, noise_sigma):
    grid = [0.02, 0.08, 0.15, 0.2, 0.26]
    n_trials = 600
    points = transition_curve(
        9.0, 10.0, grid, n_trials=n_trials, master_seed=31, sigma=0.01,
        bankruptcy_mode=mode, noise_sigma=noise_sigma,
    )
    assert not points[0].feasible
    for pt, cal_i in zip(points[1:], grid[1:]):
        n_days, (bankrupt, bankrupt_noimpact, negative) = _oracle_counts(
            9.0, 10.0, cal_i, n_trials, 31, mode, noise_sigma
        )
        assert pt.n_days == n_days
        assert pt.p_bankrupt == bankrupt / n_trials
        assert pt.p_bankrupt_noimpact == bankrupt_noimpact / n_trials
        assert pt.negative_price_trials == negative


@pytest.mark.filterwarnings("ignore:.*simulated prices were negative")
@pytest.mark.parametrize("mode", list(BankruptcyMode))
@pytest.mark.parametrize("noise_sigma", [None, 0.0, 0.4])
def test_transition_curve_matches_bankruptcy_probability(mode, noise_sigma):
    lambda0, eta, sigma, n_trials, seed = 9.0, 10.0, 0.01, 400, 2027
    grid = [0.0, 0.02, 0.08, 0.15, 0.1667, 0.2, 0.26]
    points = transition_curve(
        lambda0, eta, grid, n_trials=n_trials, master_seed=seed, sigma=sigma,
        bankruptcy_mode=mode, noise_sigma=noise_sigma,
    )
    feasible = [pt for pt in points if pt.feasible and pt.calI > 0.0]
    assert len(feasible) == 5
    for pt in feasible:
        V = 1e6
        Q = (pt.calI / sigma) ** 2 * V
        config = MonteCarloConfig(
            position=Position(Q=Q, p0=1.0, L=Q * (1.0 - 1.0 / lambda0)),
            params=ImpactParams(Y=1.0, sigma=sigma, V=V),
            schedule=LiquidationSchedule(Q=Q, delta_q=Q / pt.n_days, V=V),
            n_trials=n_trials,
            master_seed=seed,
            bankruptcy_mode=mode,
            noise_sigma=noise_sigma,
        )
        result = bankruptcy_probability(config)
        assert result.p_bankrupt == pt.p_bankrupt
        assert result.std_error == pt.std_error
        assert result.negative_price_trials == pt.negative_price_trials


# Captured from the per-point implementation this kernel replaced: bankrupt
# and no-impact counts out of 700 trials per grid point (None = infeasible).
GOLDEN_GRID = [0.0, 0.02, 0.05, 0.08, 0.12, 0.15, 0.1667, 0.2, 0.3]
GOLDEN_DAYS = [0, 0, 2, 6, 14, 22, 28, 40, 90]
GOLDEN = {
    (7, BankruptcyMode.AT_END): (
        [0, None, 0, 0, 83, 290, 379, 517, 663], [0, None, 0, 0, 0, 0, 0, 1, 16]
    ),
    (7, BankruptcyMode.ANYWHERE_ON_PATH): (
        [0, None, 0, 0, 90, 303, 395, 539, 677], [0, None, 0, 0, 0, 0, 0, 2, 25]
    ),
    (2**40 + 3, BankruptcyMode.AT_END): (
        [0, None, 0, 0, 74, 275, 373, 525, 664], [0, None, 0, 0, 0, 0, 0, 0, 10]
    ),
    (2**40 + 3, BankruptcyMode.ANYWHERE_ON_PATH): (
        [0, None, 0, 0, 80, 292, 392, 552, 684], [0, None, 0, 0, 0, 0, 0, 1, 22]
    ),
}


@pytest.mark.parametrize("seed, mode", list(GOLDEN))
def test_transition_curve_golden(seed, mode):
    bankrupt, bankrupt_noimpact = GOLDEN[seed, mode]
    points = transition_curve(
        9.0, 10.0, GOLDEN_GRID, n_trials=700, master_seed=seed, sigma=0.01,
        bankruptcy_mode=mode,
    )
    assert [pt.calI for pt in points] == GOLDEN_GRID
    assert [pt.n_days for pt in points] == GOLDEN_DAYS
    for pt, k, k_noimpact in zip(points, bankrupt, bankrupt_noimpact):
        assert type(pt.calI) is float
        if k is None:
            assert not pt.feasible and math.isnan(pt.p_bankrupt)
            continue
        p = k / 700
        assert pt.p_bankrupt == p
        assert pt.std_error == math.sqrt(p * (1.0 - p) / 700)
        assert pt.p_bankrupt_noimpact == k_noimpact / 700


@pytest.mark.parametrize(
    "noise_sigma, grid",
    # Noisy paths, and a noise-free path whose impact passes 100% (calI > 1).
    [(0.5, [0.15, 0.2]), (0.0, [1.1])],
)
def test_transition_curve_negative_price_warning(noise_sigma, grid):
    with pytest.warns(UserWarning, match="negative"):
        points = transition_curve(
            9.0, 10.0, grid, n_trials=50, master_seed=3, sigma=0.01, noise_sigma=noise_sigma
        )
    assert all(pt.negative_price_trials > 0 for pt in points)
    if noise_sigma == 0.0:
        # The one noise-free path stands for every trial.
        assert [pt.negative_price_trials for pt in points] == [50]


def test_memory_budget_charges_each_grid_point(monkeypatch):
    # At 1 MiB, 700 one-day points fit and 900 do not: their Python objects,
    # not their arrays, fill the budget, so the message names the grid.
    monkeypatch.setattr(leverage, "MEMORY_BUDGET_BYTES", 2**20)
    _check_memory([1] * 700, 1)
    with pytest.raises(ValueError, match="^a 900-point grid needs"):
        _check_memory([1] * 900, 1)
    with pytest.raises(ValueError, match="^a 900-point grid needs"):
        transition_curve(9.0, 10.0, [0.1] * 900, n_trials=1, master_seed=0, sigma=0.02)
    # A 100-day horizon at 512 trials a batch: its batch matrices (2 MB), not
    # the points' objects, fill the budget, so the message names the horizon.
    with pytest.raises(ValueError, match="^a 100-day horizon needs"):
        _check_memory([100], 512)
    with pytest.raises(ValueError, match="^a 100-day horizon needs"):
        _check_memory([1] * 100 + [100], 512)


def test_memory_budget_charges_the_decision_of_short_horizons(monkeypatch):
    # Ten 1-day points at 512 trials a batch: the AT_END decision holds their
    # totals and margins, two (512, 10) matrices, wider than the one-day walk.
    need = 10 * montecarlo.CURVE_POINT_BYTES + 8 * (2 * 10 + 1 + 5 * 512 + 2 * 512 * 10)
    monkeypatch.setattr(leverage, "MEMORY_BUDGET_BYTES", need)
    _check_memory([1] * 10, 512)
    monkeypatch.setattr(leverage, "MEMORY_BUDGET_BYTES", need - 1)
    with pytest.raises(ValueError, match="^a 1-day horizon needs"):
        _check_memory([1] * 10, 512)


def test_one_memory_budget_governs_every_check(monkeypatch, capsys):
    # Each of these fits the 1 GiB budget; patched once to 1 MiB, the CLI's
    # grid check and both Monte Carlo entry points refuse at that budget.  A
    # trajectory is written as it is built, so its grid is not charged.
    monkeypatch.setattr(leverage, "MEMORY_BUDGET_BYTES", 2**20)
    over = r"needs [0-9.e-]+ GiB of memory, over the 0\.000977 GiB budget$"
    with pytest.raises(argparse.ArgumentTypeError, match="^a 1000-point grid " + over):
        parse_grid("0:0.3:1000")
    assert main(["trajectory", "--lambda0", "9", "--impact", "0.1", "--grid", "3000"]) == 0
    assert capsys.readouterr().out.count("\n") == 3001
    with pytest.raises(ValueError, match="^a 900-point grid " + over):
        transition_curve(9.0, 10.0, [0.1] * 900, n_trials=1, master_seed=0)
    with pytest.raises(ValueError, match="^a 100-day horizon " + over):
        bankruptcy_probability(make_config(9.0, 0.15, 100, n_trials=512))


def _drift_free(config):
    """The same liquidation with the impact drift switched off: prices p0 plus noise."""
    params = ImpactParams(Y=0.0, sigma=config.params.sigma, V=config.params.V)
    return MonteCarloConfig(
        position=config.position, params=params, schedule=config.schedule,
        n_trials=config.n_trials, master_seed=config.master_seed,
    )


def _both_columns(liquidations):
    """The liquidations followed by each one without impact, as transition_curve passes them."""
    return liquidations + montecarlo._without_impact(liquidations, 1.0)


@pytest.mark.parametrize("n_days", [1, 2, 30, 1000])
def test_without_impact_is_the_liquidation_at_zero_impact(n_days):
    # Every field the kernel reads equals what _liquidation builds at Y = 0,
    # and the no-impact prices and holdings add no float vector.
    base = make_config(9.0, 0.15, n_days)
    dq = base.schedule.delta_q
    liq = montecarlo._liquidation(base.position, base.params, dq, n_days)
    (plain,) = montecarlo._without_impact([liq], 1.0)
    ref = montecarlo._liquidation(base.position, _drift_free(base).params, dq, n_days)
    assert np.array_equal(plain.det, ref.det) and plain.det.shape == ref.det.shape
    for name in ("det_sum", "det_abs", "det_min", "threshold", "L", "delta_q"):
        assert getattr(plain, name) == getattr(ref, name), name
    assert np.array_equal(plain.q_rem, ref.q_rem)
    assert plain.q_rem is liq.q_rem and plain.det.strides == (0,)


@pytest.mark.parametrize("drift", ["impact", "no impact"])
def test_at_end_debt_on_a_trial_sum(drift):
    # A debt equal to a trial's own proceeds, or one ulp either side, puts the
    # running total inside the rounding margin: the kernel must fall back on
    # the direct test and count exactly what the per-trial paths give.
    n_days, n_trials = 30, 40
    base = make_config(9.0, 0.15, n_days, n_trials=n_trials, master_seed=77)
    dq = base.schedule.delta_q
    paths = {
        "impact": [simulate_price_path(base, i).prices[1:] for i in range(n_trials)],
        "no impact": [simulate_price_path(_drift_free(base), i).prices[1:] for i in range(n_trials)],
    }
    for k in (0, 3, 11, 25, 39):
        proceeds = dq * paths[drift][k].sum()
        for L in (np.nextafter(proceeds, -np.inf), proceeds, np.nextafter(proceeds, np.inf)):
            position = Position(Q=base.position.Q, p0=1.0, L=float(L))
            liq = montecarlo._liquidation(position, base.params, dq, n_days)
            tally, plain = montecarlo._simulate(
                _both_columns([liq]), BankruptcyMode.AT_END, 1.0, base.params.sigma, n_trials, 77
            )
            expected = {name: sum(dq * daily.sum() < L for daily in rows) for name, rows in paths.items()}
            assert tally.bankrupt == expected["impact"]
            assert plain.bankrupt == expected["no impact"]


@pytest.mark.parametrize(
    "calI, L", [(0.15, 0.0), (0.15, 5e-324), (1e-153, 1e10)],
    ids=["zero", "subnormal", "threshold overflows"],
)
def test_at_end_debt_outside_the_normal_range(calI, L):
    # A debt of 0 or below the normal range, or an L / delta_q that overflows
    # (a 4e-300 position sold over 30 days), has no relative rounding bound:
    # the liquidation stores a nan threshold, so the kernel always runs the
    # direct test and must count exactly what the per-trial paths give.
    n_days, n_trials, seed = 30, 40, 78
    base = make_config(9.0, calI, n_days, sigma=0.5, n_trials=n_trials, master_seed=seed)
    dq = base.schedule.delta_q
    position = Position(Q=base.position.Q, p0=1.0, L=L)
    liq = montecarlo._liquidation(position, base.params, dq, n_days)
    assert math.isnan(liq.threshold)
    tally, plain = montecarlo._simulate(
        _both_columns([liq]), BankruptcyMode.AT_END, 1.0, base.params.sigma, n_trials, seed
    )
    for count, config in ((tally.bankrupt, base), (plain.bankrupt, _drift_free(base))):
        paths = [simulate_price_path(config, i).prices[1:] for i in range(n_trials)]
        assert count == sum(dq * daily.sum() < L for daily in paths)
    if L > 1.0:
        assert tally.bankrupt == n_trials
    else:  # the noise sends some trials' proceeds below 0 and not others
        assert 0 < tally.bankrupt < n_trials


@pytest.mark.parametrize("mode", list(BankruptcyMode))
def test_a_walk_that_is_not_finite_is_refused(mode):
    # At noise_sigma = 1e308 most walks overflow to +-inf, so their prices
    # and sums are not finite and any count would describe the overflow.
    # Both modes refuse the first such batch, naming the noise level, before
    # numpy warns about the overflow (warnings are errors here).  So do they
    # where the walk stays finite but a sum of the tests could overflow: its
    # largest offset mag reaches (float max) / (4 * reach) - max(p0, -det_min),
    # reach the largest n_days * max(1, delta_q).  Just below that level
    # every batch runs, with no overflow.
    n_trials, seed, sigma, V = 600, 4242, 0.02, 1e6
    params = ImpactParams(Y=1.0, sigma=sigma, V=V)
    liquidations = []
    for cal_i, n_days in ((0.02, 1), (0.05, 2), (0.1, 10), (0.3, 22)):
        Q = (cal_i / sigma) ** 2 * V
        position = Position(Q=Q, p0=1.0, L=Q * (1.0 - 1.0 / 9.0))
        liquidations.append(montecarlo._liquidation(position, params, Q / n_days, n_days))
    liquidations = _both_columns(liquidations)
    reach = max(len(liq.det) * max(1.0, liq.delta_q) for liq in liquidations)
    limit = sys.float_info.max / (4.0 * reach) - max(1.0, -min(liq.det_min for liq in liquidations))
    peak = max(  # the largest |offset| of a trial's 22-day walk at a step of 1
        np.abs(np.cumsum(trial_rng(seed, i).standard_normal(22))).max() for i in range(n_trials)
    )
    below, above = 0.999 * limit / peak, 1.001 * limit / peak
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step in (1e308, above):
            refusal = "^the random walk overflows at a daily noise level of "
            with pytest.raises(ValueError, match=f"{refusal}{re.escape(repr(step))}$"):
                montecarlo._simulate(liquidations, mode, 1.0, step, n_trials, seed)
        tallies = montecarlo._simulate(liquidations, mode, 1.0, below, n_trials, seed)
    counts = _parent_counts(liquidations[:4], mode, 1.0, below, n_trials, seed)
    assert [tally.bankrupt for tally in tallies] == [c[0] for c in counts] + [c[1] for c in counts]


@pytest.mark.filterwarnings("ignore:.*simulated prices were negative")
@pytest.mark.parametrize("noise_sigma", [1e306, 1e307])
def test_at_end_debt_near_the_float_maximum(noise_sigma):
    # A one-day sale owing 1.7e308: at noise 1e307 the totals and their
    # margin overflow, which leaves the point to the direct test without a
    # numpy warning (RuntimeWarnings are errors here); the count is the
    # per-trial count at both levels.
    config = MonteCarloConfig(
        Position(Q=1.0, p0=1.0, L=1.7e308), ImpactParams(Y=1.0, sigma=0.02, V=1e6),
        LiquidationSchedule(Q=1.0, delta_q=1.0, V=1e6), n_trials=200, master_seed=3,
        noise_sigma=noise_sigma,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = bankruptcy_probability(config)
        paths = [simulate_price_path(config, i).prices[1:] for i in range(config.n_trials)]
    expected = sum(daily.sum() < config.position.L for daily in paths)
    assert result.p_bankrupt == expected / config.n_trials


def _parent_bankrupt(mode, liq, daily):
    """The direct bankruptcy test of the per-point loop, for either mode."""
    if mode is BankruptcyMode.AT_END:
        return liq.delta_q * daily.sum(axis=1) < liq.L
    running = np.cumsum(daily, axis=1) * liq.delta_q + liq.q_rem * daily
    return (running < liq.L).any(axis=1)


def _parent_counts(liquidations, mode, p0, step, n_trials, seed):
    """Reference: every point adds, sums and scans its own slice of each trial's walk."""
    horizon = max(len(liq.det) for liq in liquidations)
    counts = [[0, 0, 0] for _ in liquidations]
    for start in range(0, n_trials, _BATCH):
        trials = range(start, min(start + _BATCH, n_trials))
        walk = np.array([np.cumsum(trial_rng(seed, i).standard_normal(horizon)) for i in trials])
        walk *= step
        for liq, count in zip(liquidations, counts):
            offset = walk[:, : len(liq.det)]
            daily = liq.det + offset
            count[0] += int(_parent_bankrupt(mode, liq, daily).sum())
            count[1] += int(_parent_bankrupt(mode, liq, p0 + offset).sum())
            count[2] += int(((daily < 0).sum(axis=1) > 0).sum())
    return counts


def _spy_end_counts(monkeypatch) -> list:
    """Record each AT_END decision as (columns, counts), a column per liquidation of the run.

    Column 1 is a liquidation without impact (every noise-free price p0 = 1,
    so its prices sum to its days), column 0 one with impact.
    """
    calls = []
    real = montecarlo._end_counts

    def spy(terms, prefix, mag):
        counts = real(terms, prefix, mag)
        days, _, det_sum, _ = terms
        calls.append(((det_sum == days).astype(int).tolist(), counts))
        return counts

    monkeypatch.setattr(montecarlo, "_end_counts", spy)
    return calls


def _check_per_point_loop(mode, noise_sigma, count, eta, sigma, n_feasible, runs, monkeypatch):
    """A curve over linspace(0, 0.32, count) counts what the per-point loop counts.

    Also checks that both columns have bankrupt and solvent trials, and that
    AT_END decides the liquidations of both from the totals, in the given
    number of runs per batch.
    """
    lambda0, V, n_trials, seed = 9.0, 1e6, 600, 4242
    grid = np.linspace(0.0, 0.32, count)
    calls = _spy_end_counts(monkeypatch)
    points = transition_curve(
        lambda0, eta, grid, n_trials=n_trials, master_seed=seed, sigma=sigma,
        bankruptcy_mode=mode, noise_sigma=noise_sigma,
    )
    feasible = [pt for pt in points if pt.feasible and pt.calI > 0.0]
    assert len(feasible) == n_feasible
    params = ImpactParams(Y=1.0, sigma=sigma, V=V)
    liquidations = []
    for pt in feasible:
        Q = (pt.calI / sigma) ** 2 * V
        position = Position(Q=Q, p0=1.0, L=Q * (1.0 - 1.0 / lambda0))
        liquidations.append(montecarlo._liquidation(position, params, Q / pt.n_days, pt.n_days))
    step = sigma if noise_sigma is None else noise_sigma
    counts = _parent_counts(liquidations, mode, 1.0, step, n_trials, seed)
    for pt, (bankrupt, bankrupt_noimpact, negative) in zip(feasible, counts):
        assert pt.p_bankrupt == bankrupt / n_trials
        assert pt.p_bankrupt_noimpact == bankrupt_noimpact / n_trials
        assert pt.negative_price_trials == negative
    if noise_sigma is not None:
        assert sum(pt.negative_price_trials for pt in feasible) > 0
    # Both columns count some trials bankrupt and some not.
    for column in ([c[0] for c in counts], [c[1] for c in counts]):
        assert any(0 < k < n_trials for k in column)
    # AT_END decides the points and then their no-impact twins, one call per
    # run and batch; the path-wise test never does.
    if mode is BankruptcyMode.AT_END:
        batches = -(-n_trials // _BATCH)
        assert len(calls) == runs * batches
        columns = [c for columns, _ in calls for c in columns]
        assert columns == ([0] * n_feasible + [1] * n_feasible) * batches
        decided = [k for _, counts in calls for k in counts]
        assert min(decided) >= 0  # no trial lies within a rounding margin
    else:
        assert calls == []


@pytest.mark.filterwarnings("ignore:.*simulated prices were negative")
@pytest.mark.parametrize("mode", list(BankruptcyMode))
@pytest.mark.parametrize("noise_sigma", [None, 0.4])
def test_transition_curve_matches_per_point_loop(mode, noise_sigma, monkeypatch):
    # 60 points and their no-impact twins, decided in two runs: 0.005 to 0.02
    # round below one day.
    _check_per_point_loop(mode, noise_sigma, 65, 10.0, 0.01, 60, 2, monkeypatch)


@pytest.mark.filterwarnings("ignore:.*simulated prices were negative")
@pytest.mark.parametrize("mode", list(BankruptcyMode))
@pytest.mark.parametrize("noise_sigma", [None, 0.4])
def test_transition_curve_matches_per_point_loop_in_runs(mode, noise_sigma, monkeypatch):
    # 125 points of 1 to 10 days, decided in runs of montecarlo._RUN points,
    # at a volatility where a 10-day walk can bankrupt a trial without impact.
    _check_per_point_loop(mode, noise_sigma, 161, 4.0, 0.05, 125, 4, monkeypatch)


@pytest.mark.filterwarnings("ignore:.*simulated prices were negative")
@pytest.mark.parametrize("mode", list(BankruptcyMode))
@pytest.mark.parametrize("noise_sigma", [None, 0.4])
def test_transition_curve_matches_per_point_loop_in_runs_past_run_days(
    mode, noise_sigma, monkeypatch
):
    # 100 points of 1 to 256 days: the runs stay _RUN points wide where the
    # longest horizon is wider than that.
    _check_per_point_loop(mode, noise_sigma, 105, 1.0, 0.02, 100, 4, monkeypatch)


@pytest.mark.parametrize("column", [0, 1], ids=["impact", "no impact"])
def test_at_end_one_point_of_a_batch_falls_back(column, monkeypatch):
    # Six points and their no-impact twins decided in one run, one of which
    # owes exactly a trial's own proceeds in one column: that liquidation, and
    # no other, falls back on the direct test, and every count is the
    # per-trial count.
    n_days, n_trials, seed, k = (5, 9, 14, 20, 30, 45), 40, 77, 11
    sigma, V = 0.02, 1e6
    params = ImpactParams(Y=1.0, sigma=sigma, V=V)
    liquidations, paths = [], []
    for j, days in enumerate(n_days):
        base = make_config(9.0, 0.15, days, n_trials=n_trials, master_seed=seed)
        dq = base.schedule.delta_q
        rows = [
            [simulate_price_path(config, i).prices[1:] for i in range(n_trials)]
            for config in (base, _drift_free(base))
        ]
        L = base.position.L
        if j == 3:
            L = float(dq * rows[column][k].sum())
        liquidations.append(
            montecarlo._liquidation(Position(Q=base.position.Q, p0=1.0, L=L), params, dq, days)
        )
        paths.append((dq, L, rows))
    calls = _spy_end_counts(monkeypatch)
    tallies = montecarlo._simulate(
        _both_columns(liquidations), BankruptcyMode.AT_END, 1.0, sigma, n_trials, seed
    )
    ((columns, counts),) = calls
    assert columns == [0] * 6 + [1] * 6
    assert [j for j, count in enumerate(counts) if count < 0] == [6 * column + 3]
    for tally, plain, (dq, L, rows) in zip(tallies[:6], tallies[6:], paths):
        expected = [sum(dq * daily.sum() < L for daily in trials) for trials in rows]
        assert [tally.bankrupt, plain.bankrupt] == expected
