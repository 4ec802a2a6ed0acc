"""Tests for stochastic liquidation paths and bankruptcy probabilities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impactval import montecarlo
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
    with pytest.raises(ValueError):
        LiquidationSchedule(Q=0.0, delta_q=1.0, V=1.0)
    with pytest.raises(ValueError):
        LiquidationSchedule(Q=1.0, delta_q=0.0, V=1.0)
    with pytest.raises(ValueError):
        LiquidationSchedule(Q=1.0, delta_q=1.0, V=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(9.0, 0.15, 10, n_trials=0)


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


def test_memory_budget_checked_before_allocation():
    # calI = 0.3 at sigma = 2% and eta = 1e-9 asks for a 2.25e11-day horizon:
    # its noise-free price vector alone would take 1.8 TB.
    with pytest.raises(ValueError, match=r"225000000000-day horizon needs [0-9.e+]+ GiB"):
        transition_curve(9.0, 1e-9, [0.3], 10, 1)
    with pytest.raises(ValueError, match="GiB"):
        bankruptcy_probability(make_config(9.0, 0.3, 10**10, n_trials=10))


def test_memory_budget_admits_long_horizon_grid(monkeypatch):
    # The long-horizon benchmark grid (calI to 0.32 at sigma = 1%, eta = 0.1,
    # horizons to 10240 days, 1000 trials) fits in a quarter of the budget.
    horizons = [round((c / 0.01) ** 2 / 0.1) for c in np.linspace(0.0, 0.32, 17)[1:]]
    assert max(horizons) == 10240
    monkeypatch.setattr(montecarlo, "_MEMORY_BUDGET_BYTES", 2**30 // 4)
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


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**64 + 3])
def test_rekeyed_stream_matches_trial_rng(seed):
    indices = (0, 1, _BATCH - 1, _BATCH, 9999)
    batches = list(_cumulative_noise(seed, 10_000, 5, 1.0))
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
