"""Stochastic liquidation paths and bankruptcy-probability estimation.

Prices during a T-day liquidation follow a discrete random walk whose
drift is the daily increment of expected impact.  Writing s(t) for the
shares sold by day t (s(t) = t * delta_q):

    p(t+1) = p(t) - p0 * [I(s(t) + delta_q) - I(s(t))] + p0 * sigma * n(t)

with n(t) i.i.d. standard Gaussian.  With the noise suppressed the final
price is exactly p0 * (1 - I(Q)).  The drift is scaled by p0 so the
recursion is dimensionally consistent for any price level.

Trials draw from splittable counter-based streams (Philox keyed on the
master seed, one counter block per trial), so results are bit-identical
regardless of execution order or parallelism.  A transition curve draws
each trial's noise once, at its longest horizon, and every grid point
uses the prefix its own horizon needs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .impact import ImpactParams, expected_impact
from .valuation import Position


class BankruptcyMode(Enum):
    AT_END = "AT_END"
    ANYWHERE_ON_PATH = "ANYWHERE_ON_PATH"


@dataclass(frozen=True)
class LiquidationSchedule:
    """Uniform execution plan: sell delta_q shares per day out of Q total.

    T = Q / delta_q days and eta = delta_q / V (the participation rate)
    are derived, so the identities eta = Q / (V * T) = delta_q / V hold
    exactly.
    """

    Q: float
    delta_q: float
    V: float

    def __post_init__(self) -> None:
        if self.Q <= 0.0:
            raise ValueError(f"Q must be positive, got {self.Q}")
        if self.delta_q <= 0.0:
            raise ValueError(f"delta_q must be positive, got {self.delta_q}")
        if self.V <= 0.0:
            raise ValueError(f"V must be positive, got {self.V}")

    @property
    def T(self) -> float:
        return self.Q / self.delta_q

    @property
    def eta(self) -> float:
        return self.delta_q / self.V

    @classmethod
    def from_participation(cls, Q: float, V: float, eta: float) -> "LiquidationSchedule":
        return cls(Q=Q, delta_q=eta * V, V=V)


@dataclass(frozen=True)
class MonteCarloConfig:
    position: Position
    params: ImpactParams
    schedule: LiquidationSchedule
    n_trials: int
    master_seed: int
    bankruptcy_mode: BankruptcyMode = BankruptcyMode.AT_END
    # None -> background noise at params.sigma; 0.0 gives the deterministic path.
    noise_sigma: float | None = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        _check_noise_sigma(self.noise_sigma)


def _check_noise_sigma(noise_sigma: float | None) -> None:
    if noise_sigma is not None and not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")


@dataclass(frozen=True)
class MonteCarloResult:
    p_bankrupt: float
    std_error: float
    n_trials: int
    negative_price_trials: int


@dataclass(frozen=True)
class PricePath:
    """One simulated liquidation: daily prices and proceeds for a single trial."""

    prices: np.ndarray  # length T+1, prices[0] = p0
    proceeds: np.ndarray  # length T, delta_q * prices[1:]
    total_proceeds: float
    negative_steps: int


@dataclass(frozen=True)
class TransitionPoint:
    calI: float
    p_bankrupt: float
    std_error: float
    p_bankrupt_noimpact: float
    feasible: bool = True
    n_days: int = 0
    negative_price_trials: int = 0


@dataclass(frozen=True)
class FittedTransition:
    """Probit fit p = Phi(slope * (calI - center)) to a transition curve."""

    center: float
    width: float  # calI span between fitted p = 0.1 and p = 0.9
    slope: float


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one trial.

    Philox keyed on the master seed with the trial index in counter word 2:
    the stream ``Philox(key=master_seed).jumped(trial_index)`` yields.
    """
    counter = np.array([0, 0, trial_index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=master_seed, counter=counter))


def _n_days(schedule: LiquidationSchedule) -> int:
    t = schedule.T
    n = round(t)
    if n < 1 or abs(t - n) > 1e-9:
        raise ValueError(f"schedule must cover a whole number of days, got T={t}")
    return n


def _deterministic_prices(config: MonteCarloConfig, n_days: int) -> np.ndarray:
    """Noise-free daily prices p0 * (1 - I(s(t))) for t = 1..T."""
    p0 = config.position.p0
    sold = np.arange(1, n_days + 1, dtype=np.float64) * config.schedule.delta_q
    params = config.params
    impact = params.Y * params.sigma * np.sqrt(sold / params.V)
    return p0 * (1.0 - impact)


def _noise_scale(config: MonteCarloConfig) -> float:
    return config.params.sigma if config.noise_sigma is None else config.noise_sigma


def simulate_price_path(config: MonteCarloConfig, trial_index: int) -> PricePath:
    """Price path and proceeds for one trial, deterministic given (seed, index)."""
    n_days = _n_days(config.schedule)
    p0 = config.position.p0
    det = _deterministic_prices(config, n_days)
    scale = _noise_scale(config)
    if scale > 0.0:
        noise = trial_rng(config.master_seed, trial_index).standard_normal(n_days)
        daily = det + p0 * scale * np.cumsum(noise)
    else:
        daily = det
    prices = np.concatenate(([p0], daily))
    proceeds = config.schedule.delta_q * daily
    return PricePath(
        prices=prices,
        proceeds=proceeds,
        total_proceeds=float(proceeds.sum()),
        negative_steps=int((prices < 0).sum()),
    )


@dataclass(frozen=True)
class _Liquidation:
    """One liquidation as the kernel tests it: noise-free prices, schedule and debt."""

    det: np.ndarray  # noise-free daily prices for t = 1..T
    q_rem: np.ndarray  # shares still held after each day
    delta_q: float
    L: float


def _liquidation(config: MonteCarloConfig, n_days: int) -> _Liquidation:
    dq = config.schedule.delta_q
    q_rem = np.maximum(config.position.Q - np.arange(1, n_days + 1) * dq, 0.0)
    return _Liquidation(_deterministic_prices(config, n_days), q_rem, dq, config.position.L)


@dataclass
class _Tally:
    """Counts over all trials for one liquidation."""

    bankrupt: int = 0
    bankrupt_noimpact: int = 0
    negative_trials: int = 0
    negative_steps: int = 0


def _bankrupt_mask(mode: BankruptcyMode, liq: _Liquidation, daily: np.ndarray) -> np.ndarray:
    """Bankruptcy test over a (trials, days) price matrix.

    AT_END compares total proceeds with the debt; ANYWHERE_ON_PATH also
    probes each day's proceeds-so-far plus the remaining position at that
    day's price.
    """
    if mode is BankruptcyMode.AT_END:
        return liq.delta_q * daily.sum(axis=1) < liq.L
    running = np.cumsum(daily, axis=1)
    running *= liq.delta_q
    running += liq.q_rem * daily
    return (running < liq.L).any(axis=1)


# Trials per vectorized batch; bounds the noise matrix to a few megabytes.
_BATCH = 512

# Largest working set a simulation may ask for, checked before any array is built.
_MEMORY_BUDGET_BYTES = 1 << 30
# Float arrays of (batch, horizon) alive at once in _simulate: the walk, the
# point's prices, and in the path-wise test with the no-impact companion the
# no-impact prices, the running proceeds and one product.
_BATCH_ARRAYS = 5


def _check_memory(horizons: "list[int]", n_trials: int) -> None:
    """Refuse a simulation whose arrays would not fit in the memory budget.

    Each liquidation keeps two float vectors of its horizon (noise-free
    prices and shares held); the batch loop holds _BATCH_ARRAYS float
    matrices of (trials per batch, longest horizon).
    """
    horizon = max(horizons)
    needed = 8 * (2 * sum(horizons) + _BATCH_ARRAYS * min(_BATCH, n_trials) * horizon)
    if needed > _MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"a {horizon}-day horizon needs {needed / 2**30:.3g} GiB of memory, "
            f"over the {_MEMORY_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )


def _cumulative_noise(master_seed: int, n_trials: int, horizon: int, step: float):
    """Random-walk offsets step * cumsum(n) per trial, in (trials, horizon) batches.

    Row i of the batch starting at trial s is drawn from the stream
    trial_rng(master_seed, s + i).  One Philox is moved to each trial by
    assigning its counter, which gives the same draws without building a
    stream per trial.
    """
    bitgen = np.random.Philox(key=master_seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter zero, empty output buffer
    counter = state["state"]["counter"]
    for start in range(0, n_trials, _BATCH):
        count = min(_BATCH, n_trials - start)
        noise = np.empty((count, horizon), dtype=np.float64)
        for i in range(count):
            counter[2] = start + i
            bitgen.state = state
            gen.standard_normal(horizon, out=noise[i])
        np.cumsum(noise, axis=1, out=noise)
        noise *= step
        yield noise


def _simulate(
    liquidations: "list[_Liquidation]",
    mode: BankruptcyMode,
    p0: float,
    noise_scale: float,
    n_trials: int,
    master_seed: int,
    *,
    noimpact: bool = False,
) -> list[_Tally]:
    """Bankruptcy and negative-price counts for each liquidation, on shared noise.

    Each trial's normals are drawn once, at the longest horizon, and every
    liquidation uses the prefix its own horizon needs; a prefix of a stream
    equals a shorter draw from it, so each count is what drawing per point
    would give.  With noimpact, each trial is also tested with the impact
    drift switched off (prices p0 plus the same noise).
    """
    horizon = max(len(liq.det) for liq in liquidations)
    if noise_scale > 0.0:
        walks = _cumulative_noise(master_seed, n_trials, horizon, p0 * noise_scale)
        batches = ((1, walk) for walk in walks)
    else:
        # The noise-free path: one row that stands for every trial.
        batches = [(n_trials, np.zeros((1, horizon)))]
    tallies = [_Tally() for _ in liquidations]
    for weight, walk in batches:
        for liq, tally in zip(liquidations, tallies):
            offset = walk[:, : len(liq.det)]
            daily = liq.det + offset
            tally.bankrupt += weight * int(_bankrupt_mask(mode, liq, daily).sum())
            negative = (daily < 0).sum(axis=1)
            tally.negative_trials += weight * int((negative > 0).sum())
            tally.negative_steps += weight * int(negative.sum())
            if noimpact:
                tally.bankrupt_noimpact += weight * int(_bankrupt_mask(mode, liq, p0 + offset).sum())
    return tallies


def _warn_negative(tally: _Tally, total_steps: int, where: str = "") -> None:
    if tally.negative_steps > 0.001 * total_steps:
        warnings.warn(
            f"{where}{tally.negative_steps}/{total_steps} simulated prices were negative; "
            "the Gaussian noise model is being stretched",
            stacklevel=3,
        )


def bankruptcy_probability(config: MonteCarloConfig) -> MonteCarloResult:
    """Fraction of simulated liquidations whose proceeds fall short of the debt.

    AT_END counts a trial bankrupt iff total proceeds < L; ANYWHERE_ON_PATH
    additionally probes each day's proceeds-so-far plus the remaining
    position at that day's price.
    """
    n_days = _n_days(config.schedule)
    _check_memory([n_days], config.n_trials)
    (tally,) = _simulate(
        [_liquidation(config, n_days)],
        config.bankruptcy_mode,
        config.position.p0,
        _noise_scale(config),
        config.n_trials,
        config.master_seed,
    )
    _warn_negative(tally, config.n_trials * n_days)
    p = tally.bankrupt / config.n_trials
    return MonteCarloResult(
        p_bankrupt=p,
        std_error=math.sqrt(p * (1.0 - p) / config.n_trials),
        n_trials=config.n_trials,
        negative_price_trials=tally.negative_trials,
    )


def transition_curve(
    lambda0: float,
    eta: float,
    calI_grid: "list[float] | np.ndarray",
    n_trials: int,
    master_seed: int,
    *,
    Y: float = 1.0,
    sigma: float = 0.02,
    bankruptcy_mode: BankruptcyMode = BankruptcyMode.AT_END,
    noise_sigma: float | None = None,
) -> list[TransitionPoint]:
    """Bankruptcy probability versus total impact at fixed leverage and aggressivity.

    For each calI on the grid, sigma, V = 1e6 and p0 = 1 are held fixed (V
    and p0 scale proceeds and debt alike, so the curve does not depend on
    them), the position size is solved from calI = Y * sigma * sqrt(Q/V)
    and the horizon from eta = Q / (V * T), rounded to a whole number of
    days (points whose horizon rounds below one day are infeasible).  Each
    point also carries the companion probability with the impact drift
    switched off, computed on the same noise draws.  Trial i uses the same
    draws at every point, each point the prefix its horizon needs.
    """
    if len(calI_grid) == 0:
        raise ValueError("calI grid must be non-empty")
    if lambda0 <= 1.0:
        raise ValueError(f"lambda0 must be > 1, got {lambda0}")
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if Y <= 0.0 or sigma <= 0.0:
        raise ValueError(f"Y and sigma must be positive, got Y={Y}, sigma={sigma}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    _check_noise_sigma(noise_sigma)
    V, p0 = 1e6, 1.0
    points: list[TransitionPoint] = []
    feasible: list[tuple[int, MonteCarloConfig]] = []  # (index into points, config)
    for cal_i in calI_grid:
        if cal_i < 0.0:
            raise ValueError(f"calI must be non-negative, got {cal_i}")
        if cal_i == 0.0:
            points.append(TransitionPoint(0.0, 0.0, 0.0, 0.0))
            continue
        q_over_v = (cal_i / (Y * sigma)) ** 2
        n_days = round(q_over_v / eta)
        if n_days < 1:
            points.append(
                TransitionPoint(float(cal_i), math.nan, math.nan, math.nan, feasible=False)
            )
            continue
        Q = q_over_v * V
        L = Q * p0 * (1.0 - 1.0 / lambda0)
        config = MonteCarloConfig(
            position=Position(Q=Q, p0=p0, L=L),
            params=ImpactParams(Y=Y, sigma=sigma, V=V),
            schedule=LiquidationSchedule(Q=Q, delta_q=Q / n_days, V=V),
            n_trials=n_trials,
            master_seed=master_seed,
            bankruptcy_mode=bankruptcy_mode,
            noise_sigma=noise_sigma,
        )
        feasible.append((len(points), config))
        # Probabilities are filled in from the kernel's counts below.
        points.append(
            TransitionPoint(float(cal_i), math.nan, math.nan, math.nan, n_days=n_days)
        )
    if not feasible:
        return points
    horizons = [points[k].n_days for k, _ in feasible]
    _check_memory(horizons, n_trials)
    noise_scale = sigma if noise_sigma is None else noise_sigma
    tallies = _simulate(
        [_liquidation(config, n) for (_, config), n in zip(feasible, horizons)],
        bankruptcy_mode,
        p0,
        noise_scale,
        n_trials,
        master_seed,
        noimpact=True,
    )
    for (k, _), tally in zip(feasible, tallies):
        pt = points[k]
        _warn_negative(tally, n_trials * pt.n_days, f"calI={pt.calI!r}: ")
        p = tally.bankrupt / n_trials
        points[k] = replace(
            pt,
            p_bankrupt=p,
            std_error=math.sqrt(p * (1.0 - p) / n_trials),
            p_bankrupt_noimpact=tally.bankrupt_noimpact / n_trials,
            negative_price_trials=tally.negative_trials,
        )
    return points


_PROBIT_SPAN = 2.5631031310892007  # z(0.9) - z(0.1)
# Smallest rise of the fitted p across the sampled calI range that counts as a transition.
_MIN_RISE = 1e-6


def _probit_terms(data: "list[tuple[float, float]]", slope: float, center: float) -> tuple:
    """Sum of squares, normal matrix (a, b; b, d) and J'r of p = Phi(slope * (x - center))."""
    sse = a = b = d = g_slope = g_center = 0.0
    for x, p in data:
        z = slope * (x - center)
        r = 0.5 * math.erfc(-z / math.sqrt(2.0)) - p
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        j_slope, j_center = density * (x - center), -density * slope
        sse += r * r
        a += j_slope * j_slope
        b += j_slope * j_center
        d += j_center * j_center
        g_slope += j_slope * r
        g_center += j_center * r
    return sse, a, b, d, g_slope, g_center


def fit_transition(calIs: np.ndarray, ps: np.ndarray) -> FittedTransition:
    """Least-squares probit fit to a (calI, p_bankrupt) curve.

    The fitted sigmoid defines the transition center (p = 0.5 crossing) and
    width (calI span between p = 0.1 and p = 0.9) even when the sampled
    curve itself never reaches those levels.  Gauss-Newton on (slope,
    center) halves each step until the sum of squares does not rise and
    stops once a step moves the slope by at most 1e-10 of itself and the
    center by at most 1e-10/slope.  Singular normal equations, no
    convergence in 100 steps, a slope that is not positive or a fitted p
    that rises by less than 1e-6 across the calI range raise ValueError; a
    step, a flat or an all-zero curve does, and so can pure noise.
    """
    calIs = np.asarray(calIs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    keep = ~np.isnan(ps)
    calIs, ps = calIs[keep], ps[keep]
    if len(calIs) < 3:
        raise ValueError("need at least 3 finite points to fit a transition")

    center = float(np.interp(0.5, np.clip(ps, 1e-6, 1 - 1e-6), calIs))
    slope = 4.0 / max(float(calIs.max() - calIs.min()), 1e-6)
    data = list(zip(calIs.tolist(), ps.tolist()))
    terms = _probit_terms(data, slope, center)
    for _ in range(100):
        cost, a, b, d, g_slope, g_center = terms
        det = a * d - b * b
        # Singular to working precision (or nan); above the bound both steps are finite.
        if not det > 1e-12 * a * d:
            raise ValueError("cannot fit a transition: the normal equations are singular")
        step_slope = (b * g_center - d * g_slope) / det
        step_center = (b * g_slope - a * g_center) / det
        # The halving ends at the latest when the step no longer moves either parameter.
        while (terms := _probit_terms(data, slope + step_slope, center + step_center))[0] > cost:
            step_slope, step_center = 0.5 * step_slope, 0.5 * step_center
        slope, center = slope + step_slope, center + step_center
        if abs(step_slope) <= 1e-10 * abs(slope) and abs(step_center * slope) <= 1e-10:
            break
    else:
        raise ValueError("cannot fit a transition: no convergence in 100 steps")
    if slope <= 0.0:
        raise ValueError(f"cannot fit a transition: fitted slope {slope!r} is not positive")
    rise = 0.5 * (
        math.erf(slope * (calIs.max() - center) / math.sqrt(2.0))
        - math.erf(slope * (calIs.min() - center) / math.sqrt(2.0))
    )
    if rise < _MIN_RISE:
        raise ValueError(
            f"cannot fit a transition: the fitted p rises by {rise!r} across the calI range"
        )
    return FittedTransition(center=center, width=_PROBIT_SPAN / slope, slope=slope)


def transition_csv_rows(points: "list[TransitionPoint]") -> list[list[str]]:
    """CSV payload: calI, p_bankrupt, std_error, p_bankrupt_noimpact (nan = infeasible)."""
    rows = [["calI", "p_bankrupt", "std_error", "p_bankrupt_noimpact"]]
    for pt in points:
        rows.append(
            [repr(pt.calI), repr(pt.p_bankrupt), repr(pt.std_error), repr(pt.p_bankrupt_noimpact)]
        )
    return rows
