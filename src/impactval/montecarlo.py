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
import operator
import sys
import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np

from .impact import ImpactParams
from .leverage import CURVE_POINT_BYTES, check_memory
from .valuation import Position


class BankruptcyMode(Enum):
    AT_END = "AT_END"
    ANYWHERE_ON_PATH = "ANYWHERE_ON_PATH"


# Checked records subclass a NamedTuple of their fields (see impact.ImpactParams).
class _LiquidationSchedule(NamedTuple):
    Q: float
    delta_q: float
    V: float


class LiquidationSchedule(_LiquidationSchedule):
    """Uniform execution plan: sell delta_q shares per day out of Q total.

    T = Q / delta_q days and eta = delta_q / V (the participation rate)
    are derived, so the identities eta = Q / (V * T) = delta_q / V hold
    exactly.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        for name, value in zip(self._fields, self):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.T == math.inf:
            raise ValueError(f"T = Q / delta_q must be finite, got Q={self.Q}, delta_q={self.delta_q}")

    __init__.__wrapped__ = _LiquidationSchedule.__new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def T(self) -> float:
        return self.Q / self.delta_q

    @property
    def eta(self) -> float:
        return self.delta_q / self.V

    @classmethod
    def from_participation(cls, Q: float, V: float, eta: float) -> "LiquidationSchedule":
        return cls(Q=Q, delta_q=eta * V, V=V)


class _MonteCarloConfig(NamedTuple):
    position: Position
    params: ImpactParams
    schedule: LiquidationSchedule
    n_trials: int
    master_seed: int
    bankruptcy_mode: BankruptcyMode = BankruptcyMode.AT_END
    # None -> background noise at params.sigma; 0.0 gives the deterministic path.
    noise_sigma: float | None = None


class MonteCarloConfig(_MonteCarloConfig):
    """One liquidation to simulate: position, impact, schedule, trials and seed."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        _check_seed(self.master_seed)
        _check_noise_sigma(self.noise_sigma)
        schedule = self.schedule  # repeats position.Q and params.V, which must agree
        if schedule.Q != self.position.Q:
            raise ValueError(f"schedule Q={schedule.Q} differs from position Q={self.position.Q}")
        if schedule.V != self.params.V:
            raise ValueError(f"schedule V={schedule.V} differs from params V={self.params.V}")

    __init__.__wrapped__ = _MonteCarloConfig.__new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def _check_seed(master_seed: int) -> None:
    """The master seed keys a 128-bit Philox, even where no noise is drawn."""
    try:
        valid = 0 <= operator.index(master_seed) < 2**128
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"master_seed must be an integer in [0, 2**128), got {master_seed!r}")


def _check_noise_sigma(noise_sigma: float | None) -> None:
    if noise_sigma is not None and not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")


class MonteCarloResult(NamedTuple):
    """Bankruptcy probability of one configuration, with its standard error."""

    p_bankrupt: float
    std_error: float
    n_trials: int
    negative_price_trials: int


class PricePath(NamedTuple):
    """One simulated liquidation: daily prices and total proceeds for a single trial."""

    prices: np.ndarray  # length T+1, prices[0] = p0
    total_proceeds: float  # delta_q * sum(prices[1:])
    negative_steps: int


class TransitionPoint(NamedTuple):
    """One calI of a transition curve: bankruptcy probability with and without impact."""

    calI: float
    p_bankrupt: float
    std_error: float
    p_bankrupt_noimpact: float
    feasible: bool = True
    n_days: int = 0
    negative_price_trials: int = 0


class FittedTransition(NamedTuple):
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


def _noise_scale(sigma: float, noise_sigma: float | None) -> float:
    """Daily noise level: the asset's volatility unless noise_sigma overrides it."""
    return sigma if noise_sigma is None else noise_sigma


class _Liquidation(NamedTuple):
    """One liquidation as the kernel tests it: noise-free prices, schedule, debt, AT_END terms."""

    det: np.ndarray  # noise-free daily prices p0 * (1 - I(s(t))) for t = 1..T
    q_rem: np.ndarray  # shares still held after each day
    delta_q: float
    L: float
    threshold: float  # L / delta_q, or nan (see _liquidation)
    det_sum: float  # fsum of det, or nan (see _liquidation)
    det_abs: float  # sum of |det|
    det_min: float


def _liquidation(
    position: Position, params: ImpactParams, delta_q: float, n_days: int
) -> _Liquidation:
    """Sell delta_q shares a day for n_days: noise-free path, holdings and AT_END terms.

    A threshold or debt below the normal range, or an infinite threshold, is
    not rounded to a relative error, and fsum fails on a sum that overflows;
    such a term is nan, so the AT_END test of that liquidation always runs
    directly (_end_counts).
    """
    sold = np.arange(1, n_days + 1, dtype=np.float64) * delta_q
    impact = params.Y * params.sigma * np.sqrt(sold / params.V)
    det = position.p0 * (1.0 - impact)
    L = position.L
    threshold = L / delta_q
    if not (sys.float_info.min <= threshold < math.inf and L >= sys.float_info.min):
        threshold = math.nan
    try:
        det_sum = math.fsum(memoryview(det))  # floats one at a time, not a list of them
    except OverflowError:
        det_sum = math.nan
    q_rem = np.maximum(position.Q - sold, 0.0)
    det_abs = float(np.abs(det).sum())
    return _Liquidation(det, q_rem, delta_q, L, threshold, det_sum, det_abs, float(det.min()))


def _without_impact(liquidations: "list[_Liquidation]", p0: float) -> "list[_Liquidation]":
    """The same liquidations with the impact drift switched off: every noise-free price is p0.

    The prices are views of one broadcast p0, one per horizon, and the
    holdings are shared, so _check_memory's charges still hold.  n_days * p0
    is the correctly rounded sum of n_days copies of p0, as fsum gives it.
    """
    horizons = {len(liq.det) for liq in liquidations}
    prices = np.broadcast_to(p0, max(horizons))
    fields = {n: dict(det=prices[:n], det_sum=n * p0, det_abs=n * p0, det_min=p0) for n in horizons}
    return [liq._replace(**fields[len(liq.det)]) for liq in liquidations]


def simulate_price_path(config: MonteCarloConfig, trial_index: int) -> PricePath:
    """Price path and proceeds for one trial, deterministic given (seed, index)."""
    n_days = _n_days(config.schedule)
    p0 = config.position.p0
    liq = _liquidation(config.position, config.params, config.schedule.delta_q, n_days)
    scale = _noise_scale(config.params.sigma, config.noise_sigma)
    daily = liq.det
    if scale > 0.0:
        noise = trial_rng(config.master_seed, trial_index).standard_normal(n_days)
        daily = daily + p0 * scale * np.cumsum(noise)
    prices = np.concatenate(([p0], daily))
    return PricePath(
        prices=prices,
        total_proceeds=float((liq.delta_q * daily).sum()),
        negative_steps=int((prices < 0).sum()),
    )


class _Tally:
    """Counts over all trials for one liquidation."""

    __slots__ = ("bankrupt", "negative_trials", "negative_steps")

    def __init__(self) -> None:
        self.bankrupt = self.negative_trials = self.negative_steps = 0


def _path_bankrupt(liq: _Liquidation, daily: np.ndarray) -> np.ndarray:
    """Path-wise bankruptcy test over a (trials, days) price matrix.

    A trial is bankrupt when, on some day, the proceeds so far plus the
    remaining position at that day's price fall short of the debt.
    """
    running = np.cumsum(daily, axis=1)
    running *= liq.delta_q
    running += liq.q_rem * daily
    return (running < liq.L).any(axis=1)


def _end_bankrupt(liq: _Liquidation, daily: np.ndarray) -> np.ndarray:
    """AT_END bankruptcy test over a (trials, days) price matrix: proceeds below the debt."""
    return liq.delta_q * daily.sum(axis=1) < liq.L


# 2**-52, twice the unit roundoff of a float64.
_EPS = 2.0**-52
# Safety factor of the AT_END decision margin over the rounding error it covers (>= 4).
_MARGIN_FACTOR = 4.0


def _end_counts(terms: "list[np.ndarray]", prefix: np.ndarray, mag: float) -> "list[int]":
    """Bankrupt trials of one batch at each point of a run; -1 where the totals do not decide.

    terms holds the run's n_days, threshold, det_sum and det_abs arrays,
    prefix each trial's running sums of its walk offsets and mag the
    largest |offset| in the batch.  The direct test rounds each det +
    offset and sums the row; the total here sums the offsets and det apart
    (det_sum, det_abs: the sum of det and of |det|).  Each sum is off from
    the exact one by at most about (n_days + 1) * eps/2 * (sum |det| +
    n_days * mag) (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 4.2), a bound that holds for any mag at least as large as
    the trial's own, and comparing delta_q * total with L rather than total
    with L / delta_q moves the threshold by about eps * |L / delta_q|.
    Where the trial nearest a point's threshold lies farther from it than
    _MARGIN_FACTOR times the sum of these, both decide alike and the count
    is taken from the totals; otherwise the point needs the direct test.
    """
    days, threshold, det_sum, det_abs = terms
    total = prefix[:, days - 1]
    total += det_sum
    counts = np.count_nonzero(total < threshold, axis=0)
    total -= threshold
    np.abs(total, out=total)
    margin = _MARGIN_FACTOR * (days + 4) * _EPS * (mag * days + det_abs + threshold)
    # Written so that a nan total, threshold or margin leaves its point undecided.
    decided = total.min(axis=0) > margin
    return np.where(decided, counts, -1).tolist()


# Trials per vectorized batch; bounds the noise matrix to a few megabytes.
_BATCH = 512

# Float arrays of (batch, horizon) alive at once in _simulate.  The path-wise
# test holds the walk, the point's prices and the last point's, the running
# proceeds and one product.  AT_END holds the walk and its prefix sums
# throughout, and beside them at most three more: while it decides a run of
# points, the run's totals and their bankrupt mask (one column per point) and
# the last point's prices; then those and each point's own, built only where
# the direct test or the negative-price count needs them; and while the next
# batch is drawn, the last point's prices and the new noise matrix.
_BATCH_ARRAYS = 5
# Grid points the AT_END decision takes at once, which bounds its totals on an
# 800k-point grid.  On 2000 two-day points (10k trials, 2-core VM) widths 64
# and 256 took 0.34-0.49 s, 2000 took 0.39-0.59 s and 16 took 0.50-0.66 s.
_RUN = 64


def _check_memory(horizons: "list[int]", n_trials: int) -> None:
    """Refuse a simulation whose arrays would not fit in the memory budget.

    Each grid point costs CURVE_POINT_BYTES of Python objects, and each
    liquidation keeps two float vectors of its horizon (noise-free prices
    and shares held); one trial's normals are drawn into a vector of the
    longest horizon, and the batch loop holds _BATCH_ARRAYS float matrices
    of (trials per batch, longest horizon).  The AT_END decision holds a
    run's totals and their bankrupt mask, within two matrices of (trials per
    batch, up to _RUN points).  From a horizon of _RUN days on they are no
    wider than the walk and count among those matrices; below it they can be
    wider, so only then are they charged on their own.  The message names
    the grid size or the longest horizon, whichever needs more.
    """
    horizon = max(horizons)
    points = CURVE_POINT_BYTES * len(horizons)
    batch = min(_BATCH, n_trials)
    decision = 2 * batch * min(len(horizons), _RUN) if horizon < _RUN else 0
    arrays = 8 * (2 * sum(horizons) + horizon + _BATCH_ARRAYS * batch * horizon + decision)
    what = f"a {len(horizons)}-point grid" if points > arrays else f"a {horizon:.3g}-day horizon"
    check_memory(points + arrays, what)


def _cumulative_noise(master_seed: int, n_trials: int, horizon: int, step: float):
    """Random-walk offsets step * cumsum(n) per trial, in (trials, horizon) batches.

    Row i of the batch starting at trial s is drawn from the stream
    trial_rng(master_seed, s + i).  One Philox is moved to each trial by
    assigning its state, which gives the same draws without building a
    stream per trial.  The state holds Python ints, which the setter reads
    faster than numpy arrays, and each trial is drawn straight into its row.
    """
    bitgen = np.random.Philox(key=master_seed)
    draw = np.random.Generator(bitgen).standard_normal
    initial = bitgen.state  # counter zero, empty output buffer
    counter = [0, 0, 0, 0]
    state = {
        **initial,
        "state": {"counter": counter, "key": initial["state"]["key"].tolist()},
        "buffer": initial["buffer"].tolist(),
    }
    for start in range(0, n_trials, _BATCH):
        noise = np.empty((min(_BATCH, n_trials - start), horizon), dtype=np.float64)
        for index, row in enumerate(noise, start):
            counter[2] = index
            bitgen.state = state
            draw(out=row)
        np.cumsum(noise, axis=1, out=noise)
        with np.errstate(over="ignore"):  # _simulate refuses a walk that overflows
            noise *= step
        yield noise


def _simulate(
    liquidations: "list[_Liquidation]",
    mode: BankruptcyMode,
    p0: float,
    noise_scale: float,
    n_trials: int,
    master_seed: int,
) -> list[_Tally]:
    """Bankruptcy and negative-price counts for each liquidation, on shared noise.

    Each trial's normals are drawn once, at the longest horizon, and every
    liquidation uses the prefix its own horizon needs; a prefix of a stream
    equals a shorter draw from it, so each count is what drawing per point
    would give.  The walk's daily step is p0 * noise_scale.

    AT_END takes one prefix sum of the walk per batch and decides the
    points _RUN at a time from the trials' running totals, where each
    total is clear of the threshold by more than any rounding could move it
    (_end_counts).  Any other point runs the direct test on the batch.
    Either way each count is the direct test's count.

    Impact only lowers a price, so with its offset every price is at most
    p0 + mag or -det_min + mag in magnitude (mag the largest |offset| in the
    batch).  A test sums n_days prices, or the proceeds and the holdings
    (at most n_days * delta_q shares) times a price, so no sum exceeds twice
    n_days * max(1, delta_q) * (that magnitude).  A batch that takes this
    past half the float maximum raises ValueError: its sums could overflow,
    or its walk already has, and its counts would describe the overflow.
    """
    horizon = max(len(liq.det) for liq in liquidations)
    reach = max(len(liq.det) * max(1.0, liq.delta_q) for liq in liquidations)
    size = max(p0, -min(liq.det_min for liq in liquidations))
    limit = sys.float_info.max / (4.0 * reach) - size
    if noise_scale > 0.0:
        walks = _cumulative_noise(master_seed, n_trials, horizon, p0 * noise_scale)
        batches = ((1, walk) for walk in walks)
    else:
        # The noise-free path: one row that stands for every trial.
        batches = [(n_trials, np.zeros((1, horizon)))]
    at_end = mode is BankruptcyMode.AT_END
    test = _end_bankrupt if at_end else _path_bankrupt
    tallies = [_Tally() for _ in liquidations]
    # Each point's AT_END terms, gathered once rather than per batch.
    terms = [np.array([len(liq.det) for liq in liquidations])] + [
        np.array([getattr(liq, name) for liq in liquidations])
        for name in ("threshold", "det_sum", "det_abs")
    ]
    for weight, walk in batches:
        lowest = float(walk.min())
        mag = max(float(walk.max()), -lowest)
        if mag and not mag < limit:  # also an infinite or nan walk; never the noise-free one
            raise ValueError(
                f"the random walk overflows at a daily noise level of {noise_scale!r}"
            )
        prefix = None  # freed before the next sums are built, which measured faster
        if at_end:
            prefix = np.cumsum(walk, axis=1)
        for lo in range(0, len(liquidations), _RUN):
            run = liquidations[lo : lo + _RUN]
            counts = [-1] * len(run)
            if at_end:
                counts = _end_counts([term[lo : lo + _RUN] for term in terms], prefix, mag)
            for liq, tally, k in zip(run, tallies[lo : lo + _RUN], counts):
                # Rounding is monotone, so no price is below this sum rounded.
                negative = lowest + liq.det_min <= 0.0
                if k < 0 or negative:
                    # Built before the last prices are freed: freeing them first
                    # fragmented the heap, 13 MB more peak RSS on a 10240-day grid.
                    daily = liq.det + walk[:, : len(liq.det)]
                    if negative:
                        steps = (daily < 0).sum(axis=1)
                        tally.negative_trials += weight * int((steps > 0).sum())
                        tally.negative_steps += weight * int(steps.sum())
                    if k < 0:
                        k = int(test(liq, daily).sum())
                tally.bankrupt += weight * k
    return tallies


def _estimate(tally: _Tally, n_trials: int, n_days: int, where: str = "") -> tuple[float, float]:
    """Bankrupt fraction and its standard error; warns when many simulated prices were negative."""
    total_steps = n_trials * n_days
    if tally.negative_steps > 0.001 * total_steps:
        warnings.warn(
            f"{where}{tally.negative_steps}/{total_steps} simulated prices were negative; "
            "the Gaussian noise model is being stretched",
            stacklevel=3,
        )
    p = tally.bankrupt / n_trials
    return p, math.sqrt(p * (1.0 - p) / n_trials)


def bankruptcy_probability(config: MonteCarloConfig) -> MonteCarloResult:
    """Fraction of simulated liquidations whose proceeds fall short of the debt.

    AT_END counts a trial bankrupt iff total proceeds < L; ANYWHERE_ON_PATH
    additionally probes each day's proceeds-so-far plus the remaining
    position at that day's price.
    """
    n_days = _n_days(config.schedule)
    _check_memory([n_days], config.n_trials)
    liq = _liquidation(config.position, config.params, config.schedule.delta_q, n_days)
    scale = _noise_scale(config.params.sigma, config.noise_sigma)
    (tally,) = _simulate(
        [liq], config.bankruptcy_mode, config.position.p0, scale, config.n_trials, config.master_seed
    )
    p, std_error = _estimate(tally, config.n_trials, n_days)
    return MonteCarloResult(
        p_bankrupt=p,
        std_error=std_error,
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
    if not 1.0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 must be > 1 and finite, got {lambda0}")
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not (0.0 < Y < math.inf and 0.0 < sigma < math.inf):
        raise ValueError(f"Y and sigma must be positive and finite, got Y={Y}, sigma={sigma}")
    if not 0.0 < Y * sigma < math.inf:
        raise ValueError(f"Y * sigma must be positive and finite, got Y={Y}, sigma={sigma}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    _check_seed(master_seed)
    _check_noise_sigma(noise_sigma)
    V, p0 = 1e6, 1.0
    horizons = []  # whole days per point; 0 at calI = 0 and where the horizon rounds to 0
    feasible = []  # (Q / V, whole days) of each point with a horizon of a day or more
    for cal_i in calI_grid:
        if not 0.0 <= cal_i < math.inf:
            raise ValueError(f"calI must be non-negative and finite, got {cal_i}")
        try:  # the power, or round() of an infinite horizon
            size = (cal_i / (Y * sigma)) ** 2
            n_days = round(size / eta)
        except OverflowError:
            raise ValueError(
                f"calI={cal_i!r} needs an infinite horizon at Y={Y}, sigma={sigma}, eta={eta}"
            ) from None
        if n_days >= 1:
            if size * V == math.inf:
                raise ValueError(
                    f"calI={cal_i!r} needs an infinite position size at Y={Y}, sigma={sigma}"
                )
            feasible.append((size, n_days))
        horizons.append(n_days)
    tallies = []
    if feasible:
        _check_memory([n for _, n in feasible], n_trials)
        params = ImpactParams(Y=Y, sigma=sigma, V=V)
        liquidations = []
        for size, n_days in feasible:
            Q = size * V
            position = Position(Q=Q, p0=p0, L=Q * p0 * (1.0 - 1.0 / lambda0))
            liquidations.append(_liquidation(position, params, Q / n_days, n_days))
        liquidations += _without_impact(liquidations, p0)
        scale = _noise_scale(sigma, noise_sigma)
        tallies = _simulate(liquidations, bankruptcy_mode, p0, scale, n_trials, master_seed)
        del liquidations  # the points reuse their memory: the peak stays within CURVE_POINT_BYTES
    pairs = zip(tallies[: len(feasible)], tallies[len(feasible) :])
    points = []
    for cal_i, n_days in zip(calI_grid, horizons):
        cal_i = float(cal_i)
        if cal_i == 0.0:
            point = TransitionPoint(0.0, 0.0, 0.0, 0.0)
        elif n_days < 1:
            point = TransitionPoint(cal_i, math.nan, math.nan, math.nan, feasible=False)
        else:
            tally, no_impact = next(pairs)
            p, std_error = _estimate(tally, n_trials, n_days, f"calI={cal_i!r}: ")
            point = TransitionPoint(
                cal_i,
                p,
                std_error=std_error,
                p_bankrupt_noimpact=no_impact.bankrupt / n_trials,
                n_days=n_days,
                negative_price_trials=tally.negative_trials,
            )
        points.append(point)
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
    header = ["calI", "p_bankrupt", "std_error", "p_bankrupt_noimpact"]
    return [header] + [[repr(getattr(pt, name)) for name in header] for pt in points]
