"""Leverage along entry and exit paths, and the critical-leverage analysis.

Mark-to-market leverage of a position sold down under square-root impact
follows, with x the liquidated fraction and calI = I(Q) the full-position
impact:

    lambda(x) = lambda0 * (1 - x) * (1 - calI*sqrt(x))
                / (1 - lambda0 * calI * sqrt(x) * (1 - x/3))

The denominator reaches its minimum 1 - (2/3)*lambda0*calI at x = 1, so
liquidation completes iff lambda0 * calI < 3/2.  Below that product
leverage returns to lambda0 at a crossover x*; above it the trajectory
diverges at a bankruptcy fraction x_c < 1.  Both solve polynomials in
sqrt(x), a quadratic and a cubic, and are computed in closed form.
Divergence is carried as an explicit math.inf sentinel, never raised as an
error, so trajectories can be rendered across it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .impact import ImpactParams, expected_impact, impact_from_spread
from .valuation import Position, remaining_liquidation_value

#: Sentinel carried by trajectory data where leverage diverges.
DIVERGED = math.inf

CRITICAL_PRODUCT = 1.5  # lambda0 * calI at the transition
# classify reports CRITICAL within this distance of CRITICAL_PRODUCT.
_BOUNDARY_TOL = 1e-12


class Regime(Enum):
    SUBCRITICAL = "SUBCRITICAL"
    CRITICAL = "CRITICAL"
    SUPERCRITICAL = "SUPERCRITICAL"


class TrajectoryPoint(NamedTuple):
    """One sample of a leverage path (exit or entry leg); its fields are the CSV columns."""

    x: float
    q_held: float
    marginal_price: float
    cash: float
    lambda_noimpact: float
    lambda_mtm: float
    lambda_adj: float


#: Field names of a TrajectoryPoint, in CSV column order.
TRAJECTORY_COLUMNS = TrajectoryPoint._fields


class CriticalityReport(NamedTuple):
    """Regime of (lambda0, calI), with the crossover x* or bankruptcy fraction x_c it has."""

    calI: float
    lambda0: float
    regime: Regime
    I_c: float
    lambda_c: float
    x_star: float | None = None
    x_c: float | None = None


# Most memory one command may ask for, checked before its grid or arrays are built.
MEMORY_BUDGET_BYTES = 1 << 30
# Peak bytes per transition-curve point of the objects a bankruptcy curve
# builds, measured as the slope of peak RSS up to 400k points (Python 3.11,
# 2-core Xeon VM).  Trajectories are written as they are built, so their
# grid costs no memory.
CURVE_POINT_BYTES = 1280


def check_memory(needed: float, what: str) -> None:
    """Refuse, with ValueError, work that needs more than MEMORY_BUDGET_BYTES."""
    if needed > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{what} needs {needed / 2**30:.3g} GiB of memory, "
            f"over the {MEMORY_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )


def linspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` evenly spaced values from start to stop, both included.

    Element for element equal to ``numpy.linspace(start, stop, count).tolist()``:
    the same products ``i * step + start``, with the last value set to stop.
    """
    return list(_spaced(start, stop, count))


def _spaced(start: float, stop: float, count: int) -> Iterator[float]:
    """The values of ``linspace``, made one at a time; ``count`` is checked now."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count < 2:
        return itertools.repeat(start, count)
    step = (stop - start) / (count - 1)
    return itertools.chain((i * step + start for i in range(count - 1)), (stop,))


def mtm_leverage(Q: float, p: float, L: float) -> float:
    """Mark-to-market leverage Q*p / (Q*p - L); DIVERGED when equity <= 0."""
    assets = Q * p
    equity = assets - L
    if equity <= 0.0:
        return DIVERGED
    return assets / equity


def cash_raised(pos: Position, params: ImpactParams, q_sold: float) -> float:
    """Cumulative cash raised selling the first q_sold shares of the position.

    C(q) = p0 * q * (1 - (2/3) * I(Q) * sqrt(q/Q)).
    """
    if not 0.0 <= q_sold <= pos.Q:
        raise ValueError(f"q_sold must lie in [0, {pos.Q}], got {q_sold}")
    if q_sold == 0.0:
        return 0.0
    cal_i = expected_impact(params, pos.Q)
    return pos.p0 * q_sold * (1.0 - (2.0 / 3.0) * cal_i * math.sqrt(q_sold / pos.Q))


def deleverage_lambda(lambda0: float, calI: float, x: float) -> float:
    """Mark-to-market exit leverage at liquidated fraction x; DIVERGED past x_c."""
    u = math.sqrt(x)
    denom = 1.0 - lambda0 * calI * u * (1.0 - x / 3.0)
    if denom <= 0.0:
        return DIVERGED
    return lambda0 * (1.0 - x) * (1.0 - calI * u) / denom


def deleverage_trajectory(
    lambda0: float, calI: float, grid: Iterable[float]
) -> list[TrajectoryPoint]:
    """Exit trajectory in normalized units (Q = 1 share, p0 = 1 currency).

    For each liquidated fraction x on the grid the point carries the
    marginal price 1 - calI*sqrt(x), the cash raised so far, the no-impact
    leverage lambda0*(1-x), the mark-to-market leverage and the
    impact-adjusted leverage.  Where a leverage measure diverges the point
    carries the DIVERGED sentinel; divergence is data, not an error.
    """
    return list(map(TrajectoryPoint._make, _exit_points(lambda0, calI, grid)))


def _exit_points(
    lambda0: float, calI: float, grid: Iterable[float]
) -> Iterator[tuple[float, ...]]:
    """The points of ``deleverage_trajectory`` as float tuples, built one at a time.

    lambda0 and calI are checked now, before the first point; each grid
    value is checked as its point is built.  Each value takes the same
    float operations, in the same order, as its per-point formula
    (deleverage_lambda for lambda_mtm), with the loop invariants computed
    once, so it equals that formula's result bit for bit.
    """
    if not 1.0 <= lambda0 < math.inf:
        raise ValueError(f"lambda0 must be >= 1, got {lambda0}")
    if not 0.0 <= calI < math.inf:
        raise ValueError(f"calI must be non-negative, got {calI}")
    product = lambda0 * calI
    if product == math.inf:  # else lambda_mtm at x = 0 is inf * 0, nan
        raise ValueError(f"lambda0 * calI must be finite, got {lambda0} * {calI}")
    two_thirds_i = (2.0 / 3.0) * calI
    # Normalized impact-adjusted equity, constant along the exit.
    adj_equity = 1.0 / lambda0 - two_thirds_i
    sqrt = math.sqrt

    def points():
        for x in map(float, grid):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"grid values must lie in [0, 1], got {x}")
            u = sqrt(x)
            held = 1.0 - x
            marginal = 1.0 - calI * u
            noimpact = lambda0 * held
            denom = 1.0 - product * u * (1.0 - x / 3.0)
            remaining = held - two_thirds_i * (1.0 - x * u)
            yield (
                x,
                held,
                marginal,
                x * (1.0 - two_thirds_i * u),
                noimpact,
                DIVERGED if denom <= 0.0 else noimpact * marginal / denom,
                remaining / adj_equity if adj_equity > 0.0 else DIVERGED,
            )

    return points()


def small_x_expansion(lambda0: float, calI: float, x: float) -> float:
    """Leading small-x behaviour lambda0 * (1 + (lambda0 - 1) * calI * sqrt(x))."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be non-negative, got {x}")
    return lambda0 * (1.0 + (lambda0 - 1.0) * calI * math.sqrt(x))


def crossover_point(lambda0: float, calI: float) -> float:
    """Smallest x in (0, 1) where exit leverage drops back to lambda0.

    Subcritical inputs only (lambda0 * calI < 3/2).  With u = sqrt(x), the
    condition lambda(x*) = lambda0 is the quadratic
    calI*(1 - lambda0/3)*u^2 - u + calI*(lambda0 - 1) = 0, whose smaller
    root is taken in the cancellation-free form
    u* = 2*calI*(lambda0 - 1) / (1 + sqrt(1 - 4*calI^2*(1 - lambda0/3)*(lambda0 - 1))).
    Erratum: the printed closed form for this root,
    x* = sqrt((1 - sqrt(1 - (4/3)*(lambda0 - 1)*(3 - lambda0)*calI^2)) / ((2 - lambda0/3)*calI)),
    misses it (by more than 1e-6 relative at lambda0 = 9, calI = 0.10); the
    derivation's denominator is 2*(1 - lambda0/3)*calI, and the ratio is u*.
    """
    if not 1.0 <= lambda0 < math.inf:
        raise ValueError(f"lambda0 must be >= 1, got {lambda0}")
    if not 0.0 <= calI < math.inf:
        raise ValueError(f"calI must be non-negative, got {calI}")
    if lambda0 * calI >= CRITICAL_PRODUCT:
        raise ValueError(
            f"crossover exists only for lambda0*calI < 3/2, got {lambda0 * calI}"
        )
    # The discriminant is positive below the critical product; it falls to
    # zero only at lambda0 = 3/2, calI = 1, on the boundary itself.
    disc = 1.0 - 4.0 * calI * calI * (1.0 - lambda0 / 3.0) * (lambda0 - 1.0)
    u_star = 2.0 * calI * (lambda0 - 1.0) / (1.0 + math.sqrt(disc))
    # For lambda0 > 3/2 the root tends to 1 as the product tends to 3/2;
    # an ulp below it, rounding can put u_star a few ulp above 1.
    return min(u_star * u_star, 1.0)


def bankruptcy_point(lambda0: float, calI: float) -> float | None:
    """Liquidated fraction x_c where exit leverage diverges, if it exists.

    With u = sqrt(x), lambda0 * calI * u * (1 - u^2/3) = 1 is the depressed
    cubic u^3 - 3u + 3/(lambda0*calI) = 0; its smallest positive root is the
    trigonometric one, u_c = 2*cos((acos(-1.5/(lambda0*calI)) + 4*pi)/3).
    Returns None for subcritical inputs (lambda0 * calI < 3/2); returns 1.0
    exactly at the critical product.
    """
    if not 1.0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 must be > 1, got {lambda0}")
    if not 0.0 < calI < math.inf:
        raise ValueError(f"calI must be positive, got {calI}")
    product = lambda0 * calI
    if product == math.inf:  # else acos(-0.0) puts x_c near 1e-31
        raise ValueError(f"lambda0 * calI must be finite, got {lambda0} * {calI}")
    # The cubic's left side, lambda0*calI*u*(1 - u^2/3) - 1, at u = 1.
    at_one = product * (1.0 - 1.0 / 3.0) - 1.0
    if at_one < 0.0:
        return None
    if at_one == 0.0:
        return 1.0
    # at_one > 0 implies product >= 3/2, so the acos argument lies in [-1, 0).
    u_c = 2.0 * math.cos((math.acos(-CRITICAL_PRODUCT / product) + 4.0 * math.pi) / 3.0)
    # At a product of exactly 3/2, rounding in cos can give u_c = 1 + 1 ulp.
    return min(u_c * u_c, 1.0)


def critical_impact(lambda0: float) -> float:
    """Full-position impact above which leverage lambda0 cannot be unwound: 3/(2*lambda0)."""
    if not 0.0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    return CRITICAL_PRODUCT / lambda0


def critical_leverage(params: ImpactParams, Q: float) -> float:
    """Leverage above which liquidating Q diverges: (3 / (2*Y*sigma)) * sqrt(V/Q)."""
    if not 0.0 < Q < math.inf:
        raise ValueError(f"Q must be positive, got {Q}")
    cal_i = expected_impact(params, Q)
    if cal_i <= 0.0:
        raise ValueError("critical leverage requires positive impact parameters")
    return CRITICAL_PRODUCT / cal_i


def critical_leverage_from_spread(Y: float, b: float, S: float, N: float) -> float:
    """Critical leverage via the spread-based impact: 3 / (2*Y*b*S*sqrt(N))."""
    cal_i = impact_from_spread(Y, b, S, N)
    if cal_i <= 0.0:
        raise ValueError("critical leverage requires a positive trade count N")
    return CRITICAL_PRODUCT / cal_i


def impact_adjusted_leverage_exit(pos: Position, params: ImpactParams, sold: float) -> float:
    """Impact-adjusted leverage mid-exit, pricing the remainder at liquidation value.

    lambda_adj = R / (R - L + C(sold)) with R the remaining liquidation
    value and C the cash raised so far.  Since R + C equals the full
    liquidation value (constant along the exit), the denominator is
    constant: lambda_adj diverges for every ``sold`` iff the liquidation
    value does not cover the liabilities, i.e. iff lambda0 * I(Q) >= 3/2.
    """
    remaining = remaining_liquidation_value(pos, params, sold)
    denom = remaining - pos.L + cash_raised(pos, params, sold)
    if denom <= 0.0:
        return DIVERGED
    return remaining / denom


def classify(lambda0: float, calI: float) -> CriticalityReport:
    """Regime of a (lambda0, calI) pair with the applicable transition fractions."""
    if not 1.0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 must be > 1, got {lambda0}")
    if not 0.0 <= calI < math.inf:
        raise ValueError(f"calI must be non-negative, got {calI}")
    product = lambda0 * calI
    i_c = critical_impact(lambda0)
    lambda_c = CRITICAL_PRODUCT / calI if calI > 0.0 else math.inf
    if abs(product - CRITICAL_PRODUCT) <= _BOUNDARY_TOL:
        return CriticalityReport(calI, lambda0, Regime.CRITICAL, i_c, lambda_c, x_c=1.0)
    if product < CRITICAL_PRODUCT:
        x_star = crossover_point(lambda0, calI)
        return CriticalityReport(calI, lambda0, Regime.SUBCRITICAL, i_c, lambda_c, x_star=x_star)
    return CriticalityReport(
        calI, lambda0, Regime.SUPERCRITICAL, i_c, lambda_c, x_c=bankruptcy_point(lambda0, calI)
    )


def entry_exit_trajectories(
    pos: Position, params: ImpactParams, grid_size: int = 1000
) -> tuple[list[TrajectoryPoint], list[TrajectoryPoint]]:
    """Round trip: steadily enter a position of Q shares, then steadily exit.

    Entry financing is fixed initial equity E0 with borrowing as needed;
    cash spent buying up to q shares is p0 * q * (1 + (2/3) * I(q)), so net
    borrowing is spent - E0 (negative while cash remains).  Equity at every
    point is assets minus net borrowing, which makes the no-impact leverage
    q * p0 / E0 exactly linear.  The entry-side impact-adjusted price is
    referenced to the pre-trade price p0: p0 * (1 - (2/3) * I(q)).

    The exit leg prices the position from p0 again (the entry episode's
    impact is not carried as value) with the liabilities inherited from the
    entry leg.

    Returns (entry_points, exit_points); x is the fraction entered
    (resp. liquidated) on each leg.
    """
    entry, exit_leg = _round_trip_points(pos, params, grid_size)
    return list(map(TrajectoryPoint._make, entry)), list(map(TrajectoryPoint._make, exit_leg))


def _round_trip_points(
    pos: Position, params: ImpactParams, grid_size: int
) -> tuple[Iterator[tuple[float, ...]], Iterator[tuple[float, ...]]]:
    """The two legs of ``entry_exit_trajectories`` as float tuples, built one point at a time.

    Every input is checked now, before the first point.  Each value takes
    the same float operations, in the same order, as expected_impact,
    cash_raised and remaining_liquidation_value, with the loop invariants
    computed once, so it equals their results bit for bit; each point runs
    their checks.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    if pos.Q <= 0.0:
        raise ValueError("round-trip trajectories need a positive position size")
    e0 = pos.equity
    if e0 <= 0.0:
        raise ValueError(f"initial equity must be positive, got {e0}")
    q_total, p0 = pos.Q, pos.p0
    try:  # the exit leg's liquidation value takes Q**1.5
        q_total_15 = q_total**1.5
    except OverflowError:
        raise ValueError(f"Q**1.5 must be finite, got Q = {q_total}") from None
    cal_i = expected_impact(params, q_total)
    # Each amount on either leg adds at most four terms, none larger than
    # these; where such a sum could overflow (and turn into nan), refuse.
    m = 1.0 + cal_i
    sizes = (p0 * m, q_total * m, p0 * q_total * m, cal_i / math.sqrt(q_total), e0,
             q_total * p0 / e0)
    if not 8.0 * max(sizes) < math.inf:
        raise ValueError(
            f"round-trip amounts overflow a float at Q = {q_total}, p0 = {p0}, "
            f"I(Q) = {cal_i}, equity {e0}"
        )
    two_thirds_i = (2.0 / 3.0) * cal_i
    liab = p0 * q_total * (1.0 + two_thirds_i) - e0
    lambda0_ni = q_total * p0 / e0
    y_sigma, volume = params.Y * params.sigma, params.V
    two_thirds_slope = (2.0 / 3.0) * (y_sigma / math.sqrt(volume))
    sqrt, inf = math.sqrt, math.inf

    def entry():
        for x in _spaced(0.0, 1.0, grid_size):
            q = x * q_total
            if q < 0:
                raise ValueError(f"trade size must be non-negative, got {q}")
            impact_q = y_sigma * sqrt(q / volume)
            if not impact_q < inf:
                raise ValueError(f"impact I(Q) must be finite, got Q = {q}, V = {volume}")
            marginal = p0 * (1.0 + impact_q)
            notional = q * p0
            two_thirds_iq = (2.0 / 3.0) * impact_q
            spent = notional * (1.0 + two_thirds_iq)
            borrowing = spent - e0
            mtm = q * marginal
            adj = notional * (1.0 - two_thirds_iq)
            yield (
                x,
                q,
                marginal,
                spent,
                notional / e0,
                _ratio_or_diverged(mtm, mtm - borrowing),
                _ratio_or_diverged(adj, adj - borrowing),
            )

    def exit_leg():
        for x in _spaced(0.0, 1.0, grid_size):
            q_sold = x * q_total
            if not 0.0 <= q_sold <= q_total:
                raise ValueError(f"q_sold must lie in [0, {q_total}], got {q_sold}")
            u = sqrt(x)
            marginal = p0 * (1.0 - cal_i * u)
            if q_sold == 0.0:
                cash = 0.0
            else:
                cash = p0 * q_sold * (1.0 - two_thirds_i * sqrt(q_sold / q_total))
            held = q_total - q_sold
            mtm = held * marginal
            adj = p0 * (held - two_thirds_slope * (q_total_15 - q_sold**1.5))
            yield (
                x,
                held,
                marginal,
                cash,
                lambda0_ni * (1.0 - x),
                _ratio_or_diverged(mtm, mtm - liab + cash),
                _ratio_or_diverged(adj, adj - liab + cash),
            )

    return entry(), exit_leg()


def _ratio_or_diverged(assets: float, equity: float) -> float:
    if assets == 0.0 and equity > 0.0:
        return 0.0
    if equity <= 0.0:
        return DIVERGED
    return assets / equity


def write_csv(rows: Iterable[Sequence[str]], dest: str | Path | TextIO) -> None:
    """Write rows as CSV to a path (UTF-8) or an open text stream."""
    import csv

    with _writing(dest) as handle:
        csv.writer(handle).writerows(rows)


# Rows per write: about 120 kB of text, so memory stays flat at any grid.
_BLOCK_ROWS = 1024


def write_trajectory_csv(points: Iterable[Sequence[float]], dest: str | Path | TextIO) -> None:
    """Write trajectory points as CSV; divergence serializes as the string 'inf'.

    Each value is written as repr(float(value)), with csv's "\\r\\n" line
    ends; rows are joined and written _BLOCK_ROWS at a time.
    """
    rows = iter(points)
    with _writing(dest) as handle:
        handle.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        while block := [",".join(map(repr, map(float, row)))
                        for row in itertools.islice(rows, _BLOCK_ROWS)]:
            handle.write("\r\n".join(block) + "\r\n")


def _writing(dest: str | Path | TextIO):
    """A context holding ``dest`` open for text: a path opened as UTF-8, or the stream itself."""
    if isinstance(dest, (str, Path)):
        return open(dest, "w", newline="", encoding="utf-8")
    return contextlib.nullcontext(dest)
