"""Impact-adjusted valuation of a position.

Marking a position to the marginal price overstates what liquidating it
would raise.  The expected proceeds of selling Q shares in small uniform
increments are p0 * Q * (1 - (2/3) * I(Q)), strictly less than Q * p0
whenever impact is positive.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .impact import ImpactParams, expected_impact


class _Position(NamedTuple):
    Q: float
    p0: float
    L: float = 0.0
    E0: float | None = None


class Position(_Position):
    """A leveraged holding of a single asset.

    Attributes:
        Q: shares held (or notional units; must match the volume units of
           the impact parameters)
        p0: mark-to-market price per share
        L: liabilities financing the position
        E0: initial equity; defaults to Q * p0 - L for a fully entered position
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        for name, value in zip(self._fields, self):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.Q < 0:
            raise ValueError(f"Q must be non-negative, got {self.Q}")
        if self.p0 <= 0:
            raise ValueError(f"p0 must be positive, got {self.p0}")
        if self.L < 0:
            raise ValueError(f"L must be non-negative, got {self.L}")
        if not math.isfinite(self.Q * self.p0):
            raise ValueError(f"Q * p0 must be finite, got {self.Q} * {self.p0}")

    __init__.__wrapped__ = _Position.__new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def mtm_value(self) -> float:
        return self.Q * self.p0

    @property
    def equity(self) -> float:
        """Mark-to-market equity; may be any sign."""
        if self.E0 is not None:
            return self.E0
        return self.Q * self.p0 - self.L


def liquidation_value_discrete(pos: Position, params: ImpactParams, n_increments: int) -> float:
    """Expected proceeds of liquidating in ``n_increments`` equal pieces.

    Sums (Q/N) * p0 * (1 - I(t * Q/N)) over t = 1..N.  Converges to
    :func:`liquidation_value` as N grows.
    """
    if n_increments < 1:
        raise ValueError(f"n_increments must be >= 1, got {n_increments}")
    if pos.Q == 0:
        return 0.0
    n = n_increments
    cal_i = expected_impact(params, pos.Q)
    # I(t*Q/N) = I(Q) * sqrt(t) / sqrt(N); factor the sum accordingly.
    mean_impact = cal_i * math.fsum(map(math.sqrt, range(1, n + 1))) / (n * math.sqrt(n))
    return _finite("liquidation value", pos, cal_i, pos.p0 * pos.Q * (1.0 - mean_impact))


def liquidation_value(pos: Position, params: ImpactParams) -> float:
    """Continuous-limit liquidation value p0 * Q * (1 - (2/3) * I(Q)).

    Returned as-is even when the formula extrapolates past its validity
    domain (the value can go negative for I(Q) > 1.5); callers can use
    :func:`impactval.impact.check_validity` to flag such inputs.
    """
    cal_i = expected_impact(params, pos.Q)
    return _finite("liquidation value", pos, cal_i, pos.p0 * pos.Q * (1.0 - (2.0 / 3.0) * cal_i))


def average_valuation_price(pos: Position, params: ImpactParams) -> float:
    """Average price realized over a full liquidation: p0 * (1 - (2/3) * I(Q))."""
    if pos.Q == 0:
        raise ValueError("average valuation price is undefined for an empty position")
    cal_i = expected_impact(params, pos.Q)
    return _finite("average valuation price", pos, cal_i, pos.p0 * (1.0 - (2.0 / 3.0) * cal_i))


def _finite(what: str, pos: Position, cal_i: float, value: float) -> float:
    """``value``, or ValueError where it overflowed from the finite p0, Q and I(Q)."""
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got p0 = {pos.p0}, Q = {pos.Q}, I(Q) = {cal_i}")
    return value


def remaining_liquidation_value(pos: Position, params: ImpactParams, sold: float) -> float:
    """Expected proceeds of selling the remaining Q - sold shares.

    The continuation is priced as part of the same liquidation (no memory
    break): p0 * [(Q - sold) - (2/3) * (Y*sigma/sqrt(V)) * (Q^1.5 - sold^1.5)].
    """
    if not 0.0 <= sold <= pos.Q:
        raise ValueError(f"sold must lie in [0, {pos.Q}], got {sold}")
    slope = params.Y * params.sigma / math.sqrt(params.V)
    return pos.p0 * (
        (pos.Q - sold) - (2.0 / 3.0) * slope * (pos.Q**1.5 - sold**1.5)
    )
