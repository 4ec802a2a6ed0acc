"""Square-root market impact: volume-based and spread-based formulas.

The expected relative price shift of liquidating (or acquiring) q shares
at a reasonable pace is I(q) = Y * sigma * sqrt(q / V).  An equivalent
micro-structure form expresses the same impact through the bid-ask spread:
I = Y * b * S * sqrt(N) with N the number of child trades.
"""

from __future__ import annotations

import math
import sys
import warnings
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .montecarlo import LiquidationSchedule

# Empirical band for the spread-volatility coefficient b; values outside it
# are unusual but not invalid.
B_TYPICAL_RANGE = (0.6, 0.9)

# Beyond ~20% impact (or ~20% daily participation) the square-root law is
# extrapolating; results are still returned, but flagged.
DEFAULT_IMPACT_LIMIT = 0.20
DEFAULT_PARTICIPATION_LIMIT = 0.20


class Validity(Enum):
    OK = "OK"
    WARN_LARGE_IMPACT = "WARN_LARGE_IMPACT"
    WARN_LARGE_PARTICIPATION = "WARN_LARGE_PARTICIPATION"


# A record that is not a tuple (TrajectoryPoint, MarketSeries) subclasses
# _Frozen: its fields are its __slots__, which its __init__ sets with
# object.__setattr__.  It compares, hashes, pickles (through the constructor,
# so that a checked one checks again) and prints by those fields, in order.
class _Frozen:
    __slots__ = ()  # else every subclass instance would carry a __dict__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


# A NamedTuple class may not define __init__, so each checked record is a
# NamedTuple of its fields and a subclass whose __init__ checks them.  The
# subclass points __init__.__wrapped__ at the NamedTuple's __new__, so that
# inspect.signature (and help) show the fields, and builds _make, and with it
# _replace, through the constructor, so that they run the checks too.
class _ImpactParams(NamedTuple):
    Y: float
    sigma: float
    V: float
    S: float | None = None
    v: float | None = None
    b: float | None = None
    phi: float | None = None


class ImpactParams(_ImpactParams):
    """Liquidity/impact coefficients for one asset.

    Attributes:
        Y: dimensionless impact coefficient, order unity
        sigma: daily volatility as a fraction (0.02 = 2% per day)
        V: daily transaction volume, in the same units as trade sizes
        S: bid-ask spread as a fraction of price (optional)
        v: typical volume at the best quotes, same units as trade sizes (optional)
        b: spread-volatility coefficient, typically 0.6-0.9 (optional)
        phi: transactions per day (optional)
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        for name, value in zip(self._fields, self):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.Y < 0:
            raise ValueError(f"Y must be non-negative, got {self.Y}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.V <= 0:
            raise ValueError(f"V must be positive, got {self.V}")
        for name in ("S", "v", "phi", "b"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when given, got {value}")
        if self.b is not None and not (B_TYPICAL_RANGE[0] <= self.b <= B_TYPICAL_RANGE[1]):
            # Name the caller's line, also when a builder made the record.
            frame, level = sys._getframe(1), 2
            while frame.f_code in _BUILDER_CODES:
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"b={self.b} lies outside the typical range {B_TYPICAL_RANGE}",
                stacklevel=level,
            )

    __init__.__wrapped__ = _ImpactParams.__new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def to_config_text(self) -> str:
        """Render as a flat key-value config (decimal fractions, not percent)."""
        lines = [f"Y = {self.Y!r}", f"sigma = {self.sigma!r}", f"V = {self.V!r}"]
        for name in ("S", "v", "b", "phi"):
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{name} = {value!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config_text(cls, text: str) -> "ImpactParams":
        known = set(cls._fields)
        values: dict[str, float] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, rhs = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            try:
                values[key] = float(rhs.strip())
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad number {rhs.strip()!r}") from exc
        for required in ("Y", "sigma", "V"):
            if required not in values:
                raise ValueError(f"missing required key {required!r}")
        return cls(**values)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_config_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ImpactParams":
        return cls.from_config_text(Path(path).read_text(encoding="utf-8-sig"))


# Code of the frames that lie between a caller and ImpactParams.__init__ when
# _make (or _replace through it), from_config_text or load builds the record.
_BUILDER_CODES = (
    ImpactParams._make.__func__.__code__,
    ImpactParams._replace.__code__,
    ImpactParams.from_config_text.__func__.__code__,
    ImpactParams.load.__func__.__code__,
)


class ValidityReport(NamedTuple):
    """Domain-of-validity flags for the square-root law. Never blocks computation."""

    impact: float
    participation: float | None
    flags: tuple[Validity, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


def expected_impact(params: ImpactParams, q: float) -> float:
    """Expected relative impact I(q) = Y * sigma * sqrt(q / V) of trading q shares."""
    if q < 0:
        raise ValueError(f"trade size must be non-negative, got {q}")
    return params.Y * params.sigma * math.sqrt(q / params.V)


def impact_from_spread(Y: float, b: float, S: float, N: float) -> float:
    """Spread-based impact I = Y * b * S * sqrt(N), N = Q / v child trades."""
    if Y <= 0 or b <= 0 or S <= 0:
        raise ValueError("Y, b and S must be positive")
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    return Y * b * S * math.sqrt(N)


def volatility_from_spread(b: float, S: float, phi: float, T: float) -> float:
    """Volatility over horizon T implied by the spread: sigma_T = b * S * sqrt(phi * T)."""
    if b <= 0 or S <= 0 or phi <= 0:
        raise ValueError("b, S and phi must be positive")
    if T < 0:
        raise ValueError(f"T must be non-negative, got {T}")
    return b * S * math.sqrt(phi * T)


def check_validity(
    params: ImpactParams,
    Q: float,
    schedule: "LiquidationSchedule | None" = None,
) -> ValidityReport:
    """Flag positions whose size pushes the square-root law past its domain.

    Warns when the full-position impact exceeds DEFAULT_IMPACT_LIMIT or when
    the daily participation delta_q / V exceeds DEFAULT_PARTICIPATION_LIMIT.
    """
    impact = expected_impact(params, Q)
    flags: list[Validity] = []
    if impact > DEFAULT_IMPACT_LIMIT:
        flags.append(Validity.WARN_LARGE_IMPACT)
    participation = None
    if schedule is not None:
        participation = schedule.delta_q / params.V
        if participation > DEFAULT_PARTICIPATION_LIMIT:
            flags.append(Validity.WARN_LARGE_PARTICIPATION)
    return ValidityReport(impact=impact, participation=participation, flags=tuple(flags))

