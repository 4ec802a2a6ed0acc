"""Slow-moving estimation of impact parameters from market time series.

For stability the liquidity inputs (sigma, V, and optionally S, v) are
computed over a long window with an exponential moving average, and the
most recent days are excluded entirely so that a sudden volatility or
liquidity shock cannot feed straight back into valuations.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .impact import ImpactParams

if TYPE_CHECKING:
    from datetime import date

REQUIRED_COLUMNS = ("date", "close", "volume")
OPTIONAL_COLUMNS = ("spread", "best_quote_volume")


class MarketSeries:
    """Daily market data, oldest first; columns are float sequences, stored as tuples.

    Immutable: assigning or deleting a column raises AttributeError.  Not a
    tuple, since its len() is its number of rows: it compares, hashes, pickles
    (through the constructor, so that a loaded series checks again) and prints
    by its columns, in order.
    """

    __slots__ = ("dates", "close", "volume", "spread", "best_quote_volume")

    def __init__(
        self,
        dates: list[date],
        close: Sequence[float],
        volume: Sequence[float],
        spread: Sequence[float] | None = None,
        best_quote_volume: Sequence[float] | None = None,
    ) -> None:
        for name, col in zip(self.__slots__, (dates, close, volume, spread, best_quote_volume)):
            object.__setattr__(self, name, None if col is None else tuple(col))
        dates, *columns = self._values()
        n = len(dates)
        for name, col in zip(self.__slots__[1:], columns):
            if col is not None and len(col) != n:
                raise ValueError(f"column {name!r} has length {len(col)}, expected {n}")
        for i in range(1, n):
            if dates[i] <= dates[i - 1]:
                raise ValueError(f"dates must be strictly increasing; violation at row {i + 1}")
        for name, col in zip(self.__slots__[1:], columns):
            for row, value in enumerate(() if col is None else col, start=1):
                if not math.isfinite(value):
                    raise ValueError(f"non-finite {name} at row {row}")
                if value <= 0 and name in ("close", "volume"):
                    raise ValueError(f"non-positive {name} at row {row}")

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

    def __len__(self) -> int:
        return len(self.dates)


class _EstimationPolicy(NamedTuple):
    window_days: int = 126
    exclusion_days: int = 5
    halflife_days: int = 63


class EstimationPolicy(_EstimationPolicy):
    """How far back to look and how quickly to forget.

    Defaults encode roughly six months of trading history with the most
    recent week excluded.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.window_days < 1:
            raise ValueError(f"window_days must be >= 1, got {self.window_days}")
        if not 0 <= self.exclusion_days < self.window_days:
            raise ValueError(
                f"exclusion_days must lie in [0, window_days), got {self.exclusion_days}"
            )
        if self.halflife_days <= 0:
            raise ValueError(f"halflife_days must be positive, got {self.halflife_days}")

    __init__.__wrapped__ = _EstimationPolicy.__new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def ema(values, halflife_days: float) -> float:
    """Exponentially weighted mean with explicit normalization.

    The latest value (last element) has the largest weight; the weight of a
    value k days older decays as 2**(-k / halflife_days).  Normalizing over
    the values actually present keeps short histories unbiased.  An empty
    series or a halflife that is not finite and positive raises ValueError.
    """
    if not 0.0 < halflife_days < math.inf:
        raise ValueError(f"halflife_days must be finite and positive, got {halflife_days}")
    if len(values) == 0:
        raise ValueError("cannot average an empty series")
    weights = [2.0 ** (-lag / halflife_days) for lag in range(len(values) - 1, -1, -1)]
    return math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)


def estimate_params(series: MarketSeries, policy: EstimationPolicy, Y: float) -> ImpactParams:
    """Estimate impact parameters from a market series under the given policy.

    Drops the most recent ``exclusion_days``, then averages over the last
    ``window_days`` of what remains: sigma is the root of the EMA of squared
    daily close-to-close returns, V the EMA of daily volume, and S / v
    their analogues when the optional columns are present.
    """
    required = policy.window_days + policy.exclusion_days
    if len(series) < required:
        raise ValueError(
            f"need at least {required} rows "
            f"({policy.window_days} window + {policy.exclusion_days} excluded), "
            f"got {len(series)}"
        )
    cut = len(series) - policy.exclusion_days
    window = policy.window_days
    halflife = policy.halflife_days

    close = series.close[:cut][-(window + 1):]
    returns = [today / yesterday - 1.0 for yesterday, today in zip(close, close[1:])]
    sigma = math.sqrt(ema([r * r for r in returns], halflife))
    volume_est = ema(series.volume[:cut][-window:], halflife)
    spread_est = None
    if series.spread is not None:
        spread_est = ema(series.spread[:cut][-window:], halflife)
    quote_vol_est = None
    if series.best_quote_volume is not None:
        quote_vol_est = ema(series.best_quote_volume[:cut][-window:], halflife)
    return ImpactParams(Y=Y, sigma=sigma, V=volume_est, S=spread_est, v=quote_vol_est)


def load_series(path: str | Path) -> MarketSeries:
    """Load a daily market CSV (columns: date, close, volume[, spread, best_quote_volume]).

    Validation failures report the first offending data row (1-based).
    """
    import csv
    from datetime import date

    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, header required")
        # A repeated column name reads its last column, as csv.DictReader does.
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in REQUIRED_COLUMNS if c not in index]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")

        dates: list[date] = []
        numeric: dict[str, list[float]] = {
            c: [] for c in ("close", "volume", *[o for o in OPTIONAL_COLUMNS if o in index])
        }
        date_at = index["date"]
        columns = [(col, index[col], numeric[col]) for col in numeric]
        width = max(index.values()) + 1
        # Blank lines are skipped and not counted; a short row's missing cells are None.
        for row_idx, row in enumerate(filter(None, reader), start=1):
            if len(row) < width:
                row += [None] * (width - len(row))
            cell = row[date_at]
            try:
                dates.append(date.fromisoformat(cell.strip()))
            except (AttributeError, ValueError) as exc:
                raise ValueError(f"{path}: row {row_idx}: bad date {cell!r}") from exc
            for col, at, values in columns:
                cell = row[at]
                try:
                    value = float(cell)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}: row {row_idx}: non-numeric {col} value {cell!r}"
                    ) from exc
                if not math.isfinite(value):
                    raise ValueError(f"{path}: row {row_idx}: non-finite {col} value {cell!r}")
                values.append(value)
    try:
        return MarketSeries(
            dates=dates,
            close=numeric["close"],
            volume=numeric["volume"],
            spread=numeric.get("spread"),
            best_quote_volume=numeric.get("best_quote_volume"),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
