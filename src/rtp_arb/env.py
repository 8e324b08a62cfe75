"""Hourly battery dispatch environment under a real-time price signal.

The simulated battery sees the price of an hour only once that hour has
passed. Each hour it picks one of three moves (charge, discharge, idle) and
the reward for hour ``n`` is the mark-to-market change of the energy it was
holding when hour ``n`` started:

    reward_n = charge_kwh_n * (price_{n+1} - price_n)

so an action influences reward only from the following hour onward. Buying
and selling never pay or cost anything by themselves (energy is swapped for
cash at the same price); profit and loss come purely from price moves while
holding charge. Episodes run over a fixed hourly series and end when the
last price is revealed.

Conventions used throughout:
  - prices in cents/kWh, energy in kWh, one step per hour, so a rate of
    ``r`` kW moves exactly ``r`` kWh per step;
  - all arithmetic in float64;
  - an episode over M prices has M-1 steps and starts, by default, with an
    empty battery.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, EpisodeFinishedError, ValidationError

HOUR = timedelta(hours=1)

#: Default battery parameters, sized after a Powerwall-class home unit.
DEFAULT_CAPACITY_KWH = 13.5
DEFAULT_RATE_KW = 5.0
DEFAULT_WINDOW_HOURS = 48


class Action(enum.IntEnum):
    """The three hourly moves. Integer codes are a stable contract: they are
    the network's output order, the greedy tie-break order, and the codes
    stored in checkpoints and CSV output."""

    CHARGE = 0
    DISCHARGE = 1
    IDLE = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class BatteryConfig:
    """Battery parameters: usable capacity, hourly charge/discharge rate, and
    how many recent prices the agent observes."""

    capacity_kwh: float = DEFAULT_CAPACITY_KWH
    rate_kw: float = DEFAULT_RATE_KW
    window_hours: int = DEFAULT_WINDOW_HOURS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity_kwh) and self.capacity_kwh > 0):
            raise ConfigError(f"capacity_kwh must be positive, got {self.capacity_kwh}")
        if not (math.isfinite(self.rate_kw) and self.rate_kw > 0):
            raise ConfigError(f"rate_kw must be positive, got {self.rate_kw}")
        if self.window_hours < 1:
            raise ConfigError(f"window_hours must be >= 1, got {self.window_hours}")

    @property
    def step_energy_kwh(self) -> float:
        # 1-hour steps: kW and kWh-per-step coincide numerically.
        return self.rate_kw * 1.0


def _require_utc(ts: datetime) -> None:
    if ts.tzinfo is None or ts.utcoffset() != timedelta(0):
        raise ValidationError(f"timestamp {ts!r} is not UTC")


class PriceSeries:
    """A gap-free chronological sequence of hourly prices.

    ``hours`` are UTC hour-start timestamps advancing by exactly one hour;
    ``prices`` are the matching cents/kWh values as a read-only float64 array.
    """

    __slots__ = ("hours", "prices")

    def __init__(self, hours: Sequence[datetime], prices: Sequence[float]):
        hours = tuple(hours)
        values = np.asarray(prices, dtype=np.float64).copy()
        if values.ndim != 1 or len(hours) != values.shape[0]:
            raise ValidationError(
                f"hours ({len(hours)}) and prices ({values.shape}) do not align"
            )
        if len(hours) < 2:
            raise ValidationError(f"price series needs at least 2 hours, got {len(hours)}")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValidationError(f"non-finite price at position {bad}", position=bad)
        _require_utc(hours[0])
        for i in range(1, len(hours)):
            _require_utc(hours[i])
            if hours[i] - hours[i - 1] != HOUR:
                raise ValidationError(
                    f"hours must advance by exactly 1h; gap between "
                    f"{hours[i - 1].isoformat()} and {hours[i].isoformat()}",
                    position=i,
                )
        values.setflags(write=False)
        object.__setattr__(self, "hours", hours)
        object.__setattr__(self, "prices", values)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PriceSeries is immutable")

    def __len__(self) -> int:
        return len(self.hours)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return self.hours == other.hours and np.array_equal(self.prices, other.prices)

    def __repr__(self) -> str:
        return (
            f"PriceSeries({len(self)} hours, "
            f"{self.hours[0].isoformat()} .. {self.hours[-1].isoformat()})"
        )

    @classmethod
    def from_prices(cls, start_utc: datetime, prices: Sequence[float]) -> "PriceSeries":
        """Build a series from a start hour and consecutive hourly prices."""
        _require_utc(start_utc)
        n = len(np.asarray(prices))
        return cls([start_utc + i * HOUR for i in range(n)], prices)

    def index_of(self, hour: datetime) -> int:
        """Position of a UTC hour-start within the series."""
        _require_utc(hour)
        delta = hour - self.hours[0]
        idx, rem = divmod(int(delta.total_seconds()), 3600)
        if rem != 0 or not 0 <= idx < len(self):
            raise ValidationError(f"{hour.isoformat()} is not an hour of this series")
        return idx


@dataclass
class EnvState:
    """Episode progress: the current hour index and the energy held."""

    step_index: int
    charge_kwh: float


@dataclass(eq=False)
class Observation:
    """What the agent sees each hour: the last ``window_hours`` prices
    (oldest first) and its own charge."""

    recent_prices: np.ndarray
    charge_kwh: float

    def vector(self) -> np.ndarray:
        """Flatten to the network input layout: prices then charge."""
        return np.append(self.recent_prices, self.charge_kwh)


@dataclass(eq=False)
class Transition:
    """One replay unit: (obs, action, reward, next obs, episode-end flag)."""

    obs: Observation
    action: Action
    reward: float
    next_obs: Observation
    done: bool


def apply_action(charge_kwh: float, action: Action, config: BatteryConfig) -> float:
    """New charge after one hourly move, clamped to [0, capacity].

    Charging and discharging move ``rate_kw`` kWh, truncated at the capacity
    limits; a full battery may still "charge" and an empty one "discharge"
    with no effect. Written as min/max clamps so the bounds hold exactly in
    float arithmetic.
    """
    cap = config.capacity_kwh
    if not 0.0 <= charge_kwh <= cap:
        raise ValueError(f"charge {charge_kwh} outside [0, {cap}]")
    if action == Action.CHARGE:
        return min(charge_kwh + config.step_energy_kwh, cap)
    if action == Action.DISCHARGE:
        return max(charge_kwh - config.step_energy_kwh, 0.0)
    return charge_kwh


def reward(charge_before_action: float, price_now: float, price_next: float) -> float:
    """Mark-to-market change of the energy held when the hour began."""
    for name, v in (
        ("charge_before_action", charge_before_action),
        ("price_now", price_now),
        ("price_next", price_next),
    ):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return charge_before_action * (price_next - price_now)


def _observation(prices: PriceSeries, config: BatteryConfig, n: int, charge: float) -> Observation:
    # Window covers price indices n-L+1 .. n; indices before the series start
    # are padded by replicating the first price, so early observations carry
    # no sentinel values.
    arr = prices.prices
    lo = n - config.window_hours + 1
    if lo >= 0:
        window = arr[lo : n + 1].copy()
    else:
        window = np.concatenate([np.full(-lo, arr[0]), arr[: n + 1]])
    return Observation(window, charge)


def price_windows(prices: PriceSeries, config: BatteryConfig) -> np.ndarray:
    """Read-only (M, window_hours) matrix: row ``n`` is the price window of hour ``n``.

    Padded as in the observation (copies of the first price before the
    series start), so row ``n`` equals the ``recent_prices`` of any
    observation at hour ``n``. Rows are views into one padded array.
    """
    arr = prices.prices
    padded = np.concatenate([np.full(config.window_hours - 1, arr[0]), arr])
    return np.lib.stride_tricks.sliding_window_view(padded, config.window_hours)


def reset(
    prices: PriceSeries, config: BatteryConfig, initial_charge: float = 0.0
) -> tuple[EnvState, Observation]:
    """Start an episode at hour 0 of the series.

    The default initial charge is 0 (an empty battery holds no assets to be
    marked against the price).
    """
    if len(prices) < 2:
        raise ConfigError("price series too short for an episode (need >= 2 hours)")
    if not 0.0 <= initial_charge <= config.capacity_kwh:
        raise ValueError(
            f"initial charge {initial_charge} outside [0, {config.capacity_kwh}]"
        )
    return EnvState(0, initial_charge), _observation(prices, config, 0, initial_charge)


def step(
    state: EnvState, action: Action, prices: PriceSeries, config: BatteryConfig
) -> tuple[EnvState, Observation, float, bool]:
    """Advance one hour; returns (next state, next observation, reward, done).

    The reward settles on the charge held *before* the action: energy traded
    during hour n changes value only when the next price arrives. ``done``
    goes up when the final price of the series has been revealed.
    """
    n = state.step_index
    last = len(prices) - 1
    if n >= last:
        raise EpisodeFinishedError(f"episode over {len(prices)} prices ended at step {last - 1}")
    arr = prices.prices
    r = reward(state.charge_kwh, float(arr[n]), float(arr[n + 1]))
    new_charge = apply_action(state.charge_kwh, action, config)
    nxt = n + 1
    obs = _observation(prices, config, nxt, new_charge)
    return EnvState(nxt, new_charge), obs, r, nxt == last


def reachable_charges(config: BatteryConfig) -> set[float]:
    """All charge levels an episode starting empty can ever occupy.

    Fixed-point closure of {0} under the clamped moves w -> min(w+P, W) and
    w -> max(w-P, 0), using the exact float arithmetic of ``apply_action``.
    The closure is what makes the hindsight dynamic program exact: every
    state the environment can produce is enumerated here, bit for bit.
    """
    states: set[float] = {0.0}
    frontier: set[float] = {0.0}
    while frontier:
        new: set[float] = set()
        for w in frontier:
            for a in (Action.CHARGE, Action.DISCHARGE):
                nxt = apply_action(w, a, config)
                if nxt not in states:
                    new.add(nxt)
        states |= new
        frontier = new
        if len(states) > 10_000:  # cannot happen for sane configs
            raise RuntimeError("reachable-charge closure failed to converge")
    return states


def successor_table(levels: Sequence[float], config: BatteryConfig) -> np.ndarray:
    """(n_levels, 3) index table: ``levels[i]`` under action ``a`` lands on
    ``levels[table[i, a]]``. ``levels`` must be closed under the moves, as
    the sorted :func:`reachable_charges` are."""
    index = {w: i for i, w in enumerate(levels)}
    table = np.empty((len(levels), len(Action)), dtype=np.intp)
    for i, w in enumerate(levels):
        for a in Action:
            table[i, a] = index[apply_action(w, a, config)]
    return table


def episode_return(transitions: Iterable[Transition]) -> float:
    """Total reward of one episode's transitions, in cents."""
    total = 0.0
    for t in transitions:
        total += t.reward
    return total


def simulate(
    prices: PriceSeries,
    config: BatteryConfig,
    actions: Sequence[Action],
    initial_charge: float = 0.0,
) -> list[Transition]:
    """Replay a fixed action sequence through the environment."""
    state, obs = reset(prices, config, initial_charge)
    out: list[Transition] = []
    for i, action in enumerate(actions):
        if state.step_index >= len(prices) - 1:
            raise ValueError(f"{len(actions)} actions but only {i} steps in the episode")
        state, next_obs, r, done = step(state, action, prices, config)
        out.append(Transition(obs, action, r, next_obs, done))
        obs = next_obs
    return out
