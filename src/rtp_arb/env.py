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
import numbers
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
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


#: The actions by code: ``ACTIONS[a] is Action(a)``, without the enum call.
ACTIONS: tuple[Action, ...] = tuple(Action)


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
        if not (isinstance(self.window_hours, numbers.Integral) and self.window_hours >= 1):
            raise ConfigError(f"window_hours must be an integer >= 1, got {self.window_hours!r}")

    @property
    def step_energy_kwh(self) -> float:
        # 1-hour steps: kW and kWh-per-step coincide numerically.
        return self.rate_kw * 1.0


def _require_utc(ts: datetime) -> None:
    if ts.tzinfo is None or ts.utcoffset() != timedelta(0):
        raise ValidationError(f"timestamp {ts!r} is not UTC")


def utc_start(ts: datetime) -> datetime:
    """The start of a row of hours in ``timezone.utc`` (``ts`` itself if it is
    already), so that hours step in UTC; a UTC whole second, as the cache keeps."""
    _require_utc(ts)
    if ts.microsecond:
        raise ValidationError(f"start {ts.isoformat()} is not a whole second")
    return ts.astimezone(timezone.utc)


class PriceSeries:
    """A gap-free chronological sequence of hourly prices: ``start`` is the
    UTC start of the first hour, ``prices`` the cents/kWh of that hour and
    each one after it, as a read-only float64 array."""

    __slots__ = ("start", "prices")

    def __init__(self, start: datetime, prices: Sequence[float]):
        start = utc_start(start)
        values = np.asarray(prices, dtype=np.float64).copy()
        if values.ndim != 1 or len(values) < 2:
            raise ValidationError(f"price series needs at least 2 hours, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValidationError(f"non-finite price at position {bad}", position=bad)
        if len(values) - 1 > (datetime.max.replace(tzinfo=timezone.utc) - start) // HOUR:
            raise ValidationError(f"hour {len(values) - 1} falls past year 9999", position=len(values) - 1)
        values.setflags(write=False)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "prices", values)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PriceSeries is immutable")

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def hours(self) -> tuple[datetime, ...]:
        """The UTC hour-start of each price, derived from ``start``."""
        return tuple(self.start + i * HOUR for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return self.start == other.start and np.array_equal(self.prices, other.prices)

    def __repr__(self) -> str:
        last = self.start + (len(self) - 1) * HOUR
        return f"PriceSeries({len(self)} hours, {self.start.isoformat()} .. {last.isoformat()})"

    #: The constructor under its former name.
    from_prices = classmethod(lambda cls, start, prices: cls(start, prices))

    def index_of(self, hour: datetime) -> int:
        """Position of a UTC hour-start within the series."""
        _require_utc(hour)
        idx, rem = divmod(hour - self.start, HOUR)
        if rem or not 0 <= idx < len(self):
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
    (oldest first) and its own charge. The readable specification of the
    network input: the reference tests hold the batched rows to it."""

    recent_prices: np.ndarray
    charge_kwh: float

    def vector(self) -> np.ndarray:
        """A new (L+1,) float64 vector in the network input layout: prices, then charge."""
        return np.concatenate([self.recent_prices, [self.charge_kwh]], dtype=np.float64)


@dataclass(eq=False)
class Transition:
    """One environment step: (obs, action, reward, next obs, episode-end flag)."""

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


def reset(
    prices: PriceSeries, config: BatteryConfig, initial_charge: float = 0.0
) -> tuple[EnvState, Observation]:
    """Start an episode at hour 0 of the series.

    The default initial charge is 0 (an empty battery holds no assets to be
    marked against the price).
    """
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


#: More reachable charge levels than this is a ConfigError: every walk of
#: the grid visits each level every hour.
MAX_CHARGE_LEVELS = 10_000


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
        if len(states) > MAX_CHARGE_LEVELS:
            raise ConfigError(
                f"a {config.capacity_kwh:g} kWh battery at {config.rate_kw:g} kW has more than "
                f"{MAX_CHARGE_LEVELS:,} charge levels"
            )
    return states


def charge_grid(
    prices: PriceSeries, config: BatteryConfig
) -> tuple[list[float], list[list[int]], list[float], int]:
    """The (hour index, charge level) grid of an episode over ``prices``.

    Returns the sorted :func:`reachable_charges`, their successor lists
    (``levels[i]`` under action ``a`` lands on ``levels[succ[i][a]]``), the
    price deltas ``p[n+1] - p[n]`` (``levels[i] * deltas[n]`` is the reward
    of :func:`reward`, bit for bit) and the index of the empty level every
    episode starts from, all as plain Python numbers for per-step walks.
    """
    levels = sorted(reachable_charges(config))
    index = {w: i for i, w in enumerate(levels)}
    succ = [[index[apply_action(w, a, config)] for a in Action] for w in levels]
    # a step past the float range is inf, without a warning: the oracle rejects it
    with np.errstate(over="ignore"):
        deltas = np.diff(prices.prices).tolist()
    return levels, succ, deltas, index[0.0]


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
