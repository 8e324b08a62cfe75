"""A guided tour of the battery dispatch environment.

Walks one tiny episode by hand: what an observation looks like, how rewards
are settled hour by hour, and which charge levels a battery can ever visit.
Run it directly, no data or training required:

    python3 demos/environment_walkthrough.py
"""

from datetime import datetime, timezone

from rtp_arb import (
    Action,
    BatteryConfig,
    PriceSeries,
    reachable_charges,
    reset,
    simulate,
    step,
)

# A toy battery: 1 kWh capacity, 1 kW rate, and the agent only sees the
# latest price (window of 1 hour).
config = BatteryConfig(capacity_kwh=1.0, rate_kw=1.0, window_hours=1)

# Three hourly prices in cents per kWh: cheap, cheaper, expensive.
start = datetime(2018, 1, 1, tzinfo=timezone.utc)
prices = PriceSeries(start, [3.0, 1.0, 5.0])

print("prices:", prices.prices.tolist(), "cents/kWh")
print()

# Reset gives the environment state plus the first observation. The battery
# starts empty; the price window is padded with the first price when the
# episode is younger than the window.
state, obs = reset(prices, config)
print("initial observation:", obs.vector(), "(recent prices then charge)")

# Hour 0: charge while power is cheap. The reward of an hour is the charge
# held before acting times the price change into the next hour, so buying
# now costs nothing yet.
state, obs, r, done = step(state, Action.CHARGE, prices, config)
print(f"hour 0, charge:  reward {r + 0:+.1f} cents, battery {state.charge_kwh} kWh")

# Hour 1: idle and hold the energy into the price spike. The stored kWh
# appreciates by 5 - 1 = 4 cents.
state, obs, r, done = step(state, Action.IDLE, prices, config)
print(f"hour 1, idle:    reward {r:+.1f} cents, battery {state.charge_kwh} kWh")
print("episode done:", done)
print()

# The same episode through the convenience wrapper, as one accounting line.
transitions = simulate(prices, config, [Action.CHARGE, Action.IDLE])
total = sum(t.reward for t in transitions)
print(f"replayed return: {total} cents")
print()

# With a realistic battery the set of visitable charge levels is finite:
# every mix of full-rate charges and discharges, clamped at the ends.
powerwall = BatteryConfig()  # 13.5 kWh at 5 kW
print("home battery reachable charge levels (kWh):")
print(sorted(reachable_charges(powerwall)))
