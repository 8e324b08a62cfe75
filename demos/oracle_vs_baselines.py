"""Hindsight-optimal dispatch versus simple fixed rules.

Builds a synthetic year whose price alternates between a cheap night and an
expensive day, then compares three policies that need no learning at all:
the exact hindsight optimum, a price-threshold band, and doing nothing.

    python3 demos/oracle_vs_baselines.py
"""

from datetime import datetime, timezone

from rtp_arb import (
    BatteryConfig,
    PriceSeries,
    episode_return,
    hindsight_optimal,
    idle_policy,
    reset,
    simulate,
    step,
    threshold_policy,
)

# One year of square-wave prices: 12 hours at 2 cents, 12 hours at 6 cents.
start = datetime(2021, 1, 1, tzinfo=timezone.utc)
day = [2.0] * 12 + [6.0] * 12
prices = PriceSeries(start, day * 365)
config = BatteryConfig()  # 13.5 kWh home battery at 5 kW

# The oracle runs backward induction over every reachable charge level, so
# its value is the true ceiling for any causal policy on this series.
plan = hindsight_optimal(prices, config)
print(f"hindsight optimum: {plan.value:.1f} cents over the year")
print(f"  that is {plan.value / 100 / 365:.2f} dollars per day")


def rollout(policy):
    """Run a observation-driven policy through the whole series."""
    state, obs = reset(prices, config)
    total = 0.0
    done = False
    while not done:
        state, obs, r, done = step(state, policy(obs), prices, config)
        total += r
    return total


# A threshold band: charge under 3 cents, discharge over 5, idle between.
# On a clean square wave this captures nearly everything the oracle does.
band = rollout(lambda obs: threshold_policy(obs, low=3.0, high=5.0))
print(f"threshold band:    {band:.1f} cents ({band / plan.value:.1%} of optimal)")

# Never touching the battery is the zero line by construction.
idle = rollout(lambda obs: idle_policy())
print(f"always idle:       {idle:.1f} cents")

# Sanity: replaying the oracle's own action plan reproduces its value.
replayed = episode_return(simulate(prices, config, plan.actions))
print(f"replayed oracle plan: {replayed:.1f} cents (matches: {replayed == plan.value})")
