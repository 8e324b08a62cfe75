"""Watch the Q-learning agent discover arbitrage on a synthetic year.

Trains for a modest number of steps on square-wave prices, prints the
training curve as it would land in training_curves.csv, and writes the CSV
plus SVG chart under demos/output/. Takes a few seconds.

    python3 demos/train_square_wave.py [steps]
"""

import sys
from datetime import datetime, timezone
from pathlib import Path

from rtp_arb import (
    BatteryConfig,
    Hyperparams,
    PriceSeries,
    emit_outputs,
    evaluate_greedy,
    hindsight_optimal,
    train_agent,
)

total_steps = int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
eval_every = max(total_steps // 10, 1)

start = datetime(2021, 1, 1, tzinfo=timezone.utc)
day = [2.0] * 12 + [6.0] * 12
prices = PriceSeries(start, day * 365)
config = BatteryConfig()

ceiling = hindsight_optimal(prices, config).value
print(f"hindsight ceiling: {ceiling:.1f} cents")
print(f"training for {total_steps} steps, evaluating every {eval_every}...")

# Defaults everywhere: epsilon-greedy exploration annealing to 5%, replay
# sampling, Adam on a small two-hidden-layer network. Seeded, so this
# script prints the same numbers every time.
curve, ckpt = train_agent(
    prices, config, Hyperparams(), total_steps=total_steps, eval_every=eval_every, seed=0
)

print()
print("step      greedy return (cents)   % of optimal")
for s, r in curve.points:
    print(f"{s:>8}  {r:>12.1f}            {r / ceiling:>6.1%}")

best_step, best_ret = curve.best()
print()
print(f"best checkpoint: step {best_step} at {best_ret:.1f} cents")
print(f"re-evaluated:    {evaluate_greedy(ckpt, prices, config):.1f} cents")

out_dir = Path(__file__).parent / "output"
written = emit_outputs([curve], None, out_dir)
for path in written:
    print(f"wrote {path}")
