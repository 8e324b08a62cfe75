"""Battery arbitrage on hourly real-time electricity prices.

A home battery charges when power is cheap and discharges when it is dear,
settling every hour at the real-time price. This package provides the whole
pipeline around that idea: an hourly dispatch environment, a from-scratch
deep Q-learning agent (numpy only), an exact hindsight-optimal oracle for
benchmarking, ingestion of the public 5-minute price feed, the train /
evaluate / cross-test experiment protocol, and a command-line front end.
"""

import types

from .env import (
    DEFAULT_CAPACITY_KWH,
    DEFAULT_RATE_KW,
    DEFAULT_WINDOW_HOURS,
    HOUR,
    Action,
    BatteryConfig,
    EnvState,
    Observation,
    PriceSeries,
    Transition,
    apply_action,
    episode_return,
    reachable_charges,
    reset,
    reward,
    simulate,
    step,
)
from .errors import (
    CheckpointError,
    ConfigError,
    EpisodeFinishedError,
    InsufficientDataError,
    ParseError,
    RtpArbError,
    TrainingDivergedError,
    TransportError,
    ValidationError,
)
from .oracle import (
    BRUTE_FORCE_MAX_STEPS,
    HindsightPlan,
    brute_force_optimal,
    hindsight_optimal,
    idle_policy,
    threshold_policy,
)
from .network import (
    AdamState,
    ObservationNormalizer,
    QNetwork,
    adam_update,
    forward,
    forward_batch,
    init_network,
    td_loss_and_grads,
)
from .dqn import (
    Checkpoint,
    ReplayBuffer,
    load_checkpoint,
    push_transition,
    sample_batch,
    save_checkpoint,
    select_action,
    sync_target,
    td_targets,
    train_step,
)
from .ingest import (
    FeedSamples,
    IngestReport,
    aggregate_hourly,
    default_data_dir,
    fetch_five_minute_feed,
    read_price_csv,
    write_price_csv,
    year_csv_path,
)
from .experiment import (
    CrossTestMatrix,
    DailyPolicyTrace,
    Hyperparams,
    TrainingCurve,
    checkpoint_config,
    cross_test,
    daily_policy_trace,
    emit_outputs,
    epsilon_at,
    evaluate_greedy,
    greedy_rollout,
    train_agent,
)

__version__ = "0.1.0"

#: The public API: every name imported above that is not a module, so the
#: import blocks are its only list
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
