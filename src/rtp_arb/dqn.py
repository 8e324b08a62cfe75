"""Replay-based Q-learning: epsilon-greedy actions, ring buffer, updates.

This layer ties the network to the environment: epsilon-greedy action
selection at a rate the caller gives (training anneals it with
:func:`rtp_arb.experiment.epsilon_at`), a preallocated
experience replay ring, TD target computation against a periodically synced
target network, and a binary checkpoint format that captures everything
needed to resume or evaluate a trained policy (parameters, optimizer
moments, input normalizer, run metadata).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from .atomic import atomic_write
from .env import ACTIONS, Action, is_count
from .errors import CheckpointError, TrainingDivergedError
from .network import (
    ACTION_COUNT,
    AdamState,
    ObservationNormalizer,
    QNetwork,
    adam_update,
    forward_batch,
    td_loss_and_grads,
)

CHECKPOINT_MAGIC = b"RTPARBQN"
CHECKPOINT_VERSION = 1

Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def explore(epsilon: float, rng: np.random.Generator | None = None) -> Action | None:
    """Epsilon-greedy's exploration coin: a uniformly random action with
    probability ``epsilon``, else None (act greedily). Draws nothing when
    epsilon is 0, so ``rng`` may then be omitted.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return Action(int(rng.integers(ACTION_COUNT)))
    return None


def select_action(
    q: np.ndarray, epsilon: float, rng: np.random.Generator | None = None
) -> Action:
    """Epsilon-greedy choice over 3 Q-values: :func:`explore`, else greedy.

    Greedy ties break toward the lowest action code, so evaluation is
    deterministic. ``rng`` may be omitted when epsilon is 0; :func:`explore`
    would then draw nothing, so it is not called.
    """
    a = None if epsilon == 0.0 else explore(epsilon, rng)
    return ACTIONS[q.argmax()] if a is None else a


class ReplayBuffer:
    """Fixed-capacity experience ring with uniform sampling.

    An entry is a state (hour index, charge), the action, the reward, the
    charge after the action and the episode-end flag; the next state is
    (hour + 1, charge after). Sampling rebuilds network inputs from
    ``windows``, the pair-window matrix
    :meth:`ObservationNormalizer.price_windows` ``(prices, L + 1)`` of the
    series, and ``charge_scale``. Once full, new entries overwrite the oldest.
    """

    def __init__(self, capacity: int, windows: np.ndarray, charge_scale: float):
        if not is_count(capacity):
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        self.capacity = capacity
        self.windows = windows
        self.charge_scale = charge_scale
        self.hours = np.empty(capacity, dtype=np.int32)
        self.charges = np.empty(capacity)
        self.actions = np.empty(capacity, dtype=np.int8)
        self.rewards = np.empty(capacity)
        self.next_charges = np.empty(capacity)
        self.dones = np.empty(capacity, dtype=bool)
        self.pushes = 0  # ever; the next entry goes to slot pushes % capacity

    def __len__(self) -> int:
        return min(self.pushes, self.capacity)


def push_transition(
    buffer: ReplayBuffer,
    hour: int,
    charge: float,
    action: Action,
    reward: float,
    next_charge: float,
    done: bool,
) -> None:
    """Append one transition from (hour, charge), evicting the oldest entry when full."""
    i = buffer.pushes % buffer.capacity
    buffer.hours[i] = hour
    buffer.charges[i] = charge
    buffer.actions[i] = action
    buffer.rewards[i] = reward
    buffer.next_charges[i] = next_charge
    buffer.dones[i] = done
    buffer.pushes += 1


def sample_batch(
    buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator
) -> Batch | None:
    """Uniform batch with replacement, or None while the buffer is underfull.

    The batch is (inputs, actions, rewards, next inputs, dones), inputs
    normalized; fancy indexing copies, so nothing aliases the ring.
    """
    if len(buffer) < batch_size:
        return None
    idx = rng.integers(len(buffer), size=batch_size)
    # one gather serves both inputs (see ObservationNormalizer.price_windows)
    x = buffer.windows[buffer.hours[idx] + 1]
    next_x = np.empty_like(x)
    next_x[:, :-1] = x[:, 1:]
    np.divide(buffer.charges[idx], buffer.charge_scale, out=x[:, -1])
    np.divide(buffer.next_charges[idx], buffer.charge_scale, out=next_x[:, -1])
    return x, buffer.actions[idx], buffer.rewards[idx], next_x, buffer.dones[idx]


def td_targets(
    target_net: QNetwork, rewards: np.ndarray, next_x: np.ndarray, dones: np.ndarray, gamma: float
) -> np.ndarray:
    """Bootstrap targets r + gamma * max_a Q_target(s', a) for normalized next
    inputs ``next_x``, truncated where the bool array ``dones`` is set."""
    bootstrap = np.maximum.reduce(forward_batch(target_net, next_x), axis=1)
    bootstrap *= gamma
    # multiplied, not set to 0: a negative max times 0.0 is -0.0, and a
    # -0.0 reward plus -0.0 stays -0.0, as in r + gamma * max * (not done)
    bootstrap *= ~dones
    bootstrap += rewards
    return bootstrap


def train_step(
    net: QNetwork,
    target_net: QNetwork,
    buffer: ReplayBuffer,
    opt: AdamState,
    batch_size: int,
    gamma: float,
    rng: np.random.Generator,
) -> float | None:
    """One sampled gradient update on the online network.

    Returns the batch Huber loss, or None when the buffer cannot yet supply
    a batch. Targets come from the target network only; no gradient reaches
    it.
    """
    batch = sample_batch(buffer, batch_size, rng)
    if batch is None:
        return None
    x, actions, rewards, next_x, dones = batch
    targets = td_targets(target_net, rewards, next_x, dones, gamma)
    loss, grads = td_loss_and_grads(net, x, actions, targets)
    if not math.isfinite(loss):
        raise TrainingDivergedError(
            f"non-finite loss {loss!r} at optimizer step {opt.step_count + 1}"
        )
    adam_update(opt, net, grads)
    return loss


def sync_target(net: QNetwork, target_net: QNetwork) -> None:
    """Hard-copy online parameters into the target network."""
    target_net.flat[:] = net.flat


@dataclass(frozen=True)
class Checkpoint:
    """A saved Q-network with its optimizer, normalizer, and run metadata."""

    net: QNetwork
    opt: AdamState
    norm: ObservationNormalizer
    metadata: dict[str, Any]


def save_checkpoint(
    net: QNetwork,
    opt: AdamState,
    norm: ObservationNormalizer,
    metadata: dict[str, Any],
    path,
) -> None:
    """Write a checkpoint file.

    Layout: 8-byte magic, uint32 LE version, uint32 LE header length, UTF-8
    JSON header, then one contiguous float64 little-endian block (row-major)
    per array: network parameters in ``net.parameters()`` order, then first
    optimizer moments, then second moments; that is ``net.flat``, ``opt.m``
    and ``opt.v`` end to end. ``metadata`` must be JSON-serializable. The
    file is replaced whole or not at all.
    """
    header = {
        "layer_dims": list(net.layer_dims),
        "normalizer": {
            "price_mean": norm.price_mean,
            "price_std": norm.price_std,
            "charge_scale": norm.charge_scale,
        },
        "optimizer": {
            "learning_rate": opt.learning_rate,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "epsilon": opt.epsilon,
            "step_count": opt.step_count,
        },
        "metadata": metadata,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for flat in (net.flat, opt.m, opt.v):
            fh.write(flat.astype("<f8", copy=False).tobytes())


def header_float(value, name: str) -> float:
    """A float field of a checkpoint header, as the writer writes it: a JSON
    number, not a bool or a string, which float() would also read."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ValueError(f"{name} is past the float range") from None


def header_int(value, name: str) -> int:
    """An integer field of a checkpoint header, as the writer writes it: a
    JSON integer, not a bool, a fraction or a string, which int() would read."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; raises CheckpointError on any malformation."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    if len(blob) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError(f"checkpoint {path} is truncated")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"checkpoint {path} has wrong magic bytes")
    version, header_len = struct.unpack_from("<II", blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path} has unsupported version {version}")
    off = len(CHECKPOINT_MAGIC) + 8
    try:
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
        dims = [header_int(d, "layer_dims") for d in header["layer_dims"]]
        norm_f = header["normalizer"]
        opt_f = header["optimizer"]
        norm = ObservationNormalizer(
            header_float(norm_f["price_mean"], "price_mean"),
            header_float(norm_f["price_std"], "price_std"),
            header_float(norm_f["charge_scale"], "charge_scale"),
        )
        metadata = dict(header["metadata"])
    # ValueError includes the decode errors
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} has a corrupt header: {exc}") from exc
    off += header_len
    if len(dims) < 2 or min(dims) < 1 or dims[-1] != ACTION_COUNT:
        raise CheckpointError(
            f"checkpoint {path} has layer dims {dims}; need at least 2 positive "
            f"widths ending in {ACTION_COUNT} (one output per action)"
        )

    pairs = list(zip(dims[:-1], dims[1:]))
    # parameter count in Python ints, exact on huge dims (int64 would wrap)
    n = sum(fan_in * fan_out + fan_out for fan_in, fan_out in pairs)
    extra = len(blob) - off - 3 * 8 * n
    if extra < 0:
        raise CheckpointError(f"checkpoint {path} parameter block is truncated")
    if extra > 0:
        raise CheckpointError(f"checkpoint {path} has {extra} trailing bytes")
    # read-only rows of the file; QNetwork and AdamState copy them in
    flat, m, v = np.frombuffer(blob, dtype="<f8", offset=off).reshape(3, n)
    # a NaN or inf parameter makes every Q-value of its unit meaningless; the
    # moments are not checked: a long run can save v = inf (g * g overflows)
    if not np.isfinite(flat).all():
        raise CheckpointError(f"checkpoint {path} has a non-finite parameter")

    net = QNetwork([np.zeros(pair) for pair in pairs], [np.zeros(fan_out) for _, fan_out in pairs])
    net.flat[:] = flat
    try:
        opt = AdamState(
            learning_rate=header_float(opt_f["learning_rate"], "learning_rate"),
            beta1=header_float(opt_f["beta1"], "beta1"),
            beta2=header_float(opt_f["beta2"], "beta2"),
            epsilon=header_float(opt_f["epsilon"], "epsilon"),
            step_count=header_int(opt_f["step_count"], "step_count"),
            m=m,
            v=v,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} optimizer header is corrupt: {exc}") from exc
    return Checkpoint(net, opt, norm, metadata)
