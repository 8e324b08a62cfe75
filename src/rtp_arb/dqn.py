"""Replay-based Q-learning: exploration schedule, ring buffer, updates.

This layer ties the network to the environment: epsilon-greedy action
selection with a linearly annealed exploration rate, a preallocated
experience replay ring, TD target computation against a periodically synced
target network, and a binary checkpoint format that captures everything
needed to resume or evaluate a trained policy (parameters, optimizer
moments, input normalizer, run metadata).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from .atomic import atomic_write
from .env import Action, Transition
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


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear anneal of the exploration rate over an initial slice of training."""

    start: float = 1.0
    end: float = 0.05
    decay_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.decay_fraction <= 1.0:
            raise ValueError(f"epsilon decay_fraction must be in (0, 1], got {self.decay_fraction}")
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ValueError(
                f"epsilon must fall within [0, 1] (0 <= end <= start <= 1), "
                f"got start {self.start} and end {self.end}"
            )


def epsilon_at(schedule: EpsilonSchedule, step: int, total_steps: int) -> float:
    """Exploration rate at a given environment step of a run.

    Decays linearly from start to end over the first ``decay_fraction`` of
    ``total_steps``, then stays at ``end``.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    horizon = schedule.decay_fraction * total_steps
    if step >= horizon:
        # clamp to the floor exactly; interpolating at frac=1.0 would leave
        # the tail one ulp above end
        return schedule.end
    frac = step / horizon
    return schedule.start + frac * (schedule.end - schedule.start)


def select_action(
    q: np.ndarray, epsilon: float, rng: np.random.Generator | None = None
) -> Action:
    """Epsilon-greedy choice over 3 Q-values.

    Greedy ties break toward the lowest action code, so evaluation is
    deterministic. ``rng`` may be omitted when epsilon is 0.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return Action(int(rng.integers(ACTION_COUNT)))
    return Action(int(np.argmax(q)))


class ReplayBuffer:
    """Fixed-capacity experience ring with uniform sampling.

    Transitions are stored as preallocated flat arrays so steady-state
    training does no allocation; once full, new entries overwrite the oldest.
    """

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._obs = np.empty((capacity, obs_dim))
        self._actions = np.empty(capacity, dtype=np.intp)
        self._rewards = np.empty(capacity)
        self._next_obs = np.empty((capacity, obs_dim))
        self._dones = np.empty(capacity, dtype=bool)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def contents(self) -> Batch:
        """Copies of the stored transitions (no particular order)."""
        n = self._size
        return (
            self._obs[:n].copy(),
            self._actions[:n].copy(),
            self._rewards[:n].copy(),
            self._next_obs[:n].copy(),
            self._dones[:n].copy(),
        )


def push_transition(buffer: ReplayBuffer, t: Transition) -> None:
    """Append one transition, evicting the oldest entry when full."""
    i = buffer._cursor
    t.obs.write_into(buffer._obs[i])
    buffer._actions[i] = int(t.action)
    buffer._rewards[i] = t.reward
    t.next_obs.write_into(buffer._next_obs[i])
    buffer._dones[i] = t.done
    buffer._cursor = (i + 1) % buffer.capacity
    buffer._size = min(buffer._size + 1, buffer.capacity)


def sample_batch(
    buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator
) -> Batch | None:
    """Uniform batch with replacement, or None while the buffer is underfull."""
    if len(buffer) < batch_size:
        return None
    idx = rng.integers(len(buffer), size=batch_size)
    # fancy indexing copies, so the batch never aliases the ring
    return (
        buffer._obs[idx],
        buffer._actions[idx],
        buffer._rewards[idx],
        buffer._next_obs[idx],
        buffer._dones[idx],
    )


def td_targets(
    target_net: QNetwork,
    norm: ObservationNormalizer,
    rewards: np.ndarray,
    next_obs: np.ndarray,
    dones: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Bootstrap targets r + gamma * max_a Q_target(s', a), truncated at episode end."""
    q_next = forward_batch(target_net, norm.apply(next_obs))
    return rewards + gamma * q_next.max(axis=1) * ~np.asarray(dones, dtype=bool)


def train_step(
    net: QNetwork,
    target_net: QNetwork,
    buffer: ReplayBuffer,
    opt: AdamState,
    batch_size: int,
    gamma: float,
    norm: ObservationNormalizer,
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
    obs, actions, rewards, next_obs, dones = batch
    targets = td_targets(target_net, norm, rewards, next_obs, dones, gamma)
    loss, grads = td_loss_and_grads(net, norm.apply(obs), actions, targets)
    if not np.isfinite(loss):
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
        dims = [int(d) for d in header["layer_dims"]]
        norm_f = header["normalizer"]
        opt_f = header["optimizer"]
        norm = ObservationNormalizer(
            float(norm_f["price_mean"]),
            float(norm_f["price_std"]),
            float(norm_f["charge_scale"]),
        )
        metadata = dict(header["metadata"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} has a corrupt header: {exc}") from exc
    off += header_len
    if len(dims) < 2 or min(dims) < 1 or dims[-1] != ACTION_COUNT:
        raise CheckpointError(
            f"checkpoint {path} has layer dims {dims}; need at least 2 positive "
            f"widths ending in {ACTION_COUNT} (one output per action)"
        )

    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes.append((fan_in, fan_out))
        shapes.append((fan_out,))

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal off
        count = int(np.prod(shape))
        end = off + 8 * count
        if end > len(blob):
            raise CheckpointError(f"checkpoint {path} parameter block is truncated")
        # read-only; QNetwork and AdamState copy it in
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        off = end
        return arr

    params = [take(s) for s in shapes]
    first = [take(s) for s in shapes]
    second = [take(s) for s in shapes]
    if off != len(blob):
        raise CheckpointError(f"checkpoint {path} has {len(blob) - off} trailing bytes")

    net = QNetwork(params[0::2], params[1::2])
    try:
        opt = AdamState(
            learning_rate=float(opt_f["learning_rate"]),
            beta1=float(opt_f["beta1"]),
            beta2=float(opt_f["beta2"]),
            epsilon=float(opt_f["epsilon"]),
            step_count=int(opt_f["step_count"]),
            first_moment=first,
            second_moment=second,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} optimizer header is corrupt: {exc}") from exc
    return Checkpoint(net, opt, norm, metadata)
