"""Epsilon-greedy actions, replay ring, TD targets, sync, checkpoints."""

import json
import struct

import numpy as np
import pytest

from rtp_arb import (
    Action,
    AdamState,
    CheckpointError,
    Hyperparams,
    ObservationNormalizer,
    QNetwork,
    ReplayBuffer,
    forward_batch,
    init_network,
    load_checkpoint,
    push_transition,
    sample_batch,
    save_checkpoint,
    select_action,
    sync_target,
    td_targets,
    train_step,
)
from rtp_arb.dqn import CHECKPOINT_MAGIC

IDENTITY_NORM = ObservationNormalizer(price_mean=0.0, price_std=1.0, charge_scale=1.0)


class TestSelectAction:
    def test_greedy_argmax(self):
        assert select_action(np.array([5.0, -1.0, 2.0]), 0.0) == Action.CHARGE

    def test_greedy_tie_breaks_to_lowest_code(self):
        assert select_action(np.array([0.3, 0.9, 0.9]), 0.0) == Action.DISCHARGE
        assert select_action(np.array([1.0, 1.0, 1.0]), 0.0) == Action.CHARGE

    def test_greedy_needs_no_rng(self):
        assert select_action(np.array([0.0, 1.0, 0.0]), 0.0) == Action.DISCHARGE

    def test_exploring_without_rng_raises(self):
        with pytest.raises(ValueError):
            select_action(np.array([1.0, 0.0, 0.0]), 0.5)

    def test_epsilon_out_of_range_raises(self):
        with pytest.raises(ValueError):
            select_action(np.array([1.0, 0.0, 0.0]), 1.5, np.random.default_rng(0))

    def test_full_exploration_is_uniform(self):
        rng = np.random.default_rng(123)
        q = np.array([99.0, -5.0, 0.0])
        draws = 30_000
        counts = np.zeros(3)
        for _ in range(draws):
            counts[select_action(q, 1.0, rng)] += 1
        freqs = counts / draws
        np.testing.assert_allclose(freqs, 1.0 / 3.0, atol=0.01)

    def test_scale_invariance_of_greedy_choice(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = rng.normal(size=3)
            base = select_action(q, 0.0)
            for c in (0.5, 2.0, 1000.0, 1e-6):
                assert select_action(q * c, 0.0) == base


def make_buffer(capacity: int) -> ReplayBuffer:
    """A ring over the identity-normalized prices 1, 2, 3 with 2-hour windows:
    hour 1 reads (1, 2), hour 2 reads (2, 3). The ring holds 3-hour pair windows."""
    windows = IDENTITY_NORM.price_windows(np.array([1.0, 2.0, 3.0]), 3)
    return ReplayBuffer(capacity, windows, IDENTITY_NORM.charge_scale)


def push(buf: ReplayBuffer, reward: float, done: bool = False, tag: float = 0.0) -> None:
    """Push (hour 1, charge tag) -IDLE-> (hour 2, charge tag + 0.5)."""
    push_transition(buf, 1, tag, Action.IDLE, reward, tag + 0.5, done)


class TestReplayBuffer:
    def test_push_to_empty(self):
        buf = make_buffer(capacity=4)
        assert len(buf) == 0
        push(buf, 1.0)
        assert len(buf) == 1

    def test_fifo_eviction(self):
        buf = make_buffer(capacity=2)
        for r in (1.0, 2.0, 3.0):
            push(buf, r)
        assert set(buf.rewards[: len(buf)]) == {2.0, 3.0}

    def test_size_saturates_at_capacity(self):
        buf = make_buffer(capacity=100)
        for i in range(1000):
            push(buf, float(i))
        assert len(buf) == 100
        assert set(buf.rewards[: len(buf)]) == set(float(i) for i in range(900, 1000))

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            make_buffer(capacity=0)

    @pytest.mark.parametrize("capacity", [2.5, True, False, -1])
    def test_names_the_capacity_it_rejects(self, capacity):
        # 2.5 and True once failed inside np.empty with a bare TypeError
        with pytest.raises(ValueError, match=f"^capacity must be an integer >= 1, got {capacity!r}$"):
            make_buffer(capacity=capacity)

    def test_ring_at_default_capacity_is_small(self):
        buf = ReplayBuffer(Hyperparams().buffer_capacity, make_buffer(1).windows, 1.0)
        ring = [v for k, v in vars(buf).items() if isinstance(v, np.ndarray) and k != "windows"]
        assert len(ring) == 6
        assert sum(a.nbytes for a in ring) < 10 * 2**20

    def test_sample_underfull_returns_none(self):
        buf = make_buffer(capacity=8)
        push(buf, 1.0)
        assert sample_batch(buf, 2, np.random.default_rng(0)) is None

    def test_sample_single(self):
        buf = make_buffer(capacity=8)
        push(buf, 7.5, done=True, tag=0.25)
        x, actions, rewards, next_x, dones = sample_batch(buf, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(x[0], [1.0, 2.0, 0.25])
        np.testing.assert_array_equal(next_x[0], [2.0, 3.0, 0.75])
        assert actions[0] == int(Action.IDLE)
        assert rewards[0] == 7.5
        assert bool(dones[0]) is True

    def test_sampling_is_deterministic_per_seed(self):
        buf = make_buffer(capacity=8)
        for r in range(5):
            push(buf, float(r))
        a = sample_batch(buf, 3, np.random.default_rng(99))
        b = sample_batch(buf, 3, np.random.default_rng(99))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_sampling_is_uniform_chi_square(self):
        # aggregate frequency check with a pinned seed: the chi-square
        # statistic of index counts must sit within 5 sigma of its mean
        size = 1000
        buf = make_buffer(capacity=size)
        for r in range(size):
            push(buf, float(r))
        rng = np.random.default_rng(2024)
        counts = np.zeros(size)
        draws = 10_000
        for _ in range(draws):
            _, _, rewards, _, _ = sample_batch(buf, 32, rng)
            np.add.at(counts, rewards.astype(int), 1)
        expected = draws * 32 / size
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        df = size - 1
        assert abs(chi2 - df) < 5.0 * np.sqrt(2.0 * df)


class TestTdTargets:
    def zero_net_with_q(self, q_values):
        net = QNetwork(
            [np.zeros((3, 3))],
            [np.array(q_values, dtype=float)],
        )
        return net

    def test_terminal_masks_bootstrap(self):
        net = self.zero_net_with_q([5.0, 5.0, 5.0])
        out = td_targets(net, np.array([1.0]), np.zeros((1, 3)), np.array([True]), 0.99)
        assert out[0] == 1.0

    def test_bootstrap_arithmetic(self):
        net = self.zero_net_with_q([2.0, 0.0, -1.0])
        out = td_targets(net, np.array([0.5]), np.zeros((1, 3)), np.array([False]), 0.99)
        assert out[0] == pytest.approx(2.48, rel=1e-12)

    def test_myopic_gamma_zero(self):
        net = self.zero_net_with_q([100.0, 3.0, 9.0])
        out = td_targets(net, np.array([0.0]), np.zeros((1, 3)), np.array([False]), 0.0)
        assert out[0] == 0.0


def filled_buffer(capacity: int, n: int, seed: int = 0) -> ReplayBuffer:
    """A ring holding ``n`` random transitions over a random 2-hour-window series."""
    rng = np.random.default_rng(seed)
    windows = IDENTITY_NORM.price_windows(rng.normal(size=n + 1), 3)
    buf = ReplayBuffer(capacity, windows, IDENTITY_NORM.charge_scale)
    for hour in range(n):
        charge, next_charge = rng.uniform(0, 1, size=2)
        action = Action(int(rng.integers(3)))
        push_transition(buf, hour, float(charge), action, float(rng.normal()), float(next_charge), False)
    return buf


class TestTrainStep:
    def test_underfull_buffer_skips(self):
        net = init_network(2, seed=0, hidden_dims=(4,))
        buf = filled_buffer(64, 0)
        opt = AdamState.for_network(net)
        out = train_step(net, net.clone(), buf, opt, 32, 0.99, np.random.default_rng(0))
        assert out is None
        assert opt.step_count == 0

    def test_updates_online_but_never_target(self):
        net = init_network(2, seed=1, hidden_dims=(8,))
        target = net.clone()
        target_before = [p.copy() for p in target.parameters()]
        online_before = [p.copy() for p in net.parameters()]
        buf = filled_buffer(256, 64)
        opt = AdamState.for_network(net)
        rng = np.random.default_rng(5)
        for _ in range(10):
            loss = train_step(net, target, buf, opt, 16, 0.99, rng)
            assert loss is not None and np.isfinite(loss)
        for before, after in zip(target_before, target.parameters()):
            np.testing.assert_array_equal(before, after)
        assert any(
            not np.array_equal(b, a) for b, a in zip(online_before, net.parameters())
        )
        assert opt.step_count == 10

    def test_descends_on_fixed_replay(self):
        net = init_network(2, seed=3, hidden_dims=(8,))
        target = net.clone()
        buf = filled_buffer(64, 64, seed=7)
        opt = AdamState.for_network(net, learning_rate=1e-3)
        rng = np.random.default_rng(11)
        losses = [train_step(net, target, buf, opt, 32, 0.9, rng) for _ in range(300)]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestSyncTarget:
    def test_sync_copies_behavior(self):
        net = init_network(3, seed=6)
        target = init_network(3, seed=60)
        x = np.random.default_rng(0).normal(size=(10, 4))
        assert not np.array_equal(forward_batch(net, x), forward_batch(target, x))
        sync_target(net, target)
        np.testing.assert_array_equal(forward_batch(net, x), forward_batch(target, x))

    def test_sync_is_a_copy_not_a_view(self):
        net = init_network(2, seed=8, hidden_dims=(4,))
        target = net.clone()
        sync_target(net, target)
        net.weights[0][0, 0] += 1.0
        assert target.weights[0][0, 0] != net.weights[0][0, 0]


class TestCheckpoint:
    def roundtrip(self, tmp_path, metadata=None):
        net = init_network(4, seed=13, hidden_dims=(8, 6))
        opt = AdamState.for_network(net)
        # make the moments nonzero so the round trip is meaningful
        rng = np.random.default_rng(3)
        for _ in range(5):
            grads = [rng.normal(size=p.shape) for p in net.parameters()]
            from rtp_arb import adam_update

            adam_update(opt, net, grads)
        norm = ObservationNormalizer(3.1, 1.7, 13.5)
        metadata = metadata if metadata is not None else {"year": 2017, "step": 90_000}
        path = tmp_path / "agent.ckpt"
        save_checkpoint(net, opt, norm, metadata, path)
        return net, opt, norm, metadata, path

    def test_forward_identical_after_roundtrip(self, tmp_path):
        net, _, _, _, path = self.roundtrip(tmp_path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(1).normal(size=(100, 5))
        np.testing.assert_array_equal(forward_batch(net, x), forward_batch(loaded.net, x))

    def test_metadata_and_normalizer_preserved(self, tmp_path):
        metadata = {"year": 2018, "step": 120_000, "greedy_return_cents": 10432.5}
        _, opt, norm, _, path = self.roundtrip(tmp_path, metadata)
        loaded = load_checkpoint(path)
        assert loaded.metadata == metadata
        assert loaded.norm == norm
        assert loaded.opt.step_count == opt.step_count
        np.testing.assert_array_equal(opt.m, loaded.opt.m)
        np.testing.assert_array_equal(opt.v, loaded.opt.v)

    def test_corrupt_magic_rejected(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, -1])  # the first weight, the last bias
    def test_non_finite_parameter_rejected(self, tmp_path, value, at):
        net, opt, norm, metadata, path = self.roundtrip(tmp_path)
        net.flat[at] = value
        save_checkpoint(net, opt, norm, metadata, path)
        with pytest.raises(CheckpointError, match="non-finite parameter"):
            load_checkpoint(path)

    @staticmethod
    def rewrite_header(path, edit):
        """Rewrites the JSON header of the checkpoint at ``path`` with ``edit(header)``."""
        blob = path.read_bytes()
        off = len(CHECKPOINT_MAGIC)
        version, header_len = struct.unpack_from("<II", blob, off)
        header = json.loads(blob[off + 8 : off + 8 + header_len])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:off] + struct.pack("<II", version, len(new)) + new + blob[off + 8 + header_len :])

    @pytest.mark.parametrize(
        "section, key, value",
        [
            # float() would read these as 1.0, 3.0, 0.0 and 0.001
            ("normalizer", "price_std", True),
            ("normalizer", "price_mean", "3"),
            ("optimizer", "beta1", False),
            ("optimizer", "learning_rate", "0.001"),
            # int() would read these as 3, 5, 1 and 5
            ("optimizer", "step_count", 3.7),
            ("optimizer", "step_count", 5.0),
            ("optimizer", "step_count", True),
            ("optimizer", "step_count", "5"),
        ],
    )
    def test_header_numbers_only_as_the_writer_writes_them(self, tmp_path, section, key, value):
        _, _, _, _, path = self.roundtrip(tmp_path)
        self.rewrite_header(path, lambda header: header[section].__setitem__(key, value))
        with pytest.raises(CheckpointError, match=f"{key} .* is not an? (number|integer)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("width", [8.0, "8", True])
    def test_layer_dims_only_as_the_writer_writes_them(self, tmp_path, width):
        _, _, _, _, path = self.roundtrip(tmp_path)  # layer dims [5, 8, 6, 3]
        self.rewrite_header(path, lambda header: header["layer_dims"].__setitem__(1, width))
        with pytest.raises(CheckpointError, match="layer_dims .* is not an integer"):
            load_checkpoint(path)

    def test_float_fields_accept_json_integers(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path)
        self.rewrite_header(path, lambda header: header["normalizer"].update(price_mean=3, charge_scale=13))
        norm = load_checkpoint(path).norm
        assert norm == ObservationNormalizer(3.0, 1.7, 13.0)
        assert type(norm.price_mean) is float and type(norm.charge_scale) is float

    def test_infinite_second_moment_loads(self, tmp_path):
        # v = g * g overflows in a long enough run; the file is still an agent
        net, opt, norm, metadata, path = self.roundtrip(tmp_path)
        opt.v[3] = np.inf
        save_checkpoint(net, opt, norm, metadata, path)
        assert load_checkpoint(path).opt.v.tobytes() == opt.v.tobytes()
