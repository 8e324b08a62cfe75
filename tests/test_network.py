"""Q-network internals: init, forward pass, gradients, optimizer."""

import math

import numpy as np
import pytest

from rtp_arb import (
    AdamState,
    ObservationNormalizer,
    Observation,
    QNetwork,
    adam_update,
    forward,
    forward_batch,
    init_network,
    td_loss_and_grads,
)


def zero_net(dims):
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return QNetwork(weights, biases)


IDENTITY_NORM = ObservationNormalizer(price_mean=0.0, price_std=1.0, charge_scale=1.0)


class TestInitNetwork:
    def test_architecture(self):
        net = init_network(48, seed=7)
        assert net.layer_dims == (49, 64, 64, 3)
        assert net.input_dim == 49

    def test_window_of_one_gives_width_two(self):
        assert init_network(1, seed=0).layer_dims[0] == 2

    def test_deterministic_per_seed(self):
        a = init_network(48, seed=7)
        b = init_network(48, seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = init_network(4, seed=1)
        b = init_network(4, seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_weight_bounds_and_zero_biases(self):
        net = init_network(8, seed=3)
        for w in net.weights:
            bound = math.sqrt(6.0 / w.shape[0])
            assert np.all(np.abs(w) <= bound)
            assert np.any(w != 0.0)
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_forward_on_zero_input_is_finite(self):
        net = init_network(5, seed=11)
        q = forward_batch(net, np.zeros((1, 6)))
        assert q.shape == (1, 3)
        assert np.all(np.isfinite(q))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            init_network(0, seed=0)

    def test_clone_is_deep(self):
        net = init_network(3, seed=5)
        twin = net.clone()
        twin.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != twin.weights[0][0, 0]


class TestForward:
    def test_all_zero_network_outputs_zero(self):
        net = zero_net((4, 8, 3))
        obs = Observation(np.array([1.0, 2.0, 3.0]), 0.5)
        np.testing.assert_array_equal(forward(net, obs, IDENTITY_NORM), [0.0, 0.0, 0.0])

    def test_output_bias_passes_through(self):
        net = zero_net((4, 8, 3))
        net.biases[-1][:] = [1.0, 2.0, 3.0]
        obs = Observation(np.array([9.0, 9.0, 9.0]), 9.0)
        np.testing.assert_array_equal(forward(net, obs, IDENTITY_NORM), [1.0, 2.0, 3.0])

    def test_hand_computed_toy_net(self):
        # dims [1, 1, 3]: hidden z = 2 * 0.5 - 0.25 = 0.75, stays positive
        # through the rectifier, outputs [0.75 * 1 + 0.1, 0.75 * -2 + 0.2,
        # 0.75 * 4 + 0.3]
        net = QNetwork(
            weights=[np.array([[2.0]]), np.array([[1.0, -2.0, 4.0]])],
            biases=[np.array([-0.25]), np.array([0.1, 0.2, 0.3])],
        )
        q = forward_batch(net, np.array([[0.5]]))
        np.testing.assert_allclose(q[0], [0.85, -1.3, 3.3], rtol=1e-12)

    def test_rectifier_blocks_negative_preactivation(self):
        net = QNetwork(
            weights=[np.array([[2.0]]), np.array([[1.0, -2.0, 4.0]])],
            biases=[np.array([-0.25]), np.array([0.1, 0.2, 0.3])],
        )
        # z = 2 * -1 - 0.25 < 0, so only the output biases survive
        q = forward_batch(net, np.array([[-1.0]]))
        np.testing.assert_allclose(q[0], [0.1, 0.2, 0.3], rtol=1e-12)

    def test_width_mismatch_raises(self):
        net = zero_net((4, 8, 3))
        with pytest.raises(ValueError, match="input"):
            forward_batch(net, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            forward(net, Observation(np.array([1.0, 2.0]), 0.0), IDENTITY_NORM)

    def test_deterministic(self):
        net = init_network(6, seed=2)
        x = np.random.default_rng(0).normal(size=(5, 7))
        np.testing.assert_array_equal(forward_batch(net, x), forward_batch(net, x))


class TestNormalizer:
    def test_from_series(self):
        norm = ObservationNormalizer.from_series(np.array([2.0, 4.0, 6.0]), 10.0)
        assert norm.price_mean == 4.0
        assert norm.price_std == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)
        assert norm.charge_scale == 10.0

    def test_constant_series_keeps_unit_std(self):
        norm = ObservationNormalizer.from_series(np.full(24, 3.3), 13.5)
        assert norm.price_std == 1.0

    def test_apply_vector(self):
        norm = ObservationNormalizer(price_mean=4.0, price_std=2.0, charge_scale=10.0)
        out = norm.apply(np.array([2.0, 4.0, 6.0, 5.0]))
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0, 0.5], rtol=1e-12)

    def test_apply_batch(self):
        norm = ObservationNormalizer(price_mean=1.0, price_std=0.5, charge_scale=4.0)
        out = norm.apply(np.array([[1.0, 2.0, 2.0], [0.0, 1.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0, 0.5], [-2.0, 0.0, 1.0]], rtol=1e-12)

    def test_apply_copies_input(self):
        norm = ObservationNormalizer(price_mean=1.0, price_std=2.0, charge_scale=1.0)
        x = np.array([3.0, 0.5])
        norm.apply(x)
        np.testing.assert_array_equal(x, [3.0, 0.5])


class TestLossAndGradients:
    def test_huber_loss_values(self):
        net = zero_net((2, 3))
        x = np.zeros((1, 2))
        action = np.array([0])
        # quadratic region: err 0.5 -> 0.5 * 0.25; linear region: err 3 -> 2.5
        loss_small, _ = td_loss_and_grads(net, x, action, np.array([-0.5]))
        assert loss_small == pytest.approx(0.125, rel=1e-12)
        loss_large, _ = td_loss_and_grads(net, x, action, np.array([3.0]))
        assert loss_large == pytest.approx(2.5, rel=1e-12)

    def test_zero_error_batch_gives_zero_loss_and_grads(self):
        net = init_network(3, seed=9, hidden_dims=(8, 6))
        x = np.random.default_rng(1).normal(size=(5, 4))
        actions = np.array([0, 1, 2, 0, 1])
        q = forward_batch(net, x)
        targets = q[np.arange(5), actions]
        loss, grads = td_loss_and_grads(net, x, actions, targets)
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_empty_batch_rejected(self):
        net = zero_net((2, 3))
        with pytest.raises(ValueError):
            td_loss_and_grads(net, np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0))

    def test_gradients_only_touch_taken_actions(self):
        # with a zero network every action's Q is 0; gradients through the
        # output layer must appear only on the taken action's column
        net = zero_net((2, 3))
        x = np.array([[1.0, 2.0]])
        _, grads = td_loss_and_grads(net, x, np.array([1]), np.array([0.5]))
        w_out_grad = grads[0]
        assert np.all(w_out_grad[:, 0] == 0.0)
        assert np.all(w_out_grad[:, 2] == 0.0)
        assert np.any(w_out_grad[:, 1] != 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = init_network(3, seed=seed, hidden_dims=(8, 6))
        batch = 4
        x = rng.normal(size=(batch, 4))
        actions = rng.integers(3, size=batch)
        targets = rng.normal(scale=2.0, size=batch)

        _, grads = td_loss_and_grads(net, x, actions, targets)
        h = 1e-6
        for p_idx, param in enumerate(net.parameters()):
            numeric = np.empty_like(param)
            flat = param.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = td_loss_and_grads(net, x, actions, targets)
                flat[i] = orig - h
                down, _ = td_loss_and_grads(net, x, actions, targets)
                flat[i] = orig
                num_flat[i] = (up - down) / (2.0 * h)
            denom = max(float(np.linalg.norm(num_flat)), 1e-8)
            rel = float(np.linalg.norm(grads[p_idx].reshape(-1) - num_flat)) / denom
            assert rel < 1e-4, f"parameter block {p_idx}: relative error {rel}"


class TestAdam:
    def test_single_hand_computed_step(self):
        # one parameter at 1.0 with gradient 1.0: bias-corrected moments are
        # exactly 1, so the step is lr / (1 + eps)
        net = QNetwork([np.array([[1.0]])], [np.array([0.0])])
        opt = AdamState.for_network(net)
        adam_update(opt, net, [np.array([[1.0]]), np.array([0.0])])
        expected = 1.0 - 1e-4 / (1.0 + 1e-8)
        assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert net.weights[0][0, 0] == pytest.approx(0.9999, abs=1e-8)
        assert net.biases[0][0] == 0.0  # zero gradient moves nothing
        assert opt.step_count == 1

    def test_repeated_steps_descend_on_frozen_batch(self):
        rng = np.random.default_rng(42)
        net = init_network(3, seed=4, hidden_dims=(8, 6))
        opt = AdamState.for_network(net, learning_rate=1e-3)
        x = rng.normal(size=(16, 4))
        actions = rng.integers(3, size=16)
        targets = rng.normal(scale=2.0, size=16)
        first, _ = td_loss_and_grads(net, x, actions, targets)
        for _ in range(100):
            _, grads = td_loss_and_grads(net, x, actions, targets)
            adam_update(opt, net, grads)
        final, _ = td_loss_and_grads(net, x, actions, targets)
        assert final < first

    def test_state_clone_is_independent(self):
        net = init_network(2, seed=1, hidden_dims=(4,))
        opt = AdamState.for_network(net)
        twin = opt.clone()
        adam_update(opt, net, [np.ones_like(p) for p in net.parameters()])
        assert opt.step_count == 1
        assert twin.step_count == 0
        assert np.all(twin.m == 0.0) and np.all(twin.v == 0.0)
