"""Dense Q-network with hand-rolled backprop and Adam.

Everything is plain float64 numpy: a [window+1, 64, 64, 3] multilayer
perceptron (rectified-linear hidden layers, identity output, one output per
action), the Huber temporal-difference loss with its analytic gradients, and
an adaptive-moment optimizer. No autograd framework is involved, which keeps
the arithmetic reproducible bit for bit under fixed seeds and lets the test
suite check gradients against finite differences directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .env import Observation

#: Hidden layer widths of the default architecture.
HIDDEN_DIMS = (64, 64)
#: One output node per action.
ACTION_COUNT = 3


def _pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy ``arrays`` into one new float64 vector, end to end in list order.

    Returns the vector and one view of it per array, in the array's shape.
    """
    flat = np.empty(sum(np.size(a) for a in arrays))
    views = []
    offset = 0
    for a in arrays:
        a = np.asarray(a)
        view = flat[offset : offset + a.size].reshape(a.shape)
        view[...] = a
        views.append(view)
        offset += a.size
    return flat, views


class QNetwork:
    """Layer parameters of the Q-function approximator.

    ``weights[k]`` has shape (fan_in, fan_out); activations flow left to
    right through rectified-linear hidden layers onto a linear output of
    width 3 (the per-action Q-values).

    All parameters live in one contiguous vector, ``flat``, in
    :meth:`parameters` order; ``weights`` and ``biases`` are tuples of views
    into it, so a layer can only be changed in place. The constructor copies
    the given arrays in.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.flat, params = _pack([p for pair in zip(weights, biases) for p in pair])
        self.weights = tuple(params[0::2])
        self.biases = tuple(params[1::2])

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def parameters(self) -> list[np.ndarray]:
        """All parameter arrays, interleaved [W0, b0, W1, b1, ...]."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def clone(self) -> "QNetwork":
        return QNetwork(self.weights, self.biases)


def init_network(window_hours: int, seed: int, hidden_dims: tuple[int, ...] = HIDDEN_DIMS) -> QNetwork:
    """Fresh network for a given observation window, deterministic per seed.

    Weights are uniform in +/-sqrt(6/fan_in), biases zero.
    """
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
    dims = (window_hours + 1, *hidden_dims, ACTION_COUNT)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QNetwork(weights, biases)


@dataclass(frozen=True)
class ObservationNormalizer:
    """Input scaling frozen at training start and stored in checkpoints.

    Prices are standardized by the training series' mean/std; charge is
    scaled to [0, 1] by the battery capacity. Raw cents and kWh sit on very
    different scales, which would skew early learning.
    """

    price_mean: float
    price_std: float
    charge_scale: float

    def __post_init__(self) -> None:
        # a zero, negative or non-finite divisor turns every input into inf/NaN
        # or flips its sign; load_checkpoint maps this to a CheckpointError
        if not math.isfinite(self.price_mean):
            raise ValueError(f"price_mean must be finite, got {self.price_mean}")
        for name in ("price_std", "charge_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @classmethod
    def from_series(cls, prices_cents: np.ndarray, capacity_kwh: float) -> "ObservationNormalizer":
        mean = float(np.mean(prices_cents))
        std = float(np.std(prices_cents))
        # a constant series rounds to a tiny but nonzero std; dividing by it
        # would blow inputs up by ~1e15, so treat vanishing spread as unit
        if not math.isfinite(std) or std <= 1e-12 * max(1.0, abs(mean)):
            std = 1.0
        return cls(mean, std, capacity_kwh)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Normalize an input vector (L+1,) or batch (B, L+1) into a new array."""
        out = np.array(x, dtype=np.float64)
        out[..., :-1] -= self.price_mean
        out[..., :-1] /= self.price_std
        out[..., -1] /= self.charge_scale
        return out

    def price_windows(self, prices: np.ndarray, window_hours: int) -> np.ndarray:
        """Read-only (M, window_hours) matrix of normalized price windows, rows
        views into one padded array: row ``n`` is the ``recent_prices`` of an
        observation at hour ``n`` as :meth:`apply` normalizes them, bit for bit."""
        padded = np.concatenate([np.full(window_hours - 1, prices[0]), prices], dtype=np.float64)
        padded -= self.price_mean
        padded /= self.price_std
        return np.lib.stride_tricks.sliding_window_view(padded, window_hours)


def input_rows(
    windows: np.ndarray, hours: np.ndarray, charges: np.ndarray, charge_scale: float
) -> np.ndarray:
    """Normalized network inputs (B, L+1) for B (hour index, charge) states.

    Row ``k`` is ``windows[hours[k]]`` (see :meth:`ObservationNormalizer.price_windows`),
    then ``charges[k] / charge_scale``: the bits of ``ObservationNormalizer.apply``
    on ``Observation.vector()``. The learner's ``sample_batch`` and the act
    path of ``train_agent`` write the same layout in place.
    """
    x = np.empty((len(hours), windows.shape[1] + 1))
    x[:, :-1] = windows[hours]
    np.divide(charges, charge_scale, out=x[:, -1])
    return x


def forward_batch(net: QNetwork, x: np.ndarray) -> np.ndarray:
    """Q-values (B, 3) for a batch of already-normalized inputs (B, L+1)."""
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} does not match network input {net.input_dim}")
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
    return h


def forward(net: QNetwork, obs: Observation, norm: ObservationNormalizer) -> np.ndarray:
    """Q-values (3,) for one raw observation.

    The readable specification of what the agent acts on; training and
    evaluation get the same bits from :func:`forward_batch` on
    :func:`input_rows`, and the reference tests compare the two.
    """
    return forward_batch(net, norm.apply(obs.vector()[None]))[0]


def td_loss_and_grads(
    net: QNetwork,
    x: np.ndarray,
    action_idx: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Huber loss between Q(s, a) and fixed targets, with analytic gradients.

    ``x`` is the normalized input batch, ``action_idx`` the taken actions,
    ``targets`` the (already computed, gradient-free) TD targets. Returns the
    mean loss over the batch and gradients aligned with ``net.parameters()``.
    The Huber transition point is at unit error, so single outlier prices
    cannot blow up an update.
    """
    batch = x.shape[0]
    if batch == 0:
        raise ValueError("empty batch")

    # Forward, keeping each layer's input for the backward sweep. A hidden
    # unit passes gradient where its output is positive, which is where its
    # pre-activation was (NaN included), so no pre-activation is kept.
    act: list[np.ndarray] = [x]
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
        act.append(h)

    q = act[-1]
    rows = np.arange(batch)
    err = q[rows, action_idx] - targets
    abs_err = np.abs(err)
    # np.add.reduce(...) / batch is np.mean's arithmetic, without its dispatch
    loss = float(np.add.reduce(np.where(abs_err <= 1.0, 0.5 * err * err, abs_err - 0.5)) / batch)

    # d loss / d q_taken, spread onto the taken-action outputs only.
    clipped = np.maximum(err, -1.0, out=err)
    np.minimum(clipped, 1.0, out=clipped)
    clipped /= batch
    dq = np.zeros_like(q)
    dq[rows, action_idx] = clipped

    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(net.weights))
    delta = dq
    for k in range(last, -1, -1):
        grads[2 * k] = act[k].T @ delta
        grads[2 * k + 1] = np.add.reduce(delta, axis=0)
        if k > 0:
            delta = delta @ net.weights[k].T
            delta *= act[k] > 0.0
    return loss, grads


@dataclass(eq=False)
class AdamState:
    """Adaptive-moment optimizer state for one network.

    The moments ``m`` and ``v`` are flat float64 vectors laid out like
    ``QNetwork.flat``. The constructor copies them in.
    """

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: np.ndarray = ()
    v: np.ndarray = ()

    def __post_init__(self) -> None:
        self.m = np.array(self.m, dtype=np.float64)
        self.v = np.array(self.v, dtype=np.float64)
        # scratch for adam_update, so a step allocates nothing
        self._grad = np.empty_like(self.m)
        self._step = np.empty_like(self.m)

    @classmethod
    def for_network(cls, net: QNetwork, learning_rate: float = 1e-4) -> "AdamState":
        return cls(learning_rate=learning_rate, m=np.zeros_like(net.flat), v=np.zeros_like(net.flat))

    def clone(self) -> "AdamState":
        # replace() runs the constructor, which copies m and v
        return replace(self)


def adam_update(opt: AdamState, net: QNetwork, grads: list[np.ndarray]) -> None:
    """Apply one bias-corrected adaptive-moment step in place.

    One pass of in-place vector operations over the flat parameters and
    moments. Each element sees the arithmetic of the per-array rule
    ``m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)`` in the same order, so the
    result is the same bit for bit.
    """
    opt.step_count += 1
    t = opt.step_count
    c1 = 1.0 - opt.beta1**t
    c2 = 1.0 - opt.beta2**t
    g = np.concatenate(grads, axis=None, out=opt._grad)
    m, v, s = opt.m, opt.v, opt._step
    m *= opt.beta1
    np.multiply(g, 1.0 - opt.beta1, out=s)
    m += s
    v *= opt.beta2
    np.multiply(g, 1.0 - opt.beta2, out=s)
    s *= g
    v += s
    np.divide(m, c1, out=s)
    s *= opt.learning_rate
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += opt.epsilon
    s /= g
    net.flat -= s
