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

from .env import ACTIONS, Observation, is_count
from .errors import ValidationError

#: Hidden layer widths of the default architecture.
HIDDEN_DIMS = (64, 64)
#: One output node per action.
ACTION_COUNT = len(ACTIONS)


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
    if not is_count(window_hours):
        raise ValueError(f"window_hours must be an integer >= 1, got {window_hours!r}")
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
        # or flips its sign, and a bool would be saved as a JSON true, which
        # the reader refuses; load_checkpoint maps these to a CheckpointError
        for name in ("price_mean", "price_std", "charge_scale"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)}")
        if not math.isfinite(self.price_mean):
            raise ValueError(f"price_mean must be finite, got {self.price_mean}")
        for name in ("price_std", "charge_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @classmethod
    def from_series(cls, prices_cents: np.ndarray, capacity_kwh: float) -> "ObservationNormalizer":
        # a sum past the float range is inf or nan, without a warning: rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(prices_cents))
            std = float(np.std(prices_cents))
        if not math.isfinite(mean):
            raise ValidationError("price mean is not finite: prices beyond float range")
        if not math.isfinite(std):
            raise ValidationError("price spread is not finite: prices beyond float range")
        # a constant series rounds to a tiny but nonzero std; dividing by it
        # would blow inputs up by ~1e15, so treat vanishing spread as unit
        if std <= 1e-12 * max(1.0, abs(mean)):
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
        observation at hour ``n`` as :meth:`apply` normalizes them, bit for bit.

        Every network input is read from the pair-window matrix
        ``price_windows(prices, L + 1)`` of an L-hour observation window: its
        row ``n + 1`` is hour ``n``'s window, then hour ``n + 1``'s price. So
        ``row[:-1]`` with the charge over ``charge_scale`` in place of
        ``row[-1]`` is the input of state (``n``, charge), and ``row[1:]`` is
        the window of its successor at hour ``n + 1``."""
        padded = np.concatenate([np.full(window_hours - 1, prices[0]), prices], dtype=np.float64)
        padded -= self.price_mean
        padded /= self.price_std
        return np.lib.stride_tricks.sliding_window_view(padded, window_hours)


def _activations(net: QNetwork, x: np.ndarray) -> list[np.ndarray]:
    """``[x, h1, ..., q]``: each layer's input for a batch ``x``, then its Q-values."""
    act = [x]
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = act[-1] @ w
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
        act.append(h)
    return act


def forward_batch(net: QNetwork, x: np.ndarray) -> np.ndarray:
    """Q-values (B, 3) for a batch of already-normalized inputs (B, L+1)."""
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} does not match network input {net.input_dim}")
    return _activations(net, x)[-1]


def _layers(h: np.ndarray, layers: list[tuple]) -> np.ndarray:
    """Run ``h`` through ``(weights, biases, out, zero)`` layers: per layer the
    gemm of :func:`forward_batch` into ``out``, the add of ``biases`` (tiled
    or broadcast to ``out``'s rows), then the ReLU against the ``zero`` block,
    unless it is None."""
    for w, b, out, zero in layers:
        h = np.matmul(h, w, out=out)
        h += b
        if zero is not None:
            np.maximum(h, zero, out=h)
    return h


class BlockForward:
    """Q-values of every (hour, charge level) cell of a block of ``hours``
    hours, on buffers allocated once.

    Fill ``windows`` and call ``self()`` for the Q-values (levels * hours,
    3), level-major: row ``j * hours + h`` is the cell whose input row is
    ``windows[h]`` then ``charges[j]``. The first layer is split along that
    seam: one gemm a block multiplies the windows by ``W0[:-1]``, and each
    level's rows are a copy of that product plus the level's row
    ``charges[j] * W0[-1] + b0``, computed once and tiled to the block, in
    one contiguous add. Later layers are the gemm, add and ReLU of
    :func:`forward_batch`, against biases tiled to the block and a zero
    block in place of numpy's broadcasting. The split sums in another order
    than :func:`forward_batch` on the full rows, so the Q-values agree with
    it to a few ulps, not bit for bit. The result is a view into the
    workspace, overwritten by the next call.

    The level rows and tiled biases are copies, valid only while ``net`` is
    unchanged, as it is within one greedy rollout.
    """

    def __init__(self, net: QNetwork, hours: int, charges: np.ndarray):
        rows = hours * len(charges)
        w0, b0 = net.weights[0], net.biases[0]
        self.windows = np.empty((hours, net.input_dim - 1))
        self._w0 = w0[:-1]
        self._product = np.empty((hours, w0.shape[1]))
        # level j's row once for each hour of the block
        self._level_rows = np.multiply.outer(np.repeat(charges, hours), w0[-1])
        self._level_rows += b0
        self._first = np.empty((rows, w0.shape[1]))
        self._cells = self._first.reshape(len(charges), hours, -1)
        # a zero block for each layer but the last, which has no ReLU
        zeros = np.zeros((rows, max(net.layer_dims[1:-1], default=0)))
        self._relu, *relu = [zeros[:, :d] for d in net.layer_dims[1:-1]] + [None]
        self._later = [
            (w, np.tile(b, (rows, 1)), np.empty((rows, w.shape[1])), zero)
            for w, b, zero in zip(net.weights[1:], net.biases[1:], relu)
        ]

    def __call__(self) -> np.ndarray:
        np.matmul(self.windows, self._w0, out=self._product)
        np.copyto(self._cells, self._product)
        h = self._first
        h += self._level_rows
        if self._relu is not None:
            np.maximum(h, self._relu, out=h)
        return _layers(h, self._later)


class RowForward:
    """A one-row :func:`forward_batch` on the live parameters, on buffers
    allocated once: the act path of training.

    Fill ``x[0]`` and call ``self()[0]`` for that row's Q-values (3,), the
    bits :func:`forward_batch` gives on it: each layer is the same gemm,
    written into its output buffer, then the same elementwise add and ReLU.
    The biases are (1, d) views of ``net.biases``, not copies, so the
    workspace follows every in-place update of ``net`` and one serves a
    whole training run.
    """

    def __init__(self, net: QNetwork):
        self.x = np.empty((1, net.input_dim))
        last = len(net.weights) - 1
        self.layers = [
            (w, b[None], np.empty((1, w.shape[1])), None if k == last else np.zeros((1, w.shape[1])))
            for k, (w, b) in enumerate(zip(net.weights, net.biases))
        ]

    def __call__(self) -> np.ndarray:
        return _layers(self.x, self.layers)


def forward(net: QNetwork, obs: Observation, norm: ObservationNormalizer) -> np.ndarray:
    """Q-values (3,) for one raw observation.

    The readable specification of what the agent acts on. Training runs
    :func:`forward_batch` on rows of
    :meth:`ObservationNormalizer.price_windows` ``(prices, L + 1)`` instead,
    and evaluation :class:`BlockForward` on their windows: a row inside a
    batch of several rounds differently in the last bits, and the blocks
    split the first layer, so their Q-values agree with these to a few ulps,
    while the actions and returns match exactly, as the reference tests
    check.
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

    # Each layer's input is kept for the backward sweep. A hidden unit passes
    # gradient where its output is positive, which is where its
    # pre-activation was (NaN included), so no pre-activation is kept.
    act = _activations(net, x)
    q = act[-1]
    rows = np.arange(batch)
    err = q[rows, action_idx] - targets
    abs_err = np.abs(err)
    # Huber as s * (|e| - s / 2) with s = min(|e|, 1): the same bits as
    # 0.5 * e * e below 1 and |e| - 0.5 above, and no square of a large error.
    # np.add.reduce(...) / batch is np.mean's arithmetic, without its dispatch
    s = np.minimum(abs_err, 1.0)
    loss = float(np.add.reduce(s * (abs_err - 0.5 * s)) / batch)

    # d loss / d q_taken, spread onto the taken-action outputs only.
    clipped = np.maximum(err, -1.0, out=err)
    np.minimum(clipped, 1.0, out=clipped)
    clipped /= batch
    dq = np.zeros_like(q)
    dq[rows, action_idx] = clipped

    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(net.weights))
    delta = dq
    for k in range(len(net.weights) - 1, -1, -1):
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


#: ``adam_update`` flushes subnormal first moments after every update whose
#: ``step_count`` is a multiple of this.
FLUSH_EVERY = 64
_TINY = np.finfo(np.float64).tiny


def adam_update(opt: AdamState, net: QNetwork, grads: list[np.ndarray]) -> None:
    """Apply one bias-corrected adaptive-moment step in place.

    One pass of in-place vector operations over the flat parameters and
    moments. Each element sees the arithmetic of the per-array rule
    ``m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)`` in the same order, so the
    result is the same bit for bit. Once a correction ``c1`` or ``c2`` has
    rounded to exactly 1.0 (from update 356 and 37,412 at the default betas)
    its divide is the identity and is skipped.

    After every ``FLUSH_EVERY``-th update (by ``step_count``, so a resumed
    run flushes at the same updates) first moments below the smallest normal
    float are set to 0. A dead unit's moment decays by ``b1`` per update
    into the subnormal range, where arithmetic is many times slower, and
    stays there (``0.9 * 2**-1074`` rounds back to ``2**-1074``). The step such a moment gives is below
    ``lr * tiny / (c1 * eps)`` (about 2e-303 at the defaults), which moves no
    parameter of magnitude above about 2e-287, so the parameters and ``v``
    keep their bits; only such moments differ from the per-array rule's.
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
    if c1 == 1.0:
        np.multiply(m, opt.learning_rate, out=s)
    else:
        np.divide(m, c1, out=s)
        s *= opt.learning_rate
    if c2 == 1.0:
        np.sqrt(v, out=g)
    else:
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
    g += opt.epsilon
    s /= g
    net.flat -= s
    if t % FLUSH_EVERY == 0:
        m[np.abs(m) < _TINY] = 0.0
