"""How fast the shared machine is right now, from fixed kernels of the benchmark's own.

On a shared host, other tenants slow every program down by up to 2x, for
stretches from a tenth of a second to minutes. CPU time stretches with wall
time (the contention is for the core and its caches, not stolen time), so
neither clock escapes it, and a run can sit in a slow stretch from start to
end. So the benchmark runs :func:`probe` every ``PROBE_EVERY_S`` of timed
work and around each timed operation, and reports the program's time at
reference speed: a stretch of ``t`` seconds with the machine running ``k``
times slower than the reference on both sides counts as ``t / k``. Program
and probe slow down together, so the ratio follows the program rather than
the neighbours.

The probe times three small kernels, one for each kind of work the program
does: interpreter loops, numpy calls on small arrays, and small matrix
products. Contention slows them by different factors (up to about 1.5x, 2x
and 1.5x), and slows each part of the program like the kernels of its kind.
An operation is scaled by the kernels it resembles, given as weights:
``WHOLE`` weighs the three alike (training, rollouts, ingest);
``SMALL_ARRAYS`` is the oracle's dynamic programme, small-array numpy calls
in a Python loop. The kernels live here, not in ``src/``, so that no change
to the program changes them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Each kernel's fastest time on the 2-core Xeon virtual machine the
#: benchmark was written on; together they only set the scale of the rates.
REFERENCE_S = (0.50e-3, 0.48e-3, 0.49e-3)
WHOLE = (1.0, 1.0, 1.0)
SMALL_ARRAYS = (0.0, 1.0, 0.0)
#: Timed work between two probes, at the first call boundary after it.
PROBE_EVERY_S = 0.05

_RNG = np.random.default_rng(0)
_W = np.linspace(0.0, 1.0, 41)
_A = _RNG.normal(size=(64, 64)) / 8.0
_X = _RNG.normal(size=(32, 64))


def _interpreter() -> int:
    acc = 0
    for i in range(7000):
        acc += i * i % 7
    return acc


def _small_arrays() -> float:
    v = np.zeros(41)
    acc = 0.0
    for i in range(120):
        v = np.maximum(v * 0.99 + _W[i % 41], _W)
        acc += float(v[int(np.argmax(v))])
    return acc


def _matmuls() -> float:
    x = _X
    for _ in range(45):
        x = np.tanh(x @ _A)
    return float(x[0, 0])


KERNELS = (_interpreter, _small_arrays, _matmuls)


def probe() -> tuple[float, ...]:
    """Seconds each kernel takes now."""
    times = []
    for kernel in KERNELS:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return tuple(times)


def slowdown(times: tuple[float, ...], weights: tuple[float, ...] = WHOLE) -> float:
    """How many times slower than the reference the machine ran the weighted kernels."""
    return sum(w * t for w, t in zip(weights, times)) / sum(w * r for w, r in zip(weights, REFERENCE_S))


def normalized(seconds: float, before, after, weights: tuple[float, ...] = WHOLE) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at reference speed."""
    return 2.0 * seconds / (slowdown(before, weights) + slowdown(after, weights))


class Timing:
    """One timed operation: its stretches of work and the probes around them.

    ``stretches[j]`` is the work done between ``probes[j]`` and
    ``probes[j + 1]``, so there is one probe more than stretches. Without
    probes, the operation is one stretch at reference speed.
    """

    def __init__(self, weights: tuple[float, ...] = WHOLE) -> None:
        self.weights = weights
        self.stretches: list[float] = []
        self.probes: list[tuple[float, ...]] = []

    @property
    def wall_s(self) -> float:
        return sum(self.stretches)

    @property
    def normalized_s(self) -> float:
        if not self.probes:
            return self.wall_s
        pairs = zip(self.stretches, self.probes, self.probes[1:])
        return sum(normalized(s, before, after, self.weights) for s, before, after in pairs)
