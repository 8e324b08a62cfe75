"""Call-site spans for the traced benchmark run, and the probe clock of untraced passes.

Nothing in ``src/`` is edited. While a traced pass runs, the public names
that one package module imports from another (``rtp_arb.experiment.step``,
``rtp_arb.dqn.td_loss_and_grads``, ...) are swapped for wrappers that record
a span, and swapped back afterwards. Calls the benchmark makes itself go
through :meth:`Tracer.span` or :meth:`Tracer.wrap`.

A span records its name, start, end, parent span and pass id in flat
arrays, so a traced training pass (about 200k spans) costs a few MiB. The
self time of a span is its duration minus the time its direct children
cover; calls in one thread never overlap, so that is a plain sum.
"""

from __future__ import annotations

import contextlib
import statistics
from array import array
from time import perf_counter

import numpy as np

from probe import PROBE_EVERY_S, WHOLE, Timing, probe
from rtp_arb import charts, cli, dqn, experiment

ROLLOUT = "experiment.greedy_rollout"

#: (module, attribute, span name, split): ``split`` names the span
#: ``<name>.eval`` when it runs under a greedy rollout, ``<name>.act`` otherwise.
PATCHES = (
    (experiment, "greedy_rollout", ROLLOUT, False),
    (experiment, "forward", "network.forward", True),
    (experiment, "select_action", "dqn.select_action", True),
    (experiment, "step", "env.step", True),
    (experiment, "reset", "env.reset", False),
    (experiment, "push_transition", "dqn.push_transition", False),
    (experiment, "train_step", "dqn.train_step", False),
    (experiment, "sync_target", "dqn.sync_target", False),
    (dqn, "sample_batch", "dqn.sample_batch", False),
    (dqn, "td_targets", "dqn.td_targets", False),
    (dqn, "forward_batch", "network.forward_batch", False),
    (dqn, "td_loss_and_grads", "network.td_loss_and_grads", False),
    (dqn, "adam_update", "network.adam_update", False),
    (cli, "load_checkpoint", "dqn.load_checkpoint", False),
    (cli, "read_price_csv", "ingest.read_price_csv", False),
    (cli, "cross_test", "experiment.cross_test", False),
    (cli, "write_cross_test_csv", "experiment.write_cross_test_csv", False),
    (charts, "bar_chart", "charts.bar_chart", False),
)

#: Percentiles tried for ``tail_us``, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
SETUP_PASS = 0


#: (module, attribute, every): calls at whose entry and exit an untraced
#: pass may stop for a probe, every ``every``-th call of each.
MARKS = (
    (experiment, "greedy_rollout", 1),
    (experiment, "train_step", 50),
    (experiment, "step", 500),
)


class NoTrace:
    """Base of the pass hooks: spans and wrappers are the identity, and an
    operation is timed with a probe on each side (what traced passes use)."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn

    def installed(self):
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def timed(self, weights=WHOLE):
        """Time an operation; the yielded :class:`probe.Timing` holds its time."""
        timing = Timing(weights)
        timing.probes.append(probe())
        t0 = perf_counter()
        yield timing
        timing.stretches.append(perf_counter() - t0)
        timing.probes.append(probe())


class Clock(NoTrace):
    """Untraced passes: the machine-speed probes of :mod:`probe`, nothing else.

    Inside :meth:`timed`, the entry and exit of the benchmark's own spans
    and wrapped functions, and of the calls named in MARKS, are points where
    the pass may stop to run the probe kernel: at the first of them after
    PROBE_EVERY_S of work, and always at the start and end of the operation.
    Probe time is left out of the operation's time. Between probes a call
    costs a counter and, if marked, a clock read.
    """

    def __init__(self) -> None:
        self._timing: Timing | None = None
        self._since = 0.0  # start of the current stretch of work

    def _mark(self) -> None:
        timing, now = self._timing, perf_counter()
        if timing is not None and now - self._since >= PROBE_EVERY_S:
            timing.stretches.append(now - self._since)
            timing.probes.append(probe())
            self._since = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        self._mark()
        try:
            yield
        finally:
            self._mark()

    def wrap(self, name: str, fn, every: int = 1):
        count = 0

        def marked(*args, **kwargs):
            nonlocal count
            count += 1
            if count % every:
                return fn(*args, **kwargs)
            self._mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self._mark()

        return marked

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, every in MARKS:
                original = getattr(module, attr, None)
                if original is None:  # renamed or inlined: fewer probe points, same time
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(attr, original, every))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def timed(self, weights=WHOLE):
        timing = Timing(weights)
        timing.probes.append(probe())
        self._timing, self._since = timing, perf_counter()
        try:
            yield timing
        finally:
            timing.stretches.append(perf_counter() - self._since)
            timing.probes.append(probe())
            self._timing = None


class Tracer(NoTrace):
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.ints = array("i")  # per span: name id, parent span, pass id
        self.times = array("d")  # per span: start, end
        self.pass_no = SETUP_PASS
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._rollout_depth = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        stack, times = self._stack, self.times
        i = len(times) >> 1
        self.ints.extend((self._id(name), stack[-1] if stack else -1, self.pass_no))
        stack.append(i)
        times.extend((perf_counter(), 0.0))
        try:
            yield
        finally:
            times[2 * i + 1] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, split: bool = False):
        # The body repeats span() inline: it runs ~200k times per traced
        # training pass, and every call it saves is overhead off the parent.
        act = self._id(f"{name}.act" if split else name)
        ev = self._id(f"{name}.eval") if split else act
        rollout = name == ROLLOUT
        useful = f"{name}.useful" if name == "dqn.train_step" else None
        stack, times, ints = self._stack, self.times, self.ints

        def traced(*args, **kwargs):
            i = len(times) >> 1
            ints.extend((ev if self._rollout_depth else act, stack[-1] if stack else -1, self.pass_no))
            stack.append(i)
            self._rollout_depth += rollout
            times.extend((perf_counter(), 0.0))
            try:
                out = fn(*args, **kwargs)
            finally:
                times[2 * i + 1] = perf_counter()
                self._rollout_depth -= rollout
                stack.pop()
            if useful is not None and out is not None:
                self.counters[useful] = self.counters.get(useful, 0) + 1
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every name in PATCHES for its traced wrapper, and back."""
        saved = []
        try:
            for module, attr, name, split in PATCHES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, split))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (what is written out at exit)."""
        ints = np.array(self.ints, dtype=np.int32).reshape(-1, 3)
        times = np.array(self.times).reshape(-1, 2)
        return {
            "name_id": ints[:, 0],
            "parent": ints[:, 1],
            "pass_id": ints[:, 2],
            "start": times[:, 0],
            "end": times[:, 1],
            "names": np.array(self.names),
        }

    def summary(self, traced_passes: list[int]) -> dict[str, dict]:
        """Per-span statistics, per pass.

        A span seen only while setting up is summarized over the set-up
        pass; any other span over ``traced_passes`` (passes where it did not
        run count as zero). ``calls``, ``busy_s`` and ``self_s`` are medians
        of the per-pass totals; ``p50_us`` and ``tail_us`` are taken over the
        individual call durations of those passes.
        """
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            mine = cols["name_id"] == nid
            if not mine.any():
                continue
            passes = [SETUP_PASS] if np.all(cols["pass_id"][mine] == SETUP_PASS) else traced_passes
            calls, busy, selfs, samples = [], [], [], []
            for p in passes:
                sel = mine & (cols["pass_id"] == p)
                calls.append(int(sel.sum()))
                busy.append(float(dur[sel].sum()))
                selfs.append(float(self_t[sel].sum()))
                samples.append(dur[sel])
            pooled = np.concatenate(samples) * 1e6
            stats = {
                "phase": "setup" if passes == [SETUP_PASS] else "run",
                "passes": len(passes),
                "total_calls": sum(calls),
                "calls": statistics.median(calls),
                "busy_s": statistics.median(busy),
                "self_s": statistics.median(selfs),
                "p50_us": float(np.percentile(pooled, 50)) if pooled.size else 0.0,
            }
            for q in TAIL_PERCENTILES:
                if pooled.size * (100.0 - q) / 100.0 >= 10:
                    stats["tail_us"] = float(np.percentile(pooled, q))
                    stats["tail_percentile"] = q
                    stats["tail_samples"] = int(pooled.size)
                    break
            out[name] = stats
        return out
