"""rtp-arb benchmark: one workload per process, measured plain or traced.

Run from the repository root:

    python3 benchmarks/run.py --workload train_square_wave --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans at the call sites of each module's public functions). The
workloads, the metrics and the layer-to-metric map are described in
``benchmarks/spec.json``; the metric names printed are those listed in
``BENCHMARK.json``. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record, with the
machine it ran on, goes to ``.bench_results/``. The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
#: Set-up is repeated (imports in fresh interpreters, input generation in
#: process) and its median reported, because one set-up is too short to time.
SETUP_REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPAN_STATS = ("calls", "busy_s", "self_s", "p50_us", "tail_us")
#: Per-layer metrics that are not span statistics, and the pass stat behind each.
PASS_STAT_METRICS = {
    "dqn.checkpoint.bytes": "checkpoint_bytes",
    "ingest.fetch.retries": "retries",
    "ingest.hours_interpolated": "hours_interpolated",
    "ingest.csv.bytes": "csv_bytes",
}


def cap_threads() -> None:
    """Keep every BLAS/OpenMP pool within the CPUs this process may use.

    Must run before numpy is imported.
    """
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=60)
    status = subprocess.run(
        git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True, timeout=60
    )
    return {"sha": sha.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def machine_record() -> dict:
    """Where and with what the numbers were measured."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        from threadpoolctl import threadpool_info

        blas_threads = [(p.get("internal_api"), p.get("num_threads")) for p in threadpool_info()]
    except ImportError:
        blas_threads = {var: os.environ[var] for var in THREAD_VARS}
    src = hashlib.sha256()
    for path in sorted((SRC / "rtp_arb").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "git": git_state(),
        "src_sha256": src.hexdigest(),
    }


def probed(fn) -> tuple[float, float]:
    """Wall and reference-speed seconds of ``fn()``, with a probe on each side."""
    from probe import normalized, probe

    before = probe()
    t0 = perf_counter()
    fn()
    wall = perf_counter() - t0
    return wall, normalized(wall, before, probe())


def import_package() -> None:
    """A fresh interpreter that imports the package and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rtp_arb"
    # No timeout: with one, subprocess polls the child every 50 ms at most,
    # which rounds the time to that step.
    subprocess.run([sys.executable, "-c", code], check=True)


def run_passes(workload, seconds: float, tracer, untraced):
    """Timed passes for ``seconds``: no pass starts that would not end in time.

    Pass 1 warms caches and lazy allocations; it is checked but its times
    are left out of every metric. With a tracer, the later passes alternate
    traced / untraced (at least one of each), so the traced outputs can be
    compared with the untraced ones and the tracing overhead measured in the
    same process.
    """
    passes = []
    durations = []
    reference = None
    t_start = perf_counter()
    while True:
        gc.collect()  # every pass starts from the same heap, whatever the last one left
        t_pass = perf_counter()
        index = len(passes) + 1
        traced = tracer is not None and index % 2 == 0
        tr = tracer if traced else untraced
        if traced:
            tracer.pass_no = index
        try:
            with tr.installed():
                res = workload.run_pass(tr)
            workload.check(res, first=reference is None)
        except Exception:  # a pass that raises counts as failed; keep measuring
            traceback.print_exc()
            res = None
        if res is not None and not res.failures:
            if reference is None:
                reference = res.fingerprint
            elif res.fingerprint != reference:
                res.failures.append("outputs differ from the first good pass")
        if res is not None:
            res.outputs = {}  # checked; holding them would grow the heap pass by pass
        passes.append((index, traced, res))
        durations.append(perf_counter() - t_pass)
        ends = perf_counter() - t_start + statistics.median(durations)
        if ends > seconds and len(passes) >= (3 if tracer else 2):
            return passes


def measured(passes, traced: bool) -> list:
    """Passes after the warm-up, traced or not, that completed."""
    return [r for i, t, r in passes if i > 1 and t == traced and r is not None]


def end_to_end(workload, passes, setup: dict) -> dict:
    """Median, quartiles and count of each end-to-end metric; the JSON line carries the median.

    Times are at reference speed (see :mod:`probe`); the same rates in
    plain wall time, and how much slower than the reference the machine
    ran, are kept beside them for the results file.
    """
    from probe import slowdown

    good = [r for r in measured(passes, False) if not r.failures]
    if not good:
        return {}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats = {
        "setup_s": ("s", setup["samples_s"]),
        "work_per_s": ("1/s", [r.work / r.normalized_s for r in good]),
        "oracle_hours_per_s": ("hours/s", [h / n for r in good for h, _, n in r.oracle_calls]),
        "peak_rss_mib": ("MiB", [rss_kib / 1024.0]),
        "wall.setup_s": ("s", setup["wall_samples_s"]),
        "wall.work_per_s": ("1/s", [r.work / r.wall_s for r in good]),
        "wall.oracle_hours_per_s": ("hours/s", [h / w for r in good for h, w, _ in r.oracle_calls]),
        "machine.slowdown": ("ratio", [slowdown(p) for r in good for p in r.timing.probes]),
    }
    if workload.name == "train_square_wave":
        stats["train_oracle_fraction"] = ("ratio", [r.stats["train_oracle_fraction"] for r in good])
    out = {}
    for name, (unit, vals) in stats.items():
        out[name] = {"unit": unit, **quartiles(vals)}
        out[name]["value"] = out[name]["median"]
    return out


def per_layer(names: list[str], tracer, passes, expected: list[str]) -> tuple[dict, dict, list[str]]:
    traced = measured(passes, True)
    plain = measured(passes, False)
    summary = tracer.summary([i for i, t, r in passes if t and r is not None])
    unhooked = [s for s in expected if s not in summary]
    train_calls = summary.get("dqn.train_step", {}).get("total_calls", 0)
    special = {
        "trace.unhooked_spans": len(unhooked),
        "trace.overhead_ratio": (
            statistics.median(r.normalized_s for r in traced) / statistics.median(r.normalized_s for r in plain)
            if traced and plain
            else 0.0
        ),
        "dqn.train_step.useful_ratio": (
            tracer.counters.get("dqn.train_step.useful", 0) / train_calls if train_calls else 0.0
        ),
    }
    for metric, key in PASS_STAT_METRICS.items():
        vals = [r.stats[key] for r in traced if key in r.stats]
        special[metric] = statistics.median(vals) if vals else 0
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            if stat not in SPAN_STATS:
                raise KeyError(f"per-layer metric {name!r} is neither a span statistic nor a counter")
            metrics[name] = summary.get(span, {}).get(stat, 0.0)
    for span in unhooked:
        summary[span] = "unhooked"
    return metrics, summary, unhooked


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads()
    # Each injected feed failure logs a retry warning by design; keep errors only.
    logging.getLogger("rtp_arb").setLevel(logging.ERROR)
    if not (SRC / "rtp_arb" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_import = perf_counter()
    import numpy as np
    import rtp_arb

    if Path(rtp_arb.__file__).resolve().parent != (SRC / "rtp_arb").resolve():
        print(f"error: imported rtp_arb from {rtp_arb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    in_process_import_s = perf_counter() - t_import
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS_DIR))
    tracer = tracing.Tracer() if args.trace else None
    untraced = tracing.Clock()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if tracer:
            t0 = perf_counter()
            workload.setup(tracer)
            prepare_s = perf_counter() - t0
            samples = [((in_process_import_s,) * 2, (prepare_s,) * 2)]
        else:
            samples = [
                (probed(import_package), probed(lambda: workload.setup(untraced)))
                for _ in range(SETUP_REPEATS)
            ]
        setup = {
            "import_samples_s": [i for i, _ in samples],
            "prepare_samples_s": [p for _, p in samples],
            "wall_samples_s": [i[0] + p[0] for i, p in samples],
            "samples_s": [i[1] + p[1] for i, p in samples],
        }
        passes = run_passes(workload, args.seconds, tracer, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for _, _, r in passes if r is None or r.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "setup": setup,
        "attempted": len(passes),
        "failed": failed,
        "error_rate": failed / len(passes),
        "passes": [
            {
                "index": i,
                "traced": t,
                "raised": r is None,
                **(
                    {}
                    if r is None
                    else {"wall_s": r.wall_s, "normalized_s": r.normalized_s, "work": r.work,
                          "stretches_s": r.timing.stretches, "probes_s": r.timing.probes,
                          "oracle_calls": r.oracle_calls, "failures": r.failures, "stats": r.stats}
                ),
            }
            for i, t, r in passes
        ],
    }
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        e2e = end_to_end(workload, passes, setup)
        record["end_to_end"] = e2e
        record["work_per_s_is"] = spec["workloads"][args.workload]["work_per_s_is"]
        metrics = {
            m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
            for m in bench["end_to_end"]
            if m["name"] in e2e
        }
    else:
        expected = [s for s, layer in spec["layers"].items() if args.workload in layer["workloads"]]
        names = [m["name"] for m in bench["per_layer"]]
        values, summary, unhooked = per_layer(names, tracer, passes, expected)
        record["per_layer"] = values
        record["spans"] = summary
        record["unhooked"] = unhooked
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
        spans_path = RESULTS_DIR / f"{label}.spans.npz"
        np.savez(spans_path, **tracer.arrays())
        record["spans_file"] = spans_path.name
    (RESULTS_DIR / f"{label}.json").write_text(json.dumps(record, indent=1, default=str))

    correct = failed == 0 and len(metrics) == len(bench["per_layer" if tracer else "end_to_end"])
    print_report(record, spec)
    for _, _, r in passes:
        for failure in (r.failures if r is not None else ["raised"]):
            print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_report(record: dict, spec: dict) -> None:
    """Human-readable lines, with the metric names of spec.json."""
    name = record["workload"]
    print(f"{name} seed {record['seed']}: {record['attempted']} passes, {record['failed']} failed")
    print(f"  error_rate {record['error_rate']:.4g} (failed / attempted)")
    aliases = {"work_per_s": record.get("work_per_s_is")}
    for metric, s in record.get("end_to_end", {}).items():
        unit = spec["metrics"].get(aliases.get(metric) or metric, {}).get("unit", s["unit"])
        print(
            f"  {aliases.get(metric) or metric:<28} median {s['median']:.6g} {unit}"
            f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}; reported as {metric}={s['value']:.6g})"
        )
    for span in record.get("unhooked", []):
        print(f"  {span}: unhooked (expected on {name}, no calls recorded)")
    if "per_layer" in record:
        print(f"  trace.overhead_ratio {record['per_layer'].get('trace.overhead_ratio', 0):.4g}")


if __name__ == "__main__":
    sys.exit(main())
