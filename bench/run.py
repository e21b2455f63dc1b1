"""fusionneck benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload infer_b2 --seed 1 --seconds 20 --trace 0

Builds nothing: it imports the library from ``src/`` of the checkout it sits
in, and refuses to run against any other copy.  Workloads are listed in
``workloads.py`` and described, with what each per-layer metric should move,
in ``metrics.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON object holding the environment block (BLAS library and the thread
count it reports, CPU count, versions, commit, seed, sample counts).  Exit
code 0 means every check passed, 1 that an output or reference check failed,
2 that the benchmark could not run at all.

With ``--trace 0`` operations run untraced and the end-to-end metrics are
reported; times are scaled to nominal machine speed by a probe sampled
between operations (calibrate.py), and the raw figures are in the
environment block.  With ``--trace 1`` each operation runs twice, untraced
and then under the tracer, and the per-layer metrics are reported per traced
operation, unscaled; the untraced twin gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Probe time before each operation, as a share of the previous operation's time.
PROBE_SHARE = 0.03
# An operation is scaled by the probe samples of this many operations either side.
LOCAL_OPS = 2
# A seed kept out of development runs, for re-checking a claimed gain.
HELD_OUT_SEED = 7_654_321

perf_counter = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here (no library source, bad arguments)."""


def import_library() -> float:
    """Import fusionneck from this checkout's ``src/``; return the import time."""
    src = ROOT / "src"
    if not (src / "fusionneck" / "__init__.py").is_file():
        raise BenchError(f"no fusionneck source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    start = perf_counter()
    import fusionneck
    elapsed = perf_counter() - start
    if Path(fusionneck.__file__).resolve().parent != (src / "fusionneck").resolve():
        raise BenchError(f"imported fusionneck from {fusionneck.__file__}, not from {src}")
    return elapsed


def blas_info() -> dict:
    """BLAS build info from numpy, and the thread count the loaded library reports."""
    import ctypes

    import numpy as np

    info: dict = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"),
                    config=blas.get("openblas configuration"))
    except (KeyError, TypeError):
        pass
    libs = []
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line})
    except OSError:
        pass
    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in getters:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info.update(library=path, threads=int(fn()), threads_from=symbol)
                return info
    return info


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, samples: dict) -> dict:
    import numpy as np

    return {
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def tail_latency(sorted_ms: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples above it).  The percentile is never
    taken below the upper median: with fewer than 2·TAIL_BEYOND + 1 samples
    the upper median is returned, with fewer than TAIL_BEYOND samples above.
    """
    n = len(sorted_ms)
    idx = max(n - TAIL_BEYOND - 1, n // 2)
    return sorted_ms[idx], 100.0 * (idx + 1) / n, n - idx - 1


class Outcomes:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{what}: {error}")


def run_op(workload, i: int, outcomes: Outcomes, tracer=None):
    """Time one operation and check its result; returns (seconds, result or None)."""
    start = perf_counter()
    try:
        if tracer is None:
            result = workload.op(i)
        else:
            with tracer:
                result = workload.op(i, tracer)
    except Exception:  # an operation that raises is a failed operation; keep timing
        elapsed = perf_counter() - start
        outcomes.add(f"op {i}", traceback.format_exc(limit=3).strip().splitlines()[-1])
        return elapsed, None
    elapsed = perf_counter() - start
    outcomes.add(f"op {i}", workload.check(i, result))
    return elapsed, result


def end_to_end(workload, seconds: float, outcomes: Outcomes, probe) -> tuple[dict, dict]:
    """Closed loop for ``seconds`` with a machine-speed probe before each operation.

    Throughput counts time inside operations only, so neither output checks,
    probes nor where the window cuts the last operation move it.  Each
    operation's time is put at nominal machine speed by the probe samples
    taken around it (see calibrate.py), so a slow spell of the host scales
    the operations it slowed instead of landing in the tail; the raw figures
    go to the environment block.
    """
    latencies = []  # (operation index, seconds)
    marks = []  # index of the first probe sample taken before each operation
    busy_s = 0.0
    elapsed = 0.0
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        marks.append(len(probe.samples_ms))
        probe.sample(PROBE_SHARE * elapsed)
        elapsed, result = run_op(workload, i, outcomes)
        busy_s += elapsed
        if result is not None:
            latencies.append((i, elapsed))
        i += 1
    window = perf_counter() - start
    marks.append(len(probe.samples_ms))
    probe.sample(PROBE_SHARE * elapsed)  # brackets the last operation
    marks.append(len(probe.samples_ms))
    if not latencies:
        raise BenchError("no operation completed")

    def local_scale(op: int) -> float:
        lo = marks[max(0, op - LOCAL_OPS)]
        hi = marks[min(i, op + LOCAL_OPS) + 1]
        return probe.reference_ms / statistics.median(probe.samples_ms[lo:hi])

    raw_ms = sorted(s * 1e3 for _, s in latencies)
    scaled_ms = sorted(s * 1e3 * local_scale(op) for op, s in latencies)
    tail, percentile, beyond = tail_latency(scaled_ms)
    raw = {
        "ops_per_s": len(raw_ms) / busy_s,
        "op_ms.p50": statistics.median(raw_ms),
        "op_ms.tail": tail_latency(raw_ms)[0],
    }
    metrics = {
        "ops_per_s": (1e3 * len(scaled_ms) / sum(scaled_ms), "1/s"),
        "op_ms.p50": (statistics.median(scaled_ms), "ms"),
        "op_ms.tail": (tail, "ms"),
    }
    scales = sorted(local_scale(op) for op, _ in latencies)
    samples = {"ops": i, "completed": len(latencies), "window_s": window, "busy_s": busy_s,
               "tail_percentile": percentile, "tail_samples_beyond": beyond, "raw": raw,
               "op_scale": {"min": scales[0], "median": statistics.median(scales), "max": scales[-1]}}
    return metrics, samples


def dgemm_gflop_s(n: int = 512, repeats: int = 9) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        a @ b
        times.append(perf_counter() - start)
    return 2.0 * n ** 3 / statistics.median(times) / 1e9


def per_layer(workload, seconds: float, outcomes: Outcomes) -> tuple[dict, dict]:
    from tracer import CONV_KERNELS, NECK_STAGES, RUN_STAGES, Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    n = 0
    extras: dict[str, float] = {}
    start = perf_counter()
    while perf_counter() - start < seconds or n == 0:
        plain, _ = run_op(workload, n, outcomes)
        traced, result = run_op(workload, n, outcomes, tracer)
        untraced_s += plain
        traced_s += traced
        if result is not None:
            for key, value in workload.trace_metrics(result).items():
                extras[key] = extras.get(key, 0.0) + value
        n += 1
    per_op = 1e3 / n  # seconds summed over n operations -> ms per operation

    m: dict[str, tuple[float, str]] = {}
    for stage in NECK_STAGES:
        m[f"{stage}.ms"] = (tracer.stage_fwd_s.get(stage, 0.0) * per_op, "ms")
        m[f"{stage}.bwd_ms"] = (tracer.stage_bwd_s.get(stage, 0.0) * per_op, "ms")
    for stage in RUN_STAGES:
        m[f"{stage}.ms"] = (tracer.stage_fwd_s.get(stage, 0.0) * per_op, "ms")
    attributed_s = sum(tracer.stage_fwd_s.values()) + sum(
        s for label, s in tracer.stage_bwd_s.items() if label is not None
    )
    unattributed_ms = (traced_s - attributed_s) * per_op
    neck_ran = any(stage in tracer.stage_fwd_s for stage in NECK_STAGES)
    m["neck.unattributed.ms"] = (unattributed_ms if neck_ran else 0.0, "ms")
    m["trace.op_ms"] = (traced_s * per_op, "ms")
    m["trace.unattributed_frac"] = (unattributed_ms / (traced_s * per_op), "ratio")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")

    for name in CONV_KERNELS:
        st = tracer.stats(name)
        m[f"{name}.calls"] = (st.calls / n, "count")
        m[f"{name}.self_ms"] = (st.self_s * per_op, "ms")
        m[f"{name}.gflop"] = (st.flop / n / 1e9, "GFLOP_computed")
        m[f"{name}.mb_moved"] = (st.bytes / n / 1e6, "MB_computed")
        m[f"{name}.gflop_s"] = (st.flop / st.self_s / 1e9 if st.self_s else 0.0, "GFLOP/s")
    conv = tracer.stats("convkit.conv2d")
    m["convkit.conv2d.us_per_call"] = (conv.self_s / conv.calls * 1e6 if conv.calls else 0.0, "us")
    m["machine.dgemm_gflop_s"] = (dgemm_gflop_s(), "GFLOP/s")

    mhsa = tracer.stats("attention.mhsa_forward")
    m["attention.mhsa_forward.calls"] = (mhsa.calls / n, "count")
    m["attention.mhsa_forward.self_ms"] = (mhsa.self_s * per_op, "ms")
    m["attention.scse_recalibrate.self_ms"] = (tracer.stats("attention.scse_recalibrate").self_s * per_op, "ms")

    m["tensor.tape.records"] = (extras.get("tensor.tape.records", 0.0) / n, "count")
    m["tensor.tape.backward_ms"] = (extras.get("tensor.tape.backward_ms", 0.0) / n, "ms")
    forwards = extras.get("tensor.grad_check.forwards", 0.0)
    m["tensor.grad_check.forwards"] = (forwards / n, "count")
    m["tensor.grad_check.us_per_forward"] = (untraced_s / forwards * 1e6 if forwards else 0.0, "us")
    m["tensor.grad_check.max_err"] = (getattr(workload, "max_err", 0.0), "1")

    iou = tracer.stats("detmetrics.iou")
    m["detmetrics.load.ms"] = (tracer.stage_fwd_s.get("detmetrics.load", 0.0) * per_op, "ms")
    m["detmetrics.iou.calls"] = (iou.calls / n, "count")
    m["detmetrics.iou.self_ms"] = (iou.self_s * per_op, "ms")
    pairs = getattr(workload, "distinct_pairs", 0)
    m["detmetrics.iou.useful_ratio"] = (pairs * n / iou.calls if iou.calls else 0.0, "ratio")
    m["detmetrics.evaluate_records.self_ms"] = (tracer.stats("detmetrics.evaluate_records").self_s * per_op, "ms")

    samples = {"traced_ops": n, "untraced_ops": n, "window_s": perf_counter() - start}
    return m, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        import_s = import_library()
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    import workloads
    from calibrate import Probe

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        probe = Probe(workload.probe)
        setups = []
        for _ in range(SETUP_REPEATS):
            probe.sample()
            start = perf_counter()
            workload.setup()
            setups.append(perf_counter() - start)
        outcomes = Outcomes()
        if args.trace:
            metrics, samples = per_layer(workload, args.seconds, outcomes)
        else:
            metrics, samples = end_to_end(workload, args.seconds, outcomes, probe)
            setup_s = import_s + statistics.median(setups)
            samples["raw"]["setup_s"] = setup_s
            metrics["setup_s"] = (setup_s * probe.scale(), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        for name, error in workload.final_checks():
            outcomes.add(name, error)
    except workloads.CheckFailed as exc:
        print(f"refusing to time: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass

    samples.update(op_unit=workload.unit, setup_repeats=SETUP_REPEATS, setup_runs_s=setups,
                   probe={"kind": probe.kind, "reference_ms": probe.reference_ms, "scale": probe.scale(),
                          "samples": len(probe.samples_ms), "median_ms": statistics.median(probe.samples_ms)},
                   import_s=import_s, attempted=outcomes.attempted, failed=outcomes.failed,
                   failed_frac=outcomes.failed / outcomes.attempted, failures=outcomes.messages)
    for message in outcomes.messages:
        print(f"FAILED {message}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'failed_frac':<{width}}  {outcomes.failed / outcomes.attempted:.6g} ratio")
    print(json.dumps({"environment": environment(args, samples)}, sort_keys=True))
    correct = outcomes.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
