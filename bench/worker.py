"""One measured run of one workload, in a process of its own.

Started by ``run.py`` with BLAS pinned to one thread; prints one JSON object
on its last line of output.  Usage::

    python3 bench/worker.py --workload maxset --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# set-up repetitions; setup_s reports the median
SETUPS = 3

# calibration kernel runs on each side of a set-up, or of an operation of a
# workload with per_op_calibration, and seconds between kernel runs inside it
BRACKET = 3
SAMPLE_PERIOD_S = 0.01

# the library modules the workloads import
LIBRARY = "previewsafe.brunovsky, previewsafe.invariance, previewsafe.simulation, previewsafe.systems"


def _import_library():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import previewsafe

    if Path(previewsafe.__file__).resolve().parent != SRC / "previewsafe":
        raise SystemExit(f"previewsafe imported from {previewsafe.__file__}, not {SRC}")


def _import_probe() -> tuple:
    """Seconds to import the library in a fresh interpreter, and the median
    seconds of calibration kernel runs right after it."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
        f"t = time.perf_counter(); import {LIBRARY}; dt = time.perf_counter() - t; "
        f"import worker; print(dt, worker.kernel_after_import())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=60,
    )
    seconds, kernel_s = out.stdout.split()
    return float(seconds), float(kernel_s)


# Median seconds of one _calibration_kernel call on the reference machine
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_KERNEL_S = 0.00105


def kernel_after_import() -> float:
    """Median seconds of five calibration kernel runs."""
    return statistics.median(_calibration_kernel() for _ in range(5))


def _calibration_kernel() -> float:
    """Seconds for one fixed unit of interpreter and small-array work.

    The mix (dict and generator work, tiny mat-vecs, rank-one updates of a
    40 x 120 tableau) resembles the workloads' but calls no library code, so
    no change to the library can move it.
    """
    import numpy as np

    A = np.linspace(0.0, 1.0, 36).reshape(6, 6)
    T = np.linspace(0.0, 1.0, 40 * 120).reshape(40, 120)
    t0 = perf_counter()
    table = {}
    acc = 0.0
    for i in range(100):
        v = A @ A[:, i % 6]
        acc += float(np.maximum(v, 0.1).sum())
        table[i, i % 7] = (acc, 0.5 * i)
        acc += sum(x[1] for x in table.values() if x[1] > 30.0)
        if i % 10 == 0:
            T -= 1e-3 * np.outer(T[:, i % 120], T[i % 40])
    return perf_counter() - t0


class SpeedSampler:
    """Runs the calibration kernel from a SIGALRM handler every
    ``SAMPLE_PERIOD_S`` while a set-up or an operation runs.

    The host's speed changes within tens of milliseconds, so kernel runs at
    the ends of a long operation say little about the speed it ran at.  Each
    handler run is kept as ``(start, seconds, kernel seconds)``; its seconds
    are taken out of the operation's time and out of the traced spans.
    """

    def __init__(self):
        self.runs = []
        self._armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self._armed:  # a signal delivered after the timer was disarmed
            return
        t0 = perf_counter()
        kernel_s = _calibration_kernel()
        self.runs.append((t0, perf_counter() - t0, kernel_s))

    def calibrated(self, fn):
        """Runs ``fn()``; returns its result, its seconds without the
        handler's, and the mean kernel seconds around and inside it."""
        around = [_calibration_kernel() for _ in range(BRACKET)]
        first = len(self.runs)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            t0 = perf_counter()
            out = fn()
            t1 = perf_counter()
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        inside = self.runs[first:]
        seconds = t1 - t0 - sum(run_s for start, run_s, _ in inside if t0 <= start < t1)
        around += [kernel_s for _, _, kernel_s in inside]
        around += [_calibration_kernel() for _ in range(BRACKET)]
        return out, seconds, statistics.fmean(around)


def _versions() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    start = perf_counter()
    _import_library()
    import generators
    import tracing
    import workloads
    from previewsafe.errors import PreviewSafeError

    # The import happens once per process; two fresh interpreters give two
    # more samples.  Each is scaled by the kernel runs right after it.
    imports = [(perf_counter() - start, kernel_after_import()), _import_probe(), _import_probe()]
    import_s = statistics.median(dt * REFERENCE_KERNEL_S / kernel_s for dt, kernel_s in imports)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    sampler = SpeedSampler()

    def set_up():
        workload = workloads.make(args.workload, SRC)
        batch = workload.setup(generators.rng_for(args.workload, args.seed))
        workload.warm_up()
        return workload, batch

    setup_times = []  # (seconds, kernel seconds) per set-up
    for _ in range(SETUPS):
        (workload, batch), dt, kernel_s = sampler.calibrated(set_up)
        setup_times.append((dt, kernel_s))

    per_op = workload.per_op_calibration
    kernel_times = []  # one run after each checked item: the run's calibration
    # (item in batch, op in item) -> (seconds, mean kernel seconds around and
    # inside the operation, or None when the run's calibration scales it)
    durations = defaultdict(list)
    current = []  # timings of the running item's operations
    op_kernels = {}  # operation id -> mean kernel seconds, for per_op_calibration
    op_count = 0

    def traced(fn):
        if tracer is None:
            return fn()
        tracer.op = op_count
        tracer.active = True
        try:
            return fn()
        finally:
            tracer.active = False

    def timed(fn):
        nonlocal op_count
        try:
            if per_op:
                out, dt, kernel_s = sampler.calibrated(lambda: traced(fn))
                op_kernels[op_count] = kernel_s
            else:
                t0 = perf_counter()
                out = traced(fn)
                dt, kernel_s = perf_counter() - t0, None
        finally:
            op_count += 1  # an operation that raised keeps its id
        current.append((dt, kernel_s))
        return out

    if tracer is not None:
        tracer.active = False
    attempted = failed = 0
    item = 0
    begin = perf_counter()
    while item < batch or perf_counter() - begin < args.seconds:
        i = item % batch
        current.clear()
        if tracer is not None:
            tracer.item = item
        attempted += 1
        try:
            ok = workload.run_item(i, timed)
        except PreviewSafeError as exc:
            print(f"item {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        else:
            if not ok:
                print(f"item {i}: check failed", file=sys.stderr)
        failed += not ok
        for k, timing in enumerate(current):
            durations[i, k].append(timing)
        item += 1
        kernel_times.append(_calibration_kernel())

    # Times in reference-machine seconds.  The host's speed drifts by 20-30%
    # over minutes with its other tenants' load, and the calibration kernel
    # slows down with it (see bench/DESIGN.md).
    kernel_s = statistics.median(kernel_times)
    scale = REFERENCE_KERNEL_S / kernel_s

    def reference_s(dt, op_kernel_s):
        return dt * REFERENCE_KERNEL_S / op_kernel_s if per_op else dt * scale

    # each distinct operation's latency is the median of its timings over the
    # passes, so that a partial last pass does not tilt the percentiles
    wall = [statistics.median(dt for dt, _ in values) for values in durations.values()]
    latencies = [
        statistics.median(reference_s(*timing) for timing in values)
        for values in durations.values()
    ]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    raw = {
        "setup_s": statistics.median(dt for dt, _ in imports)
        + statistics.median(dt for dt, _ in setup_times),
        "run_s": sum(wall),
        "op_p50_ms": 1e3 * statistics.median(wall),
        "op_p90_ms": 1e3 * statistics.quantiles(wall, n=10, method="inclusive")[8],
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "batch": batch,
        "passes": item // batch,
        "setup_s": import_s
        + statistics.median(dt * REFERENCE_KERNEL_S / k for dt, k in setup_times),
        "run_s": sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * p90,
        "raw": {"imports_s": imports, "setups_s": setup_times, **raw},
        "scale": scale,
        "per_op_calibration": per_op,
        "kernel_s": kernel_s,
        "kernel_runs": len(kernel_times),
        "ops": len(latencies),
        "ops_beyond_p90": sum(1 for dt in latencies if dt > p90),
        "timings": sum(len(values) for values in durations.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        setup_scale = REFERENCE_KERNEL_S / statistics.median(k for _, k in setup_times)

        def span_scale(op):
            if op in op_kernels:
                return REFERENCE_KERNEL_S / op_kernels[op]
            # no kernel of its own: a run-scaled workload, or an operation that raised
            return setup_scale if op < 0 else scale

        layers = tracing.layer_metrics(
            tracer.spans, item // batch, batch, SETUPS, sampler.runs, span_scale
        )
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans, {k: v for k, v in result.items() if k != "layers"})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
