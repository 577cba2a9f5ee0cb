"""previewsafe benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload maxset --seed 1 --seconds 30 --trace 0

Workloads: ``maxset``, ``preview_control``, ``lane_keeping`` (see
``bench/DESIGN.md``).  ``--trace 0`` runs the workload once in a worker
process and reports the end-to-end metrics.  ``--trace 1`` runs it twice, in
two worker processes one after the other, untraced and then traced, and
reports the per-layer metrics of the traced run plus ``trace.overhead_frac``.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each result, with the commit, CPU
count and library versions, is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("maxset", "preview_control", "lane_keeping")

# one BLAS thread, set before the worker imports numpy
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# each run must end within 180 s; in a traced run the two workers share it,
# the untraced one taking at most half
WORKER_TIMEOUT_S = 170.0


def _commit() -> str:
    """The checked-out commit, read from ``.git`` if the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text(encoding="utf-8").strip() if target.is_file() else "unknown"


def _worker(args, trace: int, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")]
    env = dict(os.environ, **PINNED_ENV)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "previewsafe" / "__init__.py").is_file():
        print(f"no previewsafe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        begin = perf_counter()
        plain = _worker(args, 0, WORKER_TIMEOUT_S / 2)
        traced = _worker(args, 1, WORKER_TIMEOUT_S - (perf_counter() - begin))
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = {
            "value": traced["run_s"] / plain["run_s"] - 1.0, "unit": "ratio"
        }
        runs = [plain, traced]
    else:
        plain = _worker(args, 0, WORKER_TIMEOUT_S)
        metrics = {
            "setup_s": {"value": plain["setup_s"], "unit": "s"},
            "run_s": {"value": plain["run_s"], "unit": "s"},
            "op_p50_ms": {"value": plain["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": plain["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
            "passed_frac": {"value": 1.0 - plain["failed"] / plain["attempted"], "unit": "ratio"},
        }
        runs = [plain]

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    env = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **plain["versions"],
        **{k: v for k, v in PINNED_ENV.items() if k != "PYTHONHASHSEED"},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "runs": [{k: v for k, v in run.items() if k != "layers"} for run in runs],
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print(f"# env {json.dumps(env)}")
    for run in runs:
        print(f"# {'traced' if 'layers' in run else 'untraced'} run: "
              f"{run['ops']} distinct timed operations ({run['ops_beyond_p90']} beyond p90), "
              f"{run['timings']} timings, "
              f"{run['attempted']} checked items, {run['failed']} failed, "
              f"{run['passes']} passes over a batch of {run['batch']}; "
              f"times scaled to the reference machine by "
              f"{'calibration runs around and inside each operation' if run['per_op_calibration'] else 'the run calibration'}"
              f" (run calibration {run['scale']:.4f} from {run['kernel_runs']} kernel runs)")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
