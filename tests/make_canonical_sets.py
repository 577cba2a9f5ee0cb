"""Write the canonical-set fixture ``tests/data/canonical_sets.json``.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/make_canonical_sets.py [OUT]

Each case is a fixed-point run whose result later changes must reproduce:
Method 1 on the canned examples 1, 2 and 5, Method 1 on twelve seeded shift
registers (n 2-4, p 0-3, box and cross-polytope disturbances) and the
Method 2 sets that the lane-keeping study grows at previews 2, 5 and 8.  The
fixture stores each final set's rows with its iteration count, convergence
flag and row counts; ``tests/test_canonical_sets.py`` recomputes every case
and compares.  Regenerate it only on purpose, from a commit whose sets are
the reference.

The bytes are reproducible per host: two runs on one host write the same
file, but another host's BLAS and libm can round the last bit differently
(with numpy 2.4.6 and scipy-openblas 0.3.31 on 2 CPUs the first difference
from the committed file is ``example1_p1``'s ``0.7071067811865475``, a row
norm), so the tests compare sets within 1e-9 and CI compares two runs of
this writer with ``cmp``.
"""

from __future__ import annotations

import importlib.resources
import json
import sys
from pathlib import Path

import numpy as np
from conftest import random_valid_problem

from previewsafe import casestudies as cs
from previewsafe.invariance import lift, method1, method2
from previewsafe.simulation import load_simulation_config
from previewsafe.systems import augment

FIXTURE = Path(__file__).resolve().parent / "data" / "canonical_sets.json"

# (n, p) of the seeded shift registers; odd positions get a cross-polytope
# disturbance
SHIFT_REGISTERS = [(n, p) for n in (2, 3, 4) for p in (0, 1, 2, 3)]
LANE_KEEPING_PREVIEWS = (2, 5, 8)


def _lane_keeping(p: int):
    """The lane-keeping study's grown set at preview ``p``: Method 2 for 10
    steps from the lifted Method 1 result of the bundled bicycle model."""
    ref = importlib.resources.files("previewsafe") / "configs" / "lane_keeping.json"
    sys_, _ = load_simulation_config(json.loads(ref.read_text(encoding="utf-8")))
    seed_set = lift(method1(sys_).result, sys_.dist_set, p)
    return method2(augment(sys_, p).aug, seed_set, 10)


def shift_register_problems() -> list:
    """``(name, problem)`` pairs of the seeded shift registers."""
    out = []
    for k, (n, p) in enumerate(SHIFT_REGISTERS):
        rng = np.random.default_rng(1000 + k)
        problem = random_valid_problem(rng, (n,), (p,), diamond_prob=float(k % 2))
        out.append((f"shift_n{n}_p{p}_{k}", problem))
    return out


def cases() -> list:
    """``(name, run)`` pairs; ``run()`` returns an ``IterationReport``."""
    scalar = cs.ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 2)
    out = [
        ("example1_p1", lambda: method1(augment(cs.example1_config(p=1)[0], 1).aug)),
        ("example2_p2", lambda: method1(augment(scalar.system(), 2).aug)),
        ("example5_p2", lambda: method1(augment(cs.example5_config(scalar), 2).aug)),
    ]
    for name, problem in shift_register_problems():
        out.append((name, lambda problem=problem: method1(augment(problem.system(), problem.p).aug)))
    for p in LANE_KEEPING_PREVIEWS:
        out.append((f"lane_keeping_method2_p{p}", lambda p=p: _lane_keeping(p)))
    return out


def record(report) -> dict:
    return {
        "H": report.result.H.tolist(),
        "h": report.result.h.tolist(),
        "iterations": report.iterations,
        "converged": report.converged,
        "per_step_rows": list(report.per_step_rows),
    }


def main(argv) -> int:
    path = Path(argv[1]) if len(argv) > 1 else FIXTURE
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {name: record(run()) for name, run in cases()}
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{len(data)} sets, {path.stat().st_size} bytes -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
