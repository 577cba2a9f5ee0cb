"""Write the lane-keeping trace fixture ``tests/data/lane_keeping_traces.json``.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/make_lane_keeping_traces.py [OUT]

Each case is ``simulate --case lane_keeping --seed 0 --T 100`` at one
preview: the bundled bicycle config run through ``lane_keeping``.  The
fixture stores the start state and, for both traces, the ``t``,
``supervised`` and ``safe`` columns, the first unsafe step, the supervision
count and every other cell of the trace CSV rounded to 12 significant digits
(NaN as ``null``); ``tests/test_lane_keeping_traces.py`` reruns every case
and compares.  Regenerate it only on purpose, from a commit whose traces are
the reference.

The bytes are reproducible per host: two runs on one host write the same
file, but another host's BLAS and libm can round the last bit differently,
so the tests compare every cell within 1e-9 and CI compares two runs of
this writer with ``cmp``.
"""

from __future__ import annotations

import importlib.resources
import io
import json
import sys
from pathlib import Path

import numpy as np

from previewsafe.simulation import lane_keeping

FIXTURE = Path(__file__).resolve().parent / "data" / "lane_keeping_traces.json"

PREVIEWS = (2, 8)
T = 100
SEED = 0
# the columns compared exactly; every other column is numeric
EXACT = ("t", "supervised", "safe")


def run(p: int):
    """``lane_keeping`` on the bundled config at preview ``p``."""
    ref = importlib.resources.files("previewsafe") / "configs" / "lane_keeping.json"
    return lane_keeping(json.loads(ref.read_text(encoding="utf-8")), p=p, T=T, seed=SEED)


def columns(trace) -> dict:
    """The trace's CSV as ``{column name: float array}``."""
    text = trace.to_csv()
    names = text.split("\n", 1)[0].split(",")
    cells = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(names, cells.T))


def _rounded(values) -> list:
    return [None if np.isnan(v) else float(f"{v:.12g}") for v in values]


def record_trace(trace) -> dict:
    cols = columns(trace)
    return {
        **{name: [int(v) for v in cols[name]] for name in EXACT},
        "first_unsafe": trace.first_unsafe_step(),
        "supervision_count": trace.supervision_count(),
        "numeric": {name: _rounded(v) for name, v in cols.items() if name not in EXACT},
    }


def record(res) -> dict:
    return {
        "gap_state": _rounded(res.gap_state),
        "preview": record_trace(res.trace_preview),
        "no_preview": record_trace(res.trace_no_preview),
    }


def main(argv) -> int:
    path = Path(argv[1]) if len(argv) > 1 else FIXTURE
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {f"p{p}": record(run(p)) for p in PREVIEWS}
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{len(data)} cases, {path.stat().st_size} bytes -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
