"""The lane-keeping traces are reproduced: the same ``t``, ``supervised`` and
``safe`` columns, first unsafe steps and supervision counts, and every other
cell and the start state within 1e-9 absolute.

The fixture ``tests/data/lane_keeping_traces.json`` is written by
``tests/make_lane_keeping_traces.py``, which also defines the cases.
"""

import json

import numpy as np
import pytest
from make_lane_keeping_traces import EXACT, FIXTURE, PREVIEWS, columns, run

EXPECTED = json.loads(FIXTURE.read_text(encoding="utf-8"))


def _floats(values) -> np.ndarray:
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def test_fixture_covers_every_case():
    assert sorted(EXPECTED) == sorted(f"p{p}" for p in PREVIEWS)


@pytest.mark.parametrize("p", PREVIEWS)
def test_lane_keeping_traces(p):
    expected = EXPECTED[f"p{p}"]
    res = run(p)
    assert res.gap_found
    np.testing.assert_allclose(res.gap_state, _floats(expected["gap_state"]), rtol=0, atol=1e-9)
    for name, trace in (("preview", res.trace_preview), ("no_preview", res.trace_no_preview)):
        want, cols = expected[name], columns(trace)
        assert trace.first_unsafe_step() == want["first_unsafe"]
        assert trace.supervision_count() == want["supervision_count"]
        assert sorted(cols) == sorted([*EXACT, *want["numeric"]])
        for col in EXACT:
            assert cols[col].tolist() == want[col], (name, col)
        for col, values in want["numeric"].items():
            np.testing.assert_allclose(cols[col], _floats(values), rtol=0, atol=1e-9, err_msg=f"{name} {col}")
