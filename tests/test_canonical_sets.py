"""Every canonical fixed-point set is reproduced: the same set within 1e-9,
the same iteration count, convergence flag and row counts.

The fixture ``tests/data/canonical_sets.json`` is written by
``tests/make_canonical_sets.py``, which also defines the cases.
"""

import json

import pytest
from make_canonical_sets import FIXTURE, cases

from previewsafe.geometry import HPolytope, set_equal

EXPECTED = json.loads(FIXTURE.read_text(encoding="utf-8"))
CASES = cases()


def test_fixture_covers_every_case():
    assert sorted(EXPECTED) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name, run", CASES, ids=[name for name, _ in CASES])
def test_canonical_set(name, run):
    expected = EXPECTED[name]
    report = run()
    assert report.iterations == expected["iterations"]
    assert report.converged is expected["converged"]
    assert list(report.per_step_rows) == expected["per_step_rows"]
    assert report.result.nrows == len(expected["h"])
    assert set_equal(report.result, HPolytope(expected["H"], expected["h"]), tol=1e-9)


def test_rebuilt_sets_keep_their_bits():
    # rows are normalized once, so a set rebuilt from its own rows is itself
    for name, expected in EXPECTED.items():
        P = HPolytope(expected["H"], expected["h"])
        Q = HPolytope(P.H, P.h)
        assert Q.H.tobytes() == P.H.tobytes() and Q.h.tobytes() == P.h.tobytes(), name
