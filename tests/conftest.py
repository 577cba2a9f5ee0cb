import hashlib
import itertools

import numpy as np
import pytest

from previewsafe import simulation
from previewsafe.brunovsky import nonempty_ineq
from previewsafe.casestudies import ScalarPreviewProblem
from previewsafe.geometry import HPolytope, Hyperbox, lp, polytope
from previewsafe.systems import BrunovskyProblem

MASTER_SEEDS = [11, 222, 3333]


def cross_polytope(scales: np.ndarray) -> HPolytope:
    """Diamond {d : sum_k |d_k| / scales_k <= 1}; its bounding box is
    exactly prod [-scales_k, scales_k] (vertices touch every face)."""
    n = scales.shape[0]
    rows = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        rows.append(np.asarray(signs) / scales)
    return HPolytope(np.vstack(rows), np.ones(2**n))


def set_digest(P: HPolytope) -> str:
    """SHA-256 of the bytes of ``P.H`` then ``P.h``: pins every bit of a set,
    signed zeros included."""
    return hashlib.sha256(P.H.tobytes() + P.h.tobytes()).hexdigest()


def default_scalar_problem(p: int = 1) -> ScalarPreviewProblem:
    # validity inequalities hold with slack >= 0.1 to avoid boundary flakiness
    return ScalarPreviewProblem(a=2.0, beta=1.0, gamma=0.8, r=2.2, p=p)


def count_lps(monkeypatch) -> list:
    """Count ``linprog_max`` calls from here on, the ones inside
    ``chebyshev_center`` and the safety filter's closest-point LP included;
    returns a one-item counter."""
    calls = [0]
    solve = lp.linprog_max

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog_max", counted)
    monkeypatch.setattr(polytope, "linprog_max", counted)
    monkeypatch.setattr(simulation, "linprog_max", counted)
    return calls


def random_valid_problem(
    rng: np.random.Generator,
    n_choices=(1, 2, 3),
    p_choices=(0, 1, 2, 3),
    diamond_prob: float = 0.3,
) -> BrunovskyProblem:
    """Random shift-register problem guaranteed to admit a nonempty invariant
    set, with the disturbance shrunk one extra notch away from the
    feasibility boundary."""
    n = int(rng.choice(n_choices))
    p = int(rng.choice(p_choices))
    box = Hyperbox.from_bounds(-(0.5 + rng.random(n)), 0.5 + rng.random(n))
    base = 0.05 + 0.45 * rng.random(n)
    lam = 1.0
    for _ in range(40):
        prob = BrunovskyProblem.create(n, box, Hyperbox.from_bounds(-lam * base, lam * base), p)
        if nonempty_ineq(prob):
            break
        lam *= 0.6
    lam *= 0.8  # margin off the boundary
    scales = lam * base
    if n > 1 and rng.random() < diamond_prob:
        dist = cross_polytope(scales)
    else:
        dist = Hyperbox.from_bounds(-scales, scales)
    return BrunovskyProblem.create(n, box, dist, p)


@pytest.fixture(params=MASTER_SEEDS)
def master_seed(request):
    return request.param
