"""Seeded input generators for the benchmark workloads.

Everything random in a run comes from here and from ``--seed`` alone; the
library only ever receives the generated numbers and sets.  Generators return
plain specs (arrays and small ints) so that a workload can rebuild fresh
library objects for every execution of an operation: library objects cache
facts such as emptiness, and a cache warmed by an earlier pass would make
later passes do less work than the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from previewsafe import brunovsky
from previewsafe.geometry import HPolytope, Hyperbox
from previewsafe.systems import BrunovskyProblem

# streams per workload, so adding draws to one workload leaves the others alone
_STREAM = {"maxset": 1, "preview_control": 2, "lane_keeping": 3}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


@dataclass(frozen=True)
class ShiftRegisterSpec:
    """Shift-register problem: state box, disturbance scales and shape."""

    n: int
    p: int
    box_lo: np.ndarray
    box_hi: np.ndarray
    scales: np.ndarray
    diamond: bool

    def dist(self):
        if self.diamond:
            return cross_polytope(self.scales)
        return Hyperbox.from_bounds(-self.scales, self.scales)

    def problem(self) -> BrunovskyProblem:
        box = Hyperbox.from_bounds(self.box_lo, self.box_hi)
        return BrunovskyProblem.create(self.n, box, self.dist(), self.p)


def cross_polytope(scales: np.ndarray) -> HPolytope:
    """Diamond ``{d : sum_k |d_k| / scales_k <= 1}``; its bounding box is
    exactly ``prod [-scales_k, scales_k]``, as the closed form requires."""
    n = scales.shape[0]
    rows = [np.asarray(signs) / scales for signs in itertools.product((-1.0, 1.0), repeat=n)]
    return HPolytope(np.vstack(rows), np.ones(2**n))


def shift_register(
    rng: np.random.Generator, n: int, p: int, diamond: bool, margin: float = 0.8
) -> ShiftRegisterSpec:
    """Random box and box-disturbance scales, shrunk by 0.6 until the
    nonemptiness test passes and then by ``margin`` off the boundary.

    A diamond with the same scales lies inside that box, so the test still
    holds for it.  The draws have the centres of ``random_valid_problem`` in
    ``tests/conftest.py`` but less than half its widths: with its widths,
    Method 1 takes 4 iterations on some problems of a cell and 5 on others,
    and which ones a seed draws moved a whole batch's cost by 10%.
    """
    lo = -(0.8 + 0.4 * rng.random(n))
    hi = 0.8 + 0.4 * rng.random(n)
    box = Hyperbox.from_bounds(lo, hi)
    base = 0.175 + 0.2 * rng.random(n)
    lam = 1.0
    for _ in range(40):
        trial = BrunovskyProblem.create(n, box, Hyperbox.from_bounds(-lam * base, lam * base), p)
        if brunovsky.nonempty_ineq(trial):
            break
        lam *= 0.6
    else:
        raise RuntimeError("no nonempty shrink of the disturbance found")
    return ShiftRegisterSpec(n, p, lo, hi, margin * lam * base, diamond)


def maxset_specs(rng: np.random.Generator, per_cell: int = 4) -> list:
    """``per_cell`` problems for every (n, p) with n in 2..5 and p in 0..5,
    in a seeded random order.

    Which problems get a cross-polytope disturbance is fixed, not drawn: two
    in the cells with n + p = 5 or 10 and one in every other cell, 29 of 96.
    The cost of one Method 1 run depends mostly on n, p and the disturbance
    shape, so fixing the mix keeps the batch's total work steady across seeds
    while the seed draws the numbers.
    """
    specs = []
    for n in range(2, 6):
        for p in range(6):
            diamonds = 2 if (n + p) % 5 == 0 else 1
            for k in range(per_cell):
                specs.append(shift_register(rng, n, p, diamond=k < diamonds))
    return [specs[i] for i in rng.permutation(len(specs))]


@dataclass(frozen=True)
class ControlRollout:
    """One criterion-8 style rollout: problem, start state, uniform script."""

    spec: ShiftRegisterSpec
    x0: np.ndarray
    script: np.ndarray  # (n + extra + p, n)


def control_rollouts(
    rng: np.random.Generator, rollouts=((2, 12), (3, 12), (4, 8), (5, 8), (6, 8)), extra: int = 3
) -> list:
    """Box-disturbance shift registers with n = p = pbar, each with a start
    state uniform in the box and a script uniform in the disturbance box, in
    a seeded random order.

    ``rollouts`` pairs each pbar with its number of rollouts.  A call costs
    about twice as much at pbar + 1, so the latency distribution has a step
    per pbar; these counts put the median and the 90th percentile of the
    (pbar + 3)-step rollouts inside a step (pbar 4 and 6), not on an edge
    between two, where timing noise would make them jump.
    """
    out = []
    for pbar, count in rollouts:
        for _ in range(count):
            spec = shift_register(rng, pbar, pbar, diamond=False)
            x0 = rng.uniform(spec.box_lo, spec.box_hi)
            script = rng.uniform(-spec.scales, spec.scales, size=(pbar + extra + pbar, pbar))
            out.append(ControlRollout(spec, x0, script))
    return [out[i] for i in rng.permutation(len(out))]


def point_in(P: HPolytope, rng: np.random.Generator, depth: float = 0.9) -> np.ndarray:
    """A point of ``P`` on the segment from its inflation-LP centre to the
    maximizer of a random direction, at a uniform fraction in ``[0, depth)``
    of the way, so that starts stay off the boundary."""
    center = P.feasible_point()
    direction = rng.standard_normal(P.dim)
    vertex = P.maximize(direction).point
    return center + depth * rng.random() * (vertex - center)


def vertex_script(
    rng: np.random.Generator, preview: np.ndarray, lo: np.ndarray, hi: np.ndarray, steps: int
) -> np.ndarray:
    """The previewed entries, then ``steps`` disturbances drawn from the
    vertices of the box ``[lo, hi]``."""
    picks = rng.integers(0, 2, size=(steps, lo.shape[0]))
    return np.vstack([preview, np.where(picks == 1, hi, lo)])
