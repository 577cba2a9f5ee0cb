"""Closed-form invariance machinery for shift-register systems in a state box.

For the single-input shift register (upper-shift A, input entering the last
coordinate, full disturbance matrix) with state box B = prod_k [b_{k,1},
b_{k,2}] and disturbance set D whose smallest enclosing box is prod_k
[c_{k,1}, c_{k,2}], this module provides:

* the vertex nonemptiness test and its equivalent n^2-inequality form,
* the explicit maximal controlled invariant set of the p-augmented system
  as a list of scalar constraints on x_k plus previewed disturbance entries,
* the preview-fed safe controller built from barycentric weights over the
  tail-disturbance box,
* the collapse (p >= n) and state-projection identities, and the largest
  tolerable symmetric disturbance bound for a given preview time.

Index conventions (the single most error-prone detail in here, so it is kept
in one place): all math indices below are 1-based as in the derivation and
converted to 0-based only when slicing arrays.  Every bound is a float
endpoint minus a scalar float sum of disturbance-box endpoints over the
never-previewed tail; an empty sum is 0.  A scalar interval is its two float
endpoints ``(lo, hi)``, empty iff ``lo > hi``.

* pbar = min(p, n).
* bhat_k = [b_{k,1} - sum_{i=k}^{n-pbar} c_{i,1},
            b_{k,2} - sum_{i=k}^{n-pbar} c_{i,2}]  for k = 1..n, empty
  where the endpoints cross.
* Constraint (k, j), 1 <= j < k <= n, bounds x_k + sum_{i=1}^{min(k-j, p)}
  d_{i, k-i} by [b_{j,1} - sum_{i=p+1}^{k-j} c_{k-i,1},
  b_{j,2} - sum_{i=p+1}^{k-j} c_{k-i,2}], summed in that order (from
  c_{k-p-1} down to c_j).
* The tail box B_{d,pbar} = prod_{k=n-pbar+1}^{n} [c_{k,1}, c_{k,2}]; its
  j-th coordinate (j = 1..pbar) is original coordinate n - pbar + j.
* The preview stack v has v_j = d_{pbar-j+1, n-pbar+j}, i.e. the freshest
  previewed step contributes its last coordinate at the end of v, and
  v_{pbar-i+1} = d_{i, n-i+1}.
* The safe-input interval at stack v is
  I(v) = intersection over k = 1..n of (bhat_k - s_k(v)) with
  s_k(v) = sum_{i=1}^{min(n-k+1, pbar)} v_{pbar-i+1}, i.e. [max_k (bhat_{k,1}
  - s_k), min_k (bhat_{k,2} - s_k)], and empty outright when some bhat_k is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptyInvariantError, InvalidParametersError
from .geometry import (
    HPolytope,
    Hyperbox,
    box_vertices,
    convex_weights,
    lift,
    project,
    set_equal,
)
from .geometry.polytope import _lift_rows
from .invariance import method1
from .systems import BrunovskyProblem, collaborative

__all__ = [
    "InvariantConstraint",
    "BrunovskyInvariant",
    "nonempty_vertex",
    "nonempty_ineq",
    "closed_form",
    "membership",
    "to_hpolytope",
    "preview_stack",
    "vertex_interval",
    "controller_g",
    "collapse",
    "projection_identity",
    "largest_c",
    "evariant_membership",
]


def pbar_of(problem: BrunovskyProblem) -> int:
    return min(problem.p, problem.n)


def _ssum(values, lo_1b: int, hi_1b: int) -> float:
    """Scalar sum of values[lo..hi], 1-based inclusive; 0 when empty."""
    if lo_1b > hi_1b:
        return 0.0
    return float(np.sum(values[lo_1b - 1 : hi_1b]))


def bhat(problem: BrunovskyProblem) -> list:
    """The tail-adjusted state bounds, one endpoint pair ``(lo, hi)`` per
    k = 1..n; a pair with ``lo > hi`` is an empty bhat_k."""
    n, pb = problem.n, pbar_of(problem)
    blo, bhi = problem.box.lo.tolist(), problem.box.hi.tolist()
    clo, chi = problem.dist_box.lo, problem.dist_box.hi
    return [
        (blo[k - 1] - _ssum(clo, k, n - pb), bhi[k - 1] - _ssum(chi, k, n - pb))
        for k in range(1, n + 1)
    ]


def tail_box(problem: BrunovskyProblem) -> Hyperbox:
    """B_{d,pbar}: the box of never-previewed disturbance coordinates."""
    tail = slice(problem.n - pbar_of(problem), problem.n)
    return Hyperbox(problem.dist_box.lo[tail], problem.dist_box.hi[tail])


def preview_stack(problem: BrunovskyProblem, d_list: Sequence) -> np.ndarray:
    """Stack v with v_j = d_{pbar-j+1, n-pbar+j} from the previewed steps."""
    n, p = problem.n, problem.p
    pb = pbar_of(problem)
    if len(d_list) != p:
        raise ValueError(f"expected {p} previewed disturbances, got {len(d_list)}")
    ds = [np.asarray(d, dtype=float).ravel() for d in d_list]
    for d in ds:
        if d.shape[0] != n:
            raise ValueError("each previewed disturbance must be n-dimensional")
    v = np.zeros(pb)
    for j in range(1, pb + 1):
        v[j - 1] = ds[pb - j][n - pb + j - 1]  # d_{pbar-j+1} is ds[pb-j]
    return v


def _stack_shift(problem: BrunovskyProblem, v: np.ndarray, k: int) -> float:
    """s_k(v) = sum_{i=1}^{min(n-k+1, pbar)} v_{pbar-i+1}."""
    pb = pbar_of(problem)
    count = min(problem.n - k + 1, pb)
    return float(np.sum(v[pb - count :])) if count > 0 else 0.0


def vertex_interval(problem: BrunovskyProblem, v: np.ndarray) -> tuple:
    """I(v) as ``(lo, hi)``, empty iff ``lo > hi``: inputs safe against every
    future beyond the stack v.  An empty bhat_k is returned as it is, since
    subtracting s_k from both of its ends can round the crossing away."""
    lo, hi = -math.inf, math.inf
    for k, (b_lo, b_hi) in enumerate(bhat(problem), 1):
        if b_lo > b_hi:
            return b_lo, b_hi
        s = _stack_shift(problem, v, k)
        lo, hi = max(lo, b_lo - s), min(hi, b_hi - s)
    return lo, hi


def nonempty_vertex(problem: BrunovskyProblem) -> bool:
    """Vertex form of the nonemptiness test: I(v) nonempty at every vertex of
    the tail box.  Raises DimensionTooLarge for pbar above the vertex cap."""
    vertices = box_vertices(tail_box(problem))
    return not any(lo > hi for lo, hi in (vertex_interval(problem, v) for v in vertices))


def _ineq_rhs(n: int, p: int, clo, chi, j: int, k: int) -> float:
    """Right-hand side of the (j, k) inequality b_{j,1} - b_{k,2} <= rhs,
    in the three index cases exactly as printed; uses p itself (not pbar),
    which makes the test p-independent once p >= n."""
    rhs = _ssum(clo, j, n - p) - _ssum(chi, k, n - p)
    if j < k:
        return rhs + _ssum(clo, max(j, n - p + 1), max(k - 1, n - p))
    if j > k:
        return rhs - _ssum(chi, max(k, n - p + 1), max(j - 1, n - p))
    return rhs


def nonempty_ineq(problem: BrunovskyProblem) -> bool:
    """Equivalent n^2-inequality nonemptiness test."""
    n, p = problem.n, problem.p
    blo, bhi = problem.box.lo, problem.box.hi
    clo, chi = problem.dist_box.lo, problem.dist_box.hi
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if blo[j - 1] - bhi[k - 1] > _ineq_rhs(n, p, clo, chi, j, k) + 1e-12:
                return False
    return True


@dataclass(frozen=True)
class InvariantConstraint:
    """One scalar constraint of the closed form, indexed by (k, j), 1-based:

        lo  <=  x_k + sum_{(i, c) in dcoords} d_{i, c}  <=  hi,

    where dcoords = [(i, k - i) for i = 1..min(k - j, p)] and [lo, hi] is
    [b_{j,1}, b_{j,2}] minus the never-previewed tail sums, endpoint by
    endpoint (see the module docstring).
    """

    k: int
    j: int
    dcoords: tuple
    lo: float
    hi: float

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "j": self.j,
            "dcoords": [list(pair) for pair in self.dcoords],
            "bound": {"lo": self.lo, "hi": self.hi},
        }


@dataclass(frozen=True)
class BrunovskyInvariant:
    """The explicit maximal controlled invariant set of the augmented system:
    membership in the state box, each previewed step in D, plus the
    constraint records."""

    problem: BrunovskyProblem
    constraints: tuple

    def to_json(self) -> dict:
        return {
            "n": self.problem.n,
            "p": self.problem.p,
            "box": self.problem.box.to_json(),
            "dist_box": self.problem.dist_box.to_json(),
            "constraints": [c.to_json() for c in self.constraints],
        }


def closed_form(problem: BrunovskyProblem) -> BrunovskyInvariant:
    """Materialize the constraint records of the maximal invariant set.

    Requires the nonemptiness condition; raises
    :class:`EmptyInvariantError` when it fails.
    """
    if not nonempty_ineq(problem):
        raise EmptyInvariantError("no nonempty controlled invariant set exists")
    n, p = problem.n, problem.p
    blo, bhi = problem.box.lo.tolist(), problem.box.hi.tolist()
    clo, chi = problem.dist_box.lo.tolist(), problem.dist_box.hi.tolist()
    records = []
    for k in range(2, n + 1):
        for j in range(1, k):
            dcoords = tuple((i, k - i) for i in range(1, min(k - j, p) + 1))
            # tail i = p+1..k-j, summed from c_{k-p-1} down to c_j
            tail_lo = tail_hi = 0.0
            for c in range(k - p - 1, j - 1, -1):
                tail_lo += clo[c - 1]
                tail_hi += chi[c - 1]
            lo, hi = blo[j - 1] - tail_lo, bhi[j - 1] - tail_hi
            if lo > hi:
                raise EmptyInvariantError(
                    "constraint bound collapsed despite the nonemptiness test"
                )
            records.append(InvariantConstraint(k=k, j=j, dcoords=dcoords, lo=lo, hi=hi))
    return BrunovskyInvariant(problem=problem, constraints=tuple(records))


def membership(
    inv: BrunovskyInvariant, x, d_list: Sequence, tol: float = 1e-9
) -> bool:
    """Point test: x in the box, every d_i in D (the true set, not its box),
    and every constraint record satisfied."""
    problem = inv.problem
    n, p = problem.n, problem.p
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != n:
        raise ValueError("state dimension mismatch")
    if len(d_list) != p:
        raise ValueError(f"expected {p} previewed disturbances")
    ds = [np.asarray(d, dtype=float).ravel() for d in d_list]
    if not problem.box.contains(x, tol):
        return False
    for d in ds:
        if not problem.dist.contains(d, tol):
            return False
    for rec in inv.constraints:
        total = x[rec.k - 1] + sum(ds[i - 1][c - 1] for i, c in rec.dcoords)
        if not rec.lo - tol <= total <= rec.hi + tol:
            return False
    return True


def to_hpolytope(inv: BrunovskyInvariant) -> HPolytope:
    """H-form of the invariant over (x, d_1, ..., d_p) in R^{n + n p}."""
    problem = inv.problem
    n, p = problem.n, problem.p
    # B x D^p, then both sides of every scalar constraint
    H, h = _lift_rows(HPolytope.from_box(problem.box), problem.dist, p)
    rows, rhs = [H], [h]
    for rec in inv.constraints:
        row = np.zeros(n * (p + 1))
        row[rec.k - 1] = 1.0
        for i, c in rec.dcoords:
            row[n + (i - 1) * n + (c - 1)] = 1.0
        rows.append(np.vstack([row, -row]))
        rhs.append(np.array([rec.hi, -rec.lo]))
    return HPolytope(np.vstack(rows), np.concatenate(rhs))


def controller_g(problem: BrunovskyProblem, d_list: Sequence) -> float:
    """Preview-only safe controller: barycentric combination over the tail
    box of the midpoint of each tail vertex's safe-input interval.

    Raises :class:`EmptyInvariantError` if any vertex interval is empty
    (equivalently, if the nonemptiness condition fails).  ``box_vertices``
    and ``convex_weights`` walk the vertices in the same order, so the
    intervals pair with the weights by position.
    """
    v = preview_stack(problem, d_list)
    box = tail_box(problem)
    ends = [vertex_interval(problem, e) for e in box_vertices(box)]
    if any(lo > hi for lo, hi in ends):
        raise EmptyInvariantError("a tail-vertex safe-input interval is empty")
    u = 0.0
    for weight, (lo, hi) in zip(convex_weights(box, v), ends):
        u += weight * (0.5 * (lo + hi))
    return float(u)


@dataclass(frozen=True)
class CollapseResult:
    c_n: BrunovskyInvariant
    verified: bool


def collapse(problem: BrunovskyProblem) -> CollapseResult:
    """For p > n the invariant factors as C_n x D^(p-n); build and verify."""
    if problem.p <= problem.n:
        raise InvalidParametersError("collapse applies to p > n")
    inv_n = closed_form(replace(problem, p=problem.n))
    inv_p = closed_form(problem)
    lifted = lift(to_hpolytope(inv_n), problem.dist, problem.p - problem.n)
    verified = set_equal(to_hpolytope(inv_p), lifted)
    return CollapseResult(c_n=inv_n, verified=verified)


def projection_identity(problem: BrunovskyProblem) -> dict:
    """State projection of C_n equals the collaborative maximal set (p >= n)."""
    if problem.p < problem.n:
        raise InvalidParametersError("the projection identity applies to p >= n")
    inv_n = closed_form(replace(problem, p=problem.n))
    rhs = project(to_hpolytope(inv_n), list(range(problem.n)))
    co = collaborative(problem.system())
    lhs = method1(co).result
    return {"lhs": lhs, "rhs": rhs, "equal": set_equal(lhs, rhs)}


def largest_c(n: int, p: int, box: Hyperbox) -> float:
    """Supremum of c such that D = [-c, c]^n still admits a nonempty
    invariant set.

    With D = [-c, c]^n the (j, k) inequality reads
    b_{j,1} - b_{k,2} <= -count_jk * c, so the supremum is the least
    (b_{k,2} - b_{j,1}) / count_jk over count_jk > 0.  Returns 0 when c = 0
    already fails, and ``inf`` when every count is 0 (n = 1 with preview,
    where the input cancels the disturbance exactly).
    """
    if box.dim != n or box.is_empty:
        raise InvalidParametersError("state box must be a nonempty n-dim box")
    blo, bhi = box.lo, box.hi
    clo, chi = -np.ones(n), np.ones(n)
    best = float("inf")
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            slack = float(bhi[k - 1] - blo[j - 1])
            if slack < -1e-12:
                return 0.0
            count = -_ineq_rhs(n, p, clo, chi, j, k)
            if count > 0:
                best = min(best, slack / count)
    return max(0.0, best)


def evariant_membership(
    problem_v: BrunovskyProblem, x, d_list: Sequence, tol: float = 1e-9
) -> bool:
    """Membership for the matrix-disturbance variant: each previewed step is
    checked against the original set and mapped through Ebar before the
    shift-register test."""
    ds = d_list
    ebar = problem_v.ebar
    if ebar is not None:
        ds = [np.asarray(d, dtype=float).ravel() for d in d_list]
        for d in ds:
            if d.shape[0] != ebar.shape[1]:
                raise ValueError("previewed disturbance dimension mismatch")
            if not problem_v.dist_v.contains(d, tol):
                return False
        ds = [ebar @ d for d in ds]
    return membership(closed_form(problem_v), x, ds, tol)
