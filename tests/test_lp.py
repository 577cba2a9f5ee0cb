import importlib.resources
import json
import sys

import numpy as np
import pytest
from conftest import random_valid_problem
from scipy.optimize import linprog as scipy_lp

from previewsafe import invariance, simulation
from previewsafe.errors import NumericalError
from previewsafe.geometry import LPResult, LPStatus, chebyshev_center, linprog_max, lp, polytope
from previewsafe.geometry.lp import _DualOutcome
from previewsafe.systems import augment


def test_box_corner():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    res = linprog_max([1.0, 1.0], A, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(res.point, [1.0, 1.0], atol=1e-9)


def test_triangle_vertex():
    # triangle {x>=0, y>=0, x+y<=1}: optimum of x+y sits on the hypotenuse
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    res = linprog_max([1.0, 1.0], A, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, -1.0])
    assert linprog_max([1.0], A, b).status is LPStatus.INFEASIBLE


def test_unbounded():
    A = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    assert linprog_max([0.0, 1.0], A, b).status is LPStatus.UNBOUNDED
    assert linprog_max([-1.0, 0.0], A, b).status is LPStatus.UNBOUNDED


def test_degenerate_equality_pair():
    # segment {x = y, |x| <= 1} as inequality pairs
    A = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0, 1.0])
    res = linprog_max([1.0, 1.0], A, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-8)


def test_free_variable_objective_zero():
    # x free with no binding constraint in its column but zero cost there
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([2.0, 2.0])
    res = linprog_max([1.0, 0.0], A, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-9)


def test_no_rows():
    res = linprog_max([0.0, 0.0], np.zeros((0, 2)), np.zeros(0))
    assert res.status is LPStatus.OPTIMAL and res.objective == 0.0
    res = linprog_max([1.0, 0.0], np.zeros((0, 2)), np.zeros(0))
    assert res.status is LPStatus.UNBOUNDED


def test_chebyshev_unit_box():
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.ones(6)
    rho, x = chebyshev_center(A, b)
    assert rho == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(x) <= 1e-9)


def test_chebyshev_detects_empty():
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, -1.0])
    rho, _ = chebyshev_center(A, b)
    assert rho < -1e-9


def test_chebyshev_marker_row():
    rho, x = chebyshev_center(np.zeros((1, 2)), np.array([-1.0]))
    assert rho == -np.inf and x is None


def _check_against_scipy(c, A, b):
    d = A.shape[1]
    mine = linprog_max(c, A, b)
    ref = scipy_lp(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
    if ref.status == 0:
        assert mine.status is LPStatus.OPTIMAL
        assert mine.objective == pytest.approx(-ref.fun, abs=1e-6 * (1 + abs(ref.fun)))
        assert np.all(A @ mine.point <= b + 1e-6)
        assert c @ mine.point == pytest.approx(mine.objective, abs=1e-6 * (1 + abs(mine.objective)))
    elif ref.status in (2, 3, 4):
        # HiGHS may collapse infeasible/unbounded; double-check which with
        # a feasibility probe before trusting the label
        feas = scipy_lp(np.zeros(d), A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        if feas.status == 0:
            assert mine.status is LPStatus.UNBOUNDED
        else:
            assert mine.status is LPStatus.INFEASIBLE
    return mine.status


@pytest.mark.parametrize("seed", [11, 222, 3333])
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        _check_against_scipy(*_random_lp(rng))


def _random_lp(rng):
    d = int(rng.integers(1, 8))
    m = int(rng.integers(1, 30))
    A = rng.normal(size=(m, d))
    b = rng.normal(size=m) + 0.5
    return rng.normal(size=d), A, b


def _duplicate_and_near_parallel(rng):
    d = int(rng.integers(1, 6))
    A = rng.normal(size=(int(rng.integers(2, 12)), d))
    b = rng.normal(size=A.shape[0]) + 0.5
    pick = rng.integers(0, A.shape[0], size=int(rng.integers(1, 8)))
    # exact copies, copies with another offset, and rows tilted by 1e-7..1e-10
    tilt = rng.normal(size=(pick.size, d)) * 10.0 ** rng.uniform(-10, -7, size=(pick.size, 1))
    A = np.vstack([A, A[pick], A[pick] + tilt])
    b = np.concatenate([b, b[pick] + rng.choice([0.0, 0.1], size=pick.size), b[pick]])
    return rng.normal(size=d), A, b


def _near_zero_tol(rng, rows=True, costs=True):
    """Entries of size ~_ZERO_TOL (1e-9) in the rows of ``A`` and/or in
    ``c``; rows unit-norm, as HPolytope hands every row to the kernel, and a
    box that keeps the set bounded."""
    d = int(rng.integers(1, 6))
    A = rng.normal(size=(int(rng.integers(1, 15)), d))
    if rows:
        small = rng.random(A.shape) < 0.4
        small[:, 0] = False
        A[small] = rng.choice([-1.0, 1.0], size=small.sum()) * 10.0 ** rng.uniform(-10, -8, size=small.sum())
    A /= np.linalg.norm(A, axis=1)[:, None]
    A = np.vstack([A, np.eye(d), -np.eye(d)])
    b = np.concatenate([rng.normal(size=A.shape[0] - 2 * d) + 0.5, np.full(2 * d, 3.0)])
    c = rng.normal(size=d)
    if costs:
        c[rng.random(d) < 0.3] = 1e-9
    return c, A, b


def _equality_pairs(rng):
    # a measure-zero set: k equalities as inequality pairs, plus random rows
    d = int(rng.integers(2, 7))
    k = int(rng.integers(1, d))
    E = rng.normal(size=(k, d))
    x0 = rng.normal(size=d)
    R = rng.normal(size=(int(rng.integers(1, 12)), d))
    A = np.vstack([E, -E, R])
    b = np.concatenate([E @ x0, -(E @ x0), R @ x0 + rng.random(R.shape[0])])
    return rng.normal(size=d), A, b


def _unbounded_directions(rng):
    # every row has a nonpositive first coefficient, so +e_0 is a recession
    # direction; the objective leans on it or not at random
    d = int(rng.integers(1, 6))
    A = rng.normal(size=(int(rng.integers(1, 15)), d))
    A[:, 0] = -np.abs(A[:, 0])
    b = rng.normal(size=A.shape[0]) + 0.5
    c = rng.normal(size=d)
    c[0] = abs(c[0]) if rng.random() < 0.7 else -abs(c[0])
    return c, A, b


DEGENERATE_FAMILIES = {
    "duplicate_rows": _duplicate_and_near_parallel,
    "near_zero_rows": lambda rng: _near_zero_tol(rng, costs=False),
    "near_zero_costs": lambda rng: _near_zero_tol(rng, rows=False),
    "equality_pairs": _equality_pairs,
    "unbounded_directions": _unbounded_directions,
}


@pytest.mark.parametrize("seed", [11, 222, 3333])
@pytest.mark.parametrize("family", sorted(DEGENERATE_FAMILIES))
def test_degenerate_families_against_scipy(family, seed):
    rng = np.random.default_rng(seed)
    statuses = {_check_against_scipy(*DEGENERATE_FAMILIES[family](rng)) for _ in range(60)}
    if family == "unbounded_directions":
        assert LPStatus.UNBOUNDED in statuses
    else:
        assert LPStatus.OPTIMAL in statuses


@pytest.mark.xfail(
    strict=True,
    reason="known defect: with entries near 1e-9 in both A and c, the ratio test "
    "can pivot on an element of ~2e-8 (above the absolute tolerance 1e-9) among "
    "degenerate ties, and phase 1 then reports a bounded LP as unbounded",
)
def test_tolerance_scale_rows_and_costs_against_scipy():
    for seed in (1, 3333):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            _check_against_scipy(*_near_zero_tol(rng))


def test_degenerate_cycling_guard():
    # heavily degenerate LP (many facets through one vertex); must terminate
    rng = np.random.default_rng(7)
    d = 4
    A = rng.normal(size=(40, d))
    b = np.zeros(40)  # every facet passes through the origin
    A = np.vstack([A, np.eye(d)])
    b = np.concatenate([b, np.ones(d)])
    res = linprog_max(rng.normal(size=d), A, b)
    assert res.status in (LPStatus.OPTIMAL, LPStatus.UNBOUNDED)
    if res.status is LPStatus.OPTIMAL:
        assert np.all(A @ res.point <= b + 1e-7)


def test_nan_offset_raises():
    # used to return OPTIMAL with objective nan
    with pytest.raises(ValueError):
        linprog_max([1.0], [[1.0]], [np.nan])


def test_infinite_offset_raises():
    # used to return OPTIMAL with objective inf rather than say unbounded
    with pytest.raises(ValueError):
        linprog_max([1.0], [[1.0], [-1.0]], [np.inf, 1.0])


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([np.inf], [[1.0]], [1.0]),
        ([np.nan], np.zeros((0, 1)), np.zeros(0)),
        ([1.0], [[np.nan]], [1.0]),
        ([1.0], [[-np.inf]], [1.0]),
    ],
    ids=["c_inf", "c_nan_no_rows", "A_nan", "A_inf"],
)
def test_non_finite_objective_or_matrix_raises(c, A, b):
    with pytest.raises(ValueError):
        linprog_max(c, A, b)


@pytest.mark.parametrize("row", [-1, 3])
def test_row_outside_the_rows_raises(row):
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(ValueError):
        linprog_max(A[0], A, np.ones(3), row=row)


def test_row_that_is_not_the_objective_raises():
    # off by one ulp: a start at y = e_1 would be dual infeasible
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    c = A[1].copy()
    c[1] = np.nextafter(1.0, 2.0)
    with pytest.raises(ValueError):
        linprog_max(c, A, np.ones(3), row=1)


def test_row_without_rows_raises():
    with pytest.raises(ValueError):
        linprog_max(np.zeros(2), np.zeros((0, 2)), np.zeros(0), row=0)


@pytest.mark.parametrize("offset", [1.0, -1.0])
def test_row_start_on_a_zero_row(offset):
    # c = A[0] = 0: the start is the all-artificial basis, y = 0
    A = np.vstack([np.zeros(2), np.eye(2), -np.eye(2)])
    b = np.array([offset, 1.0, 1.0, 1.0, 1.0])
    cold = linprog_max(A[0], A, b)
    warm = linprog_max(A[0], A, b, row=0)
    assert warm.status is cold.status
    assert warm.objective == cold.objective


# The kernel before its per-pivot overheads were cut (np.outer, a fresh ratio
# array per pivot, copies of A.T, c and b), kept as the bitwise reference:
# the two must agree bit for bit on every status, objective and point.

_REF_STALL_LIMIT = 100


def _ref_pivot(T: np.ndarray, row: int, col: int) -> None:
    piv = T[row, col]
    T[row] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    # keep the pivot column numerically clean
    T[:, col] = 0.0
    T[row, col] = 1.0


def _ref_run_simplex(
    T: np.ndarray,
    basis: np.ndarray,
    cost_row: int,
    ncols: int,
    nrows: int,
    tol: float,
) -> _DualOutcome:
    bland = False
    stall = 0
    best = T[cost_row, -1]
    max_iter = 500 + 50 * (ncols + nrows)
    for _ in range(max_iter):
        costs = T[cost_row, :ncols]
        if bland:
            neg = np.flatnonzero(costs < -tol)
            if neg.size == 0:
                return _DualOutcome.OPTIMAL
            col = int(neg[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -tol:
                return _DualOutcome.OPTIMAL
        column = T[:nrows, col]
        rhs = np.maximum(T[:nrows, -1], 0.0)
        ok = column > tol
        if not np.any(ok):
            return _DualOutcome.UNBOUNDED
        ratios = np.full(nrows, np.inf)
        ratios[ok] = rhs[ok] / column[ok]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12)
        # smallest basis label on ties; deterministic and anti-cycling friendly
        row = int(ties[np.argmin(basis[ties])])
        _ref_pivot(T, row, col)
        basis[row] = col
        if T[cost_row, -1] > best + 1e-12:
            best = T[cost_row, -1]
            stall = 0
        else:
            stall += 1
            if stall >= _REF_STALL_LIMIT:
                bland = True
    raise NumericalError("simplex iteration cap exceeded")


def _ref_solve_dual(M: np.ndarray, rhs: np.ndarray, g: np.ndarray, tol: float):
    d, m = M.shape
    sign = np.where(rhs < 0.0, -1.0, 1.0)
    M = M * sign[:, None]
    rhs = rhs * sign

    # columns: m originals | d artificials | rhs; rows: d constraints,
    # phase-2 cost, phase-1 cost
    T = np.zeros((d + 2, m + d + 1))
    T[:d, :m] = M
    T[:d, m : m + d] = np.eye(d)
    T[:d, -1] = rhs
    T[d, :m] = g
    # phase-1 reduced costs after pricing out the artificial basis
    T[d + 1, :m] = -M.sum(axis=0)
    T[d + 1, -1] = -rhs.sum()
    basis = np.arange(m, m + d)

    scale = 1.0 + float(np.abs(rhs).sum())
    outcome = _ref_run_simplex(T, basis, d + 1, m, d, tol)
    if outcome is not _DualOutcome.OPTIMAL or -T[d + 1, -1] > tol * scale:
        return _DualOutcome.INFEASIBLE, 0.0, None

    # drive leftover artificials (basic at zero) out of the basis when possible
    for i in range(d):
        if basis[i] >= m:
            nz = np.flatnonzero(np.abs(T[i, :m]) > 1e-9)
            if nz.size:
                _ref_pivot(T, i, int(nz[0]))
                basis[i] = int(nz[0])

    outcome = _ref_run_simplex(T, basis, d, m, d, tol)
    if outcome is _DualOutcome.UNBOUNDED:
        return _DualOutcome.UNBOUNDED, 0.0, None
    objective = -T[d, -1]
    # multipliers: reduced costs of the artificial columns, undone sign flips
    multipliers = -sign * T[d, m : m + d]
    return _DualOutcome.OPTIMAL, float(objective), multipliers


def reference_linprog_max(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, tol: float = lp.EPS_LP, *, row=None
) -> LPResult:
    # row (the warm-start hint of linprog_max) is ignored: the reference
    # always solves cold, through phase 1
    c = np.asarray(c, dtype=float).ravel()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, d = A.shape
    if c.shape[0] != d or b.shape[0] != m:
        raise ValueError("inconsistent LP shapes")

    if m == 0:
        if np.all(np.abs(c) <= tol):
            return LPResult(LPStatus.OPTIMAL, 0.0, np.zeros(d))
        return LPResult(LPStatus.UNBOUNDED, np.inf, None)

    outcome, objective, point = _ref_solve_dual(A.T.copy(), c.copy(), b.copy(), tol)
    if outcome is _DualOutcome.OPTIMAL:
        return LPResult(LPStatus.OPTIMAL, objective, point)
    if outcome is _DualOutcome.UNBOUNDED:
        # dual unbounded below means the primal is infeasible
        return LPResult(LPStatus.INFEASIBLE, -np.inf, None)
    # dual infeasible: the primal is unbounded if feasible, empty otherwise
    probe, _, _ = _ref_solve_dual(A.T.copy(), np.zeros(d), b.copy(), tol)
    if probe is _DualOutcome.UNBOUNDED:
        return LPResult(LPStatus.INFEASIBLE, -np.inf, None)
    return LPResult(LPStatus.UNBOUNDED, np.inf, None)


def _vertex_lp(rng):
    # every facet through the origin, capped by a box corner (as in
    # test_degenerate_cycling_guard)
    d = int(rng.integers(2, 6))
    A = np.vstack([rng.normal(size=(int(rng.integers(10, 41)), d)), np.eye(d)])
    b = np.concatenate([np.zeros(A.shape[0] - d), np.ones(d)])
    return rng.normal(size=d), A, b


def _chebyshev_lp(rng):
    # the inflation LP of chebyshev_center on unit rows: a cost with one
    # nonzero entry makes the dual right-hand side mostly zero, so the ratio
    # test ties and its tie-break decides the path
    d = int(rng.integers(1, 8))
    A = rng.normal(size=(int(rng.integers(1, 40)), d))
    A /= np.linalg.norm(A, axis=1)[:, None]
    A = np.vstack([np.hstack([A, np.ones((A.shape[0], 1))]), np.eye(d + 1)[-1]])
    b = np.append(rng.normal(size=A.shape[0] - 1) + 0.5, 1e6)
    return np.eye(d + 1)[-1], A, b


def _axis_lp(rng):
    # support along a coordinate axis, as bounding_box asks
    c, A, b = _random_lp(rng)
    return np.eye(c.size)[rng.integers(c.size)] * rng.choice([-1.0, 1.0]), A, b


def _duplicate_rows_lp(rng):
    c, A, b = _random_lp(rng)
    pick = rng.integers(0, A.shape[0], size=int(rng.integers(1, 2 * A.shape[0] + 1)))
    return c, np.vstack([A, A[pick]]), np.concatenate([b, b[pick]])


def _infeasible_lp(rng):
    # a slab with its two sides swapped, plus random rows
    c, A, b = _random_lp(rng)
    a = rng.normal(size=A.shape[1])
    gap = rng.random() + 1e-3
    return c, np.vstack([A, a, -a]), np.concatenate([b, [-gap], [-gap]])


def _empty_lp(rng):
    d = int(rng.integers(1, 5))
    c = rng.normal(size=d) if rng.random() < 0.5 else np.zeros(d)
    return c, np.zeros((0, d)), np.zeros(0)


REFERENCE_FAMILIES = {
    "random": _random_lp,
    "vertex": _vertex_lp,
    "chebyshev": _chebyshev_lp,
    "axis": _axis_lp,
    "duplicate_rows": _duplicate_rows_lp,
    "infeasible": _infeasible_lp,
    "unbounded": _unbounded_directions,
    "no_rows": _empty_lp,
}


def _assert_same_bits(mine: LPResult, ref: LPResult):
    assert mine.status is ref.status
    assert np.float64(mine.objective).tobytes() == np.float64(ref.objective).tobytes()
    if ref.point is None:
        assert mine.point is None
    else:
        assert mine.point.dtype == ref.point.dtype
        assert mine.point.tobytes() == ref.point.tobytes()


@pytest.mark.parametrize("stall_limit", [None, 0], ids=["dantzig", "bland"])
@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_kernel_matches_reference_bitwise(family, stall_limit, monkeypatch):
    if stall_limit is not None:
        monkeypatch.setattr(lp, "_STALL_LIMIT", stall_limit)
        monkeypatch.setattr(sys.modules[__name__], "_REF_STALL_LIMIT", stall_limit)
    statuses = set()
    for seed in (11, 222, 3333):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            c, A, b = REFERENCE_FAMILIES[family](rng)
            ref = reference_linprog_max(c, A, b)
            _assert_same_bits(linprog_max(c, A, b), ref)
            statuses.add(ref.status)
    expected = {"infeasible": LPStatus.INFEASIBLE, "unbounded": LPStatus.UNBOUNDED}
    assert expected.get(family, LPStatus.OPTIMAL) in statuses


# Redundancy LPs as _reduce_arrays poses them: unit rows, the objective a row
# k of the system, row k relaxed by +1.  Started at y = e_k (row=k) the solve
# skips phase 1; it must reach the cold solve's status, value and keep/drop
# verdict.  The families reuse the generators above, rows scaled to unit norm.
WARM_FAMILIES = {
    "random": _random_lp,
    "duplicate_rows": _duplicate_rows_lp,
    "vertex": _vertex_lp,
    "equality_pairs": _equality_pairs,
    "infeasible": _infeasible_lp,
    "near_parallel": _duplicate_and_near_parallel,
}


def _redundancy_lp(rng, family):
    _, A, b = WARM_FAMILIES[family](rng)
    norms = np.linalg.norm(A, axis=1)
    A, b = A / norms[:, None], b / norms
    k = int(rng.integers(A.shape[0]))
    b[k] += 1.0
    return A, b, k


def _assert_warm_matches_cold(family):
    statuses = set()
    for seed in (11, 222, 3333):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            A, b, k = _redundancy_lp(rng, family)
            cold = linprog_max(A[k], A, b)
            warm = linprog_max(A[k], A, b, row=k)
            assert warm.status is cold.status
            statuses.add(cold.status)
            if cold.status is not LPStatus.OPTIMAL:
                continue
            assert abs(warm.objective - cold.objective) <= 1e-12 * (1.0 + abs(cold.objective))
            threshold = b[k] - 1.0 + polytope._RED_TOL
            assert (warm.objective <= threshold) == (cold.objective <= threshold)
            # with artificials left basic the point need not be a vertex
            assert np.all(A @ warm.point <= b + 1e-9)
            assert abs(A[k] @ warm.point - warm.objective) <= 1e-9
    # a row bounds its own LP, so the warm start never meets an unbounded one
    assert statuses <= {LPStatus.OPTIMAL, LPStatus.INFEASIBLE}
    expected = LPStatus.INFEASIBLE if family == "infeasible" else LPStatus.OPTIMAL
    assert expected in statuses


@pytest.mark.parametrize("stall_limit", [None, 0], ids=["dantzig", "bland"])
@pytest.mark.parametrize("family", sorted(set(WARM_FAMILIES) - {"near_parallel"}))
def test_redundancy_lp_warm_start_matches_cold(family, stall_limit, monkeypatch):
    if stall_limit is not None:
        monkeypatch.setattr(lp, "_STALL_LIMIT", stall_limit)
    _assert_warm_matches_cold(family)


@pytest.mark.xfail(
    strict=True,
    reason="known limit: rows tilted by 1e-10..1e-7 make the LP ill-conditioned "
    "beyond the absolute tolerance 1e-9, and the two starts then differ in "
    "verdict and by up to O(1) in value.  Neither is the reference there: the "
    "cold solve flips verdicts under a row permutation and can report a point "
    "that violates a row by far more than the tolerance",
)
def test_redundancy_lp_warm_start_near_parallel_rows():
    _assert_warm_matches_cold("near_parallel")


def _assert_dual_certifies(res, c, A, b):
    """An optimal result's dual is a nonnegative ``y`` with ``A.T @ y = c``
    and ``b @ y`` the objective, within 1e-9 of the scale of the sums; any
    other outcome carries none."""
    if res.status is not LPStatus.OPTIMAL:
        assert res.dual is None
        return
    y = res.dual
    assert y.shape == (A.shape[0],) and y.min(initial=0.0) >= -1e-12
    scale = 1.0 + np.abs(A).T @ np.abs(y)
    assert np.all(np.abs(A.T @ y - c) <= 1e-9 * scale)
    assert abs(b @ y - res.objective) <= 1e-9 * (1.0 + np.abs(b) @ np.abs(y))


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_dual_certifies_the_cold_optimum(family):
    statuses = set()
    for seed in (11, 222, 3333):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            c, A, b = REFERENCE_FAMILIES[family](rng)
            res = linprog_max(c, A, b)
            _assert_dual_certifies(res, c, A, b)
            statuses.add(res.status)
    expected = {"infeasible": LPStatus.INFEASIBLE, "unbounded": LPStatus.UNBOUNDED}
    assert expected.get(family, LPStatus.OPTIMAL) in statuses


@pytest.mark.parametrize("family", sorted(set(WARM_FAMILIES) - {"near_parallel"}))
def test_dual_certifies_the_warm_optimum(family):
    # the redundancy LPs of _reduce_arrays, started from y = e_k; on a drop
    # with y_k = 0 the dual names the other rows that imply row k.  Rows
    # tilted by 1e-10..1e-7 are left out, as in the warm-start test above:
    # there a basic value comes out at -3e-11 and A.T @ y misses c by 2e-9
    drops = 0
    for seed in (11, 222, 3333):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            A, b, k = _redundancy_lp(rng, family)
            res = linprog_max(A[k], A, b, row=k)
            _assert_dual_certifies(res, A[k], A, b)
            if res.status is LPStatus.OPTIMAL and res.objective <= b[k] - 1.0 + polytope._RED_TOL:
                drops += res.dual[k] == 0.0
    assert drops > 0 or family == "infeasible"


@pytest.mark.parametrize(
    "n, p, diamond",
    [(2, 3, True), (3, 1, False), (3, 2, True), (4, 1, False), (4, 2, True)],
)
def test_method1_matches_reference_kernel(n, p, diamond, monkeypatch):
    rng = np.random.default_rng(100 * n + 10 * p + diamond)
    prob = random_valid_problem(rng, n_choices=(n,), p_choices=(p,), diamond_prob=float(diamond))
    assert isinstance(prob.dist, polytope.HPolytope) is diamond
    aug = augment(prob.system(), prob.p).aug
    mine = invariance.method1(aug)
    for module in (lp, polytope, simulation):
        monkeypatch.setattr(module, "linprog_max", reference_linprog_max)
    ref = invariance.method1(aug)
    assert mine.result.H.tobytes() == ref.result.H.tobytes()
    assert mine.result.h.tobytes() == ref.result.h.tobytes()
    assert mine.per_step_rows == ref.per_step_rows
    assert (mine.iterations, mine.converged) == (ref.iterations, ref.converged)


def test_method2_matches_reference_kernel(monkeypatch):
    # the lane-keeping seed lifted to p = 2, grown for K = 3 steps
    config = importlib.resources.files("previewsafe") / "configs" / "lane_keeping.json"
    model, _ = simulation.load_simulation_config(json.loads(config.read_text(encoding="utf-8")))
    cmax0 = invariance.method1(model).result

    def grow():
        seed = invariance.lift(cmax0, model.dist_set, 2)
        return invariance.method2(augment(model, 2).aug, seed, 3)

    mine = grow()
    for module in (lp, polytope, simulation):
        monkeypatch.setattr(module, "linprog_max", reference_linprog_max)
    ref = grow()
    assert mine.result.H.tobytes() == ref.result.H.tobytes()
    assert mine.result.h.tobytes() == ref.result.h.tobytes()
    assert mine.per_step_rows == ref.per_step_rows
    assert (mine.iterations, mine.converged) == (ref.iterations, ref.converged)
