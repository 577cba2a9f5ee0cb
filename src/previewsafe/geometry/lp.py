"""Dense simplex kernel for the support-function queries behind every set test.

Every polyhedral predicate in this package reduces to a linear program

    maximize    c @ x
    subject to  A @ x <= b,        x in R^d free,

with few dimensions and potentially many rows.  The solver runs the primal
simplex method on the dual program

    minimize    b @ y
    subject to  A.T @ y = c,       y >= 0,

whose tableau has only ``d`` rows, so a pivot costs O(d * m) regardless of how
many halfspaces pile up during projections.  The optimal primal point is
recovered from the dual multipliers (the phase-two reduced costs of the
artificial columns).  The optimal ``y`` itself, read off the final basis,
is returned too: a nonnegative combination of the rows of ``A`` equal to
``c`` whose weighted offsets sum to the optimum, the certificate (Farkas)
that ``c @ x`` stays at most that value on the whole set.  Dantzig pricing
is used until the objective stalls, after which Bland's rule takes over,
which rules out cycling.

A redundancy LP maximizes row ``k``'s own function over rows that include a
relaxed copy of it, so ``y = e_k`` is a dual vertex.  With ``row=k`` the
solve starts there without phase 1 and keeps the artificials basic at zero
until an entering column reaches them (Bazaraa, Jarvis & Sherali, *Linear
Programming and Network Flows*).  Its keep/drop verdict is the cold solve's
except on rows parallel within the tolerance, where neither is fixed; its
point is a maximizer but not always a vertex.

The data must be finite: :func:`linprog_max` raises ``ValueError`` on a NaN
or infinite entry of ``c``, ``A`` or ``b``.  Rows with offset ``+inf`` (no
constraint) or ``-inf`` (empty set) are settled before any LP, as
:class:`~previewsafe.geometry.polytope.HPolytope` does at construction.

On tableaux of a few rows by ~100 columns numpy call overhead outweighs the
arithmetic, so a pivot makes few calls and allocates little: prices and
right-hand side are views into the tableau, and the ratio test writes into
buffers made once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import NumericalError

__all__ = ["EPS_LP", "LPStatus", "LPResult", "linprog_max", "chebyshev_center"]

EPS_LP = 1e-9

# pivots with no objective progress before switching to Bland's rule
_STALL_LIMIT = 100

# largest inflation radius chebyshev_center reports (a fat unbounded set)
_CHEBYSHEV_CAP = 1e6


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Outcome of one LP solve.

    ``point`` is a maximizer when the status is optimal and None otherwise;
    ``objective`` is meaningful only for optimal status.  ``dual`` holds, for
    an optimal status, the multipliers ``y >= 0`` over the rows of ``A``
    with ``A.T @ y = c`` and ``b @ y`` the objective (within the tolerance),
    and is None otherwise.
    """

    status: LPStatus
    objective: float
    point: np.ndarray | None
    dual: np.ndarray | None = None


class _DualOutcome(Enum):
    OPTIMAL = 0
    INFEASIBLE = 1
    UNBOUNDED = 2


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row]
    prow /= prow[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * prow
    # keep the pivot column numerically clean
    T[:, col] = 0.0
    prow[col] = 1.0


def _run_simplex(
    T: np.ndarray, basis: np.ndarray, cost_row: int, drive_out: bool = False
) -> _DualOutcome:
    """Minimize the cost in ``cost_row`` over the original columns in place.

    ``T`` is :func:`_solve_dual`'s tableau: one constraint row per entry of
    ``basis``, then the original columns, one artificial per constraint row
    and the right-hand side.  With ``drive_out``, artificials may be basic at
    zero: before the ratio test, one whose entry in the entering column
    exceeds ``EPS_LP`` in magnitude leaves by a degenerate pivot on the
    largest such entry, so that it stays at zero; these pivots do not count
    as stalls.
    Returns OPTIMAL or UNBOUNDED (for the standard-form problem being run).
    """
    nrows = basis.shape[0]
    ncols = T.shape[1] - nrows - 1
    bland = False
    stall = 0
    best = T[cost_row, -1]
    max_iter = 500 + 50 * (ncols + nrows)
    # views into T: every pivot updates T in place, so they stay current
    costs = T[cost_row, :ncols]
    last = T[:nrows, -1]
    rhs = np.empty(nrows)
    ratios = np.empty(nrows)
    ok = np.empty(nrows, dtype=bool)
    # 1.0 on the rows an artificial is basic in; only a degenerate pivot
    # below clears one, since the ratio test never reaches those rows then
    artificial = (basis >= ncols).astype(float) if drive_out else None
    for _ in range(max_iter):
        if bland:
            neg = (costs < -EPS_LP).nonzero()[0]
            if neg.size == 0:
                return _DualOutcome.OPTIMAL
            col = int(neg[0])
        else:
            col = int(costs.argmin())
            if costs[col] >= -EPS_LP:
                return _DualOutcome.OPTIMAL
        column = T[:nrows, col]
        if artificial is not None:
            np.abs(column, out=ratios)
            ratios *= artificial
            row = int(ratios.argmax())
            if ratios[row] > EPS_LP:
                _pivot(T, row, col)
                basis[row] = col
                artificial[row] = 0.0
                continue
        np.greater(column, EPS_LP, out=ok)
        np.maximum(last, 0.0, out=rhs)
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=ok)
        rmin = np.minimum.reduce(ratios)
        if rmin == np.inf and not ok.any():
            return _DualOutcome.UNBOUNDED
        ties = (ratios <= rmin + 1e-12).nonzero()[0]
        # smallest basis label on ties; deterministic and anti-cycling friendly
        row = int(ties[0]) if ties.size == 1 else int(ties[basis[ties].argmin()])
        _pivot(T, row, col)
        basis[row] = col
        if T[cost_row, -1] > best + 1e-12:
            best = T[cost_row, -1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
    raise NumericalError("simplex iteration cap exceeded")


def _solve_dual(M: np.ndarray, rhs: np.ndarray, g: np.ndarray, row=None):
    """Solve min g@y s.t. M@y = rhs, y >= 0 by the two-phase tableau method.

    ``row`` declares that column ``row`` of ``M`` equals ``rhs``: the solve
    then starts from ``y = e_row`` and skips phase 1, and its tableau has
    no phase-1 cost row.
    Returns ``(outcome, objective, multipliers, y)`` for an optimal outcome,
    where ``multipliers`` are the simplex multipliers of the equality rows
    (the primal maximizer of the original problem) and ``y`` is the optimal
    solution: the basic values at their columns, zero elsewhere (an
    artificial left basic at zero is not a column of ``M``).  Any other
    outcome comes with ``0.0, None, None``.
    """
    d, m = M.shape
    sign = np.where(rhs < 0.0, -1.0, 1.0)
    rhs = rhs * sign

    # columns: m originals | d artificials | rhs; rows: d constraints,
    # phase-2 cost and, for a cold start only, the phase-1 cost (a pivot
    # updates each row on its own, so the other rows' bits do not depend on
    # whether it is there)
    T = np.zeros((d + 1 + (row is None), m + d + 1))
    np.multiply(M, sign[:, None], out=T[:d, :m])
    T[:d, m : m + d] = np.eye(d)
    T[:d, -1] = rhs
    T[d, :m] = g
    basis = np.arange(m, m + d)

    if row is None:
        # phase-1 reduced costs after pricing out the artificial basis;
        # summed from the C-ordered tableau, so the order of the additions
        # does not depend on the memory layout of M
        T[d + 1, :m] = -T[:d, :m].sum(axis=0)
        T[d + 1, -1] = -rhs.sum()
        scale = 1.0 + float(np.abs(rhs).sum())
        outcome = _run_simplex(T, basis, d + 1)
        if outcome is not _DualOutcome.OPTIMAL or -T[d + 1, -1] > EPS_LP * scale:
            return _DualOutcome.INFEASIBLE, 0.0, None, None

        # drive leftover artificials (basic at zero) out of the basis when possible
        for i in range(d):
            if basis[i] >= m:
                nz = np.flatnonzero(np.abs(T[i, :m]) > 1e-9)
                if nz.size:
                    _pivot(T, i, int(nz[0]))
                    basis[i] = int(nz[0])
    else:
        # column `row` is the right-hand side bit for bit, so pivoting it in
        # zeroes every other row's right-hand side exactly; a zero column
        # (c = 0) leaves the all-artificial basis, already feasible at y = 0
        column = T[:d, row]
        if column.any():
            r = int(column.argmax())
            _pivot(T, r, row)
            basis[r] = row

    outcome = _run_simplex(T, basis, d, drive_out=row is not None)
    if outcome is _DualOutcome.UNBOUNDED:
        return _DualOutcome.UNBOUNDED, 0.0, None, None
    objective = -T[d, -1]
    # multipliers: reduced costs of the artificial columns, undone sign flips
    multipliers = -sign * T[d, m : m + d]
    # y over the m original columns and the d artificials; keep the originals
    y = np.zeros(m + d)
    y[basis] = T[:d, -1]
    return _DualOutcome.OPTIMAL, float(objective), multipliers, y[:m]


def linprog_max(c: np.ndarray, A: np.ndarray, b: np.ndarray, *, row=None) -> LPResult:
    """Maximize ``c @ x`` subject to ``A @ x <= b`` with ``x`` free, to the
    absolute tolerance ``EPS_LP``.

    ``row=k`` declares ``c`` to be exactly ``A[k]`` (a redundancy LP) and
    starts the solve from the dual vertex ``y = e_k``, without phase 1.
    An optimal result carries the dual solution ``y`` over the rows of ``A``
    as ``dual``; with ``row=k`` a drop verdict whose ``y[k]`` is zero names
    the other rows that imply row ``k``.

    Raises ``ValueError`` when ``c``, ``A`` or ``b`` has a NaN or infinite
    entry, or when ``row`` is given and is not a row index of ``A`` or
    ``A[row]`` differs from ``c`` in any bit: a wrong start would be an
    infeasible dual and a silent wrong bound.
    """
    c = np.asarray(c, dtype=float).ravel()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, d = A.shape
    if c.shape[0] != d or b.shape[0] != m:
        raise ValueError("inconsistent LP shapes")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    if row is not None:
        if not 0 <= row < m:
            raise ValueError(f"row {row} is not a row of a {m}-row LP")
        if c.tobytes() != A[row].tobytes():
            raise ValueError(f"c is not A[{row}] bit for bit")

    if m == 0:
        if np.all(np.abs(c) <= EPS_LP):
            return LPResult(LPStatus.OPTIMAL, 0.0, np.zeros(d), np.zeros(0))
        return LPResult(LPStatus.UNBOUNDED, np.inf, None)

    outcome, objective, point, y = _solve_dual(A.T, c, b, row)
    if outcome is _DualOutcome.OPTIMAL:
        return LPResult(LPStatus.OPTIMAL, objective, point, y)
    if outcome is _DualOutcome.UNBOUNDED:
        # dual unbounded below means the primal is infeasible
        return LPResult(LPStatus.INFEASIBLE, -np.inf, None)
    # dual infeasible: the primal is unbounded if feasible, empty otherwise
    probe = _solve_dual(A.T, np.zeros(d), b)[0]
    if probe is _DualOutcome.UNBOUNDED:
        return LPResult(LPStatus.INFEASIBLE, -np.inf, None)
    return LPResult(LPStatus.UNBOUNDED, np.inf, None)


def chebyshev_center(A: np.ndarray, b: np.ndarray):
    """Largest inflation radius and a witness point for ``A @ x <= b``.

    Solves max rho s.t. ``A x + rho * ||A_i|| <= b`` and ``rho <= cap`` with
    ``cap = _CHEBYSHEV_CAP``.  Returns ``(rho, x)``; ``rho < 0`` certifies
    infeasibility of the original system within tolerance, ``rho == cap``
    indicates a fat unbounded set.
    Returns ``(-inf, None)`` when even the inflated system is infeasible
    (possible only through trivially false rows such as ``0 <= -1``).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, d = A.shape
    if m == 0:
        return _CHEBYSHEV_CAP, np.zeros(d)
    norms = np.linalg.norm(A, axis=1)
    A_ext = np.hstack([A, norms[:, None]])
    cap_row = np.zeros((1, d + 1))
    cap_row[0, -1] = 1.0
    A_ext = np.vstack([A_ext, cap_row])
    b_ext = np.concatenate([b, [_CHEBYSHEV_CAP]])
    c = np.zeros(d + 1)
    c[-1] = 1.0
    res = linprog_max(c, A_ext, b_ext)
    if res.status is LPStatus.INFEASIBLE:
        return -np.inf, None
    if res.status is not LPStatus.OPTIMAL:
        raise NumericalError("chebyshev LP cannot be unbounded with a cap row")
    return float(res.objective), res.point[:d].copy()
