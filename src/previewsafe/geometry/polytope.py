"""Halfspace-represented polytopes and the set operations built on them.

An :class:`HPolytope` is ``{z : H @ z <= h}`` with rows normalized to unit
Euclidean norm at construction, which makes the set-comparison tolerance
``EPS_SET`` meaningful across all queries.  Rows are normalized once: a row
whose norm is already 1 within ``_UNIT_TOL`` keeps its bits, so a set rebuilt
from its own rows keeps every bit.  Equalities are encoded as
inequality pairs, so degenerate (measure-zero) sets are first class.  An
empty set detected at construction collapses to the canonical marker row
``0 @ z <= -1``.

Projection is exact Fourier-Motzkin elimination with redundancy removal
interleaved after every eliminated variable, which is what keeps the
intermediate row counts under control.  Redundancy and containment are
certified by linear programs solved by :mod:`previewsafe.geometry.lp`; a
cheap geometric pre-check settles a row first when it proves what the LP
would answer.  Rays from a point interior by more than ``_RAY_MARGIN`` keep
every row they leave through alone; a row that is not axis-aligned and whose
support over the box of the kept axis-aligned rows is at most its offset is
dropped as redundant without an LP (the box never settles an axis-aligned
row, since after deduplication no other kept row bounds its coordinate from
its side); a shared row or a point of the inner set found along a ray settles
a containment row.  A row the rays and the box leave open gets its
redundancy LP, started from the row itself.  Support values are memoized per
set, and a projection's emptiness is decided by the Chebyshev test after its
elimination steps, so neither is solved twice.  A projection keeps the
interior point its last reduction shot rays from; the next projection can
take it in place of a Chebyshev LP, and containment shoots rays from it.
It also keeps the rays that kept rows there: each carried ray that kept a
row and, for each row a redundancy LP kept, the direction from the centre to
the LP's maximizer, which leaves the set through that row alone.
Consecutive iterates of a fixed-point run are nearly the same polytope, so
the next projection shoots these rays before any LP, and most rows that an
LP would only confirm are kept without one (Clarkson's output-sensitive
redundancy removal, FOCS 1994, shoots rays from an interior point the same
way).  For the rows it drops it keeps the certificates: the dual of each
LP that dropped a row, a nonnegative combination of other rows that
implies it (Farkas).  Consecutive iterates share most of their rows bit
for bit, so the next projection drops a row with the same bytes without an
LP when its certificate still holds on today's offsets, and most rows that
an LP would only drop again are dropped without one.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import EmptySetError, RowBlowupError, UnboundedError
from .interval import Hyperbox
from .lp import LPResult, LPStatus, chebyshev_center, linprog_max

__all__ = [
    "EPS_SET",
    "HPolytope",
    "lift",
    "pontryagin_diff",
    "project",
    "contains_set",
    "set_equal",
    "volume",
]

EPS_SET = 1e-6

# coefficients below this (on unit-norm rows) are treated as exact zeros
_ZERO_TOL = 1e-9
# a row of norm at most this is a zero row (dropped, or empty if offset < 0)
_ZERO_ROW_TOL = 1e-12
# a Chebyshev radius below minus this certifies an empty set
_EMPTY_RADIUS_TOL = 1e-9
# LP slack above which a relaxed facet is considered irredundant
_RED_TOL = 1e-9
# margin by which a ray from an interior point must cross a facet before the
# row counts as irredundant without an LP (well above _RED_TOL)
_RAY_MARGIN = 1e-7
# rows per block of the Gram products in the ray test (bounds its memory)
_GRAM_BLOCK = 64

# most rows a projection iterate may keep; read at call time
_ROW_CAP = 5000
# a row whose norm is this close to 1 counts as normalized and keeps its bits;
# after one division the norm is off by at most 4.4e-16 (measured, d 2-200)
_UNIT_TOL = 1e-15

_log = logging.getLogger("previewsafe.geometry")


def _row_norms(H: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``H``: ``np.linalg.norm(H, axis=1)``'s
    arithmetic without its Python wrapper, ``inf`` where the squares
    overflow."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(H * H, axis=1))


def _clean_rows(H: np.ndarray, h: np.ndarray, norms=None):
    """Normalize rows to unit norm; drop zero rows and rows with offset +inf.

    A row whose norm is within ``_UNIT_TOL`` of 1 is left as it is, so rows
    normalized once keep their bits however often a set is rebuilt from them;
    when every row is kept and of unit norm, ``H`` and ``h`` come back as
    they are, not copied.  A zero row with a negative offset certifies
    emptiness.  ``norms``, when given, is a writable copy of
    ``_row_norms(H)``.  A finite row whose squares overflow is first
    divided, with its offset, by its largest ``|entry|``, which keeps its
    halfspace; every other row keeps its bits.  Returns ``(H, h,
    empty_flag)``.
    """
    if norms is None:
        norms = _row_norms(H)
    huge = norms == np.inf
    if huge.any():
        # x / 1.0 is x, so the other rows come through bit for bit
        scale = np.where(huge, np.abs(H).max(axis=1), 1.0)
        H, h = H / scale[:, None], h / scale
        norms[huge] = np.sqrt(np.add.reduce(H[huge] * H[huge], axis=1))
    zero = norms <= _ZERO_ROW_TOL
    if np.any(h[zero] < -_ZERO_TOL):
        return None, None, True
    keep = ~zero & (h != np.inf)
    if not keep.all():
        H, h, norms = H[keep], h[keep], norms[keep]
    off = np.abs(norms - 1.0) > _UNIT_TOL
    if off.any():
        norms[~off] = 1.0
        H = H / norms[:, None]
        h = h / norms
    return H, h, False


class HPolytope:
    """Convex polyhedron ``{z in R^d : H @ z <= h}``.

    Immutable after construction; rows are unit-normalized and trivial rows
    are dropped.  ``HPolytope(np.zeros((0, d)), np.zeros(0))`` is the whole
    space.  ``H`` must be finite and ``h`` free of NaN (``ValueError``); an
    offset of ``+inf`` drops its row and one of ``-inf`` makes the set empty.
    """

    __slots__ = (
        "_H", "_h", "_dim", "_empty", "_inner_point", "_supports", "_ray_center", "_carry", "_table",
    )

    def __init__(self, H, h):
        # copies: _clean_rows may hand them back as they are
        H = np.array(H, dtype=float, ndmin=2)
        h = np.array(h, dtype=float).ravel()
        if H.shape[0] != h.shape[0]:
            raise ValueError("row count of H must match length of h")
        if H.shape[0] == 0 and H.shape[1] == 0:
            raise ValueError("ambient dimension must be positive")
        if not np.isfinite(H).all() or np.isnan(h).any():
            raise ValueError("H must be finite and h must not be NaN")
        self._dim = H.shape[1]
        cleaned = _clean_rows(H, h)
        if cleaned[2] or (h == -np.inf).any():
            self._H = np.zeros((1, self._dim))
            self._h = np.array([-1.0])
            self._empty = True
            self._inner_point = None
        else:
            self._H = cleaned[0]
            self._h = cleaned[1]
            self._empty = None
            self._inner_point = None
        self._supports: dict = {}
        self._ray_center = None  # an interior point kept by project
        self._carry = None  # (rays, certificates) of project's last reduction
        self._table = None  # _row_table, made on first use
        self._H.setflags(write=False)
        self._h.setflags(write=False)

    @classmethod
    def _of_unit_rows(cls, H: np.ndarray, h: np.ndarray, empty=None) -> "HPolytope":
        """The set of rows that are already finite and of unit norm, as
        ``_clean_rows`` leaves them, kept as they are: no copy, no scan of
        ``H`` and no renormalization.  ``h`` gets the constructor unless it is
        finite.  ``empty`` is the emptiness verdict when the caller knows it."""
        if not np.isfinite(h).all():
            return cls(H, h)
        P = cls.__new__(cls)
        P._H, P._h, P._dim, P._empty = H, h, H.shape[1], empty
        P._inner_point = P._ray_center = P._carry = P._table = None
        P._supports = {}
        H.setflags(write=False)
        h.setflags(write=False)
        return P

    @classmethod
    def empty(cls, dim: int) -> "HPolytope":
        return cls(np.zeros((1, dim)), np.array([-1.0]))

    @classmethod
    def from_box(cls, box: Hyperbox) -> "HPolytope":
        if box.is_empty:
            return cls.empty(box.dim)
        eye = np.eye(box.dim)
        return cls(np.vstack([eye, -eye]), np.concatenate([box.hi, -box.lo]))

    @classmethod
    def from_bounds(cls, lo, hi) -> "HPolytope":
        return cls.from_box(Hyperbox.from_bounds(lo, hi))

    @property
    def H(self) -> np.ndarray:
        return self._H

    @property
    def h(self) -> np.ndarray:
        return self._h

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def nrows(self) -> int:
        return self._H.shape[0]

    @property
    def is_empty(self) -> bool:
        if self._empty is None:
            rho, point = chebyshev_center(self._H, self._h)
            self._empty = rho < -_EMPTY_RADIUS_TOL
            self._inner_point = None if self._empty else point
        return self._empty

    def feasible_point(self) -> np.ndarray:
        """Some point of the set (the inflation-LP witness), solved for on
        first use when the verdict came without it."""
        if self.is_empty:
            raise EmptySetError("no feasible point in an empty polytope")
        if self._inner_point is None:
            self._inner_point = chebyshev_center(self._H, self._h)[1]
        return self._inner_point.copy()

    def contains(self, z, tol: float = 1e-7) -> bool:
        z = np.asarray(z, dtype=float).ravel()
        if z.shape[0] != self._dim:
            raise ValueError("point dimension mismatch")
        if self.nrows == 0:
            return True
        return bool(np.all(self._H.dot(z) <= self._h + tol))

    def support(self, direction) -> float:
        """sup over the set of ``direction @ z``.

        Raises :class:`EmptySetError` on an empty set and
        :class:`UnboundedError` when the set is unbounded in ``direction``.
        Finite values are memoized per set, keyed on the direction's bytes:
        the set is immutable and the same LP input gives the same bits.
        """
        direction = np.asarray(direction, dtype=float).ravel()
        if direction.shape[0] != self._dim:
            raise ValueError("direction dimension mismatch")
        key = direction.tobytes()
        value = self._supports.get(key)
        if value is None:
            res = linprog_max(direction, self._H, self._h)
            if res.status is LPStatus.INFEASIBLE:
                raise EmptySetError("support of an empty set")
            if res.status is LPStatus.UNBOUNDED:
                raise UnboundedError("set is unbounded in the requested direction")
            value = self._supports[key] = float(res.objective)
        return value

    def maximize(self, direction) -> LPResult:
        """Raw LP access: maximize ``direction @ z`` over the set."""
        direction = np.asarray(direction, dtype=float).ravel()
        return linprog_max(direction, self._H, self._h)

    def bounding_box(self) -> Hyperbox:
        """Smallest enclosing hyperbox, via 2*dim support calls; the empty
        box for an empty set."""
        if self.is_empty:
            return Hyperbox.empty(self._dim)
        eye = np.eye(self._dim)
        hi = [self.support(e) for e in eye]
        return Hyperbox([-self.support(-e) for e in eye], hi)

    def to_json(self) -> dict:
        return {"H": self._H.tolist(), "h": self._h.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "HPolytope":
        return cls(np.asarray(data["H"], dtype=float), np.asarray(data["h"], dtype=float))

    def __repr__(self) -> str:
        return f"HPolytope(dim={self._dim}, rows={self.nrows})"


def _as_polytope(S) -> HPolytope:
    if isinstance(S, Hyperbox):
        return HPolytope.from_box(S)
    return S


def _lift_rows(C: HPolytope, D, extra: int):
    """Rows ``(H, h)`` of :func:`lift`'s ``C x D^extra``, not yet a polytope,
    so a caller that permutes its columns or adds rows builds one set."""
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    if extra == 0 or D.dim == 0:
        return C.H, C.h
    D = _as_polytope(D)
    (m, n), (k, d) = C.H.shape, D.H.shape
    H = np.zeros((m + extra * k, n + extra * d))
    H[:m, :n] = C.H
    for i in range(extra):
        H[m + i * k : m + (i + 1) * k, n + i * d : n + (i + 1) * d] = D.H
    return H, np.concatenate([C.h, np.tile(D.h, extra)])


def lift(C: HPolytope, D, extra: int) -> HPolytope:
    """Cartesian product ``C x D^extra`` in H-form: one block-diagonal stack,
    ``C``'s rows first and then one block of ``D``'s rows per factor.  ``D``
    may be an HPolytope or a Hyperbox; a zero-dimensional ``D`` (no
    disturbance channel) leaves ``C``."""
    H, h = _lift_rows(C, D, extra)
    return C if H is C.H else HPolytope(H, h)


def pontryagin_diff(X: HPolytope, S, M: np.ndarray) -> HPolytope:
    """Erode ``X`` by the linear image ``M S``.

    Returns ``{z : H_i z <= h_i - sup_{s in S} (H_i M) s}``; the result may be
    empty, which is a valid polytope rather than an error.  ``S`` must be
    nonempty, so a row whose direction ``H_i M`` is zero keeps its offset
    without a support call.  A Hyperbox ``S`` takes every row's support in
    one array expression, the bits of :meth:`Hyperbox.support`.  The result
    keeps ``X``'s rows, which are of unit norm already.
    """
    M = np.asarray(M, dtype=float)
    if S.is_empty:
        raise EmptySetError("erosion by an empty set")
    if M.shape != (X.dim, S.dim):
        raise ValueError("map shape must be (dim X, dim S)")
    if X.is_empty:
        return HPolytope.empty(X.dim)
    if X.nrows == 0:
        return X
    dirs = X.H.dot(M)
    if isinstance(S, Hyperbox):
        # every row's Hyperbox.support at once; a zero direction sums to 0.0
        offsets = np.sum(dirs * np.where(dirs > 0, S.hi, np.where(dirs < 0, S.lo, 0.0)), axis=1)
        if (offsets == np.inf).any():
            return HPolytope.empty(X.dim)
    else:
        offsets = np.zeros(X.nrows)
        for i in range(X.nrows):
            if not dirs[i].any():
                continue
            try:
                offsets[i] = S.support(dirs[i])
            except UnboundedError:
                return HPolytope.empty(X.dim)
    return HPolytope._of_unit_rows(X.H, X.h - offsets)


def _preimage(X: HPolytope, S, M: np.ndarray, G: np.ndarray, extra: HPolytope) -> HPolytope:
    """The points ``v`` of ``extra`` whose image lies in the erosion of ``X``
    by ``M S``: ``G`` holds one row ``G_i = H_i F`` per row ``H_i z <= h_i``
    of the nonempty ``X``, for the map ``F``, and the result has the rows of
    ``HPolytope(vstack([G, extra.H]), concatenate([e, extra.h]))``, where
    ``e`` is :func:`pontryagin_diff`'s ``h_i - sup_S (H_i M) s``.  When
    zero rows are dropped, ``e`` comes from the product of fewer rows of
    ``X`` with ``M``, which has the same bits when that product is exact, as
    with the 0/1 embedding ``E`` of a preview realization.

    A row whose ``G_i`` is a zero row (norm at most ``_ZERO_ROW_TOL``, as
    ``_clean_rows`` finds them) reads ``0 <= e_i``: a yes/no check that ``M
    S`` fits, after which the row is dropped.  Such a row needs no support
    LP when ``H_i M`` is zero (then ``e_i = h_i``) or when ``S`` is an
    HPolytope with a row of the same bytes whose offset is at most ``h_i``,
    since a set's support along its own row is at most that row's offset.
    Only the other rows are eroded, in one :func:`pontryagin_diff` call.
    Returns the empty set when some zero row fails its check.
    """
    if not np.isfinite(G).all():
        raise ValueError("H must be finite and h must not be NaN")
    norms = _row_norms(G)
    zero = norms <= _ZERO_ROW_TOL
    erode = ~zero
    if zero.any():
        dirs, h = X.H[zero].dot(M), X.h[zero]
        flat = ~dirs.any(axis=1)
        if (h[flat] < -_ZERO_TOL).any():
            return HPolytope.empty(G.shape[1])
        table = _row_table(S) if isinstance(S, HPolytope) else {}
        fits = [table.get(key, (np.inf,))[0] <= offset for key, offset in zip(_row_keys(dirs), h.tolist())]
        erode[zero] = ~(flat | fits)
    # a superset of the nonempty X, so asking its emptiness would waste an LP
    rows = X if erode.all() else HPolytope._of_unit_rows(X.H[erode], X.h[erode], empty=False)
    eroded = pontryagin_diff(rows, S, M)
    if eroded._empty:
        return HPolytope.empty(G.shape[1])
    live = erode & ~zero
    h = eroded.h
    if not live.all():
        if (h[zero[erode]] < -_ZERO_TOL).any():
            return HPolytope.empty(G.shape[1])
        h = h[live[erode]]
    H, h, _ = _clean_rows(G[live], h, norms[live])
    return HPolytope._of_unit_rows(np.vstack([H, extra.H]), np.concatenate([h, extra.h]))


def _row_table(P: HPolytope) -> dict:
    """``P``'s row bytes (:func:`_row_keys`) mapped to ``(least offset, its
    row)`` over the rows with those bytes, the first such row on a tie;
    made once per set."""
    if P._table is None:
        table: dict = {}
        for i, (key, offset) in enumerate(zip(_row_keys(P.H), P.h.tolist())):
            if offset < table.get(key, (np.inf,))[0]:
                table[key] = (offset, i)
        P._table = table
    return P._table


def _dedupe(H: np.ndarray, h: np.ndarray):
    """Drop exact-duplicate rows and dominated rows with equal normals.

    Rows match when their byte keys (:func:`_row_keys`, which fold ``-0.0``
    into ``0.0``) agree after rounding to 10 decimals; the smallest offset
    wins.
    """
    if H.shape[0] <= 1:
        return H, h
    offsets = h.tolist()
    best: dict = {}
    for i, key in enumerate(_row_keys(np.round(H, 10))):
        j = best.get(key)
        if j is None or offsets[i] < offsets[j]:
            best[key] = i
    idx = list(best.values())
    return H[idx], h[idx]


def _row_keys(H: np.ndarray) -> list:
    """The bytes of each row of ``H``, read as one raw item per row of a
    C-ordered copy; ``+ 0.0`` folds ``-0.0`` into ``0.0`` so that the keys
    compare as the values do."""
    keys = np.add(H, 0.0, order="C")
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()


def _first_hits(H: np.ndarray, s: np.ndarray, R: np.ndarray):
    """Where the rays ``center + t R_k`` leave ``{z : H @ z <= h}``, given
    the slacks ``s = h - H @ center``; a ray meets row ``j`` at
    ``t_j = s_j / (H_j @ R_k)`` when ``H_j @ R_k > 0``.  Returns per ray the
    rows it meets first and second, the first time ``t1`` (``inf`` if none)
    and the gap ``(H_j1 @ R_k)(t2 - t1)`` (``inf`` past a lone row, NaN when
    no row is met), ``_GRAM_BLOCK`` rays at a time."""
    k = R.shape[0]
    first, second = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    t1, gap = np.zeros(k), np.zeros(k)
    for start in range(0, k, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, k)
        G = R[start:stop].dot(H.T)
        T = np.full(G.shape, np.inf)
        rows = np.arange(stop - start)
        # a tiny rate meets its row at inf; no row met gives a NaN gap
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(s, G, out=T, where=G > 0.0)
            j = first[start:stop] = T.argmin(axis=1)
            t1[start:stop] = T[rows, j]
            T[rows, j] = np.inf
            second[start:stop] = T.argmin(axis=1)
            gap[start:stop] = G[rows, j] * (T[rows, second[start:stop]] - t1[start:stop])
    return first, second, t1, gap


def _ray_certified(H: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows proven irredundant by rays from an interior point.

    ``s`` holds the slacks ``h - H @ center`` of a point interior by more
    than ``_RAY_MARGIN``.  A ray ``r`` that leaves through row ``j1`` at
    ``t1`` and meets no other row before ``t2`` violates row ``j1`` alone by
    up to ``(H_j1 @ r)(t2 - t1)``; when that exceeds ``_RAY_MARGIN`` the
    redundancy LP for row ``j1`` would keep it, whichever row's ray it was.
    Every row's normal is shot first; each row left open is shot once more
    along its normal deflected off ``b``, the first other row its normal
    meets (``H_i - (H_b @ H_i) H_b``, normalized, skipped when that norm is at
    most 1e-9), so the second ray runs parallel to the row that blocked the
    first.
    """
    certified = np.zeros(H.shape[0], dtype=bool)
    first, second, _, gap = _first_hits(H, s, H)
    certified[first[gap > _RAY_MARGIN]] = True
    rows = np.flatnonzero(~certified)
    b = np.where(first[rows] == rows, second[rows], first[rows])
    R = H[rows] - np.einsum("ij,ij->i", H[b], H[rows])[:, None] * H[b]
    norms = np.linalg.norm(R, axis=1)
    first, _, _, gap = _first_hits(H, s, R[norms > 1e-9] / norms[norms > 1e-9, None])
    certified[first[gap > _RAY_MARGIN]] = True
    return certified


def _box_implied(H: np.ndarray, h: np.ndarray, ub: np.ndarray, i: int) -> bool:
    """True when the box of the kept axis-aligned rows proves row ``i``
    redundant.

    ``ub[k]`` bounds ``x_k`` and ``ub[d + k]`` bounds ``-x_k`` (``+inf`` when
    no kept axis row does).  Row ``i`` is redundant when its support over the
    box, ``sum_k |a_k| ub[slot_k]`` over the nonzero ``a_k``, is at most
    ``h_i``: the redundancy LP sees those rows too, so its optimum is no
    larger and it would drop the row.  A needed infinite end gives no
    certificate, and summing the nonzero ``a_k`` only never forms ``0 * inf``.
    """
    nz = np.flatnonzero(H[i])
    coef = H[i, nz]
    slots = nz + H.shape[1] * (coef < 0.0)
    return bool(np.abs(coef).dot(ub[slots]) <= h[i])


def _reduce_arrays(H: np.ndarray, h: np.ndarray, center: np.ndarray, carry=None):
    """LP-certified irredundant subsystem of an H-system.

    Rows have unit norm, as ``HPolytope`` and ``_clean_rows`` leave them
    (the ray test and the box measure distances along them).
    ``center`` is a point of the set (a Chebyshev centre).  When it is
    interior by ``_RAY_MARGIN``, rows that a ray from it proves irredundant
    are kept and rows that are not axis-aligned and that the box of the kept
    axis-aligned rows proves redundant are dropped, both without an LP;
    every other row gets the LP against the rows still kept, started
    from its own row (``linprog_max(..., row=pos)``, no phase 1; its
    keep/drop verdict is the cold solve's except on rows parallel within the
    LP tolerance, where neither is fixed).

    ``carry`` is ``(rays, drops)`` from earlier reductions in the same
    coordinates.  ``rays``, unit directions, are shot from the same interior
    centre after the normal and deflected rays; one that leaves through a
    row those left open, with a gap above ``_RAY_MARGIN``, keeps that row as
    they do, so any directions give the same rows.  ``drops`` maps a row's
    bytes (:func:`_row_keys`) to the certificate that dropped it: the byte
    keys of other rows and multipliers ``y``, the LP's dual.  Before the LP
    for row ``i``, with an interior centre, a certificate under row ``i``'s
    bytes drops it when every row it names is present, is not row ``i`` and
    is still kept, every ``y_j >= 0`` and ``sum y_j h_j <= h_i + _RED_TOL``
    on today's offsets: the rows are the same bits, so ``y`` is still a dual
    solution of row ``i``'s LP, which by weak duality reaches at most that
    sum and would drop the row too.  (The centre proves the kept rows
    feasible, so that LP could not have found them infeasible.)

    Returns ``(H, h, carry_out)``: the kept rows and, when ``carry`` is
    given, what to carry on (else None).  Its rays, when the centre is
    interior: each carried ray that settled a row, one per row, and one
    witness per row an LP kept, the unit direction from the centre to the
    LP's maximizer (skipped when that distance is at most 1e-9); the
    maximizer meets every other row kept, so its ray leaves through the row
    the LP kept.  Its drops: each carried certificate that dropped a row
    again and the dual of each LP that dropped one, unless that dual uses
    the row's own relaxed copy.  Returns ``None`` when an LP certifies exact
    infeasibility (which can happen for sets the tolerance-based emptiness
    test calls nonempty, and never with an interior centre).
    Logs one DEBUG record per call with the rows each check settled.
    """
    rows_in = H.shape[0]
    H, h = _dedupe(H, h)
    m, d = H.shape
    rays, certificates = np.empty((0, d)), {}
    if m <= 1:
        # a lone row is irredundant: no other row blocks its ray
        _log_reduction(rows_in, m, m, 0, 0, 0, 0, m)
        return H, h, None if carry is None else (rays, certificates)
    s = h - H.dot(center)
    interior = s.min() > _RAY_MARGIN
    collect = interior and carry is not None
    # slot[i] is the box bound that axis row i sets (-1 for other rows): slot
    # k bounds x_k, slot d + k bounds -x_k.  _dedupe leaves at most one unit
    # row per slot, so no other row bounds an axis row's slot and the box
    # never settles one; on rows at other scales the box only gets weaker
    slot = np.full(m, -1)
    ub = np.full(2 * d, np.inf)
    if interior:
        certified = _ray_certified(H, s)
        if collect and len(carry[0]) and not certified.all():
            first, _, _, gap = _first_hits(H, s, carry[0])
            hits = np.flatnonzero((gap > _RAY_MARGIN) & ~certified[first])
            settled, pick = np.unique(first[hits], return_index=True)
            certified[settled] = True
            rays = carry[0][hits[pick]]
        axis = np.flatnonzero(np.count_nonzero(H, axis=1) == 1)
        col = np.argmax(H[axis] != 0.0, axis=1)
        coef = H[axis, col]
        slot[axis] = col + d * (coef < 0.0)
        ub[slot[axis]] = h[axis] / np.abs(coef)
    else:
        certified = np.zeros(m, dtype=bool)
    drops = carry[1] if collect else {}
    keep = np.ones(m, dtype=bool)
    boxed = by_certificate = lps = 0
    keys = index = None  # row bytes and their rows, made on first use
    maximizers = []  # of the LPs that kept their row
    for i in range(m):
        if certified[i]:
            continue
        if interior and slot[i] < 0 and _box_implied(H, h, ub, i):
            keep[i] = False
            boxed += 1
            continue
        if drops and index is None:
            keys = _row_keys(H)
            index = dict(zip(keys, range(m)))
        certificate = drops.get(keys[i]) if drops else None
        if certificate is not None:
            # a row missing today stands in as row i, which fails the test
            rows = [index.get(key, i) for key in certificate[0]]
            if i not in rows and keep[rows].all() and (certificate[1] >= 0.0).all() \
                    and certificate[1].dot(h[rows]) <= h[i] + _RED_TOL:
                keep[i] = False
                if slot[i] >= 0:
                    ub[slot[i]] = np.inf
                certificates[keys[i]] = certificate
                by_certificate += 1
                continue
        idx = np.flatnonzero(keep)
        b_test = h[idx].copy()
        pos = int(np.flatnonzero(idx == i)[0])
        b_test[pos] += 1.0
        res = linprog_max(H[i], H[idx], b_test, row=pos)
        lps += 1
        if res.status is LPStatus.OPTIMAL and res.objective <= h[i] + _RED_TOL:
            keep[i] = False
            if slot[i] >= 0:
                ub[slot[i]] = np.inf
            if carry is not None and res.dual is not None and res.dual[pos] <= 0.0:
                if keys is None:
                    keys = _row_keys(H)
                used = np.flatnonzero(res.dual > 0.0)
                certificates[keys[i]] = ([keys[j] for j in idx[used]], res.dual[used])
        elif res.status is LPStatus.INFEASIBLE:
            _log_reduction(rows_in, m, certified, len(rays), boxed, by_certificate, lps, 0)
            return None
        elif collect and res.status is LPStatus.OPTIMAL:
            maximizers.append(res.point)
    _log_reduction(rows_in, m, certified, len(rays), boxed, by_certificate, lps, int(keep.sum()))
    if maximizers:
        R = np.array(maximizers) - center
        norms = np.linalg.norm(R, axis=1)
        rays = np.vstack([rays, R[norms > 1e-9] / norms[norms > 1e-9, None]])
    return H[keep], h[keep], None if carry is None else (rays, certificates)


def _log_reduction(rows_in, deduped, certified, carried, boxed, by_certificate, lps, rows_out) -> None:
    """One DEBUG record per reduction: the rows each check settled
    (``certified`` is the ray test's mask, or a count; ``carried`` of those
    rows were settled by carried rays; ``by_certificate`` rows were dropped
    by carried certificates)."""
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "reduce: %d rows in, %d after dedupe; settled by ray %d (%d carried), box %d, "
            "certificate %d, LP %d; %d rows out",
            rows_in, deduped, int(np.sum(certified)), carried, boxed, by_certificate, lps, rows_out,
        )


def _fm_eliminate(H: np.ndarray, h: np.ndarray, col: int):
    """One Fourier-Motzkin step: eliminate column ``col``."""
    a = H[:, col]
    pos = a > _ZERO_TOL
    neg = a < -_ZERO_TOL
    zero = ~(pos | neg)
    rest = np.delete(H, col, axis=1)
    blocks = [rest[zero]]
    rhs = [h[zero]]
    if np.any(pos) and np.any(neg):
        Hp = rest[pos] / a[pos, None]
        hp = h[pos] / a[pos]
        Hn = rest[neg] / a[neg, None]
        hn = h[neg] / a[neg]
        combo = (Hp[:, None, :] - Hn[None, :, :]).reshape(-1, rest.shape[1])
        blocks.append(combo)
        rhs.append((hp[:, None] - hn[None, :]).ravel())
    return np.vstack(blocks), np.concatenate(rhs)


def project(P: HPolytope, keep, prior=None) -> HPolytope:
    """Exact shadow of ``P`` onto the coordinates in ``keep``.

    Fourier-Motzkin elimination of the dropped coordinates (cheapest-fill
    first) with interleaved redundancy removal; raises
    :class:`RowBlowupError` if an intermediate iterate exceeds ``_ROW_CAP``
    rows after reduction.  FM keeps emptiness, so when a coordinate is
    eliminated the Chebyshev test after each step decides it and ``P`` gets
    no emptiness LP of its own.  ``prior``, a set in the ``keep`` coordinates
    (the previous iterate of a fixed-point run), lends the step that leaves
    only those coordinates its kept interior point and its rays.  When that
    point has more than ``_RAY_MARGIN`` of slack on every row, it proves the
    step nonempty and the reduction shoots its rays from it, and that step
    solves no Chebyshev LP; the reduction shoots the prior's rays and checks
    the prior's drop certificates too.  The result is marked nonempty; its
    feasible point is solved for on first use.  The result keeps the centre
    of its last reduction as ``_ray_center`` when that centre is interior by
    more than ``_RAY_MARGIN`` to the result's rows (else ``None``), and, as
    ``_carry``, what that reduction returned to carry on: the rays (the
    carried rays that settled a row and its new LP witnesses, at most one
    per row and one per LP) and the drop certificates (the carried ones
    that dropped a row again and those of its LPs that dropped one, at most
    one per dropped row).
    """
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("keep indices must be unique")
    if any(k < 0 or k >= P.dim for k in keep):
        raise ValueError("keep indices out of range")
    nkeep = len(keep)
    if nkeep == 0:
        raise ValueError("cannot project onto zero coordinates")
    drop = [j for j in range(P.dim) if j not in keep]
    if P._empty or (not drop and P.is_empty):
        return HPolytope.empty(nkeep)
    center = None if prior is None else prior._ray_center
    carry = (np.empty((0, nkeep)), {}) if prior is None or prior._carry is None else prior._carry
    order = keep + drop
    # nothing below writes into H or h, so P's own rows serve when in order
    H = P.H if order == list(range(P.dim)) else P.H[:, order]
    h = P.h
    point = carried = None
    if not drop and H.shape[0]:
        point = P.feasible_point()[keep]
        reduced = _reduce_arrays(H, h, point, carry)
        if reduced is None:
            return HPolytope.empty(nkeep)
        H, h, carried = reduced
    while H.shape[1] > nkeep:
        # cheapest-fill heuristic over the remaining eliminable columns
        best_col, best_cost = None, None
        for col in range(nkeep, H.shape[1]):
            a = H[:, col]
            npos = int(np.sum(a > _ZERO_TOL))
            nneg = int(np.sum(a < -_ZERO_TOL))
            cost = npos * nneg - (npos + nneg)
            if best_cost is None or cost < best_cost:
                best_col, best_cost = col, cost
        H, h = _fm_eliminate(H, h, best_col)
        cleaned = _clean_rows(H, h)
        if cleaned[2]:
            return HPolytope.empty(nkeep)
        H, h = cleaned[0], cleaned[1]
        point = carried = None
        if H.shape[0]:
            last = H.shape[1] == nkeep
            if last and center is not None and (h - H.dot(center)).min() > _RAY_MARGIN:
                point = center
            else:
                rho, point = chebyshev_center(H, h)
                if rho < -_EMPTY_RADIUS_TOL:
                    return HPolytope.empty(nkeep)
            reduced = _reduce_arrays(H, h, point, carry if last else None)
            if reduced is None:
                return HPolytope.empty(nkeep)
            H, h, carried = reduced
        if H.shape[0] > _ROW_CAP:
            raise RowBlowupError(
                f"projection iterate has {H.shape[0]} rows (cap {_ROW_CAP})"
            )
    # the rows passed an emptiness test, and reduction keeps the set; they
    # are P's rows or _clean_rows' output, finite and of unit norm
    R = HPolytope._of_unit_rows(H, h)
    if R._empty is None:
        R._empty, R._carry = False, carried
        if point is not None and R.nrows and (R.h - R.H.dot(point)).min() > _RAY_MARGIN:
            R._ray_center = point
    return R


def contains_set(outer, inner, tol: float = EPS_SET) -> bool:
    """True iff ``inner`` is contained in ``outer`` within tolerance.

    One support LP per facet of ``outer`` over ``inner``; an empty inner set
    is contained in everything.  A facet ``a @ z <= b`` of ``outer`` needs no
    LP when ``inner`` has the identical row ``a`` with an offset at most
    ``b + tol``, since that offset bounds the support of ``inner`` along
    ``a``.  When ``inner`` keeps an interior point ``c`` (``_ray_center``),
    the ray ``c + t a`` stays in ``inner`` up to its first row, at ``t1``, so
    ``a @ c + t1`` bounds that support from below: a facet where it exceeds
    ``b + tol + _RAY_MARGIN`` makes the answer ``False`` before any LP.
    """
    outer = _as_polytope(outer)
    inner = _as_polytope(inner)
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch in containment test")
    if inner.is_empty:
        return True
    # rows of outer with the same bytes need only the least offset checked
    shared = _row_table(inner)
    rows = [
        i for key, (offset, i) in _row_table(outer).items()
        if not shared.get(key, (np.inf,))[0] <= offset + tol
    ]
    c = inner._ray_center
    if c is not None and rows:
        A = outer.H[rows]
        t1 = _first_hits(inner.H, inner.h - inner.H.dot(c), A)[2]
        if np.any(A.dot(c) + t1 > outer.h[rows] + tol + _RAY_MARGIN):
            return False
    for i in rows:
        try:
            s = inner.support(outer.H[i])
        except UnboundedError:
            return False
        if s > outer.h[i] + tol:
            return False
    return True


def set_equal(A, B, tol: float = EPS_SET) -> bool:
    """Mutual containment within tolerance."""
    return contains_set(A, B, tol) and contains_set(B, A, tol)


def volume(P, seed: int = 0, samples: int = 100_000) -> float:
    """Volume of a box (exact) or polytope (hit-or-miss Monte Carlo).

    The Monte Carlo estimate samples uniformly inside the bounding box and is
    deterministic for a given ``seed``.  Unbounded sets raise
    :class:`UnboundedError`, and ``samples < 1`` raises ``ValueError``.
    """
    if samples < 1:
        raise ValueError("volume needs at least one sample")
    if isinstance(P, Hyperbox):
        return P.volume()
    if P.is_empty:
        return 0.0
    box = P.bounding_box()  # raises UnboundedError when appropriate
    box_vol = box.volume()
    if box_vol == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        batch = min(65536, samples - done)
        pts = box.sample(rng, batch)
        inside = np.all(pts @ P.H.T <= P.h + 0.0, axis=1)
        hits += int(np.count_nonzero(inside))
        done += batch
    return box_vol * hits / samples
