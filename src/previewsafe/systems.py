"""System models: base linear dynamics, preview augmentation, collaborative
re-typing of the disturbance, and shift-register (Brunovsky-style) builders.

A :class:`LinearSystem` is the tuple (A, B, E, D, S_xu) for

    x(t+1) = A x(t) + B u(t) + E d(t),      d(t) in D,

with the safe set S_xu constraining (x, u) jointly.  Unconstrained inputs are
represented by the absence of u-rows in S_xu, never by large bounds, so that
projections treat them as genuinely free variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigError,
    EmptySetError,
    ImageNotExactError,
    InvalidParametersError,
    RowBlowupError,
    UnboundedError,
)
from .geometry import HPolytope, Hyperbox, lift, project
from .geometry.polytope import _as_polytope, _lift_rows

DisturbanceSet = Union[Hyperbox, HPolytope]

__all__ = [
    "LinearSystem",
    "PreviewSystem",
    "BrunovskyProblem",
    "make_brunovsky",
    "augment",
    "collaborative",
    "evariant",
    "system_to_config",
    "system_from_config",
    "config_count",
]


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """(A, B, E, D, S_xu) with all dimensions validated at construction;
    a NaN or infinite entry of ``A``, ``B`` or ``E`` raises ``ValueError``."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    dist_set: DisturbanceSet
    safe: HPolytope

    def __post_init__(self) -> None:
        A = _frozen(np.atleast_2d(self.A))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        B = _frozen(np.asarray(self.B, dtype=float).reshape(n, -1))
        E = _frozen(np.asarray(self.E, dtype=float).reshape(n, -1))
        for name, M in (("A", A), ("B", B), ("E", E)):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, M)
        if self.dist_set.dim != E.shape[1]:
            raise ValueError("disturbance set dimension must match columns of E")
        if self.dist_set.is_empty:
            raise EmptySetError("the disturbance set must be nonempty")
        if self.safe.dim != n + B.shape[1]:
            raise ValueError("safe set must live in the (x, u) space")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def l(self) -> int:
        return self.E.shape[1]


@dataclass(frozen=True, eq=False)
class PreviewSystem:
    """A base system together with its p-step preview realization.

    The augmented state is ``(x, d_1, ..., d_p)``: the x-block follows the
    base dynamics driven by ``d_1``, each ``d_i`` block shifts down, and the
    fresh disturbance enters the ``d_p`` block.
    """

    base: LinearSystem
    p: int
    aug: LinearSystem


def augment(sys: LinearSystem, p: int) -> PreviewSystem:
    """Build the p-step preview realization of ``sys`` (p = 0 is the base)."""
    if p < 0:
        raise ValueError("preview time must be nonnegative")
    if p == 0 or sys.l == 0:
        return PreviewSystem(base=sys, p=p if sys.l else 0, aug=sys)
    n, m, l = sys.n, sys.m, sys.l
    dim = n + p * l

    A = np.zeros((dim, dim))
    A[:n, :n] = sys.A
    A[:n, n : n + l] = sys.E
    for i in range(p - 1):
        r = n + i * l
        A[r : r + l, r + l : r + 2 * l] = np.eye(l)
    B = np.zeros((dim, m))
    B[:n, :] = sys.B
    E = np.zeros((dim, l))
    E[n + (p - 1) * l :, :] = np.eye(l)

    # safe set over (x, d_1..d_p, u): S x D^p over (x, u, d_1..d_p), u moved last
    H, h = _lift_rows(sys.safe, sys.dist_set, p)
    safe = HPolytope(H[:, np.r_[:n, n + m : dim + m, n : n + m]], h)

    aug = LinearSystem(A=A, B=B, E=E, dist_set=sys.dist_set, safe=safe)
    return PreviewSystem(base=sys, p=p, aug=aug)


def collaborative(sys: LinearSystem) -> LinearSystem:
    """Re-type d as a control: inputs (u, u_d), safe set S_xu x D.

    The old disturbance set becomes the range of the second input block
    u_d; the remaining disturbance is the singleton {0}.
    """
    l = sys.l
    B = np.hstack([sys.B, sys.E])
    E = np.zeros((sys.n, l))
    dist = Hyperbox.from_bounds(np.zeros(l), np.zeros(l))
    safe = lift(sys.safe, sys.dist_set, 1)
    return LinearSystem(A=sys.A, B=B, E=E, dist_set=dist, safe=safe)


def make_brunovsky(n: int, dist: DisturbanceSet, box: Hyperbox) -> LinearSystem:
    """Shift-register pair: A is the upper shift, B = e_n, E = I.

    The state is confined to ``box`` and the input is unconstrained (no
    u-rows in the safe set).
    """
    if n < 1:
        raise ValueError("state dimension must be at least 1")
    if box.dim != n or dist.dim != n:
        raise ValueError("box and disturbance set must be n-dimensional")
    A = np.zeros((n, n))
    if n > 1:
        A[: n - 1, 1:] = np.eye(n - 1)
    B = np.zeros((n, 1))
    B[n - 1, 0] = 1.0
    E = np.eye(n)

    box_rows = HPolytope.from_box(box)
    safe = HPolytope(
        np.hstack([box_rows.H, np.zeros((box_rows.nrows, 1))]), box_rows.h
    )
    return LinearSystem(A=A, B=B, E=E, dist_set=dist, safe=safe)


@dataclass(frozen=True, eq=False)
class BrunovskyProblem:
    """Shift-register invariance problem: state box, disturbance set, preview.

    ``n`` (the box's dimension) and ``dist_box`` (the smallest box enclosing
    ``dist``, every face touched, which the closed form depends on) are
    derived on every construction, ``dataclasses.replace`` included.
    """

    box: Hyperbox
    dist: DisturbanceSet
    p: int
    ebar: Optional[np.ndarray] = None
    dist_v: Optional[DisturbanceSet] = None
    n: int = field(init=False)
    dist_box: Hyperbox = field(init=False)

    def __post_init__(self) -> None:
        n = self.box.dim
        if n < 1 or self.p < 0:
            raise InvalidParametersError("need n >= 1 and p >= 0")
        if self.dist.dim != n:
            raise InvalidParametersError("box and disturbance set must be n-dimensional")
        if self.dist.is_empty:
            raise EmptySetError("the disturbance set must be nonempty")
        if self.box.is_empty:
            raise EmptySetError("the state box must be nonempty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dist_box", self.dist.bounding_box())

    @classmethod
    def create(cls, n: int, box: Hyperbox, dist: DisturbanceSet, p: int) -> "BrunovskyProblem":
        if box.dim != n:
            raise InvalidParametersError("box and disturbance set must be n-dimensional")
        return cls(box=box, dist=dist, p=p)

    def system(self) -> LinearSystem:
        return make_brunovsky(self.n, self.dist, self.box)


def evariant(
    n: int,
    ebar: np.ndarray,
    dist_v: DisturbanceSet,
    box: Hyperbox,
    p: int,
) -> BrunovskyProblem:
    """Problem for dynamics driven through a disturbance matrix Ebar.

    Replaces the disturbance set by the exact image ``Ebar @ dist_v``,
    computed by projecting the graph polytope ``{(d, z) : z = Ebar d, d in
    dist_v}`` onto z.  Raises :class:`ImageNotExactError` when that exact
    projection is unavailable; the image is never silently overapproximated.
    """
    ebar = np.asarray(ebar, dtype=float)
    if ebar.ndim != 2 or ebar.shape[0] != n:
        raise InvalidParametersError("ebar must be an n x l matrix")
    l = ebar.shape[1]
    if dist_v.dim != l:
        raise InvalidParametersError("dist_v dimension must match columns of ebar")
    if dist_v.is_empty:
        raise EmptySetError("dist_v must be nonempty")

    if ebar.shape == (n, n) and np.array_equal(ebar, np.eye(n)):
        return BrunovskyProblem.create(n, box, dist_v, p)

    dpoly = _as_polytope(dist_v)
    # graph polytope over (d, z) with the equality z = Ebar d as row pairs
    rows_d = np.hstack([dpoly.H, np.zeros((dpoly.nrows, n))])
    eq_top = np.hstack([-ebar, np.eye(n)])
    eq_bot = np.hstack([ebar, -np.eye(n)])
    H = np.vstack([rows_d, eq_top, eq_bot])
    h = np.concatenate([dpoly.h, np.zeros(2 * n)])
    try:
        image = project(HPolytope(H, h), list(range(l, l + n)))
    except RowBlowupError as exc:
        raise ImageNotExactError(
            "graph-polytope projection of the disturbance image blew up"
        ) from exc
    if image.is_empty:
        raise EmptySetError("the disturbance image is empty")
    # soundness of the projection requires a bounded input set
    try:
        problem = BrunovskyProblem.create(n, box, image, p)
    except UnboundedError as exc:
        raise ImageNotExactError("the disturbance image is not a polytope") from exc
    return replace(problem, ebar=_frozen(ebar), dist_v=dist_v)


def _set_to_config(S) -> dict:
    if isinstance(S, Hyperbox):
        return {"type": "box", **S.to_json()}
    return {"type": "hpoly", **S.to_json()}


def _set_from_config(data: dict):
    kind = data.get("type")
    if kind == "box":
        return Hyperbox.from_json(data)
    if kind == "hpoly":
        return HPolytope.from_json(data)
    raise ConfigError(f"unknown set type {kind!r}")


def system_to_config(sys: LinearSystem, preview: int = 0) -> dict:
    """JSON-ready dict in the documented system-config schema."""
    return {
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "E": sys.E.tolist(),
        "disturbance": _set_to_config(sys.dist_set),
        "safe": _set_to_config(sys.safe),
        "preview": preview,
    }


def config_count(value, name: str) -> int:
    """A config's ``n`` or ``preview``: a nonnegative integer, and a bool is
    not one (:class:`ConfigError` otherwise)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def system_from_config(data: dict):
    """Parse the system-config schema; returns (LinearSystem, preview)."""
    try:
        A = np.asarray(data["A"], dtype=float)
        B = np.asarray(data["B"], dtype=float)
        E = np.asarray(data["E"], dtype=float)
        dist = _set_from_config(data["disturbance"])
        safe = _set_from_config(data["safe"])
        preview = config_count(data.get("preview", 0), "preview")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed system config: {exc}") from exc
    try:
        sys = LinearSystem(A=A, B=B, E=E, dist_set=dist, safe=_as_polytope(safe))
    except (ValueError, EmptySetError) as exc:
        raise ConfigError(f"inconsistent system config: {exc}") from exc
    return sys, preview
