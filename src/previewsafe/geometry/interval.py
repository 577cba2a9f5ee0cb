"""Axis-aligned hyperbox type, its vertices and barycentric weights.

A hyperbox holds its endpoints as two read-only float arrays.  A scalar
interval (a safe-input interval, a closed-form bound, the supervisor's
admissible input) is not a type: it is carried as its two float endpoints
``lo, hi``, empty iff ``lo > hi`` (the supervisor writes NaN for none).
Bounds built from sums of endpoints are plain float sums, where an empty sum
is ``0``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import (
    DimensionTooLargeError,
    EmptySetError,
    PointOutsideBoxError,
    UnboundedError,
)

__all__ = [
    "Hyperbox",
    "box_vertices",
    "convex_weights",
]

# Largest dimension whose 2^dim box vertices are enumerated.
_VERTEX_CAP = 20


@dataclass(frozen=True, eq=False)
class Hyperbox:
    """Axis-aligned box ``prod_k [lo_k, hi_k]`` held as two read-only arrays.

    Endpoints may be infinite.  The empty box has every endpoint NaN
    (:meth:`empty`); a NaN pair in any coordinate makes the whole box that
    one empty form.  Shares ``dim``, ``is_empty``, ``support``, ``contains``
    and ``bounding_box`` with ``HPolytope``, so set operations take either.

    A zero-dimensional box is nonempty by convention (it is the neutral
    element of the Cartesian product).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = (np.array(a, dtype=float).ravel() for a in (self.lo, self.hi))
        if lo.shape != hi.shape:
            raise ValueError("lo/hi length mismatch")
        if (np.isnan(lo) != np.isnan(hi)).any() or (lo > hi).any():
            raise ValueError(f"invalid box endpoints {lo.tolist()}, {hi.tolist()}")
        if np.isnan(lo).any():
            lo, hi = np.full(lo.shape, math.nan), np.full(lo.shape, math.nan)
        for name, ends in (("lo", lo), ("hi", hi)):
            ends.setflags(write=False)
            object.__setattr__(self, name, ends)

    @classmethod
    def from_bounds(cls, lo: Sequence[float], hi: Sequence[float]) -> "Hyperbox":
        return cls(lo, hi)

    @classmethod
    def cube(cls, dim: int, halfwidth: float) -> "Hyperbox":
        return cls(np.full(dim, -halfwidth), np.full(dim, halfwidth))

    @classmethod
    def empty(cls, dim: int) -> "Hyperbox":
        """The empty box of dimension ``dim >= 1``."""
        if dim < 1:
            raise ValueError("a zero-dimensional box is never empty")
        return cls(np.full(dim, math.nan), np.full(dim, math.nan))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.dim > 0 and math.isnan(self.lo[0])

    def contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        if self.is_empty:
            return False
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise ValueError("point dimension mismatch")
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def support(self, direction: Sequence[float]) -> float:
        """sup over the box of ``direction @ x``; analytic, no LP.

        Coordinates where ``direction`` is zero contribute nothing, even when
        unbounded; raises :class:`UnboundedError` when the box is unbounded
        in ``direction``.
        """
        if self.is_empty:
            raise EmptySetError("support of an empty hyperbox")
        d = np.asarray(direction, dtype=float).ravel()
        if d.shape[0] != self.dim:
            raise ValueError("direction dimension mismatch")
        total = float(np.sum(d * np.where(d > 0, self.hi, np.where(d < 0, self.lo, 0.0))))
        if total == math.inf:
            raise UnboundedError("hyperbox is unbounded in the requested direction")
        return total

    def bounding_box(self) -> "Hyperbox":
        return self

    def volume(self) -> float:
        """Exact product of the widths (1.0 for the zero-dim box); raises
        :class:`UnboundedError` for an infinite endpoint."""
        if self.is_empty:
            return 0.0
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise UnboundedError("volume of an unbounded hyperbox")
        return float(np.prod(self.hi - self.lo))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.is_empty:
            raise EmptySetError("cannot sample an empty hyperbox")
        u = rng.random((count, self.dim))
        return self.lo + u * (self.hi - self.lo)

    def to_json(self) -> dict:
        if self.is_empty:
            return {"empty": True, "dim": self.dim}
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "Hyperbox":
        if data.get("empty"):
            dim = data.get("dim", 1)
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                raise ValueError(f"an empty box's dim must be a positive integer, got {dim!r}")
            return cls.empty(dim)
        return cls(data["lo"], data["hi"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hyperbox):
            return NotImplemented
        same_lo = np.array_equal(self.lo, other.lo, equal_nan=True)
        return same_lo and np.array_equal(self.hi, other.hi, equal_nan=True)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0; the empty box has one NaN bit pattern
        return hash((self.lo + 0.0).tobytes() + (self.hi + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"Hyperbox(lo={self.lo.tolist()!r}, hi={self.hi.tolist()!r})"


def _check_enumerable(box: Hyperbox, what: str) -> None:
    if box.is_empty:
        raise EmptySetError(f"{what} of an empty hyperbox")
    if box.dim > _VERTEX_CAP:
        raise DimensionTooLargeError(
            f"vertex enumeration in dimension {box.dim} exceeds cap {_VERTEX_CAP}"
        )


def box_vertices(box: Hyperbox) -> list:
    """All corner points of ``box`` in lexicographic order (lo before hi).

    Degenerate coordinates (``lo == hi``) contribute a single choice, so the
    returned vertices are already deduplicated.  The zero-dimensional box has
    exactly one vertex, the empty tuple of coordinates.
    """
    _check_enumerable(box, "vertices")
    choices = [
        (lo,) if lo == hi else (lo, hi) for lo, hi in zip(box.lo.tolist(), box.hi.tolist())
    ]
    return [np.array(v, dtype=float) for v in itertools.product(*choices)]


def convex_weights(box: Hyperbox, point: Sequence[float]) -> list:
    """Multilinear barycentric weights of ``point``, one per vertex of
    ``box_vertices(box)`` and in its order.

    Coordinate k contributes factor ``(hi-v)/(hi-lo)`` when the vertex sits at
    ``lo`` and ``(v-lo)/(hi-lo)`` when it sits at ``hi``; degenerate
    coordinates contribute factor 1.  The weights are nonnegative, sum to one
    and reproduce ``point`` exactly.
    """
    _check_enumerable(box, "weights")
    v = np.asarray(point, dtype=float).ravel()
    if v.shape[0] != box.dim:
        raise ValueError("point dimension mismatch")
    if not box.contains(v, tol=1e-9):
        raise PointOutsideBoxError(f"{v!r} is outside the hyperbox")
    v = np.minimum(np.maximum(v, box.lo), box.hi)

    per_coord = []
    for vk, lo, hi in zip(v, box.lo.tolist(), box.hi.tolist()):
        if lo == hi:
            per_coord.append((1.0,))
        else:
            t = (vk - lo) / (hi - lo)
            per_coord.append((1.0 - t, t))
    return [float(math.prod(combo)) for combo in itertools.product(*per_coord)]
