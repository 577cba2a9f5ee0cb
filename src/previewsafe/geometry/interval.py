"""Closed intervals and axis-aligned hyperboxes.

An interval is a pair of float endpoints with one distinguished empty value;
bounds built from sums of endpoints are plain float sums, where an empty sum
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
    "Interval",
    "Hyperbox",
    "box_vertices",
    "convex_weights",
]

# Largest dimension whose 2^dim box vertices are enumerated.
_VERTEX_CAP = 20


@dataclass(frozen=True, eq=False)
class Interval:
    """Closed interval ``[lo, hi]`` with ``lo <= hi``.

    The empty interval is the distinguished value :data:`Interval.EMPTY`
    (both endpoints NaN); it is never encoded as ``lo > hi``.
    """

    lo: float
    hi: float

    EMPTY: "Interval" = None  # set right after the class definition

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) and math.isnan(self.hi):
            return
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval endpoints [{self.lo}, {self.hi}]")

    @property
    def is_empty(self) -> bool:
        return math.isnan(self.lo)

    @property
    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        if self.is_empty:
            raise EmptySetError("midpoint of the empty interval")
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        if self.is_empty:
            return False
        return self.lo - tol <= x <= self.hi + tol

    def shift(self, c: float) -> "Interval":
        """Scalar translation ``c + [lo, hi]``."""
        if self.is_empty:
            return Interval.EMPTY
        return Interval(self.lo + c, self.hi + c)

    def intersect(self, other: "Interval") -> "Interval":
        """Set intersection."""
        if self.is_empty or other.is_empty:
            return Interval.EMPTY
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return Interval.EMPTY
        return Interval(lo, hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.is_empty, self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_empty:
            return "Interval.EMPTY"
        return f"Interval({self.lo!r}, {self.hi!r})"


Interval.EMPTY = Interval(math.nan, math.nan)


@dataclass(frozen=True, eq=False)
class Hyperbox:
    """Axis-aligned box, one :class:`Interval` per coordinate.

    Shares ``dim``, ``is_empty``, ``support``, ``contains`` and
    ``bounding_box`` with ``HPolytope``, so set operations take either.

    A zero-dimensional box is nonempty by convention (it is the neutral
    element of the Cartesian product).
    """

    intervals: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        for iv in self.intervals:
            if not isinstance(iv, Interval):
                raise TypeError("Hyperbox expects Interval coordinates")

    @classmethod
    def from_bounds(cls, lo: Sequence[float], hi: Sequence[float]) -> "Hyperbox":
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ValueError("lo/hi length mismatch")
        return cls(tuple(Interval(a, b) for a, b in zip(lo, hi)))

    @classmethod
    def cube(cls, dim: int, halfwidth: float) -> "Hyperbox":
        return cls(tuple(Interval(-halfwidth, halfwidth) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return any(iv.is_empty for iv in self.intervals)

    @property
    def lo(self) -> np.ndarray:
        return np.array([iv.lo for iv in self.intervals], dtype=float)

    @property
    def hi(self) -> np.ndarray:
        return np.array([iv.hi for iv in self.intervals], dtype=float)

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
        """Exact product of interval widths (1.0 for the zero-dim box)."""
        if self.is_empty:
            return 0.0
        return float(np.prod([iv.width for iv in self.intervals])) if self.dim else 1.0

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
            dim = int(data.get("dim", 1))
            box = [Interval.EMPTY] + [Interval(0.0, 0.0)] * (dim - 1)
            return cls(tuple(box))
        return cls.from_bounds(data["lo"], data["hi"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hyperbox):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        return f"Hyperbox({list(self.intervals)!r})"


def box_vertices(box: Hyperbox) -> list:
    """All corner points of ``box`` in lexicographic order (lo before hi).

    Degenerate coordinates (``lo == hi``) contribute a single choice, so the
    returned vertices are already deduplicated.  The zero-dimensional box has
    exactly one vertex, the empty tuple of coordinates.
    """
    if box.is_empty:
        raise EmptySetError("vertices of an empty hyperbox")
    if box.dim > _VERTEX_CAP:
        raise DimensionTooLargeError(
            f"vertex enumeration in dimension {box.dim} exceeds cap {_VERTEX_CAP}"
        )
    choices = [
        (iv.lo,) if iv.lo == iv.hi else (iv.lo, iv.hi) for iv in box.intervals
    ]
    return [np.array(v, dtype=float) for v in itertools.product(*choices)]


def convex_weights(box: Hyperbox, point: Sequence[float]) -> list:
    """Multilinear barycentric weights of ``point`` over ``box_vertices(box)``.

    Coordinate k contributes factor ``(hi-v)/(hi-lo)`` when the vertex sits at
    ``lo`` and ``(v-lo)/(hi-lo)`` when it sits at ``hi``; degenerate
    coordinates contribute factor 1.  The weights are nonnegative, sum to one
    and reproduce ``point`` exactly.
    """
    if box.is_empty:
        raise EmptySetError("weights over an empty hyperbox")
    if box.dim > _VERTEX_CAP:
        raise DimensionTooLargeError(
            f"vertex enumeration in dimension {box.dim} exceeds cap {_VERTEX_CAP}"
        )
    v = np.asarray(point, dtype=float).ravel()
    if v.shape[0] != box.dim:
        raise ValueError("point dimension mismatch")
    if not box.contains(v, tol=1e-9):
        raise PointOutsideBoxError(f"{v!r} is outside the hyperbox")
    v = np.minimum(np.maximum(v, box.lo), box.hi)

    per_coord = []
    for k, iv in enumerate(box.intervals):
        if iv.lo == iv.hi:
            per_coord.append(((iv.lo, 1.0),))
        else:
            t = (v[k] - iv.lo) / (iv.hi - iv.lo)
            per_coord.append(((iv.lo, 1.0 - t), (iv.hi, t)))

    out = []
    for combo in itertools.product(*per_coord):
        vertex = np.array([c[0] for c in combo], dtype=float)
        weight = 1.0
        for c in combo:
            weight *= c[1]
        out.append((vertex, float(weight)))
    return out
