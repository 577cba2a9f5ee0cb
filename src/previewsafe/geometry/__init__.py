"""Polyhedral kernel: hyperboxes, H-polytopes and LPs."""

from .interval import Hyperbox, box_vertices, convex_weights
from .lp import EPS_LP, LPResult, LPStatus, chebyshev_center, linprog_max
from .polytope import (
    EPS_SET,
    HPolytope,
    contains_set,
    lift,
    pontryagin_diff,
    project,
    set_equal,
    volume,
)

__all__ = [
    "Hyperbox",
    "box_vertices",
    "convex_weights",
    "EPS_LP",
    "LPStatus",
    "LPResult",
    "linprog_max",
    "chebyshev_center",
    "EPS_SET",
    "HPolytope",
    "lift",
    "pontryagin_diff",
    "project",
    "contains_set",
    "set_equal",
    "volume",
]
