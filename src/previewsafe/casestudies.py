"""Analytic oracles and canned configurations for the worked examples.

The scalar family x+ = a x + u + d with |x| <= r, |u| <= beta, |d| <= gamma
and a > 1 has an explicit maximal invariant set for the p-augmented system,

    { (x, d_1..d_p) : |d_i| <= gamma,
      |x + sum_i d_i / a^i| <= (beta - gamma / a^p) / (a - 1) },

valid when r >= (beta + gamma)/(a - 1) and a^(p-1) beta >= gamma.  These
formulas, together with two tiny systems (a measure-zero safe segment and a
disturbance that overwhelms the input), serve as ground truth for the
fixed-point machinery throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidParametersError
from .geometry import HPolytope, Hyperbox, contains_set, lift
from .systems import LinearSystem

__all__ = [
    "ScalarPreviewProblem",
    "ScalarCmax",
    "ScalarProjection",
    "scalar_cmax",
    "scalar_projection",
    "scalar_strict_growth",
    "example1_config",
    "example4_config",
    "example5_config",
]

_VALIDITY_TOL = 1e-12
# half-width of example 1's disturbance box (its disturbance gain is zero)
_EXAMPLE1_D_HALFWIDTH = 1.0


@dataclass(frozen=True)
class ScalarPreviewProblem:
    """Parameters (a, beta, gamma, r, p) of the scalar preview family."""

    a: float
    beta: float
    gamma: float
    r: float
    p: int

    def __post_init__(self) -> None:
        if not self.a > 1:
            raise InvalidParametersError("need a > 1")
        if self.gamma < 0 or self.beta <= 0 or self.r <= 0 or self.p < 0:
            raise InvalidParametersError("need beta > 0, gamma >= 0, r > 0, p >= 0")
        if self.r < (self.beta + self.gamma) / (self.a - 1) - _VALIDITY_TOL:
            raise InvalidParametersError("need r >= (beta + gamma)/(a - 1)")
        if self.a ** (self.p - 1) * self.beta < self.gamma - _VALIDITY_TOL:
            raise InvalidParametersError("need a^(p-1) * beta >= gamma")

    def system(self) -> LinearSystem:
        # |x| <= r and |u| <= beta
        safe = lift(HPolytope.from_bounds([-self.r], [self.r]), Hyperbox.cube(1, self.beta), 1)
        return LinearSystem(
            A=[[self.a]],
            B=[[1.0]],
            E=[[1.0]],
            dist_set=Hyperbox.from_bounds([-self.gamma], [self.gamma]),
            safe=safe,
        )


@dataclass(frozen=True)
class ScalarCmax:
    """Exact maximal invariant set of the augmented scalar system."""

    problem: ScalarPreviewProblem
    d_bound: float
    weighted_bound: float
    weights: tuple  # 1/a^i for i = 1..p

    def membership(self, x: float, d: Sequence[float], tol: float = 1e-9) -> bool:
        d = np.asarray(d, dtype=float).ravel()
        if d.shape[0] != self.problem.p:
            raise ValueError("preview length mismatch")
        if np.any(np.abs(d) > self.d_bound + tol):
            return False
        return abs(x + float(np.dot(self.weights, d))) <= self.weighted_bound + tol

    def to_hpolytope(self) -> HPolytope:
        p = self.problem.p
        dim = 1 + p
        rows = [np.concatenate([[1.0], self.weights])]
        rows.append(-rows[0])
        rhs = [self.weighted_bound, self.weighted_bound]
        for i in range(p):
            e = np.zeros(dim)
            e[1 + i] = 1.0
            rows.extend([e, -e])
            rhs.extend([self.d_bound, self.d_bound])
        return HPolytope(np.vstack(rows), np.array(rhs))


def scalar_cmax(prob: ScalarPreviewProblem) -> ScalarCmax:
    """Closed form of the maximal invariant set for the scalar family."""
    a, beta, gamma, p = prob.a, prob.beta, prob.gamma, prob.p
    bound = (beta - gamma / a**p) / (a - 1)
    weights = tuple(1.0 / a**i for i in range(1, p + 1))
    return ScalarCmax(problem=prob, d_bound=gamma, weighted_bound=bound, weights=weights)


@dataclass(frozen=True)
class ScalarProjection:
    """State projection of the scalar invariant set, ``[-halfwidth,
    halfwidth]``, and its limit objects."""

    halfwidth: float                # (beta + gamma - 2 gamma / a^p) / (a - 1)
    collaborative_halfwidth: float  # (beta + gamma) / (a - 1)
    gap: float                      # 2 gamma / (a^p (a - 1))


def scalar_projection(prob: ScalarPreviewProblem) -> ScalarProjection:
    a, beta, gamma, p = prob.a, prob.beta, prob.gamma, prob.p
    return ScalarProjection(
        halfwidth=(beta + gamma - 2.0 * gamma / a**p) / (a - 1),
        collaborative_halfwidth=(beta + gamma) / (a - 1),
        gap=2.0 * gamma / (a**p * (a - 1)),
    )


def scalar_strict_growth(prob: ScalarPreviewProblem) -> bool:
    """True iff the invariant at preview p+1 strictly contains the lifted
    invariant at preview p (no finite critical preview for this family)."""
    lifted = lift(
        scalar_cmax(prob).to_hpolytope(),
        Hyperbox.from_bounds([-prob.gamma], [prob.gamma]),
        1,
    )
    bigger = scalar_cmax(replace(prob, p=prob.p + 1)).to_hpolytope()
    return contains_set(bigger, lifted) and not contains_set(lifted, bigger)


def example1_config(p: int = 1):
    """Two-dimensional shift with zero disturbance gain and a safe segment.

    Returns the system together with the singleton seed {(0,0)} x D^p used to
    show that seed growth can stall strictly inside the maximal set.
    """
    safe = HPolytope(
        [
            [1.0, -1.0, 0.0],
            [-1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
        ],
        [0.0, 0.0, 1.0, 1.0],
    )
    sys = LinearSystem(
        A=[[0.0, 1.0], [0.0, 0.0]],
        B=[[0.0], [1.0]],
        E=np.zeros((2, 2)),
        dist_set=Hyperbox.cube(2, _EXAMPLE1_D_HALFWIDTH),
        safe=safe,
    )
    origin = HPolytope(
        np.vstack([np.eye(2), -np.eye(2)]), np.zeros(4)
    )
    seed = lift(origin, sys.dist_set, p)
    return sys, seed


def example4_config() -> LinearSystem:
    """x+ = u + d with the disturbance overwhelming the input: the
    collaborative set is [-1, 1] while every finite preview gives empty."""
    return LinearSystem(
        A=[[0.0]],
        B=[[1.0]],
        E=[[1.0]],
        dist_set=Hyperbox.from_bounds([-5.0], [5.0]),
        safe=HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0]),
    )


def example5_config(prob: ScalarPreviewProblem) -> LinearSystem:
    """Feedback transform u = -a x + v of the scalar family.

    The transformed dynamics x+ = v + d are a one-dimensional shift register,
    but the safe set becomes the sheared polytope {(x, v) : |x| <= r,
    |v - a x| <= beta}, so the box-safe-set theory does not apply; the
    maximal invariant sets coincide with the untransformed family.
    """
    a, beta, r = prob.a, prob.beta, prob.r
    safe = HPolytope(
        [
            [1.0, 0.0],
            [-1.0, 0.0],
            [-a, 1.0],
            [a, -1.0],
        ],
        [r, r, beta, beta],
    )
    return LinearSystem(
        A=[[0.0]],
        B=[[1.0]],
        E=[[1.0]],
        dist_set=Hyperbox.from_bounds([-prob.gamma], [prob.gamma]),
        safe=safe,
    )
