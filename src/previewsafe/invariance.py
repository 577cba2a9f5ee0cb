"""Fixed-point machinery for controlled invariant sets.

The controlled predecessor of a target set X is

    pre(X) = { x : exists u with (x, u) in S_xu and A x + B u + E d in X
               for every d in D },

computed as: erode X by the disturbance image E D, pull the eroded set back
through the affine map (x, u) -> A x + B u, intersect with S_xu, project out
u, reduce.  The robust quantifier over d costs at most one support
evaluation per row of X; for preview-augmented systems E is nonzero only on
the freshest disturbance block, so those supports see only that block.  The
rows of X on that block alone pull back to zero rows: each only checks that
E D fits, which takes no LP when the row is one of D's own rows, and is then
dropped.

Method 1 iterates pre downward from the state projection of the safe set and
returns the maximal controlled invariant set when it converges (which is not
guaranteed in finitely many steps).  Method 2 grows a seed that is already
controlled invariant; every iterate stays controlled invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SeedNotInvariantError
from .geometry import (
    HPolytope,
    contains_set,
    lift,
    pontryagin_diff,
    project,
    set_equal,
    volume,
)
from .geometry.polytope import _preimage
from .systems import LinearSystem, augment, collaborative

__all__ = [
    "IterationReport",
    "pre",
    "method1",
    "method2",
    "is_invariant",
    "admissible_inputs",
    "input_constraints",
    "lift",
    "sandwich",
    "preview_gain",
]


@dataclass(frozen=True)
class IterationReport:
    """Result of a fixed-point run: final set, step count, convergence flag,
    and the per-iterate row counts for performance diagnostics."""

    result: HPolytope
    iterations: int
    converged: bool
    per_step_rows: tuple

    def to_json(self) -> dict:
        return {
            "result": self.result.to_json(),
            "iterations": self.iterations,
            "converged": self.converged,
            "per_step_rows": list(self.per_step_rows),
        }


def pre(sys: LinearSystem, X: HPolytope) -> HPolytope:
    """Controlled predecessor of ``X`` under ``sys`` (safe set included)."""
    n, m = sys.n, sys.m
    if X.dim != n:
        raise ValueError("target set must live in the state space")
    if X.is_empty:
        return HPolytope.empty(n)
    # project's Chebyshev test decides whether the erosion left anything,
    # unless the interior point X kept from its own projection settles it;
    # X's rays, which kept rows of earlier iterates, are shot from there too
    G = np.hstack([X.H.dot(sys.A), X.H.dot(sys.B)])
    return project(_preimage(X, sys.dist_set, sys.E, G, sys.safe), list(range(n)), X)


def _iterate(sys: LinearSystem, X: HPolytope, budget: int) -> IterationReport:
    """Apply pre to ``X`` at most ``budget`` times, stopping at a fixed point
    (mutual containment within ``EPS_SET``)."""
    rows = [X.nrows]
    for k in range(1, budget + 1):
        Xn = pre(sys, X)
        rows.append(Xn.nrows)
        converged = set_equal(Xn, X)
        X = Xn
        if converged:
            return IterationReport(X, k, True, tuple(rows))
    return IterationReport(X, budget, False, tuple(rows))


def method1(sys: LinearSystem, max_iter: int = 200) -> IterationReport:
    """Downward iteration from the safe-state projection to the maximal set.

    Stops on a fixed point or after ``max_iter`` steps; non-convergence is
    reported, not raised.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    return _iterate(sys, project(sys.safe, list(range(sys.n))), max_iter)


def is_invariant(sys: LinearSystem, C: HPolytope) -> bool:
    """True iff ``C`` is controlled invariant for ``sys`` within its safe set,
    that is iff ``C`` lies in ``pre(C)``: ``pre``'s rows include the safe
    set's, so that one containment also puts ``C`` in the safe set's state
    projection."""
    if C.dim != sys.n:
        raise ValueError("candidate set must live in the state space")
    if C.is_empty:
        return True
    return contains_set(pre(sys, C), C)


def method2(sys: LinearSystem, seed: HPolytope, K: int) -> IterationReport:
    """Grow a controlled invariant seed by iterating pre at most ``K`` times.

    The seed must itself be controlled invariant (checked; raises
    :class:`SeedNotInvariantError` otherwise), which makes every iterate
    controlled invariant and the sequence nondecreasing.
    """
    if K < 0:
        raise ValueError("iteration budget must be nonnegative")
    if not is_invariant(sys, seed):
        raise SeedNotInvariantError("seed set failed the invariance check")
    return _iterate(sys, seed, K)


def input_constraints(sys: LinearSystem, C: HPolytope):
    """The state-independent part of :func:`admissible_inputs`: the arrays
    ``(G_x, G_u, h0)`` with the inputs admissible at ``x`` equal to
    ``{u : G_u u <= h0 - G_x @ x}``, or ``None`` when ``C`` or its erosion by
    ``E D`` is empty.  With ``E_r z <= e_r`` the erosion, ``G_x = [E_r A;
    S_x]``, ``G_u = [E_r B; S_u]`` and ``h0 = [e_r; s]``: every row of the
    erosion and of the safe set, zero rows included.  The erosion does not
    depend on the state, so a caller that keeps ``C`` erodes it once, and the
    right-hand side at ``x`` is one mat-vec.
    """
    if sys.m == 0:
        raise ValueError("admissible input set requires an input channel")
    if C.is_empty:
        return None
    eroded = pontryagin_diff(C, sys.dist_set, sys.E)
    if eroded.is_empty:
        return None
    n = sys.n
    G_x = np.vstack([eroded.H.dot(sys.A), sys.safe.H[:, :n]])
    G_u = np.vstack([eroded.H.dot(sys.B), sys.safe.H[:, n:]])
    return G_x, G_u, np.concatenate([eroded.h, sys.safe.h])


def admissible_inputs(sys: LinearSystem, C: HPolytope, x) -> HPolytope:
    """Inputs keeping ``(x, u)`` safe and the successor inside ``C`` robustly.

    Returns an H-polytope in u-space; possibly empty.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != sys.n:
        raise ValueError("state dimension mismatch")
    rows = input_constraints(sys, C)
    if rows is None:
        return HPolytope.empty(sys.m)
    G_x, G_u, h0 = rows
    return HPolytope(G_u, h0 - G_x.dot(x))


def sandwich(
    sys: LinearSystem, p_low: int, p: int, max_iter: int = 200
) -> dict:
    """Inner and outer bounds on the maximal invariant set at preview ``p``.

    inner = (maximal set at preview ``p_low``) x D^(p - p_low); outer =
    (maximal set of the disturbance-collaborative system) x D^p.  The outer
    bound is checked to contain the inner bound.
    """
    if not 0 <= p_low < p:
        raise ValueError("need 0 <= p_low < p")
    low_report = method1(augment(sys, p_low).aug, max_iter)
    inner = lift(low_report.result, sys.dist_set, p - p_low)
    co_report = method1(collaborative(sys), max_iter)
    outer = lift(co_report.result, sys.dist_set, p)
    if not contains_set(outer, inner):
        raise NumericalError("outer preview bound lost containment of the inner bound")
    return {
        "inner": inner,
        "outer": outer,
        "inner_report": low_report,
        "outer_report": co_report,
    }


def preview_gain(
    sys: LinearSystem,
    p_low: int,
    p: int,
    seed: int = 0,
    samples: int = 200_000,
    max_iter: int = 200,
) -> dict:
    """Volumes of the preview bounds; the gap caps what more preview can buy."""
    bounds = sandwich(sys, p_low, p, max_iter)
    inner_vol = volume(bounds["inner"], seed=seed, samples=samples)
    outer_vol = volume(bounds["outer"], seed=seed, samples=samples)
    return {
        "inner_vol": inner_vol,
        "outer_vol": outer_vol,
        "gap": outer_vol - inner_vol,
    }
