import itertools
import logging
import re
import warnings

import numpy as np
import pytest
from conftest import count_lps, cross_polytope

from previewsafe.errors import (
    DimensionTooLargeError,
    EmptySetError,
    PointOutsideBoxError,
    UnboundedError,
)
from previewsafe.geometry import (
    HPolytope,
    Hyperbox,
    box_vertices,
    contains_set,
    convex_weights,
    pontryagin_diff,
    project,
    set_equal,
    volume,
)
from previewsafe.geometry import lp, polytope

MASTER_SEEDS = [11, 222, 3333]


class TestHyperbox:
    def test_support(self):
        box = Hyperbox.cube(2, 1.0)
        assert box.support([1, 0]) == 1.0
        n, c = 5, 0.3
        assert Hyperbox.cube(n, c).support(np.ones(n)) == pytest.approx(n * c)

    def test_empty(self):
        box = Hyperbox.from_bounds([np.nan, 0], [np.nan, 1])
        assert box.is_empty
        with pytest.raises(EmptySetError):
            box.support([1, 0])

    def test_zero_dim_box_is_nonempty(self):
        box = Hyperbox.from_bounds([], [])
        assert not box.is_empty
        assert box.volume() == 1.0
        assert box.support(np.zeros(0)) == 0.0

    def test_volume_exact(self):
        assert Hyperbox.cube(3, 1.0).volume() == 8.0

    @pytest.mark.parametrize(
        "lo, hi",
        [([1.0], [0.0]), ([np.nan], [1.0]), ([0.0, 0.0], [1.0, np.nan]), ([0.0], [1.0, 2.0])],
        ids=["crossed", "nan_lo", "nan_hi", "length"],
    )
    def test_invalid_endpoints_raise(self, lo, hi):
        with pytest.raises(ValueError):
            Hyperbox.from_bounds(lo, hi)

    def test_one_empty_form(self):
        a = Hyperbox.from_bounds([0.0, np.nan, -1.0], [1.0, np.nan, 1.0])
        b = Hyperbox.empty(3)
        assert a == b and hash(a) == hash(b)
        assert np.isnan(a.lo).all() and np.isnan(a.hi).all()
        assert a != Hyperbox.empty(2)
        assert a != Hyperbox.cube(3, 1.0)
        with pytest.raises(ValueError):
            Hyperbox.empty(0)

    def test_signed_zero_endpoints_hash_equal(self):
        a = Hyperbox.from_bounds([-0.0], [1.0])
        b = Hyperbox.from_bounds([0.0], [1.0])
        assert a == b and hash(a) == hash(b)

    def test_endpoints_are_stored_read_only_arrays(self):
        lo = np.array([-1.0, 0.0])
        box = Hyperbox.from_bounds(lo, [1.0, 2.0])
        lo[0] = -5.0  # the box holds its own copy
        assert box.lo is box.lo and box.hi is box.hi
        assert box.lo.tolist() == [-1.0, 0.0]
        with pytest.raises(ValueError):
            box.lo[0] = 0.0
        assert box.to_json() == {"lo": [-1.0, 0.0], "hi": [1.0, 2.0]}


class TestBoxVertices:
    def test_unit_square_order(self):
        verts = box_vertices(Hyperbox.from_bounds([0, 0], [1, 1]))
        expected = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [tuple(v) for v in verts] == expected

    def test_degenerate_dedup(self):
        verts = box_vertices(Hyperbox.from_bounds([0, 0], [0, 1]))
        assert [tuple(v) for v in verts] == [(0, 0), (0, 1)]

    def test_cube_vertices(self):
        c = 0.7
        verts = box_vertices(Hyperbox.cube(3, c))
        assert len(verts) == 8
        for v in verts:
            assert np.all(np.abs(v) == c)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            box_vertices(Hyperbox.cube(25, 1.0))


def weight_pairs(box, point):
    """``(vertex, weight)`` pairs: ``convex_weights`` in ``box_vertices`` order."""
    return list(zip(box_vertices(box), convex_weights(box, point)))


class TestConvexWeights:
    def test_1d_interpolation(self):
        w = weight_pairs(Hyperbox.from_bounds([0], [1]), [0.25])
        assert {(v[0], round(a, 12)) for v, a in w} == {(0.0, 0.75), (1.0, 0.25)}

    def test_vertex_gets_weight_one(self):
        w = weight_pairs(Hyperbox.from_bounds([0, 0], [1, 1]), [1.0, 0.0])
        weights = {tuple(v): a for v, a in w}
        assert weights[(1.0, 0.0)] == pytest.approx(1.0)

    def test_center_symmetry(self):
        w = weight_pairs(Hyperbox.from_bounds([0, 0], [1, 1]), [0.5, 0.5])
        assert all(a == pytest.approx(0.25) for _, a in w)

    def test_outside_raises(self):
        with pytest.raises(PointOutsideBoxError):
            convex_weights(Hyperbox.from_bounds([0], [1]), [1.5])

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            lo = rng.normal(size=dim)
            hi = lo + rng.random(size=dim) * (rng.random(size=dim) > 0.2)
            box = Hyperbox.from_bounds(lo, hi)
            v = lo + rng.random(size=dim) * (hi - lo)
            pairs = weight_pairs(box, v)
            weights = np.array([a for _, a in pairs])
            assert np.all(weights >= -1e-12)
            assert abs(weights.sum() - 1.0) <= 1e-9
            recon = sum(a * vert for vert, a in pairs)
            assert np.max(np.abs(recon - v)) <= 1e-9


class TestSupport:
    def test_triangle(self):
        # oracle: maximum over the three vertices (0,0), (1,0), (0,1)
        tri = HPolytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        d = np.array([1.0, 1.0])
        assert tri.support(d) == pytest.approx(float((verts @ d).max()), abs=1e-9)

    def test_errors(self):
        with pytest.raises(EmptySetError):
            HPolytope.empty(2).support([1, 0])
        with pytest.raises(UnboundedError):
            HPolytope([[1.0, 0.0]], [1.0]).support([0, 1])

    def test_dispatch_box(self):
        assert Hyperbox.cube(2, 1.0).support([1, 0]) == 1.0

    def test_repeated_direction_costs_one_lp(self, monkeypatch):
        P = cross_polytope(np.array([0.3, 0.2]))
        calls = count_lps(monkeypatch)
        first = P.support(np.array([1.0, 0.5]))
        assert P.support([1.0, 0.5]) == first and calls[0] == 1
        P.support([0.5, 1.0])
        assert calls[0] == 2
        # the memo belongs to the set: a rebuilt set solves again
        assert HPolytope(P.H, P.h).support([1.0, 0.5]) == pytest.approx(first, abs=1e-12)
        assert calls[0] == 3

    def test_failed_supports_are_not_memoized(self, monkeypatch):
        P = HPolytope([[1.0, 0.0]], [1.0])
        calls = count_lps(monkeypatch)
        for _ in range(2):
            with pytest.raises(UnboundedError):
                P.support([0, 1])
        assert calls[0] == 2


class TestSetProtocol:
    """A Hyperbox and its HPolytope.from_box twin answer every shared query alike."""

    @pytest.mark.parametrize(
        "box",
        [
            Hyperbox.from_bounds([-1.0, -0.5, 0.0], [2.0, 0.5, 3.0]),
            Hyperbox.from_bounds([-1.0, 0.3, -2.0], [1.0, 0.3, 2.0]),
            Hyperbox.from_bounds([0.0, np.nan, -1.0], [1.0, np.nan, 1.0]),
        ],
        ids=["full", "width_zero", "empty"],
    )
    def test_box_and_polytope_twins_agree(self, box):
        poly = HPolytope.from_box(box)
        assert (poly.dim, poly.is_empty) == (box.dim, box.is_empty)
        rng = np.random.default_rng(5)
        # corners of the box (of the cube [-1, 1]^3 when empty), exact and
        # pushed out by less and by more than the tolerance
        base = Hyperbox.cube(3, 1.0) if box.is_empty else box
        corners = np.array(list(itertools.product(*zip(base.lo, base.hi))))
        points = np.vstack(
            [rng.uniform(-2.5, 3.5, (40, 3))]
            + [corners + shift * rng.choice([-1.0, 1.0], corners.shape) for shift in (0.0, 5e-10, 1e-6)]
        )
        for z in points:
            assert poly.contains(z, tol=1e-9) == box.contains(z, tol=1e-9)
        X = HPolytope.from_bounds([-5.0] * 3, [5.0] * 3)
        M = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, -0.3, 1.0]])
        directions = rng.normal(size=(10, 3))
        if box.is_empty:
            for S in (box, poly):
                with pytest.raises(EmptySetError):
                    S.support(directions[0])
                with pytest.raises(EmptySetError):
                    pontryagin_diff(X, S, M)
                assert S.bounding_box().is_empty
                assert S.bounding_box().dim == S.dim
            return
        for d in directions:
            assert poly.support(d) == pytest.approx(box.support(d), abs=1e-9)
        assert box.bounding_box() is box
        assert np.allclose(poly.bounding_box().lo, box.lo, atol=1e-9)
        assert np.allclose(poly.bounding_box().hi, box.hi, atol=1e-9)
        assert set_equal(pontryagin_diff(X, box, M), pontryagin_diff(X, poly, M))

    @pytest.mark.parametrize(
        "box",
        [
            Hyperbox.from_bounds([-1.0, -0.5, 0.0], [2.0, 0.5, 3.0]),
            Hyperbox.from_bounds([-1.0, -np.inf, -2.0], [1.0, np.inf, 2.0]),
            Hyperbox.from_bounds([0.0, np.nan, -1.0], [1.0, np.nan, 1.0]),
        ],
        ids=["full", "infinite", "empty"],
    )
    def test_intersect_takes_either_twin(self, box):
        P = HPolytope([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 1.0]], [1.0, 1.0, 2.0])
        mine, twin = (
            HPolytope(np.vstack([P.H, Q.H]), np.concatenate([P.h, Q.h]))
            for Q in (polytope._as_polytope(box), HPolytope.from_box(box))
        )
        assert mine.H.tobytes() == twin.H.tobytes() and mine.h.tobytes() == twin.h.tobytes()
        assert mine.is_empty == box.is_empty
        with pytest.raises(ValueError):
            Q = polytope._as_polytope(Hyperbox.cube(2, 1.0))
            HPolytope(np.vstack([P.H, Q.H]), np.concatenate([P.h, Q.h]))

    def test_twins_with_infinite_bounds_agree(self):
        box = Hyperbox.from_bounds([-1.0, -np.inf], [1.0, np.inf])
        poly = HPolytope.from_box(box)
        assert poly.nrows == 2  # the +inf offsets constrain nothing
        X = HPolytope.from_bounds([-2.0, -2.0], [2.0, 2.0])
        for S in (box, poly):
            assert S.support([1.0, 0.0]) == 1.0
            assert S.support([-2.0, 0.0]) == 2.0
            with pytest.raises(UnboundedError):
                S.support([0.0, 1.0])
            with pytest.raises(UnboundedError):
                S.support([0.5, -1.0])
            assert pontryagin_diff(X, S, np.eye(2)).is_empty


class TestPontryaginDiff:
    def test_interval_erosion(self):
        X = HPolytope.from_bounds([-1], [1])
        out = pontryagin_diff(X, Hyperbox.from_bounds([-0.2], [0.2]), np.eye(1))
        assert set_equal(out, HPolytope.from_bounds([-0.8], [0.8]))

    def test_erode_to_empty(self):
        X = HPolytope.from_bounds([-1], [1])
        out = pontryagin_diff(X, Hyperbox.from_bounds([-5], [5]), np.eye(1))
        assert out.is_empty

    def test_zero_map(self):
        X = HPolytope.from_bounds([-1, -1], [1, 1])
        S = Hyperbox.cube(2, 0.2)
        out = pontryagin_diff(X, S, np.zeros((2, 2)))
        assert set_equal(out, X)

    def test_zero_directions_skip_support(self):
        # E touches only the first coordinate, as the freshest preview block
        # does in an augmented system: the other rows keep their offsets
        X = HPolytope(
            np.vstack([np.eye(3), -np.eye(3), [[0.0, 1.0, 1.0], [1.0, -1.0, 0.0]]]),
            np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0, 2.5]),
        )
        M = np.array([[0.5, 0.25], [0.0, 0.0], [0.0, 0.0]])
        dirs = X.H @ M
        assert (~dirs.any(axis=1)).sum() == 5
        box = Hyperbox.from_bounds([-0.1, -0.2], [0.3, 0.2])
        for S in (box, HPolytope.from_box(box), cross_polytope(np.array([0.2, 0.1]))):
            out = pontryagin_diff(X, S, M)
            expected = [h - S.support(d) if d.any() else h for h, d in zip(X.h, dirs)]
            # rows are normalized once, so the eroded set keeps X's rows bit for bit
            assert out.H.tobytes() == X.H.tobytes()
            assert np.allclose(out.h, expected, atol=1e-12, rtol=0)
        assert set_equal(pontryagin_diff(X, box, M), pontryagin_diff(X, HPolytope.from_box(box), M))

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_box_erosion_is_support_bit_for_bit(self, seed):
        # the erosion by a Hyperbox takes all supports in one expression; each
        # offset must be Hyperbox.support of its row (0 for a zero direction),
        # bit for bit, up to l = 20 disturbance coordinates
        rng = np.random.default_rng(seed)
        for l in range(1, 21):
            X = HPolytope(rng.normal(size=(15, 3)), rng.uniform(1.0, 3.0, size=15))
            M = rng.normal(size=(3, l)) * (rng.random((3, l)) < 0.7)
            M[:, rng.random(l) < 0.2] = 0.0
            lo = -rng.uniform(0.0, 0.5, size=l)
            box = Hyperbox(lo, lo + rng.uniform(0.0, 1.0, size=l) * (rng.random(l) < 0.9))
            dirs = X.H @ M
            expected = [h - box.support(d) if d.any() else h for h, d in zip(X.h, dirs)]
            out = pontryagin_diff(X, box, M)
            assert out.H.tobytes() == X.H.tobytes()
            assert out.h.tobytes() == np.array(expected).tobytes()
            # an infinite bound that some row's direction meets empties the erosion
            hit = int(np.flatnonzero(dirs.any(axis=0))[0]) if dirs.any() else None
            if hit is not None:
                hi = box.hi.copy()
                hi[hit] = np.inf
                lo_inf = box.lo.copy()
                lo_inf[hit] = -np.inf
                assert pontryagin_diff(X, Hyperbox(lo_inf, hi), M).is_empty

    def test_zero_directions_ignore_unbounded_coordinates(self):
        X = HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0])
        S = Hyperbox.from_bounds([-0.25, -np.inf], [0.25, np.inf])
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        expected = HPolytope.from_bounds([-0.75, -1.0], [0.75, 1.0])
        for twin in (S, HPolytope.from_box(S)):
            assert set_equal(pontryagin_diff(X, twin, M), expected)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_reinflation_never_escapes(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            X = HPolytope.from_box(Hyperbox.from_bounds(-1 - rng.random(dim), 1 + rng.random(dim)))
            S = Hyperbox.from_bounds(-0.3 * rng.random(dim), 0.3 * rng.random(dim))
            M = rng.normal(size=(dim, dim)) * 0.5
            eroded = pontryagin_diff(X, S, M)
            if eroded.is_empty:
                continue
            pts = np.array([eroded.feasible_point() for _ in range(1)])
            samples = Hyperbox.from_bounds(eroded.bounding_box().lo, eroded.bounding_box().hi).sample(rng, 40)
            inside = samples[np.all(samples @ eroded.H.T <= eroded.h + 0, axis=1)]
            pts = np.vstack([pts, inside]) if inside.size else pts
            for z in pts:
                for s in box_vertices(S):
                    assert X.contains(z + M @ s, tol=1e-7)


def prior_with(center):
    """The whole space around ``center``: a prior that lends ``project`` the
    interior point ``center`` and no rays."""
    prior = HPolytope(np.zeros((0, center.size)), np.zeros(0))
    prior._ray_center = center
    return prior


class TestProject:
    def test_diagonal_segment(self):
        # {(x,u): |x|<=1, |u|<=1, x+u=0} projected to x gives [-1,1]
        P = HPolytope(
            [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
            [1, 1, 1, 1, 0, 0],
        )
        shadow = project(P, [0])
        assert set_equal(shadow, HPolytope.from_bounds([-1], [1]))

    def test_cube_to_square(self):
        cube = HPolytope.from_box(Hyperbox.cube(3, 1.0))
        sq = project(cube, [0, 1])
        assert set_equal(sq, HPolytope.from_box(Hyperbox.cube(2, 1.0)))

    def test_empty_in_empty_out(self):
        assert project(HPolytope.empty(3), [0, 1]).is_empty

    def test_elimination_decides_emptiness_without_an_lp_on_the_input(self):
        # |x| <= 1 and 0 <= u <= -0.1: empty through u only; the FM step
        # finds it, and the input's own verdict is never asked for
        P = HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, -0.1, 0])
        assert project(P, [0]).is_empty
        assert P._empty is None

    def test_result_is_nonempty_without_an_lp(self, monkeypatch):
        rng = np.random.default_rng(5)
        P = HPolytope(rng.normal(size=(16, 4)), rng.random(16) + 0.5)
        # one eliminated coordinate or more, and none
        for keep in ([0, 2, 3], [0, 2], [3, 1, 0, 2]):
            R = project(P, keep)
            calls = count_lps(monkeypatch)
            assert not R.is_empty and calls[0] == 0

    def test_lazy_feasible_point_is_the_chebyshev_centre(self, monkeypatch):
        # the point an eager emptiness test on the result would have kept
        rng = np.random.default_rng(6)
        P = HPolytope(rng.normal(size=(16, 4)), rng.random(16) + 0.5)
        R = project(P, [1, 3])
        calls = count_lps(monkeypatch)
        point = R.feasible_point()
        assert calls[0] == 1
        assert R.feasible_point().tobytes() == point.tobytes() and calls[0] == 1
        assert point.tobytes() == lp.chebyshev_center(R.H, R.h)[1].tobytes()

    @staticmethod
    def chebyshev_calls(monkeypatch):
        calls = [0]
        solve = polytope.chebyshev_center

        def counted(*args):
            calls[0] += 1
            return solve(*args)

        monkeypatch.setattr(polytope, "chebyshev_center", counted)
        return calls

    def test_center_skips_only_a_chebyshev_lp_it_replaces(self, monkeypatch):
        # one eliminated coordinate: a centre interior to the shadow settles
        # its emptiness and centres its rays; one on the boundary or outside
        # falls back to the Chebyshev LP.  The rows are the same bits
        # either way
        rng = np.random.default_rng(8)
        P = HPolytope(rng.normal(size=(14, 3)), rng.random(14) + 0.5)
        R = project(P, [0, 2])
        a, c = R.H[0], R._ray_center
        on_face = c + (R.h[0] - a @ c) * a
        for center, lps in ((c + 0.1 * (on_face - c), 0), (on_face, 1), (2 * on_face - c, 1)):
            with monkeypatch.context() as patch:
                calls = self.chebyshev_calls(patch)
                got = project(P, [0, 2], prior_with(center))
            assert got.H.tobytes() == R.H.tobytes() and got.h.tobytes() == R.h.tobytes()
            assert calls[0] == lps
            assert (got._ray_center is center) == (lps == 0)
        # the shadow x <= -1, x >= 1 of an empty set: no centre settles it
        P = HPolytope([[1, 1], [0, -1], [-1, 0]], [-1, 0, -1])
        ref = project(P, [0])
        calls = self.chebyshev_calls(monkeypatch)
        got = project(P, [0], prior_with(np.zeros(1)))
        assert got.is_empty and calls[0] == 1
        assert got.H.tobytes() == ref.H.tobytes() and got.h.tobytes() == ref.h.tobytes()

    def test_result_keeps_an_interior_ray_center(self):
        rng = np.random.default_rng(9)
        P = HPolytope(rng.normal(size=(16, 4)), rng.random(16) + 0.5)
        for keep in ([0, 2, 3], [1], [3, 1, 0, 2]):
            R = project(P, keep)
            assert (R.h - R.H @ R._ray_center).min() > polytope._RAY_MARGIN
        # the segment x0 = 0 has no interior point
        seg = HPolytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [0, 0, 1, 1, 1, 1])
        assert project(seg, [0, 1])._ray_center is None

    def test_projection_with_free_variable(self):
        # u unconstrained: the x-shadow of {|x|<=1} x R is [-1,1]
        P = HPolytope([[1, 0], [-1, 0]], [1, 1])
        shadow = project(P, [0])
        assert set_equal(shadow, HPolytope.from_bounds([-1], [1]))

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_shadow_properties(self, seed):
        # every sampled point of P maps into the projection; every extreme
        # point of the projection lifts back to a feasible point of P
        rng = np.random.default_rng(seed)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            nk = int(rng.integers(1, dim))
            A = rng.normal(size=(3 * dim, dim))
            b = rng.random(3 * dim) + 0.5
            P = HPolytope(np.vstack([A, np.eye(dim), -np.eye(dim)]), np.concatenate([b, np.ones(2 * dim) * 2]))
            keep = list(range(nk))
            shadow = project(P, keep)
            if P.is_empty:
                assert shadow.is_empty
                continue
            box = P.bounding_box()
            pts = box.sample(rng, 200)
            inside = pts[np.all(pts @ P.H.T <= P.h + 0, axis=1)]
            for z in inside[:40]:
                assert shadow.contains(z[keep], tol=1e-7)
            for _ in range(5):
                direction = rng.normal(size=nk)
                res = shadow.maximize(direction)
                if res.point is None:
                    continue
                # lift: find a full-dimensional point over the shadow point
                lift_rows = np.vstack([P.H, np.zeros((2 * nk, dim))])
                lift_rhs = np.concatenate([P.h, np.zeros(2 * nk)])
                for i, k in enumerate(keep):
                    lift_rows[P.nrows + 2 * i, k] = 1.0
                    lift_rhs[P.nrows + 2 * i] = res.point[i] + 1e-7
                    lift_rows[P.nrows + 2 * i + 1, k] = -1.0
                    lift_rhs[P.nrows + 2 * i + 1] = -res.point[i] + 1e-7
                lifted = HPolytope(lift_rows, lift_rhs)
                assert not lifted.is_empty


class TestReduce:
    def test_drops_dominated(self):
        P = HPolytope([[1.0], [1.0]], [1.0, 2.0])
        R = project(P, range(P.dim))
        assert R.nrows == 1
        assert set_equal(P, R)

    def test_square_duplicates(self):
        sq = HPolytope.from_box(Hyperbox.cube(2, 1.0))
        dup = HPolytope(np.vstack([sq.H, sq.H]), np.concatenate([sq.h, sq.h]))
        assert project(dup, range(dup.dim)).nrows == 4

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 3))
        b = rng.random(20) + 0.2
        P = project(HPolytope(A, b), range(3))
        Q = project(P, range(P.dim))
        assert P.nrows == Q.nrows
        assert set_equal(P, Q)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_random_injected_redundancy(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            A = rng.normal(size=(8, 2))
            b = rng.random(8) + 0.5
            P = HPolytope(A, b)
            if P.is_empty:
                continue
            lam = rng.random((4, 8))
            extra_A = lam @ P.H
            extra_b = lam @ P.h + rng.random(4) + 0.05
            Q = HPolytope(np.vstack([P.H, extra_A]), np.concatenate([P.h, extra_b]))
            R = project(Q, range(Q.dim))
            assert R.nrows <= Q.nrows
            assert set_equal(R, P)


def reference_reduce(H, h, monkeypatch):
    """``_reduce_arrays`` with the ray test and the box certificate off: one
    LP for every row."""
    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_ray_certified", lambda H, s: np.zeros(H.shape[0], dtype=bool))
        patch.setattr(polytope, "_box_implied", lambda *args: False)
        return polytope._reduce_arrays(H, h, np.zeros(H.shape[1]))


def reference_dedupe(H, h):
    """``_dedupe`` keyed on tuples of rounded scalars, one row at a time."""
    best, order = {}, []
    for i in range(H.shape[0]):
        key = tuple(np.round(H[i], 10))
        if key in best:
            if h[i] < h[best[key]]:
                best[key] = i
        else:
            best[key] = i
            order.append(key)
    idx = [best[key] for key in order]
    return H[idx], h[idx]


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_dedupe_matches_tuple_keys(seed):
    # copies, copies moved below the rounding, signed zeros and offsets that
    # tie, on the rows _reduce_arrays hands it
    rng = np.random.default_rng(seed)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        H = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(int(rng.integers(2, 25)), d))
        H[rng.random(H.shape) < 0.2] = -0.0
        pick = rng.integers(0, H.shape[0], size=H.shape[0])
        H = np.vstack([H, H[pick] + rng.choice([0.0, 1e-12, 1e-6], size=(pick.size, 1))])
        h = rng.choice([0.0, 1.0, 2.0], size=H.shape[0])
        mine, ref = polytope._dedupe(H, h), reference_dedupe(H, h)
        assert mine[0].tobytes() == ref[0].tobytes() and mine[1].tobytes() == ref[1].tobytes()


def test_dedupe_smallest_offset_and_signed_zeros():
    # -0.0 and 0.0 are one key; among copies the smallest offset wins, in
    # either order, and the first copy keeps its place
    H = np.array([[1.0, -0.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]])
    for h, kept in (([3.0, 1.0, 2.0, 0.5], [2, 3]), ([2.0, 0.5, 3.0, 1.0], [0, 1])):
        h = np.array(h)
        mine, ref = polytope._dedupe(H, h), reference_dedupe(H, h)
        assert mine[0].tobytes() == ref[0].tobytes() and mine[1].tobytes() == ref[1].tobytes()
        assert mine[1].tolist() == h[kept].tolist()


def unit_rows(H, h):
    """The unit-norm rows that ``HPolytope`` hands to the reduction."""
    P = HPolytope(np.array(H, dtype=float), np.array(h, dtype=float))
    return np.array(P.H), np.array(P.h)


def random_near_parallel_polytope(rng):
    """A random polytope with redundant rows (convex combinations with slack)
    and copies of its rows tilted by about 1e-6 at nearly the same offset."""
    d = int(rng.integers(2, 5))
    A = rng.normal(size=(6 * d, d))
    P = HPolytope(A, rng.random(6 * d) + 0.5)
    lam = rng.random((4, P.nrows)) / P.nrows
    extra_A = [lam @ P.H]
    extra_b = [lam @ P.h + rng.random(4) * 0.1]
    pick = rng.integers(0, P.nrows, 4)
    extra_A.append(P.H[pick] + rng.normal(scale=1e-6, size=(4, d)))
    extra_b.append(P.h[pick] + rng.normal(scale=1e-7, size=4))
    return HPolytope(np.vstack([P.H] + extra_A), np.concatenate([P.h] + extra_b))


def random_tilted_polytope(rng):
    """A random polytope with redundant rows and copies of its rows tilted by
    about 1e-3: the copies block the ray test, so rows reach their LPs."""
    d = int(rng.integers(2, 5))
    P = HPolytope(rng.normal(size=(6 * d, d)), rng.random(6 * d) + 0.5)
    lam = rng.random((4, P.nrows)) / P.nrows
    pick = rng.integers(0, P.nrows, 4)
    H = np.vstack([P.H, lam @ P.H, P.H[pick] + rng.normal(scale=1e-3, size=(4, d))])
    h = np.concatenate([P.h, lam @ P.h + rng.random(4) * 0.1, P.h[pick] + rng.normal(scale=1e-3, size=4)])
    return HPolytope(H, h)


# x0 <= 1 is irredundant (at x1 = -2 the diagonal allows x0 <= 3), but the
# diagonal x0 + x1 <= 1 meets the ray along e0 where x0 <= 1 does; the ray
# deflected off the diagonal, along (1, -1), leaves through x0 <= 1 alone
BLOCKED_RAY = ([[1, 0], [1, 1], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 0.6, 2])
# the same with x1 >= -2 replaced by x0 - x1 <= 2, which meets the deflected
# ray at (1, -1) where x0 <= 1 does: no ray keeps x0 <= 1, only an LP
DEFLECTED_BLOCKED = ([[1, 0], [1, 1], [-1, 0], [0, 1], [1, -1]], [1, 1, 1, 0.6, 2])


def own_row_certified(H, s):
    """The ray test with one ray per row that keeps only its own row: row
    ``i`` when its normal ray meets every other row more than
    ``_RAY_MARGIN`` after it."""
    G = H @ H.T
    np.fill_diagonal(G, 0.0)
    return (G * (s + polytope._RAY_MARGIN)[:, None] < s).all(axis=1)


class TestRayShotReduction:
    """The ray test only skips LPs whose answer it proves: the reduced rows
    and their order match an LP for every row."""

    def assert_same_reduction(self, P, monkeypatch, center=None):
        H, h = np.array(P.H), np.array(P.h)
        center = P.feasible_point() if center is None else center
        expected = reference_reduce(H, h, monkeypatch)
        got = polytope._reduce_arrays(H, h, center)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        H, h = polytope._dedupe(H, h)
        return polytope._ray_certified(H, h - H @ center)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_random_polytopes_match_lp_only(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        certified = left_open = 0
        for _ in range(12):
            Q = random_near_parallel_polytope(rng)
            if Q.is_empty:
                continue
            mask = self.assert_same_reduction(Q, monkeypatch)
            certified += int(mask.sum())
            left_open += int((~mask).sum())
        # both outcomes occurred, so the comparison means something
        assert certified > 0 and left_open > 0

    def assert_lps(self, H, h, lps, monkeypatch):
        """``_reduce_arrays`` from the origin matches the all-LP run bit for
        bit with ``lps`` LPs; returns the reduced rows."""
        expected = reference_reduce(H, h, monkeypatch)
        with monkeypatch.context() as patch:
            calls = count_lps(patch)
            got = polytope._reduce_arrays(H, h, np.zeros(H.shape[1]))
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        assert calls[0] == lps
        return got[0]

    def test_row_blocked_on_its_ray_is_kept_by_the_deflected_ray(self, monkeypatch):
        H, h = unit_rows(*BLOCKED_RAY)
        assert not own_row_certified(H, h)[0]
        assert polytope._ray_certified(H, h).all()  # the centre is the origin
        assert self.assert_lps(H, h, 0, monkeypatch).shape[0] == 5

    def test_row_blocked_on_both_rays_gets_one_lp(self, monkeypatch):
        H, h = unit_rows(*DEFLECTED_BLOCKED)
        assert polytope._ray_certified(H, h).tolist() == [False, True, True, True, True]
        assert self.assert_lps(H, h, 1, monkeypatch).shape[0] == 5

    def test_row_kept_by_another_rows_ray(self, monkeypatch):
        # the redundant row 2 x0 - x1 <= 4 added to the example above: its
        # ray leaves through x0 <= 1 at (1, -0.5) and meets x0 - x1 <= 2 only
        # at t = 1.49, so x0 <= 1 is kept without an LP, and the only LP
        # drops the new row
        H, h = unit_rows(DEFLECTED_BLOCKED[0] + [[2, -1]], DEFLECTED_BLOCKED[1] + [4])
        assert polytope._ray_certified(H, h).tolist() == [True, True, True, True, True, False]
        assert self.assert_lps(H, h, 1, monkeypatch).tolist() == H[:5].tolist()

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_exit_rows_settle_more_than_own_rows(self, seed, monkeypatch):
        # on polytopes with tilted row copies, which block rays, the rows
        # that rays leave through are a strict superset of the rows whose
        # own ray keeps them, and the reduction still matches the all-LP run
        rng = np.random.default_rng(seed)
        own = exit = 0
        for _ in range(12):
            Q = random_tilted_polytope(rng)
            if Q.is_empty:
                continue
            center = Q.feasible_point()
            H, h = polytope._dedupe(np.array(Q.H), np.array(Q.h))
            old, new = own_row_certified(H, h - H @ center), self.assert_same_reduction(Q, monkeypatch)
            assert not (old & ~new).any()
            own += int(old.sum())
            exit += int(new.sum())
        assert exit > own

    def test_flattened_blocked_ray_example_runs_every_lp(self, monkeypatch):
        # the example above flattened to the segment x0 = 0: no centre is
        # interior
        H, h = unit_rows(BLOCKED_RAY[0], [0, 1, 0, 0.6, 2])
        expected = reference_reduce(H, h, monkeypatch)
        calls = count_lps(monkeypatch)
        got = polytope._reduce_arrays(H, h, np.zeros(2))
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        assert calls[0] == 5

    def test_measure_zero_set_turns_check_off(self, monkeypatch):
        # a square flattened to the segment x0 = 0 by an equality pair
        P = HPolytope(
            np.vstack([np.eye(2), -np.eye(2), [[1.0, 0.0], [-1.0, 0.0]]]),
            np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]),
        )
        self.assert_same_reduction(P, monkeypatch)
        calls = count_lps(monkeypatch)
        polytope._reduce_arrays(np.array(P.H), np.array(P.h), P.feasible_point())
        assert calls[0] == polytope._dedupe(P.H, P.h)[0].shape[0]  # every row got its LP

    def test_row_irredundant_by_less_than_margin_reaches_lp(self, monkeypatch):
        # the diagonal row cuts the corner (1, 1) off by 5e-8: irredundant,
        # but by less than the ray margin
        diag = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        P = HPolytope(
            np.vstack([np.eye(2), -np.eye(2), diag]),
            np.array([1.0, 1.0, 1.0, 1.0, np.sqrt(2.0) - 5e-8]),
        )
        certified = self.assert_same_reduction(P, monkeypatch, center=np.zeros(2))
        assert not certified[4] and certified[:4].all()
        calls = count_lps(monkeypatch)
        H, _, _ = polytope._reduce_arrays(np.array(P.H), np.array(P.h), np.zeros(2))
        assert calls[0] == 1 and H.shape[0] == 5

    def test_reduce_rows_and_project_keep_lp_results(self, monkeypatch):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(30, 4))
        P = HPolytope(A, rng.random(30) + 0.3)
        for got, H in ((project(P, range(P.dim)), P.H), (project(P, [2, 0, 3, 1]), P.H[:, [2, 0, 3, 1]])):
            expected = HPolytope(*reference_reduce(np.array(H), np.array(P.h), monkeypatch)[:2])
            assert np.array_equal(got.H, expected.H) and np.array_equal(got.h, expected.h)


class TestWitnessReduction:
    """Rows the ray test finds no witness point for get at most one LP each,
    and the reduced rows, their order and their bits match an LP for every
    row."""

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_random_polytopes_match_lp_only(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        solved = 0
        for _ in range(12):
            Q = random_tilted_polytope(rng)
            if Q.is_empty:
                continue
            H, h = np.array(Q.H), np.array(Q.h)
            center = Q.feasible_point()
            expected = reference_reduce(H, h, monkeypatch)
            with monkeypatch.context() as patch:
                calls = count_lps(patch)
                got = polytope._reduce_arrays(H, h, center)
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()
            H, h = polytope._dedupe(H, h)
            assert calls[0] <= int((~polytope._ray_certified(H, h - H @ center)).sum())
            solved += calls[0]
        assert solved > 0  # rows reached their LPs, so the comparison means something


def box_heavy_system(rng, d):
    """Unit-norm rows, as ``HPolytope`` hands them to the reduction: axis rows
    around the origin with some sides missing, plus rows whose offsets sit
    at, just above, below or well above their support over the full box.
    The origin is interior."""
    lo, hi = -(0.5 + rng.random(d)), 0.5 + rng.random(d)
    rows, rhs = [], []
    for k in range(d):
        for sign, end in ((1.0, hi[k]), (-1.0, -lo[k])):
            if rng.random() < 0.15:
                continue  # one-sided: an infinite end
            row = np.zeros(d)
            row[k] = sign
            rows.append(row)
            rhs.append(end + rng.choice([0.0, 0.0, 0.1]))
    for _ in range(3 * d):
        a = rng.normal(size=d)
        a[rng.random(d) < 0.3] = 0.0
        if np.count_nonzero(a) < 2:
            continue
        a /= np.linalg.norm(a)
        support = np.sum(np.where(a > 0, a * hi, a * lo))
        rows.append(a)
        rhs.append(support + rng.choice([-0.1, 0.0, 1e-10, 0.05, 0.3]) * support)
    order = rng.permutation(len(rows))
    return np.array(rows)[order], np.array(rhs)[order]


class TestBoxReduction:
    """The box certificate only skips LPs whose answer it proves: the reduced
    rows, their order and their bits match an LP for every row."""

    def box_only(self, H, h, center, monkeypatch):
        """Reduce with the ray test off; returns the result and the LP
        count."""
        with monkeypatch.context() as patch:
            patch.setattr(polytope, "_ray_certified", lambda H, s: np.zeros(H.shape[0], dtype=bool))
            calls = count_lps(patch)
            return polytope._reduce_arrays(H, h, center), calls[0]

    def assert_same_reduction(self, H, h, center, monkeypatch):
        """Both certificates and the box alone agree with the all-LP run;
        returns the number of rows the box settled."""
        expected = reference_reduce(H, h, monkeypatch)
        boxed, lps = self.box_only(H, h, center, monkeypatch)
        for got in (boxed, polytope._reduce_arrays(H, h, center)):
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()
        return polytope._dedupe(H, h)[0].shape[0] - lps

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_random_axis_systems_match_lp_only(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        settled = 0
        for _ in range(25):
            d = int(rng.integers(1, 5))
            H, h = box_heavy_system(rng, d)
            if h.size > 1:
                settled += self.assert_same_reduction(H, h, np.zeros(d), monkeypatch)
        assert settled > 0  # the certificate fired, so the comparison means something

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_reduce_rows_and_project_match_lp_only(self, seed, monkeypatch):
        # random rows cut into a box; FM passes the box rows through unchanged
        def run(patch):
            rng = np.random.default_rng(seed)
            P = HPolytope(rng.normal(size=(12, 4)), rng.random(12) + 1.0)
            box = HPolytope.from_box(Hyperbox.cube(4, 1.0))
            P = HPolytope(np.vstack([P.H, box.H]), np.concatenate([P.h, box.h]))
            calls = count_lps(patch)
            return project(P, range(P.dim)), project(P, [2, 0]), calls[0]

        with monkeypatch.context() as patch:
            patch.setattr(polytope, "_box_implied", lambda *args: False)
            *expected, lps_without_box = run(patch)
        with monkeypatch.context() as patch:
            *got, lps = run(patch)
        for mine, ref in zip(got, expected):
            assert mine.H.tobytes() == ref.H.tobytes() and mine.h.tobytes() == ref.h.tobytes()
        assert lps < lps_without_box

    def test_axis_row_does_not_certify_itself(self, monkeypatch):
        # x0 <= 1 is irredundant (it cuts the corner (1.01, -1) off the tilted
        # row x0 + 0.01 x1 <= 1), and no other row bounds x0 from above; the
        # tilted row also stops the ray along e0, so the box is asked
        H, h = unit_rows([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0.01]], [1, 1, 1, 1, 1])
        assert not polytope._ray_certified(H, h)[0]
        assert self.assert_same_reduction(H, h, np.zeros(2), monkeypatch) == 0
        assert polytope._reduce_arrays(H, h, np.zeros(2))[0].shape[0] == 5

    def test_dropped_axis_row_bound_is_not_used(self, monkeypatch):
        # x0 <= 1 and 2 x0 <= 2 bound x0 from above at two scales, so both
        # survive deduplication (unit-norm rows, which every caller passes,
        # never put two rows in one slot).  The box never settles an axis
        # row, so all 5 rows get their LP: the first drops x0 <= 1 and frees
        # its slot, and 2 x0 <= 2 is then the only bound on x0 and stays.
        # The ray test (unit-norm rows) does not take these rows, so the box
        # runs alone here
        H = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
        expected = reference_reduce(H, h, monkeypatch)
        (got, got_h, _), lps = self.box_only(H, h, np.zeros(2), monkeypatch)
        assert got.tobytes() == expected[0].tobytes() and got_h.tobytes() == expected[1].tobytes()
        assert lps == 5 and got.tolist() == H[1:].tolist()

    def test_axis_row_dropped_by_its_lp_leaves_the_box(self, monkeypatch):
        # the tilted row x0 + 4e-10 x1 <= 1 + 4e-10 touches the corner (1, 1)
        # and allows x0 <= 1 + 8e-10 at x1 = -1, so the LP drops x0 <= 1
        # within its 1e-9; the tilted row is then the only bound on x0, and a
        # box that still held x0 <= 1 would drop it too
        eps = 4e-10
        H, h = unit_rows([[1, 0], [-1, 0], [0, 1], [0, -1], [1, eps]], [1, 1, 1, 1, 1 + eps])
        self.assert_same_reduction(H, h, np.zeros(2), monkeypatch)
        assert polytope._reduce_arrays(H, h, np.zeros(2))[0].tolist() == H[1:].tolist()

    def test_one_sided_bounds_need_their_finite_end(self, monkeypatch):
        # x0 is bounded only from above: x0 + x1 <= 3 has the ends it needs
        # and drops, -x0 + x1 <= 3 needs the missing lower end and gets its
        # LP, and x1 + x2 <= 3 has a zero on x0 and drops
        H, h = unit_rows(
            [[1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 0], [-1, 1, 0], [0, 1, 1]],
            [1, 1, 1, 1, 1, 3, 3, 3],
        )
        assert self.assert_same_reduction(H, h, np.zeros(3), monkeypatch) == 2
        assert polytope._reduce_arrays(H, h, np.zeros(3))[0].tolist() == H[[0, 1, 2, 3, 4, 6]].tolist()

    def test_row_implied_within_the_lp_tolerance_reaches_lp(self, monkeypatch):
        # the diagonal row's support over the square exceeds its offset by
        # 1e-10: the LP drops it (within 1e-9), the box does not settle it
        H, h = unit_rows([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 1, 1, 2 - 1e-10])
        assert self.assert_same_reduction(H, h, np.zeros(2), monkeypatch) == 0
        calls = count_lps(monkeypatch)
        assert polytope._reduce_arrays(H, h, np.zeros(2))[0].shape[0] == 4
        assert calls[0] == 1
        # the same for an axis row proven by another one at another scale
        H = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([1.0, 2.0 + 1e-10, 1.0, 1.0, 1.0])
        (got, _, _), lps = self.box_only(H, h, np.zeros(2), monkeypatch)
        assert got.tobytes() == reference_reduce(H, h, monkeypatch)[0].tobytes()
        assert lps == 5 and got.shape[0] == 4

    def test_measure_zero_set_gets_no_certificate(self, monkeypatch):
        # the segment x0 = 0 inside a square with a box-implied diagonal row:
        # no centre is interior, so every row gets its LP
        H, h = unit_rows([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [0, 0, 1, 1, 3])
        assert self.assert_same_reduction(H, h, np.zeros(2), monkeypatch) == 0
        calls = count_lps(monkeypatch)
        assert polytope._reduce_arrays(H, h, np.zeros(2))[0].shape[0] == 4
        assert calls[0] == 5


def flattened(Q, rng):
    """``Q`` cut to a measure-zero set by an equality pair through its
    feasible point along a random direction: no centre is interior."""
    a = rng.normal(size=Q.dim)
    b = a @ Q.feasible_point()
    return HPolytope(np.vstack([Q.H, a, -a]), np.concatenate([Q.h, [b, -b]]))


def reduction_inputs(rng):
    """Unit rows, offsets and a centre from every seeded family above: near-
    parallel and tilted copies from their feasible point, box-heavy systems
    from the origin, and measure-zero sets."""
    for family in (random_near_parallel_polytope, random_tilted_polytope):
        Q = family(rng)
        if not Q.is_empty:
            yield np.array(Q.H), np.array(Q.h), Q.feasible_point()
            F = flattened(Q, rng)
            if not F.is_empty:
                yield np.array(F.H), np.array(F.h), F.feasible_point()
    d = int(rng.integers(1, 5))
    H, h = box_heavy_system(rng, d)
    if h.size > 1:
        yield H, h, np.zeros(d)


def adversarial_rays(H, h, center, dropped, rng):
    """Named sets of carried directions for a reduction of ``(H, h)`` from
    ``center``: random unit directions, the rows' own normals, rays aimed
    at the rows the reduction drops (through a point of each such row's
    plane off its foot point, and at the point where the other rows let it
    reach furthest, where a row redundant within the LP tolerance is met
    first), all of them twice, and near-zero vectors."""
    d = H.shape[1]
    R = rng.normal(size=(2 * H.shape[0], d))
    random = R / np.linalg.norm(R, axis=1)[:, None]
    s = h[dropped] - H[dropped] @ center
    aimed = [s[:, None] * H[dropped] + rng.normal(scale=0.3, size=(dropped.size, d))]
    for i in dropped:
        res = lp.linprog_max(H[i], np.delete(H, i, axis=0), np.delete(h, i))
        if res.status is lp.LPStatus.OPTIMAL:
            aimed.append((res.point - center)[None, :])
    aimed = np.vstack(aimed)
    aimed = aimed[np.linalg.norm(aimed, axis=1) > 1e-9]
    aimed /= np.linalg.norm(aimed, axis=1)[:, None]
    everything = np.vstack([random, H, aimed])
    return {
        "random": random,
        "normals": np.array(H),
        "aimed": aimed,
        "duplicated": np.vstack([everything, everything]),
        "near_zero": np.vstack([1e-12 * random, np.zeros((1, d)), 1e-300 * H]),
    }


def reduce_counted(H, h, center, rays, monkeypatch, certificates=None):
    """``_reduce_arrays`` with ``rays`` and ``certificates`` carried in (no
    carry when ``rays`` is None); returns the result and the number of LPs
    it solved."""
    carry = None if rays is None else (rays, certificates or {})
    with monkeypatch.context() as patch:
        calls = count_lps(patch)
        return polytope._reduce_arrays(H, h, center, carry), calls[0]


class TestCarriedRays:
    """Carried rays only skip LPs whose answer they prove: whatever their
    directions, the reduced rows, their order and their bits are those of
    the reduction without them."""

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_adversarial_directions_change_no_bit(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        saved = kinds = 0
        for _ in range(6):
            for H, h, center in reduction_inputs(rng):
                expected, lps = reduce_counted(H, h, center, None, monkeypatch)
                Hd, hd = polytope._dedupe(H, h)
                kept = {row.tobytes() for row in expected[0]}
                dropped = np.array([i for i in range(Hd.shape[0]) if Hd[i].tobytes() not in kept], dtype=int)
                for name, rays in adversarial_rays(Hd, hd, center, dropped, rng).items():
                    got, carried_lps = reduce_counted(H, h, center, rays, monkeypatch)
                    assert got[0].tobytes() == expected[0].tobytes(), name
                    assert got[1].tobytes() == expected[1].tobytes(), name
                    # at most one ray per kept row: each settled a row or
                    # witnesses a row an LP kept
                    assert got[2][0].shape[0] <= got[0].shape[0], name
                    assert carried_lps <= lps, name
                    saved += lps - carried_lps
                    kinds += 1
        assert kinds > 100 and saved > 0  # carried rays settled rows

    def test_ray_through_a_row_redundant_within_the_lp_tolerance(self, monkeypatch):
        # the diagonal row cuts the corner (1, 1) off the square by 3.5e-10
        # along its normal: the LP drops it (within 1e-9), although a ray
        # aimed at the corner leaves through it alone, by a gap of 3.5e-10,
        # below the margin
        H, h = unit_rows([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 1, 1, 2 - 5e-10])
        corner = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        first, _, _, gap = polytope._first_hits(H, h, corner)
        assert first[0] == 4 and 0.0 < gap[0] < polytope._RAY_MARGIN
        expected = reference_reduce(H, h, monkeypatch)
        got, lps = reduce_counted(H, h, np.zeros(2), np.vstack([corner, corner]), monkeypatch)
        assert got[0].tobytes() == expected[0].tobytes() and got[1].tobytes() == expected[1].tobytes()
        assert got[0].shape[0] == 4 and lps == 1

    def test_no_interior_center_shoots_no_carried_ray(self, monkeypatch):
        # the segment x0 = 0: every row gets its LP, the carried rays are
        # never shot and no witness comes back
        H, h = unit_rows(BLOCKED_RAY[0], [0, 1, 0, 0.6, 2])
        rays = np.vstack([H, np.eye(2)])
        shot = []
        hits = polytope._first_hits
        monkeypatch.setattr(polytope, "_first_hits", lambda H, s, R: shot.append(R) or hits(H, s, R))
        got, lps = reduce_counted(H, h, np.zeros(2), rays, monkeypatch)
        assert shot == [] and lps == 5 and got[2][0].shape == (0, 2)
        assert got[0].tobytes() == reference_reduce(H, h, monkeypatch)[0].tobytes()

    def test_lp_witness_settles_its_row_next_time(self, monkeypatch):
        # the one LP of DEFLECTED_BLOCKED keeps x0 <= 1 at (1.5, -0.5); the
        # ray from the origin towards it leaves through x0 <= 1 alone, so
        # carried into the same reduction it saves that LP and is carried on
        H, h = unit_rows(*DEFLECTED_BLOCKED)
        first, lps = reduce_counted(H, h, np.zeros(2), np.empty((0, 2)), monkeypatch)
        assert lps == 1 and first[2][0].shape == (1, 2)
        assert np.allclose(first[2][0][0], np.array([1.5, -0.5]) / np.hypot(1.5, 0.5))
        again, lps = reduce_counted(H, h, np.zeros(2), first[2][0], monkeypatch)
        assert lps == 0 and again[2][0].tobytes() == first[2][0].tobytes()
        assert again[0].tobytes() == first[0].tobytes() and again[1].tobytes() == first[1].tobytes()
        # a reduction that carries nothing collects nothing
        assert polytope._reduce_arrays(H, h, np.zeros(2))[2] is None

    def test_projection_keeps_its_rays_with_its_center(self):
        # each ray is a unit vector in the kept coordinates; a result with
        # no interior centre keeps no ray (its certificates still go on)
        rng = np.random.default_rng(10)
        P = HPolytope(rng.normal(size=(18, 4)), rng.random(18) + 0.5)
        R = project(P, [0, 2, 3])
        rays = R._carry[0]
        assert R._ray_center is not None and rays.shape[1] == 3 and rays.shape[0] <= R.nrows
        assert np.all(np.abs(np.linalg.norm(rays, axis=1) - 1.0) <= 1e-12)
        seg = HPolytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [0, 0, 1, 1, 1, 1])
        assert project(seg, [0, 1])._carry[0].shape == (0, 2)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_prior_rays_change_no_projection_bit(self, seed, monkeypatch):
        # a prior lends its centre, rays and drop certificates to the last
        # elimination step: the rows are those of the projection without
        # the prior
        rng = np.random.default_rng(seed)
        for _ in range(6):
            P = HPolytope(rng.normal(size=(16, 4)), rng.random(16) + 0.5)
            R = project(P, [1, 3])
            Q = HPolytope(P.H + rng.normal(scale=0.05, size=P.H.shape), P.h)
            expected = project(Q, [1, 3])
            got = project(Q, [1, 3], R)
            assert got.H.tobytes() == expected.H.tobytes() and got.h.tobytes() == expected.h.tobytes()


def interior_reduction(H, h, center):
    """True when ``_reduce_arrays`` sees ``center`` as interior, so that it
    uses carried certificates."""
    Hd, hd = polytope._dedupe(H, h)
    return Hd.shape[0] > 1 and (hd - Hd @ center).min() > polytope._RAY_MARGIN


# the diagonal row cuts 7e-11 off the corner (1, 1) of the square along its
# normal: the box does not settle it and its LP drops it within 1e-9, by a
# certificate on x0 <= 1 and x1 <= 1 that exceeds its offset by 7e-11
CORNER_WITHIN_TOL = ([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 1, 1, 2 - 1e-10])


class TestCarriedCertificates:
    """A carried drop certificate only skips an LP whose answer it proves:
    given any certificates, the reduced rows, their order and their bits are
    those of the reduction without them, and a certificate that does not
    hold today leaves its row to the LP."""

    def first_reduction(self, H, h, center, monkeypatch):
        """The reduction collecting rays and certificates from nothing; its
        result and LP count."""
        return reduce_counted(H, h, center, np.empty((0, H.shape[1])), monkeypatch)

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_second_reduction_changes_no_bit(self, seed, monkeypatch):
        # the same rows again with the first reduction's certificates: every
        # row an LP dropped is dropped by its certificate, unless no centre
        # is interior (measure-zero sets), and the same rows keep one each
        rng = np.random.default_rng(seed)
        saved = flat = 0
        for _ in range(6):
            for H, h, center in reduction_inputs(rng):
                expected, lps = self.first_reduction(H, h, center, monkeypatch)
                certificates = expected[2][1]
                got, carried_lps = reduce_counted(
                    H, h, center, np.empty((0, H.shape[1])), monkeypatch, certificates
                )
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
                assert got[2][1].keys() == certificates.keys()
                if interior_reduction(H, h, center):
                    assert carried_lps == lps - len(certificates)
                else:
                    assert carried_lps == lps
                    flat += len(certificates) > 0
                saved += lps - carried_lps
        assert saved > 0 and flat > 0  # both cases occurred

    def test_certificate_drops_a_row_redundant_within_the_lp_tolerance(self, monkeypatch):
        H, h = unit_rows(*CORNER_WITHIN_TOL)
        first, lps = self.first_reduction(H, h, np.zeros(2), monkeypatch)
        assert lps == 1 and first[0].shape[0] == 4
        [(names, y)] = first[2][1].values()
        assert sorted(names) == sorted(polytope._row_keys(H[:2]))
        assert h[4] < y @ h[:2] <= h[4] + polytope._RED_TOL
        again, lps = reduce_counted(H, h, np.zeros(2), np.empty((0, 2)), monkeypatch, first[2][1])
        assert lps == 0 and again[0].tobytes() == first[0].tobytes()

    def adversarial_certificates(self, H, h, genuine):
        """Certificates for row 4 of ``CORNER_WITHIN_TOL`` that must not
        settle it, built from its genuine one: each names rows that are not
        all kept, or fails the bound or the sign test."""
        names, y = genuine
        square = np.vstack([H[:4], [[0.6, 0.8]]])
        over = (h[4] + polytope._RED_TOL + 1e-12) / (y @ h[:2])
        return {
            "missing_row": (names + polytope._row_keys(square[4:]), np.append(y, 0.0)),
            "own_row": (names + polytope._row_keys(H[4:]), np.append(y, 0.0)),
            "own_row_alone": (polytope._row_keys(H[4:]), np.ones(1)),
            "bound_above_tolerance": (names, y * over),
            "negative_multiplier": (names + polytope._row_keys(H[2:3]), np.append(y, -1e-3)),
        }

    def test_adversarial_certificates_fall_back_to_the_lp(self, monkeypatch):
        H, h = unit_rows(*CORNER_WITHIN_TOL)
        first, _ = self.first_reduction(H, h, np.zeros(2), monkeypatch)
        [key] = first[2][1]
        certs = self.adversarial_certificates(H, h, first[2][1][key])
        names, y = certs["bound_above_tolerance"]
        assert y @ h[:2] > h[4] + polytope._RED_TOL
        for name, cert in certs.items():
            got, lps = reduce_counted(H, h, np.zeros(2), np.empty((0, 2)), monkeypatch, {key: cert})
            assert lps == 1, name
            assert got[0].tobytes() == first[0].tobytes() and got[1].tobytes() == first[1].tobytes()
            # the LP's own certificate replaces the one that failed
            assert got[2][1][key][0] == first[2][1][key][0], name

    def test_certificate_naming_a_row_dropped_earlier_falls_back(self, monkeypatch):
        # the first example of the DEBUG record below: the box drops
        # x0 - x1 <= 5 (row 5) before the LP drops 0.5 x0 + x1 <= 0.9 (row
        # 6); a certificate for row 6 that also names row 5 leaves it to the LP
        H, h = unit_rows(BLOCKED_RAY[0] + [[1, -1], [0.5, 1]], BLOCKED_RAY[1] + [5, 0.9])
        first, lps = self.first_reduction(H, h, np.zeros(2), monkeypatch)
        assert lps == 1 and first[0].shape[0] == 5
        [(key, (names, y))] = first[2][1].items()
        assert key == polytope._row_keys(H[6:])[0]
        for cert, expected_lps in (((names, y), 0), ((names + polytope._row_keys(H[5:6]), np.append(y, 0.0)), 1)):
            got, lps = reduce_counted(H, h, np.zeros(2), np.empty((0, 2)), monkeypatch, {key: cert})
            assert lps == expected_lps
            assert got[0].tobytes() == first[0].tobytes() and got[1].tobytes() == first[1].tobytes()

    def test_axis_row_dropped_by_a_certificate_leaves_the_box(self, monkeypatch):
        # the tilted row x0 + 4e-10 x1 <= 1 + 4e-10 proves x0 <= 1 within
        # 1e-9 (with x1 >= -1); once x0 <= 1 is dropped the tilted row is the
        # only bound on x0, and a box that still held x0 <= 1 would drop it
        eps = 4e-10
        H, h = unit_rows([[1, 0], [-1, 0], [0, 1], [0, -1], [1, eps]], [1, 1, 1, 1, 1 + eps])
        first, lps = self.first_reduction(H, h, np.zeros(2), monkeypatch)
        assert lps == 2 and first[0].tolist() == H[1:].tolist()
        assert list(first[2][1]) == polytope._row_keys(H[:1])
        again, lps = reduce_counted(H, h, np.zeros(2), np.empty((0, 2)), monkeypatch, first[2][1])
        assert lps == 1
        assert again[0].tobytes() == first[0].tobytes() and again[1].tobytes() == first[1].tobytes()

    def test_no_interior_center_uses_no_certificate(self, monkeypatch):
        # the segment x0 = 0 inside a square with a redundant diagonal row:
        # the kept rows might be infeasible within the tolerance, where an
        # LP would say so, so every row gets its LP; the certificates
        # collected there are still handed on
        H, h = unit_rows([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [0, 0, 1, 1, 3])
        first, lps = self.first_reduction(H, h, np.zeros(2), monkeypatch)
        assert lps == 5 and first[0].shape[0] == 4 and len(first[2][1]) == 1
        again, lps = reduce_counted(H, h, np.zeros(2), np.empty((0, 2)), monkeypatch, first[2][1])
        assert lps == 5 and again[0].tobytes() == first[0].tobytes()
        assert again[2][1].keys() == first[2][1].keys()

    def test_projection_hands_its_certificates_on(self, monkeypatch):
        # a projection keeps the certificates of its last reduction, and the
        # same projection with it as the prior drops those rows without LPs
        rng = np.random.default_rng(3)
        P = HPolytope(rng.normal(size=(16, 4)), rng.random(16) + 0.5)
        with monkeypatch.context() as patch:
            calls = count_lps(patch)
            R = project(P, [1, 3])
            lps = calls[0]
        certificates = R._carry[1]
        assert len(certificates) > 0
        with monkeypatch.context() as patch:
            calls = count_lps(patch)
            again = project(P, [1, 3], R)
        assert again.H.tobytes() == R.H.tobytes() and again.h.tobytes() == R.h.tobytes()
        assert calls[0] <= lps - len(certificates)
        assert again._carry[1].keys() == certificates.keys()


def test_reduction_logs_one_debug_record_per_call(caplog):
    # the blocked-ray example plus a row the box drops and a row that only
    # an LP drops (0.5 x0 + x1 <= 0.8 holds on the set)
    H, h = unit_rows(BLOCKED_RAY[0] + [[1, -1], [0.5, 1]], BLOCKED_RAY[1] + [5, 0.9])
    with caplog.at_level(logging.DEBUG, logger="previewsafe.geometry"):
        polytope._reduce_arrays(H, h, np.zeros(2))
    [record] = caplog.records
    assert record.name == "previewsafe.geometry" and record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "reduce: 7 rows in, 7 after dedupe; settled by ray 5 (0 carried), box 1, certificate 0, "
        "LP 1; 5 rows out"
    )
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="previewsafe.geometry"):
        polytope._reduce_arrays(H, h, np.zeros(2))
    assert caplog.records == []
    # the witness of the LP that keeps x0 <= 1 of DEFLECTED_BLOCKED, carried
    # into the same reduction, settles that row: the ray count holds it
    H, h = unit_rows(*DEFLECTED_BLOCKED)
    with caplog.at_level(logging.DEBUG, logger="previewsafe.geometry"):
        witnesses = polytope._reduce_arrays(H, h, np.zeros(2), (np.empty((0, 2)), {}))[2]
        polytope._reduce_arrays(H, h, np.zeros(2), witnesses)
    assert [r.getMessage() for r in caplog.records] == [
        "reduce: 5 rows in, 5 after dedupe; settled by ray 4 (0 carried), box 0, certificate 0, "
        "LP 1; 5 rows out",
        "reduce: 5 rows in, 5 after dedupe; settled by ray 5 (1 carried), box 0, certificate 0, "
        "LP 0; 5 rows out",
    ]
    # the certificate of the LP that drops 0.5 x0 + x1 <= 0.9 of the first
    # example, carried into the same reduction, drops that row again
    H, h = unit_rows(BLOCKED_RAY[0] + [[1, -1], [0.5, 1]], BLOCKED_RAY[1] + [5, 0.9])
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="previewsafe.geometry"):
        carry = polytope._reduce_arrays(H, h, np.zeros(2), (np.empty((0, 2)), {}))[2]
        polytope._reduce_arrays(H, h, np.zeros(2), carry)
    assert [r.getMessage() for r in caplog.records][1] == (
        "reduce: 7 rows in, 7 after dedupe; settled by ray 5 (0 carried), box 1, certificate 1, "
        "LP 0; 5 rows out"
    )


REDUCE_RECORD = re.compile(
    r"reduce: (\d+) rows in, (\d+) after dedupe; settled by ray (\d+) \((\d+) carried\), box (\d+), "
    r"certificate (\d+), LP (\d+); (\d+) rows out"
)


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_reduction_record_counts_add_up(seed, caplog):
    # every deduplicated row is settled once, by a ray (carried or not), the
    # box, a carried certificate or an LP, in every reduction that returns
    # rows (an infeasible one stops early): the random families above
    # projected onto every coordinate and onto two coordinates, each
    # projection again with the first as its prior (whose rays and
    # certificates it carries), and box-heavy systems directly
    rng = np.random.default_rng(seed)
    with caplog.at_level(logging.DEBUG, logger="previewsafe.geometry"):
        for _ in range(8):
            for family in (random_near_parallel_polytope, random_tilted_polytope):
                Q = family(rng)
                if not Q.is_empty:
                    project(Q, range(Q.dim))
                    project(Q, [1, 0], project(Q, [1, 0]))
            d = int(rng.integers(1, 5))
            H, h = box_heavy_system(rng, d)
            polytope._reduce_arrays(H, h, np.zeros(d))
    counts = [[int(v) for v in REDUCE_RECORD.fullmatch(r.getMessage()).groups()] for r in caplog.records]
    assert len(counts) > 40
    for rows_in, deduped, ray, carried, box, dual, lps, rows_out in counts:
        assert deduped <= rows_in and rows_out <= deduped and carried <= ray
        assert rows_out == 0 or ray + box + dual + lps == deduped
    assert all(sum(c[k] for c in counts) > 0 for k in (2, 3, 4, 5, 6))  # each check settled rows


class TestContainment:
    def test_shared_row_with_larger_offset_is_not_contained(self):
        outer = HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0])
        inner = HPolytope.from_bounds([-1.0, -1.0], [1.5, 1.0])
        assert not contains_set(outer, inner)
        assert contains_set(inner, outer)

    def test_shared_row_certifies_unbounded_inner(self, monkeypatch):
        outer = HPolytope([[1.0, 0.0]], [1.0])
        # unbounded in y; shares outer's row, with -0.0 where outer has 0.0
        inner = HPolytope([[1.0, -0.0], [0.0, -1.0]], [0.5, 0.0])
        assert not inner.is_empty
        calls = count_lps(monkeypatch)
        assert contains_set(outer, inner)
        assert calls[0] == 0
        assert not contains_set(inner, outer)

    def test_shared_row_within_tolerance(self):
        outer = HPolytope.from_bounds([-1.0], [1.0])
        assert contains_set(outer, HPolytope.from_bounds([-1.0], [1.0 + 5e-7]))
        assert not contains_set(outer, HPolytope.from_bounds([-1.0], [1.0 + 2e-6]))

    def test_basic(self):
        assert contains_set(HPolytope.from_bounds([-1], [1]), HPolytope.from_bounds([-0.8], [0.8]))
        assert not contains_set(HPolytope.from_bounds([-0.5], [0.5]), HPolytope.from_bounds([-0.8], [0.8]))

    def test_set_equal_redundant_rows(self):
        box = HPolytope.from_box(Hyperbox.cube(2, 1.0))
        rot = HPolytope(
            np.vstack([box.H, [[0.7071067811865476, 0.7071067811865476]]]),
            np.concatenate([box.h, [2.0]]),
        )
        assert set_equal(box, rot)

    def test_is_empty(self):
        assert HPolytope([[1.0], [-1.0]], [-1.0, -1.0]).is_empty
        assert not HPolytope.from_bounds([0], [0]).is_empty

    def test_contains_point(self):
        seg = HPolytope([[1, -1], [-1, 1], [1, 0], [-1, 0]], [0, 0, 1, 1])
        assert seg.contains([0.5, 0.5])
        assert not seg.contains([0.5, 0.4])

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_partial_order(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(15):
            dim = int(rng.integers(1, 4))
            inner = Hyperbox.from_bounds(-rng.random(dim), rng.random(dim))
            mid = Hyperbox.from_bounds(inner.lo - rng.random(dim), inner.hi + rng.random(dim))
            outer = Hyperbox.from_bounds(mid.lo - rng.random(dim), mid.hi + rng.random(dim))
            A, B, C = (HPolytope.from_box(s) for s in (inner, mid, outer))
            assert contains_set(A, A)  # reflexive
            assert contains_set(B, A) and contains_set(C, B) and contains_set(C, A)  # transitive chain
            if contains_set(A, B):
                assert set_equal(A, B)  # antisymmetry under set_equal


def reference_contains_set(outer, inner, tol=polytope.EPS_SET):
    """``contains_set`` with its shared-row keys built one row at a time:
    each row's own ``tobytes()`` and each offset read as a numpy scalar."""
    if inner.is_empty:
        return True
    shared: dict = {}
    for row, offset in zip(inner.H + 0.0, inner.h):
        key = row.tobytes()
        shared[key] = min(offset, shared.get(key, np.inf))
    rows = [
        i for i in range(outer.nrows)
        if not shared.get((outer.H[i] + 0.0).tobytes(), np.inf) <= outer.h[i] + tol
    ]
    c = inner._ray_center
    if c is not None and rows:
        A = outer.H[rows]
        t1 = polytope._first_hits(inner.H, inner.h - inner.H @ c, A)[2]
        if np.any(A @ c + t1 > outer.h[rows] + tol + polytope._RAY_MARGIN):
            return False
    for i in rows:
        try:
            s = inner.support(outer.H[i])
        except UnboundedError:
            return False
        if s > outer.h[i] + tol:
            return False
    return True


def shared_row_pairs(rng):
    """Outer and inner polytopes with rows in common: signed zeros on either
    side, inner rows repeated at several offsets, and offsets at, just past
    and just short of ``h + tol``."""
    tol = polytope.EPS_SET
    at = 1.0 + tol
    yield HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0]), HPolytope([[1.0, -0.0], [-1.0, 0.0], [-0.0, 1.0], [0.0, -1.0]], [1.0, 0.5, 0.5, 0.5])
    yield HPolytope([[1.0, -0.0], [-1.0, -0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0]), HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0])
    for offset in (at, np.nextafter(at, np.inf), np.nextafter(at, -np.inf)):
        yield HPolytope.from_bounds([-1.0], [1.0]), HPolytope([[1.0], [-1.0]], [offset, 0.5])
    for offsets in ([2.0, 0.5], [0.5, 2.0], [2.0, at], [at, 3.0], [1.5, 1.5]):
        yield HPolytope.from_bounds([-1.0], [1.0]), HPolytope([[1.0], [-1.0], [1.0]], [offsets[0], 0.5, offsets[1]])
    for _ in range(40):
        d = int(rng.integers(1, 4))
        H = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(int(rng.integers(1, 6)), d))
        H = np.vstack([np.eye(d), -np.eye(d), H[np.abs(H).sum(axis=1) > 0]])
        outer_h = rng.choice([0.5, 1.0, 2.0], size=H.shape[0])
        pick = rng.integers(0, H.shape[0], size=H.shape[0] + 2)
        inner_H = H[pick]
        inner_H[(inner_H == 0.0) & (rng.random(inner_H.shape) < 0.5)] = -0.0
        inner_h = outer_h[pick] + rng.choice([-0.5, 0.0, tol, 2 * tol, 1.0], size=pick.size)
        yield HPolytope(H, outer_h), HPolytope(inner_H, inner_h)


class TestContainmentSharedRows:
    """Shared-row keys sliced from one buffer give the per-row version's
    verdict with the same LPs."""

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_matches_per_row_keys(self, seed, monkeypatch):
        skipped = 0
        for outer, inner in shared_row_pairs(np.random.default_rng(seed)):
            verdicts = []
            for check in (contains_set, reference_contains_set):
                # fresh copies, so that no support is memoized between the two
                o, i = HPolytope(outer.H, outer.h), HPolytope(inner.H, inner.h)
                with monkeypatch.context() as patch:
                    calls = count_lps(patch)
                    verdicts.append((check(o, i), calls[0]))
            assert verdicts[0] == verdicts[1]
            # "contained" after at most one LP per outer row, the emptiness
            # LP included, means a shared row was skipped
            skipped += verdicts[0][0] and verdicts[0][1] <= outer.nrows
        assert skipped > 0

    def test_offset_at_h_plus_tol_is_shared(self, monkeypatch):
        outer = HPolytope.from_bounds([-1.0], [1.0])
        at = 1.0 + polytope.EPS_SET
        inner = HPolytope([[1.0], [-1.0], [1.0]], [3.0, 1.0, at])
        assert not inner.is_empty
        calls = count_lps(monkeypatch)
        # the smallest offset of a repeated row is the one that counts
        assert contains_set(outer, inner)
        assert calls[0] == 0
        assert not contains_set(outer, HPolytope([[1.0], [-1.0]], [np.nextafter(at, np.inf), 1.0]))


def projected_pair(seed, shift, scale):
    """Two projections of one random polytope onto its first two
    coordinates, the second scaled by ``scale`` and moved by ``shift``;
    built afresh on each call, so that no support is memoized."""
    rng = np.random.default_rng(seed)
    H, h = rng.normal(size=(12, 3)), rng.random(12) + 0.5
    P = HPolytope(H, h)
    Q = HPolytope(H, scale * h + H[:, :2] @ shift)
    return project(P, [0, 1]), project(Q, [0, 1])


class TestContainmentRay:
    """The ray from the inner set's interior point only skips LPs whose
    answer it proves: the verdict is the one with ``_ray_center`` cleared,
    with no more LPs."""

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_verdict_matches_lps_only(self, seed, monkeypatch):
        fewer = 0
        cases = [
            (np.zeros(2), 0.5, True),  # nested
            (np.array([0.3, -0.2]), 1.0, None),  # overlapping
            (np.array([50.0, 50.0]), 1.0, False),  # disjoint
        ]
        for shift, scale, nested in cases:
            for order in (0, 1):
                verdicts = []
                for cleared in (False, True):
                    pair = projected_pair(seed, shift, scale)
                    outer, inner = pair if order == 0 else pair[::-1]
                    assert inner._ray_center is not None
                    if cleared:
                        inner._ray_center = None
                    with monkeypatch.context() as patch:
                        calls = count_lps(patch)
                        verdicts.append((contains_set(outer, inner), calls[0]))
                (got, lps), (expected, lps_without) = verdicts
                assert got == expected and lps <= lps_without
                fewer += lps < lps_without
                if nested is not None and order == 0:
                    assert got is nested
        assert fewer > 0  # the ray settled a verdict, so the comparison means something

    def test_unbounded_inner_fails_without_an_lp(self, monkeypatch):
        # the half-plane x <= 1 leaves the box through y without a row
        inner = project(HPolytope([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, 1.0, 1.0]), [0, 1])
        assert inner._ray_center is not None
        calls = count_lps(monkeypatch)
        assert not contains_set(HPolytope.from_bounds([-5.0, -5.0], [5.0, 5.0]), inner)
        assert calls[0] == 0


class TestNonFiniteData:
    def test_minus_inf_offset_is_empty(self):
        # used to report nonempty
        P = HPolytope([[1.0], [-1.0]], [1.0, -np.inf])
        assert P.is_empty
        assert P.nrows == 1 and not P.H.any() and P.h[0] == -1.0

    def test_nan_offset_raises(self):
        # used to report nonempty while its support raised EmptySetError
        with pytest.raises(ValueError):
            HPolytope([[1.0], [-1.0]], [1.0, np.nan])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_normal_raises(self, bad):
        with pytest.raises(ValueError):
            HPolytope([[1.0, bad], [-1.0, 0.0]], [1.0, 1.0])

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_row_whose_squares_overflow_keeps_its_halfspace(self, scale):
        # the squares of these entries overflow (at 1e308 the norm itself
        # does); the row describes the halfspace of the row scaled down by
        # `scale`, and the other row keeps its bits
        row, other = np.array([1.0, -1.5, 0.25]), np.array([0.3, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            P = HPolytope([row * scale, other], [0.5 * scale, 2.0])
        Q = HPolytope([row, other], [0.5, 2.0])
        assert np.allclose(P.H, Q.H, rtol=0, atol=1e-15) and np.allclose(P.h, Q.h, rtol=1e-15, atol=0)
        assert np.abs(np.linalg.norm(P.H, axis=1) - 1.0).max() <= 1e-15
        assert P.H[1].tobytes() == Q.H[1].tobytes() and P.h[1] == Q.h[1]
        rng = np.random.default_rng(3)
        for z in rng.uniform(-2.0, 2.0, size=(200, 3)):
            assert P.contains(z, tol=0.0) == Q.contains(z, tol=0.0) == (row @ z <= 0.5 and other @ z <= 2.0)


class TestIdempotentRows:
    """Rows are normalized once: a set rebuilt from its own rows keeps every
    bit, however many constructions its rows went through."""

    def test_random_rows_keep_their_bits(self):
        rng = np.random.default_rng(20)
        rows, k = 0, 252
        for d in range(2, 201):
            for sparse in (False, True):
                H = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
                if sparse:
                    H *= rng.random((k, d)) < 0.2
                    H[np.arange(k), rng.integers(0, d, k)] = rng.standard_normal(k)
                P = HPolytope(H, rng.uniform(-10.0, 10.0, k))
                Q = HPolytope(P.H, P.h)
                assert Q.H.tobytes() == P.H.tobytes() and Q.h.tobytes() == P.h.tobytes(), (d, sparse)
                rows += P.nrows
        assert rows >= 100_000

    def test_only_rows_off_unit_norm_are_divided(self):
        # a row one ulp off unit norm keeps its bits and its offset; a row
        # off by 1e-14 is divided by its norm
        near, off = np.array([0.6, 0.8]) * (1 + 2.3e-16), np.array([0.6, 0.8]) * (1 + 1e-14)
        P = HPolytope([near, off], [0.7, 0.7])
        assert P.H[0].tobytes() == near.tobytes() and P.h[0] == 0.7
        assert np.abs(np.linalg.norm(P.H[1]) - 1.0) < 1e-15 and P.h[1] < 0.7

    def test_unit_rows_are_copied_not_shared(self):
        # rows of unit norm are not divided, so no division makes the copy
        H, h = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
        P = HPolytope(H, h)
        H[0, 0], h[0] = 5.0, 5.0
        assert P.H[0, 0] == 1.0 and P.h[0] == 1.0


class TestVolume:
    def test_box_exact(self):
        assert volume(Hyperbox.cube(3, 1.0)) == 8.0

    def test_triangle_monte_carlo(self):
        tri = HPolytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        v = volume(tri, seed=0, samples=1_000_000)
        assert v == pytest.approx(0.5, abs=0.01)

    def test_empty_zero(self):
        assert volume(HPolytope.empty(2)) == 0.0

    def test_degenerate_zero(self):
        seg = HPolytope([[1, -1], [-1, 1], [1, 0], [-1, 0]], [0, 0, 1, 1])
        assert volume(seg, seed=1, samples=10_000) == 0.0

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedError):
            volume(HPolytope([[1.0, 0.0]], [1.0]), seed=0, samples=100)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_raise(self, samples):
        # 0 used to divide by zero and -5 to return -0.0
        tri = HPolytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        with pytest.raises(ValueError):
            volume(tri, seed=0, samples=samples)

    def test_deterministic(self):
        tri = HPolytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        assert volume(tri, seed=42, samples=20_000) == volume(tri, seed=42, samples=20_000)


class TestSerialization:
    def test_roundtrip_polytope(self):
        P = HPolytope([[1.0, 2.0], [-1.0, 0.5]], [0.3, 1.7])
        Q = HPolytope.from_json(P.to_json())
        assert np.allclose(P.H, Q.H) and np.allclose(P.h, Q.h)

    def test_roundtrip_box(self):
        B = Hyperbox.from_bounds([-1, 0], [1, 2])
        C = Hyperbox.from_json(B.to_json())
        assert B == C
        empty = HPolytope.empty(3).bounding_box()
        assert Hyperbox.from_json(empty.to_json()) == empty

    @pytest.mark.parametrize("dim", [True, 2.9, 0, "2"])
    def test_empty_box_dim_must_be_a_positive_integer(self, dim):
        # 2.9 used to be read as 2 and true as 1
        with pytest.raises(ValueError, match="positive integer"):
            Hyperbox.from_json({"empty": True, "dim": dim})
