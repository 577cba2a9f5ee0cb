from dataclasses import replace

import numpy as np
import pytest

from conftest import cross_polytope, random_valid_problem
from previewsafe.brunovsky import (
    BrunovskyInvariant,
    InvariantConstraint,
    _stack_shift,
    bhat,
    closed_form,
    collapse,
    controller_g,
    evariant_membership,
    largest_c,
    membership,
    nonempty_ineq,
    nonempty_vertex,
    preview_stack,
    projection_identity,
    tail_box,
    to_hpolytope,
    vertex_interval,
)
from previewsafe.errors import EmptyInvariantError, InvalidParametersError
from previewsafe.geometry import (
    HPolytope,
    Hyperbox,
    box_vertices,
    convex_weights,
    set_equal,
)
from previewsafe.invariance import admissible_inputs, is_invariant, method1
from previewsafe.systems import BrunovskyProblem, augment, evariant


def cube_problem(n, c, p, halfwidth=1.0):
    return BrunovskyProblem.create(
        n, Hyperbox.cube(n, halfwidth), Hyperbox.cube(n, c), p
    )


def sample_dist(rng, prob, shrink=0.999):
    """Rejection-sample from the true disturbance set (not just its box)."""
    for _ in range(1000):
        d = rng.uniform(prob.dist_box.lo, prob.dist_box.hi) * shrink
        if prob.dist.contains(d, 1e-12):
            return d
    return np.zeros(prob.n)


class TestNonemptyVertex:
    def test_n10_p6_feasible(self):
        assert nonempty_vertex(cube_problem(10, 0.2, 6))

    @pytest.mark.parametrize("p", [0, 3, 6, 10, 15, 20])
    def test_supercritical_always_empty(self, p):
        assert not nonempty_vertex(cube_problem(10, 0.23, p))

    def test_n2_p0_by_hand(self):
        # bhat_k = [-1 + (3-k)*0.2, 1 - (3-k)*0.2]; intersection [-0.6, 0.6]
        assert nonempty_vertex(cube_problem(2, 0.2, 0))

    def test_zero_preview_single_vertex(self):
        prob = cube_problem(3, 0.1, 0)
        lo, hi = vertex_interval(prob, np.zeros(0))
        assert lo <= 0.0 <= hi


class TestNonemptyIneq:
    def test_matches_vertex_on_500_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(0, 9))
            box = Hyperbox.from_bounds(-(0.3 + rng.random(n)), 0.3 + rng.random(n))
            dist = Hyperbox.from_bounds(-rng.random(n) * 0.6, rng.random(n) * 0.6)
            prob = BrunovskyProblem.create(n, box, dist, p)
            assert nonempty_ineq(prob) == nonempty_vertex(prob)

    def test_binding_pair_at_two_ninths(self):
        # at n=10, p=6 the (j,k)=(1,10) case reads -2 <= -9c, so c <= 2/9
        eps = 1e-6
        assert nonempty_ineq(cube_problem(10, 2 / 9 - eps, 6))
        assert not nonempty_ineq(cube_problem(10, 2 / 9 + eps, 6))

    def test_zero_disturbance_always_feasible(self):
        for n in (1, 2, 5):
            assert nonempty_ineq(cube_problem(n, 0.0, 0))


class TestClosedForm:
    def test_n2_p0_record(self):
        inv = closed_form(cube_problem(2, 0.2, 0))
        assert len(inv.constraints) == 1
        rec = inv.constraints[0]
        assert (rec.k, rec.j) == (2, 1)
        assert rec.dcoords == ()
        assert rec.lo == pytest.approx(-0.8)
        assert rec.hi == pytest.approx(0.8)

    def test_n2_p1_record(self):
        rec = closed_form(cube_problem(2, 0.2, 1)).constraints[0]
        assert (rec.k, rec.j) == (2, 1)
        assert rec.dcoords == ((1, 1),)
        assert rec.lo == pytest.approx(-1.0)
        assert rec.hi == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_no_tail_terms_once_p_reaches_n(self, p):
        inv = closed_form(cube_problem(2, 0.2, p))
        for rec in inv.constraints:
            assert rec.lo == pytest.approx(-1.0)
            assert rec.hi == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyInvariantError):
            closed_form(cube_problem(10, 0.23, 6))


class TestMembership:
    def test_boundary_violation_probe(self):
        inv = closed_form(cube_problem(2, 0.2, 1))
        # x2 + d_{1,1} = 0.9 + 0.2 = 1.1 leaves [-1, 1]
        assert not membership(inv, [1.0, 0.9], [np.array([0.2, 0.1])])
        assert membership(inv, [1.0, 0.7], [np.array([0.2, 0.1])])

    def test_origin(self):
        inv = closed_form(cube_problem(3, 0.1, 2))
        assert membership(inv, np.zeros(3), [np.zeros(3), np.zeros(3)])

    def test_outside_box(self):
        inv = closed_form(cube_problem(2, 0.1, 0))
        assert not membership(inv, [1.4, 0.0], [])

    def test_checks_true_distribution_not_box(self, master_seed):
        # with a diamond disturbance, box-only points must be rejected
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng, n_choices=(2,), p_choices=(1,), diamond_prob=1.1)
        inv = closed_form(prob)
        corner = prob.dist_box.hi  # box corner lies outside the diamond
        assert not membership(inv, np.zeros(2), [corner])


class TestToHPolytope:
    @pytest.mark.parametrize(
        "n,c,p", [(2, 0.2, 0), (2, 0.2, 1), (3, 0.1, 2)]
    )
    def test_matches_method1(self, n, c, p):
        prob = cube_problem(n, c, p)
        rep = method1(augment(prob.system(), prob.p).aug, max_iter=50)
        assert rep.converged
        assert set_equal(to_hpolytope(closed_form(prob)), rep.result)

    def test_membership_agrees_with_hform(self, master_seed):
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng)
        inv = closed_form(prob)
        poly = to_hpolytope(inv)
        n, p = prob.n, prob.p
        for _ in range(50):
            x = rng.uniform(prob.box.lo * 1.2, prob.box.hi * 1.2)
            ds = [rng.uniform(prob.dist_box.lo, prob.dist_box.hi) for _ in range(p)]
            point = np.concatenate([x] + [d for d in ds]) if p else x
            m1 = membership(inv, x, ds, tol=1e-9)
            m2 = poly.contains(point, tol=1e-9) and all(
                prob.dist.contains(d, 1e-9) for d in ds
            )
            # the H-form carries the same D rows, so these must agree
            assert m1 == poly.contains(point, tol=1e-9) or m1 == m2

    def test_invariant_on_augmented_system(self, master_seed):
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng, n_choices=(2, 3), p_choices=(0, 1, 2))
        poly = to_hpolytope(closed_form(prob))
        assert is_invariant(augment(prob.system(), prob.p).aug, poly)


class TestSafeInputInterval:
    def test_n2_p0(self):
        prob = cube_problem(2, 0.2, 0)
        lo, hi = vertex_interval(prob, preview_stack(prob, []))
        assert lo == pytest.approx(-0.6)
        assert hi == pytest.approx(0.6)

    def test_symmetric_zero_preview(self):
        prob = cube_problem(3, 0.1, 2)
        lo, hi = vertex_interval(prob, preview_stack(prob, [np.zeros(3), np.zeros(3)]))
        assert lo == pytest.approx(-hi)

    def test_nonempty_for_all_previews(self, master_seed):
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng)
        for _ in range(100):
            ds = [
                rng.uniform(prob.dist_box.lo, prob.dist_box.hi)
                for _ in range(prob.p)
            ]
            lo, hi = vertex_interval(prob, preview_stack(prob, ds))
            assert lo <= hi


class TestControllerG:
    def test_vertex_preview_picks_vertex_input(self):
        prob = cube_problem(2, 0.2, 2)
        # stack the previews so v sits exactly at a tail-box vertex
        ds = [np.array([0.0, 0.2]), np.array([0.2, 0.0])]
        v = preview_stack(prob, ds)
        assert np.allclose(np.abs(v), 0.2)
        u = controller_g(prob, ds)
        lo, hi = vertex_interval(prob, v)
        assert u == pytest.approx(0.5 * (lo + hi))

    def test_symmetric_zero(self):
        prob = cube_problem(3, 0.1, 3)
        assert controller_g(prob, [np.zeros(3)] * 3) == pytest.approx(0.0)

    def test_output_in_safe_interval(self, master_seed):
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng, n_choices=(2, 3), p_choices=(1, 2, 3))
        for _ in range(50):
            ds = [
                rng.uniform(prob.dist_box.lo, prob.dist_box.hi)
                for _ in range(prob.p)
            ]
            u = controller_g(prob, ds)
            lo, hi = vertex_interval(prob, preview_stack(prob, ds))
            assert lo - 1e-9 <= u <= hi + 1e-9

    def test_closed_loop_reaches_invariant(self, master_seed):
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng, n_choices=(2, 3), p_choices=(1, 2, 3))
        n, p = prob.n, prob.p
        sys = prob.system()
        inv = closed_form(prob)
        for _ in range(100):
            x = rng.uniform(prob.box.lo, prob.box.hi)
            script = [sample_dist(rng, prob) for _ in range(n + p + 1)]
            for t in range(n):
                u = controller_g(prob, script[t : t + p])
                x = sys.A @ x + sys.B @ [u] + sys.E @ script[t]
            assert membership(inv, x, script[n : n + p], tol=1e-7)


class TestCollapse:
    def test_n2_p3(self):
        assert collapse(cube_problem(2, 0.2, 3)).verified

    def test_n1_p2(self):
        assert collapse(cube_problem(1, 0.3, 2)).verified

    def test_random_n3(self, master_seed):
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng, n_choices=(3,), p_choices=(5,))
        assert collapse(prob).verified

    def test_requires_p_beyond_n(self):
        with pytest.raises(InvalidParametersError):
            collapse(cube_problem(2, 0.2, 2))


class TestProjectionIdentity:
    def test_n2(self):
        out = projection_identity(cube_problem(2, 0.2, 2))
        assert out["equal"]

    def test_zero_disturbance(self):
        out = projection_identity(cube_problem(2, 0.0, 2))
        assert out["equal"]
        assert set_equal(out["rhs"], HPolytope.from_box(Hyperbox.cube(2, 1.0)))

    def test_random_n3(self, master_seed):
        rng = np.random.default_rng(master_seed)
        prob = random_valid_problem(rng, n_choices=(3,), p_choices=(3,))
        assert projection_identity(prob)["equal"]


def sweep_feasible(n, p, box, c):
    return nonempty_ineq(BrunovskyProblem.create(n, box, Hyperbox.cube(n, c), p))


class TestLargestC:
    def test_frozen_values(self):
        # the paper's sweep at n = 10, exactly: 1/(10-p) up to 1/5, then 2/9
        box = Hyperbox.cube(10, 1.0)
        for p in range(5):
            assert largest_c(10, p, box) == 1 / (10 - p)
        assert largest_c(10, 5, box) == 1 / 5
        for p in range(6, 13):
            assert largest_c(10, p, box) == 2 / 9

    def test_monotone_and_plateau(self):
        box = Hyperbox.cube(4, 1.0)
        values = [largest_c(4, p, box) for p in range(8)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        for p in range(4, 8):
            assert values[p] == pytest.approx(values[4], abs=1e-8)

    def test_n1_with_preview_unbounded(self):
        # a previewed scalar shift register cancels any disturbance exactly
        assert largest_c(1, 1, Hyperbox.cube(1, 1.0)) == np.inf

    def test_wide_box_beyond_nominal_bracket(self):
        # n=2, p>=n, box [-2,2]^2: the supremum is 4, above halfwidth+1
        assert largest_c(2, 2, Hyperbox.cube(2, 2.0)) == pytest.approx(4.0, abs=1e-6)

    def test_zero_when_no_disturbance_is_tolerated(self):
        box = Hyperbox.from_bounds([5.0, 0.0], [6.0, 1.0])
        assert largest_c(2, 1, box) == 0.0
        assert not sweep_feasible(2, 1, box, 0.0)

    def test_supremum_of_the_inequality_test(self, master_seed):
        rng = np.random.default_rng(master_seed)
        boxes = [Hyperbox.from_bounds([5.0, 0.0], [6.0, 1.0]), Hyperbox.cube(1, 1.0)]
        for _ in range(20):
            n = int(rng.integers(1, 11))
            lo = rng.uniform(-2.0, 0.0, n)
            boxes.append(Hyperbox.from_bounds(lo, lo + rng.uniform(0.1, 3.0, n)))
        for box in boxes:
            n = box.dim
            for p in range(13):
                c = largest_c(n, p, box)
                if c == np.inf:
                    assert sweep_feasible(n, p, box, 1e9)
                    continue
                if sweep_feasible(n, p, box, 0.0):
                    assert sweep_feasible(n, p, box, c)
                    assert sweep_feasible(n, p, box, max(c - 1e-9, 0.0))
                else:
                    assert c == 0.0
                assert not sweep_feasible(n, p, box, c + 1e-9)


class TestCriticalPreviewTime:
    def test_vertex_cap_error(self):
        from previewsafe.errors import DimensionTooLargeError

        prob = cube_problem(25, 0.01, 25)
        with pytest.raises(DimensionTooLargeError):
            nonempty_vertex(prob)
        assert nonempty_ineq(prob)  # the n^2 form has no such cap

    def test_admissible_interval_stops_growing_after_n_plus_1(self, master_seed):
        # at states of C_n x D^(p-n), the admissible input interval is the
        # same for p = n+1 and p = n+2
        rng = np.random.default_rng(master_seed)
        n = 2
        prob_n = cube_problem(n, 0.15, n)
        inv_n = closed_form(prob_n)
        sys = prob_n.system()

        def admissible_interval(p, x, ds):
            prob_p = replace(prob_n, p=p)
            cpoly = to_hpolytope(closed_form(prob_p))
            aug = augment(sys, p).aug
            state = np.concatenate([x] + [np.asarray(d) for d in ds])
            adm = admissible_inputs(aug, cpoly, state)
            los, his = [], []
            for a, b in zip(adm.H[:, 0], adm.h):
                if a > 0.5:
                    his.append(b / a)
                elif a < -0.5:
                    los.append(b / a)
            return max(los, default=-np.inf), min(his, default=np.inf)

        found = 0
        for _ in range(200):
            x = rng.uniform(prob_n.box.lo, prob_n.box.hi)
            ds = [rng.uniform(prob_n.dist_box.lo, prob_n.dist_box.hi) for _ in range(n + 2)]
            if not membership(inv_n, x, ds[:n], tol=1e-9):
                continue
            found += 1
            lo1, hi1 = admissible_interval(n + 1, x, ds[: n + 1])
            lo2, hi2 = admissible_interval(n + 2, x, ds[: n + 2])
            assert abs(lo1 - lo2) <= 1e-9
            assert abs(hi1 - hi2) <= 1e-9
            if found >= 20:
                break
        assert found >= 5


class TestEVariant:
    def test_identity_matches_membership(self):
        box = Hyperbox.cube(2, 1.0)
        dist = Hyperbox.cube(2, 0.2)
        prob_v = evariant(2, np.eye(2), dist, box, 1)
        inv = closed_form(prob_v)
        d = [np.array([0.1, -0.1])]
        assert evariant_membership(prob_v, [0.2, 0.3], d) == membership(inv, [0.2, 0.3], d)

    def test_zero_ebar_reduces_to_state_conditions(self):
        prob_v = evariant(2, np.zeros((2, 1)), Hyperbox.from_bounds([-1], [1]), Hyperbox.cube(2, 1.0), 1)
        assert evariant_membership(prob_v, [0.5, 0.5], [np.array([0.7])])
        assert not evariant_membership(prob_v, [0.5, 1.2], [np.array([0.7])])
        # preview outside the original disturbance set is rejected
        assert not evariant_membership(prob_v, [0.0, 0.0], [np.array([1.5])])

    def test_matches_method1_on_augmented_variant(self, master_seed):
        rng = np.random.default_rng(master_seed)
        ebar = np.array([[0.0], [1.0]])
        dist_v = Hyperbox.from_bounds([-0.2], [0.2])
        box = Hyperbox.cube(2, 1.0)
        prob_v = evariant(2, ebar, dist_v, box, 1)

        from previewsafe.systems import LinearSystem

        safe = HPolytope(
            np.hstack([HPolytope.from_box(box).H, np.zeros((4, 1))]),
            HPolytope.from_box(box).h,
        )
        sys_v = LinearSystem(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], E=ebar,
            dist_set=dist_v, safe=safe,
        )
        rep = method1(augment(sys_v, 1).aug, max_iter=50)
        assert rep.converged
        for _ in range(200):
            x = rng.uniform(-1.2, 1.2, size=2)
            d = rng.uniform(-0.25, 0.25, size=1)
            point = np.concatenate([x, d])
            mine = evariant_membership(prob_v, x, [d], tol=1e-9)
            ref = rep.result.contains(point, tol=1e-9)
            if mine != ref:
                # disagreement is only tolerable within a facet-tolerance
                # shell around the boundary
                slack = np.max(rep.result.H @ point - rep.result.h)
                assert abs(slack) < 1e-6


# References: closed_form, bhat and the controller computed on an
# endpoint-wise interval algebra over float pairs ``(lo, hi)``, with EMPTY for
# the empty interval (an empty interval sum is EMPTY, and subtracting EMPTY
# is the identity), translated by adding ``-s`` and intersected pair by
# pair.  The library's float endpoint sums and its ``max``/``min`` of
# ``b - s`` must reproduce every bit.

EMPTY = "EMPTY"


def _ref_interval(lo, hi):
    """The closed interval [lo, hi], EMPTY where the endpoints cross."""
    lo, hi = float(lo), float(hi)
    return EMPTY if lo > hi else (lo, hi)


def _ref_interval_add(a, b):
    if a is EMPTY or b is EMPTY:
        return EMPTY
    return _ref_interval(a[0] + b[0], a[1] + b[1])


def _ref_interval_sub(a, b):
    if a is EMPTY:
        return EMPTY
    if b is EMPTY:
        return a
    return _ref_interval(a[0] - b[0], a[1] - b[1])


def _ref_interval_sum(items):
    total = None
    for item in items:
        total = item if total is None else _ref_interval_add(total, item)
    if total is None:
        return EMPTY
    return total


def _ref_interval_shift(a, c):
    """Scalar translation ``c + a``."""
    return EMPTY if a is EMPTY else _ref_interval(a[0] + c, a[1] + c)


def _ref_interval_intersect(a, b):
    if a is EMPTY or b is EMPTY:
        return EMPTY
    return _ref_interval(max(a[0], b[0]), min(a[1], b[1]))


def reference_bhat(problem):
    n = problem.n
    pb = min(problem.p, problem.n)
    blo, bhi = problem.box.lo, problem.box.hi
    clo, chi = problem.dist_box.lo, problem.dist_box.hi
    out = []
    for k in range(1, n + 1):
        lo = blo[k - 1] - float(np.sum(clo[k - 1 : n - pb]))
        hi = bhi[k - 1] - float(np.sum(chi[k - 1 : n - pb]))
        if lo > hi:
            return out + [EMPTY] + [None] * (n - k)
        out.append(_ref_interval(lo, hi))
    return out


def reference_vertex_interval(problem, v):
    bh = reference_bhat(problem)
    out = None
    for k in range(1, problem.n + 1):
        iv = bh[k - 1]
        if iv is None or iv is EMPTY:
            return EMPTY
        shifted = _ref_interval_shift(iv, -_stack_shift(problem, v, k))
        out = shifted if out is None else _ref_interval_intersect(out, shifted)
        if out is EMPTY:
            return EMPTY
    return out


def reference_closed_form(problem):
    if not nonempty_ineq(problem):
        raise EmptyInvariantError("no nonempty controlled invariant set exists")
    n, p = problem.n, problem.p
    blo, bhi = problem.box.lo, problem.box.hi
    clo, chi = problem.dist_box.lo, problem.dist_box.hi
    records = []
    for k in range(2, n + 1):
        for j in range(1, k):
            dcoords = tuple((i, k - i) for i in range(1, min(k - j, p) + 1))
            tail = _ref_interval_sum(
                _ref_interval(clo[k - i - 1], chi[k - i - 1]) for i in range(p + 1, k - j + 1)
            )
            bound = _ref_interval_sub(_ref_interval(blo[j - 1], bhi[j - 1]), tail)
            if bound is EMPTY:
                raise EmptyInvariantError(
                    "constraint bound collapsed despite the nonemptiness test"
                )
            records.append(InvariantConstraint(k=k, j=j, dcoords=dcoords, lo=bound[0], hi=bound[1]))
    return BrunovskyInvariant(problem=problem, constraints=tuple(records))


def reference_controller_g(problem, d_list):
    v = preview_stack(problem, d_list)
    box = tail_box(problem)
    mids = {}
    for e in box_vertices(box):
        iv = reference_vertex_interval(problem, e)
        if iv is EMPTY:
            raise EmptyInvariantError("a tail-vertex safe-input interval is empty")
        mids[tuple(e)] = 0.5 * (iv[0] + iv[1])
    u = 0.0
    for vertex, weight in zip(box_vertices(box), convex_weights(box, v)):
        u += weight * mids[tuple(vertex)]
    return float(u)


def reference_problems(seed, per_n, n_max=12):
    """Seeded problems with n = 1..n_max and p = 0..n+1: asymmetric boxes and
    disturbance boxes (cross-polytopes for n <= 6), from tiny disturbances
    (long nonempty tails) to ones too large for any invariant set."""
    rng = np.random.default_rng(seed)
    for n in range(1, n_max + 1):
        for t in range(per_n):
            p = t % (n + 2)
            box = Hyperbox.from_bounds(-(0.5 + rng.random(n)), 0.5 + rng.random(n))
            width = [0.3 / n, 1.0 / n, 0.5][t % 3]
            if n <= 6 and t % 4 == 1:
                dist = cross_polytope(0.01 + width * rng.random(n))
            else:
                dist = Hyperbox.from_bounds(-width * rng.random(n), width * rng.random(n))
            yield BrunovskyProblem.create(n, box, dist, p)


def _bits(iv):
    """Hex endpoints of a reference interval or of a library pair, which is
    empty iff its endpoints cross."""
    return EMPTY if iv is EMPTY or iv[0] > iv[1] else (iv[0].hex(), iv[1].hex())


def _records_or_error(build, problem):
    try:
        inv = build(problem)
    except EmptyInvariantError as exc:
        return str(exc)
    return [(r.k, r.j, r.dcoords, _bits((r.lo, r.hi))) for r in inv.constraints]


class TestFloatSumsMatchIntervalAlgebra:
    def test_closed_form_records_bitwise(self):
        longest, empty, total = 0, 0, 0
        for prob in reference_problems(91, per_n=14):
            got = _records_or_error(closed_form, prob)
            assert got == _records_or_error(reference_closed_form, prob)
            if isinstance(got, str):
                empty += 1
            else:
                total += len(got)
                longest = max([longest] + [k - j - prob.p for k, j, _, _ in got])
        # tails long enough that np.sum's pairwise order would show, and
        # empty cases on both paths
        assert longest >= 8 and empty >= 10 and total >= 1000

    def test_bhat_bitwise(self):
        for prob in reference_problems(92, per_n=14):
            got, ref = bhat(prob), reference_bhat(prob)
            assert len(got) == prob.n and all(len(pair) == 2 for pair in got)
            cut = next((k + 1 for k, iv in enumerate(ref) if iv is EMPTY), prob.n)
            assert [_bits(iv) for iv in got[:cut]] == [_bits(iv) for iv in ref[:cut]]

    def test_controller_g_bitwise(self):
        rng = np.random.default_rng(93)
        calls = 0
        for prob in reference_problems(94, per_n=7, n_max=5):
            if not nonempty_ineq(prob):
                continue
            for _ in range(2):
                d_list = [rng.uniform(prob.dist_box.lo, prob.dist_box.hi) for _ in range(prob.p)]
                got = controller_g(prob, d_list)
                assert got.hex() == reference_controller_g(prob, d_list).hex()
                calls += 1
        assert calls >= 40
