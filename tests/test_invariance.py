import copy
import importlib.resources
import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import count_lps, cross_polytope, random_valid_problem, set_digest

from previewsafe.brunovsky import closed_form, to_hpolytope
from previewsafe.casestudies import (
    ScalarPreviewProblem,
    example1_config,
    example4_config,
    example5_config,
    scalar_cmax,
)
from previewsafe import invariance
from previewsafe.errors import SeedNotInvariantError
from previewsafe.geometry import (
    HPolytope,
    Hyperbox,
    contains_set,
    lp,
    polytope,
    pontryagin_diff,
    project,
    set_equal,
)
from previewsafe.invariance import (
    admissible_inputs,
    is_invariant,
    lift,
    method1,
    method2,
    pre,
    preview_gain,
    sandwich,
)
from previewsafe.simulation import load_simulation_config
from previewsafe.systems import BrunovskyProblem, LinearSystem, augment, collaborative, make_brunovsky


def scalar_sys(a=2.0, beta=1.0, gamma=1.0, r=2.0):
    return ScalarPreviewProblem(a, beta, gamma, r, 1).system()


def brute_force_scalar_cmax_grid(a, beta, gamma, r, nx=161, nd=81, nu=161, iters=40):
    """Independent oracle for the p=1 augmented scalar family: backward
    iteration of the safety game on a state grid with nearest-cell lookup."""
    xs = np.linspace(-r, r, nx)
    ds = np.linspace(-gamma, gamma, nd)
    us = np.linspace(-beta, beta, nu)
    X = np.ones((nx, nd), dtype=bool)

    def x_index(vals):
        idx = np.round((vals + r) / (2 * r) * (nx - 1)).astype(int)
        ok = (vals >= -r - 1e-12) & (vals <= r + 1e-12)
        return np.clip(idx, 0, nx - 1), ok

    fresh_rows = [0, nd - 1]  # worst-case fresh disturbances sit at the extremes
    for _ in range(iters):
        feasible = np.zeros_like(X)
        for u in us:
            xnext = a * xs[:, None] + u + ds[None, :]
            idx, ok = x_index(xnext)
            good = ok
            for row in fresh_rows:
                good = good & X[idx, row]
            feasible |= good
        Xn = X & feasible
        if np.array_equal(Xn, X):
            break
        X = Xn
    return xs, ds, X


class TestPre:
    def test_example4_pre_empty(self):
        sys = example4_config()
        assert pre(sys, HPolytope.from_bounds([-1], [1])).is_empty

    def test_brunovsky_zero_disturbance(self):
        sys = make_brunovsky(2, Hyperbox.from_bounds([0, 0], [0, 0]), Hyperbox.cube(2, 1.0))
        out = pre(sys, HPolytope.from_box(Hyperbox.cube(2, 1.0)))
        assert set_equal(out, HPolytope.from_box(Hyperbox.cube(2, 1.0)))

    def test_monotone(self, master_seed):
        rng = np.random.default_rng(master_seed)
        sys = scalar_sys()
        aug = augment(sys, 1).aug
        for _ in range(100):
            lo = -rng.random(2) - 0.1
            hi = rng.random(2) + 0.1
            inner_box = Hyperbox.from_bounds(lo / 2, hi / 2)
            outer_box = Hyperbox.from_bounds(lo, hi)
            p_in = pre(aug, HPolytope.from_box(inner_box))
            p_out = pre(aug, HPolytope.from_box(outer_box))
            assert contains_set(p_out, p_in)


class TestPreLPs:
    """``pre`` pays for no emptiness LP that ``project`` settles, for no
    erosion support it already solved and for no support of a row that only
    checks that the disturbance set fits under one of its own rows."""

    def test_pinned_lp_count(self, monkeypatch):
        # a shift register with a cross-polytope disturbance at preview 2.
        # Only the emptiness and support LPs are counted, which are the calls
        # without row= (every redundancy LP passes its row)
        box = Hyperbox.from_bounds([-1.0, -1.2, -0.9], [1.1, 1.0, 1.0])
        dist = cross_polytope(np.array([0.2, 0.15, 0.1]))
        sys = augment(make_brunovsky(3, dist, box), 2).aug
        state = polytope._LoopState()
        X = project(sys.safe, list(range(sys.n)), state)
        calls = [0]
        solve = lp.linprog_max

        def counted(*args, row=None):
            calls[0] += row is None
            return solve(*args, row=row)

        monkeypatch.setattr(lp, "linprog_max", counted)
        monkeypatch.setattr(polytope, "linprog_max", counted)
        X1 = pre(sys, X, state)
        # X's 8 rows on the newest preview block pull back to zero rows and
        # each is one of D's own rows, so they need no support LP; every
        # other row's direction through E is zero, and the interior point the
        # loop state kept from X's projection replaces the Chebyshev LP
        assert calls[0] == 0
        pre(sys, X1, state)
        assert calls[0] == 0

    def scalar(self, gamma, gain=1.0):
        """x+ = gain u + d with |x|, |u| <= 1 and |d| <= gamma."""
        return LinearSystem(
            A=[[0.0]],
            B=[[gain]],
            E=[[1.0]],
            dist_set=Hyperbox.from_bounds([-gamma], [gamma]),
            safe=HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0]),
        )

    def test_erosion_empty_within_tolerance(self):
        # |d| <= 1 + 3e-10 erodes [-1, 1] to [3e-10, -3e-10]: empty by less
        # than the 1e-9 tolerance, so nonempty, and pre keeps every state
        X = HPolytope.from_bounds([-1.0], [1.0])
        out = pre(self.scalar(1.0 + 3e-10), X)
        assert not out.is_empty
        assert out.H.tolist() == [[1.0], [-1.0]] and out.h.tolist() == [1.0, 1.0]
        # empty by 2e-8, beyond the tolerance
        assert pre(self.scalar(1.0 + 1e-8), X).is_empty

    def test_emptiness_is_judged_on_the_lifted_rows(self):
        # the erosion [5e-9, -5e-9] is empty by more than the tolerance, but
        # pulled back through the input gain 100 the gap in u is 1e-10, below
        # it: the verdict is the lifted set's, nonempty, and u = 0 takes
        # every state to within 5e-9 of X, far inside EPS_SET
        X = HPolytope.from_bounds([-1.0], [1.0])
        assert pre(self.scalar(1.0 + 5e-9, gain=100.0), X).h.tolist() == [1.0, 1.0]


def pre_reference(sys, X, state=None):
    """``pre`` by its formula with every row of ``X`` eroded: the pulled-back
    rows stacked on the safe set's, one ``HPolytope`` and one projection
    (with ``pre``'s loop state, when given)."""
    n = sys.n
    eroded = pontryagin_diff(X, sys.dist_set, sys.E)
    G_x = np.vstack([eroded.H.dot(sys.A), sys.safe.H[:, :n]])
    G_u = np.vstack([eroded.H.dot(sys.B), sys.safe.H[:, n:]])
    h0 = np.concatenate([eroded.h, sys.safe.h])
    return project(HPolytope(np.hstack([G_x, G_u]), h0), list(range(n)), state)


class TestPreZeroRows:
    """The rows of ``X`` on the newest previewed disturbance pull back to zero
    rows: ``pre`` checks that ``E D`` fits under each and drops it, and only
    solves a support LP for it when ``D`` has no row with its bytes and an
    offset at most its own."""

    def system(self, dist):
        # n = 2, p = 1: state (x1, x2, d1), and E feeds d1's block only
        box = Hyperbox.from_bounds([-1.0, -1.0], [1.0, 1.0])
        return augment(make_brunovsky(2, dist, box), 1).aug

    def target(self, sys, rows, offsets):
        """X = S's state rows and the given rows on the newest block."""
        X = project(sys.safe, list(range(sys.n)))
        H = np.vstack([X.H, np.hstack([np.zeros((len(rows), 2)), rows])])
        return HPolytope(H, np.concatenate([X.h, offsets]))

    def test_tighter_than_d_is_empty(self):
        D = cross_polytope(np.array([0.2, 0.1]))
        sys = self.system(D)
        # D's own rows at half D's offsets: D does not fit
        X = self.target(sys, D.H, 0.5 * D.h)
        assert not X.is_empty
        assert pre(sys, X).is_empty
        assert pre_reference(sys, X).is_empty
        # at D's offsets it fits, and the result is the reference's bits
        X = self.target(sys, D.H, D.h)
        assert set_digest(pre(sys, X)) == set_digest(pre_reference(sys, X))

    @pytest.mark.parametrize("offset, empty", [(0.3, False), (0.1, True)])
    def test_other_direction_solves_its_lp(self, offset, empty, monkeypatch):
        # e1 on the newest block is not a row of the diamond, whose support
        # along it is 0.2
        D = cross_polytope(np.array([0.2, 0.1]))
        sys = self.system(D)
        X = self.target(sys, np.array([[1.0, 0.0]]), [offset])
        calls = count_lps(monkeypatch)
        out = pre(sys, X)
        assert calls[0] >= 1
        assert out.is_empty is empty
        assert set_digest(out) == set_digest(pre_reference(sys, X))

    def test_redundant_d_row_solves_its_lp(self, monkeypatch):
        # D's only row e1 is redundant: its offset 5 is above h_i = 0.5, so
        # the row match settles nothing, and the pull-back's one erosion LP
        # finds the diamond's support 0.2
        diamond = cross_polytope(np.array([0.2, 0.1]))
        D = HPolytope(np.vstack([diamond.H, [[1.0, 0.0]]]), np.append(diamond.h, 5.0))
        sys = self.system(D)
        X = self.target(sys, np.array([[1.0, 0.0]]), [0.5])
        calls = count_lps(monkeypatch)
        inside = []

        def counted(*args):
            before = calls[0]
            pulled = polytope._preimage(*args)
            inside.append(calls[0] - before)
            return pulled

        monkeypatch.setattr(invariance, "_preimage", counted)
        out = pre(sys, X)
        assert inside == [1] and not out.is_empty
        assert set_digest(out) == set_digest(pre_reference(sys, X))

    def pull_back(self, D, offset, monkeypatch):
        """``_preimage`` of X with one row e1 on the newest block at
        ``offset``, and the LPs it solved."""
        sys = self.system(D)
        X = self.target(sys, np.array([[1.0, 0.0]]), [offset])
        G = np.hstack([X.H.dot(sys.A), X.H.dot(sys.B)])
        calls = count_lps(monkeypatch)
        pulled = polytope._preimage(X, sys.dist_set, sys.E, G)
        return X, pulled, calls[0]

    def test_d_row_with_negative_zeros_matches(self, monkeypatch):
        # the direction e1 through E is [1.0, 0.0], and D's row is [1.0,
        # -0.0]: other bytes, the same values, so the row is settled
        D = HPolytope([[1.0, -0.0], [-1.0, -0.0], [-0.0, 1.0], [-0.0, -1.0]], [0.2, 0.2, 0.1, 0.1])
        assert np.signbit(D.H[0, 1])
        X, (G, e, eroded), calls = self.pull_back(D, 0.2, monkeypatch)
        assert calls == 0
        # only the 4 rows on the state are left, with their offsets; the
        # rows on the newest block, D's own and e1, are settled
        assert G.shape[0] == e.shape[0] == eroded.nrows == 4
        assert e.tobytes() == X.h[:4].tobytes()

    def test_d_row_above_the_offset_solves_its_lp(self, monkeypatch):
        # D's row e1 at offset 5 lies above h_i = 0.5, so it settles
        # nothing, and the erosion LP finds the diamond's support 0.2
        diamond = cross_polytope(np.array([0.2, 0.1]))
        D = HPolytope(np.vstack([diamond.H, [[1.0, 0.0]]]), np.append(diamond.h, 5.0))
        _, pulled, calls = self.pull_back(D, 0.5, monkeypatch)
        assert calls == 1
        assert pulled[2].h[-1] == pytest.approx(0.3)

    @pytest.mark.parametrize("first", [0.3, 5.0])
    @pytest.mark.parametrize("offset, settled", [(0.4, True), (0.25, False)])
    def test_smallest_of_equal_d_rows_decides(self, first, offset, settled, monkeypatch):
        # two rows e1 of D, at 0.3 and 5 in either order: the smaller one
        # settles h_i = 0.4 and leaves h_i = 0.25 to its LP
        diamond = cross_polytope(np.array([0.2, 0.1]))
        rows = np.vstack([diamond.H, [[1.0, 0.0]], [[1.0, 0.0]]])
        D = HPolytope(rows, np.append(diamond.h, [first, 5.3 - first]))
        _, pulled, calls = self.pull_back(D, offset, monkeypatch)
        assert calls == (0 if settled else 1)
        assert pulled[2].nrows == (4 if settled else 5)

    @pytest.mark.parametrize("scale, empty", [(1.0, False), (0.5, True)])
    def test_hyperbox_d(self, scale, empty, monkeypatch):
        D = Hyperbox.from_bounds([-0.2, -0.1], [0.2, 0.1])
        sys = self.system(D)
        box = HPolytope.from_box(D)
        X = self.target(sys, box.H, scale * box.h)
        assert not X.is_empty
        calls = count_lps(monkeypatch)
        out = pre(sys, X)
        assert out.is_empty is empty
        if empty:
            # the box's supports are one array expression, never an LP
            assert calls[0] == 0
        assert set_digest(out) == set_digest(pre_reference(sys, X))

    @pytest.mark.parametrize("top, empty", [(-0.5, True), (0.5, False)])
    def test_zero_direction(self, top, empty, monkeypatch):
        # x2+ = 0: the row x2 <= top pulls back to a zero row and its
        # direction through E is zero too, so only top's sign decides
        sys = LinearSystem(
            A=[[1.0, 1.0], [0.0, 0.0]], B=[[1.0], [0.0]], E=[[1.0], [0.0]],
            dist_set=cross_polytope(np.array([0.1])),
            safe=HPolytope.from_bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
        )
        X = HPolytope.from_bounds([-1.0, -1.0], [1.0, top])
        assert not X.is_empty
        calls = count_lps(monkeypatch)
        out = pre(sys, X)
        assert out.is_empty is empty
        if empty:
            assert calls[0] == 0
        assert set_digest(out) == set_digest(pre_reference(sys, X))

    def test_bitwise_against_the_reference(self, master_seed):
        # seeded shift registers at p 0-3, box and cross-polytope: every
        # pre of a Method 1 run has the reference's bits
        rng = np.random.default_rng(master_seed)
        for _ in range(4):
            prob = random_valid_problem(rng, n_choices=(2, 3), diamond_prob=0.0)
            # the diamond with the box's scales lies inside it, so the
            # problem stays nonempty
            for dist in (prob.dist, cross_polytope(prob.dist.hi)):
                sys = augment(make_brunovsky(prob.n, dist, prob.box), prob.p).aug
                state = polytope._LoopState()
                X = project(sys.safe, list(range(sys.n)), state)
                for _ in range(4):
                    reference = pre_reference(sys, X, copy.copy(state))
                    out = pre(sys, X, state)
                    assert set_digest(out) == set_digest(reference)
                    X = out


def lane_keeping_model():
    """The bundled bicycle model and its input/LQR options."""
    ref = importlib.resources.files("previewsafe") / "configs" / "lane_keeping.json"
    return load_simulation_config(json.loads(ref.read_text(encoding="utf-8")))


def axis_slots(H):
    """(column, sign) slot of every axis-aligned row of ``H``."""
    axis = np.count_nonzero(H, axis=1) == 1
    col = np.argmax(H[axis] != 0.0, axis=1)
    return col + H.shape[1] * (H[axis, col] < 0.0)


class TestReductionPrecondition:
    """``_reduce_arrays`` and ``_dedupe`` take unit-norm rows (the ray test
    and the box measure distances along them, and ``_dedupe`` merges copies
    of a halfspace only at one scale): every caller, through every path,
    hands them unit rows, and after ``_dedupe`` at most one axis-aligned row
    bounds a coordinate from each side (so the box never settles an axis
    row)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        dedupe = polytope._dedupe
        for name in ("_reduce_arrays", "_dedupe"):

            def checked(H, h, *rest, fn=getattr(polytope, name), name=name):
                assert np.all(np.abs(np.linalg.norm(H, axis=1) - 1.0) <= 1e-12), name
                if name == "_reduce_arrays":
                    slots = axis_slots(dedupe(H, h)[0])
                    assert np.unique(slots).size == slots.size
                seen.append(name)
                return fn(H, h, *rest)

            monkeypatch.setattr(polytope, name, checked)
        return seen

    def polytope4(self):
        rng = np.random.default_rng(8)
        return HPolytope(rng.normal(size=(20, 4)), rng.random(20) + 0.5)

    @pytest.mark.parametrize(
        "run",
        [
            lambda P: project(P, range(P.dim)),
            lambda P: project(P, [3, 1, 0, 2]),
            lambda P: project(P, [0, 2]),
            lambda P: method1(augment(scalar_sys(), 2).aug),
            lambda P: method1(augment(example5_config(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1)), 1).aug),
            lambda P: method2(augment(example1_config(2)[0], 2).aug, example1_config(2)[1], 5),
            lambda P: method1(lane_keeping_model()[0]),
            lambda P: method1(augment(make_brunovsky(
                3, cross_polytope(np.array([0.2, 0.15, 0.1])),
                Hyperbox.from_bounds([-1.0, -1.2, -0.9], [1.1, 1.0, 1.0]),
            ), 2).aug),
        ],
        ids=["reduce_rows", "project_no_elimination", "project_fm", "method1_example2",
             "method1_example5", "method2_example1", "method1_lane_keeping",
             "method1_shift_register_cross_polytope"],
    )
    def test_call_sites_pass_unit_rows(self, run, calls):
        run(self.polytope4())
        assert calls.count("_reduce_arrays") > 0 and calls.count("_dedupe") > 0


class TestMethod1:
    def test_scalar_p1_closed_form_and_grid(self):
        a, beta, gamma, r = 2.0, 1.0, 1.0, 2.0
        rep = method1(augment(scalar_sys(a, beta, gamma, r), 1).aug)
        assert rep.converged
        expected = scalar_cmax(ScalarPreviewProblem(a, beta, gamma, r, 1)).to_hpolytope()
        assert set_equal(rep.result, expected)

        # independent gridded backward-iteration oracle, compared away from
        # the boundary (one grid cell of slack on either side)
        xs, ds, grid = brute_force_scalar_cmax_grid(a, beta, gamma, r)
        w = (beta - gamma / a) / (a - 1)
        margin = 3 * (xs[1] - xs[0])
        for i, x in enumerate(xs):
            for j, d in enumerate(ds):
                val = abs(x + d / a)
                if val < w - margin:
                    assert grid[i, j], (x, d)
                elif val > w + margin:
                    assert not grid[i, j], (x, d)

    def test_example4_empty_quickly(self):
        rep = method1(example4_config())
        assert rep.converged and rep.result.is_empty and rep.iterations <= 2

    def test_brunovsky_n2_p0(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))
        rep = method1(sys)
        assert rep.converged
        assert set_equal(rep.result, HPolytope.from_bounds([-1, -0.8], [1, 0.8]))

    def test_each_row_table_is_built_once(self, monkeypatch):
        # the loop keeps each iterate's row table for the next convergence
        # test: one table per iterate and one for the first set
        dist = cross_polytope(np.array([0.2, 0.15, 0.1]))
        box = Hyperbox.from_bounds([-1.0, -1.2, -0.9], [1.1, 1.0, 1.0])
        sys = augment(make_brunovsky(3, dist, box), 2).aug
        built = []
        build = polytope._row_table

        def counted(P):
            built.append(P)
            return build(P)

        monkeypatch.setattr(polytope, "_row_table", counted)
        monkeypatch.setattr(invariance, "_row_table", counted)
        rep = method1(sys)
        assert rep.converged and rep.iterations >= 2
        assert len(built) <= rep.iterations + 1

    def test_budget_exit_reports_no_convergence(self):
        # example2 at p = 2 needs more than one step: the budget ends the
        # run, which is reported, not raised
        sys = augment(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 2).system(), 2).aug
        rep = method1(sys, max_iter=1)
        assert (rep.converged, rep.iterations, rep.per_step_rows) == (False, 1, (6, 6))

    def test_iterates_nonincreasing(self):
        sys = augment(scalar_sys(), 1).aug
        X = project(sys.safe, list(range(sys.n)))
        for _ in range(6):
            Xn = pre(sys, X)
            assert contains_set(X, Xn)
            X = Xn


def without_carrying(monkeypatch):
    """Every reduction from here on runs without carried rays or
    certificates and collects none."""
    reduce = polytope._reduce_arrays
    monkeypatch.setattr(polytope, "_reduce_arrays", lambda H, h, center, carry=None: reduce(H, h, center))


def without_carried_certificates(monkeypatch):
    """Every reduction from here on carries rays but no certificates."""
    reduce = polytope._reduce_arrays
    monkeypatch.setattr(
        polytope, "_reduce_arrays",
        lambda H, h, center, carry=None: reduce(H, h, center, carry and (carry[0], {})),
    )


def lps_with_and_without_carrying(run, monkeypatch):
    """``run()`` with carried rays and certificates, with rays only and
    with neither; asserts the three reports are the same bits and returns
    ``(report, lps, lps_rays_only, lps_without)``."""
    reports, lps = [], []
    for disable in (without_carrying, without_carried_certificates, None):
        with monkeypatch.context() as patch:
            if disable is not None:
                disable(patch)
            calls = count_lps(patch)
            reports.append(run())
            lps.append(calls[0])
    *refs, rep = reports
    for ref in refs:
        assert rep.result.H.tobytes() == ref.result.H.tobytes()
        assert rep.result.h.tobytes() == ref.result.h.tobytes()
        assert (rep.iterations, rep.converged, rep.per_step_rows) == (ref.iterations, ref.converged, ref.per_step_rows)
    return rep, lps[2], lps[1], lps[0]


class TestMethod1LPBudget:
    """Method 1 on a preview-augmented shift register (n=4, p=3) stays within
    an LP budget: it solves 19 LPs with a box disturbance and 21 with a
    cross-polytope one, against 19 and 29 without carried certificates and
    51 and 49 without carried rays either, with the same result bit for bit
    (building the cross-polytope system, not counted here, takes 9 more).
    With the box every LP keeps its row (the box drops the rows that go),
    so there is no certificate to carry."""

    @pytest.mark.parametrize(
        "dist, budget, certificates_save",
        [(lambda: Hyperbox.cube(4, 0.1), 125, False), (lambda: cross_polytope(np.full(4, 0.1)), 300, True)],
        ids=["box", "cross_polytope"],
    )
    def test_lp_count(self, dist, budget, certificates_save, monkeypatch):
        # one system per run, each with its own disturbance set, so that each
        # run pays for its own memoized erosion supports
        systems = [augment(BrunovskyProblem.create(4, Hyperbox.cube(4, 1.0), dist(), 3).system(), 3).aug for _ in range(3)]
        rep, lps, lps_rays_only, lps_without = lps_with_and_without_carrying(
            lambda: method1(systems.pop()), monkeypatch
        )
        assert rep.converged
        assert lps <= budget
        assert lps_rays_only < lps_without
        assert (lps < lps_rays_only) if certificates_save else (lps == lps_rays_only)


class TestLaneKeepingLPBudget:
    """Method 1 on the bundled bicycle model and Method 2 at p = 5 from its
    lifted result stay within an LP budget: they solve 16 and 58 LPs,
    against 30 and 72 without carried certificates and 40 and 90 without
    carried rays either, with the same result bit for bit."""

    @pytest.fixture(scope="class")
    def model(self):
        sys, _ = lane_keeping_model()
        return sys, method1(sys).result

    def test_method1(self, model, monkeypatch):
        sys, _ = model
        rep, lps, lps_rays_only, lps_without = lps_with_and_without_carrying(lambda: method1(sys), monkeypatch)
        assert rep.converged
        assert lps <= 120
        assert lps < lps_rays_only < lps_without

    def test_method2_at_preview_5(self, model, monkeypatch):
        sys, cmax0 = model
        # a fresh seed set per run (lifting solves no LP), so that no run
        # reads another's memoized emptiness verdict
        _, lps, lps_rays_only, lps_without = lps_with_and_without_carrying(
            lambda: method2(augment(sys, 5).aug, lift(cmax0, sys.dist_set, 5), 10), monkeypatch
        )
        assert lps <= 200
        assert lps < lps_rays_only < lps_without


class TestMethod2:
    def test_example1_stagnates(self):
        sys, seed = example1_config(p=1)
        aug = augment(sys, 1).aug
        rep = method2(aug, seed, 10)
        assert set_equal(rep.result, seed)
        # while the maximal set is the full safe segment, strictly bigger
        m1 = method1(aug)
        assert m1.converged
        assert contains_set(m1.result, rep.result)
        assert not contains_set(rep.result, m1.result)

    def test_maximal_seed_is_fixed_point(self):
        sys = augment(scalar_sys(), 1).aug
        cmax = method1(sys).result
        rep = method2(sys, cmax, 5)
        assert rep.converged
        assert set_equal(rep.result, cmax)

    def test_brunovsky_seed_grows_to_closed_form(self):
        prob0 = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 0)
        prob1 = replace(prob0, p=1)
        c0 = to_hpolytope(closed_form(prob0))
        seed = lift(c0, prob0.dist, 1)
        rep = method2(augment(prob1.system(), prob1.p).aug, seed, 5)
        assert set_equal(rep.result, to_hpolytope(closed_form(prob1)))

    def test_rejects_non_invariant_seed(self):
        sys = scalar_sys()
        bad_seed = HPolytope.from_bounds([1.5], [2.0])  # drifts out under a=2
        with pytest.raises(SeedNotInvariantError):
            method2(sys, bad_seed, 3)

    @pytest.mark.parametrize("K", [0, 1])
    def test_rejects_non_invariant_seed_at_every_budget(self, K):
        # K = 0 checks the seed with is_invariant, K >= 1 with the first
        # iterate's first containment
        with pytest.raises(SeedNotInvariantError):
            method2(scalar_sys(), HPolytope.from_bounds([1.5], [2.0]), K)

    def test_seed_check_computes_no_pre_twice(self, monkeypatch):
        # the check seed in pre(seed) is the first half of the first
        # iterate's convergence test, so a run takes one pre per iteration
        box = Hyperbox.from_bounds([-1.0, -1.2, -0.9], [1.1, 1.0, 1.0])
        base = make_brunovsky(3, Hyperbox.from_bounds([-0.2, -0.15, -0.1], [0.2, 0.15, 0.1]), box)
        seed = lift(method1(base).result, base.dist_set, 2)
        calls = []
        step = invariance.pre

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(invariance, "pre", counted)
        for K in (1, 3):
            calls.clear()
            rep = method2(augment(base, 2).aug, seed, K)
            assert rep.iterations == K and len(calls) == K
        assert rep.converged

    def test_three_state_shift_register_digest(self):
        # `invariant --system` on box +-1, disturbance +-0.2, preview 2 with
        # --method 2: the seed is Method 1's set at p = 0, lifted
        sys = BrunovskyProblem.create(3, Hyperbox.cube(3, 1.0), Hyperbox.cube(3, 0.2), 2).system()
        rep = method2(augment(sys, 2).aug, lift(method1(sys).result, sys.dist_set, 2), 10)
        assert (set_digest(rep.result), rep.iterations, rep.converged, rep.per_step_rows) == (
            "35ffa895b7346928cbe55d49c2528d949f707aac4d14539d2a98f3cc614a9115", 3, True, (18, 20, 24, 24)
        )

    def test_budget_exit_reports_no_convergence(self):
        # lane keeping at p = 2 converges at the third iterate
        sys, _ = lane_keeping_model()
        rep = method2(augment(sys, 2).aug, lift(method1(sys).result, sys.dist_set, 2), 1)
        assert (rep.converged, rep.iterations) == (False, 1)

    def test_iterates_nondecreasing_and_invariant(self):
        prob0 = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 0)
        aug = augment(replace(prob0, p=1).system(), 1).aug
        X = lift(to_hpolytope(closed_form(prob0)), prob0.dist, 1)
        for _ in range(4):
            Xn = pre(aug, X)
            assert contains_set(Xn, X)
            assert is_invariant(aug, Xn)
            X = Xn


class TestIsInvariant:
    def test_empty_vacuous(self):
        assert is_invariant(scalar_sys(), HPolytope.empty(1))

    def test_scalar_closed_form(self):
        prob = ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1)
        aug = augment(prob.system(), 1).aug
        assert is_invariant(aug, scalar_cmax(prob).to_hpolytope())

    def test_verdict_does_not_depend_on_where_the_set_came_from(self, monkeypatch):
        # a Method 1 result and the same rows rebuilt get the same verdict,
        # the same pre bits and the same LPs: nothing rides on the set
        box = Hyperbox.from_bounds([-1.0, -1.2, -0.9], [1.1, 1.0, 1.0])
        sys = augment(make_brunovsky(3, Hyperbox.from_bounds([-0.2, -0.15, -0.1], [0.2, 0.15, 0.1]), box), 2).aug
        C = method1(sys).result
        rebuilt = HPolytope(C.H, C.h)
        # the emptiness LP that C's projection settled is not counted
        assert not rebuilt.is_empty
        runs = []
        for X in (C, rebuilt):
            with monkeypatch.context() as patch:
                calls = count_lps(patch)
                verdict = is_invariant(sys, X)
                runs.append((verdict, calls[0], set_digest(pre(sys, X))))
        assert runs[0] == runs[1]
        assert runs[0][0] and runs[0][1] > 0

    def test_expanding_map_not_invariant(self):
        sys = LinearSystem(
            A=[[2.0]], B=np.zeros((1, 0)), E=np.zeros((1, 0)),
            dist_set=Hyperbox.from_bounds([], []), safe=HPolytope.from_bounds([-1], [1]),
        )
        assert not is_invariant(sys, HPolytope.from_bounds([-1], [1]))


def two_containment_invariant(sys, C):
    """Reference verdict: ``C`` lies in the safe set's state projection and
    in its own controlled predecessor."""
    if C.is_empty:
        return True
    return contains_set(project(sys.safe, list(range(sys.n))), C) and contains_set(pre(sys, C), C)


class TestIsInvariantReference:
    """``is_invariant`` agrees with the two-containment definition on maximal
    sets scaled about the origin, inside the safe set and out of it."""

    SCALES = (0.9, 1.0, 1.02, 1.3)

    def seeds(self):
        box = Hyperbox.from_bounds([-1.0, -1.2, -0.9], [1.1, 1.0, 1.0])
        cases = [augment(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1).system(), 1).aug]
        for n, p, dist in [
            (2, 0, Hyperbox.cube(2, 0.2)),
            (2, 1, Hyperbox.cube(2, 0.2)),
            (3, 1, cross_polytope(np.array([0.2, 0.15, 0.1]))),
        ]:
            cases.append(augment(make_brunovsky(n, dist, Hyperbox.from_bounds(box.lo[:n], box.hi[:n])), p).aug)
        for sys in cases:
            yield sys, method1(sys).result
        base, _ = lane_keeping_model()
        cmax0 = method1(base).result
        for p in (2, 5, 8):
            yield augment(base, p).aug, lift(cmax0, base.dist_set, p)

    def test_agrees_with_reference(self):
        verdicts = []
        for sys, C in self.seeds():
            for s in self.SCALES:
                scaled = HPolytope(C.H, C.h * s)
                verdict = is_invariant(sys, scaled)
                assert verdict == two_containment_invariant(sys, scaled), (sys.n, s)
                verdicts.append(verdict)
        # both verdicts occur, so the agreement is not vacuous
        assert True in verdicts and False in verdicts


class TestAdmissibleInputs:
    def test_brunovsky_origin(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))
        c0 = method1(sys).result
        adm = admissible_inputs(sys, c0, [0.0, 0.0])
        assert set_equal(adm, HPolytope.from_bounds([-0.6], [0.6]))

    def test_outside_pre_is_empty(self):
        sys = example4_config()
        adm = admissible_inputs(sys, HPolytope.from_bounds([-1], [1]), [0.0])
        assert adm.is_empty

    def test_monotone_in_target(self, master_seed):
        rng = np.random.default_rng(master_seed)
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.1), Hyperbox.cube(2, 1.0))
        c_small = HPolytope.from_box(Hyperbox.cube(2, 0.5))
        c_big = HPolytope.from_box(Hyperbox.cube(2, 0.9))
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, size=2)
            a_small = admissible_inputs(sys, c_small, x)
            a_big = admissible_inputs(sys, c_big, x)
            assert contains_set(a_big, a_small)


class TestLift:
    def test_theorem_lift_invariance(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))
        c0 = method1(sys).result
        lifted = lift(c0, sys.dist_set, 1)
        assert is_invariant(augment(sys, 1).aug, lifted)

    def test_lift_empty(self):
        out = lift(HPolytope.empty(2), Hyperbox.cube(2, 0.2), 2)
        assert out.is_empty and out.dim == 6

    def test_lift_zero(self):
        c = HPolytope.from_bounds([-1], [1])
        assert lift(c, Hyperbox.cube(1, 0.5), 0) is c


class TestSandwich:
    def test_scalar_bounds(self):
        sys = scalar_sys()
        out = sandwich(sys, 0, 1)
        inner_proj = project(out["inner"], [0])
        outer_proj = project(out["outer"], [0])
        # PROJ_1 of the exact p=1 set is [-1, 1]; the bounds straddle it
        assert contains_set(HPolytope.from_bounds([-1], [1]), inner_proj)
        assert contains_set(outer_proj, HPolytope.from_bounds([-1], [1]))
        assert set_equal(outer_proj, HPolytope.from_bounds([-2], [2]))

    def test_brunovsky_projection_equality_at_p_low_n(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))
        out = sandwich(sys, 2, 3)
        inner_proj = project(out["inner"], [0, 1])
        outer_proj = project(out["outer"], [0, 1])
        assert set_equal(inner_proj, outer_proj)

    def test_empty_collaborative_both_empty(self):
        # safe region away from the origin that the drift always leaves
        sys = LinearSystem(
            A=[[2.0]], B=[[1.0]], E=[[1.0]],
            dist_set=Hyperbox.from_bounds([-0.05], [0.05]),
            safe=HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [2.0, -1.0, 0.1, 0.1]),
        )
        out = sandwich(sys, 0, 1)
        assert out["inner"].is_empty and out["outer"].is_empty

    def test_no_disturbance_channel(self):
        # with no disturbance the preview realization is the base system and
        # the collaborative system is the same system: both bounds are its
        # maximal set (the lift used to refuse the zero-dimensional D)
        sys = LinearSystem(
            A=[[2.0]], B=[[1.0]], E=np.zeros((1, 0)),
            dist_set=Hyperbox.from_bounds(np.zeros(0), np.zeros(0)),
            safe=HPolytope.from_bounds([-1.0, -0.5], [1.0, 0.5]),
        )
        out = sandwich(sys, 0, 2)
        assert out["inner"].dim == out["outer"].dim == 1
        assert set_equal(out["inner"], HPolytope.from_bounds([-0.5], [0.5]))
        assert set_equal(out["outer"], out["inner"])


class TestPreviewGain:
    def test_gap_shrinks_with_p_low(self):
        # oracle: closed-form volumes; the shear in the weighted-sum
        # constraint is volume preserving, so vol(C_max,p') = 2 w(p') (2 g)^p'
        sys = scalar_sys()
        p = 2
        gaps = []
        for p_low in (0, 1):
            out = preview_gain(sys, p_low, p, seed=7, samples=400_000)
            a, beta, gamma = 2.0, 1.0, 1.0
            w = (beta - gamma / a**p_low) / (a - 1)
            exact_inner = 2 * w * (2 * gamma) ** p
            exact_outer = 2 * (beta + gamma) / (a - 1) * (2 * gamma) ** p
            assert out["inner_vol"] == pytest.approx(exact_inner, rel=0.05)
            assert out["outer_vol"] == pytest.approx(exact_outer, rel=0.05)
            gaps.append(out["gap"])
        assert gaps[1] < gaps[0]

    def test_degenerate_no_disturbance_gap_zero(self):
        sys = ScalarPreviewProblem(2.0, 1.0, 0.0, 2.0, 1).system()
        out = preview_gain(sys, 0, 1, seed=3, samples=10_000)
        assert out["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_example4_inner_zero_outer_positive(self):
        out = preview_gain(example4_config(), 0, 1, seed=5, samples=50_000)
        assert out["inner_vol"] == 0.0
        assert out["outer_vol"] > 0.0


class TestCrossTheorems:
    @pytest.mark.parametrize("p1", [0, 1])
    def test_lifted_invariants_stay_invariant(self, p1):
        for sys in (scalar_sys(), make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))):
            rep = method1(augment(sys, p1).aug)
            lifted = lift(rep.result, sys.dist_set, 1)
            assert is_invariant(augment(sys, p1 + 1).aug, lifted)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_projection_contained_in_collaborative(self, p):
        from previewsafe.casestudies import ScalarPreviewProblem, example5_config

        case_systems = [
            scalar_sys(),
            example4_config(),
            example1_config(p=1)[0],
            example5_config(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1)),
        ]
        for sys in case_systems:
            rep = method1(augment(sys, p).aug)
            co = method1(collaborative(sys)).result
            if rep.result.is_empty:
                continue
            proj = project(rep.result, list(range(sys.n)))
            assert contains_set(co, proj)

    def test_mpc_remark_containment(self):
        # growing C_max x D^p for p steps contains the seed
        sys = scalar_sys()
        p = 2
        cmax = method1(sys).result
        seed = lift(cmax, sys.dist_set, p)
        rep = method2(augment(sys, p).aug, seed, K=p)
        assert contains_set(rep.result, seed)

    def test_report_serialization(self):
        rep = method1(example4_config())
        data = rep.to_json()
        assert data["converged"] is True
        assert data["iterations"] == rep.iterations
        assert len(data["per_step_rows"]) == rep.iterations + 1
