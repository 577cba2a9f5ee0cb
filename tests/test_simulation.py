import importlib.resources
import itertools
import json
import logging

import numpy as np
import pytest

from conftest import count_lps, cross_polytope, set_digest
from make_canonical_sets import FIXTURE, shift_register_problems
from previewsafe import simulation
from previewsafe.brunovsky import closed_form, controller_g, membership
from previewsafe.errors import ConfigError, NumericalError, RiccatiDivergedError, ScriptExhaustedError
from previewsafe.geometry import EPS_SET, HPolytope, Hyperbox, box_vertices, polytope, pontryagin_diff
from previewsafe.invariance import admissible_inputs, input_constraints, lift, method1, method2
from previewsafe.simulation import (
    LQRSpec,
    Supervisor,
    _closest_point,
    _find_gap_state,
    _input_box_of,
    lane_keeping,
    load_simulation_config,
    lqr_gain,
    rollout,
    supervise,
    zoh_discretize,
)
from previewsafe.systems import BrunovskyProblem, LinearSystem, augment

# the canonical fixture's sets (tests/make_canonical_sets.py), and the ones
# the filter audit walks
CANONICAL = json.loads(FIXTURE.read_text(encoding="utf-8"))
AUDITED_CANONICAL_SETS = [name for name, _ in shift_register_problems()] + ["lane_keeping_method2_p8"]


def lane_config() -> dict:
    ref = importlib.resources.files("previewsafe") / "configs" / "lane_keeping.json"
    return json.loads(ref.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def lane_result():
    return lane_keeping(lane_config(), p=5, T=100, seed=0)


def plain_scalar(a=1.0):
    return LinearSystem(
        A=[[a]], B=[[1.0]], E=[[1.0]],
        dist_set=Hyperbox.from_bounds([0.0], [0.0]),
        safe=HPolytope(np.zeros((0, 2)), np.zeros(0)),
    )


def test_bicycle_safe_set_golden():
    # |state_k| <= its bound and |steer| <= its bound on the bundled model,
    # bit for bit
    safe = load_simulation_config(lane_config())[0].safe
    bounds = lane_config()["bounds"]
    states = [bounds[k] for k in ("y", "v", "yaw", "yaw_rate")]
    assert safe.H.shape == (10, 5)
    assert safe.h.tolist() == states + states + [bounds["steer"]] * 2
    assert set_digest(safe) == "d9055755e9134664273699afb90dc415fbf90feaf268ceae121951f109c41332"


class TestLQR:
    def test_scalar_golden_ratio(self):
        # fixed point of P = 1 + P - P^2/(1+P) is P^2 = P + 1
        K = lqr_gain(plain_scalar(), LQRSpec(Q=np.eye(1), R=np.eye(1)))
        phi = (1 + np.sqrt(5.0)) / 2
        assert K[0, 0] == pytest.approx(phi / (1 + phi), abs=1e-9)

    def test_deadbeat_limit(self):
        A = np.array([[0.4, 1.0], [0.2, -0.3]])
        B = np.eye(2)
        sys = LinearSystem(
            A=A, B=B, E=np.zeros((2, 1)),
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=HPolytope(np.zeros((0, 4)), np.zeros(0)),
        )
        K = lqr_gain(sys, LQRSpec(Q=np.eye(2), R=1e-8 * np.eye(2)))
        assert np.allclose(K, np.linalg.solve(B, A), atol=1e-3)

    @pytest.mark.parametrize(
        "A, B",
        [
            ([[0.5]], [[1.0]]),
            # spectral radius 0.99 in one Jordan block: a norm-growth estimate
            # of it lands above 1 and would reject this stable loop
            ([[0.99, 1.0], [0.0, 0.99]], [[0.0], [1.0]]),
        ],
        ids=["scalar", "jordan"],
    )
    def test_zero_cost_stable_plant(self, A, B):
        n = len(A)
        sys = LinearSystem(
            A=A, B=B, E=np.ones((n, 1)),
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=HPolytope(np.zeros((0, n + 1)), np.zeros(0)),
        )
        K = lqr_gain(sys, LQRSpec(Q=np.zeros((n, n)), R=np.eye(1)))
        assert np.abs(K).max() == pytest.approx(0.0, abs=1e-12)

    def test_riccati_iterates_stay_psd(self):
        # exercised internally; a diverging pair must raise instead
        sys = LinearSystem(
            A=[[2.0]], B=np.zeros((1, 1)), E=[[1.0]],
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=HPolytope(np.zeros((0, 2)), np.zeros(0)),
        )
        with pytest.raises(RiccatiDivergedError):
            lqr_gain(sys, LQRSpec(Q=np.eye(1), R=np.eye(1), max_iter=500))


class TestZOH:
    def test_matches_expm_on_random(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(1)
        Ac = rng.normal(size=(4, 4))
        Bc = rng.normal(size=(4, 1))
        Ec = rng.normal(size=(4, 1))
        Ad, Bd, Ed = zoh_discretize(Ac, Bc, Ec, 0.1)
        assert np.allclose(Ad, expm(Ac * 0.1), atol=1e-10)
        # integral term via fine quadrature
        ss = np.linspace(0, 0.1, 2001)
        quad = np.zeros((4, 4))
        for s0, s1 in zip(ss[:-1], ss[1:]):
            mid = 0.5 * (s0 + s1)
            quad += expm(Ac * mid) * (s1 - s0)
        assert np.allclose(Bd, quad @ Bc, atol=1e-6)

    def test_series_cap_is_a_numerical_error(self):
        # ||Ac dt|| = 150: the terms still exceed the tolerance at the
        # 400-term cap, and none overflows on the way there
        with pytest.raises(NumericalError, match="did not settle"):
            zoh_discretize(150.0 * np.eye(2), np.ones((2, 1)), np.ones((2, 1)), 1.0)


class TestSupervise:
    def make_setup(self):
        sys = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 0).system()
        c0 = method1(sys).result
        sup = Supervisor(sys=sys, invariant=c0, input_box=Hyperbox.cube(1, 2.0))
        return sys, c0, sup

    def test_inside_passthrough(self):
        _, _, sup = self.make_setup()
        res = supervise(sup, [0.0, 0.0], [0.3])
        assert not res.supervised
        assert res.u[0] == pytest.approx(0.3)
        assert res.adm_lo == pytest.approx(-0.6)
        assert res.adm_hi == pytest.approx(0.6)

    def test_clamps_above(self):
        _, _, sup = self.make_setup()
        res = supervise(sup, [0.0, 0.0], [1.5])
        assert res.supervised
        assert res.u[0] == pytest.approx(0.6)

    def test_empty_falls_back_to_input_box(self):
        _, _, sup = self.make_setup()
        res = supervise(sup, [0.0, 2.0], [5.0])  # far outside the box
        assert res.admissible_empty
        assert res.u[0] == pytest.approx(2.0)

    def test_idempotent(self):
        _, _, sup = self.make_setup()
        first = supervise(sup, [0.2, -0.1], [1.4])
        second = supervise(sup, [0.2, -0.1], first.u)
        assert second.u[0] == pytest.approx(first.u[0])
        assert not second.supervised

    def make_two_input_setup(self):
        # x+ = u with a thin wedge {|u_2| <= -tan(1e-3) u_1} as invariant set
        sys = LinearSystem(
            A=np.zeros((2, 2)), B=np.eye(2), E=np.zeros((2, 1)),
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=lift(HPolytope.from_bounds([-1, -1], [1, 1]), HPolytope(np.zeros((0, 2)), np.zeros(0)), 1),
        )
        s, c = np.sin(1e-3), np.cos(1e-3)
        wedge = HPolytope([[s, c], [s, -c]], [0.0, 0.0])
        box = HPolytope.from_bounds([-1, -1], [1, 1])
        invariant = HPolytope(np.vstack([wedge.H, box.H]), np.concatenate([wedge.h, box.h]))
        return sys, Supervisor(sys=sys, invariant=invariant, input_box=Hyperbox.cube(2, 1.0))

    def test_two_inputs_closest_admissible(self):
        sys, sup = self.make_two_input_setup()
        u_nom = np.array([0.9, 0.3])
        res = supervise(sup, [0.0, 0.0], u_nom)
        assert res.supervised and not res.admissible_empty
        assert admissible_inputs(sys, sup.invariant, [0.0, 0.0]).contains(res.u, tol=1e-9)
        # every point of the wedge has u_1 <= 0, so 0.9 is the least distance
        assert np.max(np.abs(res.u - u_nom)) == pytest.approx(0.9, abs=1e-9)

    def test_two_inputs_lps_per_step(self, monkeypatch):
        # after the build, a step solves the emptiness LP, plus the
        # closest-point LP when the nominal input is not admissible
        _, sup = self.make_two_input_setup()
        calls = count_lps(monkeypatch)
        supervise(sup, [0.0, 0.0], [-0.5, 0.0001])
        assert calls[0] == 1
        supervise(sup, [0.0, 0.0], [0.9, 0.3])
        assert calls[0] == 3

    def test_two_inputs_admissible_passthrough(self):
        _, sup = self.make_two_input_setup()
        u_nom = np.array([-0.5, 0.0001])
        res = supervise(sup, [0.0, 0.0], u_nom)
        assert not res.supervised and not res.admissible_empty
        assert np.array_equal(res.u, u_nom)

    @pytest.mark.parametrize("state, u_nom", [
        ([0.0, 0.0], [np.nan]),
        ([0.0, 0.0], [np.inf]),
        ([np.nan, 0.0], [0.1]),
        ([0.0, -np.inf], [0.1]),
    ], ids=["nan_input", "inf_input", "nan_state", "inf_state"])
    def test_non_finite_arguments_raise(self, state, u_nom):
        _, _, sup = self.make_setup()
        with pytest.raises(ValueError, match="finite"):
            supervise(sup, state, u_nom)

    @pytest.mark.parametrize("u_nom", [[0.3, 5.0], []], ids=["two", "none"])
    def test_wrong_input_length_raises(self, u_nom):
        _, _, sup = self.make_setup()
        with pytest.raises(ValueError, match="nominal input has"):
            supervise(sup, [0.0, 0.0], u_nom)

    def test_two_inputs_wrong_length_raises(self):
        _, sup = self.make_two_input_setup()
        with pytest.raises(ValueError, match="nominal input has 1 entries"):
            supervise(sup, [0.0, 0.0], [0.1])

    def test_overflowing_state_falls_back(self):
        # A x overflows, so g(x) and both bounds are NaN; they must not
        # reach the clip, which would return u = NaN as admissible
        sys = LinearSystem(
            A=2.0 * np.eye(2), B=[[1.0], [0.0]], E=np.zeros((2, 1)),
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=HPolytope(np.zeros((0, 3)), np.zeros(0)),
        )
        sup = Supervisor(sys=sys, invariant=HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0]),
                         input_box=Hyperbox.cube(1, 2.0))
        with np.errstate(over="ignore", invalid="ignore"):
            res = supervise(sup, [1e308, -1e308], [0.1])
        assert res.admissible_empty and np.isnan(res.adm_lo) and np.isnan(res.adm_hi)
        assert res.u[0] == 0.1

    def test_no_input_channel_raises(self):
        sys = LinearSystem(
            A=[[0.5]], B=np.zeros((1, 0)), E=[[1.0]],
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=HPolytope.from_bounds([-1.0], [1.0]),
        )
        invariant = HPolytope.from_bounds([-1.0], [1.0])
        with pytest.raises(ValueError, match="requires an input channel"):
            Supervisor(sys=sys, invariant=invariant, input_box=Hyperbox.from_bounds([], []))
        with pytest.raises(ValueError, match="requires an input channel"):
            admissible_inputs(sys, invariant, [0.0])

    def test_build_checks_dimensions(self):
        sys, c0, _ = self.make_setup()
        # a 2-D box on a one-input system would make the fallback a 2-vector
        with pytest.raises(ValueError, match="input box"):
            Supervisor(sys=sys, invariant=c0, input_box=Hyperbox.cube(2, 2.0))
        with pytest.raises(ValueError, match="invariant"):
            Supervisor(sys=sys, invariant=HPolytope.from_bounds([-1.0] * 3, [1.0] * 3),
                       input_box=Hyperbox.cube(1, 2.0))


def reference_filter(sup, x, u_nom):
    """The safety filter from its definition: a fresh admissible-input
    polytope ``{u : G_u u <= h0 - G_x @ x}`` at ``x``, its interval read row
    by row (m = 1) with the 1e-7 snap, the input box when it is empty.  Its
    products are the ``@`` operator, so the filter's ``ndarray.dot`` is
    checked against them.  Returns ``(u, supervised, admissible_empty, lo,
    hi)`` with the interval's float endpoints, NaN for an empty set or several
    inputs."""
    u_nom = np.atleast_1d(np.asarray(u_nom, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    rows = input_constraints(sup.sys, sup.invariant)
    adm = HPolytope.empty(sup.sys.m) if rows is None else HPolytope(rows[1], rows[2] - rows[0] @ x)
    clamped = np.minimum(np.maximum(u_nom, sup.input_box.lo), sup.input_box.hi)
    nan = float("nan")
    if sup.sys.m > 1:
        if adm.is_empty:
            return clamped, True, True, nan, nan
        if (adm.H @ u_nom <= adm.h + 1e-9).all():
            return u_nom, False, False, nan, nan
        return _closest_point(adm, u_nom), True, False, nan, nan
    lo, hi = -np.inf, np.inf
    for a, b in zip(adm.H[:, 0], adm.h):
        if a > 0.5:
            hi = min(hi, b / a)
        elif a < -0.5:
            lo = max(lo, b / a)
        elif b < -1e-9:
            lo, hi = np.inf, -np.inf
            break
    if lo > hi:
        if lo - hi > 1e-7:
            return clamped, True, True, nan, nan
        lo = hi = 0.5 * (lo + hi)
    u = float(np.clip(u_nom[0], lo, hi))
    return np.array([u]), abs(u - u_nom[0]) > 0.0, False, float(lo), float(hi)


def bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def assert_same_as_reference(sup, x, u_nom):
    """``supervise`` matches :func:`reference_filter` bit for bit; returns
    the result."""
    res = supervise(sup, x, u_nom)
    u, supervised, empty, lo, hi = reference_filter(sup, x, u_nom)
    assert bits(*res.u) == bits(*u)
    assert (res.supervised, res.admissible_empty) == (supervised, empty)
    assert bits(res.adm_lo, res.adm_hi) == bits(lo, hi)
    return res


@pytest.fixture(scope="module")
def lane_supervisors():
    """The lane-keeping model, its no-preview supervisor (p = 0) and its
    supervisors augmented at p = 2 and p = 5, each over the lifted
    no-preview set grown by Method 2."""
    sys, _ = load_simulation_config(lane_config())
    cmax0 = method1(sys).result
    sups = {0: Supervisor(sys=sys, invariant=cmax0, input_box=_input_box_of(sys))}
    for p in (2, 5):
        aug = augment(sys, p).aug
        grown = method2(aug, lift(cmax0, sys.dist_set, p), 10).result
        sups[p] = Supervisor(sys=aug, invariant=grown, input_box=_input_box_of(sys))
    return sys, sups


class TestHoistedFilter:
    """The supervisor erodes its invariant once; every step must still give
    what a fresh ``admissible_inputs`` polytope gives."""

    @pytest.mark.parametrize("p", [2, 5])
    def test_lane_keeping_bitwise(self, p, lane_supervisors, master_seed):
        sup = lane_supervisors[1][p]
        rng = np.random.default_rng(master_seed)
        center = sup.invariant.feasible_point()
        box = sup.invariant.bounding_box()
        steer = sup.input_box.hi[0]
        outcomes = set()
        for _ in range(200):
            # inside the invariant, on its edge, and beyond it
            t = rng.choice([0.3, 0.0, -2.0])
            x = rng.uniform(box.lo, box.hi)
            x = x + t * (center - x)
            # nominal inputs around the admissible interval, when there is one
            _, _, empty, lo, hi = reference_filter(sup, x, [0.0])
            if empty:
                lo, hi = -steer, steer
            u_nom = rng.uniform(2 * lo - hi, 2 * hi - lo, size=1)
            res = assert_same_as_reference(sup, x, u_nom)
            outcomes.add((res.supervised, res.admissible_empty))
        # passthrough, clip and fallback all occur
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_states_outside_the_safe_set_fall_back(self, lane_supervisors):
        sup = lane_supervisors[1][2]
        x = 10.0 * np.abs(sup.invariant.bounding_box().hi)
        assert not sup.sys.safe.contains(np.append(x, 0.0))
        res = assert_same_as_reference(sup, x, [0.01])
        assert res.admissible_empty and np.isnan(res.adm_lo) and np.isnan(res.adm_hi)
        assert res.u[0] == pytest.approx(0.01)

    @pytest.mark.parametrize("invariant", [
        HPolytope.from_bounds([-0.1], [0.1]),  # narrower than the disturbance
        HPolytope.empty(1),
    ], ids=["eroded_empty", "invariant_empty"])
    def test_empty_erosion_falls_back(self, invariant):
        sys = LinearSystem(
            A=[[1.0]], B=[[1.0]], E=[[1.0]],
            dist_set=Hyperbox.from_bounds([-0.5], [0.5]),
            safe=HPolytope(np.zeros((0, 2)), np.zeros(0)),
        )
        sup = Supervisor(sys=sys, invariant=invariant, input_box=Hyperbox.cube(1, 2.0))
        for x, u_nom in [(0.0, 0.3), (0.05, -3.0), (4.0, 5.0)]:
            res = assert_same_as_reference(sup, [x], [u_nom])
            assert res.admissible_empty
            assert res.u[0] == np.clip(u_nom, -2.0, 2.0)
        with pytest.raises(ValueError, match="state dimension"):
            supervise(sup, [0.0, 0.0], [0.0])

    @pytest.mark.parametrize("m", [1, 2])
    def test_state_independent_rows_are_decided_at_build(self, m, master_seed):
        # a row with zero G_x and G_u reads 0 <= h0_i at every state: within
        # the 1e-9 tolerance the step is the one without the row, bit for
        # bit, and beyond it every step falls back to the input box
        rng = np.random.default_rng(master_seed)
        G_x, G_u, h0 = rng.normal(size=(6, 3)), rng.normal(size=(6, m)), rng.uniform(1.0, 2.0, 6)
        box = Hyperbox.cube(m, 5.0)
        with_row = lambda h: simulation._compile_step(
            (np.vstack([np.zeros((1, 3)), G_x]), np.vstack([np.full((1, m), 1e-13), G_u]),
             np.append(h, h0)), box,
        )
        base, holds, fails = simulation._compile_step((G_x, G_u, h0), box), with_row(-5e-10), with_row(-2e-9)
        outcomes = set()
        for _ in range(20):
            x, u_nom = rng.normal(size=3), rng.normal(size=m) * 3.0
            ref = base(x, u_nom)
            got = holds(x, u_nom)
            assert np.asarray(got[0]).tobytes() == np.asarray(ref[0]).tobytes()
            assert got[1:3] == ref[1:3] and np.array(got[3:]).tobytes() == np.array(ref[3:]).tobytes()
            outcomes.add(ref[1:3])
            u, supervised, empty, lo, hi = fails(x, u_nom)
            assert supervised and empty and np.isnan(lo) and np.isnan(hi)
            assert u.tolist() == np.clip(u_nom, -5.0, 5.0).tolist()
        assert (True, False) in outcomes

    def test_width_zero_interval_snaps(self):
        # the invariant {0.1 + 0.2 <= z <= 0.3} is a point whose bounds cross
        # by one rounding step, so every admissible interval crosses too
        sys = LinearSystem(
            A=[[0.0]], B=[[1.0]], E=[[1.0]],
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=HPolytope(np.zeros((0, 2)), np.zeros(0)),
        )
        invariant = HPolytope([[1.0], [-1.0]], [0.3, -(0.1 + 0.2)])
        sup = Supervisor(sys=sys, invariant=invariant, input_box=Hyperbox.cube(1, 2.0))
        for u_nom in (0.3, -1.0, 1.0):
            res = assert_same_as_reference(sup, [0.7], [u_nom])
            assert not res.admissible_empty
            assert res.adm_hi - res.adm_lo == 0.0
            assert 0.3 <= res.u[0] <= 0.1 + 0.2
        # bounds crossing by more than 1e-7 are empty, not snapped
        wide = HPolytope([[1.0], [-1.0]], [0.3, -0.3 - 2e-7])
        sup = Supervisor(sys=sys, invariant=wide, input_box=Hyperbox.cube(1, 2.0))
        assert assert_same_as_reference(sup, [0.7], [0.3]).admissible_empty

    @pytest.mark.parametrize("c", [1e-11, 1e-3, 0.7, 3.0, 1e40, 1e150, 1e200])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_input_coefficient_magnitudes(self, c, sign, master_seed):
        # x+ = c u on |x| <= 1: the rows of G_u are +-c, far from the lane
        # model's magnitudes, and the safe set's rows on x are zero in G_u
        c = sign * c
        sys = LinearSystem(
            A=[[0.0]], B=[[c]], E=[[1.0]],
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=lift(HPolytope.from_bounds([-1.0], [1.0]), HPolytope(np.zeros((0, 1)), np.zeros(0)), 1),
        )
        sup = Supervisor(sys=sys, invariant=HPolytope.from_bounds([-0.5], [0.7]),
                         input_box=Hyperbox.cube(1, 2.0 / abs(c)))
        rng = np.random.default_rng(master_seed)
        outcomes = set()
        for _ in range(60):
            x = rng.uniform(-1.2, 1.2, size=1)
            u_nom = rng.uniform(-1.5, 1.5, size=1) / abs(c)
            res = assert_same_as_reference(sup, x, u_nom)
            outcomes.add((res.supervised, res.admissible_empty))
        assert outcomes == {(False, False), (True, False), (True, True)}

    PASS_CLIP = {(False, False), (True, False)}

    @pytest.mark.parametrize("B, invariant, outcomes", [
        ([[1.0]], HPolytope.from_bounds([-1.0], [1.0]), PASS_CLIP),
        ([[1.0]], HPolytope([[1.0]], [1.0]), PASS_CLIP),
        ([[1.0]], HPolytope([[-1.0]], [1.0]), PASS_CLIP),
        ([[0.0]], HPolytope.from_bounds([-1.0], [1.0]), {(False, False), (True, True)}),
    ], ids=["no_zero_rows", "no_lower_rows", "no_upper_rows", "zero_rows_only"])
    def test_empty_row_blocks(self, B, invariant, outcomes, master_seed):
        # x+ = 0.5 x + b u + d with no safe rows: the rows of G_u are those of
        # the invariant times b, so some of the blocks zero | lower | upper
        # hold no row, and a missing bound is infinite
        sys = LinearSystem(
            A=[[0.5]], B=B, E=[[1.0]],
            dist_set=Hyperbox.from_bounds([-0.1], [0.1]),
            safe=HPolytope(np.zeros((0, 2)), np.zeros(0)),
        )
        sup = Supervisor(sys=sys, invariant=invariant, input_box=Hyperbox.cube(1, 2.0))
        rng = np.random.default_rng(master_seed)
        seen = set()
        for _ in range(60):
            res = assert_same_as_reference(sup, rng.uniform(-4.0, 4.0, size=1), rng.uniform(-2.0, 2.0, size=1))
            seen.add((res.supervised, res.admissible_empty))
        assert seen == outcomes

    # at x = (1e308, 0) the row (4, 0) overflows to +inf, and with an offset
    # of +inf its rhs is inf - inf = NaN: the NaN an overflowing mat-vec gives,
    # which a BLAS with fused multiply-adds need not give from finite rows
    NAN_X = np.array([1e308, 0.0])

    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "negative_first"])
    def test_nan_zero_row_beside_a_negative_one_falls_back(self, nan_first):
        # zero rows with rhs NaN and -1e308: the negative row certifies
        # emptiness whichever comes first, while the bounding rows alone give
        # [-1, 1]
        nan_row, negative_row = ([4.0, 0.0], np.inf), ([1.0, 0.0], 0.0)
        zero_rows = [nan_row, negative_row] if nan_first else [negative_row, nan_row]
        G_x = np.array([r for r, _ in zero_rows] + [[0.0, 0.0], [0.0, 0.0]])
        h0 = np.array([b for _, b in zero_rows] + [1.0, 1.0])
        G_u = np.array([[0.0], [0.0], [1.0], [-1.0]])
        step = simulation._compile_step((G_x, G_u, h0), Hyperbox.cube(1, 2.0))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(h0 - G_x @ self.NAN_X).tolist() == [nan_first, not nan_first, False, False]
            u, supervised, fallback, lo, hi = step(self.NAN_X, np.array([3.0]))
        assert fallback and supervised and u.tolist() == [2.0]
        assert np.isnan(lo) and np.isnan(hi)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    def test_nan_bound_falls_back(self, sign):
        # a bounding row with rhs NaN; the other bound and the zero row are
        # finite and satisfied
        G_x = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
        G_u = np.array([[0.0], [sign], [-sign]])
        h0 = np.array([1.0, np.inf, 1.0])
        step = simulation._compile_step((G_x, G_u, h0), Hyperbox.cube(1, 2.0))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(h0 - G_x @ self.NAN_X).tolist() == [False, True, False]
            u, supervised, fallback, lo, hi = step(self.NAN_X, np.array([0.5]))
        assert fallback and supervised and u.tolist() == [0.5]
        assert np.isnan(lo) and np.isnan(hi)

    def test_two_inputs_match(self, master_seed):
        rng = np.random.default_rng(master_seed)
        sys = LinearSystem(
            A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.5, 0.0], [0.1, 1.0]], E=np.eye(2),
            dist_set=Hyperbox.cube(2, 0.05),
            safe=HPolytope.from_bounds([-1, -1, -0.5, -0.5], [1, 1, 0.5, 0.5]),
        )
        sup = Supervisor(sys=sys, invariant=method1(sys).result, input_box=Hyperbox.cube(2, 0.5))
        outcomes = set()
        for _ in range(60):
            x = rng.uniform(-1.3, 1.3, size=2)
            u_nom = rng.uniform(-1.0, 1.0, size=2)
            res = supervise(sup, x, u_nom)
            u, supervised, empty, _, _ = reference_filter(sup, x, u_nom)
            assert np.max(np.abs(res.u - u)) <= 1e-9
            assert (res.supervised, res.admissible_empty) == (supervised, empty)
            assert np.isnan(res.adm_lo) and np.isnan(res.adm_hi)
            outcomes.add((supervised, empty))
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_two_input_right_hand_side_is_the_matmul_one(self, master_seed, monkeypatch):
        # the two-input step builds {u : G_u u <= h0 - G_x state}; its
        # right-hand side, and the admissible_inputs polytope, must be the
        # bits of the rows pulled back with the @ operator
        sys = LinearSystem(
            A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.5, 0.0], [0.1, 1.0]], E=np.eye(2),
            dist_set=Hyperbox.cube(2, 0.05),
            safe=HPolytope.from_bounds([-1, -1, -0.5, -0.5], [1, 1, 0.5, 0.5]),
        )
        C = method1(sys).result
        sup = Supervisor(sys=sys, invariant=C, input_box=Hyperbox.cube(2, 0.5))
        eroded = pontryagin_diff(C, sys.dist_set, sys.E)
        G_x = np.vstack([eroded.H @ sys.A, sys.safe.H[:, :2]])
        G_u = np.vstack([eroded.H @ sys.B, sys.safe.H[:, 2:]])
        h0 = np.concatenate([eroded.h, sys.safe.h])
        seen = []

        class Recorded(HPolytope):
            __slots__ = ()

            def __init__(self, H, h):
                seen.append((H, h))
                super().__init__(H, h)

        monkeypatch.setattr(simulation, "HPolytope", Recorded)
        rng = np.random.default_rng(master_seed)
        for _ in range(40):
            x = rng.uniform(-1.3, 1.3, size=2)
            supervise(sup, x, rng.uniform(-1.0, 1.0, size=2))
            H, h = seen.pop()
            assert not seen and H.tobytes() == G_u.tobytes()
            assert h.tobytes() == (h0 - G_x @ x).tobytes()
            ref = HPolytope(G_u, h0 - G_x @ x)
            adm = admissible_inputs(sys, C, x)
            assert adm.H.tobytes() == ref.H.tobytes() and adm.h.tobytes() == ref.h.tobytes()

    def test_one_input_rollout_solves_no_lp(self, lane_supervisors, monkeypatch):
        sys, sups = lane_supervisors
        p, sup = 5, sups[5]
        xi = sup.invariant.feasible_point()
        rng = np.random.default_rng(5)
        rest = rng.uniform(sys.dist_set.lo, sys.dist_set.hi, size=(50, sys.l))
        script = np.vstack([xi[sys.n :].reshape(p, sys.l), rest])
        calls = count_lps(monkeypatch)
        # nor does it build a polytope or normalize rows
        built, cleaned = [0], [0]
        init, clean = HPolytope.__init__, polytope._clean_rows

        def counted_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        def counted_clean(*args):
            cleaned[0] += 1
            return clean(*args)

        monkeypatch.setattr(HPolytope, "__init__", counted_init)
        monkeypatch.setattr(polytope, "_clean_rows", counted_clean)
        monkeypatch.setattr(simulation, "_clean_rows", counted_clean, raising=False)
        trace = rollout(sys, p, lambda t, x, w: np.array([0.3]), sup, xi[: sys.n], script, 50)
        assert len(trace) == 50 and trace.supervision_count() > 0
        assert calls[0] == 0 and built[0] == 0 and cleaned[0] == 0


def audit_states(C: HPolytope, rng, walk=300, corners=30) -> list:
    """States of ``C``: a hit-and-run walk from its feasible point, each step
    a uniform point of the chord along a Gaussian direction, found with
    mat-vecs with ``C.H`` only; then LP maxima along Gaussian directions, each
    pulled 1e-9 of the way toward the feasible point."""
    H, h = C.H, C.h
    center = C.feasible_point()
    z, states = center, []
    for _ in range(walk):
        d = rng.normal(size=C.dim)
        slack, rate = h - H @ z, H @ d
        up, down = rate > 0, rate < 0
        z = z + rng.uniform((slack[down] / rate[down]).max(), (slack[up] / rate[up]).min()) * d
        states.append(z)
    for _ in range(corners):
        corner = C.maximize(rng.normal(size=C.dim)).point
        states.append(corner + 1e-9 * (center - corner))
    return states


def polytope_vertices(D: HPolytope) -> np.ndarray:
    """Vertices of a bounded ``D`` by brute force over its rows: every
    ``D.dim`` of them taken as equalities, kept where they meet in one point
    that satisfies every row within 1e-9, with points within 1e-9 of each
    other merged.  For small ``D`` only (its rows choose ``D.dim``
    systems)."""
    H, h, l = D.H, D.h, D.dim
    subsets = np.array(list(itertools.combinations(range(D.nrows), l)))
    A, b = H[subsets], h[subsets]
    regular = np.abs(np.linalg.det(A)) > 1e-9
    V = np.linalg.solve(A[regular], b[regular][..., None])[..., 0]
    V = V[(V @ H.T <= h + 1e-9).all(axis=1)]
    return V[np.unique(np.round(V, 9), axis=0, return_index=True)[1]]


def disturbance_vertices(D) -> np.ndarray:
    if isinstance(D, Hyperbox):
        return np.array(box_vertices(D))
    return polytope_vertices(D)


def assert_filter_sound(sup, states):
    """Both ends of the one-input interval at every state keep ``(x, u)`` in
    the safe set and every successor ``A x + B u + E v`` over the vertices
    ``v`` of ``D`` in the invariant; prints the failing state."""
    sys, C = sup.sys, sup.invariant
    V = disturbance_vertices(sys.dist_set)
    for x in states:
        res = supervise(sup, x, [0.0])
        # C is controlled invariant, so no state of it falls back
        assert not res.admissible_empty, x.tolist()
        for u in (res.adm_lo, res.adm_hi):
            assert sys.safe.contains(np.append(x, u), tol=1e-7), (x.tolist(), u)
            successors = (sys.A @ x + sys.B[:, 0] * u)[:, None] + sys.E @ V.T
            assert (C.H @ successors <= C.h[:, None] + EPS_SET).all(), (x.tolist(), u)


def canonical_supervisor(name):
    """The supervisor over the canonical fixture's set ``name``: a seeded
    shift register (its input unbounded) or the lane-keeping grown set."""
    data = CANONICAL[name]
    C = HPolytope(data["H"], data["h"])
    if name.startswith("lane_keeping_method2_p"):
        base, _ = load_simulation_config(lane_config())
        sys = augment(base, int(name.rsplit("p", 1)[1])).aug
        box = _input_box_of(base)
    else:
        problem = dict(shift_register_problems())[name]
        sys = augment(problem.system(), problem.p).aug
        box = Hyperbox.from_bounds([-np.inf], [np.inf])
    return Supervisor(sys=sys, invariant=C, input_box=box)


class TestFilterAudit:
    """Both ends of the one-input interval keep ``(x, u)`` in the safe set and
    every successor ``A x + B u + E v`` over the vertices ``v`` of ``D`` in the
    invariant, checked from the definition at states all over the invariant."""

    @pytest.mark.parametrize("p", [0, 2, 5])
    def test_interval_ends_are_safe_and_invariant(self, p, lane_supervisors, master_seed):
        sup = lane_supervisors[1][p]
        assert_filter_sound(sup, audit_states(sup.invariant, np.random.default_rng(master_seed)))

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_lane_keeping_seed_sets(self, p, lane_supervisors, master_seed):
        # the set Method 2 grows from: the no-preview maximal set lifted by
        # p copies of D, controlled invariant for the preview realization
        sys, sups = lane_supervisors
        seed_set = lift(sups[0].invariant, sys.dist_set, p)
        sup = Supervisor(sys=augment(sys, p).aug, invariant=seed_set, input_box=_input_box_of(sys))
        assert_filter_sound(sup, audit_states(seed_set, np.random.default_rng(master_seed)))

    @pytest.mark.parametrize("name", AUDITED_CANONICAL_SETS)
    def test_canonical_sets(self, name, master_seed):
        # the twelve seeded shift registers (n 2-4, p 0-3, half with a
        # cross-polytope disturbance) and the lane-keeping set grown at
        # p = 8, as the fixture stores them
        sup = canonical_supervisor(name)
        assert_filter_sound(sup, audit_states(sup.invariant, np.random.default_rng(master_seed)))

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_cross_polytope_vertices(self, l):
        # the 2 l points +-scale_k e_k, each meeting every row within 1e-9
        scales = 0.1 + 0.05 * np.arange(l)
        V = polytope_vertices(cross_polytope(scales))
        expected = np.vstack([np.diag(scales), -np.diag(scales)])
        assert V.shape == (2 * l, l)
        assert np.allclose(np.sort(V, axis=0), np.sort(expected, axis=0), rtol=0, atol=1e-12)


def reference_rollout(sys, p, controller, supervisor, x0, d_script, T):
    """``rollout`` before its loop invariants were hoisted, body verbatim up
    to collecting the rows: ``supervise`` and the safety test run, with their
    checks, at every step, and the rows are stacked into a :class:`Trace` at
    the end.  The dynamics and the safety test are ``@`` products."""
    x = np.asarray(x0, dtype=float).ravel().copy()
    script = np.asarray(d_script, dtype=float)
    script = script.reshape(-1, sys.l) if sys.l else script.reshape(script.shape[0], 0)
    if script.shape[0] < T + p:
        raise ScriptExhaustedError(
            f"script holds {script.shape[0]} steps, need {T + p}"
        )
    xs, u_noms, us, ds, bounds, flags = [], [], [], [], [], []
    for t in range(T):
        window = script[t : t + p]
        u_nom = np.atleast_1d(np.asarray(controller(t, x, window), dtype=float))
        if supervisor is not None:
            state_for_sup = (
                np.concatenate([x, window.ravel()])
                if supervisor.sys.n == sys.n + p * sys.l
                else x
            )
            res = supervise(supervisor, state_for_sup, u_nom)
            u, supervised, empty = res.u, res.supervised, res.admissible_empty
            bound = (res.adm_lo, res.adm_hi)
        else:
            u, supervised, empty, bound = u_nom, False, False, (np.nan, np.nan)
        safe = bool((sys.safe.H @ np.concatenate([x, u]) <= sys.safe.h + 1e-7).all())
        xs.append(x.copy())
        u_noms.append(u_nom.copy())
        us.append(np.atleast_1d(u).copy())
        ds.append(script[t].copy())
        bounds.append(bound)
        flags.append((bool(supervised), bool(empty), bool(safe)))
        x = sys.A @ x + sys.B @ u + sys.E @ script[t]

    def stack(rows, width, dtype=float):
        return np.array(rows, dtype=dtype).reshape(T, width)

    bounds, flags = stack(bounds, 2), stack(flags, 3, bool)
    return simulation.Trace(
        stack(xs, sys.n), stack(u_noms, sys.m), stack(us, sys.m), stack(ds, sys.l),
        bounds[:, 0], bounds[:, 1], *flags.T,
    )


def assert_same_records(trace, ref):
    """Every column bitwise equal; returns the outcome of each step:
    ``"fallback"``, ``"clip"`` or ``"pass"``."""
    assert len(trace) == len(ref)
    assert trace.t.tolist() == ref.t.tolist()
    for field in ("x", "u_nominal", "u_applied", "d_applied", "adm_lo", "adm_hi"):
        a, b = getattr(trace, field), getattr(ref, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    for field in ("supervised", "fallback", "safe"):
        a, b = getattr(trace, field), getattr(ref, field)
        assert a.dtype == b.dtype == bool and a.tolist() == b.tolist(), field
    return ["fallback" if f else "clip" if s else "pass" for f, s in zip(trace.fallback, trace.supervised)]


def lane_runs(sys, p, sup, rng, runs=6, T=30):
    """Seeded rollout arguments on the lane-keeping model: starts inside the
    supervisor's invariant and beyond it, vertex then uniform disturbance
    scripts, and nominal steering drawn up to 1.5 times the steering bound."""
    center = sup.invariant.feasible_point()
    box = sup.invariant.bounding_box()
    steer = sup.input_box.hi[0]
    lo, hi = sys.dist_set.lo, sys.dist_set.hi
    for k in range(runs):
        z = rng.uniform(box.lo, box.hi)
        z = z + (0.6 if k % 2 == 0 else -0.5) * (center - z)
        preview = z[sys.n :].reshape(p, sys.l)
        if k < runs // 2:
            rest = np.where(rng.integers(0, 2, size=(T, sys.l)) == 1, hi, lo)
        else:
            rest = rng.uniform(lo, hi, size=(T, sys.l))
        nominal = rng.uniform(-1.5, 1.5, size=T) * steer

        def controller(t, x, window, nominal=nominal):
            return np.array([nominal[t]])

        yield controller, z[: sys.n], np.vstack([preview, rest]), T


class TestHoistedRollout:
    """``rollout`` lifts its loop invariants; every record must still be the
    one the per-step checks gave."""

    @pytest.mark.parametrize("p", [0, 2, 5])
    def test_lane_keeping_bitwise(self, p, lane_supervisors, master_seed):
        sys, sups = lane_supervisors
        rng = np.random.default_rng(master_seed)
        outcomes = set()
        for controller, x0, script, T in lane_runs(sys, p, sups[p], rng):
            trace = rollout(sys, p, controller, sups[p], x0, script, T)
            ref = reference_rollout(sys, p, controller, sups[p], x0, script, T)
            outcomes.update(assert_same_records(trace, ref))
        assert outcomes == {"fallback", "clip", "pass"}

    def test_unsupervised_bitwise(self, lane_supervisors, master_seed):
        sys, sups = lane_supervisors
        rng = np.random.default_rng(master_seed)
        for controller, x0, script, T in lane_runs(sys, 2, sups[2], rng, runs=2):
            trace = rollout(sys, 2, controller, None, x0, script, T)
            assert assert_same_records(trace, reference_rollout(sys, 2, controller, None, x0, script, T))

    def test_two_inputs_bitwise(self, master_seed):
        # the two-input filter solves the emptiness and closest-point LPs
        sys = LinearSystem(
            A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.5, 0.0], [0.1, 1.0]], E=np.eye(2),
            dist_set=Hyperbox.cube(2, 0.05),
            safe=HPolytope.from_bounds([-1, -1, -0.5, -0.5], [1, 1, 0.5, 0.5]),
        )
        sup = Supervisor(sys=sys, invariant=method1(sys).result, input_box=Hyperbox.cube(2, 0.5))
        rng = np.random.default_rng(master_seed)
        supervised = set()
        for _ in range(4):
            x0 = rng.uniform(-1.2, 1.2, size=2)
            script = rng.uniform(-0.05, 0.05, size=(20, 2))
            nominal = rng.uniform(-1.0, 1.0, size=(20, 2))

            def controller(t, x, window, nominal=nominal):
                return nominal[t]

            trace = rollout(sys, 0, controller, sup, x0, script, 20)
            assert_same_records(trace, reference_rollout(sys, 0, controller, sup, x0, script, 20))
            supervised.update(trace.supervised.tolist())
        assert supervised == {True, False}

    def random_runs(self, sys, p, rng, runs=6, T=40):
        """Starts inside and beyond the unit box, uniform scripts of T + p
        steps and nominal inputs up to 1.5 times the input bound."""
        for k in range(runs):
            x0 = rng.uniform(-1.0, 1.0, size=sys.n) * (0.5 if k % 2 else 1.1)
            script = rng.uniform(-1.0, 1.0, size=(T + p, sys.l))
            nominal = rng.uniform(-1.5, 1.5, size=(T, sys.m))

            def controller(t, x, window, nominal=nominal):
                return nominal[t]

            yield controller, x0, script, T

    def assert_runs_bitwise(self, sys, p, sup, rng):
        outcomes = set()
        for controller, x0, script, T in self.random_runs(sys, p, rng):
            for s in (sup, None):
                trace = rollout(sys, p, controller, s, x0, script, T)
                found = assert_same_records(trace, reference_rollout(sys, p, controller, s, x0, script, T))
                if s is not None:
                    outcomes.update(found)
        assert outcomes == {"fallback", "clip", "pass"}

    @pytest.mark.parametrize("p", [0, 2])
    def test_no_disturbance_channel_bitwise(self, p, master_seed):
        # l = 0: the script is (T + p, 0), E @ d is a zero vector, and the
        # preview realization is the base system
        sys = LinearSystem(
            A=[[0.9, 0.2, 0.0], [0.0, 0.8, 0.3], [0.1, 0.0, 0.7]], B=[[0.2], [0.5], [1.0]],
            E=np.zeros((3, 0)), dist_set=Hyperbox.from_bounds(np.zeros(0), np.zeros(0)),
            safe=HPolytope.from_bounds([-1.0] * 4, [1.0] * 4),
        )
        sup = Supervisor(sys=sys, invariant=HPolytope.from_bounds([-0.8] * 3, [0.8] * 3),
                         input_box=Hyperbox.cube(1, 1.0))
        self.assert_runs_bitwise(sys, p, sup, np.random.default_rng(master_seed))

    @pytest.mark.parametrize("augmented", [False, True], ids=["base", "preview"])
    def test_five_states_three_disturbances_bitwise(self, augmented, master_seed):
        # n = 5, l = 3 at p = 3: a 5 x 3 disturbance product each step, and
        # with the preview supervisor a 14-entry lifted state; the invariant
        # is a box (bits, not invariance, are checked here)
        rng = np.random.default_rng(7)
        sys = LinearSystem(
            A=np.diag([1.0, 0.9, 0.8, 0.7, 0.6]) + 0.1 * np.eye(5, k=1), B=[[0.1], [0.2], [0.3], [0.4], [1.0]],
            E=0.05 * rng.uniform(-1.0, 1.0, size=(5, 3)), dist_set=Hyperbox.cube(3, 1.0),
            safe=HPolytope.from_bounds([-1.0] * 6, [1.0] * 6),
        )
        C, p = HPolytope.from_bounds([-0.8] * 5, [0.8] * 5), 3
        if augmented:
            sup_sys, C = augment(sys, p).aug, lift(C, sys.dist_set, p)
        else:
            sup_sys = sys
        sup = Supervisor(sys=sup_sys, invariant=C, input_box=Hyperbox.cube(1, 1.0))
        self.assert_runs_bitwise(sys, p, sup, np.random.default_rng(master_seed))

    @pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "unsupervised"])
    def test_overflowing_state_raises_at_its_step(self, supervised):
        # x+ = 1e100 x + u from x0 = 1e10 reaches 1e210 at t = 2 and inf at
        # t = 3, where the step must refuse the state, with or without a
        # supervisor; the invariant is narrower than the disturbance, so
        # every supervised step falls back to the input box and nothing
        # steers the state back
        sys = LinearSystem(
            A=[[1e100]], B=[[1.0]], E=[[1.0]],
            dist_set=Hyperbox.from_bounds([-0.5], [0.5]),
            safe=HPolytope(np.zeros((0, 2)), np.zeros(0)),
        )
        sup = Supervisor(sys=sys, invariant=HPolytope.from_bounds([-0.1], [0.1]),
                         input_box=Hyperbox.cube(1, 2.0))
        seen = []

        def controller(t, x, window):
            seen.append(t)
            return np.array([0.5])

        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            rollout(sys, 0, controller, sup if supervised else None, [1e10], np.zeros((6, 1)), 6)
        assert seen == [0, 1, 2, 3]

    def test_changed_steps_log_one_debug_record_each(self, lane_supervisors, caplog):
        sys, sups = lane_supervisors
        runs = list(lane_runs(sys, 2, sups[2], np.random.default_rng(4), runs=2))
        with caplog.at_level(logging.DEBUG, logger="previewsafe.simulation"):
            traces = [rollout(sys, 2, c, sups[2], x0, s, T) for c, x0, s, T in runs]
        changed = [(trace, int(t)) for trace in traces for t in np.flatnonzero(trace.supervised)]
        assert {bool(trace.fallback[t]) for trace, t in changed} == {True, False}
        assert len(caplog.records) == len(changed)
        for rec, (trace, t) in zip(caplog.records, changed):
            assert rec.name == "previewsafe.simulation" and rec.levelno == logging.DEBUG
            t_rec, u_nom, u, adm = rec.args
            assert (t_rec, u_nom, u) == (t, trace.u_nominal[t].tolist(), trace.u_applied[t].tolist())
            if trace.fallback[t]:
                assert adm == "fallback"
            else:
                assert bits(*adm) == bits(trace.adm_lo[t], trace.adm_hi[t])
            assert rec.getMessage().startswith(f"supervise: t={t} u_nom=")
        # the log does not touch the trace, and above DEBUG nothing is written
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="previewsafe.simulation"):
            quiet = [rollout(sys, 2, c, sups[2], x0, s, T) for c, x0, s, T in runs]
        assert caplog.records == []
        for a, b in zip(traces, quiet):
            assert a.to_csv() == b.to_csv()

    def test_rejects_bad_arguments(self):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 0)
        sys = prob.system()
        sup = Supervisor(sys=sys, invariant=method1(sys).result, input_box=Hyperbox.cube(1, 2.0))
        zero = lambda t, x, w: np.array([0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            rollout(sys, 0, zero, None, [0.0, 0.0], np.zeros((3, 2)), -1)
        with pytest.raises(ValueError, match="initial state"):
            rollout(sys, 0, zero, sup, [0.0, 0.0, 0.0], np.zeros((3, 2)), 2)
        # the same error with or without a supervisor
        two = lambda t, x, w: np.array([0.0, 1.0])
        for supervisor in (None, sup):
            with pytest.raises(ValueError, match="controller returned 2 inputs, the system has 1"):
                rollout(sys, 0, two, supervisor, [0.0, 0.0], np.zeros((3, 2)), 2)
        aug = augment(sys, 1).aug
        lifted = Supervisor(sys=aug, invariant=lift(method1(sys).result, sys.dist_set, 1),
                            input_box=Hyperbox.cube(1, 2.0))
        with pytest.raises(ValueError, match="supervisor state space"):
            rollout(sys, 2, zero, lifted, [0.0, 0.0], np.zeros((5, 2)), 2)

    @pytest.mark.parametrize("half_width", [0.01, 1.0], ids=["eroded_empty", "eroded_nonempty"])
    def test_rejects_supervisor_with_other_inputs(self, half_width):
        # a one-input supervisor over the state space of a two-input system:
        # with an empty erosion every step would fall back and broadcast the
        # one-coordinate box over both inputs; otherwise the dynamics would
        # meet a one-entry input
        def system(B):
            m = len(B[0])
            return LinearSystem(
                A=[[1.0, 0.1], [0.0, 1.0]], B=B, E=np.eye(2),
                dist_set=Hyperbox.cube(2, 0.05),
                safe=HPolytope.from_bounds([-1.0] * (2 + m), [1.0] * (2 + m)),
            )

        one = system([[0.5], [1.0]])
        sup = Supervisor(sys=one, invariant=HPolytope.from_bounds([-half_width] * 2, [half_width] * 2),
                         input_box=Hyperbox.cube(1, 2.0))
        two = lambda t, x, w: np.array([0.1, -0.2])
        with pytest.raises(ValueError, match="supervisor has 1 inputs, the system 2"):
            rollout(system(np.eye(2)), 0, two, sup, [0.0, 0.0], np.zeros((5, 2)), 5)


class TestRollout:
    def test_safe_column_matches_contains(self):
        # x+ = d: every state is a script entry, placed 0.5e-7 (safe within
        # the 1e-7 tolerance) and 2e-7 (unsafe) beyond one safe row at a time
        sys = LinearSystem(
            A=np.zeros((2, 2)), B=np.zeros((2, 1)), E=np.eye(2),
            dist_set=Hyperbox.cube(2, 2.0),
            safe=HPolytope(
                [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                 [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 0.3]],
                [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5],
            ),
        )
        H, h, u = sys.safe.H, sys.safe.h, 0.2
        # a point on each state row's facet, inside every other row
        centres = {0: [0.0, 0.0], 1: [0.0, 0.0], 2: [0.0, 0.0], 3: [0.0, 0.0], 6: [0.4, 0.4]}
        states, expected = [], []
        for i, c in centres.items():
            a = H[i, :2]
            for offset, safe in ((0.5e-7, True), (2e-7, False)):
                z = np.asarray(c) + (h[i] + offset - H[i] @ np.append(c, u)) * a / (a @ a)
                states.append(z)
                expected.append(safe)
        script = np.array(states[1:] + [np.zeros(2)])
        trace = rollout(sys, 0, lambda t, x, w: np.array([u]), None, states[0], script, len(states))
        assert trace.x.tobytes() == np.array(states).tobytes()
        by_contains = [sys.safe.contains(np.append(x, v), tol=1e-7) for x, v in zip(trace.x, trace.u_applied)]
        assert trace.safe.tolist() == by_contains == expected
        assert trace.first_unsafe_step() == 1 and not trace.all_safe

    def test_zero_steps_two_inputs_csv_header(self):
        sys = LinearSystem(
            A=np.eye(2), B=np.eye(2), E=np.eye(2),
            dist_set=Hyperbox.cube(2, 0.1),
            safe=HPolytope.from_bounds([-1.0] * 4, [1.0] * 4),
        )
        trace = rollout(sys, 0, lambda t, x, w: np.zeros(2), None, [0.0, 0.0], np.zeros((0, 2)), 0)
        assert len(trace) == 0 and trace.all_safe and trace.first_unsafe_step() is None
        assert trace.to_csv() == "t,x1,x2,u_nom1,u_nom2,u1,u2,d1,d2,supervised,safe,adm_lo,adm_hi\n"

    @pytest.mark.parametrize("supervised", [False, True], ids=["plain", "supervised"])
    def test_no_disturbance_channel(self, supervised):
        # l = 0: a (T + p, 0) script, empty preview windows and no d columns;
        # x+ = 0.9 x + u from 0.2 under u = 0.5 leaves [-1, 1] unless the
        # filter clips u to 1 - 0.9 x
        sys = LinearSystem(
            A=[[0.9]], B=[[1.0]], E=np.zeros((1, 0)),
            dist_set=Hyperbox.from_bounds(np.zeros(0), np.zeros(0)),
            safe=HPolytope.from_bounds([-1.0, -1.0], [1.0, 1.0]),
        )
        sup = Supervisor(sys=sys, invariant=method1(sys).result, input_box=Hyperbox.cube(1, 1.0))
        windows = []

        def controller(t, x, window):
            windows.append(window.shape)
            return np.array([0.5])

        trace = rollout(sys, 2, controller, sup if supervised else None, [0.2], np.zeros((7, 0)), 5)
        assert windows == [(2, 0)] * 5 and trace.d_applied.shape == (5, 0)
        assert trace.all_safe == supervised and trace.supervised.any() == supervised
        x = 0.2
        for t in range(5):
            assert trace.x[t, 0] == pytest.approx(x, abs=1e-12)
            x = 0.9 * x + trace.u_applied[t, 0]
        assert trace.to_csv().splitlines()[0] == "t,x1,u_nom,u,supervised,safe,adm_lo,adm_hi"
        assert len(trace.to_csv().splitlines()) == 6
        with pytest.raises(ScriptExhaustedError):
            rollout(sys, 2, controller, sup if supervised else None, [0.2], np.zeros((6, 0)), 5)

    def test_p0_is_plain_feedback(self):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.1), 0)
        sys = prob.system()
        seen = []

        def controller(t, x, window):
            seen.append(window.shape)
            return np.array([0.0])

        script = np.zeros((5, 2))
        rollout(sys, 0, controller, None, [0.1, 0.0], script, 5)
        assert all(s == (0, 2) for s in seen)

    @pytest.mark.parametrize("supervised", [False, True], ids=["plain", "supervised"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_controller_output_raises(self, value, supervised):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 0)
        sys = prob.system()
        sup = None
        if supervised:
            sup = Supervisor(sys=sys, invariant=method1(sys).result, input_box=Hyperbox.cube(1, 2.0))
        with pytest.raises(ValueError, match="finite"):
            rollout(sys, 0, lambda t, x, w: np.array([value]), sup, [0.0, 0.0], np.zeros((3, 2)), 2)

    @pytest.mark.parametrize("supervised", [False, True], ids=["plain", "supervised"])
    @pytest.mark.parametrize("where", ["x0", "script"])
    def test_non_finite_start_or_script_raises(self, where, supervised):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 1)
        sys = prob.system()
        sup = None
        if supervised:
            sup = Supervisor(sys=sys, invariant=method1(sys).result, input_box=Hyperbox.cube(1, 2.0))
        x0, script = np.zeros(2), np.zeros((6, 2))
        constant = lambda t, x, w: np.array([0.1])
        # only the T + p entries the rollout reads are checked
        script[5, 1] = np.nan
        assert len(rollout(sys, 1, constant, sup, x0, script, 4)) == 4
        if where == "x0":
            x0[0] = np.nan
        else:
            script[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rollout(sys, 1, constant, sup, x0, script, 4)

    def test_script_too_short(self):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.1), 2)
        with pytest.raises(ScriptExhaustedError):
            rollout(prob.system(), 2, lambda t, x, w: [0.0], None, [0, 0], np.zeros((5, 2)), 5)

    def test_preview_controller_reaches_invariant(self, master_seed):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.15), 2)
        sys = prob.system()
        inv = closed_form(prob)
        rng = np.random.default_rng(master_seed)
        n, p = prob.n, prob.p
        for _ in range(100):
            x0 = rng.uniform(prob.box.lo, prob.box.hi)
            script = rng.uniform(prob.dist_box.lo, prob.dist_box.hi, size=(n + p + 3, 2)) * 0.999
            trace = rollout(
                sys, p,
                lambda t, x, w: np.array([controller_g(prob, list(w))]),
                None, x0, script, n + 2,
            )
            xn = trace.x[-1]  # state at t = n + 1 > n
            t_last = trace.t[-1]
            assert membership(inv, xn, list(script[t_last : t_last + p]), tol=1e-7)

    def test_deterministic(self):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.15), 1)
        sys = prob.system()
        rng = np.random.default_rng(9)
        script = rng.uniform(-0.15, 0.15, size=(8, 2))
        args = (sys, 1, lambda t, x, w: np.array([controller_g(prob, list(w))]), None, [0.3, -0.2], script, 6)
        a, b = rollout(*args), rollout(*args)
        assert a.to_csv() == b.to_csv()

    def test_zero_disturbance_never_supervised(self):
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 0)
        sys = prob.system()
        c0 = method1(sys).result
        sup = Supervisor(sys=sys, invariant=c0, input_box=Hyperbox.cube(1, 2.0))
        aug = augment(sys, 0)
        gain = lqr_gain(
            aug.aug, LQRSpec(Q=np.eye(2), R=np.eye(1))
        )
        trace = rollout(
            sys, 0, lambda t, x, w: -gain @ x, sup,
            [0.2, 0.1], np.zeros((30, 2)), 30,
        )
        assert trace.all_safe
        assert trace.supervision_count() == 0


class TestSafetySoundness:
    def test_supervised_runs_from_inside_stay_safe(self, master_seed, lane_result):
        # from a start inside the supervisor's invariant, every step is safe
        # as long as the admissible set never empties along the run
        rng = np.random.default_rng(master_seed)

        setups = []
        lane_sys = lane_result.sys
        aug5 = augment(lane_sys, 5).aug
        setups.append((lane_sys, 5, aug5, lane_result.cio))
        bprob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.15), 1)
        baug = augment(bprob.system(), bprob.p).aug
        from previewsafe.brunovsky import closed_form as cf, to_hpolytope as hp

        setups.append((bprob.system(), 1, baug, hp(cf(bprob))))

        runs_per_setup = 170  # ~1000 runs across setups and the 3 seeds
        for sys, p, aug_sys, invariant in setups:
            from previewsafe.simulation import _input_box_of

            sup = Supervisor(sys=aug_sys, invariant=invariant, input_box=_input_box_of(sys))
            center = invariant.feasible_point()
            T = 15
            for _ in range(runs_per_setup):
                target = rng.uniform(-1.0, 1.0, size=invariant.dim)
                # blend toward the witness point until inside
                xi = None
                for t in (0.0, 0.4, 0.7, 0.9):
                    cand = target + t * (center - target)
                    if invariant.contains(cand, tol=-1e-9):
                        xi = cand
                        break
                if xi is None:
                    xi = center
                x0 = xi[: sys.n]
                window = xi[sys.n :].reshape(p, sys.l)
                rest = rng.uniform(sys.dist_set.lo, sys.dist_set.hi, size=(T, sys.l))
                script = np.vstack([window, rest])
                trace = rollout(
                    sys, p, lambda t, x, w: np.zeros(sys.m), sup, x0, script, T,
                )
                emptied = trace.fallback.any()
                if not emptied:
                    assert trace.all_safe


class TestGapState:
    # grown = [-2, 2]^2; facets x <= 1 and y <= h1 have slacks 1 and 2 - h1,
    # the other two none
    @staticmethod
    def gap_normal(h1):
        seed = HPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, h1, 2.0, 2.0])
        grown = HPolytope.from_bounds([-2.0, -2.0], [2.0, 2.0])
        point, normal = _find_gap_state(seed, grown)
        assert not seed.contains(point) and grown.contains(point)
        return normal.tolist()

    def test_near_tie_keeps_the_earlier_facet(self):
        # the later facet is deeper by ~1e-15, a last-bit difference
        assert self.gap_normal(1.0 - 1e-15) == [1.0, 0.0]

    def test_clearly_deeper_later_facet_wins(self):
        assert self.gap_normal(1.0 - 1e-6) == [0.0, 1.0]


class TestLaneKeeping:
    def test_gap_found_and_traces(self, lane_result):
        res = lane_result
        assert res.gap_found
        assert not res.cmax0.contains(res.gap_state[:4])
        assert res.cio.contains(res.gap_state, tol=1e-6)

    def test_preview_trace_safe_throughout(self, lane_result):
        assert lane_result.trace_preview.all_safe
        assert len(lane_result.trace_preview) == 100

    def test_no_preview_trace_violates(self, lane_result):
        assert lane_result.trace_no_preview.first_unsafe_step() is not None

    def test_identical_scripts(self, lane_result):
        a = lane_result.trace_preview.d_applied
        b = lane_result.trace_no_preview.d_applied
        assert np.array_equal(a, b)

    def test_inside_start_identical_traces(self):
        # started inside the no-preview invariant, both supervisors are
        # inactive under zero disturbance and produce the same trajectory
        res = lane_result_inside = lane_keeping(lane_config(), p=2, T=10, seed=1)
        sys = res.sys
        gain_ctrl = lambda t, x, w: np.array([0.0])
        sup_a = Supervisor(sys=sys, invariant=res.cmax0, input_box=Hyperbox.cube(1, 2.0))
        x0 = res.cmax0.feasible_point() * 0.2
        script = np.zeros((14, 1))
        t_a = rollout(sys, 2, gain_ctrl, sup_a, x0, script, 10)
        aug = augment(sys, 2).aug
        sup_b = Supervisor(sys=aug, invariant=lift(res.cmax0, sys.dist_set, 2), input_box=Hyperbox.cube(1, 2.0))
        t_b = rollout(sys, 2, gain_ctrl, sup_b, x0, script, 10)
        xs_a = t_a.x
        xs_b = t_b.x
        assert np.allclose(xs_a, xs_b, atol=1e-9)
        assert t_a.supervision_count() == 0 and t_b.supervision_count() == 0

    def test_non_finite_model_is_a_config_error(self):
        # a NaN axle distance is refused before it reaches the discretized A
        data = json.loads((importlib.resources.files("previewsafe") / "configs" / "lane_keeping.json").read_text())
        data["model"]["lf"] = float("nan")
        with pytest.raises(ConfigError, match="lf must be finite"):
            load_simulation_config(data)

    def test_config_must_be_parsed(self):
        ref = importlib.resources.files("previewsafe") / "configs" / "lane_keeping.json"
        with importlib.resources.as_file(ref) as path:
            with pytest.raises(ConfigError, match="JSON object"):
                load_simulation_config(str(path))

    def test_csv_contract(self, lane_result, tmp_path):
        csv = lane_result.trace_preview.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4,u_nom,u,d1,supervised,safe,adm_lo,adm_hi"
        assert len(lines) == 101
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[-3] == "1"  # safe at t=0
