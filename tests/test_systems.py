from dataclasses import replace

import numpy as np
import pytest

from previewsafe.errors import ConfigError, ImageNotExactError, NumericalError, RowBlowupError
from previewsafe.geometry import HPolytope, Hyperbox, polytope, project, set_equal
from previewsafe.geometry.polytope import _as_polytope
from previewsafe.systems import (
    BrunovskyProblem,
    augment,
    collaborative,
    evariant,
    make_brunovsky,
    system_from_config,
    system_to_config,
)

MASTER_SEEDS = [11, 222, 3333]


def scalar_example_system(a=2.0, beta=1.0, gamma=1.0, r=2.0):
    # x+ = a x + u + d with |x| <= r, |u| <= beta, |d| <= gamma
    from previewsafe.systems import LinearSystem

    safe = HPolytope(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [r, r, beta, beta]
    )
    return LinearSystem(
        A=[[a]], B=[[1.0]], E=[[1.0]],
        dist_set=Hyperbox.from_bounds([-gamma], [gamma]), safe=safe,
    )


class TestMakeBrunovsky:
    def test_n2_matrices(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))
        assert np.array_equal(sys.A, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(sys.B, [[0.0], [1.0]])
        assert np.array_equal(sys.E, np.eye(2))

    def test_n1(self):
        sys = make_brunovsky(1, Hyperbox.cube(1, 0.2), Hyperbox.cube(1, 1.0))
        assert np.array_equal(sys.A, [[0.0]])
        assert np.array_equal(sys.B, [[1.0]])

    def test_nilpotent(self):
        sys = make_brunovsky(5, Hyperbox.cube(5, 0.1), Hyperbox.cube(5, 1.0))
        assert np.allclose(np.linalg.matrix_power(sys.A, 5), 0.0)

    def test_input_unconstrained(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))
        # no u-rows: last column of the safe set is identically zero
        assert np.allclose(sys.safe.H[:, -1], 0.0)


class TestStep:
    def test_shift(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0))
        out = sys.A @ [0.0, 1.0] + sys.B @ [0.0] + sys.E @ [0.0, 0.0]
        assert np.allclose(out, [1.0, 0.0])

    def test_scalar_arithmetic(self):
        sys = scalar_example_system()
        assert sys.A @ [1.0] + sys.B @ [-1.0] + sys.E @ [0.5] == pytest.approx(np.array([1.5]))

    def test_zero_dynamics(self):
        from previewsafe.systems import LinearSystem

        sys = LinearSystem(
            A=np.zeros((2, 2)), B=np.zeros((2, 1)), E=np.zeros((2, 1)),
            dist_set=Hyperbox.from_bounds([0.0], [0.0]),
            safe=HPolytope(np.zeros((0, 3)), np.zeros(0)),
        )
        assert np.allclose(sys.A @ [3.0, -1.0] + sys.B @ [5.0] + sys.E @ [2.0], 0.0)


class TestAugment:
    def test_scalar_p1_structure(self):
        sys = scalar_example_system()
        ps = augment(sys, 1)
        assert ps.aug.n == 2
        assert np.array_equal(ps.aug.A, [[2.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(ps.aug.B, [[1.0], [0.0]])
        assert np.array_equal(ps.aug.E, [[0.0], [1.0]])

    def test_p0_identity(self):
        sys = scalar_example_system()
        assert augment(sys, 0).aug is sys

    def test_shift_register_trace(self):
        sys = make_brunovsky(2, Hyperbox.cube(2, 0.3), Hyperbox.cube(2, 1.0))
        ps = augment(sys, 2)
        assert ps.aug.n == 6
        rng = np.random.default_rng(0)
        script = [rng.uniform(-0.3, 0.3, size=2) for _ in range(5)]
        xi = np.concatenate([[0.1, -0.2], script[0], script[1]])
        for t in range(3):
            xi = ps.aug.A @ xi + ps.aug.B @ [0.0] + ps.aug.E @ script[t + 2]
            # the d-blocks hold the next two scripted disturbances
            assert np.allclose(xi[2:4], script[t + 1])
            assert np.allclose(xi[4:6], script[t + 2])

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_augmented_matches_base_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        sys = scalar_example_system()
        for p in (1, 3):
            ps = augment(sys, p)
            T = 6
            script = [rng.uniform(-1, 1, size=1) for _ in range(T + p)]
            inputs = [rng.uniform(-1, 1, size=1) for _ in range(T)]
            x = np.array([0.5])
            xi = np.concatenate([x] + script[:p])
            for t in range(T):
                x = sys.A @ x + sys.B @ inputs[t] + sys.E @ script[t]
                xi = ps.aug.A @ xi + ps.aug.B @ inputs[t] + ps.aug.E @ script[t + p]
                assert np.max(np.abs(xi[:1] - x)) <= 1e-12

    def test_nesting_of_augmentations(self):
        sys = scalar_example_system()
        a1 = augment(sys, 1).aug
        a3 = augment(sys, 3).aug
        assert np.allclose(a3.A[:2, :2], a1.A)
        assert np.allclose(a3.B[:2], a1.B)


class TestCollaborative:
    def test_scalar(self):
        sys = scalar_example_system()
        co = collaborative(sys)
        assert co.m == 2
        assert np.array_equal(co.B, [[1.0, 1.0]])
        assert np.allclose(co.E, 0.0)
        # safe box is [-r,r] x [-beta,beta] x [-gamma,gamma]
        assert set_equal(co.safe, HPolytope.from_box(Hyperbox.from_bounds([-2, -1, -1], [2, 1, 1])))

    def test_disturbance_has_no_influence(self):
        sys = scalar_example_system()
        co = collaborative(sys)
        x, u = [0.3], [0.2, -0.1]
        assert np.allclose(co.A @ x + co.B @ u + co.E @ [0.0], co.A @ x + co.B @ u + co.E @ [0.0])
        assert co.dist_set.lo == pytest.approx(0.0)
        assert co.dist_set.hi == pytest.approx(0.0)

    def test_l_zero_keeps_input_dim(self):
        from previewsafe.systems import LinearSystem

        sys = LinearSystem(
            A=[[1.0]], B=[[1.0]], E=np.zeros((1, 0)),
            dist_set=Hyperbox.from_bounds([], []), safe=HPolytope.from_bounds([-1, -1], [1, 1]),
        )
        co = collaborative(sys)
        assert co.m == 1


class TestBrunovskyProblem:
    def test_dist_box_recomputed(self):
        # diamond |d1| + |d2| <= 0.3: its smallest box is [-0.3, 0.3]^2
        diamond = HPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]], [0.3] * 4)
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), diamond, 1)
        assert np.allclose(prob.dist_box.lo, [-0.3, -0.3])
        assert np.allclose(prob.dist_box.hi, [0.3, 0.3])

    def test_invalid(self):
        from previewsafe.errors import InvalidParametersError

        with pytest.raises(InvalidParametersError):
            BrunovskyProblem.create(0, Hyperbox.from_bounds([], []), Hyperbox.from_bounds([], []), 0)

    def test_replace_recomputes_derived_fields(self):
        # n and dist_box are derived on every construction, so a replaced
        # disturbance set cannot keep the old box (the closed form would use it)
        from previewsafe.errors import InvalidParametersError

        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 1)
        diamond = HPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]], [0.1] * 4)
        other = replace(prob, dist=diamond)
        assert np.allclose(other.dist_box.lo, [-0.1, -0.1])
        assert np.allclose(other.dist_box.hi, [0.1, 0.1])
        wider = replace(prob, box=Hyperbox.cube(3, 1.0), dist=Hyperbox.cube(3, 0.2))
        assert wider.n == 3 and wider.dist_box.dim == 3
        with pytest.raises(ValueError):
            replace(prob, dist_box=Hyperbox.cube(2, 0.5))
        with pytest.raises(InvalidParametersError):
            replace(prob, dist=Hyperbox.cube(3, 0.2))
        with pytest.raises(InvalidParametersError):
            replace(prob, p=-1)


class TestEvariant:
    def test_identity(self):
        box = Hyperbox.cube(2, 1.0)
        dist = Hyperbox.cube(2, 0.2)
        prob = evariant(2, np.eye(2), dist, box, 1)
        plain = BrunovskyProblem.create(2, box, dist, 1)
        assert (
            prob.n == plain.n
            and prob.p == plain.p
            and prob.box == plain.box
            and prob.dist_box == plain.dist_box
            and set_equal(_as_polytope(prob.dist), _as_polytope(plain.dist))
        )
        assert prob.ebar is None

    def test_coordinate_embedding(self):
        # Ebar = [0; 1]: the image of [-1,1] is the segment {0} x [-1,1]
        prob = evariant(2, np.array([[0.0], [1.0]]), Hyperbox.from_bounds([-1], [1]), Hyperbox.cube(2, 2.0), 0)
        seg = HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 1])
        assert set_equal(_as_polytope(prob.dist), seg)
        assert np.allclose(prob.dist_box.lo, [0.0, -1.0])
        assert np.allclose(prob.dist_box.hi, [0.0, 1.0])

    def test_diagonal_segment_image(self):
        prob = evariant(2, np.array([[1.0], [1.0]]), Hyperbox.from_bounds([-1], [1]), Hyperbox.cube(2, 2.0), 0)
        diag = HPolytope([[1, -1], [-1, 1], [1, 0], [-1, 0]], [0, 0, 1, 1])
        assert set_equal(_as_polytope(prob.dist), diag)
        # bounding box of the diagonal segment is the full square
        assert np.allclose(prob.dist_box.lo, [-1.0, -1.0])
        assert np.allclose(prob.dist_box.hi, [1.0, 1.0])

    def test_unbounded_image_refused(self):
        half = HPolytope([[1.0]], [1.0])  # unbounded input set
        with pytest.raises(ImageNotExactError):
            evariant(2, np.array([[1.0], [1.0]]), half, Hyperbox.cube(2, 2.0), 0)

    def test_row_cap_guard(self, monkeypatch):
        cube = HPolytope.from_box(Hyperbox.cube(3, 1.0))
        ebar = np.array([[1.0, 0.5], [0.0, 1.0]])
        args = (2, ebar, Hyperbox.cube(2, 0.2), Hyperbox.cube(2, 1.0), 1)
        # below the cap both succeed
        assert project(cube, [0, 1]).nrows == 4
        assert evariant(*args).ebar is not None
        # each projection iterate keeps 4 rows: over a cap of 3 it raises
        monkeypatch.setattr(polytope, "_ROW_CAP", 3)
        with pytest.raises(RowBlowupError):
            project(cube, [0, 1])
        with pytest.raises(ImageNotExactError) as info:
            evariant(*args)
        assert isinstance(info.value.__cause__, RowBlowupError)

    def test_solver_failure_is_not_called_unbounded(self, monkeypatch):
        # only unboundedness makes the image "not a polytope"
        def failing_bounding_box(self):
            raise NumericalError("support LP did not finish")

        monkeypatch.setattr(HPolytope, "bounding_box", failing_bounding_box)
        with pytest.raises(NumericalError):
            evariant(2, np.array([[1.0], [1.0]]), Hyperbox.cube(1, 1.0), Hyperbox.cube(2, 2.0), 0)


class TestConfigRoundtrip:
    def test_roundtrip(self):
        sys = scalar_example_system()
        cfg = system_to_config(sys, preview=2)
        sys2, p = system_from_config(cfg)
        assert p == 2
        assert np.allclose(sys2.A, sys.A)
        assert np.allclose(sys2.B, sys.B)
        assert np.allclose(sys2.E, sys.E)
        assert set_equal(sys2.safe, sys.safe)

    def test_malformed(self):
        with pytest.raises(ConfigError):
            system_from_config({"A": [[1.0]]})

    @pytest.mark.parametrize("preview", [-1, 1.7, True, "2"], ids=["negative", "fraction", "bool", "string"])
    def test_preview_must_be_a_nonnegative_integer(self, preview):
        # -1 used to fail untyped in augment; 1.7 and true were read as 1
        cfg = system_to_config(scalar_example_system())
        cfg["preview"] = preview
        with pytest.raises(ConfigError, match="preview must be a nonnegative integer"):
            system_from_config(cfg)

    def test_inconsistent_dims(self):
        cfg = system_to_config(scalar_example_system())
        cfg["B"] = [[1.0], [1.0]]
        with pytest.raises(ConfigError):
            system_from_config(cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["A", "B", "E"])
def test_linear_system_refuses_non_finite_matrices(name, bad):
    # a typed error, not an empty set that "converged" (an infinite E erodes
    # every row by +inf) nor "H must be finite" from deep inside HPolytope;
    # the config readers report it as ConfigError (tests/test_cli.py)
    from previewsafe.systems import LinearSystem

    good = scalar_example_system()
    matrices = {"A": good.A, "B": good.B, "E": good.E}
    matrices[name] = np.array([[bad]])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LinearSystem(**matrices, dist_set=good.dist_set, safe=good.safe)
