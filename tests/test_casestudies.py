import numpy as np
import pytest
from conftest import default_scalar_problem, set_digest

from previewsafe.casestudies import (
    ScalarPreviewProblem,
    example1_config,
    example4_config,
    example5_config,
    scalar_cmax,
    scalar_projection,
    scalar_strict_growth,
)
from previewsafe.errors import InvalidParametersError
from previewsafe.geometry import HPolytope, contains_set, project, set_equal, volume
from previewsafe.invariance import is_invariant, lift, method1, method2
from previewsafe.systems import augment, collaborative


class TestScalarProblem:
    def test_validity_conditions(self):
        with pytest.raises(InvalidParametersError):
            ScalarPreviewProblem(0.9, 1.0, 1.0, 2.0, 1)  # a <= 1
        with pytest.raises(InvalidParametersError):
            ScalarPreviewProblem(2.0, 1.0, 1.0, 1.5, 1)  # r too small
        with pytest.raises(InvalidParametersError):
            ScalarPreviewProblem(2.0, 1.0, 1.5, 3.0, 1)  # gamma > a^(p-1) beta

    def test_boundary_equality_is_valid(self):
        # r = (beta+gamma)/(a-1) and a^(p-1) beta = gamma exactly
        ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1)

    def test_default_has_slack(self):
        prob = default_scalar_problem()
        assert prob.r - (prob.beta + prob.gamma) / (prob.a - 1) >= 0.1
        assert prob.a ** (prob.p - 1) * prob.beta - prob.gamma >= 0.1


@pytest.mark.parametrize("params, digest", [
    ((2.0, 1.0, 1.0, 2.0, 1), "0708e6fffa630f4f1cfcb61cf7ce9936ad74ae15d325a446d4d2f159893b9d97"),
    ((3.0, 0.5, 0.25, 1.7, 2), "05e0ebd48424dd2f336a9ab3d281b9a9e89a9559a7b66853fcdf5b48730fc655"),
])
def test_scalar_safe_set_golden(params, digest):
    # the rows |x| <= r, |u| <= beta of the safe set, bit for bit
    safe = ScalarPreviewProblem(*params).system().safe
    a, beta, gamma, r, p = params
    assert safe.H.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    assert safe.h.tolist() == [r, r, beta, beta]
    assert set_digest(safe) == digest


class TestScalarCmax:
    def test_p1_values(self):
        cm = scalar_cmax(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1))
        assert cm.weighted_bound == pytest.approx(0.5)
        assert cm.weights == (0.5,)
        assert cm.d_bound == 1.0

    def test_p2_value(self):
        cm = scalar_cmax(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 2))
        assert cm.weighted_bound == pytest.approx(0.75)

    def test_no_disturbance_limit(self):
        cm = scalar_cmax(ScalarPreviewProblem(2.0, 1.0, 0.0, 2.0, 1))
        assert cm.weighted_bound == pytest.approx(1.0)  # beta / (a - 1)

    @pytest.mark.parametrize(
        "params", [(2.0, 1.0, 1.0, 2.0), (3.0, 1.0, 0.5, 1.0)]
    )
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_method1(self, params, p):
        a, beta, gamma, r = params
        prob = ScalarPreviewProblem(a, beta, gamma, r, p)
        rep = method1(augment(prob.system(), p).aug)
        assert rep.converged
        assert set_equal(rep.result, scalar_cmax(prob).to_hpolytope())

    def test_membership(self):
        cm = scalar_cmax(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1))
        assert cm.membership(0.4, [0.2])
        assert not cm.membership(0.6, [0.2])  # 0.6 + 0.1 > 0.5
        assert not cm.membership(0.0, [1.2])  # preview out of range


class TestScalarProjection:
    def test_p1_formula(self):
        proj = scalar_projection(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1))
        assert proj.halfwidth == pytest.approx(1.0)
        assert proj.collaborative_halfwidth == pytest.approx(2.0)

    def test_limit_approaches_collaborative(self):
        for p in (4, 8, 16):
            proj = scalar_projection(ScalarPreviewProblem(2.0, 1.0, 1.0, 4.0, p))
            assert proj.halfwidth < proj.collaborative_halfwidth
        wide = scalar_projection(ScalarPreviewProblem(2.0, 1.0, 1.0, 4.0, 40))
        assert wide.collaborative_halfwidth - wide.halfwidth == pytest.approx(0.0, abs=1e-9)

    def test_gap_halves_each_step(self):
        gaps = [
            scalar_projection(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, p)).gap
            for p in (1, 2, 3, 4)
        ]
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(a / 2)

    def test_matches_geometry_projection(self):
        prob = ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 2)
        shadow = project(scalar_cmax(prob).to_hpolytope(), [0])
        hw = scalar_projection(prob).halfwidth
        assert set_equal(shadow, HPolytope.from_bounds([-hw], [hw]), tol=1e-9)


class TestStrictGrowth:
    @pytest.mark.parametrize("p", [1, 2])
    def test_growth(self, p):
        assert scalar_strict_growth(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, p))

    def test_no_disturbance_no_growth(self):
        assert not scalar_strict_growth(ScalarPreviewProblem(2.0, 1.0, 0.0, 2.0, 1))


class TestAuxiliaryDynamics:
    def test_image_interval(self):
        # the image {a^p x + sum a^(p-i) d_i} of the invariant set is
        # [-(a^p beta - gamma)/(a-1), +...]; checked via support calls
        a, beta, gamma, r, p = 2.0, 1.0, 1.0, 2.0, 2
        cm = scalar_cmax(ScalarPreviewProblem(a, beta, gamma, r, p))
        poly = cm.to_hpolytope()
        direction = np.array([a**p] + [a ** (p - i) for i in range(1, p + 1)])
        b_bar = (a**p * beta - gamma) / (a - 1)
        assert poly.support(direction) == pytest.approx(b_bar, abs=1e-9)
        assert -poly.support(-direction) == pytest.approx(-b_bar, abs=1e-9)


class TestExample1:
    def test_method2_stalls_method1_fills(self):
        sys, seed = example1_config(p=1)
        aug = augment(sys, 1).aug
        r2 = method2(aug, seed, 10)
        assert set_equal(r2.result, seed)
        r1 = method1(aug)
        assert r1.converged
        segment = HPolytope([[1, -1], [-1, 1], [1, 0], [-1, 0]], [0, 0, 1, 1])
        assert set_equal(r1.result, lift(segment, sys.dist_set, 1))

    def test_gap_is_strict_but_measure_zero(self):
        sys, seed = example1_config(p=1)
        aug = augment(sys, 1).aug
        r1 = method1(aug)
        assert contains_set(r1.result, seed) and not contains_set(seed, r1.result)
        assert volume(r1.result, seed=0, samples=10_000) == 0.0


class TestExample4:
    def test_gap_between_preview_and_collaborative(self):
        sys = example4_config()
        for p in (0, 1, 2):
            rep = method1(augment(sys, p).aug)
            assert rep.converged and rep.result.is_empty
        co = method1(collaborative(sys))
        assert set_equal(co.result, HPolytope.from_bounds([-1], [1]), tol=1e-9)
        assert is_invariant(sys, HPolytope.empty(1))


class TestConfigExport:
    def test_cases_roundtrip_through_system_schema(self):
        from previewsafe.systems import system_from_config, system_to_config

        cases = [
            example1_config(p=1)[0],
            example4_config(),
            example5_config(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1)),
            default_scalar_problem().system(),
        ]
        for sys in cases:
            back, _ = system_from_config(system_to_config(sys, preview=1))
            assert np.allclose(back.A, sys.A)
            assert set_equal(back.safe, sys.safe)


class TestExample5:
    def test_transform_preserves_invariant(self):
        prob = ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1)
        sys5 = example5_config(prob)
        rep = method1(augment(sys5, 1).aug)
        assert rep.converged
        assert set_equal(rep.result, scalar_cmax(prob).to_hpolytope())
        assert sys5.safe.contains([0.0, 0.0])

    def test_strict_growth_persists_under_transform(self):
        prob = ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1)
        sys5 = example5_config(prob)
        small = method1(augment(sys5, 1).aug).result
        big = method1(augment(sys5, 2).aug).result
        lifted = lift(small, sys5.dist_set, 1)
        assert contains_set(big, lifted) and not contains_set(lifted, big)
