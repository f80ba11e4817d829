"""Cylinder splitting, segment trading, and the equatorial limit."""

import math

import numpy as np
import pytest

from areafun.bodies import ball, ellipsoid
from areafun.errors import DomainError
from areafun.reduction import (
    abs_weight,
    circle_functional,
    circle_grid,
    cylinder,
    cylinder_lemma_residual,
    dimension_reduction_limit,
    equator_restriction,
    flattened_ellipse,
    needle,
    project_to_plane,
    reduction_grid,
    segment_factor_identity,
)
from areafun.sphere import constant, latitude_grid, linear, polynomial, q_batch


@pytest.fixture(scope="module")
def rgrid():
    return reduction_grid()


@pytest.fixture(scope="module")
def cgrid():
    return circle_grid()


@pytest.fixture(scope="module")
def unit_disc():
    return flattened_ellipse(1.0, 1.0, 0.01)


def const_one():
    return constant(3, 1.0, label="1")


class TestThickenedBodies:
    def test_flattened_ellipse_supports(self):
        K = flattened_ellipse(1.5, 0.7, 0.02)
        assert K.body3d.support([1.0, 0.0, 0.0]) == pytest.approx(1.5)
        assert K.body3d.support([0.0, 0.0, 1.0]) == pytest.approx(0.02)
        assert K.planar.support([0.0, 1.0]) == pytest.approx(0.7)
        K2 = K.rethickened(0.05)
        assert K2.a == K.a and K2.delta == 0.05

    def test_cylinder_support_function(self):
        cyl = cylinder(4.0, 0.01)
        # equator: the disc part dominates, the needle contributes R*delta
        assert cyl.body3d.support([1.0, 0.0, 0.0]) == pytest.approx(
            1.0 + 4.0 * 0.01
        )
        # pole: half-height R/2 plus the disc's thickness
        assert cyl.body3d.support([0.0, 0.0, 1.0]) == pytest.approx(2.0 + 0.01)

    def test_needle_is_unit_length_segment(self):
        seg = needle(0.01)
        assert seg.support([0.0, 0.0, 1.0]) + seg.support([0.0, 0.0, -1.0]) == (
            pytest.approx(1.0)
        )

    def test_projection_and_restriction(self):
        body = ellipsoid([1.5, 0.7, 0.3])
        shadow = project_to_plane(body)
        U = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        want = np.sqrt(1.5**2 * U[:, 0] ** 2 + 0.7**2 * U[:, 1] ** 2)
        assert np.allclose(shadow.support(U), want, rtol=1e-12)

        f = polynomial(3, {(0, 0, 0): 1.0, (1, 1, 0): 1.0}, label="f")
        f2 = equator_restriction(f)
        assert f2.value(U) == pytest.approx(1.0 + U[:, 0] * U[:, 1])

    def test_shadow_forms_are_exact(self, cgrid):
        # the shadow's jet is the leading block of the ellipsoid's, so its
        # Hessian forms are the ellipse's, not a difference quotient's
        shadow = project_to_plane(ellipsoid([1.0, 1.3, 0.7]))
        want = ellipsoid([1.0, 1.3]).q_stack(cgrid)
        assert np.max(np.abs(shadow.q_stack(cgrid) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_restricted_jet_matches_planar_polynomial(self, cgrid):
        # terms with x3 vanish on the equator, along with their derivatives
        # in the plane; the rest is the planar polynomial
        planar = {(0, 0): 1.0, (2, 0): 0.8, (1, 1): -0.5, (0, 3): 0.3}
        extra = {(1, 0, 1): 0.7, (0, 1, 2): -0.4, (0, 0, 2): 0.6}
        f3 = polynomial(3, {**{e + (0,): c for e, c in planar.items()}, **extra})
        U = cgrid.nodes
        want = q_batch(polynomial(2, planar), U)
        got = q_batch(equator_restriction(f3), U)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_abs_weight_has_values_only(self, cgrid):
        f2 = equator_restriction(linear(3, [1.0, -0.5, 2.0]))
        w = abs_weight(f2)
        U = cgrid.nodes
        assert np.array_equal(w.value(U), np.abs(f2.value(U)))
        with pytest.raises(DomainError):
            w.extension_gradient(U[:4])
        with pytest.raises(DomainError):
            q_batch(w, U[:4])

    def test_thin_bodies_rejected(self):
        with pytest.raises(DomainError):
            flattened_ellipse(1.0, 1.0, 1e-4)
        with pytest.raises(DomainError):
            needle(1e-4)
        with pytest.raises(DomainError):
            needle(0.01, half_length=0.0)
        with pytest.raises(DomainError):
            flattened_ellipse(-1.0, 1.0, 0.05)
        with pytest.raises(DomainError):
            cylinder(-2.0, 0.05)

    @pytest.mark.parametrize("check", ["cylinder", "segment", "limit"])
    def test_failed_certificate_names_body_and_thickness(self, check):
        # a 150-wide disc at thickness 0.01 has least curvature radius
        # 0.01^2/150 < 1e-6 at its rim; the thicker sweeps certify
        wide, f = flattened_ellipse(150.0, 150.0, 0.05), constant(3, 1.0)
        grids = dict(grid=latitude_grid(40, 24), circle=circle_grid(256))
        run = {
            "cylinder": lambda: cylinder_lemma_residual(f, wide, 1.0, **grids),
            "segment": lambda: segment_factor_identity(wide, ball(3), **grids),
            "limit": lambda: dimension_reduction_limit(f, wide, deltas=(0.02, 0.01), **grids),
        }[check]
        with pytest.raises(
            DomainError,
            match=r"^flat\(150,150;0\.01\): curvature certificate failed at thickness 0\.01 "
            r"\(min eigenvalue 6\.\d{3}e-07\); increase delta$",
        ):
            run()


class TestCylinderSplit:
    def test_disc_closed_form(self, rgrid, cgrid, unit_disc):
        # unit disc against a length-R cylinder with unit weight:
        # pi * R from the equator plus 2 pi from the poles
        for R in (1.0, 2.0):
            rep = cylinder_lemma_residual(
                const_one(), unit_disc, R, grid=rgrid, circle=cgrid
            )
            want = math.pi * R + 2.0 * math.pi
            assert rep.rhs == pytest.approx(want, rel=1e-9)
            assert rep.equator_term == pytest.approx(math.pi * R, rel=1e-9)
            assert rep.pole_term == pytest.approx(2.0 * math.pi, rel=1e-9)
            assert abs(rep.lhs_extrapolated - want) <= 0.005 * want
            assert rep.relative_residual <= 0.005

    def test_odd_weight_cancels(self, rgrid, cgrid, unit_disc):
        odd = linear(3, [0.0, 0.0, 1.0], label="u3")
        rep = cylinder_lemma_residual(odd, unit_disc, 1.0, grid=rgrid, circle=cgrid)
        # equator restriction vanishes identically and the polar masses cancel
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs_scale == pytest.approx(2.0 * math.pi, rel=1e-9)
        assert rep.relative_residual <= 1e-8

    def test_affine_in_length(self, rgrid, cgrid, unit_disc):
        # the split is affine in R with slope = half the equatorial integral
        f = polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.5, (0, 0, 2): 0.2}, label="f")
        reps = {
            R: cylinder_lemma_residual(f, unit_disc, R, grid=rgrid, circle=cgrid)
            for R in (1.0, 2.0, 4.0)
        }
        slope_lo = reps[2.0].lhs_extrapolated - reps[1.0].lhs_extrapolated
        slope_hi = (reps[4.0].lhs_extrapolated - reps[2.0].lhs_extrapolated) / 2.0
        f2 = equator_restriction(f)
        eq, _ = circle_functional(f2, unit_disc.planar, cgrid)
        assert slope_lo == pytest.approx(0.5 * eq, rel=0.01)
        assert slope_hi == pytest.approx(0.5 * eq, rel=0.01)

    def test_extrapolation_stability(self, rgrid, cgrid, unit_disc):
        rep = cylinder_lemma_residual(
            const_one(), unit_disc, 1.0, grid=rgrid, circle=cgrid
        )
        # extrapolating from the coarser delta pair must land nearby: the
        # spread stays below twice the acceptance tolerance of the residual
        assert rep.extrapolation_spread <= 2.0 * 0.02 * rep.rhs_scale

    def test_elliptical_base(self, rgrid, cgrid):
        # non-circular flat body: no closed form needed, the two sides are
        # computed through unrelated code paths (3d mixed density vs planar)
        K = flattened_ellipse(1.3, 0.6, 0.01)
        f = polynomial(3, {(0, 0, 0): 1.0, (0, 2, 0): 0.4}, label="f")
        rep = cylinder_lemma_residual(f, K, 3.0, grid=rgrid, circle=cgrid)
        assert rep.relative_residual <= 0.02

    def test_validation(self, rgrid, cgrid, unit_disc):
        f4 = constant(4, 1.0)
        with pytest.raises(DomainError):
            cylinder_lemma_residual(f4, unit_disc, 1.0, grid=rgrid, circle=cgrid)
        with pytest.raises(DomainError):
            cylinder_lemma_residual(
                const_one(), unit_disc.body3d, 1.0, grid=rgrid, circle=cgrid
            )
        with pytest.raises(DomainError):
            cylinder_lemma_residual(
                const_one(), unit_disc, 1.0, deltas=(0.5, 0.2), grid=rgrid, circle=cgrid
            )
        with pytest.raises(DomainError):
            cylinder_lemma_residual(
                const_one(), unit_disc, 1.0, deltas=(0.05,), grid=rgrid, circle=cgrid
            )


class TestSegmentFactor:
    def test_ball_against_disc(self, rgrid, cgrid, unit_disc):
        # shadow of the ball is the unit disc; planar mixed volume of two
        # unit discs is pi
        rep = segment_factor_identity(unit_disc, ball(3), grid=rgrid, circle=cgrid)
        assert rep.planar_value == pytest.approx(math.pi, rel=1e-9)
        assert rep.relative_residual <= 0.01

    def test_disc_against_disc(self, rgrid, cgrid, unit_disc):
        L = flattened_ellipse(1.0, 1.0, 0.05).body3d
        rep = segment_factor_identity(unit_disc, L, grid=rgrid, circle=cgrid)
        assert rep.planar_value == pytest.approx(math.pi, rel=1e-9)
        assert rep.relative_residual <= 0.01

    def test_translation_invariance(self, rgrid, cgrid, unit_disc):
        L = ellipsoid([0.9, 1.1, 0.5])
        rep = segment_factor_identity(unit_disc, L, grid=rgrid, circle=cgrid)
        rep_t = segment_factor_identity(
            unit_disc, L.translate([0.2, -0.1, 0.3]), grid=rgrid, circle=cgrid
        )
        assert rep_t.ambient_extrapolated == pytest.approx(
            rep.ambient_extrapolated, rel=1e-8
        )
        assert rep_t.planar_value == pytest.approx(rep.planar_value, rel=1e-8)

    def test_validation(self, rgrid, cgrid, unit_disc):
        with pytest.raises(DomainError):
            segment_factor_identity(unit_disc.body3d, ball(3), grid=rgrid, circle=cgrid)
        with pytest.raises(DomainError):
            segment_factor_identity(unit_disc, ball(4), grid=rgrid, circle=cgrid)


class TestReductionLimit:
    def test_disc_limit(self, rgrid, cgrid, unit_disc):
        lim = dimension_reduction_limit(
            const_one(), unit_disc, grid=rgrid, circle=cgrid
        )
        assert lim.circle_value == pytest.approx(math.pi, rel=1e-9)
        assert lim.pole_mass == pytest.approx(2.0 * math.pi, rel=1e-9)
        # raw scaled values decay onto the limit at rate 1/R ...
        assert lim.raw_errors[0] > lim.raw_errors[1] > lim.raw_errors[2]
        for ratio in lim.decay_ratios:
            assert 3.2 <= ratio <= 5.0  # R quadruples each step
        # ... and removing the R-independent polar mass exposes it right away
        assert all(err <= 0.02 for err in lim.corrected_errors)
        assert lim.corrected_errors[-1] <= 0.005

    def test_nonconstant_weight(self, rgrid, cgrid, unit_disc):
        f = polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4}, label="f")
        lim = dimension_reduction_limit(
            f, unit_disc, R_list=(8.0, 32.0), grid=rgrid, circle=cgrid
        )
        # unit disc: (1/2) * integral of (1 + 0.4 cos^2) over the circle
        assert lim.circle_value == pytest.approx(1.2 * math.pi, rel=1e-9)
        assert lim.corrected_errors[-1] <= 0.02
        assert lim.raw_errors[0] >= 3.0 * lim.raw_errors[1]

    def test_validation(self, rgrid, cgrid, unit_disc):
        with pytest.raises(DomainError):
            dimension_reduction_limit(
                const_one(), unit_disc, R_list=(0.0, 2.0), grid=rgrid, circle=cgrid
            )
