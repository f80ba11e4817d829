"""Support bodies: construction, certification, exact Hessian-form realization."""

import math

import numpy as np
import pytest

from areafun import sphere
from areafun.bodies import (
    ball,
    certified_strength,
    certify_c2plus,
    combine,
    ellipsoid,
    perturb,
    realize_q,
)
from areafun.errors import ConstructionError, DomainError
from areafun.functionals import _sweep
from areafun.sphere import make_grid, q_matrix

RNG = np.random.default_rng(99)


def rand_unit(n, rng=RNG):
    x = rng.normal(size=n)
    return x / np.linalg.norm(x)


@pytest.fixture(scope="module")
def grid3():
    return make_grid(3, 2048)


class TestConstruction:
    def test_ball_support(self):
        B = ball(3, 2.0)
        U = np.stack([rand_unit(3) for _ in range(5)])
        np.testing.assert_allclose(B.support(U), 2.0)

    def test_ellipsoid_support_closed_form(self):
        E = ellipsoid([1.0, 2.0, 3.0])
        u = rand_unit(3)
        want = math.sqrt(u[0] ** 2 + 4 * u[1] ** 2 + 9 * u[2] ** 2)
        assert E.support(u) == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_ellipsoid_rejects_axes_with_infinite_squares(self):
        for bad in ([1e200, 1.0, 1.0], [1.0, math.inf, 1.0], [1.0, math.nan, 1.0]):
            with pytest.raises(DomainError):
                ellipsoid(bad)

    def test_minkowski_sum_supports_add(self):
        K = ellipsoid([1.0, 2.0, 1.5])
        L = ball(3, 0.5)
        M = combine([1.0, 1.0], [K, L])
        u = rand_unit(3)
        assert M.support(u) == pytest.approx(K.support(u) + L.support(u), rel=1e-12)

    def test_combine_rejects_negative(self):
        with pytest.raises(DomainError):
            combine([1.0, -0.2], [ball(3), ball(3)])

    def test_translate_keeps_curvature(self, grid3):
        K = ellipsoid([1.0, 2.0, 1.5]).translate([0.3, -0.1, 0.5])
        np.testing.assert_allclose(
            K.q_stack(grid3), ellipsoid([1.0, 2.0, 1.5]).q_stack(grid3), atol=1e-9
        )

    def test_scale_scales_eigs(self, grid3):
        K = ellipsoid([1.0, 2.0, 1.5])
        np.testing.assert_allclose(
            K.scale(3.0).q_eigs(grid3), 3.0 * K.q_eigs(grid3), atol=1e-9
        )


class TestCertification:
    def test_ball_certifies(self, grid3):
        cert = certify_c2plus(ball(3, 1.0), grid3)
        assert cert.ok
        assert cert.min_eig == pytest.approx(1.0, abs=1e-9)

    def test_ellipsoid_min_radius(self, grid3):
        # prolate ellipsoid (a,a,c), c > a: the minimum curvature radius over
        # the sphere is a^2/c, attained at the poles
        a, c = 1.0, 3.0
        E = ellipsoid([a, a, c])
        cert = certify_c2plus(E, grid3)
        assert cert.ok
        assert cert.min_eig == pytest.approx(a * a / c, rel=5e-3)

    def test_nonconvex_fails(self, grid3):
        # 1 + 0.8(x1^2 - x2^2) has Hessian-form eigenvalue 1 - 1.6 < 0 near e3
        f = sphere.polynomial(
            3, {(0, 0, 0): 1.0, (2, 0, 0): 0.8, (0, 2, 0): -0.8}, label="bad"
        )
        from areafun.bodies import SupportBody

        K = SupportBody(f)
        cert = certify_c2plus(K, grid3)
        assert not cert.ok
        assert cert.min_eig < -0.5

    def test_eigenvalues_are_those_of_the_stack(self):
        g = make_grid(3, 256)
        K = ellipsoid([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(K.q_eigs(g), np.linalg.eigvalsh(K.q_stack(g)))


class TestRealizeQ:
    def test_exact_at_point(self):
        rng = np.random.default_rng(4)
        for n in (3, 4):
            u = rand_unit(n, rng)
            W = rng.normal(size=(n - 1, n - 1))
            A = W @ W.T + 0.3 * np.eye(n - 1)
            K = realize_q(A, u)
            np.testing.assert_allclose(q_matrix(K.h, u), A, atol=1e-8)
            assert K.support(u) == pytest.approx(1.0, abs=1e-12)

    def test_at_pole(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        K = realize_q(A, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(q_matrix(K.h, np.array([0.0, 0.0, 1.0])), A, atol=1e-10)

    def test_globally_convex(self, grid3):
        A = np.array([[3.0, 1.0], [1.0, 0.7]])
        K = realize_q(A, rand_unit(3))
        assert certify_c2plus(K, grid3, margin=1e-8).ok

    def test_rejects_indefinite(self):
        with pytest.raises(ConstructionError):
            realize_q(np.diag([1.0, -0.1]), np.array([0.0, 0.0, 1.0]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            realize_q(np.eye(3), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            realize_q(np.eye(2), np.array([0.0, 0.0, 2.0]))


def largest_certified_strength(body, phi, grid, margin=1e-6):
    """certified_strength from the margin row of a node sweep with no summed
    row, as the counterexample search certifies (weight and order unread)."""
    sweep = _sweep(sphere.constant(body.n, 1.0), body, phi, 1, grid, (), margin=margin)
    return certified_strength(sweep[1])


class TestPerturbationFamily:
    """Closed-form certified strength of the family s -> h + s*phi."""

    def test_ball_linear_bound(self, grid3):
        # perturbing the unit ball: Q(h + s phi) = I + s Q(phi); the exact
        # frontier is (1 - margin)/max_spectral(Q_phi) in each direction
        phi = sphere.polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): -1.0}, label="saddle")
        margin = 1e-6
        eigs = np.linalg.eigvalsh(sphere.q_batch(phi, grid3.nodes, grid3.frames()))
        # level(s) = 1 + s * min_node_eig for s > 0, 1 - |s| * max_node_eig for s < 0
        m_neg = -float(np.min(eigs))
        m_pos = float(np.max(eigs))
        minus_phi = sphere.combination([-1.0], [phi])
        s_plus = largest_certified_strength(ball(3), phi, grid3, margin=margin)
        s_minus = largest_certified_strength(ball(3), minus_phi, grid3, margin=margin)
        assert s_plus == pytest.approx((1.0 - margin) / m_neg, rel=1e-12)
        assert s_minus == pytest.approx((1.0 - margin) / m_pos, rel=1e-12)

    def test_support_direction_is_unbounded(self, grid3):
        # adding a multiple of another support function never destroys convexity
        one = sphere.constant(3, 1.0)
        assert largest_certified_strength(ball(3), one, grid3) == math.inf
        minus_one = sphere.constant(3, -1.0)
        assert 0.9 < largest_certified_strength(ball(3), minus_one, grid3) < 1.0

    def test_family_members_certify(self, grid3):
        phi = sphere.polynomial(3, {(2, 0, 0): 1.0, (0, 0, 2): -0.5}, label="p")
        s_max = largest_certified_strength(ball(3), phi, grid3)
        assert certify_c2plus(perturb(ball(3), phi, 0.999 * s_max), grid3).ok
        assert not certify_c2plus(perturb(ball(3), phi, 1.01 * s_max), grid3).ok

    def test_rejects_nonconvex_base(self, grid3):
        from areafun.bodies import SupportBody

        bad = SupportBody(
            sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 2.0, (0, 2, 0): -2.0})
        )
        assert largest_certified_strength(bad, sphere.constant(3, 1.0), grid3) == 0.0
