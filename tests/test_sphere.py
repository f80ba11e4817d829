"""Spherical functions, frames, Hessian forms, and grid quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import fd_hessian_of_extension

import areafun.sphere as sp
from areafun.errors import DomainError, EvaluationError
from areafun.sphere import (
    bump,
    combination,
    compose_orthogonal,
    constant,
    frames,
    latitude_grid,
    linear,
    make_grid,
    polynomial,
    q_batch,
    q_matrix,
    quadratic_support,
    sphere_area,
    tangent_frame,
)

RNG = np.random.default_rng(7)


def integrate(g, fn):
    """Paired quadrature of a node function: (value, |fine - coarse|)."""
    return g.paired(lambda h: h.weighted_sum(fn(h.nodes)))


def rand_unit(n, m=1, rng=RNG):
    X = rng.normal(size=(m, n))
    X /= np.linalg.norm(X, axis=1)[:, None]
    return X[0] if m == 1 else X


class TestExtensionCalculus:
    def test_homogeneity(self):
        f = polynomial(3, {(2, 0, 0): 1.0, (0, 1, 1): -0.5, (0, 0, 0): 0.3})
        assert f.homogeneity_residual() < 1e-12

    def test_gradient_euler_identity(self):
        # 1-homogeneous: <grad fbar(u), u> = fbar(u)
        f = polynomial(4, {(2, 0, 0, 0): 1.0, (0, 0, 1, 3): 0.7})
        U = rand_unit(4, 32)
        G = f.extension_gradient(U)
        np.testing.assert_allclose(
            np.einsum("mi,mi->m", G, U), f.value(U), rtol=1e-10, atol=1e-12
        )

    def test_gradient_zero_homogeneous(self):
        f = bump(3, np.array([0.0, 0.0, 1.0]), 3.0)
        x = rand_unit(3)
        g1 = f.extension_gradient(x)
        g2 = f.extension_gradient(2.5 * x)
        np.testing.assert_allclose(g1, g2, rtol=1e-10, atol=1e-12)

    def test_hessian_annihilates_radial(self):
        for f in [
            polynomial(3, {(3, 1, 0): 0.4, (0, 2, 0): 1.0}),
            bump(3, np.array([1.0, 0.0, 0.0]), 2.0),
            quadratic_support(np.diag([1.0, 2.0, 3.0])),
        ]:
            assert f.radial_residual() < 1e-9

    def test_hessian_matches_fd(self):
        f = polynomial(3, {(2, 0, 0): 1.0, (1, 1, 1): -0.3, (0, 0, 1): 0.2})
        for _ in range(5):
            x = rand_unit(3)
            np.testing.assert_allclose(
                f.extension_hessian(x), fd_hessian_of_extension(f, x), atol=5e-6
            )

    def test_hessian_inverse_scaling(self):
        # Hess(fbar) is (-1)-homogeneous
        f = quadratic_support(np.diag([1.0, 4.0, 9.0]))
        x = rand_unit(3)
        np.testing.assert_allclose(
            f.extension_hessian(2.0 * x), 0.5 * f.extension_hessian(x), rtol=1e-10
        )

    def test_origin_rejected(self):
        f = constant(3, 1.0)
        with pytest.raises(DomainError):
            f.extension_value(np.zeros(3))

    def test_support_function_values(self):
        # ellipsoid semi-axes (1,2,3): h(e_k) = axis length
        f = quadratic_support(np.diag([1.0, 4.0, 9.0]))
        assert f.value(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert f.value(np.array([0.0, 1.0, 0.0])) == pytest.approx(2.0)
        assert f.value(np.array([0.0, 0.0, 1.0])) == pytest.approx(3.0)

    def test_combination_and_rotation(self):
        f = combination([2.0, -1.0], [constant(3, 1.0), linear(3, [0.0, 0.0, 1.0])])
        u = np.array([0.0, 0.0, 1.0])
        assert f.value(u) == pytest.approx(1.0)
        # rotate z -> x
        R = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        g = compose_orthogonal(f, R)
        assert g.value(np.array([1.0, 0.0, 0.0])) == pytest.approx(
            f.value(R @ np.array([1.0, 0.0, 0.0]))
        )
        x = rand_unit(3)
        np.testing.assert_allclose(
            g.extension_hessian(x),
            fd_hessian_of_extension(g, x),
            atol=5e-6,
        )


class TestFrames:
    def test_orthonormal_and_tangent(self):
        U = rand_unit(4, 64)
        E = frames(U)
        G = np.einsum("mia,mib->mab", E, E)
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(3), (64, 3, 3)), atol=1e-12)
        np.testing.assert_allclose(np.einsum("mia,mi->ma", E, U), 0.0, atol=1e-12)

    def test_poles(self):
        n = 3
        Etop = tangent_frame(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(Etop.T @ Etop, np.eye(2), atol=1e-14)
        Ebot = tangent_frame(np.array([0.0, 0.0, -1.0]))
        np.testing.assert_allclose(Ebot.T @ Ebot, np.eye(2), atol=1e-14)
        # north pole frame is the coordinate one
        np.testing.assert_allclose(Etop, np.eye(3)[:, :2], atol=1e-14)

    def test_equator_well_conditioned(self):
        # points with tiny last component sit right at the hemisphere branch
        u = np.array([1.0, 0.0, 1e-14])
        u /= np.linalg.norm(u)
        E = tangent_frame(u)
        np.testing.assert_allclose(E.T @ E, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(E.T @ u, 0.0, atol=1e-12)

    def test_rejects_nonunit(self):
        with pytest.raises(DomainError):
            frames(np.array([[1.0, 1.0, 1.0]]))


def term_loop(terms, Y):
    """Reference: value, gradient and Hessian of a polynomial, one term at a time."""
    m, n = Y.shape
    val, grad, hess = np.zeros(m), np.zeros((m, n)), np.zeros((m, n, n))
    for e, c in terms.items():
        e = np.array(e)
        for v in range(n):
            for w in range(n):
                d = e.copy()
                coef = c * d[v]
                d[v] -= 1
                coef *= d[w]
                d[w] -= 1
                if coef:
                    hess[:, v, w] += coef * np.prod(Y ** d, axis=1)
            if e[v]:
                d = e.copy()
                d[v] -= 1
                grad[:, v] += c * e[v] * np.prod(Y ** d, axis=1)
        val += c * np.prod(Y ** e, axis=1)
    return val, grad, hess


class TestPolynomial:
    def test_tables_match_term_loop(self):
        # 3000 nodes span several node blocks for the larger monomial tables
        rng = np.random.default_rng(11)
        for n in (3, 4):
            for degree in range(6):
                terms = {
                    tuple(rng.multinomial(d, [1.0 / n] * n)): rng.normal()
                    for d in range(degree + 1)
                    for _ in range(6)
                }
                f = polynomial(n, terms)
                Y = rand_unit(n, 3000, rng)
                got = f._jet(Y, 2)
                for a, b in zip(got, term_loop(terms, Y)):
                    scale = max(1.0, np.abs(b).max())
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * scale)

    def test_memory_follows_monomials_not_degree(self):
        grid = make_grid(3, 8192)
        f = polynomial(3, {(100000, 0, 0): 1.0})
        tracemalloc.start()
        try:
            value = f.value(grid.nodes)
            q_batch(f, grid.nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        # x^100000 amplifies one rounding of x by 1e5: square-and-multiply
        # sits within about 1e5 ulp of the correctly rounded power
        want = grid.nodes[:, 0] ** 100000
        assert np.count_nonzero(want) > 0
        np.testing.assert_allclose(value, want, rtol=1e-10, atol=0)

    def test_zero_and_bad_exponents(self):
        U = rand_unit(3, 5)
        for terms in ({}, {(0, 0, 0): 0.0}, {(1, 1, 0): 0.0}):
            f = polynomial(3, terms)
            _, grad, hess = f._jet(U, 2)
            assert not f.value(U).any() and not grad.any() and not hess.any()
        for bad in ({(1, 0): 1.0}, {(-1, 0, 0): 1.0}, {(2**63, 0, 0): 1.0}):
            with pytest.raises(DomainError):
                polynomial(3, bad)


class TestQMatrix:
    def test_constant_gives_identity(self):
        # the extension of 1 is |x|, whose tangent Hessian form is the identity
        f = constant(3, 1.0)
        u = rand_unit(3)
        np.testing.assert_allclose(q_matrix(f, u), np.eye(2), atol=1e-12)

    def test_linear_gives_zero(self):
        f = linear(3, [0.3, -0.2, 0.9])
        u = rand_unit(3)
        np.testing.assert_allclose(q_matrix(f, u), 0.0, atol=1e-12)

    def test_ellipsoid_at_pole(self):
        # support sqrt(sum A_k x_k^2): at u = e_n the form is diag(A_1..A_{n-1})/sqrt(A_n)
        A = np.array([2.0, 5.0, 1.0])
        f = quadratic_support(np.diag(A))
        u = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(q_matrix(f, u), np.diag(A[:2]), atol=1e-10)

    def test_ball_eigenvalues_are_radius(self):
        r = 1.7
        f = constant(3, r)
        U = rand_unit(3, 16)
        Q = q_batch(f, U)
        lam = np.linalg.eigvalsh(Q)
        np.testing.assert_allclose(lam, r, atol=1e-10)

    def test_frame_covariance(self):
        # Q in a rotated frame is the conjugated matrix; eigenvalues invariant
        f = quadratic_support(np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]]))
        u = rand_unit(3)
        E = tangent_frame(u)
        th = 0.83
        Rt = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        Q1 = q_matrix(f, u, frame=E)
        Q2 = q_matrix(f, u, frame=E @ Rt)
        np.testing.assert_allclose(Q2, Rt.T @ Q1 @ Rt, atol=1e-10)

    def test_batch_matches_single(self):
        f = polynomial(3, {(2, 0, 0): 0.4, (0, 0, 2): 1.0, (0, 0, 0): 2.0})
        U = rand_unit(3, 8)
        Qb = q_batch(f, U)
        for k in range(8):
            np.testing.assert_allclose(Qb[k], q_matrix(f, U[k]), atol=1e-12)

    def test_translation_leaves_q_spectrum_sum(self):
        # adding a linear function (translation of the body) leaves Q unchanged
        f = quadratic_support(np.diag([1.0, 2.0, 3.0]))
        g = combination([1.0, 1.0], [f, linear(3, [0.5, -0.2, 0.1])])
        u = rand_unit(3)
        np.testing.assert_allclose(q_matrix(g, u), q_matrix(f, u), atol=1e-10)


class TestGrids:
    def test_weights_sum_to_area(self):
        for n, m in [(2, 128), (3, 500), (4, 1000)]:
            g = make_grid(n, m, seed=3)
            assert np.sum(g.weights) == pytest.approx(sphere_area(n), rel=1e-12)
            np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)

    def test_sphere_area_values(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi)
        assert sphere_area(3) == pytest.approx(4 * math.pi)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2)

    def test_circle_integrates_harmonics_exactly(self):
        g = make_grid(2, 64)
        val, est = integrate(g, lambda U: 1.0 + U[:, 0] + U[:, 0] * U[:, 1])
        assert val == pytest.approx(2 * math.pi, rel=1e-12)

    def test_spiral_integrates_quadratics(self):
        g = make_grid(3, 4096)
        # int x_1^2 over S^2 = 4 pi / 3
        val, est = integrate(g, lambda U: U[:, 0] ** 2)
        assert abs(val - 4 * math.pi / 3) < 5 * est + 1e-9
        assert abs(val - 4 * math.pi / 3) < 2e-3

    def test_mc_integrates_with_estimate(self):
        g = make_grid(4, 200_000, seed=11)
        val, est = integrate(g, lambda U: U[:, 0] ** 2)
        want = sphere_area(4) / 4
        assert abs(val - want) < 5 * est + 1e-9

    def test_latitude_grid_polar_band(self):
        g = latitude_grid(48, 96)
        assert np.sum(g.weights) == pytest.approx(4 * math.pi, rel=1e-12)
        # sharp polar feature: exp(8(z-1)) has closed form on S^2
        val, est = integrate(g, lambda U: np.exp(8.0 * (U[:, 2] - 1.0)))
        want = 2 * math.pi * (1 - math.exp(-16.0)) / 8.0
        assert val == pytest.approx(want, rel=1e-9)

    def test_integrate_rejects_nan(self):
        g = make_grid(3, 64)

        def bad(U):
            out = np.ones(len(U))
            out[3] = np.nan
            return out

        with pytest.raises(EvaluationError, match="node 3"):
            integrate(g, bad)

    def test_coarse_halves(self):
        g = make_grid(3, 1024)
        assert len(g.coarse()) == 512
        g2 = make_grid(4, 1000, seed=5)
        # MC coarse grid reuses the first half of the sample
        np.testing.assert_allclose(g2.coarse().nodes, g2.nodes[:500])

    def test_patch_grid_local_area(self):
        u0 = np.array([0.0, 0.0, 1.0])
        E = tangent_frame(u0)
        # midpoint grid on the graph patch: order-1 panels on uniform breaks
        g = sp.panel_grid(u0, E, [np.linspace(-0.3, 0.3, 41)] * 2, order=1)
        # graph-area of the patch: int dx / sqrt(1 - |x|^2) over the square
        val = float(np.sum(g.weights))
        # oracle by high-resolution midpoint rule
        xs = -0.3 + 0.6 * (np.arange(400) + 0.5) / 400
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        dens = 1.0 / np.sqrt(1 - X**2 - Y**2)
        want = float(dens.sum()) * (0.6 / 400) ** 2
        assert val == pytest.approx(want, rel=1e-3)
        np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)

    def test_patch_grid_integrates_bump(self):
        # localized integrand: patch midpoint quadrature vs global spiral
        u0 = np.array([0.0, 0.0, 1.0])
        f = bump(3, u0, 40.0)
        E = tangent_frame(u0)
        gp = sp.panel_grid(u0, E, [np.linspace(-0.45, 0.45, 65)] * 2, order=1)
        vp = gp.weighted_sum(f.value(gp.nodes))
        gs = make_grid(3, 120_000)
        vs, es = integrate(gs, f.value)
        assert vp == pytest.approx(vs, rel=2e-3)

    def test_bad_resolution(self):
        with pytest.raises(DomainError):
            make_grid(3, 1)
        with pytest.raises(DomainError):
            make_grid(3, 2).coarse()  # halving cannot shrink it

    def test_cap_grid_area(self):
        u0 = np.array([0.0, 1.0, 0.0])
        theta = 0.7
        g = sp.cap_grid(u0, theta, 48, 64)
        # closed form on S^2: 2 pi (1 - cos theta)
        assert np.sum(g.weights) == pytest.approx(2 * math.pi * (1 - math.cos(theta)), rel=1e-12)
        np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)
        assert np.all(g.nodes @ u0 >= math.cos(theta) - 1e-12)
        u4 = np.array([0.0, 0.0, 0.0, 1.0])
        g4 = sp.cap_grid(u4, theta, 32, 128)
        want = 4 * math.pi * (theta / 2 - math.sin(2 * theta) / 4)
        assert np.sum(g4.weights) == pytest.approx(want, rel=1e-10)

    def test_cap_grid_resolves_sharp_bump(self):
        # integral of exp(2 kappa (<u,u0> - 1)) over S^2, closed form
        kappa = 150.0
        u0 = np.array([0.0, 0.0, 1.0])
        f = bump(3, u0, kappa)
        theta = math.acos(1.0 - 15.0 / kappa)
        g = sp.cap_grid(u0, theta, 80, 96)
        val, est = integrate(g, lambda U: f.value(U))
        want = math.pi / kappa * (1 - math.exp(-4 * kappa))
        assert val == pytest.approx(want, rel=1e-9)
        assert abs(val - want) <= 5 * est + 1e-12

    def test_cap_grid_coarse_and_validation(self):
        u0 = np.array([0.0, 0.0, 1.0])
        g = sp.cap_grid(u0, 0.5, 40, 64)
        cg = g.coarse()
        assert cg.kind == "cap" and len(cg) < len(g) and cg.grid_id != g.grid_id
        with pytest.raises(DomainError):
            sp.cap_grid(np.array([1.0, 1.0, 0.0]), 0.5, 8, 8)  # not unit
        with pytest.raises(DomainError):
            sp.cap_grid(u0, 0.0, 8, 8)
        with pytest.raises(DomainError):
            sp.cap_grid(u0, 0.5, 1, 8)

    def test_panel_grid_matches_patch_area(self):
        u0 = np.array([0.0, 0.0, 1.0])
        E = tangent_frame(u0)
        breaks = np.linspace(-0.3, 0.3, 7)
        g = sp.panel_grid(u0, E, [breaks, breaks], order=6)
        ref = sp.panel_grid(u0, E, [np.linspace(-0.3, 0.3, 401)] * 2, order=1)
        assert float(np.sum(g.weights)) == pytest.approx(float(np.sum(ref.weights)), rel=1e-6)
        np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)

    def test_panel_grid_aligned_panels_beat_midpoint(self):
        # piecewise-linear washboard times a smooth factor: panels aligned to
        # the kinks integrate it to near machine accuracy; an equal-size
        # midpoint grid is orders of magnitude off
        u0 = np.array([0.0, 0.0, 1.0])
        E = tangent_frame(u0)

        def washboard(U):
            x1 = U @ E[:, 0]
            x2 = U @ E[:, 1]
            return (np.abs((10.0 * x1) % 2.0 - 1.0) - 0.5) * (1.0 + x2 + x1 * x1)

        kinks = np.arange(-0.3, 0.3001, 0.05)
        g6 = sp.panel_grid(u0, E, [kinks, np.linspace(-0.3, 0.3, 7)], order=6)
        g8 = sp.panel_grid(u0, E, [kinks, np.linspace(-0.3, 0.3, 7)], order=8)
        v6, _ = integrate(g6, washboard)
        v8, _ = integrate(g8, washboard)
        assert abs(v6 - v8) < 1e-12
        # same node count, uniform midpoint cells
        mid = sp.panel_grid(u0, E, [np.linspace(-0.3, 0.3, 73), np.linspace(-0.3, 0.3, 8)], order=1)
        vm = mid.weighted_sum(washboard(mid.nodes))
        assert abs(vm - v8) > 100 * abs(v6 - v8)

    def test_panel_grid_coarse_and_validation(self):
        u0 = np.array([0.0, 0.0, 1.0])
        E = tangent_frame(u0)
        br = np.linspace(-0.2, 0.2, 5)
        g = sp.panel_grid(u0, E, [br, br], order=6)
        cg = g.coarse()
        assert cg.kind == "panel"
        assert len(cg) * 36 == len(g) * 25  # order 6 -> 5 per axis
        assert cg.grid_id != g.grid_id
        with pytest.raises(DomainError):
            sp.panel_grid(u0, E, [br], order=4)  # needs n-1 axes
        with pytest.raises(DomainError):
            sp.panel_grid(u0, E, [br, np.array([0.1])], order=4)
        with pytest.raises(DomainError):
            sp.panel_grid(u0, E, [np.array([-0.8, 0.8])] * 2, order=4)  # box leaves ball
        with pytest.raises(DomainError):
            sp.panel_grid(u0, E, [br, br], order=0)
