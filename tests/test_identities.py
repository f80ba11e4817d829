"""Integral identity verification."""

import numpy as np
import pytest

from areafun import sphere
from areafun.bodies import ball, ellipsoid
from areafun.identities import _two_step, ibp_second_order_residual, ibp_symmetry_residual
from areafun.functionals import _sweep, first_variation, second_variation
from areafun.sphere import make_grid

RNG = np.random.default_rng(1234)


@pytest.fixture(scope="module")
def grid3():
    return make_grid(3, 8192)


@pytest.fixture(scope="module")
def grid4():
    return make_grid(4, 30_000, seed=4)


def random_poly(n, rng, degree=3, scale=0.3):
    import itertools

    terms = {(0,) * n: 1.0}
    for e in itertools.product(range(degree + 1), repeat=n):
        if 0 < sum(e) <= degree and rng.random() < 0.4:
            terms[e] = rng.normal() * scale
    return sphere.polynomial(n, terms)


class TestIbpFirstOrder:
    def test_same_function_exact(self, grid3):
        f = random_poly(3, RNG)
        K = ellipsoid([1.0, 1.3, 0.8])
        rep = ibp_symmetry_residual(f, f, K, 2, grid3)
        assert rep.residual == 0.0

    def test_constant_weight(self, grid3):
        f = sphere.constant(3, 1.0)
        phi = random_poly(3, RNG)
        K = ellipsoid([1.0, 1.2, 0.9])
        for i in (1, 2):
            rep = ibp_symmetry_residual(f, phi, K, i, grid3)
            assert rep.within()

    def test_random_inputs_n3(self, grid3):
        rng = np.random.default_rng(42)
        for _ in range(10):
            f = random_poly(3, rng)
            phi = random_poly(3, rng)
            K = ellipsoid(rng.uniform(0.7, 1.6, size=3))
            for i in (1, 2):
                rep = ibp_symmetry_residual(f, phi, K, i, grid3)
                assert rep.within()

    def test_random_inputs_n4(self, grid4):
        rng = np.random.default_rng(43)
        for _ in range(3):
            f = random_poly(4, rng)
            phi = random_poly(4, rng)
            K = ellipsoid(rng.uniform(0.8, 1.4, size=4))
            for i in (1, 3):
                rep = ibp_symmetry_residual(f, phi, K, i, grid4)
                assert rep.within()


class TestRefinementLadder:
    def test_reports_telescope_the_paired_variations(self, grid3):
        # each ladder level is evaluated once, and the report equals the
        # composition of the paired variations on the grid and its coarse grid
        f = random_poly(3, np.random.default_rng(8))
        phi = random_poly(3, np.random.default_rng(9))
        K = ellipsoid([1.0, 1.3, 0.8])
        cases = [
            (ibp_symmetry_residual, first_variation, ("direct", "adjoint")),
            (ibp_second_order_residual, second_variation, ("quadratic", "adjoint")),
        ]
        for residual, variation, forms in cases:
            rep = residual(f, phi, K, 2, grid3)
            sides = []
            for form in forms:
                value, gap1 = variation(f, K, phi, 2, grid3, form=form)
                _, gap2 = variation(f, K, phi, 2, grid3.coarse(), form=form)
                sides.append((value, gap1 + gap2))
            assert (rep.lhs, rep.lhs_estimate) == sides[0]
            assert (rep.rhs, rep.rhs_estimate) == sides[1]

    def test_sides_equal_the_single_row_two_step(self, grid3):
        # both sides come from one sweep per level, each bit-equal to its own
        f = random_poly(3, np.random.default_rng(10))
        phi = random_poly(3, np.random.default_rng(11))
        K = ellipsoid([1.0, 1.3, 0.8])
        cases = [
            (ibp_symmetry_residual, ("first/direct", "first/adjoint")),
            (ibp_second_order_residual, ("second/quadratic", "second/adjoint")),
        ]
        for residual, rows in cases:
            rep = residual(f, phi, K, 2, grid3)
            sides = [
                _two_step(lambda g, row=row: _sweep(f, K, phi, 2, g, (row,))[0][0], grid3)
                for row in rows
            ]
            assert [(rep.lhs, rep.lhs_estimate), (rep.rhs, rep.rhs_estimate)] == sides


class TestIbpSecondOrder:
    def test_order_one_both_sides_zero(self, grid3):
        f = random_poly(3, RNG)
        phi = random_poly(3, RNG)
        rep = ibp_second_order_residual(f, phi, ball(3), 1, grid3)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_same_function_exact(self, grid3):
        f = random_poly(3, RNG)
        K = ellipsoid([1.0, 1.3, 0.8])
        rep = ibp_second_order_residual(f, f, K, 2, grid3)
        assert rep.residual == 0.0

    def test_random_inputs(self, grid3):
        rng = np.random.default_rng(44)
        for _ in range(8):
            f = random_poly(3, rng)
            phi = random_poly(3, rng)
            K = ellipsoid(rng.uniform(0.7, 1.5, size=3))
            rep = ibp_second_order_residual(f, phi, K, 2, grid3)
            assert rep.within()

    def test_residual_scales_with_grid(self):
        # the residual tracks the quadrature estimate as resolution doubles
        rng = np.random.default_rng(45)
        f = random_poly(3, rng)
        phi = random_poly(3, rng)
        K = ellipsoid([1.0, 1.4, 0.7])
        r_lo = ibp_second_order_residual(f, phi, K, 2, make_grid(3, 2048))
        r_hi = ibp_second_order_residual(f, phi, K, 2, make_grid(3, 16384))
        assert r_hi.residual < r_lo.residual
        assert r_hi.within() and r_lo.within()
