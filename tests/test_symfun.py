"""Kernel tests: elementary symmetric functions, derivative tensors, mixed discriminants.

Derivative formulas are checked against central finite differences of the
scalar elem_sym (the independent oracle), and the spectral fast path is
checked against the literal subset/permutation evaluator.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from areafun.errors import DomainError
from areafun.symfun import (
    cofactor,
    cofactor_batch,
    contract2,
    contract2_batch,
    deleted_elem_sym,
    elem_sym,
    elem_sym_batch,
    elem_sym_from_eigs,
    elem_sym_kronecker,
    elem_sym_pencil,
    mixed_discriminant_batch,
    pair_deleted_elem_sym,
    trace_pair,
)

RNG = np.random.default_rng(20260814)


def rand_sym(N, scale=1.0, rng=RNG):
    A = rng.normal(size=(N, N)) * scale
    return 0.5 * (A + A.T)


def esym_oracle(lams, i):
    """Sum over i-subsets of an eigenvalue list — direct definition."""
    if i == 0:
        return 1.0
    return float(sum(math.prod(c) for c in combinations(list(lams), i)))


def fd_cofactor(A, i, h=1e-6):
    """Finite-difference gradient of A -> elem_sym(A, i), symmetric steps."""
    N = A.shape[0]
    G = np.zeros((N, N))
    for j in range(N):
        for k in range(N):
            E = np.zeros((N, N))
            E[j, k] = h
            Es = 0.5 * (E + E.T)
            G[j, k] = (elem_sym(A + Es, i) - elem_sym(A - Es, i)) / (2 * h)
    # the code's convention: elem_sym(A + tE, i) ~ t * sum cof_jk E_jk with E
    # unsymmetrized, which equals the symmetric-step gradient above
    return G


class TestElemSym:
    def test_matches_subset_oracle(self):
        for N in (2, 3, 4, 5):
            A = rand_sym(N)
            lam = np.linalg.eigvalsh(A)
            for i in range(0, N + 1):
                assert elem_sym(A, i) == pytest.approx(esym_oracle(lam, i), rel=1e-10, abs=1e-12)

    def test_identity_binomials(self):
        for N in (2, 3, 4, 6):
            I = np.eye(N)
            for i in range(0, N + 1):
                assert elem_sym(I, i) == pytest.approx(math.comb(N, i))

    def test_extremes(self):
        A = rand_sym(4)
        assert elem_sym(A, 0) == pytest.approx(1.0)
        assert elem_sym(A, 1) == pytest.approx(np.trace(A), rel=1e-12)
        assert elem_sym(A, 4) == pytest.approx(np.linalg.det(A), rel=1e-9)

    def test_batch_agrees(self):
        As = np.stack([rand_sym(3) for _ in range(7)])
        for i in range(4):
            got = elem_sym_batch(As, i)
            want = np.array([elem_sym(A, i) for A in As])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_kronecker_literal_agrees(self):
        for N in (2, 3, 4):
            A = rand_sym(N)
            scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(A)))) ** N)
            for i in range(0, N + 1):
                assert abs(elem_sym_kronecker(A, i) - elem_sym(A, i)) < 1e-10 * scale

    def test_kronecker_rejects_large(self):
        with pytest.raises(DomainError):
            elem_sym_kronecker(np.eye(7), 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            elem_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_rejects_out_of_range_order(self):
        with pytest.raises(DomainError):
            elem_sym(np.eye(3), 4)
        with pytest.raises(DomainError):
            elem_sym(np.eye(3), -1)

    def test_eigs_dp_matches_numpy_poly(self):
        lam = RNG.normal(size=6)
        # coefficients of prod (x + lam_j) are the elementary symmetric functions
        coeffs = np.poly(-lam)  # x^6 + e1 x^5 + ... + e6
        for i in range(7):
            got = elem_sym_from_eigs(lam, i)
            assert got == pytest.approx(coeffs[i], rel=1e-10, abs=1e-12)


class TestDeletedSums:
    def test_deleted_matches_direct(self):
        lam = RNG.normal(size=5)
        for k in range(5):
            out = deleted_elem_sym(lam, k)
            for l in range(5):
                sub = np.delete(lam, l)
                assert out[l] == pytest.approx(esym_oracle(sub, k), rel=1e-10, abs=1e-12)

    def test_pair_deleted_matches_direct(self):
        lam = RNG.normal(size=5)
        for k in range(4):
            out = pair_deleted_elem_sym(lam, k)
            for j in range(5):
                assert out[j, j] == 0.0
                for l in range(5):
                    if j == l:
                        continue
                    sub = np.delete(lam, [j, l])
                    assert out[j, l] == pytest.approx(esym_oracle(sub, k), rel=1e-10, abs=1e-12)

    def test_negative_order_is_zero(self):
        lam = RNG.normal(size=4)
        assert np.all(deleted_elem_sym(lam, -1) == 0.0)
        assert np.all(pair_deleted_elem_sym(lam, -1) == 0.0)


class TestCofactor:
    def test_matches_finite_differences(self):
        for N, i in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3)]:
            A = rand_sym(N)
            np.testing.assert_allclose(cofactor(A, i), fd_cofactor(A, i), rtol=2e-6, atol=2e-7)

    def test_repeated_eigenvalues(self):
        # spectral formula must stay exact when eigenvalues collide
        A = np.diag([2.0, 2.0, 5.0])
        got = cofactor(A, 2)
        np.testing.assert_allclose(got, fd_cofactor(A, 2), rtol=1e-6, atol=1e-7)
        got = cofactor(np.eye(4), 3)
        np.testing.assert_allclose(got, fd_cofactor(np.eye(4), 3), rtol=1e-6, atol=1e-7)

    def test_diagonal_closed_form(self):
        a, b, c = 1.3, -0.4, 2.2
        got = cofactor(np.diag([a, b, c]), 2)
        np.testing.assert_allclose(got, np.diag([b + c, a + c, a + b]), atol=1e-12)

    def test_order_one_is_identity(self):
        A = rand_sym(4)
        np.testing.assert_allclose(cofactor(A, 1), np.eye(4), atol=1e-12)

    def test_top_order_is_adjugate(self):
        A = rand_sym(4) + 5.0 * np.eye(4)
        adj = np.linalg.det(A) * np.linalg.inv(A)
        np.testing.assert_allclose(cofactor(A, 4), adj, rtol=1e-9, atol=1e-9)

    def test_euler_relation(self):
        # first-order homogeneity: sum_jk cof_jk A_jk = i * elem_sym(A, i)
        for N, i in [(3, 1), (3, 2), (3, 3), (5, 2), (5, 4)]:
            A = rand_sym(N)
            assert trace_pair(A, A, i) == pytest.approx(i * elem_sym(A, i), rel=1e-10, abs=1e-12)

    def test_batch_agrees(self):
        As = np.stack([rand_sym(3) for _ in range(6)])
        got = cofactor_batch(As, 2)
        want = np.stack([cofactor(A, 2) for A in As])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestTracePair:
    def test_directional_derivative_example(self):
        # d/dt elem_sym(diag(1,1,t), 2) at t=0: pairs {1,3},{2,3} each grow at
        # rate 1, so the derivative is 2
        A = np.diag([1.0, 1.0, 0.0])
        M = np.diag([0.0, 0.0, 1.0])
        assert trace_pair(A, M, 2) == pytest.approx(2.0, abs=1e-12)

    def test_matches_fd_directional(self):
        A = rand_sym(4)
        M = rand_sym(4)
        h = 1e-6
        fd = (elem_sym(A + h * M, 2) - elem_sym(A - h * M, 2)) / (2 * h)
        assert trace_pair(A, M, 2) == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            trace_pair(np.eye(3), np.eye(4), 1)


def fd_cofactor2_contraction(A, i, W, h=1e-5):
    """FD oracle for the second derivative contracted with W on both slots:
    d^2/dt^2 elem_sym(A + t W, i) = 2 * contract2(A,i,W) : W ... via the
    quadratic term; we instead check the full directional second derivative."""
    fpp = elem_sym(A + h * W, i)
    f0 = elem_sym(A, i)
    fmm = elem_sym(A - h * W, i)
    return (fpp - 2 * f0 + fmm) / (h * h)


class TestSecondDerivative:
    def test_contract2_matches_fd(self):
        for N, i in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3)]:
            A = rand_sym(N)
            W = rand_sym(N)
            M = contract2(A, i, W)
            # directional second derivative = sum_{jk,rs} T W W = <contract2(W), W>
            got = float(np.sum(M * W))
            want = fd_cofactor2_contraction(A, i, W)
            assert got == pytest.approx(want, rel=5e-5, abs=5e-6)

    def test_contract2_repeated_eigs(self):
        A = np.diag([1.0, 1.0, 1.0, 4.0])
        W = rand_sym(4)
        got = float(np.sum(contract2(A, 3, W) * W))
        want = fd_cofactor2_contraction(A, 3, W)
        assert got == pytest.approx(want, rel=5e-5, abs=5e-6)

    def test_order_one_vanishes(self):
        np.testing.assert_allclose(contract2(rand_sym(3), 1, rand_sym(3)), 0.0, atol=1e-14)

    def test_order_two_constant_tensor(self):
        # for i=2 the second derivative does not depend on A:
        # contract2(A, 2, W) = tr(W) I - W at every A
        W = rand_sym(3)
        for A in (rand_sym(3), 5.0 * rand_sym(3) + np.eye(3)):
            np.testing.assert_allclose(
                contract2(A, 2, W), np.trace(W) * np.eye(3) - W, rtol=1e-10, atol=1e-10
            )

    def test_euler_second_order(self):
        # contracting the second-derivative tensor with A itself drops the
        # order by one: contract2(A, i, A) = (i-1) * cofactor(A, i)
        for N, i in [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3)]:
            A = rand_sym(N)
            np.testing.assert_allclose(
                contract2(A, i, A), (i - 1) * cofactor(A, i), rtol=1e-9, atol=1e-9
            )

    def test_batch_agrees(self):
        As = np.stack([rand_sym(3) for _ in range(5)])
        Ws = np.stack([rand_sym(3) for _ in range(5)])
        got = contract2_batch(As, 2, Ws)
        want = np.stack([contract2(A, 2, W) for A, W in zip(As, Ws)])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


class TestMixedDiscriminant:
    def test_all_equal_is_det(self):
        A = rand_sym(3)
        got = mixed_discriminant_batch([A, A, A])
        assert got == pytest.approx(np.linalg.det(A), rel=1e-9, abs=1e-11)

    def test_identity_slots_give_elem_sym(self):
        # binomial(N, i) * D(A x i, I x (N-i)) = elem_sym(A, i)
        for N, i in [(3, 1), (3, 2), (4, 2), (4, 3)]:
            A = rand_sym(N)
            mats = [A] * i + [np.eye(N)] * (N - i)
            got = math.comb(N, i) * mixed_discriminant_batch(mats)
            assert got == pytest.approx(elem_sym(A, i), rel=1e-9, abs=1e-11)

    def test_multilinear(self):
        A, B, C = rand_sym(3), rand_sym(3), rand_sym(3)
        lhs = mixed_discriminant_batch([2.0 * A + B, C, C])
        rhs = 2.0 * mixed_discriminant_batch([A, C, C]) + mixed_discriminant_batch([B, C, C])
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    def test_symmetric_in_slots(self):
        A, B, C = rand_sym(3), rand_sym(3), rand_sym(3)
        assert mixed_discriminant_batch([A, B, C]) == pytest.approx(
            mixed_discriminant_batch([C, A, B]), rel=1e-9, abs=1e-12
        )

    def test_wrong_count_rejected(self):
        with pytest.raises(DomainError):
            mixed_discriminant_batch([np.eye(3), np.eye(3)])

    def test_batch_agrees(self):
        # a stack's entries are those of its matrices taken one at a time
        stacks = [np.stack([rand_sym(3) for _ in range(4)]) for _ in range(3)]
        got = mixed_discriminant_batch(stacks)
        want = np.array(
            [mixed_discriminant_batch([s[k] for s in stacks]) for k in range(4)]
        )
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


class TestPencil:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_coefficients_sum_to_the_pencil(self, n):
        # N = n - 1; at N = 4 cofactor_batch and contract2_batch take the
        # eigen route and 3 <= k < i = 4 needs a mixed discriminant
        N = n - 1
        rng = np.random.default_rng(100 + n)
        A = np.stack([rand_sym(N, rng=rng) for _ in range(64)])
        B = np.stack([rand_sym(N, 3.0, rng=rng) for _ in range(64)])
        norm = lambda S: np.linalg.norm(S, 2, axis=(1, 2))
        for i in range(1, N + 1):
            c = elem_sym_pencil(A, B, i)
            assert c.shape == (i, 64)
            for tau in (-1.3, 1e-3, 0.4, 2.5):
                got = sum(c[k - 1] * tau**k for k in range(1, i + 1))
                want = elem_sym_batch(A + tau * B, i) - elem_sym_batch(A, i)
                scale = math.comb(N, i) * (norm(A) + abs(tau) * norm(B)) ** i
                assert np.all(np.abs(got - want) <= 1e-12 * scale), (n, i, tau)
