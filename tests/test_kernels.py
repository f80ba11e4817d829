"""Property tests for the closed-form per-node kernels.

For N <= 3 the symmetric-function kernels are polynomials in the matrix
entries and the Hessian form is assembled in the tangent frame; both are
checked here against the spectral formulas and the full extension Hessian
they replace, written out below as independent references.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areafun import sphere
from areafun.errors import EvaluationError
from areafun.mollify import _ROTATION_BLOCK, MollifierKernel, mollify
from areafun.symfun import (
    cofactor_batch,
    contract2_batch,
    deleted_elem_sym,
    elem_sym,
    elem_sym_batch,
    elem_sym_from_eigs,
    elem_sym_kronecker,
    pair_deleted_elem_sym,
)


# -- the eigen route, as a reference ---------------------------------------------


def eig_elem_sym(As, i):
    return elem_sym_from_eigs(np.linalg.eigvalsh(As), i)


def eig_cofactor(As, i):
    lam, V = np.linalg.eigh(As)
    return np.einsum("...jl,...l,...kl->...jk", V, deleted_elem_sym(lam, i - 1), V)


def eig_contract2(As, i, Ws):
    N = As.shape[-1]
    if i == 1:
        return np.zeros(As.shape)
    lam, V = np.linalg.eigh(As)
    Wb = np.einsum("...ji,...jk,...kl->...il", V, Ws, V)
    pair = pair_deleted_elem_sym(lam, i - 2)
    Mb = -pair * Wb
    Mb[..., np.arange(N), np.arange(N)] = np.einsum("...jl,...ll->...j", pair, Wb)
    return np.einsum("...ij,...jk,...lk->...il", V, Mb, V)


# -- stacks with controlled spectra -----------------------------------------------------

SPECTRA = ("indefinite", "spd", "thin")


def stack(seed, N, kind, m=16):
    """m symmetric N x N matrices with random eigenframes.  "thin" puts one
    eigenvalue near 1e-2 beside order-one ones, as for delta = 0.01 bodies."""
    rng = np.random.default_rng(seed)
    if kind == "indefinite":
        lam = rng.uniform(-3.0, 3.0, size=(m, N))
    elif kind == "spd":
        lam = rng.uniform(0.1, 3.0, size=(m, N))
    else:
        lam = rng.uniform(0.5, 2.0, size=(m, N))
        lam[:, -1] = rng.uniform(0.005, 0.02, size=m)
    V, _ = np.linalg.qr(rng.normal(size=(m, N, N)))
    A = (V * lam[:, None, :]) @ V.transpose(0, 2, 1)
    return 0.5 * (A + A.transpose(0, 2, 1)), float(np.abs(lam).max())


def scale(spec, power):
    return max(1.0, spec) ** max(power, 0)


kernel_cases = st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3)), st.sampled_from(SPECTRA)
)


class TestClosedFormsMatchEigenRoute:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases)
    def test_elem_sym_batch(self, case):
        seed, N, kind = case
        As, spec = stack(seed, N, kind)
        for i in range(N + 1):
            want = np.ones(len(As)) if i == 0 else eig_elem_sym(As, i)
            np.testing.assert_allclose(
                elem_sym_batch(As, i), want, rtol=0, atol=1e-12 * scale(spec, i)
            )

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases)
    def test_cofactor_batch(self, case):
        seed, N, kind = case
        As, spec = stack(seed, N, kind)
        for i in range(1, N + 1):
            np.testing.assert_allclose(
                cofactor_batch(As, i), eig_cofactor(As, i), rtol=0,
                atol=1e-12 * scale(spec, i - 1),
            )

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases, st.sampled_from(SPECTRA))
    def test_contract2_batch(self, case, w_kind):
        seed, N, kind = case
        As, spec = stack(seed, N, kind)
        Ws, wspec = stack(seed + 1, N, w_kind)
        for i in range(1, N + 1):
            np.testing.assert_allclose(
                contract2_batch(As, i, Ws), eig_contract2(As, i, Ws), rtol=0,
                atol=1e-12 * scale(spec, i - 2) * max(1.0, wspec),
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SPECTRA))
    def test_n4_keeps_matching_kronecker(self, seed, kind):
        # N = 4 (ambient n = 5) stays on the eigen route
        As, spec = stack(seed, 4, kind, m=3)
        for A in As:
            for i in range(5):
                assert elem_sym(A, i) == pytest.approx(
                    elem_sym_kronecker(A, i), rel=1e-10, abs=1e-12 * scale(spec, i)
                )


# -- tangent-frame Hessian forms ---------------------------------------------------------


def analytic_functions(n, rng):
    M = rng.normal(size=(n, n))
    M = M @ M.T + np.eye(n)
    u0 = rng.normal(size=n)
    u0 /= np.linalg.norm(u0)
    R, _ = np.linalg.qr(rng.normal(size=(n, n)))
    terms = {(0,) * n: 1.0}
    for e in itertools.product(range(3), repeat=n):
        if 0 < sum(e) <= 3 and rng.random() < 0.4:
            terms[e] = rng.normal() * 0.3
    poly = sphere.polynomial(n, terms)
    quad = sphere.quadratic_support(M)
    return {
        "quadratic_support": quad,
        "polynomial": poly,
        "bump": sphere.bump(n, u0, float(rng.uniform(0.5, 5.0))),
        "combination": sphere.combination([0.7, -1.3], [quad, poly]),
        "compose_orthogonal": sphere.compose_orthogonal(poly, R),
    }


class TestTangentFrameForm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((3, 4)))
    def test_matches_full_extension_hessian(self, seed, n):
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(64, n))
        U /= np.linalg.norm(U, axis=1)[:, None]
        E = sphere.frames(U)
        for name, f in analytic_functions(n, rng).items():
            Q = sphere.q_batch(f, U, E)
            H = f.extension_hessian(U)
            want = E.transpose(0, 2, 1) @ H @ E
            want = 0.5 * (want + want.transpose(0, 2, 1))
            tol = 1e-12 * max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(Q, want, rtol=0, atol=tol, err_msg=name)
            np.testing.assert_allclose(sphere.q_matrix(f, U[5]), Q[5], rtol=0, atol=tol)

    def test_nan_hessian_names_first_bad_node(self):
        def jet(Y, order):
            H = np.zeros((len(Y), 3, 3))
            H[[7, 11], 0, 1] = np.nan
            return (np.ones(len(Y)), np.zeros_like(Y), H)[: order + 1]

        f = sphere.SphericalFunction(3, jet, "nan-hessian")
        nodes = sphere.make_grid(3, 32).nodes
        with pytest.raises(EvaluationError, match="nan-hessian at node 7"):
            sphere.q_batch(f, nodes)

    def test_q_batch_evaluates_each_jet_once(self, monkeypatch):
        nodes = sphere.make_grid(3, 400).nodes
        # a rotation average calls its inner jet once per node block
        inner = sphere.polynomial(3, {(2, 0, 0): 1.0, (0, 1, 1): -0.5})
        orders = []

        def counted(Y, order):
            orders.append(order)
            return inner._jet(Y, order)

        ker = MollifierKernel.build(3, 6, samples=150, seed=3)
        fk = mollify(sphere.SphericalFunction(3, counted, "counted"), 6, kernel=ker)
        blocks = -(-len(nodes) // (_ROTATION_BLOCK // len(ker.rotations)))
        sphere.q_batch(fk, nodes)
        assert blocks > 1 and orders == [2] * blocks
        orders.clear()
        fk.value(nodes)  # a value-only call asks for no derivatives
        assert orders == [0] * blocks
        # quadratic_support forms its quadratic form once per evaluation
        einsum, forms = np.einsum, []

        def counting_einsum(subscripts, *operands, **kwargs):
            forms.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        sphere.q_batch(sphere.quadratic_support(np.diag([1.0, 2.0, 3.0])), nodes)
        assert forms.count("mi,ij,mj->m") == 1
