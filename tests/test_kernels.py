"""Property tests for the closed-form per-node kernels.

For N <= 3 the symmetric-function kernels are polynomials in the matrix
entries and the Hessian form is assembled in the tangent frame; both are
checked here against the spectral formulas and the full extension Hessian
they replace, written out below as independent references.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areafun import sphere
from areafun.errors import EvaluationError
from areafun.experiments import _oscillation_panel_grid, oscillating_phi
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
        blocks = -(-len(nodes) // sphere.inner_block(_ROTATION_BLOCK, len(ker.rotations)))
        sphere.q_batch(fk, nodes)
        assert blocks > 1 and orders == [2] * blocks
        orders.clear()
        fk.value(nodes)  # a value-only call asks for no derivatives
        assert orders == [0] * blocks
        # quadratic_support's order-2 jet forms its quadratic form, and takes
        # its square root, once
        sqrt, roots = np.sqrt, []

        def counting_sqrt(x, *args, **kwargs):
            roots.append(np.shape(x))
            return sqrt(x, *args, **kwargs)

        monkeypatch.setattr(np, "sqrt", counting_sqrt)
        sphere.quadratic_support(np.diag([1.0, 2.0, 3.0]))._jet(nodes, 2)
        assert roots == [(len(nodes),)]


# -- the node pipeline's blocks -------------------------------------------------------


def block_functions(n):
    """One function of each jet kind: a polynomial (monomial tables in inner
    blocks), a quadratic support, a bump, the separable oscillation and a
    rotation average (rotation blocks)."""
    rng = np.random.default_rng(5)
    B = rng.normal(size=(n, n))
    u0 = np.eye(n)[-1]
    terms = {e: rng.normal() for e in itertools.product(range(4), repeat=n) if sum(e) <= 4}
    bump = sphere.bump(n, u0, 3.0)
    return {
        "polynomial": sphere.polynomial(n, terms),
        "quadratic_support": sphere.quadratic_support(B @ B.T + np.eye(n)),
        "bump": bump,
        "separable": oscillating_phi(u0, np.eye(n)[0], 0.25, 0.08, n, eta=0.25),
        "rotation_average": mollify(bump, 6, kernel=MollifierKernel.build(n, 6, 100, seed=1)),
    }


def points_near_pole(n, m, seed=0):
    # about half of them inside the oscillation's patch around e_n
    U = np.eye(n)[-1] + 0.3 * np.random.default_rng(seed).normal(size=(m, n))
    return U / np.linalg.norm(U, axis=1)[:, None]


class TestNodeBlocks:
    @pytest.mark.parametrize("m", [2 * sphere.NODE_BLOCK + 77, 1])
    def test_blocked_rows_equal_single_block_rows(self, monkeypatch, m):
        # inner blocks are powers of two no larger than a node block, so the
        # same kernel calls see the same rows whether the nodes arrive in one
        # block or in several
        U = points_near_pole(4, m)
        fs = block_functions(4)
        blocked = {name: (sphere.q_batch(f, U), f.value(U)) for name, f in fs.items()}
        monkeypatch.setattr(sphere, "NODE_BLOCK", 1 << 20)
        for name, f in fs.items():
            Q, v = blocked[name]
            assert np.array_equal(sphere.q_batch(f, U), Q), name
            assert np.array_equal(f.value(U), v), name

    def test_nonfinite_form_names_global_node(self):
        nodes = sphere.make_grid(3, sphere.NODE_BLOCK + 100).nodes
        bad = sphere.NODE_BLOCK + 37  # in the second block

        def jet(Y, order):
            H = np.zeros((len(Y), 3, 3))
            H[np.abs(Y - nodes[bad]).max(axis=1) < 1e-12, 0, 1] = np.nan
            return (np.ones(len(Y)), np.zeros_like(Y), H)[: order + 1]

        f = sphere.SphericalFunction(3, jet, "nan-late")
        with pytest.raises(EvaluationError, match=f"nan-late at node {bad}: "):
            sphere.q_batch(f, nodes)

    def test_q_batch_memory_follows_block(self):
        # the n=4 oscillation on its panel grid: the peak is the result plus
        # what one block of nodes needs, not a multiple of the grid
        u0 = np.eye(4)[-1]
        phi = oscillating_phi(u0, np.eye(4)[0], 0.25, 0.08, 4, eta=0.25)
        nodes = _oscillation_panel_grid(phi).nodes
        assert len(nodes) >= 300_000
        sphere.q_batch(phi, nodes[:64])  # warm
        tracemalloc.start()
        try:
            Q = sphere.q_batch(phi, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= Q.nbytes + 256 * 8 * sphere.NODE_BLOCK  # 256 doubles per block node

