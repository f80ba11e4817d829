"""Elementary symmetric functions of symmetric matrices and their derivatives.

For a real symmetric N x N matrix A with eigenvalues lam_1 .. lam_N,
``elem_sym(A, i)`` is the i-th elementary symmetric function of the
eigenvalues (1 for i=0, trace for i=1, det for i=N).  The first derivative
with respect to the matrix entries is the cofactor matrix ``S_i^{jk}``; the
second derivative is used only contracted with a direction W,
``contract2(A, i, W) = sum_{rs} S_i^{jk,rs} W_rs``, which never forms the
four-index tensor.

Derivative convention: mirror entries a_jk and a_kj are treated as one
variable whose perturbation sets both, i.e. for symmetric E

    elem_sym(A + tE, i) = elem_sym(A, i) + t * sum_{j,k} cofactor(A,i)_jk E_jk + O(t^2),

with the double sum running over the full index square.  For N <= 3 (every
geometric caller up to ambient dimension 4) the batch routines are closed-form
polynomials in the entries: sums of principal minors for S_i, the Newton
polynomial sum_k (-1)^k e_{i-1-k}(A) A^k for the cofactor, and its
directional derivative for contract2.  Larger N go through one
eigendecomposition.  Mixed discriminants polarize the determinant, and a
literal index-expansion evaluator is kept as the independent oracle for
elem_sym.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Dense symmetric matrices only; everything here is O(N^3) or worse and the
# geometric callers never exceed N = n-1 = 5.
MAX_DIM = 16


def check_symmetric(A):
    """Validate and return a (copy of a) dense symmetric matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {A.shape}")
    N = A.shape[0]
    if N == 0 or N > MAX_DIM:
        raise DomainError(f"matrix dimension {N} outside supported range 1..{MAX_DIM}")
    scale = max(1.0, float(np.abs(A).max()))
    if not np.all(np.abs(A - A.T) <= 1e-10 * scale):
        raise DomainError("matrix is not symmetric")
    return 0.5 * (A + A.T)


def elem_sym_from_eigs(lams, i):
    """Elementary symmetric function e_i of the last-axis entries (batched).

    Stable Horner-style recursion; ``lams`` may be any (..., N) array.
    """
    lams = np.asarray(lams, dtype=float)
    N = lams.shape[-1]
    if not 0 <= i <= N:
        raise DomainError(f"order i={i} outside 0..{N}")
    e = np.zeros(lams.shape[:-1] + (i + 1,))
    e[..., 0] = 1.0
    for j in range(N):
        top = min(j + 1, i)
        for k in range(top, 0, -1):
            e[..., k] += lams[..., j] * e[..., k - 1]
    return e[..., i]


def elem_sym(A, i):
    """S_i(A): i-th elementary symmetric function of the eigenvalues of A."""
    return float(elem_sym_batch(check_symmetric(A), i))


def elem_sym_batch(As, i):
    """S_i for a stack of symmetric matrices, shape (..., N, N) -> (...,).

    For N <= 3 the sum of the order-i principal minors: the trace, the 2x2
    minors, the determinant by cofactor expansion.
    """
    As = np.asarray(As, dtype=float)
    N = As.shape[-1]
    if not 0 <= i <= N:
        raise DomainError(f"order i={i} outside 0..{N}")
    if i == 0:
        return np.ones(As.shape[:-2])
    if N > 3:
        return elem_sym_from_eigs(np.linalg.eigvalsh(As), i)

    def a(j, k):
        return As[..., j, k]

    if i == 1:
        return np.trace(As, axis1=-2, axis2=-1)
    if i == 2:
        pairs = itertools.combinations(range(N), 2)
        return sum(a(j, j) * a(k, k) - a(j, k) * a(k, j) for j, k in pairs)
    return (
        a(0, 0) * (a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1))
        - a(0, 1) * (a(1, 0) * a(2, 2) - a(1, 2) * a(2, 0))
        + a(0, 2) * (a(1, 0) * a(2, 1) - a(1, 1) * a(2, 0))
    )


@lru_cache(maxsize=None)
def _signed_permutations(size):
    """All permutations of range(size) with their signs."""
    out = []
    for perm in itertools.permutations(range(size)):
        inv = 0
        for a in range(size):
            for b in range(a + 1, size):
                if perm[a] > perm[b]:
                    inv += 1
        out.append((perm, -1.0 if inv % 2 else 1.0))
    return tuple(out)


def elem_sym_kronecker(A, i):
    """Reference evaluator for S_i via the generalized Kronecker-delta expansion.

    The raw expansion sums sign-weighted products a_{j_1 k_1} .. a_{j_i k_i}
    over all ordered index tuples, with the delta symbol killing every term
    whose row indices repeat or whose column indices are not a permutation of
    the rows, and a 1/i! in front.  Fixing the row order absorbs the 1/i!, so
    the sum below runs over i-subsets and signed permutations of each subset.
    Exponential cost; only intended as an independent cross-check for N <= 6.
    """
    A = check_symmetric(A)
    N = A.shape[0]
    if N > 6:
        raise DomainError("index-expansion evaluator limited to N <= 6")
    if not 0 <= i <= N:
        raise DomainError(f"order i={i} outside 0..{N}")
    if i == 0:
        return 1.0
    total = 0.0
    perms = _signed_permutations(i)
    for rows in itertools.combinations(range(N), i):
        rows = np.asarray(rows)
        minor = A[np.ix_(rows, rows)]
        for perm, sign in perms:
            prod = 1.0
            for a in range(i):
                prod *= minor[a, perm[a]]
            total += sign * prod
    return float(total)


def deleted_elem_sym(lams, k):
    """e_k of each deleted spectrum: out[..., l] = e_k(lams with entry l removed)."""
    lams = np.asarray(lams, dtype=float)
    N = lams.shape[-1]
    if k < 0:
        return np.zeros(lams.shape)
    if k > N - 1:
        raise DomainError(f"deleted order k={k} outside 0..{N - 1}")
    out = np.empty(lams.shape)
    idx = np.arange(N)
    for l in range(N):
        rest = lams[..., idx != l]
        out[..., l] = elem_sym_from_eigs(rest, k)
    return out


def pair_deleted_elem_sym(lams, k):
    """e_k of each pair-deleted spectrum: out[..., j, l] = e_k(lams minus entries j, l).

    Only the off-diagonal entries are meaningful; the diagonal is left at zero.
    """
    lams = np.asarray(lams, dtype=float)
    N = lams.shape[-1]
    out = np.zeros(lams.shape + (N,))
    if k < 0 or N < 2:
        return out
    if k > N - 2:
        raise DomainError(f"pair-deleted order k={k} outside 0..{N - 2}")
    idx = np.arange(N)
    for j in range(N):
        for l in range(j + 1, N):
            rest = lams[..., (idx != j) & (idx != l)]
            val = elem_sym_from_eigs(rest, k)
            out[..., j, l] = val
            out[..., l, j] = val
    return out


def cofactor(A, i):
    """First derivative matrix (d S_i / d a_jk) in the both-entries convention.

    Equals the Newton polynomial sum_k (-1)^k e_{i-1-k}(A) A^k; it shares
    eigenvectors with A, and the eigenvalue attached to the l-th eigenvector
    is e_{i-1} of the spectrum with lam_l removed.
    """
    return cofactor_batch(check_symmetric(A), i)


def cofactor_batch(As, i):
    """cofactor() over a stack of matrices, (..., N, N) -> (..., N, N)."""
    As = np.asarray(As, dtype=float)
    N = As.shape[-1]
    if not 1 <= i <= N:
        raise DomainError(f"order i={i} outside 1..{N}")
    if N <= 3:
        I = np.eye(N)
        if i == 1:
            return np.broadcast_to(I, As.shape).copy()
        e1 = elem_sym_batch(As, 1)[..., None, None]
        if i == 2:
            return e1 * I - As
        return elem_sym_batch(As, 2)[..., None, None] * I - e1 * As + As @ As
    lam, V = np.linalg.eigh(As)
    d = deleted_elem_sym(lam, i - 1)
    return np.einsum("...jl,...l,...kl->...jk", V, d, V)


def trace_pair(A, M, i):
    """Full contraction sum_{jk} cofactor(A,i)_jk M_jk for symmetric M."""
    M = check_symmetric(M)
    C = cofactor(A, i)
    if C.shape != M.shape:
        raise DomainError("trace_pair: dimension mismatch")
    return float(np.sum(C * M))


def contract2(A, i, W):
    """sum_{rs} (d^2 S_i / d a_jk d a_rs)(A) W_rs without building the tensor:
    the derivative of cofactor(., i) at A in the direction W."""
    A = check_symmetric(A)
    W = check_symmetric(W)
    if W.shape != A.shape:
        raise DomainError("contract2: dimension mismatch")
    return contract2_batch(A, i, W)


def contract2_batch(As, i, Ws):
    """contract2 over stacks of symmetric matrices: (..., N, N) x (..., N, N) -> (..., N, N).

    For N <= 3 the directional derivative of the Newton polynomial:
    tr(W) I - W for i = 2, and for i = 3, with P1 = e1(A) I - A,
    tr(P1 W) I - tr(W) A - e1(A) W + A W + W A.
    """
    As = np.asarray(As, dtype=float)
    Ws = np.asarray(Ws, dtype=float)
    N = As.shape[-1]
    if i < 1 or i > N:
        raise DomainError(f"order i={i} outside 1..{N}")
    if i == 1:
        return np.zeros(np.broadcast_shapes(As.shape, Ws.shape))
    if N <= 3:
        I = np.eye(N)
        trW = elem_sym_batch(Ws, 1)[..., None, None]
        if i == 2:
            return trW * I - Ws
        e1 = elem_sym_batch(As, 1)[..., None, None]
        trPW = np.sum((e1 * I - As) * Ws, axis=(-2, -1))[..., None, None]
        return trPW * I - trW * As - e1 * Ws + As @ Ws + Ws @ As
    lam, V = np.linalg.eigh(As)
    Wb = np.einsum("...ji,...jk,...kl->...il", V, Ws, V)
    pair = pair_deleted_elem_sym(lam, i - 2)
    Mb = -pair * Wb
    diag = np.einsum("...jl,...ll->...j", pair, Wb)
    idx = np.arange(N)
    Mb[..., idx, idx] = diag
    return np.einsum("...ij,...jk,...lk->...il", V, Mb, V)


def elem_sym_pencil(As, Bs, i, cof=None):
    """Coefficients c_1 .. c_i of e_i(A + tau B) - e_i(A) = sum_k c_k tau^k over
    stacks, (..., N, N) twice -> (i, ...).  By multilinearity (Schneider,
    Convex Bodies, 2nd ed., ch. 5) c_k = binom(N, i) binom(i, k)
    D(A[i-k], B[k], I[N-i]); in closed form c_1 = <cofactor(A, i), B> (cof,
    if given), c_2 = <contract2(A, i, B), B>/2 and c_i = e_i(B)."""
    As, Bs = np.asarray(As, dtype=float), np.asarray(Bs, dtype=float)
    N = As.shape[-1]
    C = cofactor_batch(As, i) if cof is None else cof
    out = [np.einsum("...jk,...jk->...", C, Bs)]
    for k in range(2, i + 1):
        if k == i:
            out.append(elem_sym_batch(Bs, i))
        elif k == 2:
            out.append(0.5 * np.einsum("...jk,...jk->...", contract2_batch(As, i, Bs), Bs))
        else:
            I = np.broadcast_to(np.eye(N), As.shape)
            D = mixed_discriminant_batch([As] * (i - k) + [Bs] * k + [I] * (N - i))
            out.append(math.comb(N, i) * math.comb(i, k) * D)
    return np.stack(out)


def mixed_discriminant_batch(stacks):
    """Mixed discriminant for N stacks of symmetric matrices, each (..., N, N) -> (...,).

    Evaluated by inclusion-exclusion polarization of the determinant:
    D = (1/N!) sum_{S nonempty} (-1)^(N-|S|) det(sum_{i in S} A_i), with each
    determinant taken as e_N by elem_sym_batch.
    """
    stacks = [np.asarray(M, dtype=float) for M in stacks]
    N = stacks[0].shape[-1]
    if len(stacks) != N:
        raise DomainError(
            f"mixed_discriminant_batch: need exactly N={N} stacks, got {len(stacks)}"
        )
    total = 0.0
    for size in range(1, N + 1):
        sign = (-1.0) ** (N - size)
        for subset in itertools.combinations(range(N), size):
            S = stacks[subset[0]].copy()
            for idx in subset[1:]:
                S = S + stacks[idx]
            total = total + sign * elem_sym_batch(S, N)
    return total / math.factorial(N)
