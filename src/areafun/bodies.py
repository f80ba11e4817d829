"""Smooth convex bodies represented by their support functions.

A body is the sublevel-set hull K = {x : <x,u> <= h(u) for all unit u}.  All
geometry is read off the support function h: the tangent-frame Hessian form
q_matrix(h, u) of its 1-homogeneous extension is positive definite exactly
when K has a C^2 boundary with everywhere positive curvature, and its
eigenvalues are the principal radii of curvature at the boundary point with
outer normal u.

Nothing is cached: the integrals and certify_c2plus form the forms per node
block as they go, q_stack a whole grid's on each call.  Densities are
polynomials in the forms (areafun.symfun); eigenvalues are solved only where
the spectrum is the question, and a pencil h + s phi is certified without
forming its forms, solving only at the nodes a closed-form screen keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError
from . import sphere
from .sphere import SphericalFunction, tangent_frame

# least principal radius of curvature a certificate accepts
MARGIN = 1e-6


class SupportBody:
    """Convex body given by a support function (a SphericalFunction)."""

    def __init__(self, h, label=None):
        if not isinstance(h, SphericalFunction):
            raise DomainError("SupportBody expects a SphericalFunction support function")
        self.h = h
        self.n = h.n
        self.label = label or f"K[{h.label}]"

    def __repr__(self):
        return f"SupportBody({self.label}, n={self.n})"

    def support(self, U):
        return self.h.value(U)

    def q_stack(self, grid):
        """Hessian forms at all grid nodes, (m, n-1, n-1), formed on each call;
        for q_eigs, and a layer of the benchmark's tracer."""
        return sphere.q_batch(self.h, grid.nodes)

    def q_eigs(self, grid):
        """Eigenvalues of the Hessian forms at all grid nodes, (m, n-1), ascending;
        for the counterexample's largest radius, and a tracer layer."""
        return np.linalg.eigvalsh(self.q_stack(grid))

    def translate(self, v):
        v = np.asarray(v, dtype=float)
        moved = sphere.combination(
            [1.0, 1.0], [self.h, sphere.linear(self.n, v)], label=f"{self.h.label}+lin"
        )
        return SupportBody(moved, label=f"{self.label}+t")


def ball(n, radius=1.0, label=None):
    if radius <= 0:
        raise DomainError("ball radius must be positive")
    return SupportBody(
        sphere.constant(n, radius, label=f"h_ball({radius:g})"),
        label=label or f"B({radius:g})",
    )


def ellipsoid(semi_axes, label=None):
    """Axis-aligned ellipsoid sum x_k^2/a_k^2 <= 1; support sqrt(sum a_k^2 u_k^2)."""
    a = np.asarray(semi_axes, dtype=float)
    if a.ndim != 1 or len(a) < 2 or np.any(a <= 0):
        raise DomainError("need at least two positive semi-axes")
    with np.errstate(over="ignore"):
        squares = a * a
    if not np.isfinite(squares).all():
        raise DomainError("semi-axes must be finite with finite squares")
    f = sphere.quadratic_support(np.diag(squares), label="h_ellipsoid")
    return SupportBody(f, label=label or "E(" + ",".join(f"{x:g}" for x in a) + ")")


def combine(coeffs, bodies, label=None):
    """Minkowski combination sum_k coeffs[k] K_k (coefficients >= 0)."""
    if len(coeffs) != len(bodies) or not bodies:
        raise DomainError("need matching, nonempty coefficient/body lists")
    if any(c < 0 for c in coeffs):
        raise DomainError("Minkowski coefficients must be nonnegative")
    h = sphere.combination([float(c) for c in coeffs], [b.h for b in bodies])
    lab = label or "(" + " + ".join(f"{c:g}*{b.label}" for c, b in zip(coeffs, bodies)) + ")"
    return SupportBody(h, label=lab)


def perturb(body, phi, s, label=None):
    """Body with support function h + s*phi (valid only while still convex)."""
    h = sphere.combination([1.0, float(s)], [body.h, phi])
    return SupportBody(h, label=label or f"{body.label}+{s:g}*{phi.label}")


# -- curvature certification -------------------------------------------------


@dataclass
class Certificate:
    """Grid certificate of uniformly positive boundary curvature."""

    ok: bool
    min_eig: float
    worst_node: np.ndarray
    margin: float
    grid_id: str

    def __bool__(self):
        return self.ok


def certify_c2plus(body, grid, margin=MARGIN):
    """Check lambda_min(q_matrix(h,u)) >= margin at every grid node, from one
    walk of its node blocks; worst_node is the first node holding the least.

    A grid certificate, not a proof: between nodes the minimum eigenvalue is
    controlled by the modulus of continuity of the Hessian form, which is not
    estimated here.  Pair with fine grids (>= 8192 nodes in R^3) in anger.
    """

    def per_block(b):
        return np.linalg.eigvalsh(sphere.q_batch(body.h, grid.nodes[b], first=b.start))[:, :1].T

    _, (least,), (k,) = grid.walk_blocks(per_block, 0, least=1)
    return Certificate(
        ok=bool(least >= margin),
        min_eig=float(least),
        worst_node=grid.nodes[int(k)].copy(),
        margin=float(margin),
        grid_id=grid.grid_id,
    )


# -- prescribing the Hessian form at a point ---------------------------------


def realize_q(A, u, label=None):
    """Build a smooth body whose Hessian form at normal u is exactly A.

    For symmetric positive definite A = T diag(a) T^T set
    M = sum_k a_k f_k f_k^T + u u^T with f_k = E(u) T e_k; the quadratic
    support function sqrt(x^T M x) then has h(u) = 1, M u = u, and
    tangent-frame Hessian form exactly A at u (its extension Hessian at u is
    M - u u^T).  The construction is exact — no optimisation, no fitting.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise DomainError("realize_q: direction must be a unit vector")
    A = np.asarray(A, dtype=float)
    N = n - 1
    if A.shape != (N, N):
        raise DomainError(f"realize_q: form must be {N}x{N} for ambient dimension {n}")
    if not np.allclose(A, A.T, atol=1e-12):
        raise DomainError("realize_q: form must be symmetric")
    a, T = np.linalg.eigh(A)
    if a[0] <= 0:
        raise ConstructionError(
            f"realize_q: form must be positive definite (min eigenvalue {a[0]:.3e})"
        )
    E = tangent_frame(u)
    F = E @ T
    M = (F * a) @ F.T + np.outer(u, u)
    M = 0.5 * (M + M.T)
    return SupportBody(sphere.quadratic_support(M), label=label or "realized")


# -- one-parameter support perturbations --------------------------------------


def certified_minimum(Qh, Qp, margin):
    """Least row of a node block: the least eigenvalue of C = L^-1 Qp L^-T,
    L L^T = Qh - margin I, at every node that can hold the block's least, and
    +inf elsewhere.  Qh + s Qp >= margin is a congruence away from I + s C >= 0.
    All -inf when the Cholesky factorisation fails (Qh not above the margin).

    The value at a kept node is the LAPACK route's (inv, then eigvalsh), node
    for node the float it gives on the whole block, so the row's min and
    first argmin are that route's.  For N <= 3 the block is screened first:
    _least_screen gives each node a closed-form least eigenvalue s_k of its C
    and a bound tau_k >= |s_k - lambda_k| on the LAPACK value lambda_k, and
    only nodes with s_k - tau_k <= min_j (s_j + tau_j) are kept; every node
    holding the least passes, since lambda_k <= lambda_j for all j.

    The bound, with u = 2^-53 and a, x, p the largest entry moduli of L, of
    X (the screen's L^-1) and of Qp, so that S = N^3 x^2 p bounds ||C||_2
    and a x >= 1/N (L X = I); constants are for N = 3 (Higham, Accuracy and
    Stability of Numerical Algorithms, chs. 3, 8 and 9):

    - both routes form C from the same L.  Substitution inverts it to within
      N u |X||L||X|, entries at most N^3 u a x^2; LU with partial pivoting,
      whose factors grow by at most 2^(N-1), to within 3 N^4 2^(N-1) u a x^2.
      An entry error e of X moves C by at most 2 N^3 e x p in 2-norm, and
      the congruence rounds to 2 N u S more, so by Weyl the two routes'
      least eigenvalues differ by at most (1944 + 54) u a x S + 12 u S;
    - eigvalsh is backward stable, within 8 N u S, and the closed forms (the
      quadratic through hypot for N = 2; for N = 3 the trigonometric cubic
      in q = tr C / 3, B = C - q I, p_B = ||B||_F / sqrt(6) and
      r = det(B / p_B) / 2) round to at most 16 N u S: together at most
      72 u S <= 216 u a x S;
    - the cubic's angle arccos(r) / 3 has an infinite slope at r = 1, where
      the two smallest roots meet (Kopp, arXiv:physics/0610206).  B / p_B
      has entries within 7.5 u relative and Frobenius norm sqrt(6), so its
      six triple products sum to at most 14.7 in modulus and r is within
      d = 250 u; that moves the angle by up to (pi / 3) sqrt(d / 2), and the
      least root by 2 p_B <= sqrt(2) S times that, at most 16.6 sqrt(u) S.

    tau = S (2^12 N^2 a x u + 2^6 sqrt(u)), without the root term for N < 3,
    covers these with room for its own rounding and that of s +- tau.  It
    assumes no under- or overflow: a node with a, x or a nonzero p outside
    [2^-200, 2^200] gets tau = inf, and a block with a non-finite screen
    value, or N >= 4, keeps every node."""
    N = Qh.shape[-1]
    try:
        L = np.linalg.cholesky(Qh - margin * np.eye(N))
    except np.linalg.LinAlgError:
        return np.full(len(Qh), -math.inf)
    keep = slice(None)
    if N <= 3:
        with np.errstate(all="ignore"):
            s, tau = _least_screen(L, Qp)
            if np.isfinite(s).all():
                keep = np.flatnonzero(s - tau <= np.min(s + tau))
    least = np.full(len(Qh), math.inf)
    L_inv = np.linalg.inv(L[keep])
    least[keep] = np.linalg.eigvalsh(L_inv @ Qp[keep] @ L_inv.transpose(0, 2, 1))[:, 0]
    return least


def _least_screen(L, Qp):
    """(s, tau) of certified_minimum: each node's closed-form least eigenvalue
    of L^-1 Qp L^-T, from entry arrays of the factor's explicit inverse, and
    its error bound (N <= 3)."""
    N = L.shape[-1]
    Lc, P = L.transpose(1, 2, 0), Qp.transpose(1, 2, 0)  # entry arrays, no copy
    lower = [(i, j) for i in range(N) for j in range(i + 1)]
    X = {(i, i): 1.0 / Lc[i, i] for i in range(N)}
    for j in range(N):
        for i in range(j + 1, N):
            X[i, j] = -X[i, i] * sum(Lc[i, k] * X[k, j] for k in range(j, i))
    Y = [[sum(X[i, k] * P[k, l] for k in range(i + 1)) for l in range(N)] for i in range(N)]
    C = {(i, j): sum(Y[i][l] * X[j, l] for l in range(j + 1)) for i, j in lower}
    if N == 1:
        s = C[0, 0]
    elif N == 2:
        s = 0.5 * (C[0, 0] + C[1, 1]) - np.hypot(0.5 * (C[0, 0] - C[1, 1]), C[1, 0])
    else:
        q = (C[0, 0] + C[1, 1] + C[2, 2]) / 3.0
        b0, b1, b2, c10, c20, c21 = C[0, 0] - q, C[1, 1] - q, C[2, 2] - q, C[1, 0], C[2, 0], C[2, 1]
        pb = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (c10 * c10 + c20 * c20 + c21 * c21)) / 6)
        w = 1.0 / np.where(pb > 0.0, pb, 1.0)
        b0, b1, b2, c10, c20, c21 = (v * w for v in (b0, b1, b2, c10, c20, c21))
        det = b0 * (b1 * b2 - c21 * c21) - c10 * (c10 * b2 - c21 * c20)
        det += c20 * (c10 * c21 - b1 * c20)
        angle = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
        s = q + 2.0 * pb * np.cos(angle + 2.0 * math.pi / 3.0)
    a, x = (np.abs([v[ij] for ij in lower]).max(axis=0) for v in (Lc, X))
    p = np.abs([P[k, l] for k in range(N) for l in range(N)]).max(axis=0)
    u = 2.0**-53
    root = 2.0**6 * math.sqrt(u) if N == 3 else 0.0
    tau = N**3 * x * x * p * (2.0**12 * N * N * a * x * u + root)
    tame = (a >= 2.0**-200) & (a <= 2.0**200) & (x >= 2.0**-200) & (x <= 2.0**200)
    tame &= (p == 0.0) | (p >= 2.0**-200) & (p <= 2.0**200)
    return s, np.where(tame, tau, math.inf)


def certified_strength(worst):
    """The largest s with Qh + s Qp >= margin at every node, from the least
    certified_minimum over them (inf when no node limits s, 0 when Qh fails
    the margin); the least eigenvalue is concave in s, so [0, s] certifies."""
    return math.inf if worst >= 0.0 else 1.0 / -worst
