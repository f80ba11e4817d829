"""Smooth convex bodies represented by their support functions.

A body is the sublevel-set hull K = {x : <x,u> <= h(u) for all unit u}.  All
geometry is read off the support function h: the tangent-frame Hessian form
q_matrix(h, u) of its 1-homogeneous extension is positive definite exactly
when K has a C^2 boundary with everywhere positive curvature, and its
eigenvalues are the principal radii of curvature at the boundary point with
outer normal u.

Nothing is cached: the integrals form the forms per node block as they go,
and q_stack forms a whole grid's on each call.  Densities are polynomials in
the forms (areafun.symfun); eigenvalues are solved only where the spectrum is
the question, and a pencil h + s phi is certified without forming its forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError
from . import sphere
from .sphere import SphericalFunction, tangent_frame


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
        """Hessian forms at all grid nodes, (m, n-1, n-1), formed on each call."""
        return sphere.q_batch(self.h, grid.nodes)

    def q_eigs(self, grid):
        """Eigenvalues of the Hessian forms at all grid nodes, (m, n-1), ascending."""
        return np.linalg.eigvalsh(self.q_stack(grid))

    def translate(self, v):
        v = np.asarray(v, dtype=float)
        moved = sphere.combination(
            [1.0, 1.0], [self.h, sphere.linear(self.n, v)], label=f"{self.h.label}+lin"
        )
        return SupportBody(moved, label=f"{self.label}+t")

    def scale(self, t):
        t = float(t)
        if t <= 0:
            raise DomainError("scale factor must be positive")
        return SupportBody(
            sphere.combination([t], [self.h], label=f"{t:g}*{self.h.label}"),
            label=f"{t:g}*{self.label}",
        )


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


def from_form(M, label=None):
    """Ellipsoid with support function sqrt(u^T M u), M symmetric positive definite."""
    return SupportBody(sphere.quadratic_support(M), label=label or "E(form)")


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


def certify_c2plus(body, grid, margin=1e-6):
    """Check lambda_min(q_matrix(h,u)) >= margin at every grid node.

    A grid certificate, not a proof: between nodes the minimum eigenvalue is
    controlled by the modulus of continuity of the Hessian form, which is not
    estimated here.  Pair with fine grids (>= 8192 nodes in R^3) in anger.
    """
    mins = body.q_eigs(grid)[:, 0]
    k = int(np.argmin(mins))
    return Certificate(
        ok=bool(mins[k] >= margin),
        min_eig=float(mins[k]),
        worst_node=grid.nodes[k].copy(),
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
    body = from_form(M, label=label or "realized")
    return body


# -- one-parameter support perturbations --------------------------------------


def certified_minimum(Qh, Qp, margin):
    """Per node, the least eigenvalue of C = L^-1 Qp L^-T, L L^T = Qh - margin I:
    Qh + s Qp >= margin is a congruence away from I + s C >= 0.  All -inf
    when the Cholesky factorisation fails (Qh not above the margin)."""
    try:
        L = np.linalg.cholesky(Qh - margin * np.eye(Qh.shape[-1]))
    except np.linalg.LinAlgError:
        return np.full(len(Qh), -math.inf)
    L_inv = np.linalg.inv(L)
    return np.linalg.eigvalsh(L_inv @ Qp @ L_inv.transpose(0, 2, 1))[:, 0]


def certified_strength(worst):
    """The largest s with Qh + s Qp >= margin at every node, from the least
    certified_minimum over them (inf when no node limits s, 0 when Qh fails
    the margin); the least eigenvalue is concave in s, so [0, s] certifies."""
    return math.inf if worst >= 0.0 else 1.0 / -worst
