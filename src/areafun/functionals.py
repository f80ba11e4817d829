"""Integral functionals weighted by curvature-measure densities.

The central object is

    F(K) = int_{S^{n-1}} f(u) * density_i(K, u) du,

where density_i(K, u) = elem_sym(q_matrix(h_K, u), i) is the i-th elementary
symmetric function of the principal curvature radii.  This density convention
carries no binomial normalisation; convention_factor(n, i) converts to the
mixed-form normalisation in which the order-i density of the unit ball is 1
(divide by it).  The two agree at i = n-1.

Derivatives of F along support-function perturbations h + s*phi follow from
the matrix calculus of elem_sym: the s-derivative of the density is
trace(cofactor(Q_h, i) Q_phi) and its second derivative is the contraction of
the order-2 derivative tensor with Q_phi twice.  Both admit "adjoint" forms
with f and phi exchanged — the weighted cofactor field is divergence-free, so
second-order integration by parts on the sphere swaps them at no cost; the
agreement of the forms is itself a strong correctness check (see
areafun.identities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sphere import frames, q_batch
from .symfun import (
    contract2_batch,
    cofactor_batch,
    elem_sym_batch,
    elem_sym_pencil,
    mixed_discriminant_batch,
)


def convention_factor(n, i):
    """elem-sym density = convention_factor * (ball-normalised mixed density)."""
    if not (1 <= i <= n - 1):
        raise DomainError(f"order must satisfy 1 <= i <= {n - 1}")
    return math.comb(n - 1, i)


def _check_order(n, i):
    if not (1 <= i <= n - 1):
        raise DomainError(f"order must satisfy 1 <= i <= {n - 1}, got {i}")


def functional_value(f, body, i, grid):
    """F(K) = int f * density_i(K); returns (value, error_estimate)."""
    if f.n != body.n:
        raise DomainError("weight function and body live in different dimensions")
    _check_order(body.n, i)

    return grid.paired(_node_integral(body, lambda U, Q, _: f.value(U) * elem_sym_batch(Q, i)))


def functional_difference(f, body_k, body_l, i, grid):
    """F(K) - F(L) as one integral of the pointwise density difference.

    Numerically very different from subtracting two functional_value results:
    on a shared grid the common part of the two integrands cancels node by
    node, so both the value and the error estimate scale with the *difference*
    — decisive when the bodies are close and the grid is Monte Carlo, where
    independent estimates carry common noise far larger than the gap.
    Returns (value, error_estimate).
    """
    if body_k.n != body_l.n or f.n != body_k.n:
        raise DomainError("bodies and weight must share one dimension")
    _check_order(body_k.n, i)

    def integral(g):
        dens_k = elem_sym_batch(body_k.q_stack(g), i)
        dens_l = elem_sym_batch(body_l.q_stack(g), i)
        return g.weighted_sum(f.value(g.nodes) * (dens_k - dens_l))

    return grid.paired(integral)


def functional_segment(f, body_k, body_l, i, ts, grid):
    """F along the Minkowski segment (1-t) K + t L for each t in ts.

    The Hessian form is affine in the support function, so each t costs one
    elem_sym_batch of the blended cached endpoint stacks.
    Returns (values, error_estimates) as arrays over ts.
    """
    if body_k.n != body_l.n or f.n != body_k.n:
        raise DomainError("segment endpoints and weight must share one dimension")
    _check_order(body_k.n, i)
    ts = np.asarray(ts, dtype=float)
    out = np.empty(len(ts))
    est = np.empty(len(ts))
    for k, t in enumerate(ts):
        def integral(g, t=t):
            Q = (1.0 - t) * body_k.q_stack(g) + t * body_l.q_stack(g)
            return g.weighted_sum(f.value(g.nodes) * elem_sym_batch(Q, i))

        out[k], est[k] = grid.paired(integral)
    return out, est


def mixed_area_integral(f, bodies, grid):
    """int f(u) * D(Q_1, ..., Q_{n-1}) du for exactly n-1 bodies.

    D is the mixed discriminant (fully polarised determinant); with all
    bodies equal this is the top-order density integral, and with i copies of
    K and n-1-i unit balls it equals functional_value(f, K, i)/binom(n-1,i).
    """
    if not bodies:
        raise DomainError("need at least one body")
    n = bodies[0].n
    if any(b.n != n for b in bodies) or f.n != n:
        raise DomainError("all bodies and the weight must share one dimension")
    if len(bodies) != n - 1:
        raise DomainError(f"mixed integral needs exactly {n - 1} bodies, got {len(bodies)}")

    def integral(g):
        stacks = [b.q_stack(g) for b in bodies]
        return g.weighted_sum(f.value(g.nodes) * mixed_discriminant_batch(stacks))

    return grid.paired(integral)


def mixed_volume_smooth(bodies, grid):
    """V(K_1, ..., K_n) = (1/n) int h_{K_1} D(Q_{K_2}, ..., Q_{K_n}) du.

    Symmetric in all n slots (a fact worth testing, not assuming), Minkowski
    multilinear, and equal to volume when all slots agree.
    """
    n = bodies[0].n if bodies else 0
    if len(bodies) != n:
        raise DomainError(f"mixed volume needs exactly n={n} bodies, got {len(bodies)}")
    if any(b.n != n for b in bodies):
        raise DomainError("mixed volume: dimension mismatch")

    def integral(g):
        stacks = [b.q_stack(g) for b in bodies[1:]]
        return g.weighted_sum(bodies[0].support(g.nodes) * mixed_discriminant_batch(stacks))

    v, e = grid.paired(integral)
    return v / n, e / n


def volume(body, grid):
    return mixed_volume_smooth([body] * body.n, grid)


# -- variations of F along support perturbations ------------------------------


def _node_integral(body, vals, rows=()):
    """Per-grid integral g -> I(g) of the per-node values vals(U, Q, first),
    shape (*rows, len(U)), with U a node block of g starting at node first
    and Q the body's Hessian forms there, formed block by block into one
    array and summed once, row by row."""

    def integral(g):
        Q = body.q_stack(g)
        return g.weighted_sum(g.node_values(lambda b: vals(g.nodes[b], Q[b], b.start), rows))

    return integral


def _first_variation_integral(f, body, phi, i, form):
    """Per-grid integral g -> I(g) of the first variation in the given form;
    first_variation pairs it over grid and coarse grid, and the exchange
    check in areafun.identities telescopes it over two refinements."""
    _check_order(body.n, i)
    if form not in ("direct", "adjoint"):
        raise DomainError(f"unknown first-variation form {form!r}")
    a, b = (f, phi) if form == "direct" else (phi, f)
    return _node_integral(
        body,
        lambda U, Q, first: a.value(U)
        * np.einsum("mjk,mjk->m", cofactor_batch(Q, i), q_batch(b, U, first=first)),
    )


def _pencil_integral(f, body, phi, i):
    """Per-grid integral g -> (I_1, .., I_i) of the f-weighted pencil
    coefficients (elem_sym_pencil): F(h + s phi) - F(h) = sum_k I_k s^k
    exactly.  I_1 is the direct first variation, node for node."""
    _check_order(body.n, i)
    return _node_integral(
        body,
        lambda U, Q, first: f.value(U) * elem_sym_pencil(Q, q_batch(phi, U, first=first), i),
        (i,),
    )


def _second_variation_integral(f, body, phi, i, form):
    """Per-grid integral of the second variation in the given form, shared as
    _first_variation_integral is."""
    _check_order(body.n, i)
    if form == "quadratic":

        def vals(U, Q, first):
            Qp = q_batch(phi, U, first=first)
            return f.value(U) * np.einsum("mjk,mjk->m", contract2_batch(Q, i, Qp), Qp)

    elif form == "adjoint":

        def vals(U, Q, first):
            E = frames(U)
            M = contract2_batch(Q, i, q_batch(f, U, E, first=first))
            return phi.value(U) * np.einsum("mjk,mjk->m", M, q_batch(phi, U, E, first=first))

    elif form == "gradient":

        def vals(U, Q, first):
            E = frames(U)  # gp: frame components of the spherical gradient of phi
            M = contract2_batch(Q, i, q_batch(f, U, E, first=first))
            pv, gp = phi.value(U), np.einsum("mia,mi->ma", E, phi.extension_gradient(U))
            return pv * pv * np.einsum("mjj->m", M) - np.einsum("mj,mjk,mk->m", gp, M, gp)

    else:
        raise DomainError(f"unknown second-variation form {form!r}")
    return _node_integral(body, vals)


def first_variation(f, body, phi, i, grid, form="direct"):
    """d/ds F(h + s phi) at s = 0; returns (value, error_estimate).

    form="direct":  int f * trace(cofactor(Q_h, i) Q_phi)
    form="adjoint": int phi * trace(cofactor(Q_h, i) Q_f)

    The two agree for C^2 data (divergence-free cofactor fields); "adjoint"
    needs second derivatives of f instead of phi, which is the right trade
    when phi is rough and f is smooth.
    """
    return grid.paired(_first_variation_integral(f, body, phi, i, form))


def second_variation(f, body, phi, i, grid, form="quadratic"):
    """d^2/ds^2 F(h + s phi) at s = 0; returns (value, error_estimate).

    form="quadratic": int f * <T(Q_h, i) Q_phi, Q_phi>   (f weighted, phi twice)
    form="adjoint":   int phi * <T(Q_h, i) Q_f, Q_phi>   (one phi slot swapped)
    form="gradient":  int phi^2 trace(m) - <m grad phi, grad phi>,
                      m = T(Q_h, i) Q_f

    T is the second-derivative tensor of elem_sym(., i).  The gradient form
    uses only first derivatives of phi — the variant of choice for highly
    oscillatory perturbations whose Hessians are numerically poisonous.
    """
    return grid.paired(_second_variation_integral(f, body, phi, i, form))


# -- Brunn-Minkowski-type second-order criterion ------------------------------


@dataclass
class ConcavityReport:
    """Second-order test of s -> F(K_s)^{1/i} concavity at s = 0.

    criterion = F * F'' - ((i-1)/i) * F'^2 must be <= 0 (up to quadrature
    tolerance) whenever the power-concavity inequality holds along the family;
    a confidently positive value certifies failure.
    """

    value: float
    functional: float
    first: float
    second: float
    order: int
    tolerance: float
    form: str

    @property
    def consistent_with_concavity(self):
        return self.value <= self.tolerance

    @property
    def violates_concavity(self):
        return self.value > self.tolerance


def power_concavity(i, F, eF, dF, edF, d2F, ed2F):
    """Criterion F F'' - ((i-1)/i) F'^2 and its tolerance, from F and its
    first two derivatives along the family, each with its quadrature estimate.

    Error propagation: first-order in each quadrature estimate, inflated 5x
    (the usual doubling-estimate safety factor) plus a relative floor.
    """
    c = (i - 1.0) / i
    value = F * d2F - c * dF * dF
    tol = 5.0 * (abs(eF * d2F) + abs(F) * ed2F + 2.0 * c * abs(dF) * edF)
    tol += 1e-9 * (1.0 + abs(F) * abs(d2F) + c * dF * dF)
    return value, tol


def concavity_criterion(f, body, phi, i, grid, form="quadratic"):
    """Assemble the power-concavity second-order criterion with tolerances."""
    F, eF = functional_value(f, body, i, grid)
    dF, edF = first_variation(f, body, phi, i, grid)
    d2F, ed2F = second_variation(f, body, phi, i, grid, form=form)
    value, tol = power_concavity(i, F, eF, dF, edF, d2F, ed2F)
    return ConcavityReport(
        value=float(value),
        functional=float(F),
        first=float(dF),
        second=float(d2F),
        order=int(i),
        tolerance=float(tol),
        form=form,
    )
