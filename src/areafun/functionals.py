"""Integral functionals weighted by curvature-measure densities.

The central object is

    F(K) = int_{S^{n-1}} f(u) * density_i(K, u) du,

where density_i(K, u) = elem_sym(q_matrix(h_K, u), i) is the i-th elementary
symmetric function of the principal curvature radii.  This density convention
carries no binomial normalisation; dividing by math.comb(n - 1, i) converts
to the mixed-form normalisation in which the order-i density of the unit
ball is 1.  The two agree at i = n-1.

Derivatives of F along support-function perturbations h + s*phi follow from
the matrix calculus of elem_sym: the s-derivative of the density is
trace(cofactor(Q_h, i) Q_phi) and its second derivative is the contraction of
the order-2 derivative tensor with Q_phi twice.  Both admit "adjoint" forms
with f and phi exchanged — the weighted cofactor field is divergence-free, so
second-order integration by parts on the sphere swaps them at no cost; the
agreement of the forms is itself a strong correctness check (see
areafun.identities).

Every integral over one body is a row of one node sweep (_sweep), which
forms each block's pieces once for all its rows; integrals over several
bodies form each body's forms once per block.  Every integral sums each row
one node block at a time, in node order, so no walk holds a per-node array
or a form stack; product grids build their nodes per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import certified_minimum
from .errors import DomainError
from .sphere import combination, frames, node_blocks, q_batch, tangent_jet
from .symfun import (
    contract2_batch,
    cofactor_batch,
    elem_sym_batch,
    elem_sym_pencil,
    mixed_discriminant_batch,
)


def _check_order(n, i):
    if not (1 <= i <= n - 1):
        raise DomainError(f"order must satisfy 1 <= i <= {n - 1}, got {i}")


def functional_value(f, body, i, grid):
    """F(K) = int f * density_i(K), one row of the node sweep; returns (value, estimate)."""
    return _paired_row(f, body, None, i, grid, "value")


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

    def per_block(g, b):
        U = g.nodes[b]
        return f.value(U) * _density_differences([(body_k, body_l)], U, b.start)[0, i - 1 : i]

    return grid.paired(lambda g: float(g.walk_blocks(lambda b: per_block(g, b), 1)[0][0]))


def _density_differences(pairs, U, first):
    """e_i(Q_K) - e_i(Q_L), (len(pairs), n-1, len(U)), for each pair (K, L)
    and order i = 1 .. n-1 at the node block U from node first on."""
    E = frames(U)

    def densities(body):
        Q = q_batch(body.h, U, E, first)
        return np.array([elem_sym_batch(Q, i) for i in range(1, body.n)])

    return np.array([densities(K) - densities(L) for K, L in pairs])


def _difference_table(pairs, grid):
    """_density_differences at every node of grid, (len(pairs), n-1, m)."""
    table = np.empty((len(pairs), grid.n - 1, len(grid)))
    for b in node_blocks(len(grid)):
        table[..., b] = _density_differences(pairs, grid.nodes[b], b.start)
    return table


def functional_segment(f, body_k, body_l, i, ts, grid):
    """F along the Minkowski segment (1-t) K + t L for each t in ts.

    The segment's support function is h_K + t phi with phi = h_L - h_K, so F
    there is the polynomial sum_k I_k t^k with I_0 = F(K) and I_1 .. I_i the
    f-weighted pencil coefficients of Q_K along Q_phi: one sweep of the grid
    and one of its coarse grid give every t.  Returns (values, error_estimates)
    as arrays over ts, the estimate at t being |sum_k (I_k - I_k^coarse) t^k|.
    """
    if body_k.n != body_l.n or f.n != body_k.n:
        raise DomainError("segment endpoints and weight must share one dimension")
    phi = combination([1.0, -1.0], [body_l.h, body_k.h])
    fine, coarse = (
        _sweep(f, body_k, phi, i, g, ("value", "pencil"))[0] for g in (grid, grid.coarse())
    )
    powers = np.asarray(ts, dtype=float)[:, None] ** np.arange(i + 1)
    return powers @ fine, np.abs(powers @ (fine - coarse))


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
    return _mixed_integral(f.value, bodies, grid)[:2]


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
    v, e, _ = _mixed_integral(bodies[0].support, bodies[1:], grid)
    return v / n, e / n


def _mixed_integral(weight, bodies, grid):
    """Paired int weight(u) * D(Q_1, ..., Q_{n-1}) du, each body's forms formed
    once per node block, and each body's least form eigenvalue over the fine
    grid's nodes: its curvature certificate, as certify_c2plus takes it."""

    def per_block(g, b):
        U = g.nodes[b]
        E = frames(U)
        stacks = [q_batch(body.h, U, E, first=b.start) for body in bodies]
        least = [np.linalg.eigvalsh(Q)[:, 0] for Q in stacks] if g is grid else []
        return np.vstack([weight(U) * mixed_discriminant_batch(stacks), *least])

    (value,), minima, _ = grid.walk_blocks(lambda b: per_block(grid, b), 1, len(bodies))
    (rough,), _, _ = grid.coarse().walk_blocks(lambda b: per_block(grid.coarse(), b), 1)
    return float(value), float(abs(value - rough)), minima


# -- the one-body node sweep ------------------------------------------------------


class _Block:
    """One node block U of a sweep, starting at node first: each per-node
    piece of _PIECES is formed on first use and then shared by every row."""

    def __init__(self, given, **block):
        self.__dict__.update(given, **block)

    def __getattr__(self, name):  # only for pieces not formed yet
        if name not in _PIECES:
            raise AttributeError(name)
        setattr(self, name, _PIECES[name](self))
        return self.__dict__[name]


_PIECES = {
    "E": lambda b: frames(b.U),
    "Qh": lambda b: q_batch(b.body.h, b.U, b.E, first=b.first),
    "Qf": lambda b: q_batch(b.f, b.U, b.E, first=b.first),
    "jet": lambda b: tangent_jet(b.phi, b.U, b.E, b.first),  # phi's gradient and forms
    "Qp": lambda b: b.jet[1],
    # phi's spherical gradient in the frame, from the forms' jet when they are formed
    "gp": lambda b: np.einsum(
        "mia,mi->ma", b.E, b.jet[0] if b.with_forms else b.phi.extension_gradient(b.U)
    ),
    "fv": lambda b: b.f.value(b.U),
    "pv": lambda b: b.phi.value(b.U),  # at u/|u|, as first_variation's value
    "C": lambda b: cofactor_batch(b.Qh, b.i),
    "M": lambda b: contract2_batch(b.Qh, b.i, b.Qf),
}

# every one-body integrand, once: its per-node values on a block, (m,) or, for
# the pencil coefficients I_1 .. I_i, (i, m)
_INTEGRANDS = {
    "value": lambda b: b.fv * elem_sym_batch(b.Qh, b.i),
    "first/direct": lambda b: b.fv * np.einsum("mjk,mjk->m", b.C, b.Qp),
    "first/adjoint": lambda b: b.pv * np.einsum("mjk,mjk->m", b.C, b.Qf),
    "second/quadratic": lambda b: b.fv
    * np.einsum("mjk,mjk->m", contract2_batch(b.Qh, b.i, b.Qp), b.Qp),
    "second/adjoint": lambda b: b.pv * np.einsum("mjk,mjk->m", b.M, b.Qp),
    "second/gradient": lambda b: b.pv * b.pv * np.einsum("mjj->m", b.M)
    - np.einsum("mj,mjk,mk->m", b.gp, b.M, b.gp),
    "pencil": lambda b: b.fv * elem_sym_pencil(b.Qh, b.Qp, b.i, cof=b.C),
}
_WITHOUT_PHI_FORMS = {"value", "first/adjoint", "second/gradient"}  # rows that need no Q_phi


def _sweep(f, body, phi, i, grid, rows, margin=None):
    """The named integrands over grid from one walk of its node blocks.

    Returns (sums, worst): the quadrature sums, one per row in order ("pencil"
    gives the i coefficients I_1 .. I_i of F(h + s phi) - F(h) = sum_k I_k
    s^k), each summed on its own as weighted_sum does; and, given a margin,
    the least certified_minimum of Q_h along Q_phi over the nodes (else None).
    """
    if f.n != body.n:
        raise DomainError("weight function and body live in different dimensions")
    _check_order(body.n, i)
    unknown = set(rows) - _INTEGRANDS.keys()
    if unknown:
        raise DomainError(f"unknown forms {sorted(unknown)}")
    with_forms = margin is not None or not _WITHOUT_PHI_FORMS.issuperset(rows)
    given = dict(f=f, body=body, phi=phi, i=i, with_forms=with_forms)
    count = sum(i if r == "pencil" else 1 for r in rows)

    def per_block(b):
        k = _Block(given, U=grid.nodes[b], first=b.start)
        vals = [_INTEGRANDS[r](k) for r in rows]
        return np.vstack(vals if margin is None else vals + [certified_minimum(k.Qh, k.Qp, margin)])

    sums, least, _ = grid.walk_blocks(per_block, count, least=int(margin is not None))
    return sums, float(least[0]) if len(least) else None


def _paired_row(f, body, phi, i, grid, row):
    """(I(grid), |I(grid) - I(coarse)|) of one single-valued row, as floats."""
    (value,), (est,) = grid.paired(lambda g: _sweep(f, body, phi, i, g, (row,))[0])
    return float(value), float(est)


# -- variations of F along support perturbations ------------------------------


def first_variation(f, body, phi, i, grid, form="direct"):
    """d/ds F(h + s phi) at s = 0; returns (value, error_estimate).

    form="direct":  int f * trace(cofactor(Q_h, i) Q_phi)
    form="adjoint": int phi * trace(cofactor(Q_h, i) Q_f)

    The two agree for C^2 data (divergence-free cofactor fields); "adjoint"
    needs second derivatives of f instead of phi, which is the right trade
    when phi is rough and f is smooth.  One row of the node sweep.
    """
    return _paired_row(f, body, phi, i, grid, f"first/{form}")


def second_variation(f, body, phi, i, grid, form="quadratic"):
    """d^2/ds^2 F(h + s phi) at s = 0; returns (value, error_estimate).

    form="quadratic": int f * <T(Q_h, i) Q_phi, Q_phi>   (f weighted, phi twice)
    form="adjoint":   int phi * <T(Q_h, i) Q_f, Q_phi>   (one phi slot swapped)
    form="gradient":  int phi^2 trace(m) - <m grad phi, grad phi>,
                      m = T(Q_h, i) Q_f

    T is the second-derivative tensor of elem_sym(., i).  The gradient form
    uses only first derivatives of phi — the variant of choice for highly
    oscillatory perturbations whose Hessians are numerically poisonous; on
    its own it asks phi for an order-1 jet.  One row of the node sweep.
    """
    return _paired_row(f, body, phi, i, grid, f"second/{form}")


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
    """Assemble the power-concavity second-order criterion with tolerances:
    F, its direct first variation and its second variation in the given form
    are three rows of one node sweep per grid."""
    rows = ("value", "first/direct", f"second/{form}")
    (F, dF, d2F), (eF, edF, ed2F) = (
        a.tolist() for a in grid.paired(lambda g: _sweep(f, body, phi, i, g, rows)[0])
    )
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
