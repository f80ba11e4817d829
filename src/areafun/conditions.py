"""Eigenvalue-sum conditions on spherical functions.

The order-i condition on f asks that at every unit vector u the sum of the
n-i smallest eigenvalues of q_matrix(f, u) be nonnegative.  It is the exact
dividing line for monotonicity of the order-i weighted functionals: decisive
in both directions for C^2 weights.

check_mi decides it on a grid through the subset form: all (n-i)-element
subsets of the spectrum have nonnegative sum ⟺ the smallest such subset (the
bottom n-i eigenvalues) does.  lemma_equiv_bruteforce brute-forces the
diagonal reduction behind it: the trace form trace(cofactor(A, i) diag(mu))
is nonnegative for every nonnegative diagonal A exactly when every
(N-i+1)-subset of mu has nonnegative sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sphere import q_batch, q_matrix, sphere_area, tangent_frame
from .symfun import deleted_elem_sym

ANALYTIC_TOL = 1e-7
FD_TOL = 1e-4


def default_tolerance(f):
    return ANALYTIC_TOL if f.derivative_mode == "analytic" else FD_TOL


def _verdict(worst, tol):
    if worst < -tol:
        return "violated"
    if worst <= tol:
        return "marginal"
    return "satisfied"


@dataclass
class ConditionReport:
    """Outcome of a grid scan (plus refinement) for the order-i condition."""

    verdict: str
    worst_value: float
    worst_node: np.ndarray
    order: int
    grid_id: str
    tolerance: float
    refined: bool = False

    @property
    def ok(self):
        """Non-violation; 'marginal' maps to True for theorem-facing checks."""
        return self.verdict != "violated"


class EigenSumScan:
    """One eigendecomposition of Q(f, .) over a grid, queried for every order."""

    def __init__(self, f, grid):
        if f.n != grid.n:
            raise DomainError("function and grid dimensions differ")
        self.f = f
        self.grid = grid
        Q = q_batch(f, grid.nodes)
        lam = np.linalg.eigvalsh(Q)  # ascending rows
        self.cumsums = np.cumsum(lam, axis=1)

    def sums(self, i):
        """Per-node sum of the n-i smallest eigenvalues."""
        n = self.f.n
        if not (1 <= i <= n - 1):
            raise DomainError(f"order must satisfy 1 <= i <= {n - 1}")
        return self.cumsums[:, n - i - 1]

    def worst(self, i):
        s = self.sums(i)
        k = int(np.argmin(s))
        return float(s[k]), self.grid.nodes[k].copy()


def eigen_sum(f, u, i):
    """Sum of the n-i smallest eigenvalues of q_matrix(f, u) at one point."""
    lam = np.linalg.eigvalsh(q_matrix(f, u))
    return float(np.sum(lam[: f.n - i]))


def _nelder_mead(func, sim, maxiter, xatol, fatol):
    """Minimise func from the simplex sim, shape (d+1, d); returns (x, f(x)).

    Nelder & Mead (Comput. J. 7(4), 1965) with reflection 1, expansion 2,
    contraction 1/2 and shrink 1/2.  A port of scipy's `_minimize_neldermead`
    without bounds or adaptation: the same update expressions, argsort
    reordering and stopping test, so the iterates are bit-identical.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(sim, dtype=float)
    N = sim.shape[1]
    fsim = np.array([func(x) for x in sim], dtype=float)
    # sorted twice, as in scipy: argsort is not stable, so ties may reorder
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = func(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim))


def _refine_worst(f, i, u0, spacing):
    """Gradient-free descent of the eigenvalue sum on a chart around u0."""
    E = tangent_frame(u0)
    d = f.n - 1

    def objective(x):
        v = u0 + E @ x
        return eigen_sum(f, v / np.linalg.norm(v), i)

    simplex = np.zeros((d + 1, d))
    for k in range(d):
        simplex[k + 1, k] = spacing
    x, fun = _nelder_mead(objective, simplex, maxiter=50, xatol=1e-9, fatol=1e-12)
    v = u0 + E @ x
    return fun, v / np.linalg.norm(v)


def check_mi(f, i, grid, tol=None, refine=True, scan=None):
    """Decide the order-i eigenvalue-sum condition for f on a grid.

    Grid minima only bound the true minimum from above, so the default
    tolerances (1e-7 analytic / 1e-4 finite-difference) leave a band of
    'marginal' verdicts; violated means worst_value < -tol after refinement.
    """
    if scan is None:
        scan = EigenSumScan(f, grid)
    if tol is None:
        tol = default_tolerance(f)
    worst, node = scan.worst(i)
    refined = False
    if refine:
        spacing = math.sqrt(sphere_area(grid.n) / len(grid))
        rv, rn = _refine_worst(f, i, node, spacing)
        if rv < worst:
            worst, node = rv, rn
        refined = True
    return ConditionReport(
        verdict=_verdict(worst, tol),
        worst_value=worst,
        worst_node=node,
        order=int(i),
        grid_id=grid.grid_id,
        tolerance=float(tol),
        refined=refined,
    )


# -- diagonal reduction (subset form vs 0/1 scan) -----------------------------


def _diagonal_form_values(mu, i, lams):
    """g(lam) = sum_j mu_j e_{i-1}(lam with entry j removed), batched over rows."""
    return deleted_elem_sym(lams, i - 1) @ mu


def lemma_equiv_bruteforce(mu, i, trials=1000, seed=0):
    """Brute-force both sides of the diagonal-reduction equivalence.

    Left: the diagonal trace form over ALL 0/1 diagonals (sufficient by the
    structure of the cofactor: it is multilinear in the diagonal entries) plus
    `trials` random nonnegative diagonals.  Right: every subset of size
    N-i+1 of mu has nonnegative sum.  Returns (lhs_verdict, rhs_verdict);
    equality of the two booleans is the content being tested.
    """
    mu = np.asarray(mu, dtype=float)
    N = len(mu)
    if N > 8:
        raise DomainError("brute force restricted to N <= 8")
    if not (1 <= i <= N):
        raise DomainError(f"order must satisfy 1 <= i <= {N}")
    scale = (1.0 + float(np.abs(mu).sum())) * (2.0 ** max(i - 1, 0)) * math.comb(N, i)
    tol = 1e-11 * scale

    zero_one = np.array(list(itertools.product((0.0, 1.0), repeat=N)))
    rng = np.random.default_rng(seed)
    randoms = rng.uniform(0.0, 2.0, size=(trials, N))
    vals = _diagonal_form_values(mu, i, np.vstack([zero_one, randoms]))
    lhs_verdict = bool(np.min(vals) >= -tol)

    subset_sums = [sum(c) for c in itertools.combinations(mu, N - i + 1)]
    rhs_verdict = bool(min(subset_sums) >= -tol)
    return lhs_verdict, rhs_verdict
