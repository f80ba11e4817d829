"""Sphere backbone: spherical functions, tangent frames, Hessian forms, grids.

A function f on the unit sphere S^{n-1} is handled through its 1-homogeneous
extension fbar(x) = |x| f(x/|x|).  The object carries one jet of an *ambient
representative* phi — any smooth function on a neighbourhood of the sphere
agreeing with f there — giving phi's value, gradient and Hessian up to a
requested order, and synthesises gradient and Hessian of fbar from them via
the chain rule for x -> |x| phi(x/|x|), so every derivative is exact up to
rounding.

The matrix of second-order data at a point u is

    q_matrix(f, u) = E(u)^T Hess(fbar)(u) E(u)

with E(u) the deterministic orthonormal tangent frame at u.  For the
1-homogeneous extension this equals the spherical Hessian of f plus f times
the identity, the quantity whose elementary symmetric functions give the
curvature-measure densities used throughout the package.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_POLY_BLOCK = 1 << 16
# nodes per block of the node pipeline: every per-node computation on a large
# node set runs one block at a time, so its temporaries follow the block, not
# the node count; a power of two, so inner blocks (inner_block) tile it
NODE_BLOCK = 1 << 13


def node_blocks(m):
    """Consecutive slices of at most NODE_BLOCK of the m nodes, in order."""
    return (slice(s, min(s + NODE_BLOCK, m)) for s in range(0, m, NODE_BLOCK))


def inner_block(budget, per_node):
    """Nodes per inner block of a kernel holding per_node entries per node
    within budget entries: a power of two no larger than NODE_BLOCK, so its
    blocks tile every node block alike and a node's row does not depend on
    where its node block starts."""
    return min(NODE_BLOCK, 1 << (max(1, budget // max(1, per_node)).bit_length() - 1))


def sphere_area(n):
    """Surface measure of S^{n-1} in R^n."""
    if n < 1:
        raise DomainError("ambient dimension must be >= 1")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise DomainError(f"ambient dimension {n} is too large: |S^{n - 1}| overflows") from None


def _as_points(X, n):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        if X.shape[0] != n:
            raise DomainError(f"point has dimension {X.shape[0]}, expected {n}")
        return X[None, :], True
    if X.ndim != 2 or X.shape[1] != n:
        raise DomainError(f"expected points of shape (m, {n}), got {X.shape}")
    return X, False


class SphericalFunction:
    """Function on S^{n-1} with derivative access via its homogeneous extension."""

    def __init__(self, n, jet, label="f"):
        """jet(Y, order) returns (phi,), (phi, grad phi) or (phi, grad phi,
        Hess phi) of the ambient representative at the rows of Y, computing
        nothing above the requested order.  A jet that has values only
        raises DomainError for any order above 0."""
        if n < 2:
            raise DomainError("ambient dimension must be >= 2")
        self.n = int(n)
        self._jet = jet
        self.label = label

    def __repr__(self):
        return f"SphericalFunction({self.label}, n={self.n})"

    # -- evaluation --------------------------------------------------------

    def value(self, U):
        """f at unit vectors; accepts (n,) or (m, n)."""
        U2, single = _as_points(U, self.n)
        vals = np.empty(len(U2))
        for b in node_blocks(len(U2)):
            vals[b] = self._jet(U2[b], 0)[0]
        return float(vals[0]) if single else vals

    def __call__(self, u):
        return self.value(u)

    def extension_value(self, X):
        X2, single = _as_points(X, self.n)
        r = np.linalg.norm(X2, axis=1)
        if np.any(r == 0.0):
            raise DomainError("extension undefined at the origin")
        vals = r * np.asarray(self._jet(X2 / r[:, None], 0)[0], dtype=float)
        return float(vals[0]) if single else vals

    # -- derivatives of the 1-homogeneous extension ------------------------

    def extension_gradient(self, X):
        X2, single = _as_points(X, self.n)
        G = np.empty_like(X2)
        for b in node_blocks(len(X2)):
            _, Y, c, jet = self._jet_parts(X2[b], 1)
            G[b] = jet[1] + c[:, None] * Y
        if not np.all(np.isfinite(G)):
            bad = int(np.argwhere(~np.isfinite(G).all(axis=1))[0, 0])
            raise EvaluationError(
                f"non-finite gradient of {self.label} at point {X2[bad]}"
            )
        return G[0] if single else G

    def extension_hessian(self, X):
        # chain rule for fbar(x) = r phi(y), y = x/r; the result annihilates
        # the radial direction and is (-1)-homogeneous in r by construction
        X2, single = _as_points(X, self.n)
        r, Y, c, (_, _, H) = self._jet_parts(X2, 2)
        Hy = (H @ Y[:, :, None])[:, :, 0]
        hyy = np.sum(Hy * Y, axis=1)
        I = np.eye(self.n)
        YY = Y[:, :, None] * Y[:, None, :]
        out = (
            H
            - Hy[:, :, None] * Y[:, None, :]
            - Y[:, :, None] * Hy[:, None, :]
            + hyy[:, None, None] * YY
            + c[:, None, None] * (I[None, :, :] - YY)
        )
        out /= r[:, None, None]
        out = 0.5 * (out + out.transpose(0, 2, 1))
        if not np.all(np.isfinite(out)):
            bad = int(np.argwhere(~np.isfinite(out).reshape(len(out), -1).all(axis=1))[0, 0])
            raise EvaluationError(
                f"non-finite Hessian of {self.label} at point {X2[bad]}"
            )
        return out[0] if single else out

    def _jet_parts(self, X, order):
        """r = |x|, y = x/r, c = phi(y) - <grad phi(y), y> and the jet of
        phi at y up to the given order (1 or 2)."""
        r = np.linalg.norm(X, axis=1)
        Y = X / r[:, None]
        jet = [np.asarray(d, dtype=float) for d in self._jet(Y, order)]
        return r, Y, jet[0] - np.sum(jet[1] * Y, axis=1), jet

    # -- diagnostics --------------------------------------------------------

    def homogeneity_residual(self, samples=64, seed=0):
        """max |fbar(t x) - t fbar(x)| / (1 + |fbar(x)|) over random probes."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(samples, self.n))
        X /= np.linalg.norm(X, axis=1)[:, None]
        t = rng.uniform(0.5, 2.0, size=samples)
        f1 = self.extension_value(X * t[:, None])
        f0 = self.extension_value(X)
        return float(np.max(np.abs(f1 - t * f0) / (1.0 + np.abs(f0))))

    def radial_residual(self, samples=64, seed=0):
        """max |Hess(fbar)(u) u| over random unit probes (should vanish)."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(samples, self.n))
        X /= np.linalg.norm(X, axis=1)[:, None]
        H = self.extension_hessian(X)
        return float(np.max(np.abs(np.einsum("mij,mj->mi", H, X))))


# -- constructors -----------------------------------------------------------


def constant(n, c, label=None):
    c = float(c)

    def jet(Y, order):
        return (np.full(len(Y), c),) + tuple(
            np.zeros((len(Y),) + (n,) * k) for k in range(1, order + 1)
        )

    return SphericalFunction(n, jet, label or f"const({c:g})")


def linear(n, v, label=None):
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DomainError(f"direction must have shape ({n},)")

    def jet(Y, order):
        val = Y @ v
        if order == 0:
            return (val,)
        grad = np.broadcast_to(v, Y.shape).copy()
        if order == 1:
            return val, grad
        return val, grad, np.zeros((len(Y), n, n))

    return SphericalFunction(n, jet, label or "linear")


def _monomial_evaluator(E, C, shape):
    """Y (m, n) -> (m, *shape): the monomials x^E (rows of E) times C, formed by
    square-and-multiply over the exponent bits, so memory does not grow with the
    degree, in inner blocks of at most _POLY_BLOCK table entries that stay in
    cache."""
    bits = [[np.flatnonzero((E[:, v] >> b) & 1) for v in range(E.shape[1])]
            for b in range(int(E.max(initial=0)).bit_length())]
    block = inner_block(_POLY_BLOCK, len(E))

    def evaluate(Y):
        out = np.empty((len(Y), C.shape[1]))
        for s in range(0, len(Y), block):
            S = np.ascontiguousarray(Y[s : s + block].T)
            M = np.ones((len(E), S.shape[1]))
            for b, rows in enumerate(bits):
                S = S * S if b else S
                for v, r in enumerate(rows):
                    M[r] *= S[v]
            np.matmul(M.T, C, out=out[s : s + block])
        return out.reshape((len(Y),) + shape)

    return evaluate


def polynomial(n, terms, label=None):
    """Restriction of a polynomial to the sphere, with exact extension calculus.

    ``terms`` maps exponent tuples to coefficients, e.g. {(2,0,0): 1.0,
    (0,2,0): -1.0} for x1^2 - x2^2.  The ambient representative is the
    polynomial itself; the homogeneous extension of a degree-d monomial
    restriction is |x|^(1-d) times the monomial, which the generic chain rule
    reproduces exactly.  Value, gradient and Hessian are each one coefficient
    matrix, with 1, n and n^2 columns, over its own monomial table; the jet
    evaluates the tables up to the requested order.
    """
    for e in terms:
        if len(e) != n or any(not 0 <= int(k) < 2**63 for k in e):
            raise DomainError(f"bad exponent tuple {tuple(e)}")
    E = np.array([[int(k) for k in e] for e in terms], dtype=np.int64).reshape(-1, n)
    C = np.array([float(c) for c in terms.values()]).reshape(-1, 1)
    tables = []
    for order in range(3):
        if order:
            # d/dx_v (c x^e) = c e_v x^(e - 1_v), in column j*n + v; where
            # e_v = 0 the coefficient is 0, so the clipped exponent never counts
            C = np.einsum("kj,kv,vw->kvjw", C, E, np.eye(n)).reshape(len(E) * n, C.shape[1] * n)
            E = np.maximum(E[:, None] - np.eye(n, dtype=E.dtype), 0).reshape(-1, n)
        keep = C.any(axis=1)  # merge like monomials, drop zero rows
        E, inv = np.unique(E[keep], axis=0, return_inverse=True)
        C = (np.arange(len(E))[:, None] == inv.reshape(-1)) @ C[keep]
        tables.append(_monomial_evaluator(E, C, (n,) * order))
    return SphericalFunction(
        n, lambda Y, order: tuple(t(Y) for t in tables[: order + 1]), label or "poly"
    )


def quadratic_support(M, label=None):
    """sqrt(x^T M x) for symmetric positive definite M (ellipsoid support)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or not np.isfinite(M).all() or not np.allclose(M, M.T):
        raise DomainError("expected a finite symmetric matrix")
    lam = np.linalg.eigvalsh(M)
    if lam[0] <= 0:
        raise DomainError("quadratic form must be positive definite")
    M = 0.5 * (M + M.T)

    def jet(Y, order):
        MY = Y @ M
        h = np.sqrt(np.sum(MY * Y, axis=1))
        if order == 0:
            return (h,)
        if order == 1:
            return h, MY / h[:, None]
        return h, MY / h[:, None], M[None, :, :] / h[:, None, None] - (
            MY[:, :, None] * MY[:, None, :]
        ) / (h ** 3)[:, None, None]

    return SphericalFunction(n, jet, label or "quadratic_support")


def bump(n, u0, kappa, label=None):
    """exp(-kappa |u - u0|^2) on the sphere; decays smoothly, no hard cutoff.

    On unit vectors |u - u0|^2 = 2 - 2<u, u0>, so the ambient representative
    exp(2 kappa (<x, u0> - 1)) is entire and restricts correctly.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (n,):
        raise DomainError(f"center must have shape ({n},)")
    nrm = np.linalg.norm(u0)
    if abs(nrm - 1.0) > 1e-10:
        raise DomainError("bump center must be a unit vector")
    kappa = float(kappa)
    if kappa <= 0:
        raise DomainError("bump width kappa must be positive")

    def jet(Y, order):
        p = np.exp(2.0 * kappa * (Y @ u0 - 1.0))
        if order == 0:
            return (p,)
        grad = (2.0 * kappa) * p[:, None] * u0[None, :]
        if order == 1:
            return p, grad
        return p, grad, (4.0 * kappa * kappa) * p[:, None, None] * (
            u0[:, None] * u0[None, :]
        )[None, :, :]

    return SphericalFunction(n, jet, label or f"bump(k={kappa:g})")


def combination(coeffs, funcs, label=None):
    """Linear combination sum_j coeffs[j] * funcs[j].

    The jet adds the parts' jets one part at a time, so at most one part's
    Hessian stack is alive beside the running sum."""
    if len(coeffs) != len(funcs) or not funcs:
        raise DomainError("need matching, nonempty coefficient/function lists")
    n = funcs[0].n
    if any(f.n != n for f in funcs):
        raise DomainError("combination: mixed ambient dimensions")
    coeffs = [float(c) for c in coeffs]

    def jet(Y, order):
        out = [coeffs[0] * d for d in funcs[0]._jet(Y, order)]
        for c, f in zip(coeffs[1:], funcs[1:]):
            for k, d in enumerate(f._jet(Y, order)):
                out[k] += c * d
        return tuple(out)

    lab = label or "(" + " + ".join(f"{c:g}*{f.label}" for c, f in zip(coeffs, funcs)) + ")"
    return SphericalFunction(n, jet, lab)


def compose_orthogonal(f, R, label=None):
    """u -> f(R u) for an orthogonal matrix R."""
    R = np.asarray(R, dtype=float)
    n = f.n
    if R.shape != (n, n) or not np.allclose(R @ R.T, np.eye(n), atol=1e-10):
        raise DomainError("expected an orthogonal matrix")

    def jet(Y, order):
        out = list(f._jet(Y @ R.T, order))
        if order >= 1:
            out[1] = out[1] @ R
        if order == 2:
            out[2] = R.T @ out[2] @ R
        return tuple(out)

    return SphericalFunction(n, jet, label or f"{f.label}∘R")


# -- tangent frames and Q matrices ------------------------------------------


def frames(U):
    """Deterministic orthonormal tangent frames at unit vectors, (m,n) -> (m,n,n-1).

    Columns are the first n-1 columns of the Householder reflection through
    w = u + sign(u_n) e_n, which carries e_n to -sign(u_n) u.  Branching on the
    hemisphere sign keeps |w| bounded away from zero on both hemispheres, so
    the frame is well-conditioned everywhere including u = +-e_n.
    """
    U2, single = _as_points(np.asarray(U, dtype=float), np.asarray(U).shape[-1])
    n = U2.shape[1]
    if np.any(np.abs(np.sqrt(np.einsum("mi,mi->m", U2, U2)) - 1.0) > 1e-8):
        raise DomainError("frames: nodes must be unit vectors")
    W = U2.copy()
    W[:, -1] += np.where(U2[:, -1] >= 0.0, 1.0, -1.0)
    coef = 2.0 * W[:, : n - 1] / np.einsum("mi,mi->m", W, W)[:, None]
    E = np.einsum("ma,mb->mab", W, coef)
    np.subtract(np.eye(n)[:, : n - 1], E, out=E)
    return E[0] if single else E


def tangent_frame(u):
    """Frame at a single point, shape (n, n-1)."""
    return frames(np.asarray(u, dtype=float))


def q_matrix(f, u, frame=None):
    """Tangent-frame Hessian form of the homogeneous extension at a point.

    Equals (spherical Hessian of f) + f * Id in the given orthonormal frame;
    for a support function this is the positive-definite matrix whose
    eigenvalues are the principal curvature radii.  One row of q_batch.
    """
    u = np.asarray(u, dtype=float)
    E = tangent_frame(u) if frame is None else np.asarray(frame, dtype=float)
    return q_batch(f, u[None, :], E[None])[0]


def tangent_jet(f, U, E, first=0):
    """Extension gradient and Hessian form of f at a node block U
    with frames E, (m, n) and (m, n-1, n-1), from one order-2 jet.  Raises
    EvaluationError naming node first + k if the form at U[k] is not finite."""
    r, Y, c, (_, g, H) = f._jet_parts(U, 2)
    diag = np.arange(E.shape[-1])
    Q = E.transpose(0, 2, 1) @ H @ E
    Q /= r[:, None, None]
    Q[:, diag, diag] += (c / r)[:, None]
    finite = np.isfinite(Q).reshape(len(Q), -1).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise EvaluationError(
            f"non-finite Hessian form of {f.label} at node {first + bad}: u={U[bad]}"
        )
    Q += Q.transpose(0, 2, 1)  # numpy buffers the overlapping operand
    Q *= 0.5
    return g + c[:, None] * Y, Q


def q_batch(f, U, frame_stack=None, first=0):
    """q_matrix over many nodes: (m, n) -> (m, n-1, n-1).

    Frame columns are orthogonal to u, so every radial term of the extension
    Hessian drops out and the form is sym(E^T Hess phi(y) E)/r +
    (phi(y) - <grad phi(y), y>)/r * I with y = u/|u|, r = |u| (tangent_jet).
    The nodes go through in node blocks, each with its own frames unless
    frame_stack is given, into one preallocated stack.  Raises
    EvaluationError naming the first non-finite form's node, plus first.
    """
    U = np.asarray(U, dtype=float)
    N = U.shape[-1] - 1
    Q = np.empty((len(U), N, N))
    for b in node_blocks(len(U)):
        E = frames(U[b]) if frame_stack is None else frame_stack[b]
        Q[b] = tangent_jet(f, U[b], E, first + b.start)[1]
    return Q


# -- quadrature grids --------------------------------------------------------


class BlockNodes:
    """The nodes of a product grid, built on request from its axis rules:
    nodes[s:e] and nodes[k] build only those nodes (build takes an index
    array), and np.asarray(nodes) builds them all."""

    def __init__(self, m, build):
        self._m, self._build = m, build

    def __len__(self):
        return self._m

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self[key : (key + 1) or None][0]
        if isinstance(key, slice):
            r = range(self._m)[key]
            return self._build(np.arange(r.start, r.stop, r.step))
        return np.asarray(self)[key]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:], dtype=dtype)


@dataclass(eq=False)
class QuadratureGrid:
    """Nodes and positive weights for integration over S^{n-1}.

    Weights sum to the total sphere area (exactly by construction for the
    equal-weight families).  Each constructor hands the grid its
    half-resolution rule; ``coarse()`` builds it once, and ``paired()``
    reports |fine - coarse| as its error estimate, which callers
    conventionally assert against 5x.  The product grids (cap_grid,
    panel_grid) build a block's nodes only when ``nodes[b]`` asks for them
    (BlockNodes).  Every integral sums each row one node block at a time.

    Grids hash by identity and cache no per-node quantity; ``grid_id`` is a
    label for reports and never a cache key.
    """

    n: int
    nodes: np.ndarray | BlockNodes
    weights: np.ndarray
    kind: str
    seed: int = 0
    coarse_rule: Callable[[], QuadratureGrid] | None = field(default=None, repr=False)
    _coarse: QuadratureGrid | None = field(default=None, init=False, repr=False)

    @property
    def grid_id(self):
        return f"{self.kind}:n{self.n}:m{len(self.nodes)}:s{self.seed}"

    def __len__(self):
        return len(self.nodes)

    def frames(self):
        """Tangent frames at every node, (m, n, n-1), formed on each call: the
        node pipeline forms them one node block at a time instead."""
        return frames(self.nodes)

    def coarse(self):
        """The half-resolution grid of the same family, built on first use."""
        if self._coarse is None:
            cg = None if self.coarse_rule is None else self.coarse_rule()
            if cg is None or len(cg) >= len(self):
                raise DomainError(f"grid {self.grid_id} has no smaller half-resolution rule")
            self._coarse = cg
        return self._coarse

    def walk_blocks(self, per_block, rows, least=0):
        """(sums, smallest) of the values (rows + least, len) that per_block(b)
        gives at the nodes self.nodes[b], one block at a time: the first rows
        rows summed as weighted_sum sums them, and each trailing row's least."""
        sums, smallest = np.zeros(rows), np.full(least, math.inf)
        for b in node_blocks(len(self)):
            vals = per_block(b)
            sums += self._block_sums(vals[:rows], b)
            smallest = np.minimum(smallest, np.min(vals[rows:], axis=1))
        return sums, smallest

    def weighted_sum(self, vals):
        """Quadrature sum over the node axis (the last) of per-node values:
        each row on its own, one node block at a time, as walk_blocks sums."""
        vals = np.ascontiguousarray(vals, dtype=float)
        if vals.shape[-1:] != (len(self),):
            raise DomainError("integrand must give one value per node")
        rows = vals.reshape(-1, len(self))
        out = sum(self._block_sums(rows[:, b], b) for b in node_blocks(len(self)))
        return float(out[0]) if vals.ndim == 1 else out.reshape(vals.shape[:-1])

    def _block_sums(self, vals, b):
        """One dot product per row of the values at the nodes b with their
        weights; raises EvaluationError naming the first non-finite node."""
        finite = np.isfinite(vals)
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=0)))
            u = self.nodes[b][bad]
            raise EvaluationError(f"integrand not finite at node {b.start + bad}: u={u}")
        return np.array([row @ self.weights[b] for row in vals])

    def paired(self, integral):
        """(I(grid), |I(grid) - I(coarse)|) for integral(g), a scalar or array:
        the self-calibrating error estimate, asserted against at ~5x."""
        fine = integral(self)
        return fine, abs(fine - integral(self.coarse()))


def _spiral_nodes(m):
    # golden-angle spiral: equal-area bands in z, azimuth stepped by the
    # golden angle; deterministic and uniformly well-spread
    k = np.arange(m)
    z = 1.0 - (2.0 * k + 1.0) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * math.pi * k / (_GOLDEN * _GOLDEN)
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def make_grid(n, resolution, seed=0):
    """Standard grid families.

    n == 2: uniform angles (deterministic, trapezoidal — spectrally accurate);
    n == 3: deterministic equal-area spiral;
    n >= 4: seeded uniform Monte Carlo with equal weights.
    """
    if n < 2:
        raise DomainError("make_grid: dimension must be >= 2")
    m = int(resolution)
    if m < 2:
        raise DomainError("make_grid: resolution must be >= 2")
    if m * n > np.iinfo(np.intp).max // 8:
        raise DomainError(f"make_grid: {m} nodes in dimension {n} do not fit in an array")
    if n == 2:
        th = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
    elif n == 3:
        nodes = _spiral_nodes(m)
    else:
        rng = np.random.default_rng(seed)
        nodes = rng.normal(size=(m, n))
        nodes /= np.linalg.norm(nodes, axis=1)[:, None]
        return _mc_grid(nodes, seed)
    return QuadratureGrid(
        n,
        nodes,
        np.full(m, sphere_area(n) / m),
        "circle" if n == 2 else "spiral",
        seed,
        lambda: make_grid(n, max(2, m // 2), seed),
    )


def _mc_grid(nodes, seed):
    # equal weights on a random sample; the half-resolution rule keeps the
    # first half of the sample
    m, n = nodes.shape
    return QuadratureGrid(
        n,
        nodes,
        np.full(m, sphere_area(n) / m),
        "mc",
        seed,
        lambda: _mc_grid(nodes[: max(2, m // 2)], seed),
    )


def latitude_grid(nz, naz):
    """Gauss-Legendre x uniform-azimuth tensor grid on S^2.

    Much better than the spiral for integrands with polar caps or equatorial
    bands (degenerating-body densities); deterministic.
    """
    nz, naz = int(nz), int(naz)
    if nz < 2 or naz < 2:
        raise DomainError("latitude_grid: need nz, naz >= 2")
    z, wz = np.polynomial.legendre.leggauss(nz)
    th = 2.0 * math.pi * (np.arange(naz) + 0.5) / naz
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    nodes = np.empty((nz * naz, 3))
    weights = np.empty(nz * naz)
    for jz in range(nz):
        sl = slice(jz * naz, (jz + 1) * naz)
        nodes[sl, 0] = r[jz] * np.cos(th)
        nodes[sl, 1] = r[jz] * np.sin(th)
        nodes[sl, 2] = z[jz]
        weights[sl] = wz[jz] * (2.0 * math.pi / naz)
    return QuadratureGrid(
        3, nodes, weights, "latitude", 0, lambda: latitude_grid(max(2, nz // 2), max(2, naz // 2))
    )


def cap_grid(u0, theta_max, radial, transverse, seed=0):
    """Geodesic-polar product grid on the cap {angle(u, u0) <= theta_max}.

    Gauss-Legendre nodes in the polar angle (weighted by sin^{n-2}) times a
    standard grid on the transverse sphere S^{n-2} embedded in the hyperplane
    through u0.  The radial rule is spectrally accurate, which matters for
    integrands with large radially-cancelling structure — e.g. the density
    change under a bump perturbation, whose negative core and positive
    shoulder each dwarf their sum.  Equal-weight global grids cannot resolve
    that cancellation at any affordable node count; this grid can.

    Weights sum to the cap area, not the sphere area: the grid exists for
    integrands that are (effectively) supported inside the cap.  theta_max
    may be anything up to pi, unlike the graph-chart panel_grid.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.shape[0]
    if n < 3:
        raise DomainError("cap_grid: dimension must be >= 3")
    if abs(np.linalg.norm(u0) - 1.0) > 1e-8:
        raise DomainError("cap_grid: center must be a unit vector")
    if not 0.0 < theta_max <= math.pi:
        raise DomainError("cap_grid: need 0 < theta_max <= pi")
    radial = int(radial)
    transverse = int(transverse)
    if radial < 2 or transverse < 2:
        raise DomainError("cap_grid: need radial, transverse >= 2")
    x, wx = np.polynomial.legendre.leggauss(radial)
    theta = 0.5 * theta_max * (x + 1.0)
    w_theta = 0.5 * theta_max * wx * np.sin(theta) ** (n - 2)
    tg = make_grid(n - 1, transverse, seed)
    B = tangent_frame(u0)  # (n, n-1): orthonormal basis of the hyperplane u0^perp
    omega = tg.nodes @ B.T  # (m, n) unit vectors orthogonal to u0
    cos, sin, mt = np.cos(theta), np.sin(theta), len(omega)

    def build(k):  # node k is polar node k // mt at transverse node k % mt
        j, t = np.divmod(k, mt)
        return cos[j][:, None] * u0[None, :] + sin[j][:, None] * omega[t]

    weights = (w_theta[:, None] * tg.weights[None, :]).reshape(-1)
    return QuadratureGrid(
        n,
        BlockNodes(len(weights), build),
        weights,
        "cap",
        seed,
        lambda: cap_grid(u0, theta_max, max(2, radial // 2), max(2, transverse // 2), seed),
    )


def _composite_gauss_axis(breaks, order):
    """Gauss-Legendre rule of the given order on every interval between
    consecutive breakpoints; returns (nodes, weights) covering
    [breaks[0], breaks[-1]]."""
    breaks = np.asarray(breaks, dtype=float)
    x, w = np.polynomial.legendre.leggauss(int(order))
    half = 0.5 * (breaks[1:] - breaks[:-1])
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def panel_grid(u0, frame, breaks, order=6):
    """Composite Gauss-Legendre tensor grid over a graph patch around u0.

    breaks is one sorted breakpoint array per chart axis; every panel between
    consecutive breakpoints carries a Gauss-Legendre rule of the given order.
    Aligning panels with the polynomial-piece boundaries of a piecewise-
    polynomial integrand factor makes the rule exact (or nearly so) on each
    piece, so the quadrature error comes only from the slowly varying
    geometric factors.  For oscillations built from piecewise-polynomial
    profiles this beats a uniform midpoint grid of equal size by orders of
    magnitude — the regime this grid exists for.  Points are
    u = sum_a x_a E_a + sqrt(1-|x|^2) u0; the weights carry the graph area
    element and sum to the patch area, so integrands must be supported inside
    the patch.  Order 1 on uniform breakpoints is the midpoint rule.  The
    half-resolution rule drops one Gauss order, whose error then dominates
    the pair and serves as the estimate, as in nested Gauss practice.
    """
    u0 = np.asarray(u0, dtype=float)
    E = np.asarray(frame, dtype=float)
    n = u0.shape[0]
    d = n - 1
    if len(breaks) != d:
        raise DomainError(f"panel_grid: need {d} breakpoint arrays")
    order = int(order)
    if order < 1:
        raise DomainError("panel_grid: need order >= 1")
    breaks = [np.unique(np.asarray(br, dtype=float)) for br in breaks]
    axes = []
    radius2 = 0.0
    for br in breaks:
        if len(br) < 2:
            raise DomainError("panel_grid: each axis needs >= 2 breakpoints")
        radius2 += max(abs(br[0]), abs(br[-1])) ** 2
        axes.append(_composite_gauss_axis(br, order))
    if radius2 >= 1.0:
        raise DomainError("panel_grid: breakpoint box must fit inside the unit ball")
    shape = tuple(len(x) for x, _ in axes)

    def chart(k):  # node k's axis indices (C order), chart point x and height
        idx = np.unravel_index(k, shape)
        X = np.stack([x[j] for (x, _), j in zip(axes, idx)], axis=-1)
        return idx, X, np.sqrt(1.0 - np.einsum("ma,ma->m", X, X))

    def build(k):
        _, X, h = chart(k)
        return X @ E.T + h[:, None] * u0[None, :]

    weights = np.empty(math.prod(shape))
    for b in node_blocks(len(weights)):
        idx, _, h = chart(np.arange(b.start, b.stop))
        weights[b] = math.prod(w[j] for (_, w), j in zip(axes, idx)) / h
    nodes = BlockNodes(len(weights), build)
    return QuadratureGrid(
        n, nodes, weights, "panel", 0, lambda: panel_grid(u0, E, breaks, max(1, order - 1))
    )
