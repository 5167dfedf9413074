"""P1 finite elements for -div(a grad u) = f with zero Dirichlet data.

States are continuous piecewise-linear (one value per vertex), controls
piecewise-constant (one value per cell).  The stiffness values are
sparse per-mesh operators applied to the coefficient, and a scalar
coefficient a and its tensor a*I give the same matrix bit for bit.

Solver
------
Every state solve goes through ``solve_dirichlet``.  The assembled
matrix is the stiffness on the free vertices alone, its Dirichlet rows
and columns eliminated once per mesh in the assembler's pattern; it is
solved by conjugate gradients preconditioned with a smoothed-aggregation
multigrid V-cycle (Vanek, Mandel and Brezina, 1996), so the iteration
count stays flat as the mesh is refined.  ``cg`` is the module's own
loop, scipy's operation for operation, so it can also stop early on a
``RejectionBound``: a line-search trial whose cost is already known to
reach the accepted one is rejected after a few iterations instead of
being solved to ``rtol`` (``solve_dirichlet`` returns None).  A
``StiffnessAssembler`` is the one per-mesh solver state, and the only
state kept across solves: the free-dof pattern, the operators that
map a coefficient to the matrix's values in it, the aggregation
transfers and the V-cycle's coarse levels live on it.  The first
coarse build aggregates on the way down, each level from the Galerkin
operator just formed and kept for the V-cycle, so every operator is
formed once; later rebuilds reuse those transfers.  A solve builds the
V-cycle's finest level (its smoother weights) from its matrix and frees
it on return.  Each matrix the assembler builds carries it, and
``solve_dirichlet`` takes the Dirichlet mask from there; a matrix built
any other way, or paired with another mask, raises ``ValueError``.

The coarse levels - the Galerkin operators below the finest level,
their smoother weights and the coarsest inverse - are kept with the
stiffness diagonal of the matrix they were built from.  Descent
iterates and line-search trials move the coefficient little, so a
solve rebuilds them from its matrix only when the contrast of the two
diagonals, max(d / d_ref) / min(d / d_ref), exceeds
``_REBUILD_CONTRAST``.  Each ratio d_i / d_ref,i is a weighted mean of
the Rayleigh quotients of the 2x2 pencils (coefficient, reference) of
the cells at vertex i, so this contrast is at most the pencil contrast
M / m, with m K_ref <= K <= M K_ref, and the diagonal is the one the
smoother needs anyway.  Each level smooths with two Jacobi sweeps
before and two after the coarse correction, damped at the two roots of
the degree-2 Chebyshev polynomial on [rho / 10, rho], rho the
Gershgorin bound of the spectrum of diag(A)^-1 A.

Field conventions
-----------------
nodal field        (n_vertices,) float array
cell scalar field  (n_cells,) float array
cell tensor field  (n_cells, 3) float array, columns (a11, a12, a22)
                   of a symmetric 2x2 matrix per cell
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import penalty as pen
from .mesh import Mesh

__all__ = [
    "PointLoad",
    "IllPosedCoefficientError",
    "SolverFailure",
    "StiffnessAssembler",
    "assemble_load",
    "assemble_point_load",
    "LinearSystem",
    "RejectionBound",
    "cg",
    "solve_dirichlet",
    "cell_gradient",
    "grad_norm_sq",
    "compliance",
    "penalty_cost",
    "cost_functional",
]


class PointLoad(NamedTuple):
    """Dirac load; snapped to the nearest mesh vertex on assembly."""

    location: tuple
    magnitude: float = 1.0


class IllPosedCoefficientError(ValueError):
    """Coefficient field is not uniformly elliptic on some cell."""


class SolverFailure(RuntimeError):
    """The linear solver stopped before reaching its tolerance."""


def _tensor_parts(mesh: Mesh, coeff):
    """(a11, a12, a22) of a scalar or tensor coefficient that must be
    finite and positive (definite) on every cell, else
    IllPosedCoefficientError.

    A scalar field gives (a, 0.0, a): a12 is the float 0.0, not a
    column, and a constant is widened to one value per cell.
    """
    coeff = np.asarray(coeff, dtype=float)
    nt = mesh.n_cells
    if coeff.ndim == 0:
        coeff = np.full(nt, float(coeff))
    if coeff.shape == (nt,):
        bad = ~np.isfinite(coeff) | (coeff <= 0.0)
        if bad.any():
            c = int(np.flatnonzero(bad)[0])
            raise IllPosedCoefficientError(
                f"scalar coefficient on cell {c} is {coeff[c]!r}"
            )
        return coeff, 0.0, coeff
    if coeff.shape != (nt, 3):
        raise ValueError(f"coefficient must have shape ({nt},) or ({nt}, 3), "
                         f"got {coeff.shape}")
    a11, a12, a22 = coeff.T
    det = a11 * a22 - a12 * a12
    # column by column: np.isfinite(coeff).all(axis=1) is 10x slower
    finite = np.isfinite(a11) & np.isfinite(a12) & np.isfinite(a22)
    bad = ~finite | (a11 <= 0.0) | (det <= 0.0)
    if bad.any():
        c = int(np.flatnonzero(bad)[0])
        raise IllPosedCoefficientError(
            f"tensor coefficient on cell {c} is not positive definite: "
            f"{np.array([a11[c], a12[c], a22[c]])}"
        )
    return a11, a12, a22


def _outer(x, y):
    """Per cell, the 3x3 products x_i y_j of two (n_cells, 3) fields."""
    return x[:, :, None] * y[:, None, :]


class StiffnessAssembler:
    """Per-mesh assembly and Dirichlet-solver state.

    ``free`` lists the free vertices in the order of the matrix's rows.
    The stiffness values are linear in the coefficient: a per-mesh
    operator S, one row per slot of the free-dof pattern and one column
    per cell, holds area g_i.g_j for each local entry (i, j) of a cell
    in a free row and column, and a scalar coefficient a gives the
    values S a (Cuvelier, Japhet and Scarella, BIT 56, 2016).  A tensor,
    m I + [[d, a12], [a12, -d]] with m, d = (a11 +- a22) / 2, gives
    S m + (S_d d + S_12 a12); S_d and S_12 are built on the first one.
    For a*I, m = a and d = a12 = 0 exactly, so a scalar and its
    isotropic tensor give the same matrix bit for bit.  Each operator
    row sums its cells in cell order, so both slots of an entry sum the
    same products and the matrix is symmetric bit for bit.

    What persists across solves lives here and nowhere else: the
    aggregation transfers, built with the first coarse levels and
    reused by every later rebuild, and the V-cycle's coarse levels with
    the stiffness diagonal of the matrix they were built from, which
    ``preconditioner`` rebuilds only when a matrix's diagonal has moved
    farther than ``_REBUILD_CONTRAST`` from that one, a contrast never
    above that of the cells' coefficient pencils.  A solve builds its
    finest level and frees it on return.  So the solves of one
    assembler, and hence its results in the last digits, depend on the
    sequence of coefficients it has solved with; a fresh assembler
    repeats them bit for bit.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        free = ~mesh.boundary
        n = int(np.count_nonzero(free))
        # vertices by free index, every Dirichlet vertex as n
        tri = np.where(free, np.cumsum(free) - 1, n)[mesh.triangles]
        # the (row, col) key of local entry (i, j) of cell c, at 9 c + 3 i
        # + j; in a Dirichlet row or column, the largest key, (n, n)
        keys = tri[:, :, None] * (n + 1) + tri[:, None, :]
        dirichlet = tri == n
        keys[dirichlet[:, :, None] | dirichlet[:, None, :]] = n * (n + 2)
        del tri, dirichlet
        keys = keys.ravel()
        # the entries in the CSR order of their keys, each key's cells in
        # cell order (a stable sort), less the Dirichlet ones at the end
        entries = np.argsort(keys, kind="stable")
        keys.sort()
        cut = np.searchsorted(keys, n * (n + 2))
        entries, keys = entries[:cut], keys[:cut]
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        pattern = keys[starts]
        del keys, first
        self.free = np.flatnonzero(free)
        # every matrix shares this pattern
        self._indptr = np.searchsorted(
            pattern, np.arange(n + 1) * (n + 1)).astype(np.int32)
        self._indices = (pattern % (n + 1)).astype(np.int32)
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        # the operators' structure: each slot's first entry, and each
        # entry's cell and local (i, j) as 3 i + j
        self._starts = np.append(starts, cut).astype(np.int32)
        self._cells = (entries // 9).astype(np.int32)
        self._local = (entries % 9).astype(np.uint8)
        del entries, starts
        gx, gy = np.moveaxis(mesh.cell_basis_gradients, 2, 0)
        form = _outer(gx, gx)
        form += _outer(gy, gy)
        self._operator = self._with_structure(form)
        self._transfers = None  # (P, R) per level, from the first build
        # the V-cycle's coarse levels, ([(Galerkin operator, smoother
        # weights) per level >= 1], coarsest inverse), and the diagonal
        # of the matrix they were built from
        self._coarse = None
        self._reference = None

    def _with_structure(self, form):
        """The operator of the assembler's structure whose entry for a
        cell's local (i, j) is the cell's area times ``form``, an
        (n_cells, 3, 3) array it overwrites."""
        form *= self.mesh.cell_areas[:, None, None]
        flat = self._cells.astype(np.intp)
        flat *= 9
        flat += self._local
        return sp.csr_matrix((form.ravel()[flat], self._cells, self._starts),
                             shape=(self._indices.size, self.mesh.n_cells))

    @functools.cached_property
    def _tensor_operators(self):
        """(S_d, S_12), built on the first tensor coefficient, so scalar
        runs never hold them."""
        gx, gy = np.moveaxis(self.mesh.cell_basis_gradients, 2, 0)
        S_d = _outer(gx, gx)
        S_d -= _outer(gy, gy)
        S_12 = _outer(gx, gy)
        S_12 += _outer(gy, gx)
        return self._with_structure(S_d), self._with_structure(S_12)

    def assemble(self, coeff: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix on the free (non-Dirichlet) vertices, in the
        order of ``free``, carrying this assembler as its ``assembler``
        attribute for ``solve_dirichlet``.  The matrix keeps nothing of
        the coefficient, so the caller may reuse its array."""
        a11, a12, a22 = _tensor_parts(self.mesh, coeff)
        if np.ndim(a12) == 0:  # a scalar field: a12 is 0.0
            vals = self._operator @ a11
        else:
            S_d, S_12 = self._tensor_operators
            vals = (self._operator @ ((a11 + a22) * 0.5)
                    + (S_d @ ((a11 - a22) * 0.5) + S_12 @ a12))
        n = self.free.size
        K = sp.csr_matrix((vals, self._indices, self._indptr), shape=(n, n))
        K.assembler = self
        return K

    def preconditioner(self, K: sp.csr_matrix):
        """Symmetric V-cycle for the assembled matrix K, as the SPD map
        b -> M^-1 b, built afresh on every call.

        The finest level is K with its smoother weights.  The coarse
        levels are the assembler's: built with the transfers from the
        first matrix, then rebuilt with the kept transfers from a matrix
        whose diagonal is more than ``_REBUILD_CONTRAST`` apart from the
        diagonal of the one they were built from (``_contrast``, at most
        the cells' pencil contrast), and kept otherwise.  A build that
        raises stores nothing, and the next matrix builds again.
        """
        # before any coarse build: a nonpositive diagonal and weights
        # that overflow raise here
        diag, rho = _gershgorin(K)
        weights = _chebyshev_weights(diag, rho)
        # with no coarse level the coarsest inverse is K's own
        if (self._coarse is None or not self._transfers
                or _contrast(diag, self._reference) > _REBUILD_CONTRAST):
            self._coarse = None  # freed before the new one is built
            transfers, levels, inverse = _coarse_levels(K, self._transfers)
            self._transfers, self._coarse = transfers, (levels, inverse)
            self._reference = diag
        coarse_levels, inverse = self._coarse
        levels = [(K, weights)] + coarse_levels
        transfers = self._transfers

        def vcycle(b):
            return _vcycle(levels, transfers, inverse, b, 0)

        return vcycle


def assemble_point_load(mesh: Mesh, location, magnitude: float = 1.0):
    """Unit-style point load snapped to the nearest vertex.

    The location must lie inside the triangulated domain; ties in the
    nearest-vertex search resolve to the lowest vertex index.  A load
    that snaps to a Dirichlet vertex is rejected, since the elimination
    of the boundary values would drop it.
    """
    loc = np.asarray(location, dtype=float)
    if loc.shape != (2,):
        raise ValueError(f"location must be a 2-point, got {location!r}")
    # containment: barycentric coordinates nonnegative in some cell
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    rhs = loc[None, :] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rhs[:, 1] - d1[:, 1] * rhs[:, 0]) / det
    tol = 1e-12
    inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)
    if not inside.any():
        raise ValueError(f"point load location {tuple(loc)} is outside the mesh")
    d2v = ((mesh.vertices - loc) ** 2).sum(axis=1)
    idx = int(np.argmin(d2v))  # first minimum = lowest index
    if mesh.boundary[idx]:
        raise ValueError(
            f"point load location {tuple(loc)} snaps to boundary vertex "
            f"{idx}, where the Dirichlet condition removes it"
        )
    b = np.zeros(mesh.n_vertices)
    b[idx] = magnitude
    return b


def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector for a constant, nodal, or point source.

    Constant f:  entry i collects f * area/3 from every incident cell.
    Nodal f:     each cell contributes area/3 times its vertex-mean of f.
    PointLoad:   see assemble_point_load.
    """
    if isinstance(f, PointLoad):
        return assemble_point_load(mesh, f.location, f.magnitude)
    tri = mesh.triangles
    third = mesh.cell_areas / 3.0
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        w = third * float(f)
    else:
        f = np.asarray(f, dtype=float)
        if f.shape != (mesh.n_vertices,):
            raise ValueError(
                f"nodal source must have shape ({mesh.n_vertices},), got {f.shape}"
            )
        w = third * f[tri].mean(axis=1)
    return np.bincount(
        tri.ravel(), weights=np.repeat(w, 3), minlength=mesh.n_vertices
    )


@dataclass
class LinearSystem:
    """An assembled free-dof matrix, the load on every vertex and the
    Dirichlet vertex mask; ``solve_dirichlet`` checks them."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary: np.ndarray


class RejectionBound(NamedTuple):
    """Stop a solve once its solution's cost is known to reach ``value``.

    ``value`` is the cost to beat: a line-search trial passes the
    accepted cost less the part of the trial's cost that needs no
    solve.  The cost is w.u for the solution u of K u = b, and ``cg``
    alone turns ``value`` into its stopping limit, in three parts:

    * the cost to beat, ``value``;
    * the margin ``_MARGIN`` |value|, a cushion for rounding and for
      the error of the adjoint estimate;
    * with no ``weight``, the energy slack rtol |b| |x0|.  Then w is
      the load b itself and the estimate is CG's energy 2 b.x - x.K x,
      which never decreases along the iterates and ends at b.x_f +
      x0.r_f for the converged x_f, since PCG keeps r_f orthogonal to
      x_f - x0 (Strakos and Tichy, ETNA 13, 2002); |x0.r_f| is at
      most rtol |b| |x0|, so a stop is certified at any rtol: the
      converged solve's cost reaches ``value`` as well.

    Given the cost weight w and an ``adjoint`` p, the solution of
    K' p = w for a matrix K' near K, the estimate is w.x + p.(b - K x):
    exact for K' = K, close otherwise, and not a bound (Becker and
    Rannacher, Acta Numerica 10, 2001), so the margin alone covers it.
    Both vectors have the load's length.
    """

    value: float
    weight: np.ndarray | None = None
    adjoint: np.ndarray | None = None


# smoothed aggregation: strength-of-connection threshold and the size
# at which coarsening stops and the level is factored densely
_STRENGTH = 0.08
_MAX_COARSE = 300


# the coarse levels are rebuilt once the stiffness diagonal is more than
# this contrast apart from the one they were built from
_REBUILD_CONTRAST = 1.5
# the smoother damps the part [rho / 10, rho] of the spectrum of
# diag(A)^-1 A; the coarse correction takes the rest
_SMOOTH_FLOOR = 0.1


def _galerkin(A, P, R) -> sp.csr_matrix:
    """R A P, averaged with its transpose so it is symmetric bit for bit."""
    Ac = R @ (A @ P)
    return ((Ac + Ac.T) * 0.5).tocsr()


def _gershgorin(A: sp.csr_matrix):
    """(diag(A), rho) with rho Gershgorin-bounding the spectrum of
    diag(A)^-1 A; ``IllPosedCoefficientError`` if diag(A) is not
    positive."""
    diag = A.diagonal()
    if not (diag > 0.0).all():
        i = int(np.flatnonzero(diag <= 0.0)[0])
        raise IllPosedCoefficientError(
            f"nonpositive stiffness diagonal at free index {i}"
        )
    rho = float(np.max(np.add.reduceat(np.abs(A.data), A.indptr[:-1]) / diag))
    return diag, rho


def _chebyshev_weights(diag, rho):
    """(w1, w2): the Jacobi weights 1 / (r diag) at the two roots r of
    the degree-2 Chebyshev polynomial on [rho / 10, rho], theta -+ delta
    cos(pi / 4), for an operator's ``_gershgorin`` (diag, rho); two
    sweeps with them are degree-2 Chebyshev smoothing.  Weights that
    overflow (subnormal stiffness entries) raise ``SolverFailure`` here,
    before CG would run on NaN."""
    theta = 0.5 * (1.0 + _SMOOTH_FLOOR) * rho
    delta = 0.5 * (1.0 - _SMOOTH_FLOOR) * rho
    half = delta * np.cos(0.25 * np.pi)
    with np.errstate(over="ignore", divide="ignore"):
        w = 1.0 / ((theta - half) * diag), 1.0 / ((theta + half) * diag)
    if not np.isfinite(w).all():
        raise SolverFailure("multigrid smoother weights are not finite")
    return w


def _coarse_levels(A: sp.csr_matrix, transfers=None):
    """The V-cycle below A's level: (transfers, [(Galerkin operator,
    smoother weights) per level >= 1], inverse of the coarsest operator).

    Given transfers, the Galerkin operators are formed with them.
    Given none, each level larger than ``_MAX_COARSE`` is aggregated
    from the operator just formed (``_transfer``), on the way down, and
    the new transfers are returned; the ones given are never modified.
    """
    ops = [A]
    if transfers is None:
        transfers = []
        while ops[-1].shape[0] > _MAX_COARSE:
            transfers.append(_transfer(ops[-1]))
            ops.append(_galerkin(ops[-1], *transfers[-1]))
    else:
        for P, R in transfers:
            ops.append(_galerkin(ops[-1], P, R))
    try:
        L = np.linalg.cholesky(ops[-1].toarray())
    except np.linalg.LinAlgError:
        raise SolverFailure(
            "coarsest multigrid operator is not positive definite"
        ) from None
    # the coarsest inverse from its Cholesky factor; L^-T L^-1 is formed
    # as one symmetric product
    Linv = np.linalg.inv(L)
    with np.errstate(over="ignore"):
        inverse = Linv.T @ Linv
    if not np.isfinite(inverse).all():
        raise SolverFailure("coarsest multigrid inverse is not finite")
    levels = [(Ac, _chebyshev_weights(*_gershgorin(Ac))) for Ac in ops[1:-1]]
    return transfers, levels, inverse


def _contrast(diag, reference) -> float:
    """max r / min r for the ratios r = diag / reference of two
    stiffness diagonals.

    Each r_i is a weighted mean, over the cells at vertex i, of the
    Rayleigh quotients g.A g / g.B g of the cells' pencils (A, B) of the
    two coefficients, g the cell's basis gradient of vertex i; so this
    contrast never exceeds the pencil contrast, max lam / min lam over
    the cells.  A ratio that overflows (subnormal stiffness entries)
    gives an infinite contrast, which rebuilds.
    """
    with np.errstate(over="ignore", divide="ignore"):
        ratio = diag / reference
        return float(np.max(ratio) / np.min(ratio))


def _vcycle(levels, transfers, coarse, b, level):
    """x ~ A^-1 b: two Jacobi sweeps with the Chebyshev weights (w1, w2)
    before the coarse correction and two with (w2, w1) after it, so the
    cycle is symmetric; the coarsest level is solved exactly by its
    inverse."""
    if level == len(transfers):
        return coarse @ b
    A, (w1, w2) = levels[level]
    P, R = transfers[level]
    x = w1 * b
    x += w2 * (b - A @ x)
    x += P @ _vcycle(levels, transfers, coarse, R @ (b - A @ x), level + 1)
    x += w2 * (b - A @ x)
    x += w1 * (b - A @ x)
    return x


def _neighbour_max(indptr, indices, values):
    """Per row, the max of ``values`` over the row's columns."""
    return np.maximum.reduceat(values[indices], indptr[:-1])


def _aggregates(A: sp.csr_matrix) -> np.ndarray:
    """Aggregate index of every row of A.

    Roots form a distance-2 maximal independent set of the strength
    graph (|a_ij| >= theta sqrt(a_ii a_jj), self loops kept), chosen in
    rounds by the largest key among undecided rows within distance 2;
    the key is a fixed bijective hash of the row index, so the result is
    deterministic and needs no coordinates.  Each root takes its
    neighbours, and each remaining row joins the neighbouring aggregate
    it is most strongly connected to (ties: the largest-numbered).
    """
    n = A.shape[0]
    diag = A.diagonal()
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
    strong = (rows == A.indices) | (
        np.abs(A.data) >= _STRENGTH * np.sqrt(diag[rows] * diag[A.indices])
    )
    indices = A.indices[strong]
    weight = np.abs(A.data[strong])
    rows = rows[strong]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])

    def ring2(values):
        return _neighbour_max(indptr, indices,
                              _neighbour_max(indptr, indices, values))

    selected = np.int64(1) << 40
    key = ((np.arange(n, dtype=np.uint64) * np.uint64(2654435761))
           & np.uint64(0xFFFFFFFF)).astype(np.int64)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        near = ring2(key)
        key[undecided & (near == selected)] = -1  # a root within distance 2
        key[undecided & (near == key)] = selected
        undecided = (key >= 0) & (key < selected)
    roots = key == selected
    root_id = np.full(n, -1, dtype=np.int64)
    root_id[roots] = np.arange(int(roots.sum()))
    agg = _neighbour_max(indptr, indices, root_id)
    # the rest join the aggregate they are most strongly connected to
    w = np.where(agg[indices] >= 0, weight, -1.0)
    best = np.maximum.reduceat(w, indptr[:-1])
    pick = np.where(w == best[rows], agg[indices], -1)
    return np.where(agg >= 0, agg, np.maximum.reduceat(pick, indptr[:-1]))


def _transfer(A: sp.csr_matrix):
    """(P, R) from A to the next level: A's aggregates, the tentative
    piecewise-constant prolongator smoothed once by damped Jacobi with
    omega = 4 / (3 rho), so it contracts in energy.  Only R is stored;
    P is its transpose, a CSC view of the same arrays."""
    n = A.shape[0]
    agg = _aggregates(A)
    nc = int(agg.max()) + 1
    if 2 * nc > n:
        raise SolverFailure(
            f"aggregation could not halve a level of {n} unknowns"
        )
    T = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, nc))
    diag, rho = _gershgorin(A)
    P = (T - sp.diags((4.0 / (3.0 * rho)) / diag) @ (A @ T)).tocsr()
    R = P.T.tocsr()
    return R.T, R


# cg's info when the solve stopped on its rejection bound
_REJECTED = -1
# a bound's margin, relative to its value (see ``RejectionBound``);
# margins of 1e-10 and 1e-8 give the same outputs on the
# acceptance-size runs
_MARGIN = 1e-9
# solve_dirichlet's default relative residual; the scalar descents
# never solve tighter than this
_RTOL = 1e-10


def cg(A, b, x0=None, *, rtol, maxiter, M, callback=None, bound=None):
    """Preconditioned conjugate gradients for the SPD system A x = b.

    The loop of scipy 1.17's ``scipy.sparse.linalg.cg``, operation for
    operation, so x, info and every iterate handed to ``callback``
    match it bit for bit: returns (x, 0) once ||b - A x|| < rtol ||b||
    and (x, maxiter) when the iterations run out.  M is the
    preconditioner as a callable r -> M^-1 r.

    Given a ``RejectionBound`` on A's unknowns, each iteration first
    tests the convergence, then the bound: (x, ``_REJECTED``) once the
    estimate reaches bound.value + ``_MARGIN`` |bound.value|, plus
    rtol |b| |x0| for the energy, the early-stop contract that
    ``RejectionBound`` states.  The energy c(x) = b.x + x.r costs two
    dot products at the start and none after, since it grows by
    alpha rho per step; the adjoint estimate w.x + p.r costs two per
    iteration.
    """
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return b.copy(), 0
    atol = rtol * float(bnorm)
    r = b - A @ x if x.any() else b.copy()
    energy = None
    if bound is not None:
        limit = bound.value + _MARGIN * abs(bound.value)
        if bound.weight is None:
            energy = np.dot(b, x) + np.dot(x, r)
            limit += atol * np.linalg.norm(x)
    rho_prev, p = None, None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        if bound is not None:
            estimate = energy if energy is not None else (
                np.dot(bound.weight, x) + np.dot(bound.adjoint, r))
            if estimate >= limit:
                return x, _REJECTED
        z = M(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        if energy is not None:
            energy += alpha * rho
        rho_prev = rho
        if callback:
            callback(x)
    return x, maxiter


def solve_dirichlet(system: LinearSystem, rtol: float = _RTOL,
                    x0: np.ndarray | None = None,
                    bound: RejectionBound | None = None):
    """Solve with zero Dirichlet values on the assembled free-dof matrix.

    The matrix must come from a ``StiffnessAssembler``: the Dirichlet
    mask is its mesh boundary, and the matrix is the stiffness on the
    free vertices only, its Dirichlet rows and columns eliminated once
    per mesh by the assembler's pattern.  The load, ``x0`` and a
    bound's vectors are on all vertices; their free entries form the
    system, which is solved by conjugate gradients (``cg``) down to a
    relative residual of ``rtol``, and the boundary values are set to
    exactly 0.0.  The preconditioner is a smoothed-aggregation
    multigrid V-cycle (``StiffnessAssembler.preconditioner``).  What
    persists lives on the assembler: its coarse levels are kept from an
    earlier matrix whose stiffness diagonal is within
    ``_REBUILD_CONTRAST`` of this one's, max(d / d_ref) / min(d / d_ref),
    a contrast at most that of the cells' coefficient pencils, and
    rebuilt from this matrix otherwise.  The V-cycle's
    finest level is built by this solve and freed on return.

    Returns the solution, or None when a ``bound`` is given and CG's
    estimate of the solution's cost reaches it (a rejection, not a
    failure).  The set-up runs, and raises, as without a bound.

    Raises
    ------
    ValueError
        If ``rtol`` is not in (0, inf), the matrix has no assembler or
        not its pattern, the mask is not the boundary of the assembler's
        mesh, or the load, ``x0`` or a vector of the bound does not
        have one entry per vertex of that mesh, or a nonfinite one.
    SolverFailure
        If CG runs out of iterations (the message reports the achieved
        relative residual), or meets ``rtol`` on its updated residual
        while the true one is above 1.01 ``rtol`` (a target below the
        attainable accuracy), or if the multigrid set-up
        fails: a level that aggregation cannot halve, a coarsest
        operator that is not positive definite, or an overflow.
    IllPosedCoefficientError
        If the matrix has a nonpositive diagonal entry.
    """
    if not 0.0 < rtol < np.inf:
        raise ValueError(f"rtol must be in (0, inf), got {rtol!r}")
    K = system.matrix
    asm = getattr(K, "assembler", None)
    if asm is None:
        raise ValueError("matrix was not built by a StiffnessAssembler")
    if not (np.array_equal(K.indptr, asm._indptr)
            and np.array_equal(K.indices, asm._indices)):
        raise ValueError("matrix pattern differs from its assembler's")
    if not np.array_equal(system.boundary, asm.mesh.boundary):
        raise ValueError("Dirichlet mask is not the matrix's mesh boundary")
    n = asm.mesh.n_vertices
    vectors = [("load", system.rhs), ("x0", x0)]
    if bound is not None:
        if (bound.weight is None) != (bound.adjoint is None):
            raise ValueError("a bound takes a weight and an adjoint together")
        vectors += [("weight", bound.weight), ("adjoint", bound.adjoint)]
    for name, v in vectors:
        if v is not None and np.shape(v) != (n,):
            raise ValueError(
                f"{name} must have shape ({n},), got {np.shape(v)}"
            )
        if v is not None and not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    free = asm.free
    b = system.rhs[free]
    u = np.zeros(n)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return u
    M = asm.preconditioner(K)
    x_init = x0[free] if x0 is not None else None
    if bound is not None and bound.weight is not None:
        bound = bound._replace(weight=bound.weight[free],
                               adjoint=bound.adjoint[free])
    x, info = cg(K, b, x0=x_init, rtol=rtol, M=M, maxiter=20 * K.shape[0],
                 bound=bound)
    if info == _REJECTED:
        return None
    res = float(np.linalg.norm(b - K @ x)) / bnorm
    if info != 0:
        raise SolverFailure(
            f"CG stopped with info={info}, relative residual {res:.3e} "
            f"(target {rtol:.1e})"
        )
    if res > rtol * 1.01:
        raise SolverFailure(
            f"CG met rtol {rtol:.1e} on its updated residual, but the true "
            f"relative residual is {res:.3e}: the target is below the "
            "attainable accuracy"
        )
    u[free] = x
    return u


def cell_gradient(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """(n_cells, 2) gradient of a P1 field, constant per cell."""
    return np.einsum("ci,cid->cd", u[mesh.triangles], mesh.cell_basis_gradients)


def grad_norm_sq(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Per-cell |grad u|^2 of a P1 field."""
    g = cell_gradient(mesh, u)
    return g[:, 0] ** 2 + g[:, 1] ** 2


def compliance(mesh: Mesh, f, u: np.ndarray) -> float:
    """int f u, evaluated with the load quadrature so it equals b.u."""
    return float(assemble_load(mesh, f) @ u)


def penalty_cost(mesh: Mesh, coeff: np.ndarray, penalty) -> float:
    """int psi(a), psi the penalty's; ValueError when a cell of the
    coefficient lies outside the penalty domain (infinite cost)."""
    vals = pen.psi_eval(penalty, np.asarray(coeff, dtype=float), strict=False)
    if not np.isfinite(vals).all():
        c = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(
            f"infinite penalty cost: coefficient {coeff[c]!r} on cell {c} "
            "is outside the penalty domain"
        )
    return float(mesh.cell_areas @ vals)


def cost_functional(mesh: Mesh, load: np.ndarray, u: np.ndarray,
                    coeff: np.ndarray, penalty) -> float:
    """load . u + int psi(a), psi the penalty's.

    ``load`` is the assembled load vector of f, so the first term is
    int f u.  The coefficient must stay inside the penalty domain; an
    out-of-range cell makes the cost infinite and the evaluation aborts.
    """
    return float(load @ u) + penalty_cost(mesh, coeff, penalty)
