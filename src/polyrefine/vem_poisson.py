"""Lowest-order conforming virtual element solver for the Poisson problem.

On each polygon the local space is spanned by one degree of freedom per
vertex.  Stiffness matrices combine the exactly computable consistency part
(the elliptic projection onto affine functions, built from boundary
integrals only) with an identity-scaled stabilization of the projection
remainder.  The load uses one-point centroid quadrature.  Dirichlet data is
eliminated before the sparse direct solve, a symmetric-mode LU that orders
and pivots the way a sparse Cholesky factorization would.  The free unknowns
are numbered row by row (by ``y``, then ``x``) before the minimum-degree
ordering: minimum degree breaks ties by input index, and on the numbering
``refine`` produces (old nodes, then midpoints, then centroids) SuperLU
factors the same matrix, at about the same fill, 1.4 to 30 times slower on
adaptive meshes of 42k to 175k nodes.
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
        K = _batched_stiffness(nodes[cyc], topology.area[idx], topology.diameter[idx])
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


def solve_dirichlet(system: LinearSystem, g) -> np.ndarray:
    """Solve with Dirichlet values ``g(x, y)`` on the boundary vertices.

    The reduced matrix is symmetric positive definite, so it is factored
    with a minimum-degree ordering of ``A + A^T`` and diagonal pivots.  Its
    rows and columns are the free vertices sorted row by row by their
    coordinates, so the factor, and the time it takes, do not depend on how
    the mesh numbers its nodes.
    """
    bmask = system.boundary_mask
    u = np.zeros(len(system.rhs))
    x, y = system.coords[:, 0], system.coords[:, 1]
    u[bmask] = np.asarray(g(x[bmask], y[bmask]), dtype=float)
    order = np.lexsort((x, y))
    free = order[~bmask[order]]
    if len(free):
        Af = system.matrix[free]
        Aff = Af[:, free].tocsc()
        rhs = system.rhs[free] - Af[:, bmask] @ u[bmask]
        try:
            lu = splu(Aff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:  # an exactly singular factor
            raise SolverError(str(exc)) from exc
        uf = lu.solve(rhs)
        resid = np.linalg.norm(Aff @ uf - rhs)
        if not np.isfinite(uf).all() or resid > RESIDUAL_RTOL * max(np.linalg.norm(rhs), 1e-300):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance")
        u[free] = uf
    return u
