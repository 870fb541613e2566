"""Lowest-order conforming virtual element solver for the Poisson problem.

On each polygon the local space is spanned by one degree of freedom per
vertex.  Stiffness matrices combine the exactly computable consistency part
(the elliptic projection onto affine functions, built from boundary
integrals only) with an identity-scaled stabilization of the projection
remainder.  The load uses one-point centroid quadrature.  Dirichlet data is
eliminated before the sparse direct solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .mesh_core import (
    MeshError,
    MeshTopology,
    _as_nodes,
    _length_groups,
    polygon_area,
    polygon_centroid,
)


class SingularProjectionError(MeshError):
    """Element geometry too degenerate to build the local projection."""


class SolverError(MeshError):
    """The reduced linear system could not be solved to tolerance."""


@dataclass(frozen=True)
class LocalProjection:
    """Projection matrices of one element.

    ``D`` (Nv x 3) holds the scaled monomials ``1, (x-xc)/h, (y-yc)/h`` at
    the vertices, ``B`` (3 x Nv) the defining functionals (vertex average
    plus edge-wise trapezoidal boundary integrals, exact for affine
    functions), ``G = B @ D``, and ``pi_star = G^-1 @ B`` maps vertex values
    to monomial coefficients.
    """

    D: np.ndarray
    B: np.ndarray
    G: np.ndarray
    pi_star: np.ndarray

    @property
    def Pi(self) -> np.ndarray:
        """Vertex values of the projected function (Nv x Nv)."""
        return self.D @ self.pi_star


@dataclass
class LinearSystem:
    """Assembled global system with Dirichlet bookkeeping."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary_mask: np.ndarray
    coords: np.ndarray


def _batched_projection(V: np.ndarray):
    """D, B, G and areas for a stack of same-size polygons (M, Nv, 2)."""
    M, n, _ = V.shape
    x, y = V[..., 0], V[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cr = x * yn - xn * y
    area = 0.5 * np.sum(cr, axis=1)
    diff = V[:, :, None, :] - V[:, None, :, :]
    h = np.sqrt(np.max(np.sum(diff * diff, axis=-1), axis=(1, 2)))
    if not (np.abs(area) > 1e-14 * h * h).all():
        raise SingularProjectionError("degenerate element geometry")
    cx = np.sum((x + xn) * cr, axis=1) / (6.0 * area)
    cy = np.sum((y + yn) * cr, axis=1) / (6.0 * area)

    D = np.empty((M, n, 3))
    D[..., 0] = 1.0
    D[..., 1] = (x - cx[:, None]) / h[:, None]
    D[..., 2] = (y - cy[:, None]) / h[:, None]

    B = np.empty((M, 3, n))
    B[:, 0, :] = 1.0 / n
    B[:, 1, :] = (np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)) / (2.0 * h[:, None])
    B[:, 2, :] = -(np.roll(x, -1, axis=1) - np.roll(x, 1, axis=1)) / (2.0 * h[:, None])
    G = B @ D
    return D, B, G, area, np.column_stack([cx, cy]), h


def _batched_stiffness(V: np.ndarray):
    D, B, G, area, cen, h = _batched_projection(V)
    det = np.linalg.det(G)
    scale = np.abs(area) / (h * h)
    if not (np.abs(det) >= 1e-14 * np.maximum(scale, 1.0)).all():
        raise SingularProjectionError("projection matrix is singular")
    pi_star = np.linalg.solve(G, B)
    Gt = G.copy()
    Gt[:, 0, :] = 0.0
    Kc = np.einsum("mai,mab,mbj->mij", pi_star, Gt, pi_star)
    R = np.eye(V.shape[1])[None, :, :] - D @ pi_star
    Ks = np.einsum("mki,mkj->mij", R, R)
    return Kc + Ks, area, cen


def local_projection(vertices) -> LocalProjection:
    """Projection matrices of a single polygon given counterclockwise vertices."""
    V = np.asarray(vertices, dtype=float)[None, :, :]
    D, B, G, area, _, h = _batched_projection(V)
    det = float(np.linalg.det(G[0]))
    if abs(det) < 1e-14 * max(abs(area[0]) / (h[0] * h[0]), 1.0):
        raise SingularProjectionError("projection matrix is singular")
    return LocalProjection(D[0], B[0], G[0], np.linalg.solve(G[0], B[0]))


def local_stiffness(vertices) -> np.ndarray:
    """Symmetric positive semidefinite local stiffness (kernel = constants)."""
    K, _, _ = _batched_stiffness(np.asarray(vertices, dtype=float)[None, :, :])
    return K[0]


def local_load(vertices, f) -> np.ndarray:
    """Vertex load ``(area / Nv) * f(centroid)`` for one element."""
    v = np.asarray(vertices, dtype=float)
    area = polygon_area(v)
    c = polygon_centroid(v)
    return np.full(len(v), area / len(v) * float(f(c[0], c[1])))


def assemble(nodes, elements, topology: MeshTopology, f) -> LinearSystem:
    """Assemble the global stiffness matrix and load vector.

    ``f`` is called with coordinate arrays ``f(x, y)``.  Boundary vertices
    are the endpoints of edges incident to a single element.
    """
    nodes = _as_nodes(nodes)
    N = len(nodes)
    rows, cols, vals = [], [], []
    b = np.zeros(N)
    for _, cyc in _length_groups(topology.offsets, topology.cycles, np.arange(len(elements))):
        n = cyc.shape[1]
        K, area, cen = _batched_stiffness(nodes[cyc])
        rows.append(np.broadcast_to(cyc[:, :, None], K.shape).ravel())
        cols.append(np.broadcast_to(cyc[:, None, :], K.shape).ravel())
        vals.append(K.ravel())
        load = (area / n) * np.asarray(f(cen[:, 0], cen[:, 1]), dtype=float)
        np.add.at(b, cyc.ravel(), np.repeat(load, n))
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    ).tocsr()

    bmask = np.zeros(N, dtype=bool)
    bedges = topology.edge[topology.boundary_edge_mask()]
    bmask[np.unique(bedges)] = True
    return LinearSystem(A, b, bmask, nodes)


def solve_dirichlet(system: LinearSystem, g, rtol: float = 1e-10) -> np.ndarray:
    """Solve with Dirichlet values ``g(x, y)`` on the boundary vertices."""
    bmask = system.boundary_mask
    u = np.zeros(len(system.rhs))
    xb, yb = system.coords[bmask, 0], system.coords[bmask, 1]
    u[bmask] = np.asarray(g(xb, yb), dtype=float)
    free = ~bmask
    if free.any():
        A = system.matrix
        Aff = A[free][:, free].tocsc()
        rhs = system.rhs[free] - A[free][:, bmask] @ u[bmask]
        uf = spsolve(Aff, rhs)
        resid = np.linalg.norm(Aff @ uf - rhs)
        if not np.isfinite(uf).all() or resid > rtol * max(np.linalg.norm(rhs), 1e-300):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance")
        u[free] = uf
    return u


def solve_poisson(nodes, elements, topology: MeshTopology, f, g) -> np.ndarray:
    """Convenience wrapper: assemble and solve in one call."""
    return solve_dirichlet(assemble(nodes, elements, topology, f), g)
