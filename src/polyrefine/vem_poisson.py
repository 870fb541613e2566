"""Lowest-order conforming virtual element solver for the Poisson problem.

On each polygon the local space is spanned by one degree of freedom per
vertex.  Stiffness matrices combine the exactly computable consistency part
(the elliptic projection onto affine functions, built from boundary
integrals only) with an identity-scaled stabilization of the projection
remainder.  The load uses one-point centroid quadrature.

Each O(nnz) step runs once.  ``assemble`` builds the local matrices with
the cells on the last, contiguous axis and writes their ``sum L^2``
triplets in place into int32 row and column arrays and one float64 value
array.  ``solve_dirichlet`` eliminates the Dirichlet data ``u`` (zero on
the free unknowns) and scales the reduced right-hand side ``b = (rhs -
A u)[free]`` by ``2**-e`` to ``max |b|`` in [1/2, 1), so that data of any
size neither overflows nor underflows float32 or the residual norms.  The
reduced matrix, symmetric positive definite, is sliced from a float32 copy
of ``A`` (half the memory of float64 values) and factored by SuperLU in
symmetric mode with diagonal pivots, as a sparse Cholesky factorization
would, in the order below (``permc_spec="NATURAL"``).  From ``w = 0``,
each correction adds the float32 solve of the float64 residual ``r = b -
(A w)[free]``, read through the full matrix, so the factor's is the one
reduced matrix.  The corrections stop at the first that does not halve
``|r|`` and keep the iterate with the smallest (four reached round-off on
every mesh measured, up to 263,169 nodes); unless the system is finite and
``|r| <= RESIDUAL_RTOL |b|``, ``SolverError`` is raised.

The free unknowns are ordered by a geometric nested dissection
(``_dissection_order``): a quadtree over their coordinates, each cut
separated by the unknowns on one side of the matrix entries that cross it,
and each separator ordered after the two halves it separates.  On 2-D
meshes this gives less fill than minimum degree (3.9 M against 4.5 M
nonzeros in L + U on a 41,744-node adaptive mesh).  The order is read from
coordinates and the matrix graph only, with ties broken row by row, so the
factor, and the time it takes, do not depend on how the mesh numbers its
nodes.  Norms (and the energy in ``adaptivity``) are einsum sums, not BLAS
dots: a threaded OpenBLAS ``ddot`` leaves its worker threads spinning for
about 0.13 CPU-s after it returns.  Precision and ordering have no option
and no fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh_core import MeshError, MeshTopology, _as_nodes, _bounding_box, _length_groups, _morton


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


def _batched_stiffness(x: np.ndarray, y: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Local stiffness matrices of ``k`` polygons of ``n`` vertices, as an (n, n, k) array.

    ``x`` and ``y`` (n, k) hold the vertex coordinates with the cells on the
    last, contiguous axis, so every operation runs along ``k``; ``area`` is
    the signed area (positive for counterclockwise vertices).  With ``G``
    (n x 2) the gradients of the projections of the vertex basis functions,
    ``D`` the centred vertices and ``C = I - 11^T / n``, the consistency part
    ``|K| G G^T`` plus the stabilization ``R^T R``, ``R = C - D G^T``, is
    ``C - D G^T - G D^T + G M G^T`` with ``M = |K| I + D^T D``, since
    ``C D = D``.  It is built entry by entry as ``C + G Z^T + Z G^T``,
    ``Z = G M / 2 - D``, the x pair and the y pair each summed first, so
    that it is exactly symmetric.
    """
    n = len(x)
    a2 = 2.0 * area
    gx = (np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0)) / a2
    gy = (np.roll(x, 1, axis=0) - np.roll(x, -1, axis=0)) / a2
    dx = x - x.mean(axis=0)
    dy = y - y.mean(axis=0)
    # M / 2, with einsum summing each column without a temporary
    mxy = 0.5 * np.einsum("ik,ik->k", dx, dy)
    zx = 0.5 * (area + np.einsum("ik,ik->k", dx, dx)) * gx + mxy * gy - dx
    zy = mxy * gx + 0.5 * (area + np.einsum("ik,ik->k", dy, dy)) * gy - dy
    K = gx[:, None] * zx
    tmp = zx[:, None] * gx
    K += tmp
    Ky = gy[:, None] * zy
    np.multiply(zy[:, None], gy, out=tmp)
    Ky += tmp
    K += Ky
    K += (np.eye(n) - 1.0 / n)[:, :, None]
    return K


# cells per kernel call: keeps the (n, n, cells) temporaries of quadrilaterals
# near 0.5 MB, in cache (a whole 512^2 grid at once takes 1.8x as long)
_CELL_BLOCK = 4096


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
    lengths = np.diff(offsets)
    area, h = topology.area, topology.diameter
    # the scaled-monomial projection matrix G has det G = (|K| / h^2)^2; require det G >= 1e-14
    if not (np.abs(area) >= 1e-7 * h * h).all():
        raise SingularProjectionError("projection matrix is singular")
    size = int(np.sum(lengths * lengths))
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    vals = np.empty(size)
    x, y = nodes[:, 0], nodes[:, 1]
    start = 0
    for idx, cyc in _length_groups(offsets, cycles):
        k, L = cyc.shape
        stop = start + k * L * L
        rows[start:stop].reshape(k, L, L)[...] = cyc[:, :, None]
        cols[start:stop].reshape(k, L, L)[...] = cyc[:, None, :]
        out = vals[start:stop].reshape(k, L, L)
        for s in range(0, k, _CELL_BLOCK):
            c = cyc[s:s + _CELL_BLOCK].T
            out[s:s + _CELL_BLOCK] = _batched_stiffness(x[c], y[c], area[idx[s:s + _CELL_BLOCK]]).transpose(2, 0, 1)
        start = stop
    A = sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()

    cen = topology.centroid
    load = area / lengths * np.asarray(f(cen[:, 0], cen[:, 1]), dtype=float)
    b = np.bincount(cycles, weights=np.repeat(load, lengths), minlength=N)

    bmask = np.zeros(N, dtype=bool)
    bmask[topology.edge[topology.boundary_edge_mask()]] = True
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
    both halves of that cut, deeper separators first; ties by ``y``, then ``x``.
    """
    p = coords[free]
    grid = _bounding_box(p)[2]
    code = _morton(*grid(p))

    # the pattern of A is symmetric, so each row reads every entry it is an endpoint of
    n = A.shape[0]
    row_code = np.zeros(n, dtype=np.uint64)
    row_code[free] = code
    is_free = np.zeros(n, dtype=bool)
    is_free[free] = True
    counts = np.diff(A.indptr)
    a, b = row_code[np.repeat(np.arange(n), counts)], row_code[A.indices]
    # codes agree above the highest bit in which they differ, so the larger one has it set
    upper = (a > b) & is_free[A.indices]
    a ^= b
    del b
    bit = np.frexp(a)[1] - 1  # exact for 52-bit codes; -1 where they agree
    cut = np.full(n, -1)
    rows = counts > 0
    cut[rows] = np.maximum.reduceat(np.where(upper, bit, -1), A.indptr[:-1][rows])
    cut = cut[free]
    key = code | ((np.uint64(1) << (cut + 1).astype(np.uint64)) - np.uint64(1))
    return np.lexsort((p[:, 0], p[:, 1], cut, key))


def solve_dirichlet(system: LinearSystem, g) -> np.ndarray:
    """Solve with Dirichlet values ``g(x, y)`` on the boundary vertices by the method of the
    module docstring; raises ``SolverError`` if a free node belongs to no element, the
    reduced matrix is singular or the residual misses ``RESIDUAL_RTOL``."""
    A, bmask = system.matrix, system.boundary_mask
    u = np.zeros(len(system.rhs))
    x, y = system.coords[:, 0], system.coords[:, 1]
    u[bmask] = np.asarray(g(x[bmask], y[bmask]), dtype=float)
    free = np.flatnonzero(~bmask)
    lonely = free[np.diff(A.indptr)[free] == 0]  # an empty row: a node that no cell lists
    if lonely.size:
        raise SolverError(f"node {lonely[0]} belongs to no element")
    if len(free):
        free = free[_dissection_order(system.coords, A, free)]
        # u is zero on the free unknowns, so this is rhs - A_fb u_b
        rhs = (system.rhs - A @ u)[free]
        # scaled by a power of two to max |b| in [1/2, 1), so float32 neither overflows nor underflows
        e = np.frexp(np.abs(rhs).max())[1]
        b = np.ldexp(rhs, -e)
        try:
            lu = splu(A.astype(np.float32)[free][:, free].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:  # an exactly singular factor
            raise SolverError(str(exc)) from exc
        # float64 corrections until one fails to halve the residual; the smallest residual is kept.
        # Residuals are read from A w with w zero on the boundary, norms from einsum (not BLAS).
        w = np.zeros(len(u))
        uf, r = np.zeros(len(free)), b
        resid = bnorm = np.sqrt(np.einsum("i,i", b, b))
        while True:
            w[free] = uf + lu.solve(r.astype(np.float32))
            rn = b - (A @ w)[free]
            rn_norm = np.sqrt(np.einsum("i,i", rn, rn))
            halved = rn_norm < 0.5 * resid
            if rn_norm < resid:
                uf, r, resid = w[free], rn, rn_norm
            if not halved:
                break
        # only a finite residual is kept, so a nan or inf can remain only in b
        if not (np.isfinite(bnorm) and resid <= RESIDUAL_RTOL * bnorm):
            raise SolverError(f"residual {resid:.3e} exceeds tolerance")
        u[free] = np.ldexp(uf, e)
    return u
