"""Polygonal mesh data model: derived topology, geometry and validity checks.

A mesh is a pair ``(nodes, elements)``.  ``nodes`` is an ``(N, 2)`` float
array of vertex coordinates; ``elements`` is a list of vertex-index cycles,
one per polygon, oriented counterclockwise.  A vertex that sits flat on the
straight boundary segment of an element (a hanging node) is listed in the
cycle of every element whose boundary contains it, so the mesh is always a
conforming polygonal complex even when hanging nodes are present.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

EPS = float(np.finfo(float).eps)

# relative tolerance (times element diameter) used to flag hanging nodes
HANGING_TOL_REL = 1e-10


class MeshError(Exception):
    """Base class for mesh construction errors."""


class InvalidIndexError(MeshError):
    """An element (or marked-list) entry is not an integer index in range."""


class TooDenseError(MeshError):
    """Element diameters have shrunk below the representable resolution."""


class NonManifoldEdgeError(MeshError):
    """An edge is shared by more than two elements."""


class DegeneratePolygonError(MeshError):
    """A polygon has (numerically) vanishing area."""


@dataclass(frozen=True)
class MeshTopology:
    """Derived connectivity and per-element geometry of a polygonal mesh.

    Attributes
    ----------
    edge : (NE, 2) int array
        Unique vertex pairs with ``edge[k, 0] < edge[k, 1]``, sorted
        lexicographically.
    edge2elem : (NE, 2) int array
        The two elements incident to each edge; both entries equal for
        boundary edges.
    area : (NT,) float array
        Signed area (positive for counterclockwise cycles).
    centroid : (NT, 2) float array
    diameter : (NT,) float array
        Maximum pairwise vertex distance per element.
    offsets : (NT + 1,) int array
        Element ``i`` occupies ``offsets[i]:offsets[i + 1]`` of the flat
        cycle arrays below.
    cycles : (M,) int array
        All vertex cycles, concatenated.
    cycle_edges : (M,) int array
        Global index of the edge from each cycle position to the next
        (cyclic) one; the element across it is the other entry of
        ``edge2elem``.
    hanging : (M,) bool array
        Whether the vertex at each cycle position hangs, i.e. lies within
        ``HANGING_TOL_REL`` times its element's diameter of the midpoint of
        its two cycle neighbours.  This is the mesh's one hanging-node test.
    """

    edge: np.ndarray
    edge2elem: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray
    offsets: np.ndarray
    cycles: np.ndarray
    cycle_edges: np.ndarray
    hanging: np.ndarray

    @property
    def num_edges(self) -> int:
        return len(self.edge)

    def boundary_edge_mask(self) -> np.ndarray:
        return self.edge2elem[:, 0] == self.edge2elem[:, 1]

    def _matching(self, elements) -> MeshTopology:
        """This topology, the one source of the cells, if ``elements`` lists as many cells."""
        if len(elements) != len(self.area):
            raise ValueError(f"the element table has {len(elements)} elements, its topology {len(self.area)}")
        return self


@dataclass(frozen=True)
class Violation:
    kind: str
    where: object
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "0 violations"
        lines = [f"{len(self.violations)} violations"]
        lines += [str(v) for v in self.violations]
        return "\n".join(lines)


def _as_nodes(nodes) -> np.ndarray:
    arr = np.asarray(nodes, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("node table must have shape (N, 2)")
    return arr


def _cycle_arrays(elements, n):
    """Cycle offsets and concatenated int64 cycles of an element table, with -1
    for each entry that is not an index: ``isinstance(v, (int, np.integer,
    np.bool_)) and 0 <= v < n``, where a 0-d array ``v`` is read as its scalar
    ``v[()]`` (so ``np.array(4)`` is vertex 4, ``np.array(4.0)`` is not).  The
    one reader of element tables and marked lists; a table that numpy reads as
    1-D integers is ranged in one mask.
    """
    lengths = np.fromiter(map(len, elements), dtype=np.int64, count=len(elements))
    flat = list(chain.from_iterable(elements))
    try:
        arr = np.array(flat)
    except ValueError:  # nested sequences of unequal lengths
        arr = None
    if arr is not None and arr.ndim == 1 and arr.dtype.kind in "iu":
        cycles = arr.astype(np.int64, copy=False)
        cycles[(arr < 0) | (arr >= n)] = -1
    else:
        scalars = (v[()] if isinstance(v, np.ndarray) and v.ndim == 0 else v for v in flat)
        cycles = np.array([int(v) if isinstance(v, (int, np.integer, np.bool_)) and 0 <= v < n else -1
                           for v in scalars], dtype=np.int64)
    return np.r_[0, np.cumsum(lengths)], cycles


def _cycle_shifts(offsets):
    """Flat positions of the previous and the next vertex in each cycle."""
    prv = np.arange(-1, offsets[-1] - 1)
    prv[offsets[:-1]] = offsets[1:] - 1
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return prv, nxt


def _cycle_owners(offsets):
    """Element of each flat cycle position."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _cycle_lists(offsets, cycles) -> list:
    """Flat cycle arrays back to a list of vertex lists (Python ints)."""
    flat = cycles.tolist()
    bounds = offsets.tolist()
    return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _cells(offsets, cycles, keep):
    """Flat cycle arrays of the cells flagged in ``keep``."""
    lengths = np.diff(offsets)
    return np.r_[0, np.cumsum(lengths[keep])], cycles[np.repeat(keep, lengths)]


def _length_groups(offsets, cycles):
    """``(elements, (k, L) vertex indices)`` per cycle length ``L``."""
    lengths = np.diff(offsets)
    for L in np.unique(lengths):
        sel = np.flatnonzero(lengths == L)
        yield sel, cycles[offsets[sel][:, None] + np.arange(L)]


def _polygon_tables(nodes, offsets, cycles):
    """Signed areas, centroids and diameters of all polygons of the flat cycle arrays.

    This is the one place polygon geometry is computed.  It checks nothing:
    a degenerate polygon (see ``_degenerate``) gets a meaningless centroid.
    """
    x, y = nodes.T
    nxt = _cycle_shifts(offsets)[1]
    x0, y0 = x[cycles], y[cycles]
    lengths, red = np.diff(offsets), offsets[:-1]

    # all-pairs diameter: the vertex pairs r apart, 1 <= r <= L // 2, are every
    # pair of a cycle, so step r walks only the positions p of cycles with L >= 2 r
    d2 = np.zeros(len(cycles))
    p, q, live = slice(None), np.arange(len(cycles)), lengths
    for r in range(1, lengths.max(initial=0) // 2 + 1):
        if live.min() < 2 * r:
            walk = np.repeat(lengths >= 2 * r, lengths)
            p, q, live = np.flatnonzero(walk), q[walk[p]], live[live >= 2 * r]
        q = nxt[q]
        dx, dy = x0[q] - x0[p], y0[q] - y0[p]
        d2[p] = np.maximum(d2[p], dx * dx + dy * dy)
    diam = np.sqrt(np.maximum.reduceat(d2, red))

    x1, y1 = x0[nxt], y0[nxt]
    cr = x0 * y1 - x1 * y0
    area2 = np.add.reduceat(cr, red)
    sx = np.add.reduceat((x0 + x1) * cr, red)
    sy = np.add.reduceat((y0 + y1) * cr, red)

    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.column_stack([sx, sy]) / (3.0 * area2)[:, None]
    return 0.5 * area2, centroid, diam


def _degenerate(area, diameter):
    """Flags for polygons whose area is numerically zero relative to their diameter."""
    return np.abs(area) < 1e-14 * diameter * diameter


def _edge_table(a, b, n):
    """Undirected edges of the sides ``a[p] -> b[p]`` between vertices below ``n``: the
    distinct pairs ``(min, max)``, sorted lexicographically as the keys ``min * n + max``,
    with the edge of each side and the use count of each."""
    key, inv, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True, return_counts=True)
    return np.column_stack([key // n, key % n]), inv, counts


def _bounding_box(points):
    """Corners ``lo`` and ``hi`` of the bounding box of ``points`` (N, 2), taken column by
    column (numpy reduces along axis 0 far more slowly), and ``grid``, which maps points to
    their uint64 cells (x row, y row) of a 26-bit quadtree over the box scaled to a square:
    monotone and clipped, so a point inside a box lies inside the box's grid corners."""
    lo = np.array([points[:, 0].min(), points[:, 1].min()])
    hi = np.array([points[:, 0].max(), points[:, 1].max()])
    scale = (2**26 - 1) / (max(hi - lo) or 1.0)

    def grid(v):
        return np.clip((v - lo) * scale, 0, 2**26 - 1).astype(np.uint64).T

    return lo, hi, grid


def _checked_tables(nodes, elements):
    """Flat cycle arrays and ``_polygon_tables`` of an element table that must be
    valid: the one checked reader of element tables.  Raises on the first bad element
    of the first of these checks: ``DegeneratePolygonError`` for a cycle of fewer than
    3 vertices, ``InvalidIndexError`` for an entry that is not a vertex index (see
    ``_cycle_arrays``), ``DegeneratePolygonError`` for a cell that uses a non-finite
    node and for a cell of vanishing area."""
    offsets, cycles = _cycle_arrays(elements, len(nodes))
    lengths = np.diff(offsets)
    short = np.flatnonzero(lengths < 3)
    if short.size:
        raise DegeneratePolygonError(f"element {int(short[0])} has {int(lengths[short[0]])} vertices")
    bad = np.flatnonzero(cycles < 0)
    if bad.size:
        raise InvalidIndexError(f"element {_cycle_owners(offsets)[bad[0]]}: an entry is not a vertex index")
    if not np.isfinite(nodes).all():  # a cell with a nan or inf vertex has no geometry
        used = np.flatnonzero(~np.isfinite(nodes[cycles]).all(axis=1))
        if used.size:
            raise DegeneratePolygonError(f"element {_cycle_owners(offsets)[used[0]]} uses a non-finite node")
    area, centroid, diameter = _polygon_tables(nodes, offsets, cycles)
    bad = _degenerate(area, diameter)
    if bad.any():
        raise DegeneratePolygonError(f"element {int(np.flatnonzero(bad)[0])} has vanishing area")
    return offsets, cycles, area, centroid, diameter


def mesh_area(nodes, elements) -> float:
    """Total unsigned area of all elements."""
    area = _checked_tables(_as_nodes(nodes), elements)[2]
    return float(np.sum(np.abs(area)))


def build_topology(nodes, elements) -> MeshTopology:
    """Derive edge table, adjacency maps and per-element geometry.

    Raises
    ------
    InvalidIndexError
        If an element entry is not a vertex index (see ``_cycle_arrays``).
    NonManifoldEdgeError
        If an edge is shared by more than two elements.
    DegeneratePolygonError
        If an element has fewer than 3 vertices, a non-finite vertex or vanishing area.
    TooDenseError
        If the smallest element diameter falls below ``4 * machine eps``.
    """
    nodes = _as_nodes(nodes)
    NT = len(elements)
    if NT == 0:
        raise ValueError("element table is empty")
    offsets, conc, area, centroid, diameter = _checked_tables(nodes, elements)

    prv, nxt = _cycle_shifts(offsets)
    edge, inv, counts = _edge_table(conc, conc[nxt], len(nodes))
    if (counts > 2).any():
        k = int(np.flatnonzero(counts > 2)[0])
        raise NonManifoldEdgeError(f"edge {tuple(edge[k].tolist())} shared by {int(counts[k])} elements")

    # the owners of each edge's first and last side: the last write of a repeated index wins
    owners, edge2elem = _cycle_owners(offsets), np.empty((len(edge), 2), dtype=np.int64)
    edge2elem[inv[::-1], 0] = owners[::-1]
    edge2elem[inv, 1] = owners

    if diameter.min() < 4.0 * EPS:
        raise TooDenseError("the mesh is too dense")
    # the one hanging-node test: within HANGING_TOL_REL diameters of the neighbours' midpoint
    x, y = nodes.T
    x0, y0 = x[conc], y[conc]
    dx, dy = x0 - 0.5 * (x0[prv] + x0[nxt]), y0 - 0.5 * (y0[prv] + y0[nxt])
    tol = np.repeat(HANGING_TOL_REL * diameter, np.diff(offsets))
    hanging = np.sqrt(dx * dx + dy * dy) < tol  # np.linalg.norm's bits, in half its time
    return MeshTopology(edge, edge2elem, area, centroid, diameter, offsets, conc, inv, hanging)


def _simple_flags(nodes, offsets, cycles, diam) -> np.ndarray:
    """Simplicity test for the polygons of the flat cycle arrays.

    A polygon is simple when no two non-adjacent sides cross or overlap and
    no vertex touches the inside of a side it is not an endpoint of (side
    ``s`` runs from vertex ``s`` to ``s + 1``).  Step ``r`` of a walk along
    ``nxt`` pairs each side with the side, and with the vertex, ``r``
    positions ahead in its cycle.
    """
    x, y = nodes.T
    _, nxt = _cycle_shifts(offsets)
    lengths, red = np.diff(offsets), offsets[:-1]
    x0, y0 = x[cycles], y[cycles]
    x1, y1 = x0[nxt], y0[nxt]
    sides = (x0, y0, x1, y1, x1 - x0, y1 - y0)
    # cycle length, place in the cycle and the two tolerances of each position
    own = (np.repeat(lengths, lengths), np.arange(len(cycles)) - np.repeat(red, lengths),
           np.repeat(1e-12 * diam * diam, lengths), np.repeat((1e-12 * diam) ** 2, lengths))
    bad = np.zeros(len(cycles), dtype=bool)
    # step r walks only the positions p of cycles with L > r: a shorter cycle
    # has no side or vertex r ahead, and its walk would wrap
    p, q, live = slice(None), nxt, lengths
    for r in range(2, lengths.max(initial=0)):
        if live.min() <= r:
            walk = np.repeat(lengths > r, lengths)
            p, q, live = np.flatnonzero(walk), q[walk[p]], live[live > r]
        q = nxt[q]
        ax, ay, bx, by, sx, sy = (v[p] for v in sides)
        a2x, a2y, b2x, b2y, s2x, s2y = (v[q] for v in sides)
        L, local, eps, tol = (v[p] for v in own)
        L2 = np.maximum(sx * sx + sy * sy, 1e-300)
        # non-adjacent side pairs i < j = i + r, each once: r <= L - 2 leaves
        # out the pair of sides 0 and L - 1, which meet at vertex 0
        pair = (local + r < L) & (r <= L - 2)
        # side of each endpoint relative to the other side's line
        d1 = s2x * (ay - a2y) - s2y * (ax - a2x)
        d2 = s2x * (by - a2y) - s2y * (bx - a2x)
        d3 = sx * (a2y - ay) - sy * (a2x - ax)
        d4 = sx * (b2y - ay) - sy * (b2x - ax)
        hit = pair & (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & \
            (((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps)))
        coll = pair & (np.abs(d1) <= eps) & (np.abs(d2) <= eps) & (np.abs(d3) <= eps) & (np.abs(d4) <= eps)
        if coll.any():
            # collinear pairs: flag genuine 1-D interval overlap
            ta = (a2x - ax) * sx + (a2y - ay) * sy
            tb = (b2x - ax) * sx + (b2y - ay) * sy
            overlap = np.minimum(np.maximum(ta, tb), L2) - np.maximum(np.minimum(ta, tb), 0.0)
            hit |= coll & (overlap > 1e-9 * L2)
        # a vertex touching a non-incident side pinches the boundary: side s and vertex s + r
        t = ((a2x - ax) * sx + (a2y - ay) * sy) / L2
        # t is only read inside (0, 1), where clipping it to [0, 1] changes nothing
        dx, dy = a2x - (ax + t * sx), a2y - (ay + t * sy)
        bad[p] |= hit | ((dx * dx + dy * dy < tol) & (t > 1e-9) & (t < 1 - 1e-9))
    return ~np.logical_or.reduceat(bad, red)


def _star_flags(nodes, offsets, cycles, points, diam) -> np.ndarray:
    """Whether each polygon of the flat cycle arrays is star-shaped about its
    row of ``points``: left of every side's line by more than ``1e-12 diam²``
    (a cross product), with the boundary wound once around it, which given the
    first means one side with ``ay <= py < by``.  Star-shaped implies simple."""
    x, y = nodes.T
    _, nxt = _cycle_shifts(offsets)
    ax, ay = x[cycles], y[cycles]
    bx, by = ax[nxt], ay[nxt]
    lengths, red = np.diff(offsets), offsets[:-1]
    px, py = np.repeat(points, lengths, axis=0).T
    left = (bx - ax) * (py - ay) - (by - ay) * (px - ax) > np.repeat(1e-12 * diam * diam, lengths)
    winding = np.add.reduceat((ay <= py) & (py < by), red, dtype=np.int64)
    return np.logical_and.reduceat(left, red) & (winding == 1)


def _duplicate_node_pairs(nodes, radius):
    """Sorted index pairs ``(i, j)``, ``i < j``, of nodes closer than ``radius``.

    Grid hashing on 4 shifted lattices: the nodes of one lattice cell form a
    run of the sorted cell keys, and its pairs are the positions ``k = 1, 2,
    ...`` apart with equal keys, up to the longest run.  Cells are counted
    from the bounding box corner, so the keys of a mesh far from the origin
    stay in int64 range.
    """
    n = len(nodes)
    local = nodes - _bounding_box(nodes)[0]
    found = [np.zeros((2, 0), dtype=np.int64)]
    for shift in ((0.0, 0.0), (0.0, radius), (radius, 0.0), (radius, radius)):
        kx, ky = np.floor((local + shift) / (2.0 * radius)).astype(np.int64).T
        order = np.lexsort((ky, kx))
        kx, ky = kx[order], ky[order]
        for k in range(1, n):
            p = np.flatnonzero((kx[k:] == kx[:-k]) & (ky[k:] == ky[:-k]))
            if p.size == 0:
                break
            i, j = order[p], order[p + k]
            close = np.linalg.norm(nodes[i] - nodes[j], axis=1) < radius
            found.append(np.stack([i, j])[:, close])
    return list(map(tuple, _edge_table(*np.concatenate(found, axis=1), n)[0].tolist()))


def validate_mesh(nodes, elements) -> ValidationReport:
    """Check node-table and element-table invariants.

    Violations are returned as data; nothing is raised.  An empty report
    means the mesh is refinable: every element is simple, counterclockwise
    and star-shaped about its centroid (``_star_flags``).
    """
    out = []
    try:
        nodes = _as_nodes(nodes)
    except ValueError as exc:
        return ValidationReport([Violation("node-table", None, str(exc))])

    finite = np.isfinite(nodes).all(axis=1)
    for i in np.flatnonzero(~finite):
        out.append(Violation("nonfinite-node", int(i), "coordinate is nan or inf"))
    if not finite.all():
        return ValidationReport(out)

    if len(nodes) >= 2:
        lo, hi, _ = _bounding_box(nodes)
        bbox_diag = float(np.hypot(*(hi - lo)))
        tol = 1e-12 * bbox_diag if bbox_diag > 0 else 1e-300
        for i, j in _duplicate_node_pairs(nodes, tol):
            out.append(Violation("duplicate-nodes", (i, j), "nodes coincide"))
    if len(elements) == 0:
        out.append(Violation("element-table", None, "element table is empty"))

    # structural checks on the flat cycle arrays (-1 marks an invalid entry)
    N, NT = len(nodes), len(elements)
    offsets, conc = _cycle_arrays(elements, N)
    lengths = np.diff(offsets)
    owner = _cycle_owners(offsets)
    few = lengths < 3
    invalid = ~few & (np.bincount(owner[conc < 0], minlength=NT) > 0)
    rest = ~(few | invalid)[owner]
    key = np.sort(owner[rest] * N + conc[rest])
    repeated = np.bincount(key[1:][key[1:] == key[:-1]] // N, minlength=NT) > 0
    for i in np.flatnonzero(few):
        out.append(Violation("too-few-vertices", int(i), f"cycle has {int(lengths[i])} vertices"))

    # geometric checks on the elements that passed, in the same flat layout
    passed = ~(few | invalid | repeated)
    geometric = np.flatnonzero(passed)
    goffsets, gcycles = _cells(offsets, conc, passed)
    del offsets, conc, owner, rest, key  # the checks below read only the passed cells
    # edges of more than two of them, from the edge table of build_topology
    a, b = gcycles, gcycles[_cycle_shifts(goffsets)[1]]
    edge, uses, counts = _edge_table(a, b, N)
    crowded = counts > 2
    for e, c in zip(edge[crowded].tolist(), counts[crowded].tolist()):
        out.append(Violation("non-manifold-edge", tuple(e), f"edge shared by {c} elements"))
    del edge  # the checks below read only the use counts
    area, centroid, diam = _polygon_tables(nodes, goffsets, gcycles)
    degenerate = _degenerate(area, diam)
    clockwise = ~degenerate & (area < 0)
    live = ~degenerate & ~clockwise
    # an edge of exactly two elements that both traverse it in the same direction: their
    # interiors overlap along it.  No directed key occurs thrice, so the repeats are unique
    directed = np.sort((a * N + b)[np.repeat(live, np.diff(goffsets)) & (counts[uses] == 2)])
    twice = directed[1:][directed[1:] == directed[:-1]]
    out.extend(Violation("overlap", (k // N, k % N), "edge traversed in the same direction by two elements")
               for k in twice.tolist())
    del a, b, uses, counts, directed
    with np.errstate(invalid="ignore"):  # degenerate cells have inf/nan centroids
        outside = live & ~_star_flags(nodes, goffsets, gcycles, centroid, diam)
    # star-shaped implies simple, so only the rejected cells can be tangled
    tangled = np.zeros(len(geometric), dtype=bool)
    tangled[outside] = ~_simple_flags(nodes, *_cells(goffsets, gcycles, outside), diam[outside])
    outside &= ~tangled

    for kind, elems, detail in (
        ("invalid-index", np.flatnonzero(invalid), "vertex index out of range"),
        ("repeated-vertex", np.flatnonzero(repeated), "cycle revisits a vertex"),
        ("degenerate", geometric[degenerate], "polygon area is numerically zero"),
        ("orientation", geometric[clockwise], "vertices are not counterclockwise"),
        ("self-intersection", geometric[tangled], "polygon is not simple"),
        ("centroid-not-interior", geometric[outside], "polygon is not star-shaped about its centroid"),
    ):
        out.extend(Violation(kind, int(i), detail) for i in elems)

    out.sort(key=lambda v: (v.where if isinstance(v.where, int) else -1, v.kind))
    return ValidationReport(out)


def check_conformity(nodes, elements, topology: MeshTopology | None = None) -> list:
    """Hanging-node conformity violations (empty list = conforming).

    Checks that (a) no straight boundary run of an element carries more
    than one interior node, (b) every hanging node is the midpoint of its
    collinear parent edge (``MeshTopology.hanging``), and (c) no mesh node sits
    in the interior of an unmatched (topologically boundary) element side.
    """
    nodes = _as_nodes(nodes)
    topo = build_topology(nodes, elements) if topology is None else topology._matching(elements)
    idx = topo.cycles
    owner = _cycle_owners(topo.offsets)
    prv, nxt = _cycle_shifts(topo.offsets)
    x, y = nodes.T

    def legs(v):  # from the previous vertex, to the next one, and the chord between them
        p, n = v[prv], v[nxt]
        return v - p, n - v, n - p

    (ax, bx, cx), (ay, by, cy) = legs(x[idx]), legs(y[idx])
    flat = (np.abs(cx * ay - cy * ax) < 1e-8 * topo.diameter[owner] * np.sqrt(cx * cx + cy * cy)) & \
           (ax * cx + ay * cy > 0) & (bx * cx + by * cy > 0)
    double = flat & flat[nxt]
    off_mid = flat & ~flat[prv] & ~flat[nxt] & ~topo.hanging
    # per element: the double-hang report first, then off-midpoint nodes in cycle order
    found = [(int(i), -1) for i in np.unique(owner[double])]
    found += [(int(owner[p]), int(p)) for p in np.flatnonzero(off_mid)]
    out = [
        f"element {i}: two hanging nodes on one straight segment" if p < 0
        else f"element {i}: hanging node {int(idx[p])} off the parent-edge midpoint"
        for i, p in sorted(found)
    ]

    be = topo.edge[topo.boundary_edge_mask()]
    for k, j in _nodes_inside_sides(nodes, nodes[be[:, 0]], nodes[be[:, 1]]):
        out.append(f"node {int(j)} lies inside unmatched side {tuple(int(x) for x in be[k])}")
    return out


def _morton(qx, qy):
    """Morton codes of 26-bit unsigned coordinates (uint64), the x bit above the y bit.

    Each pair of bits, from the top, is one level of a quadtree, so the
    points of one quadtree cell are one run of the codes in sorted order.
    """
    code = np.zeros(len(qx), dtype=np.uint64)
    for q, place in ((qx, 1), (qy, 0)):
        for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
                            (2, 0x3333333333333333), (1, 0x5555555555555555)):
            q = (q | (q << np.uint64(shift))) & np.uint64(mask)
        code |= q << np.uint64(place)
    return code


def _nodes_inside_sides(nodes, a, b):
    """``(side, node)`` pairs, sorted, with the node strictly inside side ``a[k]b[k]``.

    The finite nodes are sorted by their Morton code on a 26-bit quadtree
    over their bounding box.  Candidates for a side are the nodes of the
    quadtree cells, at most 2 x 2, that cover its padded bounding box on the
    deepest level where that many do; each cell is one run of the sorted
    codes and at most twice the box's longer extent, so the candidates of a
    side are the nodes near it and memory stays linear in nodes plus sides.
    """
    ab = b - a
    L2 = np.sum(ab * ab, axis=1)
    pad = 2e-9 * np.sqrt(L2) + 4.0 * EPS * np.maximum(np.abs(a), np.abs(b)).max(axis=1)
    finite = np.flatnonzero(np.isfinite(nodes).all(axis=1))  # a non-finite node lies inside no side
    p = nodes[finite]
    grid = _bounding_box(p)[2]
    code = _morton(*grid(p))
    order = np.argsort(code)
    code = code[order]
    lo, hi = grid(np.minimum(a, b) - pad[:, None]), grid(np.maximum(a, b) + pad[:, None])
    # cells of 2**level grid steps, the smallest power of two above the box's extent
    level = np.frexp((hi - lo).max(axis=0).astype(float))[1].astype(np.uint64)
    lo, hi = lo >> level, hi >> level
    low_bits = (np.uint64(1) << (np.uint64(2) * level)) - np.uint64(1)
    starts, counts = [], []
    for cx, new_x in ((lo[0], True), (hi[0], hi[0] != lo[0])):
        for cy, new_y in ((lo[1], True), (hi[1], hi[1] != lo[1])):
            first = _morton(cx << level, cy << level)
            starts.append(np.searchsorted(code, first, side="left"))
            # a box inside one column or row of cells reads that cell once
            counts.append((np.searchsorted(code, first | low_bits, side="right") - starts[-1]) * (new_x & new_y))
    count = np.concatenate(counts) * np.tile(L2 > 0, 4)  # a side of zero length has no inside
    k = np.repeat(np.tile(np.arange(len(a)), 4), count)
    j = finite[order[np.repeat(np.concatenate(starts) - (np.cumsum(count) - count), count) + np.arange(len(k))]]
    # parameter of each candidate node along its side, clipped off the endpoints
    t = ((nodes[j] - a[k]) * ab[k]).sum(-1) / L2[k]
    proj = a[k] + t[:, None] * ab[k]
    dist = np.linalg.norm(nodes[j] - proj, axis=-1)
    margin = 1e-9
    hit = (t > margin) & (t < 1.0 - margin) & (dist < 1e-9 * np.sqrt(L2[k]))
    k, j = k[hit], j[hit]
    keep = np.lexsort((j, k))
    return zip(k[keep], j[keep])


def structured_quad_mesh(nx: int, ny: int | None = None, origin=(0.0, 0.0)):
    """Axis-aligned ``nx`` x ``ny`` grid of quadrilaterals (counterclockwise) on the unit square at ``origin``;
    raises ``ValueError`` unless both sizes are integers >= 1."""
    ny = nx if ny is None else ny
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (nx, ny)):
        raise ValueError(f"grid sizes must be integers >= 1, got nx={nx!r}, ny={ny!r}")
    x0, y0 = origin
    xs = x0 + np.arange(nx + 1) / nx
    ys = y0 + np.arange(ny + 1) / ny
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    elements = np.column_stack([v00, v00 + 1, v00 + nx + 2, v00 + nx + 1])
    return nodes, elements.tolist()
