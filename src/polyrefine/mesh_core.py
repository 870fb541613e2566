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
        cycles = arr.astype(np.int64)
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


def _length_groups(offsets, cycles, idx):
    """``(elements, (k, L) vertex indices)`` for the elements ``idx``, per cycle length ``L``."""
    lengths = offsets[idx + 1] - offsets[idx]
    for L in np.unique(lengths):
        sel = idx[lengths == L]
        yield sel, cycles[offsets[sel][:, None] + np.arange(L)]


def _polygon_tables(nodes, offsets, cycles):
    """Signed areas, centroids and diameters of all polygons of the flat cycle arrays.

    This is the one place polygon geometry is computed.  It checks nothing:
    a degenerate polygon (see ``_degenerate``) gets a meaningless centroid.
    """
    x, y = nodes.T
    _, nxt = _cycle_shifts(offsets)
    x0, y0 = x[cycles], y[cycles]
    x1, y1 = x0[nxt], y0[nxt]
    cr = x0 * y1 - x1 * y0
    red = offsets[:-1]
    area2 = np.add.reduceat(cr, red)
    sx = np.add.reduceat((x0 + x1) * cr, red)
    sy = np.add.reduceat((y0 + y1) * cr, red)

    # all-pairs diameter on the coordinate planes of each length group: the
    # vertex pairs r apart, 1 <= r <= L // 2, are every pair of the cycle
    diam = np.empty(len(offsets) - 1)
    for idx, cyc in _length_groups(offsets, cycles, np.arange(len(diam))):
        L = cyc.shape[1]
        XX, YY = _doubled_rows(x[cyc], y[cyc])
        d2 = np.zeros(len(idx))
        for r in range(1, L // 2 + 1):
            dx, dy = XX[r:r + L] - XX[:L], YY[r:r + L] - YY[:L]
            d2 = np.maximum(d2, (dx * dx + dy * dy).max(axis=0))
        diam[idx] = np.sqrt(d2)

    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.column_stack([sx, sy]) / (3.0 * area2)[:, None]
    return 0.5 * area2, centroid, diam


def _degenerate(area, diameter):
    """Flags for polygons whose area is numerically zero relative to their diameter."""
    return np.abs(area) < 1e-14 * diameter * diameter


def _require_indices(offsets, cycles):
    """Raise ``InvalidIndexError`` for the first element with an entry that is not a vertex index."""
    bad = np.flatnonzero(cycles < 0)
    if bad.size:
        raise InvalidIndexError(f"element {_cycle_owners(offsets)[bad[0]]}: an entry is not a vertex index")


def _checked_tables(nodes, elements):
    """Flat cycle arrays and ``_polygon_tables`` of an element table that must be
    valid: raises ``DegeneratePolygonError`` or ``InvalidIndexError`` on the first bad element."""
    offsets, cycles = _cycle_arrays(elements, len(nodes))
    lengths = np.diff(offsets)
    short = np.flatnonzero(lengths < 3)
    if short.size:
        raise DegeneratePolygonError(f"element {int(short[0])} has {int(lengths[short[0]])} vertices")
    _require_indices(offsets, cycles)
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
        If an element has fewer than 3 vertices or numerically zero area.
    TooDenseError
        If the smallest element diameter falls below ``4 * machine eps``.
    """
    nodes = _as_nodes(nodes)
    NT = len(elements)
    if NT == 0:
        raise ValueError("element table is empty")
    offsets, conc, area, centroid, diameter = _checked_tables(nodes, elements)

    # edge (a, b) with a < b as the key a * N + b, which sorts lexicographically
    N = len(nodes)
    prv, nxt = _cycle_shifts(offsets)
    key = np.minimum(conc, conc[nxt]) * N + np.maximum(conc, conc[nxt])
    ukey, first, inv = np.unique(key, return_index=True, return_inverse=True)
    edge = np.column_stack([ukey // N, ukey % N])
    counts = np.bincount(inv, minlength=len(edge))
    if (counts > 2).any():
        k = int(np.flatnonzero(counts > 2)[0])
        raise NonManifoldEdgeError(f"edge {tuple(edge[k])} shared by {int(counts[k])} elements")

    owners = _cycle_owners(offsets)
    last = np.empty(len(edge), dtype=np.int64)
    last[inv] = np.arange(inv.size)
    edge2elem = np.column_stack([owners[first], owners[last]])

    if diameter.min() < 4.0 * EPS:
        raise TooDenseError("the mesh is too dense")
    # the one hanging-node test: within HANGING_TOL_REL diameters of the neighbours' midpoint
    v = nodes[conc]
    tol = np.repeat(HANGING_TOL_REL * diameter, np.diff(offsets))
    hanging = _midpoint_error(v, v[prv], v[nxt]) < tol
    return MeshTopology(edge, edge2elem, area, centroid, diameter, offsets, conc, inv, hanging)


def _midpoint_error(v, prev, nxt) -> np.ndarray:
    # the bits of np.linalg.norm(d, axis=1), in half its time
    d = v - 0.5 * (prev + nxt)
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def _simple_flags(X: np.ndarray, Y: np.ndarray, diam: np.ndarray) -> np.ndarray:
    """Simplicity test for ``k`` polygons of ``L`` vertices, given as their
    ``(k, L)`` coordinate planes ``X = x[cyc]`` and ``Y = y[cyc]``.

    A polygon is simple when no two non-adjacent sides cross or overlap and
    no vertex touches the inside of a side it is not an endpoint of (side
    ``s`` runs from vertex ``s`` to ``s + 1``).  All pairs of sides, or of a
    side and a vertex, ``r`` positions apart are one row slice of the
    ``_doubled_rows`` planes.
    """
    L = X.shape[1]
    XX, YY = _doubled_rows(X, Y)
    AX, AY, BX, BY = XX[:L], YY[:L], XX[1:L + 1], YY[1:L + 1]
    SX, SY = BX - AX, BY - AY
    planes = (AX, AY, BX, BY, SX, SY)
    ok = np.ones(len(diam), dtype=bool)
    eps = 1e-12 * diam * diam
    # non-adjacent side pairs i < j = i + r: 2 <= r <= L - 2 leaves out the
    # pair of sides 0 and L - 1, which meet at vertex 0
    for r in range(2, L - 1):
        a1x, a1y, b1x, b1y, s1x, s1y = (p[:L - r] for p in planes)
        a2x, a2y, b2x, b2y, s2x, s2y = (p[r:] for p in planes)
        # side of each endpoint relative to the other side's line
        d1 = s2x * (a1y - a2y) - s2y * (a1x - a2x)
        d2 = s2x * (b1y - a2y) - s2y * (b1x - a2x)
        d3 = s1x * (a2y - a1y) - s1y * (a2x - a1x)
        d4 = s1x * (b2y - a1y) - s1y * (b2x - a1x)
        bad = (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & \
              (((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps)))
        coll = (np.abs(d1) <= eps) & (np.abs(d2) <= eps) & (np.abs(d3) <= eps) & (np.abs(d4) <= eps)
        if coll.any():
            # collinear pairs: flag genuine 1-D interval overlap
            ulen2 = np.maximum(s1x * s1x + s1y * s1y, 1e-300)
            ta = (a2x - a1x) * s1x + (a2y - a1y) * s1y
            tb = (b2x - a1x) * s1x + (b2y - a1y) * s1y
            overlap = np.minimum(np.maximum(ta, tb), ulen2) - np.maximum(np.minimum(ta, tb), 0.0)
            bad |= coll & (overlap > 1e-9 * ulen2)
        ok &= ~bad.any(axis=0)
    # a vertex touching a non-incident side pinches the boundary: side s and
    # vertex s + r (cyclic) for 2 <= r <= L - 1
    L2 = np.maximum(SX * SX + SY * SY, 1e-300)
    tol = (1e-12 * diam) ** 2
    for r in range(2, L):
        px, py = XX[r:r + L], YY[r:r + L]
        t = ((px - AX) * SX + (py - AY) * SY) / L2
        # t is only read inside (0, 1), where clipping it to [0, 1] changes nothing
        dx, dy = px - (AX + t * SX), py - (AY + t * SY)
        ok &= ~((dx * dx + dy * dy < tol) & (t > 1e-9) & (t < 1 - 1e-9)).any(axis=0)
    return ok


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


def _doubled_rows(X: np.ndarray, Y: np.ndarray):
    """The ``(k, L)`` planes transposed and stacked twice, ``(2L, k)`` and C-contiguous:
    rows ``r:r + L`` hold vertex ``s + r`` (cyclic) of each polygon in row ``s``."""
    return np.concatenate([X, X], axis=1).T.copy(), np.concatenate([Y, Y], axis=1).T.copy()


def _duplicate_node_pairs(nodes, radius):
    """Sorted index pairs ``(i, j)``, ``i < j``, of nodes closer than ``radius``.

    Grid hashing on 4 shifted lattices: the nodes of one lattice cell form a
    run of the sorted cell keys, and its pairs are the positions ``k = 1, 2,
    ...`` apart with equal keys, up to the longest run.  Cells are counted
    from the bounding box corner, so the keys of a mesh far from the origin
    stay in int64 range.
    """
    n = len(nodes)
    local = nodes - nodes.min(axis=0)
    found = [np.zeros(0, dtype=np.int64)]
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
            found.append((np.minimum(i, j) * n + np.maximum(i, j))[close])
    pairs = np.unique(np.concatenate(found))
    return list(zip((pairs // n).tolist(), (pairs % n).tolist()))


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
        span = nodes.max(axis=0) - nodes.min(axis=0)
        bbox_diag = float(np.hypot(*span))
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
    goffsets = np.r_[0, np.cumsum(lengths[geometric])]
    gcycles = conc[passed[owner]]
    # edges of more than two of them, keyed a * N + b (a < b) as in build_topology
    a, b = gcycles, gcycles[_cycle_shifts(goffsets)[1]]
    keys, counts = np.unique(np.minimum(a, b) * N + np.maximum(a, b), return_counts=True)
    crowded = counts > 2
    for k, c in zip(keys[crowded].tolist(), counts[crowded].tolist()):
        out.append(Violation("non-manifold-edge", (k // N, k % N), f"edge shared by {c} elements"))
    area, centroid, diam = _polygon_tables(nodes, goffsets, gcycles)
    degenerate = _degenerate(area, diam)
    clockwise = ~degenerate & (area < 0)
    live = ~degenerate & ~clockwise
    # an edge of two elements that both traverse it in the same direction:
    # their interiors overlap along it (edges of more than two are reported above)
    directed = np.sort((a * N + b)[np.repeat(live, np.diff(goffsets))])
    twice = np.unique(directed[1:][directed[1:] == directed[:-1]])
    tail, head = twice // N, twice % N
    twice = twice[~np.isin(np.minimum(tail, head) * N + np.maximum(tail, head), keys[crowded])]
    out.extend(Violation("overlap", (k // N, k % N), "edge traversed in the same direction by two elements")
               for k in twice.tolist())
    x, y = nodes.T
    tangled = np.zeros(len(geometric), dtype=bool)
    for idx, cyc in _length_groups(goffsets, gcycles, np.flatnonzero(live)):
        tangled[idx] = ~_simple_flags(x[cyc], y[cyc], diam[idx])
    with np.errstate(invalid="ignore"):  # degenerate cells have inf/nan centroids
        outside = live & ~tangled & ~_star_flags(nodes, goffsets, gcycles, centroid, diam)

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
    than one interior node, (b) every hanging node is the exact midpoint of
    its collinear parent edge, and (c) no mesh node sits in the interior of
    an unmatched (topologically boundary) element side.
    """
    nodes = _as_nodes(nodes)
    topo = topology if topology is not None else build_topology(nodes, elements)
    idx = topo.cycles
    owner = _cycle_owners(topo.offsets)
    d = topo.diameter[owner]
    prv, nxt = _cycle_shifts(topo.offsets)
    v = nodes[idx]
    prev = v[prv]
    nxtv = v[nxt]
    chord = nxtv - prev
    clen = np.linalg.norm(chord, axis=1)
    off = np.abs(chord[:, 0] * (v[:, 1] - prev[:, 1]) - chord[:, 1] * (v[:, 0] - prev[:, 0]))
    flat = (off < 1e-8 * d * np.where(clen > 0, clen, 1.0)) & \
           (np.sum((v - prev) * chord, axis=1) > 0) & \
           (np.sum((v - nxtv) * -chord, axis=1) > 0)
    drift = _midpoint_error(v, prev, nxtv)
    double = flat & flat[nxt]
    off_mid = flat & ~flat[prv] & ~flat[nxt] & (drift > HANGING_TOL_REL * d)
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


def _nodes_inside_sides(nodes, a, b):
    """``(side, node)`` pairs, sorted, with the node strictly inside side ``a[k]b[k]``.

    Candidates are the nodes in a padded strip around each side's bounding
    box along whichever axis holds fewer nodes, so memory stays linear in
    the number of nodes plus candidates.
    """
    ab = b - a
    L2 = np.sum(ab * ab, axis=1)
    pad = 2e-9 * np.sqrt(L2) + 4.0 * EPS * np.maximum(np.abs(a), np.abs(b)).max(axis=1)
    lo = np.minimum(a, b) - pad[:, None]
    hi = np.maximum(a, b) + pad[:, None]
    ranges = []
    for axis in (0, 1):
        order = np.argsort(nodes[:, axis], kind="stable")
        keys = nodes[order, axis]
        start = np.searchsorted(keys, lo[:, axis], side="left")
        stop = np.searchsorted(keys, hi[:, axis], side="right")
        ranges.append((order, start, stop - start))
    use_y = ranges[1][2] < ranges[0][2]
    sides, cands = [], []
    for axis, sel in ((0, ~use_y), (1, use_y)):
        order, start, count = ranges[axis]
        k = np.flatnonzero(sel)
        count = count[k]
        side = np.repeat(k, count)
        first = np.repeat(start[k] - (np.cumsum(count) - count), count)
        sides.append(side)
        cands.append(order[first + np.arange(len(side))])
    k = np.concatenate(sides)
    j = np.concatenate(cands)
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
    """Axis-aligned ``nx`` x ``ny`` grid of quadrilaterals (counterclockwise) on the unit square at ``origin``."""
    if ny is None:
        ny = nx
    x0, y0 = origin
    xs = x0 + np.arange(nx + 1) / nx
    ys = y0 + np.arange(ny + 1) / ny
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    elements = np.column_stack([v00, v00 + 1, v00 + nx + 2, v00 + nx + 1])
    return nodes, elements.tolist()
