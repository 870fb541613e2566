"""Local refinement of polygonal meshes.

Marked polygons are split by joining each edge midpoint to the element
centroid, yielding one quadrilateral subcell per non-hanging vertex.  A
hanging vertex is joined directly to the centroid instead of bisecting its
two incident edges, which keeps subcells well shaped.  Each refined element
must be star-shaped about its centroid (``_star_flags``), so that its
subcells are fans of counterclockwise triangles about it; otherwise the pass
raises ``CentroidNotInteriorError``.  To guarantee that no straight segment
ever carries more than one hanging node, the marked set is first closed: any
neighbour that already has a hanging node on an edge of the refinement set
is refined as well.  Unrefined neighbours of refined elements are extended
with the new edge midpoints so the vertex cycles stay a conforming complex.

All stages work on the flat cycle arrays of ``MeshTopology`` (offsets plus
concatenated vertex and edge indices); element lists are built only for
the returned mesh.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .mesh_core import (
    InvalidIndexError,
    MeshError,
    MeshTopology,
    _as_nodes,
    _cycle_arrays,
    _cycle_lists,
    _cycle_owners,
    _cycle_shifts,
    _star_flags,
    build_topology,
)


class CentroidNotInteriorError(MeshError):
    """An element cannot be subdivided because it is not star-shaped about its centroid."""


def _canonical_marked(marked, num_elements: int) -> list:
    """Sorted distinct element indices of ``marked``, read by ``_cycle_arrays``."""
    _, flat = _cycle_arrays([list(marked)], num_elements)
    if (flat < 0).any():
        raise InvalidIndexError(f"a marked entry is not an element index in [0, {num_elements})")
    return np.unique(flat).tolist()


def _nontrivial_edges(topology: MeshTopology) -> np.ndarray:
    """Flags for local edges with at least one hanging endpoint."""
    _, nxt = _cycle_shifts(topology.offsets)
    return topology.hanging | topology.hanging[nxt]


def closure_marked_set(topology: MeshTopology, marked) -> set:
    """Additional elements that must be refined together with ``marked``.

    Starting from the marked set, any neighbour owning a nontrivial edge
    (an edge with a hanging endpoint) that is also an edge of the current
    refinement set is added, until the set stops growing.  Returns only the
    added elements.
    """
    NT = len(topology.offsets) - 1
    marked = _canonical_marked(marked, NT)
    owner = _cycle_owners(topology.offsets)
    nontrivial = _nontrivial_edges(topology)
    cand_owner = owner[nontrivial]
    cand_edge = topology.cycle_edges[nontrivial]

    in_set = np.zeros(NT, dtype=bool)
    in_set[marked] = True
    edge_in_set = np.zeros(topology.num_edges, dtype=bool)
    new = in_set.copy()
    while new.any():
        edge_in_set[topology.cycle_edges[new[owner]]] = True
        new[:] = False
        new[cand_owner[edge_in_set[cand_edge] & ~in_set[cand_owner]]] = True
        in_set |= new
    return {int(i) for i in np.flatnonzero(in_set)} - set(marked)


def compute_cut_edges(topology: MeshTopology, refinement_set: Iterable) -> np.ndarray:
    """Trivial edges of the refinement set, i.e. the edges that get midpoints."""
    NT = len(topology.offsets) - 1
    in_set = np.zeros(NT, dtype=bool)
    in_set[_canonical_marked(refinement_set, NT)] = True
    nontrivial = _nontrivial_edges(topology)
    cut = np.zeros(topology.num_edges, dtype=bool)
    cut[topology.cycle_edges[in_set[_cycle_owners(topology.offsets)] & ~nontrivial]] = True
    return np.flatnonzero(cut)


def refine(nodes, elements, marked, topology: MeshTopology | None = None):
    """Refine ``marked`` elements (plus closure) and return the new mesh.

    The output cycles again list every boundary node of every element, each
    straight segment carries at most one hanging node, and total area is
    preserved.  An empty marked set gives a copy of the input.  Pass the
    mesh's ``topology`` if it is already built.

    Numbering of the returned mesh:

    * nodes: the input nodes (same indices), then the midpoints
      ``0.5 * (nodes[a] + nodes[b])`` of the cut edges in edge-index order,
      then the centroids of the refinement set in element order;
    * elements: slot ``i`` holds the first subcell of refined element ``i``
      or the (extended) cycle of unrefined element ``i``; the remaining
      subcells follow, those of closure-added elements first, then those of
      marked elements, each in element order.  The subcell of vertex ``v``
      is ``[prev edge midpoint or hanging vertex, v, next edge midpoint or
      hanging vertex, centroid]``, with the midpoint of a nontrivial edge
      cut from the other side inserted next to ``v``.
    """
    nodes = _as_nodes(nodes)
    marked = _canonical_marked(marked, len(elements))
    if topology is None:
        topology = build_topology(nodes, elements)
    additional = sorted(closure_marked_set(topology, marked))
    NT, N = len(elements), len(nodes)
    status = np.zeros(NT, dtype=np.int8)  # 0 unrefined, 1 closure-added, 2 marked
    status[additional] = 1
    status[marked] = 2
    refset = np.flatnonzero(status)
    star = _star_flags(nodes, topology.offsets, topology.cycles, topology.centroid, topology.diameter)
    bad = refset[~star[refset]]
    if bad.size:
        raise CentroidNotInteriorError(f"element {int(bad[0])}: not star-shaped about its centroid")
    cut = compute_cut_edges(topology, refset)

    mid_id = np.full(topology.num_edges, -1, dtype=np.int64)
    mid_id[cut] = N + np.arange(len(cut))
    cen_id = np.full(NT, -1, dtype=np.int64)
    cen_id[refset] = N + len(cut) + np.arange(len(refset))
    a, b = topology.edge[cut].T
    new_nodes = np.concatenate([nodes, 0.5 * (nodes[a] + nodes[b]), topology.centroid[refset]])

    cyc = topology.cycles
    owner = _cycle_owners(topology.offsets)
    prv, nxt = _cycle_shifts(topology.offsets)
    hang = topology.hanging
    nontrivial = _nontrivial_edges(topology)
    refined = status[owner] > 0
    mid = mid_id[topology.cycle_edges]
    # midpoint inserted after the vertex at the start of each local edge (-1: none)
    ext = np.where(refined & ~nontrivial, -1, mid)
    # far corner of a subcell on each local edge: its midpoint, or the hanging vertex
    corner = np.where(nontrivial, np.where(hang, cyc, cyc[nxt]), mid)

    # one output cell per unrefined element (its cycle, extended) and per
    # subcell of a refined element; -1 tokens mark absent midpoints
    u = np.flatnonzero(~refined)
    s = np.flatnonzero(refined & ~hang)
    tokens = np.concatenate([
        np.column_stack([cyc[u], ext[u]]).ravel(),
        np.column_stack([corner[prv[s]], ext[prv[s]], cyc[s], ext[s], corner[s],
                         cen_id[owner[s]]]).ravel(),
    ])

    # output rank of each cell: element i, or the first subcell of refined
    # element i, is cell i; the other subcells follow as cells NT, NT + 1, ...,
    # those of closure-added elements first, then those of marked elements
    s_owner = owner[s]
    rank = s_owner.copy()
    extra = 1 + np.flatnonzero(s_owner[1:] == s_owner[:-1])
    rank[extra[np.argsort(status[s_owner[extra]], kind="stable")]] = NT + np.arange(len(extra))
    keep = tokens >= 0
    out_rank = np.concatenate([np.repeat(owner[u], 2), np.repeat(rank, 6)])[keep]
    out = tokens[keep][np.argsort(out_rank, kind="stable")]
    offsets = np.zeros(NT + len(extra) + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rank, minlength=NT + len(extra)), out=offsets[1:])
    return new_nodes, _cycle_lists(offsets, out)
