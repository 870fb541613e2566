"""Hand-built and generated meshes shared across the test modules."""

import functools

import numpy as np

SQUARE_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_ELEMS = [[0, 1, 2, 3]]

TRIANGLE_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TRIANGLE_ELEMS = [[0, 1, 2]]


def one_cell(vertices):
    """The one-element mesh of a counterclockwise polygon."""
    return np.asarray(vertices, dtype=float), [list(range(len(vertices)))]


def local_hanging(topo, i):
    """Hanging flag of each vertex of element ``i``, from ``topo.hanging``."""
    return topo.hanging[topo.offsets[i]:topo.offsets[i + 1]]


def local_edges(topo, i):
    """Global edge index of each local edge of element ``i``."""
    return topo.cycle_edges[topo.offsets[i]:topo.offsets[i + 1]]


def across(topo, i):
    """Element across each local edge of element ``i`` (itself across boundary edges)."""
    pair = topo.edge2elem[local_edges(topo, i)]
    return np.where(pair[:, 0] == i, pair[:, 1], pair[:, 0])


def refinement_of(nodes, elements, marked):
    """What ``refine(nodes, elements, marked)`` did: the elements its closure
    added (a set) and its cut edges (edge indices in increasing order).

    Both are read from the refined mesh through the numbering ``refine``
    documents: slot ``i`` of a refined element ends with a new node bit-equal
    to ``topology.centroid[i]``, and the cut-edge midpoints follow the input
    nodes in edge order, ahead of the centroids.
    """
    from polyrefine import build_topology, refine

    nodes = np.asarray(nodes, dtype=float)
    topo = build_topology(nodes, elements)
    out_nodes, cells = refine(nodes, elements, marked)
    N = len(nodes)
    refset = [i for i in range(len(elements))
              if cells[i][-1] >= N and np.array_equal(out_nodes[cells[i][-1]], topo.centroid[i])]
    first_centroid = len(out_nodes) - len(refset)
    assert np.array_equal(out_nodes[first_centroid:], topo.centroid[refset])
    a, b = topo.edge.T
    edge_of = {p.tobytes(): e for e, p in enumerate(0.5 * (nodes[a] + nodes[b]))}
    cut = np.array([edge_of[p.tobytes()] for p in out_nodes[N:first_centroid]], dtype=np.int64)
    assert np.all(np.diff(cut) > 0)
    return set(refset) - {int(m) for m in marked}, cut


def two_squares():
    """Two unit squares sharing the edge x = 1."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    return nodes, [[0, 1, 4, 3], [1, 2, 5, 4]]


def square_and_hung_rectangle():
    """Clean squares A (index 0) and A2 (index 1) stacked left of a 1 x 2
    rectangle B (index 2) whose left side carries the hanging node (1, 1)."""
    nodes = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
        [0.0, 2.0], [1.0, 2.0], [2.0, 0.0], [2.0, 2.0],
    ])
    elements = [[0, 1, 2, 3], [3, 2, 5, 4], [1, 6, 7, 5, 2]]
    return nodes, elements


def cascade_mesh():
    """A one-directional hanging-node cascade on [0, 4] x [0, 2].

    Element 0 is a small clean square; element 5 is a rectangle with a
    hanging node on the edges shared with element 0; element 7 is a larger
    square with a hanging node on the edges shared with element 5.  Marking
    element 0 must therefore pull in exactly elements 5 and 7.
    """
    coords = {
        "a": (0.0, 0.0), "b": (0.5, 0.0), "c": (1.0, 0.0), "d": (2.0, 0.0), "e": (4.0, 0.0),
        "f": (0.0, 0.5), "g": (0.5, 0.5), "h": (1.0, 0.5),
        "i": (0.0, 1.0), "j": (0.5, 1.0), "k": (1.0, 1.0), "l": (2.0, 1.0),
        "m": (0.0, 2.0), "n": (1.0, 2.0), "o": (2.0, 2.0), "p": (4.0, 2.0),
    }
    names = list(coords)
    idx = {nm: t for t, nm in enumerate(names)}
    nodes = np.array([coords[nm] for nm in names])

    def cyc(*nms):
        return [idx[nm] for nm in nms]

    elements = [
        cyc("b", "c", "h", "g"),            # 0: marked seed
        cyc("g", "h", "k", "j"),            # 1
        cyc("a", "b", "g", "f"),            # 2
        cyc("f", "g", "j", "i"),            # 3
        cyc("i", "j", "k", "n", "m"),       # 4: flat vertex j
        cyc("c", "d", "l", "k", "h"),       # 5: flat vertex h
        cyc("k", "l", "o", "n"),            # 6
        cyc("d", "e", "p", "o", "l"),       # 7: flat vertex l
    ]
    return nodes, elements


def pentagon_pair():
    """Unit square split into two pentagons along a zigzag."""
    nodes = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 0.4], [0.5, 0.6], [0.0, 0.4], [1.0, 1.0], [0.0, 1.0],
    ])
    return nodes, [[0, 1, 2, 3, 4], [4, 3, 2, 5, 6]]


def prismatic_pentagon_patch():
    """Convex pentagon tiling: two house pentagons, a valley pentagon on
    top, and two trapezoids closing the sides (domain [0,2] x [0,1.6])."""
    nodes = np.array([
        [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
        [0.0, 0.6], [1.0, 0.6], [2.0, 0.6],
        [0.5, 1.0], [1.5, 1.0],
        [0.0, 1.6], [0.5, 1.6], [1.5, 1.6], [2.0, 1.6],
    ])
    elements = [
        [0, 1, 4, 6, 3],      # house
        [1, 2, 5, 7, 4],      # house
        [6, 4, 7, 10, 9],     # valley pentagon
        [3, 6, 9, 8],         # left trapezoid
        [7, 5, 11, 10],       # right trapezoid
    ]
    return nodes, elements


def hexagon_patch():
    """Four regular hexagons (circumradius 1) sharing edges exactly."""
    sx, sy = np.sqrt(3.0) / 2.0, 0.5
    key2idx, nodes, elements = {}, [], []
    offsets = [(0, -2), (1, -1), (1, 1), (0, 2), (-1, 1), (-1, -1)]
    for q, r in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        ci, cj = 2 * q + r, 3 * r
        cycle = []
        for oi, oj in offsets:
            key = (ci + oi, cj + oj)
            if key not in key2idx:
                key2idx[key] = len(nodes)
                nodes.append((key[0] * sx, key[1] * sy))
            cycle.append(key2idx[key])
        elements.append(cycle)
    return np.array(nodes), elements


def horseshoe_mesh():
    """One U-shaped element whose centroid falls in the opening."""
    nodes = np.array([
        [0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
        [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0],
    ])
    return nodes, [[0, 1, 2, 3, 4, 5, 6, 7]]


def thick_u_mesh():
    """A U-shaped element whose centroid (1.5, 1.375) is inside it but does not
    see the whole boundary: the notch hides the top of each arm."""
    nodes = np.array([
        [0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
        [2.0, 2.0], [1.0, 2.0], [1.0, 3.0], [0.0, 3.0],
    ])
    return nodes, [[0, 1, 2, 3, 4, 5, 6, 7]]


def pentagram_mesh():
    """The {5/2} star: each vertex joined to the second next.  Its centroid is
    left of every side, but the boundary winds around it twice."""
    angles = 0.5 * np.pi + 0.4 * np.pi * np.arange(5)
    return np.column_stack([np.cos(angles), np.sin(angles)]), [[0, 2, 4, 1, 3]]


def double_hang_mesh():
    """Square with two collinear interior vertices on one side (invalid)."""
    nodes = np.array([
        [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0],
    ])
    return nodes, [[0, 1, 2, 3, 4, 5]]


def invisible_hang_mesh():
    """A node sits inside a side that does not list it (invalid).

    The square's bottom edge spans (0,0)-(1,0) while the two triangles
    below share the corner (0.5, 0); every polygon alone is valid.
    """
    nodes = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, -1.0], [0.5, 0.0],
    ])
    elements = [[0, 1, 2, 3], [0, 4, 5], [4, 1, 5]]
    return nodes, elements


def base_mesh_pool():
    """Meshes used for the randomized refinement trials.

    All cells are convex (as in centroidal-Voronoi meshes), which the
    subdivision preserves; subcells therefore keep strictly interior
    centroids through arbitrarily many passes.
    """
    from polyrefine import structured_quad_mesh

    pool = [structured_quad_mesh(k) for k in range(4, 9)]
    pool.append(prismatic_pentagon_patch())
    pool.append(hexagon_patch())
    pool.append(cascade_mesh())
    return pool


def _voronoi_cells(seeds):
    """Voronoi cells of ``seeds`` clipped to the unit square, as a mesh.

    The seeds are reflected across the four sides, so each cell of a seed
    is bounded by the sides and the cells tile the square.
    """
    from scipy.spatial import Voronoi

    x, y = seeds.T
    vor = Voronoi(np.vstack([seeds, np.c_[-x, y], np.c_[2 - x, y], np.c_[x, -y], np.c_[x, 2 - y]]))
    regions = [vor.regions[r] for r in vor.point_region[:len(seeds)]]
    used, local = np.unique(np.concatenate(regions), return_inverse=True)
    nodes = vor.vertices[used]
    elements = []
    for seed, cyc in zip(seeds, np.split(local, np.cumsum([len(r) for r in regions])[:-1])):
        d = nodes[cyc] - seed  # cells are convex and contain their seed
        elements.append(cyc[np.argsort(np.arctan2(d[:, 1], d[:, 0]))].tolist())
    return nodes, elements


@functools.lru_cache(maxsize=None)
def _centroidal_voronoi(cells, seed, iterations):
    from polyrefine import build_topology

    seeds = np.random.default_rng(seed).random((cells, 2))
    for _ in range(iterations):
        seeds = build_topology(*_voronoi_cells(seeds)).centroid  # one Lloyd step
    return _voronoi_cells(seeds)


def centroidal_voronoi_mesh(seed, cells=200, iterations=30):
    """A centroidal Voronoi mesh of the unit square (Lloyd iterations, as in
    PolyMesher), computed once per process and returned as a fresh copy."""
    nodes, elements = _centroidal_voronoi(cells, seed, iterations)
    return nodes.copy(), [list(c) for c in elements]


VORONOI_SEEDS = (0, 1, 2)
