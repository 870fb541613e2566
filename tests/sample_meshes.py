"""Hand-built meshes shared across the test modules."""

import numpy as np

SQUARE_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_ELEMS = [[0, 1, 2, 3]]

TRIANGLE_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TRIANGLE_ELEMS = [[0, 1, 2]]


def local_edges(topo, i):
    """Global edge index of each local edge of element ``i``."""
    return topo.cycle_edges[topo.offsets[i]:topo.offsets[i + 1]]


def across(topo, i):
    """Element across each local edge of element ``i`` (itself across boundary edges)."""
    pair = topo.edge2elem[local_edges(topo, i)]
    return np.where(pair[:, 0] == i, pair[:, 1], pair[:, 0])


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
