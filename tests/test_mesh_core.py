import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine import (
    DegeneratePolygonError,
    InvalidIndexError,
    NonManifoldEdgeError,
    TooDenseError,
    build_topology,
    check_conformity,
    detect_hanging_nodes,
    element_diameter,
    mesh_area,
    polygon_area,
    polygon_centroid,
    refine,
    structured_quad_mesh,
    validate_mesh,
)
from polyrefine.mesh_core import hanging_mask

from sample_meshes import (
    SQUARE_ELEMS,
    SQUARE_NODES,
    double_hang_mesh,
    hexagon_patch,
    invisible_hang_mesh,
    pentagon_pair,
    two_squares,
)


def regular_polygon(n, radius=1.0):
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def star_shaped(points):
    """Angle-sort points around their mean: a simple, star-shaped polygon."""
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
    return pts[order], c


def fan_area_centroid(pts, c):
    """Triangulation-fan oracle for area and centroid of a star-shaped polygon."""
    area = 0.0
    cen = np.zeros(2)
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        tri = 0.5 * ((a[0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (a[1] - c[1]))
        area += tri
        cen += tri * (a + b + c) / 3.0
    return abs(area), cen / area


class TestBuildTopology:
    def test_single_square(self):
        topo = build_topology(SQUARE_NODES, SQUARE_ELEMS)
        assert topo.num_edges == 4
        assert np.all(topo.edge2elem == 0)
        assert list(topo.neighbor[0]) == [0, 0, 0, 0]
        assert topo.diameter[0] == pytest.approx(np.sqrt(2.0))
        assert topo.centroid[0] == pytest.approx([0.5, 0.5])

    def test_two_squares(self):
        nodes, elems = two_squares()
        topo = build_topology(nodes, elems)
        assert topo.num_edges == 7
        interior = topo.edge2elem[:, 0] != topo.edge2elem[:, 1]
        assert interior.sum() == 1
        assert list(topo.neighbor[0]).count(1) == 1
        assert list(topo.neighbor[1]).count(0) == 1

    def test_grid_3x3_against_pair_counting_oracle(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        # oracle: count unordered vertex pairs appearing in one/two elements
        seen = {}
        for cyc in elems:
            for j in range(len(cyc)):
                key = tuple(sorted((cyc[j], cyc[(j + 1) % len(cyc)])))
                seen[key] = seen.get(key, 0) + 1
        assert topo.num_edges == len(seen) == 24
        interior = topo.edge2elem[:, 0] != topo.edge2elem[:, 1]
        assert interior.sum() == sum(1 for v in seen.values() if v == 2) == 12

    def test_edge_table_sorted_rows(self):
        nodes, elems = structured_quad_mesh(4)
        topo = build_topology(nodes, elems)
        assert np.all(topo.edge[:, 0] < topo.edge[:, 1])
        assert np.all(np.diff(topo.edge[:, 0] * len(nodes) + topo.edge[:, 1]) > 0)

    def test_elem2edge_resolves_vertex_pairs(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        for i, cyc in enumerate(elems):
            for j in range(len(cyc)):
                pair = {cyc[j], cyc[(j + 1) % len(cyc)]}
                assert set(topo.edge[topo.elem2edge[i][j]]) == pair

    def test_interior_edges_mutually_listed(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        for k in np.flatnonzero(~topo.boundary_edge_mask()):
            a, b = topo.edge2elem[k]
            assert a != b
            assert b in topo.neighbor[a]
            assert a in topo.neighbor[b]

    def test_deterministic(self):
        nodes, elems = structured_quad_mesh(4)
        t1 = build_topology(nodes, elems)
        t2 = build_topology(nodes, elems)
        assert np.array_equal(t1.edge, t2.edge)
        assert np.array_equal(t1.edge2elem, t2.edge2elem)
        assert all(np.array_equal(a, b) for a, b in zip(t1.elem2edge, t2.elem2edge))
        assert np.array_equal(t1.centroid, t2.centroid)

    def test_invalid_index(self):
        with pytest.raises(InvalidIndexError):
            build_topology(SQUARE_NODES, [[0, 1, 2, 7]])

    def test_non_manifold_edge(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
        elems = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
        with pytest.raises(NonManifoldEdgeError):
            build_topology(nodes, elems)

    def test_too_dense(self):
        tiny = SQUARE_NODES * 1e-17
        with pytest.raises(TooDenseError):
            build_topology(tiny, SQUARE_ELEMS)


class TestPolygonGeometry:
    def test_area_unit_square(self):
        assert polygon_area(SQUARE_NODES) == pytest.approx(1.0)

    def test_area_triangle(self):
        assert polygon_area([(0, 0), (1, 0), (0, 1)]) == pytest.approx(0.5)

    def test_area_regular_hexagon(self):
        # closed form for a regular n-gon with circumradius r: n/2 r^2 sin(2 pi / n)
        oracle = 6 / 2 * np.sin(2 * np.pi / 6)
        assert polygon_area(regular_polygon(6)) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(3 * np.sqrt(3) / 2)

    def test_area_degenerate_raises(self):
        with pytest.raises(DegeneratePolygonError):
            polygon_area([(0, 0), (1, 0), (2, 0)])

    def test_centroid_square(self):
        assert polygon_centroid(SQUARE_NODES) == pytest.approx([0.5, 0.5])

    def test_centroid_triangle_vertex_average(self):
        assert polygon_centroid([(0, 0), (3, 0), (0, 3)]) == pytest.approx([1.0, 1.0])

    def test_centroid_l_shape_against_rectangle_decomposition(self):
        hexagon = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        # decomposition: [0,2]x[0,1] (area 2) and [0,1]x[1,2] (area 1)
        oracle = (2 * np.array([1.0, 0.5]) + 1 * np.array([0.5, 1.5])) / 3.0
        assert polygon_centroid(hexagon) == pytest.approx(oracle, rel=1e-12)

    def test_diameter_square(self):
        assert element_diameter(SQUARE_NODES) == pytest.approx(np.sqrt(2.0))

    def test_diameter_thin_rectangle(self):
        rect = [(0, 0), (1, 0), (1, 0.01), (0, 0.01)]
        assert element_diameter(rect) == pytest.approx(np.sqrt(1.0001))

    def test_diameter_octagon_all_pairs_oracle(self):
        rng = np.random.default_rng(42)
        pts, _ = star_shaped(rng.uniform(-1, 1, size=(8, 2)))
        oracle = max(
            np.linalg.norm(pts[i] - pts[j]) for i, j in itertools.combinations(range(8), 2)
        )
        assert element_diameter(pts) == pytest.approx(oracle, rel=0, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=4, max_size=10))
    def test_area_centroid_against_fan_oracle(self, raw):
        pts = np.array(raw)
        # discard nearly coincident or collinear input
        if len(np.unique(np.round(pts, 3), axis=0)) < len(pts):
            return
        poly, c = star_shaped(pts)
        area_o, cen_o = fan_area_centroid(poly, c)
        if area_o < 1e-3:
            return
        assert polygon_area(poly) == pytest.approx(area_o, rel=1e-9)
        assert polygon_centroid(poly) == pytest.approx(cen_o, rel=1e-7, abs=1e-9)


class TestHangingNodes:
    def test_square_with_midpoint(self):
        nodes = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mask = detect_hanging_nodes(0, nodes, [[0, 1, 2, 3, 4]])
        assert list(mask) == [False, True, False, False, False]

    def test_plain_square(self):
        assert not detect_hanging_nodes(0, SQUARE_NODES, SQUARE_ELEMS).any()

    def test_perturbed_midpoint_not_flagged(self):
        base = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        d = element_diameter(base)
        base[1, 1] += 1e-6 * d  # push off the midpoint by 1e-6 diameters
        mask = detect_hanging_nodes(0, base, [[0, 1, 2, 3, 4]])
        assert not mask.any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 4))
    def test_rotation_invariance(self, shift):
        nodes = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cyc = [0, 1, 2, 3, 4]
        rotated = cyc[shift:] + cyc[:shift]
        base = detect_hanging_nodes(0, nodes, [cyc])
        rot = detect_hanging_nodes(0, nodes, [rotated])
        assert list(rot) == list(np.roll(base, -shift))

    def test_hanging_mask_matches_definition(self):
        nodes, elems = pentagon_pair()
        for i in range(len(elems)):
            verts = nodes[np.asarray(elems[i])]
            err = np.linalg.norm(
                verts - 0.5 * (np.roll(verts, 1, axis=0) + np.roll(verts, -1, axis=0)), axis=1
            )
            tol = 1e-10 * element_diameter(verts)
            assert list(hanging_mask(verts)) == list(err < tol)


class TestValidateMesh:
    def test_clockwise_square_reports_orientation(self):
        report = validate_mesh(SQUARE_NODES, [[0, 3, 2, 1]])
        assert [v.kind for v in report.violations] == ["orientation"]

    def test_valid_two_square_mesh(self):
        assert validate_mesh(*two_squares()).ok

    def test_self_intersecting_quad(self):
        # segment-intersection oracle: sides (1,2) and (3,0) cross at (1.2, 1.2)
        nodes = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        report = validate_mesh(nodes, [[0, 1, 2, 3]])
        assert [v.kind for v in report.violations] == ["self-intersection"]

    def test_zero_area_bowtie_reported(self):
        nodes = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        report = validate_mesh(nodes, [[0, 1, 2, 3]])
        assert not report.ok

    def test_centroid_not_interior(self):
        from sample_meshes import horseshoe_mesh

        report = validate_mesh(*horseshoe_mesh())
        assert [v.kind for v in report.violations] == ["centroid-not-interior"]

    def test_duplicate_nodes(self):
        nodes = np.vstack([SQUARE_NODES, [1e-16, 0.0]])
        report = validate_mesh(nodes, [[0, 1, 2, 3]])
        assert any(v.kind == "duplicate-nodes" for v in report.violations)

    def test_nonfinite_node(self):
        nodes = SQUARE_NODES.copy()
        nodes[2, 1] = np.nan
        report = validate_mesh(nodes, SQUARE_ELEMS)
        assert [v.kind for v in report.violations] == ["nonfinite-node"]

    def test_bad_index_and_repeats_are_data(self):
        report = validate_mesh(SQUARE_NODES, [[0, 1, 9, 2], [0, 1, 1, 2], [0, 1]])
        kinds = {v.kind for v in report.violations}
        assert kinds == {"invalid-index", "repeated-vertex", "too-few-vertices"}


class TestMeshAreaAndConformity:
    def test_tilings_of_unit_square_sum_to_one(self):
        for mesh in [structured_quad_mesh(5), pentagon_pair()]:
            assert mesh_area(*mesh) == pytest.approx(1.0, abs=1e-12)

    def test_hexagon_patch_area(self):
        nodes, elems = hexagon_patch()
        assert mesh_area(nodes, elems) == pytest.approx(4 * 3 * np.sqrt(3) / 2, rel=1e-12)

    def test_conforming_meshes_pass(self):
        from sample_meshes import cascade_mesh, square_and_hung_rectangle

        for mesh in [two_squares(), cascade_mesh(), square_and_hung_rectangle()]:
            assert check_conformity(*mesh) == []

    def test_double_hang_detected(self):
        issues = check_conformity(*double_hang_mesh())
        assert any("two hanging nodes" in msg for msg in issues)

    def test_unlisted_interior_node_detected(self):
        nodes, elems = invisible_hang_mesh()
        assert validate_mesh(nodes, elems).ok  # polygons individually fine
        issues = check_conformity(nodes, elems)
        assert any("unmatched side" in msg for msg in issues)

    def test_off_midpoint_hanging_node_detected(self):
        # flat vertex at 40% of the segment, not the midpoint
        nodes = np.array([
            [0.0, 0.0], [0.8, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0],
        ])
        issues = check_conformity(nodes, [[0, 1, 2, 3, 4]])
        assert any("off the parent-edge midpoint" in msg for msg in issues)


    def test_conformity_memory_is_linear(self):
        import tracemalloc

        nodes, elems = structured_quad_mesh(64)
        tracemalloc.start()
        try:
            issues = check_conformity(nodes, elems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert issues == []
        assert peak < 8 * 2**20

    def test_violations_match_dense_oracle(self):
        for nodes, elems in nonconforming_meshes():
            assert check_conformity(nodes, elems) == dense_conformity_oracle(nodes, elems)


def dense_conformity_oracle(nodes, elements):
    """Per-element loop plus a dense side-by-node test: the reference for
    ``check_conformity``'s violation list and its order."""
    nodes = np.asarray(nodes, dtype=float)
    out = []
    for i, cyc in enumerate(elements):
        idx = np.asarray(cyc, dtype=np.int64)
        v = nodes[idx]
        d = element_diameter(v)
        prev = np.roll(v, 1, axis=0)
        nxt = np.roll(v, -1, axis=0)
        chord = nxt - prev
        clen = np.linalg.norm(chord, axis=1)
        off = np.abs(chord[:, 0] * (v[:, 1] - prev[:, 1]) - chord[:, 1] * (v[:, 0] - prev[:, 0]))
        flat = (off < 1e-8 * d * np.where(clen > 0, clen, 1.0)) & \
               (np.sum((v - prev) * chord, axis=1) > 0) & \
               (np.sum((v - nxt) * -chord, axis=1) > 0)
        if np.any(flat & np.roll(flat, -1)):
            out.append(f"element {i}: two hanging nodes on one straight segment")
        drift = np.linalg.norm(v - 0.5 * (prev + nxt), axis=1)
        for j in np.flatnonzero(flat & ~np.roll(flat, 1) & ~np.roll(flat, -1)):
            if drift[j] > 1e-10 * d:
                out.append(f"element {i}: hanging node {int(idx[j])} off the parent-edge midpoint")
    topo = build_topology(nodes, elements)
    be = topo.edge[topo.boundary_edge_mask()]
    a, b = nodes[be[:, 0]], nodes[be[:, 1]]
    ab = b - a
    L2 = np.sum(ab * ab, axis=1)
    t = ((nodes[None, :, :] - a[:, None, :]) * ab[:, None, :]).sum(-1) / L2[:, None]
    dist = np.linalg.norm(nodes[None, :, :] - (a[:, None, :] + t[..., None] * ab[:, None, :]), axis=-1)
    hit = (t > 1e-9) & (t < 1.0 - 1e-9) & (dist < 1e-9 * np.sqrt(L2)[:, None])
    for k, j in zip(*np.nonzero(hit)):
        out.append(f"node {int(j)} lies inside unmatched side {tuple(int(x) for x in be[k])}")
    return out


def nonconforming_meshes():
    """Hand-built invalid meshes, plus refined meshes where every other
    hanging node is dropped from the cycle it hangs in and one kept hanging
    node is slid off its parent-edge midpoint."""
    yield double_hang_mesh()
    yield invisible_hang_mesh()
    yield np.array([[0.0, 0.0], [0.8, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]), [[0, 1, 2, 3, 4]]
    rng = np.random.default_rng(3)
    for n in (3, 6):
        nodes, elems = structured_quad_mesh(n)
        for _ in range(2):
            nodes, elems = refine(nodes, elems, rng.choice(len(elems), n, replace=False))
        hung = [(i, j) for i in range(len(elems))
                for j in np.flatnonzero(detect_hanging_nodes(i, nodes, elems))]
        dropped = {(i, elems[i][j]) for i, j in hung[::2]}
        i, j = hung[1]
        cyc = elems[i]
        moved = nodes.copy()
        moved[cyc[j]] += 0.1 * (nodes[cyc[(j + 1) % len(cyc)]] - nodes[cyc[j - 1]])
        yield moved, [[v for v in c if (k, v) not in dropped] for k, c in enumerate(elems)]


def test_structured_quad_mesh_shapes():
    nodes, elems = structured_quad_mesh(4, 3)
    assert len(nodes) == 5 * 4
    assert len(elems) == 12
    assert validate_mesh(nodes, elems).ok
