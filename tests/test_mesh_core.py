import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine import (
    CentroidNotInteriorError,
    DegeneratePolygonError,
    InvalidIndexError,
    MeshError,
    MeshValidationError,
    NonManifoldEdgeError,
    TooDenseError,
    adaptive_loop,
    assemble,
    build_topology,
    check_conformity,
    estimate,
    gaussian_peak_problem,
    load_mesh,
    mesh_area,
    refine,
    render_svg,
    save_mesh,
    structured_quad_mesh,
    validate_mesh,
)
from polyrefine import refinement
from polyrefine.mesh_core import (
    ValidationReport,
    Violation,
    _cells,
    _cycle_arrays,
    _cycle_lists,
    _degenerate,
    _duplicate_node_pairs,
    _nodes_inside_sides,
    _polygon_tables,
    _simple_flags,
    _star_flags,
)
from polyrefine.meshfile import read_mesh_file

from sample_meshes import (
    SQUARE_ELEMS,
    SQUARE_NODES,
    VORONOI_SEEDS,
    across,
    base_mesh_pool,
    centroidal_voronoi_mesh,
    double_hang_mesh,
    hexagon_patch,
    horseshoe_mesh,
    invisible_hang_mesh,
    local_edges,
    local_hanging,
    one_cell,
    pentagon_pair,
    pentagram_mesh,
    thick_u_mesh,
    two_squares,
)

# every entry point that takes an element table and raises for a bad cell; the
# writers write to the working directory, which the tests point at tmp_path
ENTRY_POINTS = {
    "build_topology": build_topology,
    "mesh_area": mesh_area,
    "check_conformity": check_conformity,
    "refine": lambda nodes, elems: refine(nodes, elems, [0]),
    "adaptive_loop": lambda nodes, elems: adaptive_loop(nodes, elems, *gaussian_peak_problem()[::-1], max_steps=0),
    "save_mesh": lambda nodes, elems: save_mesh(nodes, elems, "bad.mesh"),
    "render_svg": lambda nodes, elems: render_svg(nodes, elems, "bad.svg"),
}


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
    """Triangulation-fan oracle for area and centroid of a star-shaped polygon.
    A polygon of zero area has no centroid: it comes back as NaN."""
    area = 0.0
    cen = np.zeros(2)
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        tri = 0.5 * ((a[0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (a[1] - c[1]))
        area += tri
        cen += tri * (a + b + c) / 3.0
    return abs(area), (cen / area if area != 0.0 else np.full(2, np.nan))


class TestBuildTopology:
    def test_single_square(self):
        topo = build_topology(SQUARE_NODES, SQUARE_ELEMS)
        assert topo.num_edges == 4
        assert np.all(topo.edge2elem == 0)
        assert list(across(topo, 0)) == [0, 0, 0, 0]
        assert topo.diameter[0] == pytest.approx(np.sqrt(2.0))
        assert topo.centroid[0] == pytest.approx([0.5, 0.5])

    def test_empty_element_table_is_rejected(self):
        with pytest.raises(ValueError, match="element table is empty"):
            build_topology(SQUARE_NODES, [])

    def test_two_squares(self):
        nodes, elems = two_squares()
        topo = build_topology(nodes, elems)
        assert topo.num_edges == 7
        interior = topo.edge2elem[:, 0] != topo.edge2elem[:, 1]
        assert interior.sum() == 1
        assert list(across(topo, 0)).count(1) == 1
        assert list(across(topo, 1)).count(0) == 1

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

    @pytest.mark.parametrize("mesh", ["grid", "voronoi", "scattered"])
    def test_edge2elem_columns_hold_first_and_last_side_owners(self, mesh):
        # column 0 owns the edge's first side in cycle order, column 1 its last
        if mesh == "grid":
            nodes, elems = structured_quad_mesh(3)
        elif mesh == "voronoi":
            nodes, elems = centroidal_voronoi_mesh(0)
        else:
            rng = np.random.default_rng(3)
            nodes, elems = structured_quad_mesh(4)
            for _ in range(3):
                nodes, elems = refine(nodes, elems, rng.choice(len(elems), max(1, len(elems) // 6), replace=False))
        first, last = {}, {}
        for i, cyc in enumerate(elems):
            for j in range(len(cyc)):
                key = tuple(sorted((int(cyc[j]), int(cyc[(j + 1) % len(cyc)]))))
                first.setdefault(key, i)
                last[key] = i
        topo = build_topology(nodes, elems)
        assert topo.edge2elem.tolist() == [[first[e], last[e]] for e in map(tuple, topo.edge.tolist())]
        assert (topo.edge2elem[:, 0] != topo.edge2elem[:, 1]).any()

    def test_edge_table_sorted_rows(self):
        nodes, elems = structured_quad_mesh(4)
        topo = build_topology(nodes, elems)
        assert np.all(topo.edge[:, 0] < topo.edge[:, 1])
        assert np.all(np.diff(topo.edge[:, 0] * len(nodes) + topo.edge[:, 1]) > 0)

    def test_cycle_edges_resolve_vertex_pairs(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        for i, cyc in enumerate(elems):
            for j in range(len(cyc)):
                pair = {cyc[j], cyc[(j + 1) % len(cyc)]}
                assert set(topo.edge[local_edges(topo, i)[j]]) == pair

    def test_interior_edges_mutually_listed(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        for k in np.flatnonzero(~topo.boundary_edge_mask()):
            a, b = topo.edge2elem[k]
            assert a != b
            assert b in across(topo, a)
            assert a in across(topo, b)

    def test_deterministic(self):
        nodes, elems = structured_quad_mesh(4)
        t1 = build_topology(nodes, elems)
        t2 = build_topology(nodes, elems)
        assert np.array_equal(t1.edge, t2.edge)
        assert np.array_equal(t1.edge2elem, t2.edge2elem)
        assert np.array_equal(t1.cycle_edges, t2.cycle_edges)
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

    @pytest.mark.parametrize("derive", [build_topology, mesh_area])
    @pytest.mark.parametrize("cycle, at", [([], 1), ([0], 1), ([], 4), ([0, 1], 1)],
                             ids=["empty", "one-vertex", "empty-last", "two-vertex"])
    def test_cycle_with_fewer_than_3_vertices(self, derive, cycle, at):
        nodes, elems = structured_quad_mesh(2)
        elems.insert(at, cycle)
        with pytest.raises(DegeneratePolygonError, match=f"element {at} has {len(cycle)} vertices"):
            derive(nodes, elems)

    @pytest.mark.parametrize("derive", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
    def test_short_cycle_is_reported_before_a_non_index(self, derive, tmp_path, monkeypatch):
        # the precedence of validate_mesh, which reports [0, 99] as too-few-vertices
        nodes, elems = structured_quad_mesh(2)
        elems[1] = [1, 2, 99, 4]
        elems.insert(3, [0, 99])
        kinds = [(v.kind, v.where) for v in validate_mesh(nodes, elems).violations]
        assert kinds == [("invalid-index", 1), ("too-few-vertices", 3)]
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DegeneratePolygonError, match="element 3 has 2 vertices"):
            derive(nodes, elems)
        assert list(tmp_path.iterdir()) == []


def cell_tables(vertices):
    """Signed area, centroid and diameter of one polygon, read from its one-cell topology."""
    topo = build_topology(*one_cell(vertices))
    return topo.area[0], topo.centroid[0], topo.diameter[0]


def voronoi_cells():
    """The cells of the centroidal Voronoi corpus, as vertex arrays."""
    for seed in VORONOI_SEEDS:
        nodes, elems = centroidal_voronoi_mesh(seed)
        yield from (nodes[np.asarray(c)] for c in elems)


class TestPolygonGeometry:
    def test_area_unit_square(self):
        assert cell_tables(SQUARE_NODES)[0] == pytest.approx(1.0)

    def test_area_triangle(self):
        assert cell_tables([(0, 0), (1, 0), (0, 1)])[0] == pytest.approx(0.5)

    def test_area_regular_hexagon(self):
        # closed form for a regular n-gon with circumradius r: n/2 r^2 sin(2 pi / n)
        oracle = 6 / 2 * np.sin(2 * np.pi / 6)
        assert cell_tables(regular_polygon(6))[0] == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(3 * np.sqrt(3) / 2)

    def test_area_degenerate_raises(self):
        with pytest.raises(DegeneratePolygonError):
            cell_tables([(0, 0), (1, 0), (2, 0)])

    def test_centroid_square(self):
        assert cell_tables(SQUARE_NODES)[1] == pytest.approx([0.5, 0.5])

    def test_centroid_triangle_vertex_average(self):
        assert cell_tables([(0, 0), (3, 0), (0, 3)])[1] == pytest.approx([1.0, 1.0])

    def test_centroid_l_shape_against_rectangle_decomposition(self):
        hexagon = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        # decomposition: [0,2]x[0,1] (area 2) and [0,1]x[1,2] (area 1)
        oracle = (2 * np.array([1.0, 0.5]) + 1 * np.array([0.5, 1.5])) / 3.0
        assert cell_tables(hexagon)[1] == pytest.approx(oracle, rel=1e-12)

    def test_diameter_square(self):
        assert cell_tables(SQUARE_NODES)[2] == pytest.approx(np.sqrt(2.0))

    def test_diameter_thin_rectangle(self):
        rect = [(0, 0), (1, 0), (1, 0.01), (0, 0.01)]
        assert cell_tables(rect)[2] == pytest.approx(np.sqrt(1.0001))

    def test_diameter_triangle_is_a_side(self):
        assert cell_tables([(0, 0), (3, 0), (0, 4)])[2] == 5.0

    def test_degeneracy_bound_is_shared(self):
        # |area| < 1e-14 h^2 is degenerate for every caller of the geometry kernel
        for eps, degenerate in ((5e-15, True), (2e-14, False)):
            rect = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, eps], [0.0, eps]])
            kinds = [v.kind for v in validate_mesh(rect, SQUARE_ELEMS).violations]
            assert ("degenerate" in kinds) == degenerate
            for call in (lambda: mesh_area(rect, SQUARE_ELEMS),
                         lambda: build_topology(rect, SQUARE_ELEMS)):
                if degenerate:
                    with pytest.raises(DegeneratePolygonError):
                        call()
                else:
                    call()

    def test_diameter_octagon_all_pairs_oracle(self):
        rng = np.random.default_rng(42)
        pts, _ = star_shaped(rng.uniform(-1, 1, size=(8, 2)))
        oracle = max(
            np.linalg.norm(pts[i] - pts[j]) for i, j in itertools.combinations(range(8), 2)
        )
        assert cell_tables(pts)[2] == pytest.approx(oracle, rel=0, abs=0)
        for v in voronoi_cells():
            oracle = max(np.linalg.norm(a - b) for a, b in itertools.combinations(v, 2))
            assert cell_tables(v)[2] == pytest.approx(oracle, rel=1e-15)

    def test_one_cell_topology_equals_mesh_rows(self):
        rng = np.random.default_rng(5)
        for nodes, elems in base_mesh_pool():
            nodes, elems = refine(nodes, elems, rng.choice(len(elems), 3, replace=False))
            topo = build_topology(nodes, elems)
            for i, cyc in enumerate(elems):
                area, centroid, diameter = cell_tables(nodes[np.asarray(cyc)])
                assert area == topo.area[i]
                assert np.array_equal(centroid, topo.centroid[i])
                assert diameter == topo.diameter[i]

    def test_mesh_area_degenerate_raises(self):
        nodes = np.vstack([SQUARE_NODES, [[2.0, 0.0], [3.0, 0.0]]])
        with pytest.raises(DegeneratePolygonError, match="element 1"):
            mesh_area(nodes, [[0, 1, 2, 3], [1, 4, 5]])

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
        area, centroid, _ = cell_tables(poly)
        assert area == pytest.approx(area_o, rel=1e-9)
        assert centroid == pytest.approx(cen_o, rel=1e-7, abs=1e-9)

    def test_area_centroid_of_voronoi_cells_against_fan_oracle(self):
        for v in voronoi_cells():
            area_o, cen_o = fan_area_centroid(v, v.mean(axis=0))
            area, centroid, _ = cell_tables(v)
            assert area == pytest.approx(area_o, rel=1e-12)
            assert centroid == pytest.approx(cen_o, rel=1e-12, abs=1e-14)


def hanging_definition(nodes, cyc, diameter):
    """Per-vertex hanging flags of one cycle, straight from the definition."""
    v = nodes[np.asarray(cyc)]
    err = np.linalg.norm(v - 0.5 * (np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0)), axis=1)
    return err < 1e-10 * diameter


class TestHangingNodes:
    def test_square_with_midpoint(self):
        nodes = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        hanging = build_topology(nodes, [[0, 1, 2, 3, 4]]).hanging
        assert list(hanging) == [False, True, False, False, False]

    def test_plain_square(self):
        assert not build_topology(SQUARE_NODES, SQUARE_ELEMS).hanging.any()

    def test_perturbed_midpoint_not_flagged(self):
        base = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        d = cell_tables(base)[2]
        base[1, 1] += 1e-6 * d  # push off the midpoint by 1e-6 diameters
        assert not build_topology(base, [[0, 1, 2, 3, 4]]).hanging.any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 4))
    def test_rotation_invariance(self, shift):
        nodes = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cyc = [0, 1, 2, 3, 4]
        rotated = cyc[shift:] + cyc[:shift]
        base = build_topology(nodes, [cyc]).hanging
        rot = build_topology(nodes, [rotated]).hanging
        assert list(rot) == list(np.roll(base, -shift))

    def test_detect_hanging_nodes_matches_definition(self):
        nodes, elems = pentagon_pair()
        topo = build_topology(nodes, elems)
        for i in range(len(elems)):
            assert list(local_hanging(topo, i)) == list(hanging_definition(nodes, elems[i], topo.diameter[i]))


def test_topology_hanging_equals_detect_hanging_nodes():
    """MeshTopology.hanging equals the per-element definition on refined pool meshes."""
    rng = np.random.default_rng(5)
    for nodes, elems in base_mesh_pool():
        meshes = [(nodes, elems)]
        for _ in range(3):
            marked = rng.choice(len(elems), max(1, len(elems) // 4), replace=False)
            nodes, elems = refine(nodes, elems, marked)
            meshes.append((nodes, elems))
        for nodes, elems in meshes:
            topo = build_topology(nodes, elems)
            per_element = [hanging_definition(nodes, cyc, topo.diameter[i]) for i, cyc in enumerate(elems)]
            assert topo.hanging.dtype == bool
            assert np.array_equal(topo.hanging, np.concatenate(per_element))
        assert topo.hanging.any()


def malformed_meshes():
    sq = SQUARE_NODES
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    crossed = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    nan = sq.copy()
    nan[2, 1] = np.nan
    yield pytest.param(sq, [[0, 1]], id="too-few")
    yield pytest.param(sq, [[0, 1, 9, 2]], id="out-of-range")
    yield pytest.param(sq, [[0, 1, -1, 2]], id="negative")
    yield pytest.param(sq, [[0, 1, 2.0, 3]], id="float")
    yield pytest.param(sq, [[0, 1, 2, 10**30], [0, 1, -(10**30), 3]], id="huge")
    yield pytest.param(sq, [[0, 1, 1, 2]], id="repeated")
    yield pytest.param(sq, [[0, 3, 2, 1]], id="clockwise")
    yield pytest.param(bowtie, [[0, 1, 2, 3]], id="bowtie")
    # zero area with an infinite centroid coordinate, and a side parallel to each axis
    hourglass = np.array([[0.5, 0.5], [0.5, 1.5], [1.0, 1.5], [0.0, 0.5]])
    yield pytest.param(hourglass, [[0, 1, 2, 3]], id="hourglass")
    yield pytest.param(crossed, [[0, 1, 2, 3]], id="self-intersecting")
    yield pytest.param(*horseshoe_mesh(), id="horseshoe")
    yield pytest.param(np.vstack([sq, [1e-16, 0.0]]), [[0, 1, 2, 3]], id="duplicate-nodes")
    yield pytest.param(nan, SQUARE_ELEMS, id="nan-node")
    yield pytest.param(np.zeros(3), SQUARE_ELEMS, id="node-table")
    mixed = np.vstack([sq, [[2.0, 0.0], [2.0, 1.0], [1e-16, 0.0]]])
    yield pytest.param(mixed, [[0, 1], [1, 4, 5, 2], [0, 3, 2, 1], [1, 4, 4, 2], [0, 1, 2, 9],
                               [0.5, 1, 2], [1, 4, 5, 2, 3, 0], np.array([0, 1, 2, 3]), [0, 9],
                               [5, 5, 5], [6, 1, 2, 3]], id="mixed")


class TestValidateMesh:
    def test_memory_of_a_valid_grid(self):
        # the whole-table arrays go once the passed cells are gathered, the edge
        # arrays once the overlap check is done: 10.6 MiB while they stayed alive
        import tracemalloc

        nodes, elems = structured_quad_mesh(128)
        tracemalloc.start()
        try:
            report = validate_mesh(nodes, elems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 9.5 * 2**20

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

    def test_edge_of_three_elements(self, tmp_path):
        # each triangle is valid on its own; refine would raise NonManifoldEdgeError
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
        elems = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
        report = validate_mesh(nodes, elems)
        assert report.violations == [Violation("non-manifold-edge", (0, 1), "edge shared by 3 elements")]
        save_mesh(nodes, elems, tmp_path / "three.mesh")
        with pytest.raises(MeshValidationError, match="non-manifold-edge"):
            load_mesh(tmp_path / "three.mesh")

    def test_sliver_triangle_is_self_intersecting(self):
        # area / d^2 = 5e-14 is above the degeneracy bound and every turn is a
        # left turn, but the apex lies within 1e-12 diameters of the base
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13]])
        report = validate_mesh(nodes, [[0, 1, 2]])
        assert report.violations == [Violation("self-intersection", 0, "polygon is not simple")]
        assert report.violations == validate_mesh_oracle(nodes, [[0, 1, 2]]).violations

    def test_twin_element_overlaps(self, tmp_path):
        # one cell listed twice: every edge is shared by two elements, as in a
        # valid mesh, but both traverse it in the same direction
        nodes, _ = structured_quad_mesh(2)
        elems = [[0, 1, 4, 3], [0, 1, 4, 3]]
        report = validate_mesh(nodes, elems)
        detail = "edge traversed in the same direction by two elements"
        edges = [(0, 1), (1, 4), (3, 0), (4, 3)]
        assert report.violations == [Violation("overlap", e, detail) for e in edges]
        assert report.violations == validate_mesh_oracle(nodes, elems).violations
        save_mesh(nodes, elems, tmp_path / "twin.mesh")
        with pytest.raises(MeshValidationError, match="overlap"):
            load_mesh(tmp_path / "twin.mesh")

    @pytest.mark.parametrize("nodes, elems, edge", [
        ([[0, 0], [1, 0], [0, 1], [0, -1], [1, 1]], [[0, 1, 2], [0, 3, 1], [0, 1, 4]], (0, 1)),
        (structured_quad_mesh(2)[0], [[0, 1, 4, 3], [0, 1, 4, 3], [1, 2, 5, 4]], (1, 4)),
    ], ids=["three-triangles", "twin-quad-and-a-neighbour"])
    def test_non_manifold_edge_verdicts_agree(self, nodes, elems, edge):
        # build_topology raises for the edge that validate_mesh reports, with the same use count
        crowded = [v for v in validate_mesh(nodes, elems).violations if v.kind == "non-manifold-edge"]
        assert crowded == [Violation("non-manifold-edge", edge, "edge shared by 3 elements")]
        with pytest.raises(NonManifoldEdgeError) as exc:
            build_topology(nodes, elems)
        assert str(exc.value) == f"edge {edge} shared by 3 elements"

    def test_clockwise_neighbour_is_only_an_orientation_violation(self):
        # the reversed right square traverses the shared edge 1 -> 4 as the left one does
        nodes, elems = two_squares()
        elems = [elems[0], elems[1][::-1]]
        report = validate_mesh(nodes, elems)
        assert [(v.kind, v.where) for v in report.violations] == [("orientation", 1)]
        assert report.violations == validate_mesh_oracle(nodes, elems).violations

    def test_empty_element_table(self):
        report = validate_mesh(SQUARE_NODES, [])
        assert [(v.kind, v.where) for v in report.violations] == [("element-table", None)]

    @pytest.mark.parametrize("nodes, elems", [
        pytest.param(*mesh, id=f"pool{k}") for k, mesh in enumerate(base_mesh_pool())
    ])
    def test_matches_oracle_on_pool(self, nodes, elems):
        assert validate_mesh(nodes, elems).violations == validate_mesh_oracle(nodes, elems).violations

    def test_matches_oracle_on_refined_meshes(self):
        rng = np.random.default_rng(11)
        for nodes, elems in base_mesh_pool():
            for _ in range(3):
                marked = rng.choice(len(elems), max(1, len(elems) // 4), replace=False)
                nodes, elems = refine(nodes, elems, marked)
                report = validate_mesh(nodes, elems)
                assert report.ok
                assert report.violations == validate_mesh_oracle(nodes, elems).violations

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # degenerate cells included
    @pytest.mark.parametrize("nodes, elems", malformed_meshes())
    def test_matches_oracle_on_malformed_input(self, nodes, elems):
        report = validate_mesh(nodes, elems)
        assert not report.ok
        assert report.violations == validate_mesh_oracle(nodes, elems).violations


@st.composite
def star_shaped_meshes(draw):
    """One cell with its vertices at sorted random angles and radii about a
    random point, alone or glued along one side to a triangle outside it."""
    L = draw(st.integers(3, 11))
    gaps = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=L, max_size=L)))
    angles = draw(st.floats(0.0, 2.0 * np.pi)) + 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    radii = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=L, max_size=L)))
    centre = np.array(draw(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))))
    nodes = centre + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    if not draw(st.booleans()):
        return nodes, [list(range(L))]
    # a side with every other vertex strictly left of its line has the cell
    # on one side of that line; the triangle goes on the other
    first = draw(st.integers(0, L - 1))
    for k in (np.arange(L) + first) % L:
        a, b = nodes[k], nodes[(k + 1) % L]
        rest = np.delete(nodes, [k, (k + 1) % L], axis=0) - a
        if ((b[0] - a[0]) * rest[:, 1] - (b[1] - a[1]) * rest[:, 0] > 1e-6).all():
            apex = 0.5 * (a + b) + draw(st.floats(0.1, 1.0)) * np.array([b[1] - a[1], a[0] - b[0]])
            return np.vstack([nodes, apex]), [list(range(L)), [int((k + 1) % L), int(k), L]]
    return nodes, [list(range(L))]


def shoelace_magnitude(nodes, elems):
    """Half the sum of ``|x_i y_(i+1)| + |x_(i+1) y_i|`` over all cells, the size
    of the terms the shoelace area rounds at.  It is of the order of the area
    for a cell around the origin, and far larger for a thin cell far from it."""
    total = 0.0
    for cyc in elems:
        v = nodes[cyc]
        w = np.roll(v, -1, axis=0)
        total += 0.5 * np.sum(np.abs(v[:, 0] * w[:, 1]) + np.abs(w[:, 0] * v[:, 1]))
    return total


class TestRefinable:
    """``validate_mesh`` accepts a mesh exactly when ``refine`` can subdivide
    it: every cell star-shaped about its centroid."""

    @pytest.mark.parametrize("mesh, kind", [
        pytest.param(thick_u_mesh(), "centroid-not-interior", id="thick-u"),
        pytest.param(pentagram_mesh(), "self-intersection", id="pentagram"),
    ])
    def test_rejected_and_left_untouched(self, mesh, kind):
        nodes, elems = mesh
        kept = nodes.copy(), [list(c) for c in elems]
        report = validate_mesh(nodes, elems)
        assert [(v.kind, v.where) for v in report.violations] == [(kind, 0)]
        assert report.violations == validate_mesh_oracle(nodes, elems).violations
        with pytest.raises(CentroidNotInteriorError, match="element 0: not star-shaped about its centroid"):
            refine(nodes, elems, [0])
        assert np.array_equal(nodes, kept[0]) and elems == kept[1]

    @settings(max_examples=300, deadline=None)
    @given(star_shaped_meshes())
    def test_valid_exactly_when_refinable(self, mesh):
        nodes, elems = mesh
        kept = nodes.copy(), [list(c) for c in elems]
        report = validate_mesh(nodes, elems)
        assert report.violations == validate_mesh_oracle(nodes, elems).violations
        try:
            out_nodes, out_elems = refine(nodes, elems, [0])
        except MeshError:
            assert not report.ok
            assert np.array_equal(nodes, kept[0]) and elems == kept[1]
            return
        assert report.ok
        # a dart-shaped subcell may not be refinable again, but is simple and counterclockwise
        out = validate_mesh(out_nodes, out_elems).violations
        assert {v.kind for v in out} <= {"centroid-not-interior"}
        assert out == validate_mesh_oracle(out_nodes, out_elems).violations
        tol = 1e-13 * shoelace_magnitude(nodes, elems)
        assert mesh_area(out_nodes, out_elems) == pytest.approx(mesh_area(nodes, elems), rel=0.0, abs=tol)
        assert check_conformity(out_nodes, out_elems) == []


def star_cells_not_simple(nodes, offsets, cycles):
    """Live cells (counterclockwise, not degenerate) that ``_star_flags``
    accepts about their centroid and ``_simple_flags`` rejects, and the
    number of star-shaped live cells checked."""
    area, centroid, diam = _polygon_tables(nodes, offsets, cycles)
    live = ~_degenerate(area, diam) & (area > 0)
    with np.errstate(invalid="ignore"):  # degenerate cells have inf/nan centroids
        star = live & _star_flags(nodes, offsets, cycles, centroid, diam)
    bad = np.flatnonzero(star)[~_simple_flags(nodes, *_cells(offsets, cycles, star), diam[star])]
    return bad, int(star.sum())


class TestStarImpliesSimple:
    """``validate_mesh`` runs ``_simple_flags`` only on the cells that
    ``_star_flags`` rejects, so no star-shaped cell may be tangled."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_kernel_polygons(self, seed):
        checked = 0
        for L, V in kernel_polygons(np.random.default_rng(seed)).items():
            offsets = np.arange(len(V) + 1) * L
            bad, n = star_cells_not_simple(V.reshape(-1, 2), offsets, np.arange(offsets[-1]))
            assert bad.size == 0, (L, V[bad[:3]])
            checked += n
        assert checked > 2500

    @settings(max_examples=300, deadline=None)
    @given(star_shaped_meshes())
    def test_star_shaped_meshes(self, mesh):
        nodes, elems = mesh
        bad, _ = star_cells_not_simple(nodes, *_cycle_arrays(elems, len(nodes)))
        assert bad.size == 0


class TestPolygonKernels:
    def test_kernels_match_oracles(self):
        # the flat kernels against stacked (M, L, 2) oracles: flag for flag,
        # and the diameter bit for bit
        rng = np.random.default_rng(8)
        counts = np.zeros(4, dtype=np.int64)
        for L, V in kernel_polygons(rng).items():
            offsets = np.arange(len(V) + 1) * L
            diam = _polygon_tables(V.reshape(-1, 2), offsets, np.arange(offsets[-1]))[2]
            assert diam.tobytes() == diameter_oracle(V).tobytes(), L
            simple = _simple_flags(V.reshape(-1, 2), offsets, np.arange(offsets[-1]), diam)
            assert np.array_equal(simple, simple_flags_oracle(V, diam)), L
            counts += [simple.size, np.count_nonzero(~simple), 0, 0]
            for points in kernel_points(V, rng):
                star = _star_flags(V.reshape(-1, 2), offsets, np.arange(offsets[-1]), points, diam)
                assert np.array_equal(star, star_flags_oracle(V, diam, points)), L
                counts += [0, 0, star.size, np.count_nonzero(~star)]
        # every kind of outcome is well represented
        assert counts[0] > 5000 and counts[1] > 1000
        assert counts[2] > 200000 and 20000 < counts[3] < counts[2] - 20000

    def test_kernels_on_one_mixed_table(self):
        # every stack in one flat table, cells shuffled, with two 400-gons: the
        # walk leaves a cycle once it has seen all its pairs, and must neither
        # lose a pair nor test one the stacked oracles leave out
        rng = np.random.default_rng(11)
        stacks = list(kernel_polygons(rng).values())
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 400))
        star = rng.uniform(0.5, 1.0, (400, 1)) * np.column_stack([np.cos(angles), np.sin(angles)])
        long_cells = np.stack([star, star[np.r_[0:100, 102, 101, 100, 103:400]]])
        assert simple_flags_oracle(long_cells, diameter_oracle(long_cells)).tolist() == [True, False]
        stacks.append(long_cells)
        cells = [V[i] for V in stacks for i in range(len(V))]
        order = rng.permutation(len(cells))
        offsets = np.r_[0, np.cumsum([len(cells[k]) for k in order])]
        nodes = np.concatenate([cells[k] for k in order])
        diam = _polygon_tables(nodes, offsets, np.arange(offsets[-1]))[2]
        want = np.concatenate([diameter_oracle(V) for V in stacks])
        assert diam.tobytes() == want[order].tobytes()
        simple = np.concatenate([simple_flags_oracle(V, diameter_oracle(V)) for V in stacks])
        assert np.array_equal(_simple_flags(nodes, offsets, np.arange(offsets[-1]), diam), simple[order])

    def test_short_side_beside_a_longer_cycle(self):
        # a square with a vertex 1e-151 past a corner: t = |s|^2 / 1e-300 puts
        # that side's own end inside it, which a walk wrapped past the end of
        # this cycle, by a 7-gon in the same table, must not read as a pinch
        tiny = np.array([[0.0, 0.0], [1e-151, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        angles = 2.0 * np.pi * np.arange(7) / 7
        nodes = np.vstack([tiny, np.column_stack([np.cos(angles), np.sin(angles)])])
        offsets = np.array([0, 5, 12])
        diam = _polygon_tables(nodes, offsets, np.arange(12))[2]
        assert _simple_flags(nodes, offsets, np.arange(12), diam).tolist() == [True, True]
        assert simple_flags_oracle(tiny[None], diam[:1]).tolist() == [True]


class TestDuplicateNodePairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_planted_clouds(self, seed):
        rng = np.random.default_rng(seed)
        tol = 1e-3
        nodes = rng.uniform(0.0, 0.05, size=(120, 2))
        # near-duplicates inside and just outside the tolerance, and a triple
        hosts = rng.choice(len(nodes), 12, replace=False)
        dirs = rng.normal(size=(12, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        scale = np.array([0.1, 0.5, 0.9, 0.99, 1.01, 1.5] * 2)[:, None] * tol
        nodes = np.vstack([nodes, nodes[hosts] + scale * dirs, nodes[hosts[:1]] + 0.3 * tol])
        pairs = _duplicate_node_pairs(nodes, tol)
        assert pairs == brute_force_pairs(nodes, tol)
        assert len(pairs) >= 8

    @pytest.mark.parametrize("offset", [1e8, 1e12])
    def test_moved_far_from_the_origin(self, offset):
        # raw coordinates over 2 * tol overflow int64 lattice keys at these offsets
        nodes = structured_quad_mesh(24)[0] + offset
        nodes = np.vstack([nodes, nodes[[0, 100, 200, 300, 624]]])
        tol = 1e-12 * float(np.hypot(*np.ptp(nodes, axis=0)))
        pairs = _duplicate_node_pairs(nodes, tol)
        assert pairs == brute_force_pairs(nodes, tol)
        assert pairs == [(0, 625), (100, 626), (200, 627), (300, 628), (624, 629)]

    def test_exact_duplicates_and_single_node(self):
        nodes = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        assert _duplicate_node_pairs(nodes, 1e-12) == [(0, 2), (0, 3), (2, 3)]
        assert _duplicate_node_pairs(nodes[:1], 1e-12) == []


def brute_force_pairs(nodes, tol):
    """All index pairs closer than ``tol``, by the same distance computation."""
    return [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))
            if np.linalg.norm(nodes[i] - nodes[j]) < tol]


def validate_mesh_oracle(nodes, elements):
    """Per-element structural checks and per-length geometry with its own
    shoelace, diameter and centroid: the reference for ``validate_mesh``'s
    report, its details and its order."""
    out = []
    try:
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("node table must have shape (N, 2)")
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

    N = len(nodes)
    geometric = []
    for i, cyc in enumerate(elements):
        cyc = list(cyc)
        if len(cyc) < 3:
            out.append(Violation("too-few-vertices", i, f"cycle has {len(cyc)} vertices"))
            continue
        if any(vertex_index(v, N) < 0 for v in cyc):
            out.append(Violation("invalid-index", i, "vertex index out of range"))
            continue
        if len(set(cyc)) != len(cyc):
            out.append(Violation("repeated-vertex", i, "cycle revisits a vertex"))
            continue
        geometric.append(i)

    shared = {}
    for i in geometric:
        cyc = list(elements[i])
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edge = (int(min(a, b)), int(max(a, b)))
            shared[edge] = shared.get(edge, 0) + 1
    for edge, count in sorted(shared.items()):
        if count > 2:
            out.append(Violation("non-manifold-edge", edge, f"edge shared by {count} elements"))

    lengths = np.array([len(elements[i]) for i in geometric], dtype=np.int64)
    ccw = []
    for L in np.unique(lengths):
        idx = np.array(geometric, dtype=np.int64)[lengths == L]
        V = nodes[np.array([elements[i] for i in idx], dtype=np.int64)]
        w = np.roll(V, -1, axis=1)
        sa = 0.5 * np.sum(V[..., 0] * w[..., 1] - w[..., 0] * V[..., 1], axis=1)
        diff = V[:, :, None, :] - V[:, None, :, :]
        diam = np.sqrt(np.max(np.sum(diff * diff, axis=-1), axis=(1, 2)))
        live = np.ones(len(idx), dtype=bool)

        degenerate = np.abs(sa) < 1e-14 * diam * diam
        for i in idx[degenerate]:
            out.append(Violation("degenerate", int(i), "polygon area is numerically zero"))
        live &= ~degenerate
        clockwise = live & (sa < 0)
        for i in idx[clockwise]:
            out.append(Violation("orientation", int(i), "vertices are not counterclockwise"))
        live &= ~clockwise
        ccw.extend(idx[live].tolist())
        if not live.any():
            continue
        tangled = ~simple_flags_oracle(V[live], diam[live])
        for i in idx[live][tangled]:
            out.append(Violation("self-intersection", int(i), "polygon is not simple"))
        keep = live.copy()
        keep[live] = ~tangled
        if not keep.any():
            continue
        cr = (V[..., 0] * w[..., 1] - w[..., 0] * V[..., 1])[keep]
        cen = np.stack(
            [((V + w)[keep, :, 0] * cr).sum(1), ((V + w)[keep, :, 1] * cr).sum(1)], axis=1
        ) / (6.0 * sa[keep])[:, None]
        outside = ~star_flags_oracle(V[keep], diam[keep], cen)
        for i in idx[keep][outside]:
            out.append(Violation("centroid-not-interior", int(i),
                                 "polygon is not star-shaped about its centroid"))

    traversed = {}
    for i in sorted(ccw):
        cyc = [int(v) for v in elements[i]]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            traversed[(a, b)] = traversed.get((a, b), 0) + 1
    for (a, b), count in sorted(traversed.items()):
        if count > 1 and shared[(min(a, b), max(a, b))] == 2:
            out.append(Violation("overlap", (a, b), "edge traversed in the same direction by two elements"))

    out.sort(key=lambda v: (v.where if isinstance(v.where, int) else -1, v.kind))
    return ValidationReport(out)


def simple_flags_oracle(V: np.ndarray, diam: np.ndarray) -> np.ndarray:
    """Simplicity test for a stack of same-size polygons (M, L, 2)."""
    M, L, _ = V.shape
    ok = np.ones(M, dtype=bool)
    A = V
    Bv = np.roll(V, -1, axis=1)
    eps = (1e-12 * diam * diam)[:, None]
    # non-adjacent side pairs i < j; sides 0 and L - 1 meet at vertex 0
    i, j = np.triu_indices(L, 2)
    keep = (i > 0) | (j < L - 1)
    i, j = i[keep], j[keep]
    if len(i):
        a1, b1, a2, b2 = A[:, i], Bv[:, i], A[:, j], Bv[:, j]

        def cr(o, p, q):
            return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) \
                 - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0])

        d1, d2 = cr(a2, b2, a1), cr(a2, b2, b1)
        d3, d4 = cr(a1, b1, a2), cr(a1, b1, b2)
        proper = (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & \
                 (((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps)))
        bad = proper
        coll = (np.abs(d1) <= eps) & (np.abs(d2) <= eps) & (np.abs(d3) <= eps) & (np.abs(d4) <= eps)
        if coll.any():
            # collinear pairs: flag genuine 1-D interval overlap
            u = b1 - a1
            ulen2 = np.maximum((u * u).sum(-1), 1e-300)
            ta = ((a2 - a1) * u).sum(-1)
            tb = ((b2 - a1) * u).sum(-1)
            overlap = np.minimum(np.maximum(ta, tb), ulen2) - np.maximum(np.minimum(ta, tb), 0.0)
            bad = bad | (coll & (overlap > 1e-9 * ulen2))
        ok &= ~bad.any(axis=1)
    # a vertex touching a non-incident side pinches the boundary
    a = A[:, None, :, :]
    ab = (Bv - A)[:, None, :, :]
    p = V[:, :, None, :]
    L2 = np.maximum((ab * ab).sum(-1), 1e-300)
    t = ((p - a) * ab).sum(-1) / L2
    proj = a + np.clip(t, 0.0, 1.0)[..., None] * ab
    dist2 = ((p - proj) ** 2).sum(-1)
    k = np.arange(L)
    incident = np.zeros((L, L), dtype=bool)
    incident[k, k] = True
    incident[k, (k - 1) % L] = True
    touch = (dist2 < ((1e-12 * diam) ** 2)[:, None, None]) & \
            (t > 1e-9) & (t < 1 - 1e-9) & ~incident[None, :, :]
    ok &= ~touch.any(axis=(1, 2))
    return ok


def star_flags_oracle(V: np.ndarray, diam: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Star-shapedness about one test point per stacked polygon: the point is
    left of every side's line by more than ``1e-12 diam²``, and the winding
    number, summed from the angles each side subtends at it, is 1."""
    a = V
    b = np.roll(V, -1, axis=1)
    p = points[:, None, :]
    cross = (b[..., 0] - a[..., 0]) * (p[..., 1] - a[..., 1]) \
        - (b[..., 1] - a[..., 1]) * (p[..., 0] - a[..., 0])
    u, w = a - p, b - p
    turn = np.arctan2(u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0], (u * w).sum(-1))
    winding = np.rint(turn.sum(axis=1) / (2.0 * np.pi))
    return (cross > (1e-12 * diam * diam)[:, None]).all(axis=1) & (winding == 1)


def diameter_oracle(V: np.ndarray) -> np.ndarray:
    """All-pairs diameter of a stack of same-size polygons (M, L, 2), pair by pair."""
    i, j = np.triu_indices(V.shape[1], 1)
    d = V[:, i] - V[:, j]
    return np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).max(axis=1, initial=0.0))


def kernel_polygons(rng):
    """``{L: (M, L, 2) stack}`` for L = 3..9: mesh cells and random polygons
    made to sit on the kernels' tolerances.

    The mesh cells are every cell of the base pool, of the Voronoi corpus and
    of two random refinement passes over the pool.  The random polygons are
    scrambled point sets, slivers 1e-13 thick, half-integer lattice points
    (collinear, overlapping and touching sides), cycles with midpoint runs
    on their sides, and each of these moved by 1e-12 jitter.
    """
    pool = base_mesh_pool()
    meshes = pool + [centroidal_voronoi_mesh(s) for s in VORONOI_SEEDS]
    for nodes, elems in pool:
        for _ in range(2):
            marked = rng.choice(len(elems), max(1, len(elems) // 4), replace=False)
            nodes, elems = refine(nodes, elems, marked)
        meshes.append((nodes, elems))
    cells = [np.asarray(nodes, dtype=float)[c] for nodes, elems in meshes for c in elems]
    for L in range(3, 10):
        for _ in range(100):
            scrambled = rng.uniform(-1.0, 1.0, size=(L, 2))
            line = rng.uniform(0.0, 1.0, size=L)
            sliver = np.column_stack([line, 1e-13 * rng.choice([-1.0, 0.0, 1.0], size=L)])
            lattice = 0.5 * rng.integers(0, 4, size=(L, 2))
            # a star-shaped polygon with L - c extra points spread evenly over its sides
            c = int(rng.integers(max(3, (L + 1) // 2), L + 1))
            corners, _ = star_shaped(rng.uniform(-1.0, 1.0, size=(c, 2)))
            extra = np.bincount(rng.integers(0, c, size=L - c), minlength=c)
            runs = np.concatenate([
                a + np.arange(q + 1)[:, None] / (q + 1) * (b - a)
                for a, b, q in zip(corners, np.roll(corners, -1, axis=0), extra)
            ])
            for V in (scrambled, sliver, lattice, runs):
                cells += [V, V + 1e-12 * rng.standard_normal(V.shape)]
    stacks = {}
    for V in cells:
        stacks.setdefault(len(V), []).append(V)
    return {L: np.array(vs) for L, vs in sorted(stacks.items()) if 3 <= L <= 9}


def kernel_points(V, rng):
    """Test points per polygon of the stack: the vertex mean, each vertex,
    points on each side, and points near the vertices, towards the mean and
    around the polygon."""
    M, L, _ = V.shape
    W = np.roll(V, -1, axis=1)
    t = rng.uniform(0.0, 1.0, size=(M, L, 1))
    span = np.ptp(V, axis=1)
    yield V.mean(axis=1)
    for k in range(L):
        yield V[:, k]
        yield V[:, k] + t[:, k] * (W[:, k] - V[:, k])
        yield V[:, k] + 0.5 * (W[:, k] - V[:, k])
        yield V[:, k] + 1e-13 * rng.standard_normal((M, 2))
        yield V[:, k] + t[:, k] * (V.mean(axis=1) - V[:, k])
        yield V.mean(axis=1) + span * rng.uniform(-0.6, 0.6, size=(M, 2))


class TestMeshAreaAndConformity:
    def test_tilings_of_unit_square_sum_to_one(self):
        for mesh in [structured_quad_mesh(5), pentagon_pair()]:
            assert mesh_area(*mesh) == pytest.approx(1.0, abs=1e-12)

    def test_hexagon_patch_area(self):
        nodes, elems = hexagon_patch()
        assert mesh_area(nodes, elems) == pytest.approx(4 * 3 * np.sqrt(3) / 2, rel=1e-12)

    def test_zero_length_unmatched_side(self):
        # nodes 2 and 3 coincide: their side has no inside, and no parameter along it
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        assert check_conformity(nodes, [[0, 1, 2, 3, 4]]) == []

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


    # each long boundary side of the 512 x 2 grid holds a whole row of nodes in
    # its y strip (of the 2 x 512 grid, in its x strip), so a search fixed to
    # one axis takes quadratic memory on one of them; on the 112 x 112 grid the
    # topology and the per-position arrays take 7.1 MB, 9.0 MB with (M, 2) row gathers
    @pytest.mark.parametrize("nx, ny", [(64, 64), (512, 2), (2, 512), (112, 112)])
    def test_conformity_memory_is_linear(self, nx, ny):
        import tracemalloc

        nodes, elems = structured_quad_mesh(nx, ny)
        tracemalloc.start()
        try:
            issues = check_conformity(nodes, elems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert issues == []
        assert peak < 8 * 2**20

    def test_side_search_memory_is_linear(self):
        # both axis strips of a boundary side of a square grid hold a whole row or
        # column of nodes, so a search that reads one strip per side peaks at 26 MB here
        import tracemalloc

        nodes, elems = structured_quad_mesh(256)
        topo = build_topology(nodes, elems)
        be = topo.edge[topo.boundary_edge_mask()]
        tracemalloc.start()
        try:
            hits = list(_nodes_inside_sides(nodes, nodes[be[:, 0]], nodes[be[:, 1]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits == []
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("check", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
    def test_used_non_finite_node_is_rejected(self, check, bad, tmp_path, monkeypatch):
        # node 4, the centre of the 2 x 2 grid, is a vertex of all four cells
        nodes, elems = structured_quad_mesh(2)
        nodes[4] = (bad, 0.5)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DegeneratePolygonError, match="element 0 uses a non-finite node"):
            check(nodes, elems)
        assert list(tmp_path.iterdir()) == []

    def test_unused_non_finite_node_is_inside_no_side(self):
        # a T-junction: node 6 sits on the right side of cell 0, which does not list it
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 0.5], [1, 0.5], [2, 1]], dtype=float)
        elems = [[0, 1, 2, 3], [1, 4, 5, 6], [6, 5, 7, 2]]
        issues = check_conformity(nodes, elems)
        assert issues == ["node 6 lies inside unmatched side (1, 2)"]
        for bad in (np.nan, np.inf):
            assert check_conformity(np.vstack([nodes, [[bad, 0.5]]]), elems) == issues

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
        d = np.sqrt(np.max(np.sum((v[:, None] - v[None]) ** 2, axis=-1)))
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


def every_other_hanging_dropped(nodes, elems):
    """The hanging positions ``(element, local index)`` of a mesh, and its
    cycles with every other one of those nodes dropped."""
    topo = build_topology(nodes, elems)
    hung = [(i, j) for i in range(len(elems)) for j in np.flatnonzero(local_hanging(topo, i))]
    dropped = {(i, elems[i][j]) for i, j in hung[::2]}
    return hung, [[v for v in c if (k, v) not in dropped] for k, c in enumerate(elems)]


def nonconforming_meshes():
    """Hand-built invalid meshes, plus refined meshes where every other
    hanging node is dropped from the cycle it hangs in: on two grids one kept
    hanging node is also slid off its parent-edge midpoint, and a third grid
    is moved by 1e4, so that the strip pad's ``4 EPS |x|`` term is not
    negligible."""
    yield double_hang_mesh()
    yield invisible_hang_mesh()
    yield np.array([[0.0, 0.0], [0.8, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]), [[0, 1, 2, 3, 4]]
    rng = np.random.default_rng(3)
    for n in (3, 6):
        nodes, elems = structured_quad_mesh(n)
        for _ in range(2):
            nodes, elems = refine(nodes, elems, rng.choice(len(elems), n, replace=False))
        hung, kept = every_other_hanging_dropped(nodes, elems)
        i, j = hung[1]
        cyc = elems[i]
        moved = nodes.copy()
        moved[cyc[j]] += 0.1 * (nodes[cyc[(j + 1) % len(cyc)]] - nodes[cyc[j - 1]])
        yield moved, kept
    # Voronoi and pool meshes refined twice with a seeded 20 % marked
    rng = np.random.default_rng(17)
    starts = [(mesh, 0.0) for mesh in [centroidal_voronoi_mesh(s) for s in VORONOI_SEEDS] + base_mesh_pool()]
    for (nodes, elems), shift in starts + [(structured_quad_mesh(6), 1e4)]:
        for _ in range(2):
            nodes, elems = refine(nodes, elems, rng.choice(len(elems), max(1, len(elems) // 5), replace=False))
        yield nodes + shift, every_other_hanging_dropped(nodes, elems)[1]


def vertex_index(v, n):
    """The vertex-index rule, one entry at a time: ``v`` (a 0-d array as its
    scalar) as an int, or -1."""
    if isinstance(v, np.ndarray) and v.shape == ():
        v = v.item() if v.dtype.kind in "biu" else None
    return int(v) if isinstance(v, (int, np.integer, np.bool_)) and 0 <= v < n else -1


NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def numpy_ints(t):
    info = np.iinfo(t)
    return st.one_of(st.integers(max(int(info.min), -3), 12), st.integers(int(info.min), int(info.max))).map(t)


# entries numpy reads as integers, alone or mixed (uint64 above 2**63 included),
# as scalars or as 0-d arrays
INTEGER_ENTRIES = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.sampled_from(NUMPY_INTS).flatmap(numpy_ints),
    st.integers(-3, 12).map(np.array),
    st.sampled_from(NUMPY_INTS).flatmap(numpy_ints).map(np.array),
)
ENTRIES = st.one_of(
    INTEGER_ENTRIES,
    st.integers(-2**70, 2**70),
    st.floats(),
    st.integers(0, 12).map(float),
    st.floats().map(np.array),
    st.integers(0, 12).map(float).map(np.array),
    st.integers(0, 12).map(str),
    st.none(),
    st.lists(st.integers(0, 12), max_size=2),
)


def tables(entries):
    return st.lists(st.lists(entries, max_size=6), max_size=5)


class TestVertexIndexRule:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tables(INTEGER_ENTRIES), tables(ENTRIES)), st.integers(0, 10))
    def test_cycle_arrays_follow_the_rule(self, elements, n):
        offsets, cycles = _cycle_arrays(elements, n)
        assert offsets.tolist() == [0, *itertools.accumulate(map(len, elements))]
        assert cycles.dtype == np.int64
        assert cycles.tolist() == [vertex_index(v, n) for cyc in elements for v in cyc]

    @pytest.mark.parametrize("entry", [4.7, "4", np.float64(4.0), None, [4], 10**30, -1, 9], ids=repr)
    def test_every_entry_point_rejects_a_non_index(self, entry, tmp_path):
        # the same verdict whether or not element 1 spells vertex 4 as a 0-d array
        u, f = gaussian_peak_problem()
        for four in (4, np.array(4)):
            nodes, elems = structured_quad_mesh(2)
            elems[0] = [0, 1, entry, 3]
            elems[1] = [1, 2, 5, four]
            for call in (build_topology, mesh_area, check_conformity,
                         lambda n, e: refine(n, e, [1]),
                         lambda n, e: refine(n, e, []),
                         lambda n, e: adaptive_loop(n, e, f, u, max_steps=0),
                         lambda n, e: save_mesh(n, e, tmp_path / "bad.mesh"),
                         lambda n, e: render_svg(n, e, tmp_path / "bad.svg")):
                with pytest.raises(InvalidIndexError, match="element 0"):
                    call(nodes, elems)
            assert list(tmp_path.iterdir()) == []
            report = validate_mesh(nodes, elems)
            assert [(v.kind, v.where) for v in report.violations] == [("invalid-index", 0)]


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("cycle, message", [([1, 2], "element 1 has 2 vertices"),
                                            ([0, 1, 2, 2], "element 1 has vanishing area")],  # a bottom-row run
                         ids=["two-vertex", "zero-area"])
def test_every_entry_point_rejects_a_bad_cell_as_build_topology_does(cycle, message, entry, tmp_path, monkeypatch):
    # the non-index and non-finite cells have their own every-entry-point tests
    nodes, elems = structured_quad_mesh(2)
    elems[1] = cycle
    monkeypatch.chdir(tmp_path)
    with pytest.raises(MeshError) as exc:
        ENTRY_POINTS[entry](nodes, elems)
    assert (exc.type, str(exc.value)) == (DegeneratePolygonError, message)
    assert list(tmp_path.iterdir()) == []


def test_structured_quad_mesh_shapes():
    nodes, elems = structured_quad_mesh(4, 3)
    assert len(nodes) == 5 * 4
    assert len(elems) == 12
    assert validate_mesh(nodes, elems).ok


@pytest.mark.parametrize("size", [0, -1, 2.0, (3, 0)], ids=repr)
def test_structured_quad_mesh_rejects_sizes_below_one(size):
    with pytest.raises(ValueError, match="grid sizes must be integers >= 1"):
        structured_quad_mesh(*(size if isinstance(size, tuple) else (size,)))


@pytest.fixture
def collector():
    """Puts the cyclic garbage collector's switch and thresholds back as they were
    after a test that changes them."""
    was, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    (gc.enable if was else gc.disable)()
    gc.set_threshold(*thresholds)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_the_collector_is_left_as_found(enabled, collector, tmp_path):
    good, bad = tmp_path / "good.mesh", tmp_path / "clockwise.mesh"
    save_mesh(SQUARE_NODES, SQUARE_ELEMS, good)
    save_mesh(SQUARE_NODES, [[0, 3, 2, 1]], bad)  # parses, then fails validation
    u, f = gaussian_peak_problem()
    calls = {
        "structured_quad_mesh": lambda: structured_quad_mesh(4),
        "refine": lambda: refine(*structured_quad_mesh(4), [0, 5]),
        "read_mesh_file": lambda: read_mesh_file(good),
        "load_mesh": lambda: load_mesh(good),
        "adaptive_loop": lambda: adaptive_loop(*structured_quad_mesh(4), f, u, max_steps=2),
    }
    (gc.enable if enabled else gc.disable)()
    for name, call in calls.items():
        call()
        assert gc.isenabled() is enabled, name
    with pytest.raises(MeshValidationError):
        load_mesh(bad)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("build", ["structured_quad_mesh", "refine"])
def test_no_collection_starts_while_element_lists_are_built(build, collector, monkeypatch):
    """Lists of ints hold no reference cycles, so a collector pass while they are
    built could free nothing; on large grids such passes took most of the build's time.

    Passes are recorded only while the lists are built: over all of
    ``structured_quad_mesh``, which builds nothing else first, and over
    ``refine``'s ``_cycle_lists`` call, which starts from an empty young
    generation.  With a young threshold of 100, building the 4,096 or more
    lists unpaused starts dozens of passes, and the few containers made around
    the pause start none."""
    started, inside = [], [False]

    def recorder(phase, info):
        if phase == "start" and inside[0]:
            started.append(info["generation"])

    if build == "structured_quad_mesh":
        call, inside[0] = lambda: structured_quad_mesh(256), True
    else:
        def recorded_cycle_lists(offsets, cycles):
            gc.collect()
            inside[0] = True
            try:
                return _cycle_lists(offsets, cycles)
            finally:
                inside[0] = False

        monkeypatch.setattr(refinement, "_cycle_lists", recorded_cycle_lists)
        nodes, elems = structured_quad_mesh(64)
        marked = np.sort(np.random.default_rng(0).choice(4096, size=614, replace=False))  # 15 %, scattered
        call = lambda: refine(nodes, elems, marked)
    gc.enable()
    gc.collect()
    gc.set_threshold(100)
    gc.callbacks.append(recorder)
    try:
        out = call()
        inside[0] = False  # allocates nothing, so a pass put off by the build starts after this
    finally:
        gc.callbacks.remove(recorder)
    assert len(out[1]) > 4096
    assert started == []


def distinct_entry_ids(elements):
    return len({id(v) for cycle in elements for v in cycle})


def listed_apart(elements, n):
    """The table as ``tolist()`` lists it, one new ``int`` per entry."""
    offsets, cycles = _cycle_arrays(elements, n)
    flat = cycles.tolist()
    return [flat[a:b] for a, b in itertools.pairwise(offsets.tolist())]


def test_each_vertex_index_is_one_int_object():
    """Every element table the package builds holds one ``int`` object per vertex
    index.  ``tolist()`` made one per entry, so an index above 256 existed once per
    cell that uses it: 65,027 objects (3.73 MiB traced) for the 16,641 nodes of
    the 128 x 128 grid, and 102,409 for the 28,346 nodes after refining every
    7th cell of it."""
    import tracemalloc

    tracemalloc.start()
    try:
        nodes, elems = structured_quad_mesh(128)
        traced = tracemalloc.get_traced_memory()[0] - nodes.nbytes
    finally:
        tracemalloc.stop()
    assert distinct_entry_ids(elems) == len(nodes) == 16641
    assert traced <= 2.5 * 2**20
    grid = [[j * 129 + i, j * 129 + i + 1, j * 129 + i + 130, j * 129 + i + 129]
            for j in range(128) for i in range(128)]
    assert elems == grid

    new_nodes, new_elems = refine(nodes, elems, range(0, len(elems), 7))[:2]
    assert distinct_entry_ids(new_elems) == len(new_nodes) == 28346
    assert new_elems == listed_apart(new_elems, len(new_nodes))
    for table in (elems, new_elems):
        assert all(type(v) is int for cycle in table for v in cycle)


def builder_cases():
    """Tables for both paths of ``_cycle_lists``: one cycle length (every cell of
    20 x 20 refined: 1,600 quadrilaterals on 1,681 nodes, past Python's small-int
    cache), mixed lengths, a single cell and no cell."""
    grid = structured_quad_mesh(20)
    return {
        "one-length": refine(*grid, range(400))[:2],
        "mixed": refine(*grid, range(0, 400, 7))[:2],
        "single-cell": (SQUARE_NODES, SQUARE_ELEMS),
        "empty": (SQUARE_NODES, []),
    }


@pytest.mark.parametrize("case", ["one-length", "mixed", "single-cell", "empty"])
def test_cycle_lists_list_each_table_as_tolist_does(case):
    nodes, elements = builder_cases()[case]
    offsets, cycles = _cycle_arrays(elements, len(nodes))
    lengths = set(np.diff(offsets).tolist())
    assert len(lengths) == {"one-length": 1, "mixed": 3, "single-cell": 1, "empty": 0}[case]
    built = _cycle_lists(offsets, cycles)
    assert built == listed_apart(elements, len(nodes))
    assert distinct_entry_ids(built) == len(set(cycles.tolist()))
    assert all(type(v) is int for cycle in built for v in cycle)


def test_a_topology_is_the_one_source_of_the_cells():
    """Each function handed a topology raises, naming both counts, when the
    element table lists a different number of cells."""
    nodes, elements = structured_quad_mesh(4)
    topo = build_topology(nodes, elements)
    u = np.zeros(len(nodes))
    f = lambda x, y: np.ones_like(x)
    for E, n in ((elements[:3], 3), (elements + [[0, 1, 6, 5]], 17)):
        for call in (lambda: assemble(nodes, E, topo, f),
                     lambda: estimate(nodes, E, topo, u, f),
                     lambda: refine(nodes, E, [0], topology=topo),
                     lambda: check_conformity(nodes, E, topo)):
            with pytest.raises(ValueError, match=f"^the element table has {n} elements, its topology 16$"):
                call()
