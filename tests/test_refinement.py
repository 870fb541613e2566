import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine import (
    CentroidNotInteriorError,
    build_topology,
    check_conformity,
    mesh_area,
    refine,
    structured_quad_mesh,
    validate_mesh,
)

from sample_meshes import (
    SQUARE_ELEMS,
    SQUARE_NODES,
    TRIANGLE_ELEMS,
    TRIANGLE_NODES,
    across,
    base_mesh_pool,
    cascade_mesh,
    horseshoe_mesh,
    local_edges,
    local_hanging,
    refinement_of,
    square_and_hung_rectangle,
    thick_u_mesh,
    two_squares,
)


def brute_force_closure(nodes, elements, topo, marked):
    """Fixed-point oracle: grow the set while any outside element has a
    nontrivial edge in the set's edge list."""
    S = {int(m) for m in marked}
    changed = True
    while changed:
        changed = False
        edge_set = {int(e) for i in S for e in local_edges(topo, i)}
        for j in range(len(elements)):
            if j in S:
                continue
            mask = local_hanging(topo, j)
            if not mask.any():
                continue
            n = len(mask)
            nontrivial = set()
            for k in np.flatnonzero(mask):
                nontrivial.add(int(local_edges(topo, j)[(k - 1) % n]))
                nontrivial.add(int(local_edges(topo, j)[k]))
            if nontrivial & edge_set:
                S.add(j)
                changed = True
    return S - {int(m) for m in marked}


def node_index(nodes, p):
    """Index of the refined-mesh node at coordinates ``p``."""
    (hit,) = np.flatnonzero(np.all(np.isclose(nodes, p, rtol=0, atol=1e-14), axis=1))
    return int(hit)


def assert_healthy(nodes, elements, ref_area):
    assert validate_mesh(nodes, elements).ok
    assert check_conformity(nodes, elements) == []
    assert mesh_area(nodes, elements) == pytest.approx(ref_area, rel=1e-12)


class TestClosure:
    def test_isolated_square(self):
        assert refinement_of(SQUARE_NODES, SQUARE_ELEMS, [0])[0] == set()

    def test_square_pulls_in_hung_rectangle(self):
        nodes, elems = square_and_hung_rectangle()
        # hand execution: the rectangle's nontrivial edges meet A's edge set
        assert refinement_of(nodes, elems, [0])[0] == {2}

    def test_cascade_two_rounds(self):
        nodes, elems = cascade_mesh()
        # hand execution: round one adds 5, round two adds 7
        assert refinement_of(nodes, elems, [0])[0] == {5, 7}

    def test_against_brute_force_oracle(self):
        nodes, elems = cascade_mesh()
        topo = build_topology(nodes, elems)
        for marked in [[0], [1], [5], [0, 6], [2, 3]]:
            expected = brute_force_closure(nodes, elems, topo, marked)
            assert refinement_of(nodes, elems, marked)[0] == expected

    def test_oracle_on_refined_meshes(self):
        # ten marked sets on a thrice-refined 3x3 grid, then five on each pool
        # mesh refined twice with a seeded 20 % marked each time
        rng = np.random.default_rng(7)
        nodes, elems = structured_quad_mesh(3)
        for _ in range(3):
            nodes, elems = refine(nodes, elems, rng.choice(len(elems), 2, replace=False))
        cases = [(nodes, elems, rng, 10)]
        for k, (nodes, elems) in enumerate(base_mesh_pool()):
            pool_rng = np.random.default_rng(70 + k)
            for _ in range(2):
                nodes, elems = refine(nodes, elems, pool_rng.choice(len(elems), max(1, len(elems) // 5), replace=False))
            cases.append((nodes, elems, pool_rng, 5))
        for nodes, elems, case_rng, trials in cases:
            topo = build_topology(nodes, elems)
            for _ in range(trials):
                marked = case_rng.choice(len(elems), case_rng.integers(1, 4), replace=False)
                expected = brute_force_closure(nodes, elems, topo, marked)
                assert refinement_of(nodes, elems, marked)[0] == expected

    def test_idempotent(self):
        nodes, elems = cascade_mesh()
        add = refinement_of(nodes, elems, [0])[0]
        assert refinement_of(nodes, elems, sorted({0} | add))[0] == set()


class TestSubdivide:
    def test_square_four_quads(self):
        topo = build_topology(SQUARE_NODES, SQUARE_ELEMS)
        nodes, cells = refine(SQUARE_NODES, SQUARE_ELEMS, [0])
        assert len(cells) == 4
        e = [int(k) for k in local_edges(topo, 0)]
        cen = 8
        # all four edges are cut: edge k's midpoint is node 4 + k
        for j, cell in enumerate(cells):
            assert cell == [4 + e[(j - 1) % 4], j, 4 + e[j], cen]
            a, b = topo.edge[e[j]]
            assert np.array_equal(nodes[4 + e[j]], 0.5 * (SQUARE_NODES[a] + SQUARE_NODES[b]))
        assert np.array_equal(nodes[cen], topo.centroid[0])

    def test_pentagon_with_two_hanging_vertices(self):
        # triangle with midpoints listed on two sides: flats at positions 1 and 4
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        elems = [[0, 1, 2, 3, 4]]
        topo = build_topology(nodes, elems)
        out_nodes, cells = refine(nodes, elems, [0])
        # only the trivial edge 2-3 is cut: node 5 is its midpoint, node 6 the centroid
        assert len(out_nodes) == 7
        assert np.array_equal(out_nodes[5], [1.0, 1.0])
        assert np.array_equal(out_nodes[6], topo.centroid[0])
        # the hanging vertex replaces the midpoint of each nontrivial edge
        assert cells == [[4, 0, 1, 6], [1, 2, 5, 6], [5, 3, 4, 6]]

    def test_triangle_subcell_areas(self):
        nodes, cells = refine(TRIANGLE_NODES, TRIANGLE_ELEMS, [0])
        assert len(cells) == 3
        assert mesh_area(nodes, cells) == pytest.approx(mesh_area(TRIANGLE_NODES, TRIANGLE_ELEMS), rel=1e-12)

    def test_centroid_not_interior_aborts(self):
        nodes, elems = horseshoe_mesh()
        with pytest.raises(CentroidNotInteriorError, match="element 0"):
            refine(nodes, elems, [0])

    def test_centroid_not_interior_names_the_mesh_element(self):
        # a 2x2 grid, then the thick U as element 4, clear of the grid: the
        # star check runs on the refinement set alone
        grid_nodes, grid_elems = structured_quad_mesh(2)
        u_nodes, u_elems = thick_u_mesh()
        nodes = np.vstack([grid_nodes, u_nodes + [5.0, 0.0]])
        elems = grid_elems + [[len(grid_nodes) + v for v in u_elems[0]]]
        assert len(refine(nodes, elems, [0, 3])[1]) == 11
        with pytest.raises(CentroidNotInteriorError, match="element 4: not star-shaped"):
            refine(nodes, elems, [0, 4])


class TestCutEdges:
    def test_isolated_square_all_cut(self):
        cut = refinement_of(SQUARE_NODES, SQUARE_ELEMS, [0])[1]
        assert list(cut) == [0, 1, 2, 3]

    def test_pentagon_with_hanging_vertices_oracle(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        elems = [[0, 1, 2, 3, 4]]
        topo = build_topology(nodes, elems)
        cut = set(refinement_of(nodes, elems, [0])[1])
        # oracle: per-edge endpoint flags from the hanging mask
        mask = local_hanging(topo, 0)
        oracle = set()
        for j in range(5):
            if not (mask[j] or mask[(j + 1) % 5]):
                oracle.add(int(local_edges(topo, 0)[j]))
        assert cut == oracle
        assert len(cut) == 1

    def test_empty_set(self):
        assert len(refinement_of(SQUARE_NODES, SQUARE_ELEMS, [])[1]) == 0


class TestExtension:
    def test_right_square_gains_shared_midpoint(self):
        nodes, elems = two_squares()
        out_nodes, cells = refine(nodes, elems, [0])
        cycle = cells[1]
        assert len(cycle) == 5
        shared = node_index(out_nodes, 0.5 * (nodes[1] + nodes[4]))
        assert cycle.count(shared) == 1
        assert cycle == [1, 2, 5, 4, shared]

    def test_neighbor_with_two_cut_edges_grows_by_two(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        refset = [0, 2]  # both neighbours of element 1
        cut = set(refinement_of(nodes, elems, refset)[1])
        in_row = sum(1 for e in local_edges(topo, 1) if e in cut)
        assert in_row == 2
        _, cells = refine(nodes, elems, refset)
        assert len(cells[1]) == len(elems[1]) + 2

    def test_nontrivial_shared_edge_leaves_neighbor_unchanged(self):
        nodes, elems = square_and_hung_rectangle()
        _, cells = refine(nodes, elems, [2])  # rectangle with the hanging node
        assert cells[0] == elems[0]
        assert cells[1] == elems[1]

    def test_subcell_gains_midpoint_of_nontrivial_edge_cut_across(self):
        """The rectangle's edge (1,1)-(1,0) is nontrivial for it but trivial
        for the marked square on the other side, which cuts it: the
        rectangle's subcell at (1,0) lists that midpoint after the hanging
        vertex that stands in for its own corner."""
        nodes, elems = square_and_hung_rectangle()
        out_nodes, cells = refine(nodes, elems, [0, 2])
        m12 = node_index(out_nodes, [1.0, 0.5])
        m16 = node_index(out_nodes, [1.5, 0.0])
        cen = node_index(out_nodes, build_topology(nodes, elems).centroid[2])
        assert cells[2] == [2, m12, 1, m16, cen]


class TestPartitionAndAssemble:
    def test_partition_marked_stages_per_element(self):
        nodes, elems = structured_quad_mesh(2)
        out_nodes, cells = refine(nodes, elems, [0, 3])
        # 9 nodes, 8 cut edges, centroids 17 (element 0) and 18 (element 3)
        assert len(out_nodes) == 19
        staged = {0: [cells[0]] + cells[4:7], 3: [cells[3]] + cells[7:10]}
        assert len(cells) == 10
        for i, cen in ((0, 17), (3, 18)):
            assert np.array_equal(out_nodes[cen], build_topology(nodes, elems).centroid[i])
            assert len(staged[i]) == 4  # one quad per vertex
            for j, cell in enumerate(staged[i]):
                assert len(cell) == 4
                assert cell[1] == elems[i][j] and cell[3] == cen

    def test_plan_and_assemble_match_refine(self):
        nodes, elems = cascade_mesh()
        added, cut = refinement_of(nodes, elems, [0])
        assert added == {5, 7}
        out_nodes, cells = refine(nodes, elems, [0])
        cen = {i: len(nodes) + len(cut) + r for r, i in enumerate([0, 5, 7])}
        assert len(out_nodes) == len(nodes) + len(cut) + 3
        # slots of refined elements hold a subcell, the rest follow:
        # closure-added elements first (5, then 7), then the marked one
        for i in (0, 5, 7):
            assert cells[i][-1] == cen[i]
        assert [cell[-1] for cell in cells[8:]] == [cen[5]] * 3 + [cen[7]] * 3 + [cen[0]] * 3
        assert out_nodes.tolist()[:len(nodes)] == nodes.tolist()


class TestRefine:
    def test_single_square_counts(self):
        nodes, elems = refine(SQUARE_NODES, SQUARE_ELEMS, [0])
        assert (len(nodes), len(elems)) == (9, 4)
        assert_healthy(nodes, elems, 1.0)

    def test_single_triangle_counts(self):
        nodes, elems = refine(TRIANGLE_NODES, TRIANGLE_ELEMS, [0])
        assert (len(nodes), len(elems)) == (7, 3)
        assert_healthy(nodes, elems, 0.5)

    def test_marked_triangle_grows_by_two(self):
        nodes, elems = refine(TRIANGLE_NODES, TRIANGLE_ELEMS, [0])
        assert len(elems) == len(TRIANGLE_ELEMS) + 2

    def test_one_marked_square_in_2x2_grid(self):
        nodes0, elems0 = structured_quad_mesh(2)
        nodes, elems = refine(nodes0, elems0, [0])
        assert (len(nodes), len(elems)) == (14, 7)
        assert_healthy(nodes, elems, 1.0)

    def test_2x2_golden_cycles(self):
        """Hand-executed refinement of the corner element of a 2x2 grid."""
        nodes, elems = refine(*structured_quad_mesh(2), [0])
        expected_nodes = {
            (0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.5, 0.5), (1.0, 0.5),
            (0.0, 1.0), (0.5, 1.0), (1.0, 1.0),
            (0.25, 0.0), (0.5, 0.25), (0.25, 0.5), (0.0, 0.25), (0.25, 0.25),
        }
        assert {tuple(np.round(p, 12)) for p in nodes} == expected_nodes
        hand = [
            [(0.0, 0.25), (0.0, 0.0), (0.25, 0.0), (0.25, 0.25)],
            [(0.25, 0.0), (0.5, 0.0), (0.5, 0.25), (0.25, 0.25)],
            [(0.5, 0.25), (0.5, 0.5), (0.25, 0.5), (0.25, 0.25)],
            [(0.25, 0.5), (0.0, 0.5), (0.0, 0.25), (0.25, 0.25)],
            [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 0.25)],
            [(0.0, 0.5), (0.25, 0.5), (0.5, 0.5), (0.5, 1.0), (0.0, 1.0)],
            [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0)],
        ]

        def canon(cycle):
            rots = [tuple(cycle[k:] + cycle[:k]) for k in range(len(cycle))]
            return min(rots)

        got = {canon([tuple(np.round(nodes[v], 12)) for v in cyc]) for cyc in elems}
        want = {canon([tuple(map(float, p)) for p in cell]) for cell in hand}
        assert got == want

    def test_two_disjoint_marked_squares(self):
        nodes0, elems0 = structured_quad_mesh(3)
        nodes, elems = refine(nodes0, elems0, [0, 8])
        assert len(elems) == 9 + 6
        assert_healthy(nodes, elems, 1.0)

    def test_cascade_refines_three_elements(self):
        """Marking the small square refines it plus the two downstream
        hanging-node hosts and extends their neighbours (hand-counted)."""
        nodes0, elems0 = cascade_mesh()
        area0 = mesh_area(nodes0, elems0)
        nodes, elems = refine(nodes0, elems0, [0])
        # 16 nodes + 10 cut-edge midpoints + 3 centroids; 8 elements + (4-1)*3 subcells
        assert (len(nodes), len(elems)) == (29, 17)
        assert_healthy(nodes, elems, area0)

    def test_no_marked_elements_unchanged(self):
        # on every pool mesh and on 3 seeded refined passes of each
        rng = np.random.default_rng(5)
        for nodes, elems in base_mesh_pool():
            for k in range(4):
                if k:
                    nodes, elems = refine(nodes, elems, rng.choice(len(elems), max(1, len(elems) // 5), replace=False))
                out_nodes, out_elems = refine(nodes, elems, [])
                assert out_nodes is not nodes and out_nodes.dtype == float
                assert np.array_equal(out_nodes, nodes)
                assert out_elems == elems
                assert all(type(v) is int for cyc in out_elems for v in cyc)

    def test_five_rounds_marking_first_element(self):
        nodes, elems = structured_quad_mesh(3)
        for _ in range(5):
            nodes, elems = refine(nodes, elems, [0])
            assert_healthy(nodes, elems, 1.0)

    def test_deterministic(self):
        nodes0, elems0 = structured_quad_mesh(3)
        a = refine(nodes0, elems0, [4, 2])
        b = refine(nodes0, elems0, [2, 4, 2])  # duplicates are deduplicated
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_monotone_growth(self):
        nodes, elems = structured_quad_mesh(4)
        for k in range(4):
            n2, e2 = refine(nodes, elems, [k])
            assert len(n2) > len(nodes) and len(e2) > len(elems)
            nodes, elems = n2, e2

    def test_marked_index_out_of_range(self):
        from polyrefine import InvalidIndexError

        with pytest.raises(InvalidIndexError):
            refine(SQUARE_NODES, SQUARE_ELEMS, [5])

    def test_non_integer_marks_rejected(self):
        from polyrefine import InvalidIndexError

        for marked in ([0.7], [1.0], np.array([0.0]), ["0"]):
            with pytest.raises(InvalidIndexError):
                refine(SQUARE_NODES, SQUARE_ELEMS, marked)
        nodes, elems = structured_quad_mesh(3)
        expected = refine(nodes, elems, [2, 4])
        for marked in (np.array([4, 2]), np.array([2, 4], dtype=np.int32), (4, np.uint8(2))):
            out = refine(nodes, elems, marked)
            assert np.array_equal(out[0], expected[0]) and out[1] == expected[1]

    def test_simultaneous_host_and_neighbor_marking(self):
        """Marking an element with a hanging node together with the small
        neighbour across its nontrivial edge must stay conforming."""
        nodes, elems = two_squares()
        nodes, elems = refine(nodes, elems, [0])
        topo = build_topology(nodes, elems)
        host = next(i for i in range(len(elems)) if local_hanging(topo, i).any())
        small = next(
            int(j) for j in across(topo, host)
            if j != host and not local_hanging(topo, int(j)).any()
            and len(elems[int(j)]) == 4
        )
        nodes2, elems2 = refine(nodes, elems, [host, small])
        assert_healthy(nodes2, elems2, 2.0)

    def test_reflex_corner_subcells_eventually_abort(self):
        """Subdividing at a reflex corner yields dart-shaped cells that
        flatten until their centroid leaves the cell, which aborts the pass
        (convex cells never do this)."""
        from sample_meshes import pentagon_pair

        nodes, elems = pentagon_pair()  # the upper pentagon is nonconvex
        apex = np.array([0.5, 0.6])  # its reflex corner

        with pytest.raises(CentroidNotInteriorError):
            for _ in range(6):
                target = next(
                    i for i, cyc in enumerate(elems)
                    if np.min(np.linalg.norm(nodes[np.asarray(cyc)] - apex, axis=1)) < 1e-12
                    and nodes[np.asarray(cyc)][:, 1].max() > 0.6
                )
                nodes, elems = refine(nodes, elems, [target])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_marks_stay_conforming(self, seed):
        rng = np.random.default_rng(seed)
        nodes, elems = structured_quad_mesh(4)
        for _ in range(2):
            marked = rng.choice(len(elems), rng.integers(1, 4), replace=False)
            nodes, elems = refine(nodes, elems, marked)
            assert_healthy(nodes, elems, 1.0)
