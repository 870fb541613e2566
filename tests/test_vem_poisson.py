import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import polyrefine.vem_poisson as vem_poisson
from polyrefine import (
    SingularProjectionError,
    SolverError,
    adaptive_loop,
    assemble,
    build_topology,
    refine,
    solve_dirichlet,
    structured_quad_mesh,
)
from polyrefine.problems import gaussian_peak_problem

from sample_meshes import (
    SQUARE_ELEMS,
    SQUARE_NODES,
    base_mesh_pool,
    centroidal_voronoi_mesh,
    hexagon_patch,
    one_cell,
    pentagon_pair,
    square_and_hung_rectangle,
    two_squares,
)


def cell_stiffness(vertices):
    """The assembled matrix of the one-cell mesh of a polygon, i.e. its local stiffness."""
    nodes, elems = one_cell(vertices)
    return assemble(nodes, elems, build_topology(nodes, elems), zero).matrix.toarray()


def projection_oracle(vertices):
    """``D``, ``B``, ``G = B D`` and ``pi_star = G^-1 B`` of one polygon.

    ``D`` (Nv x 3) holds the scaled monomials ``1, (x-xc)/h, (y-yc)/h`` at
    the vertices, ``B`` (3 x Nv) the vertex average and the edge-wise
    trapezoidal boundary integrals of their gradients.
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    x, y = v[:, 0], v[:, 1]
    topo = build_topology(*one_cell(v))
    (xc, yc), h = topo.centroid[0], topo.diameter[0]
    D = np.column_stack([np.ones(n), (x - xc) / h, (y - yc) / h])
    B = np.vstack([
        np.full(n, 1.0 / n),
        (np.roll(y, -1) - np.roll(y, 1)) / (2.0 * h),
        (np.roll(x, 1) - np.roll(x, -1)) / (2.0 * h),
    ])
    G = B @ D
    return D, B, G, np.linalg.solve(G, B)


def oracle_stiffness(vertices):
    """``pi*^T G~ pi* + (I - D pi*)^T (I - D pi*)``, ``G~`` being ``G`` with row 0 zeroed."""
    D, _, G, pi_star = projection_oracle(vertices)
    Gt = G.copy()
    Gt[0, :] = 0.0
    R = np.eye(len(D)) - D @ pi_star
    return pi_star.T @ Gt @ pi_star + R.T @ R


def oracle_load(vertices, f):
    """Vertex load ``(area / Nv) * f(centroid)``."""
    topo = build_topology(*one_cell(vertices))
    c = topo.centroid[0]
    return np.full(len(vertices), topo.area[0] / len(vertices) * float(f(c[0], c[1])))


def oracle_matrix(nodes, elements):
    """Dense global stiffness scattered element by element from the oracle."""
    A = np.zeros((len(nodes), len(nodes)))
    for cyc in elements:
        cyc = np.asarray(cyc)
        A[np.ix_(cyc, cyc)] += oracle_stiffness(nodes[cyc])
    return A


def rectangle(eps):
    return [(0.0, 0.0), (1.0, 0.0), (1.0, eps), (0.0, eps)]


def refined_8x8():
    """An 8x8 grid refined twice on seeded 20 % markings (hanging nodes included)."""
    rng = np.random.default_rng(3)
    nodes, elems = structured_quad_mesh(8)
    for _ in range(2):
        nodes, elems = refine(nodes, elems, np.flatnonzero(rng.random(len(elems)) < 0.2))
    return nodes, elems


def voronoi_0():
    return centroidal_voronoi_mesh(0)


def strip_64x2():
    """64 x 2 cells: every free unknown lies on the line y = 1/2."""
    return structured_quad_mesh(64, 2)


def graded_toward_point():
    """An 8x8 grid whose cell nearest (0.3, 0.4) is refined 20 times: h_min / h_max is about 1e-6."""
    nodes, elems = structured_quad_mesh(8)
    for _ in range(20):
        c = build_topology(nodes, elems).centroid
        nodes, elems = refine(nodes, elems, [int(np.argmin(np.hypot(c[:, 0] - 0.3, c[:, 1] - 0.4)))])
    return nodes, elems


@st.composite
def convex_polygons(draw):
    """Counterclockwise convex polygons with 3-8 vertices on an ellipse."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    angles = draw(st.floats(0.0, 2.0 * np.pi)) + 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    scale = draw(st.floats(1e-3, 1e3))
    aspect = draw(st.floats(0.2, 1.0))
    cx, cy = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    return scale * np.column_stack([cx + np.cos(angles), cy + aspect * np.sin(angles)])


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def patch_meshes():
    meshes = [
        (SQUARE_NODES, SQUARE_ELEMS),
        structured_quad_mesh(3),
        refine(*structured_quad_mesh(2), [0]),  # contains hanging nodes
        hexagon_patch(),
        pentagon_pair(),
    ]
    return meshes


class TestLocalMatrices:
    @pytest.mark.parametrize("verts", [
        SQUARE_NODES,
        np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.5], [1.0, 2.5], [-0.5, 1.0]]),
    ])
    def test_constants_in_kernel(self, verts):
        K = cell_stiffness(verts)
        assert np.abs(K @ np.ones(len(verts))).max() < 1e-13

    def test_energy_of_linear_function_is_area(self):
        # u = x has |grad u| = 1, so the energy over K equals area(K)
        for verts, area in [(SQUARE_NODES, 1.0),
                            (hexagon_patch()[0][hexagon_patch()[1][0]], 3 * np.sqrt(3) / 2)]:
            u = np.asarray(verts, dtype=float)[:, 0]
            K = cell_stiffness(verts)
            assert u @ K @ u == pytest.approx(area, rel=1e-12)

    def test_right_triangle_equals_linear_fem(self):
        tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        K = cell_stiffness(tri)
        K_fem = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        # projection is exact on triangles: stabilization vanishes
        assert np.abs(K - K_fem).max() < 1e-13

    def test_stiffness_spsd(self):
        for verts in [SQUARE_NODES, pentagon_pair()[0][pentagon_pair()[1][0]]]:
            K = cell_stiffness(verts)
            assert np.abs(K - K.T).max() < 1e-13
            w = np.linalg.eigvalsh(K)
            assert w[0] > -1e-12
            assert abs(w[0]) < 1e-12  # the constant kernel
            assert w[1] > 1e-8  # and nothing else

    def test_projection_linear_consistency(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
        D, _, _, pi_star = projection_oracle(verts)
        coeff = np.array([0.3, -1.2, 2.5])
        dofs = D @ coeff  # vertex values of an affine function
        assert pi_star @ dofs == pytest.approx(coeff, rel=1e-12)
        # the stabilization vanishes on affine functions: energy = area * |grad|^2
        topo = build_topology(*one_cell(verts))
        energy = topo.area[0] * (coeff[1] ** 2 + coeff[2] ** 2) / topo.diameter[0] ** 2
        assert dofs @ cell_stiffness(verts) @ dofs == pytest.approx(energy, rel=1e-12)

    def test_singular_bound_is_area_over_diameter_squared(self):
        # det G = (area / h^2)^2 must reach 1e-14, i.e. area >= 1e-7 h^2
        with pytest.raises(SingularProjectionError):
            cell_stiffness(rectangle(5e-8))
        K = cell_stiffness(rectangle(2e-7))
        assert np.abs(K - oracle_stiffness(rectangle(2e-7))).max() <= 1e-13 * np.abs(K).max()

    def test_local_load(self):
        topo = build_topology(SQUARE_NODES, SQUARE_ELEMS)
        for f, value in [(zero, 0.0), (one, 0.25), (lambda x, y: x, 0.125)]:
            rhs = assemble(SQUARE_NODES, SQUARE_ELEMS, topo, f).rhs
            assert rhs == pytest.approx(oracle_load(SQUARE_NODES, f), rel=1e-14, abs=0.0)
            assert rhs == pytest.approx(np.full(4, value), rel=1e-14, abs=0.0)


class TestClosedFormOracle:
    def test_every_pool_element(self):
        for nodes, elems in base_mesh_pool():
            for cyc in elems:
                verts = nodes[np.asarray(cyc)]
                K = cell_stiffness(verts)
                assert np.abs(K - oracle_stiffness(verts)).max() <= 1e-13 * np.abs(K).max()

    @settings(max_examples=200, deadline=None)
    @given(convex_polygons())
    def test_convex_polygons(self, verts):
        K = cell_stiffness(verts)
        assert np.abs(K - oracle_stiffness(verts)).max() <= 1e-13 * np.abs(K).max()

    def test_assembled_refined_mesh_with_hanging_nodes(self):
        nodes, elems = refine(*structured_quad_mesh(4), [0, 5])
        nodes, elems = refine(nodes, elems, [1, 6, 7])
        assert any(len(c) > 4 for c in elems)  # hanging nodes present
        A = assemble(nodes, elems, build_topology(nodes, elems), zero).matrix.toarray()
        ref = oracle_matrix(nodes, elems)
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()


def mixed_length_table():
    """Cells sharing no node in one table, in a shuffled order: three of each
    cycle length 3..9, perturbed from regular polygons and flattened, and one
    regular 400-gon, each scaled by 1e-2..1e2 and moved by up to 3 times that."""
    rng = np.random.default_rng(5)
    cells = []
    for L in list(range(3, 10)) * 3 + [400]:
        angles = 2.0 * np.pi * (np.arange(L) + (0.3 * rng.random(L) if L < 400 else 0.0)) / L
        aspect = 0.2 + 0.8 * rng.random() if L < 400 else 1.0
        cells.append(10.0 ** rng.uniform(-2, 2) * (np.column_stack([np.cos(angles), aspect * np.sin(angles)])
                                                   + rng.uniform(-3, 3, 2)))
    nodes, elems = [], []
    for i in rng.permutation(len(cells)):
        elems.append(list(range(len(nodes), len(nodes) + len(cells[i]))))
        nodes.extend(cells[i])
    return np.array(nodes), elems


class TestAssemble:
    def test_single_square_matches_local(self):
        topo = build_topology(SQUARE_NODES, SQUARE_ELEMS)
        system = assemble(SQUARE_NODES, SQUARE_ELEMS, topo, zero)
        assert np.abs(system.matrix.toarray() - oracle_stiffness(SQUARE_NODES)).max() < 1e-14
        assert system.boundary_mask.all()

    def test_two_squares_scatter_additivity(self):
        nodes, elems = two_squares()
        topo = build_topology(nodes, elems)
        system = assemble(nodes, elems, topo, one)
        manual = np.zeros((6, 6))
        for cyc in elems:
            K = cell_stiffness(nodes[np.asarray(cyc)])
            for a, va in enumerate(cyc):
                for b, vb in enumerate(cyc):
                    manual[va, vb] += K[a, b]
        assert np.abs(system.matrix.toarray() - manual).max() < 1e-14
        assert system.rhs == pytest.approx(np.array([0.25, 0.5, 0.25, 0.25, 0.5, 0.25]))

    def test_grid_symmetric_zero_row_sums(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        A = assemble(nodes, elems, topo, zero).matrix
        dense = A.toarray()
        assert np.abs(dense - dense.T).max() < 1e-13 * np.abs(dense).max()
        assert np.abs(dense.sum(axis=1)).max() < 1e-13

    # a block of 2 splits every length group into several kernel calls
    @pytest.mark.parametrize("block", [None, 2])
    def test_cell_major_kernel_on_mixed_lengths(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(vem_poisson, "_CELL_BLOCK", block)
        nodes, elems = mixed_length_table()
        A = assemble(nodes, elems, build_topology(nodes, elems), zero).matrix
        assert A.indices.dtype == np.int32
        assert A.has_canonical_format
        assert sorted({len(c) for c in elems}) == list(range(3, 10)) + [400]
        for cyc in elems:
            K = oracle_stiffness(nodes[cyc])
            assert np.abs(A[cyc][:, cyc].toarray() - K).max() <= 1e-13 * np.abs(K).max()

    @pytest.mark.parametrize("block", [None, 2])
    def test_cell_major_kernel_on_voronoi_cells(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(vem_poisson, "_CELL_BLOCK", block)
        nodes, elems = centroidal_voronoi_mesh(0)
        A = assemble(nodes, elems, build_topology(nodes, elems), zero).matrix
        assert A.indices.dtype == np.int32
        assert A.has_canonical_format
        ref = oracle_matrix(nodes, elems)
        assert np.abs(A.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_reduced_system_positive_definite(self):
        nodes, elems = structured_quad_mesh(3)
        topo = build_topology(nodes, elems)
        system = assemble(nodes, elems, topo, zero)
        free = ~system.boundary_mask
        red = system.matrix.toarray()[np.ix_(free, free)]
        assert np.linalg.eigvalsh(red)[0] > 1e-10


class TestSolve:
    @pytest.mark.parametrize("mesh_index", range(5))
    def test_affine_patch(self, mesh_index):
        nodes, elems = patch_meshes()[mesh_index]
        topo = build_topology(nodes, elems)

        def affine(x, y):
            return 0.7 + 1.3 * np.asarray(x, float) - 2.1 * np.asarray(y, float)

        u = solve_dirichlet(assemble(nodes, elems, topo, zero), affine)
        assert np.abs(u - affine(nodes[:, 0], nodes[:, 1])).max() < 1e-9

    def test_zero_data_zero_solution(self):
        nodes, elems = structured_quad_mesh(4)
        topo = build_topology(nodes, elems)
        u = solve_dirichlet(assemble(nodes, elems, topo, zero), zero)
        assert np.abs(u).max() == 0.0

    def test_against_five_point_finite_differences(self):
        nodes, elems = structured_quad_mesh(16)
        topo = build_topology(nodes, elems)
        u = solve_dirichlet(assemble(nodes, elems, topo, one), zero)

        # independent oracle: 5-point Laplacian on the same grid
        m, h = 15, 1.0 / 16.0
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        A = (sp.kron(sp.identity(m), T) + sp.kron(T, sp.identity(m))) / (h * h)
        interior = spsolve(A.tocsc(), np.ones(m * m))
        grid = np.zeros((17, 17))
        grid[1:16, 1:16] = interior.reshape(m, m)
        assert np.abs(u.reshape(17, 17) - grid).max() < 2e-3
        assert u.max() == pytest.approx(0.0736, abs=5e-4)

    def test_solution_peaks_at_center(self):
        nodes, elems = structured_quad_mesh(16)
        topo = build_topology(nodes, elems)
        u = solve_dirichlet(assemble(nodes, elems, topo, one), zero)
        assert nodes[np.argmax(u)] == pytest.approx([0.5, 0.5])

    def test_local_stiffness_stable_on_all_test_elements(self):
        for nodes, elems in patch_meshes():
            for cyc in elems:
                w = np.linalg.eigvalsh(cell_stiffness(nodes[np.asarray(cyc)]))
                assert abs(w[0]) < 1e-12  # constant kernel only
                assert w[1] > 1e-9

    @pytest.mark.parametrize("make_mesh", [pentagon_pair, square_and_hung_rectangle, refined_8x8, voronoi_0,
                                           strip_64x2, graded_toward_point], ids=lambda make: make.__name__)
    def test_matches_dense_solve(self, make_mesh):
        nodes, elems = make_mesh()
        g = lambda x, y: np.sin(3.0 * x) + x * y
        system = assemble(nodes, elems, build_topology(nodes, elems), lambda x, y: 1.0 + x * x)
        u = solve_dirichlet(system, g)

        b = system.boundary_mask
        free = ~b
        A = system.matrix.toarray()
        ub = g(nodes[b, 0], nodes[b, 1])
        uf = np.linalg.solve(A[np.ix_(free, free)], system.rhs[free] - A[np.ix_(free, b)] @ ub)
        assert free.any()
        assert np.abs(u[free] - uf).max() <= 1e-12 * max(np.abs(uf).max(), 1.0)
        assert np.array_equal(u[b], ub)

    def test_singular_system_raises_solver_error(self):
        # an interior node that no element references leaves an empty row
        nodes = np.vstack([SQUARE_NODES, [[0.5, 0.5]]])
        system = assemble(nodes, SQUARE_ELEMS, build_topology(nodes, SQUARE_ELEMS), one)
        with pytest.raises(SolverError):
            solve_dirichlet(system, zero)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("extra", [(2.0, 2.0), (np.nan, 0.5)], ids=["finite", "nan"])
    @pytest.mark.parametrize("entry", ["solve_dirichlet", "adaptive_loop"])
    def test_node_of_no_element_is_named(self, entry, extra):
        # node 25, appended to the 4 x 4 grid, is on no boundary edge, so it is free with an empty row
        u_exact, f = gaussian_peak_problem()
        nodes, elems = structured_quad_mesh(4)
        nodes = np.vstack([nodes, [extra]])
        with pytest.raises(SolverError, match="^node 25 belongs to no element$"):
            if entry == "solve_dirichlet":
                solve_dirichlet(assemble(nodes, elems, build_topology(nodes, elems), f), u_exact)
            else:
                adaptive_loop(nodes, elems, f, u_exact, max_steps=2)

    @pytest.mark.parametrize("factor", [1e300, 1e-300])
    def test_extreme_dirichlet_data_scales_the_solution(self, factor):
        # the norms of the unscaled reduced system would overflow (1e300) or underflow to 0 (1e-300)
        nodes, elems = refine(*structured_quad_mesh(2), [0])
        system = assemble(nodes, elems, build_topology(nodes, elems), zero)
        affine = lambda x, y: 0.7 + 1.3 * np.asarray(x, float) - 2.1 * np.asarray(y, float)
        u = solve_dirichlet(system, affine)
        scaled = solve_dirichlet(system, lambda x, y: factor * affine(x, y))
        assert np.abs(scaled - factor * u).max() <= 1e-12 * np.abs(factor * u).max()

    def test_corrections_that_diverge_raise_solver_error(self, monkeypatch):
        # a factor of -A turns every correction around, so the residual never halves
        real_splu = vem_poisson.splu
        monkeypatch.setattr(vem_poisson, "splu", lambda A, *args, **kwargs: real_splu(-A, *args, **kwargs))
        nodes, elems = structured_quad_mesh(4)
        system = assemble(nodes, elems, build_topology(nodes, elems), one)
        with pytest.raises(SolverError):
            solve_dirichlet(system, zero)

    def test_dirichlet_values_imposed_exactly(self):
        nodes, elems = pentagon_pair()
        topo = build_topology(nodes, elems)
        system = assemble(nodes, elems, topo, one)
        g = lambda x, y: x + 2.0 * y
        u = solve_dirichlet(system, g)
        b = system.boundary_mask
        assert u[b] == pytest.approx(g(nodes[b, 0], nodes[b, 1]))

    def test_no_free_unknowns_returns_boundary_values(self):
        nodes, elems = structured_quad_mesh(1)
        system = assemble(nodes, elems, build_topology(nodes, elems), one)
        assert system.boundary_mask.all()
        g = lambda x, y: 1.0 + x - 3.0 * y
        assert np.array_equal(solve_dirichlet(system, g), g(nodes[:, 0], nodes[:, 1]))

    def test_one_free_unknown_affine_centre_exact(self):
        nodes, elems = structured_quad_mesh(2)
        system = assemble(nodes, elems, build_topology(nodes, elems), zero)
        assert np.flatnonzero(~system.boundary_mask).tolist() == [4]
        g = lambda x, y: 0.25 + 2.0 * x - 0.5 * y
        u = solve_dirichlet(system, g)
        assert nodes[4].tolist() == [0.5, 0.5]
        assert u[4] == pytest.approx(g(0.5, 0.5), abs=1e-15)


def test_factorization_independent_of_node_numbering(monkeypatch):
    """A relabelled mesh hands SuperLU the same matrix and gets the same solution."""
    u_exact, f = gaussian_peak_problem()
    run = adaptive_loop(*structured_quad_mesh(8), f, u_exact, dof_cap=5000)
    nodes, elems = run.nodes, run.elements
    assert len(nodes) >= 5000
    assert build_topology(nodes, elems).hanging.any()

    perm = np.random.default_rng(11).permutation(len(nodes))  # old index -> new index
    relabelled = np.empty_like(nodes)
    relabelled[perm] = nodes
    relabelled_elems = [perm[np.asarray(c)].tolist() for c in elems]

    factored = []
    real_splu = vem_poisson.splu

    def recording_splu(A, *args, **kwargs):
        factored.append(A.copy())
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(vem_poisson, "splu", recording_splu)
    solutions = []
    for nds, els in [(nodes, elems), (relabelled, relabelled_elems)]:
        system = assemble(nds, els, build_topology(nds, els), f)
        solutions.append(solve_dirichlet(system, u_exact))

    A, B = factored
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.abs(A.data - B.data).max() <= 1e-14 * np.abs(A.data).max()
    u, v = solutions[0], solutions[1][perm]
    assert np.abs(u - v).max() <= 1e-13 * np.abs(u).max()


def peak_run_mesh():
    """The adaptive peak-problem mesh that the numbering test also builds."""
    u_exact, f = gaussian_peak_problem()
    run = adaptive_loop(*structured_quad_mesh(8), f, u_exact, dof_cap=5000)
    return run.nodes, run.elements


@pytest.mark.parametrize("make_mesh", [peak_run_mesh, lambda: structured_quad_mesh(128)],
                         ids=["peak_5000", "quad128"])
def test_dissection_fill_within_minimum_degree(monkeypatch, make_mesh):
    """The factor ``solve_dirichlet`` builds has no more fill than minimum
    degree on ``A + A^T`` gives the same free unknowns numbered row by row."""
    nodes, elems = make_mesh()
    factors = []
    real_splu = vem_poisson.splu

    def recording_splu(A, *args, **kwargs):
        factors.append(real_splu(A, *args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(vem_poisson, "splu", recording_splu)
    system = assemble(nodes, elems, build_topology(nodes, elems), one)
    solve_dirichlet(system, zero)

    b = system.boundary_mask
    rows = np.lexsort((nodes[:, 0], nodes[:, 1]))
    free = rows[~b[rows]]
    mmd = real_splu(system.matrix[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz


def test_single_precision_factor_refined_to_round_off(monkeypatch):
    """SuperLU gets the matrix in float32, and the float64 corrections reach
    round-off, well below the 1e-10 residual gate."""
    nodes, elems = peak_run_mesh()
    factored = []
    real_splu = vem_poisson.splu

    def recording_splu(A, *args, **kwargs):
        factored.append(A.dtype)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(vem_poisson, "splu", recording_splu)
    system = assemble(nodes, elems, build_topology(nodes, elems), one)
    u = solve_dirichlet(system, zero)

    assert factored == [np.float32]
    free = ~system.boundary_mask
    A, rhs = system.matrix[free][:, free], system.rhs[free]  # zero Dirichlet data
    assert np.linalg.norm(A @ u[free] - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_assemble_and_solve_memory_peaks():
    """tracemalloc peaks on a 128^2 grid (16,641 nodes, 146,689 nonzeros).

    ``assemble`` writes int32 row and column triplets and one value array in
    place: 8.6 MB with the CSR conversion, 11.8 MB with int64 rows and
    columns, 14.6 MB with concatenated int64 copies.  ``solve_dirichlet``
    keeps no float64 reduced matrix: 4.0 MB, 5.8 MB with its float64 row and
    column slices kept.  SuperLU's own factor memory is not traced.
    """
    import tracemalloc

    nodes, elems = structured_quad_mesh(128)
    topo = build_topology(nodes, elems)
    tracemalloc.start()
    try:
        system = assemble(nodes, elems, topo, one)
        assemble_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        u = solve_dirichlet(system, zero)
        solve_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert u.max() > 0.0
    assert assemble_peak < 10 * 2**20
    assert solve_peak < 5 * 2**20
