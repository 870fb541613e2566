import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine import (
    MeshError,
    StepRecord,
    adaptive_loop,
    assemble,
    build_topology,
    convergence_rate,
    dorfler_mark,
    estimate,
    gaussian_peak_problem,
    solve_dirichlet,
    structured_quad_mesh,
    total_indicator,
    validate_mesh,
)
from polyrefine import adaptivity

from sample_meshes import SQUARE_ELEMS, SQUARE_NODES, centroidal_voronoi_mesh


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def indicator_oracle(nodes, elements, u, f):
    """Term-by-term recomputation of the residual indicators from scratch.

    Gradients come from the boundary-integral identity evaluated edge by
    edge, interior edges are found by matching coordinate pairs, and each
    term is accumulated with explicit loops.
    """
    NT = len(elements)
    grads, areas, diams, cents = [], [], [], []
    for cyc in elements:
        pts = nodes[np.asarray(cyc)]
        n = len(cyc)
        area = 0.0
        g = np.zeros(2)
        for j in range(n):
            a, b = pts[j], pts[(j + 1) % n]
            area += 0.5 * (a[0] * b[1] - b[0] * a[1])
            ua, ub = u[cyc[j]], u[cyc[(j + 1) % n]]
            normal = np.array([b[1] - a[1], -(b[0] - a[0])])  # outward, length |e|
            g += 0.5 * (ua + ub) * normal
        grads.append(g / area)
        areas.append(area)
        diams.append(max(np.linalg.norm(p - q) for p in pts for q in pts))
        cents.append(pts.mean(axis=0))  # vertex mean, only for the P0 fix below

    eta2 = np.zeros(NT)
    for i, cyc in enumerate(elements):
        pts = nodes[np.asarray(cyc)]
        uvals = u[np.asarray(cyc)]
        proj = uvals.mean() + (pts - cents[i]) @ grads[i]
        eta2[i] += np.sum((uvals - proj) ** 2)
        cen_x, cen_y = 0.0, 0.0
        n = len(cyc)
        for j in range(n):
            a, b = pts[j], pts[(j + 1) % n]
            w = a[0] * b[1] - b[0] * a[1]
            cen_x += (a[0] + b[0]) * w
            cen_y += (a[1] + b[1]) * w
        cen = np.array([cen_x, cen_y]) / (6.0 * areas[i])
        eta2[i] += diams[i] ** 2 * areas[i] * float(f(cen[0], cen[1])) ** 2

    sides = {}
    for i, cyc in enumerate(elements):
        for j in range(len(cyc)):
            key = tuple(sorted((cyc[j], cyc[(j + 1) % len(cyc)])))
            sides.setdefault(key, []).append(i)
    for (va, vb), owners in sides.items():
        if len(owners) != 2:
            continue
        ia, ib = owners
        evec = nodes[vb] - nodes[va]
        elen = np.linalg.norm(evec)
        nhat = np.array([evec[1], -evec[0]]) / elen
        jump = (grads[ia] - grads[ib]) @ nhat
        for i in owners:
            eta2[i] += 0.5 * elen * (jump ** 2) * elen
    return np.sqrt(eta2)


class TestEstimate:
    def test_affine_solution_gives_zero(self):
        nodes, elems = structured_quad_mesh(4)
        topo = build_topology(nodes, elems)
        affine = lambda x, y: 1.0 + 2.0 * np.asarray(x, float) - 3.0 * np.asarray(y, float)
        u = solve_dirichlet(assemble(nodes, elems, topo, zero), affine)
        assert total_indicator(estimate(nodes, elems, topo, u, zero)) < 1e-9

    def test_single_element_no_jump_term(self):
        topo = build_topology(SQUARE_NODES, SQUARE_ELEMS)
        u = solve_dirichlet(assemble(SQUARE_NODES, SQUARE_ELEMS, topo, one), zero)  # all dofs boundary
        eta = estimate(SQUARE_NODES, SQUARE_ELEMS, topo, u, one)
        # eta^2 = h^2 |K| f(c)^2 + stabilization(0) = 2
        assert eta == pytest.approx([np.sqrt(2.0)], rel=1e-12)

    def test_2x2_grid_against_quadrature_oracle(self):
        nodes, elems = structured_quad_mesh(2)
        topo = build_topology(nodes, elems)
        u = solve_dirichlet(assemble(nodes, elems, topo, one), zero)
        eta = estimate(nodes, elems, topo, u, one)
        oracle = indicator_oracle(nodes, elems, u, lambda x, y: 1.0)
        assert eta == pytest.approx(oracle, rel=1e-11)

    def test_refined_mesh_against_quadrature_oracle(self):
        from polyrefine import refine

        nodes, elems = refine(*structured_quad_mesh(2), [0])
        topo = build_topology(nodes, elems)
        uex, f = gaussian_peak_problem()
        u = solve_dirichlet(assemble(nodes, elems, topo, f), uex)
        eta = estimate(nodes, elems, topo, u, f)
        oracle = indicator_oracle(nodes, elems, u, lambda x, y: float(f(x, y)))
        assert eta == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("mesh", ["voronoi0", "grid4_random4"])
    def test_polygonal_meshes_against_quadrature_oracle(self, mesh):
        # cells of 4 to 7 vertices: Voronoi cells, or hanging nodes of several levels
        from polyrefine import refine

        if mesh == "voronoi0":
            nodes, elems = centroidal_voronoi_mesh(0)
        else:
            rng = np.random.default_rng(3)
            nodes, elems = structured_quad_mesh(4)
            for _ in range(4):
                nodes, elems = refine(nodes, elems, np.sort(rng.choice(len(elems), len(elems) // 4, replace=False)))
        topo = build_topology(nodes, elems)
        assert sorted({len(c) for c in elems}) == [4, 5, 6, 7]
        assert topo.hanging.any() == (mesh == "grid4_random4")
        uex, f = gaussian_peak_problem()
        u = solve_dirichlet(assemble(nodes, elems, topo, f), uex)
        eta = estimate(nodes, elems, topo, u, f)
        oracle = indicator_oracle(nodes, elems, u, lambda x, y: float(f(x, y)))
        assert eta == pytest.approx(oracle, rel=1e-10)

    def test_solution_of_the_wrong_length(self):
        # too short used to raise a bare IndexError, too long was silently cut
        nodes, elems = structured_quad_mesh(2)
        topo = build_topology(nodes, elems)
        for n in (3, 11):
            with pytest.raises(ValueError, match=f"^the solution has {n} values, the mesh 9 nodes$"):
                estimate(nodes, elems, topo, np.arange(float(n)), zero)


class TestDorflerMark:
    def test_worked_example(self):
        assert list(dorfler_mark([4.0, 3.0, 2.0, 1.0], 0.4)) == [0]

    def test_brute_force_prefix_minimality(self):
        eta = np.array([4.0, 3.0, 2.0, 1.0])
        total = np.sum(eta ** 2)
        order = np.argsort(-eta, kind="stable")
        best = next(
            k for k in range(1, 5) if np.sum(eta[order[:k]] ** 2) >= 0.4 * total
        )
        assert len(dorfler_mark(eta, 0.4)) == best

    def test_theta_one_marks_all_positive(self):
        marked = dorfler_mark([1.0, 0.0, 2.0, 0.0, 0.5], 1.0)
        assert list(marked) == [0, 2, 4]

    def test_equal_indicators_prefix(self):
        assert list(dorfler_mark(np.ones(10), 0.4)) == [0, 1, 2, 3]

    def test_all_zero_marks_nothing(self):
        assert len(dorfler_mark(np.zeros(5), 0.4)) == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dorfler_mark([], 0.4)
        with pytest.raises(ValueError):
            dorfler_mark([1.0], 0.0)
        with pytest.raises(ValueError):
            dorfler_mark([1.0], 1.5)
        with pytest.raises(ValueError):
            dorfler_mark([-1.0], 0.4)
        # a matrix or a scalar is not a vector of element indicators
        for eta, shape in (([[1.0, 4.0], [3.0, 2.0]], r"\(2, 2\)"), (2.0, r"\(\)")):
            with pytest.raises(ValueError, match=f"^indicators must form a non-empty 1-D vector, got shape {shape}$"):
                dorfler_mark(eta, 0.4)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
        st.floats(0.05, 1.0),
    )
    def test_dorfler_property_and_minimality(self, eta, theta):
        eta = np.asarray(eta)
        marked = dorfler_mark(eta, theta)
        total = float(np.sum(eta ** 2))
        got = float(np.sum(eta[marked] ** 2))
        assert got >= theta * total - 1e-12 * max(total, 1.0)
        if len(marked) and total > 0:
            smallest = marked[np.argmin(eta[marked])]
            rest = got - float(eta[smallest] ** 2)
            assert rest < theta * total + 1e-12 * total

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.001, 100.0), min_size=1, max_size=20),
        st.floats(0.1, 1.0),
        st.floats(0.01, 1000.0),
    )
    def test_scaling_invariance(self, eta, theta, c):
        eta = np.asarray(eta)
        assert list(dorfler_mark(eta, theta)) == list(dorfler_mark(c * eta, theta))


class TestAdaptiveLoop:
    def test_affine_stops_immediately(self):
        nodes, elems = structured_quad_mesh(3)
        affine = lambda x, y: 0.5 - 1.5 * np.asarray(x, float) + np.asarray(y, float)
        run = adaptive_loop(nodes, elems, zero, affine, theta=0.4, max_steps=10)
        assert len(run.records) == 1
        assert run.records[0].total_eta < 1e-9
        assert run.records[0].marked_count == 0

    def test_max_steps_zero_returns_initial_record(self):
        nodes, elems = structured_quad_mesh(4)
        uex, f = gaussian_peak_problem()
        run = adaptive_loop(nodes, elems, f, uex, max_steps=0)
        assert len(run.records) == 1
        assert run.records[0].step == 0
        assert run.records[0].num_elements == 16

    def test_peak_problem_short_run(self):
        nodes, elems = structured_quad_mesh(8)
        uex, f = gaussian_peak_problem()
        run = adaptive_loop(nodes, elems, f, uex, theta=0.4, max_steps=5)
        assert len(run.records) == 6
        nts = [r.num_elements for r in run.records]
        assert all(b > a for a, b in zip(nts, nts[1:]))
        assert validate_mesh(run.nodes, run.elements).ok
        assert run.records[-1].num_elements == len(run.elements)

    def test_on_step_sees_each_record_mesh_and_indicators(self):
        nodes, elems = structured_quad_mesh(8)
        uex, f = gaussian_peak_problem()
        calls = []
        run = adaptive_loop(nodes, elems, f, uex, theta=0.4, max_steps=3,
                            on_step=lambda *args: calls.append(args))
        assert [c[0] for c in calls] == [r.step for r in run.records] == [0, 1, 2, 3]
        for (step, n, e, u, eta, marked), rec in zip(calls, run.records):
            assert (len(n), len(e), len(marked)) == (rec.num_nodes, rec.num_elements, rec.marked_count)
            assert len(u) == len(n)
            assert len(eta) == len(e)
            assert np.linalg.norm(eta) == rec.total_eta
            assert all(type(v) is int for cyc in e for v in cyc)
        _, n, e, u, _, _ = calls[-1]
        assert n is run.nodes and e is run.elements and u is run.solution

    def test_every_table_holds_one_int_object_per_vertex(self):
        # 441 nodes, so most indices are above the 256 that Python caches
        nodes, elems = structured_quad_mesh(20)
        uex, f = gaussian_peak_problem()
        seen = []
        run = adaptive_loop(nodes, elems, f, uex, theta=0.4, max_steps=3,
                            on_step=lambda step, n, e, *rest: seen.append((len(n), e)))
        assert len(seen) == 4
        for n, e in seen + [(len(run.nodes), run.elements)]:
            assert len({id(v) for cyc in e for v in cyc}) == n
            assert all(type(v) is int for cyc in e for v in cyc)

    @pytest.mark.parametrize("cell", [[0, 1, 4.7, 3], [0, 1]], ids=["non-index", "two-vertex"])
    def test_the_start_table_is_checked_before_lists_are_built(self, cell, monkeypatch):
        """The loop lists its start table from the topology it builds, so a bad table
        raises what ``build_topology`` raises before any list is built from it."""
        nodes, elems = structured_quad_mesh(2)
        elems[0] = cell
        with pytest.raises(MeshError) as expected:
            build_topology(nodes, elems)
        built, cycle_lists = [], adaptivity._cycle_lists

        def recorded_cycle_lists(offsets, cycles):
            built.append(cycles.tolist())
            return cycle_lists(offsets, cycles)

        monkeypatch.setattr(adaptivity, "_cycle_lists", recorded_cycle_lists)
        uex, f = gaussian_peak_problem()
        with pytest.raises(MeshError) as raised:
            adaptive_loop(nodes, elems, f, uex, max_steps=0)
        assert (raised.type, str(raised.value)) == (expected.type, str(expected.value))
        assert built == []

    def test_dof_cap_stops_early(self):
        nodes, elems = structured_quad_mesh(8)
        uex, f = gaussian_peak_problem()
        run = adaptive_loop(nodes, elems, f, uex, theta=0.4, max_steps=30, dof_cap=120)
        assert run.records[-1].num_nodes >= 120
        assert len(run.records) < 31

    def test_estimator_trend_five_step_windows(self):
        """From the first refined mesh on, the total indicator never grows
        across a five-step window.  (The step-0 value underestimates the
        data term: one-point quadrature cannot see the peak on the coarse
        initial grid, so windows anchored there are excluded.)"""
        nodes, elems = structured_quad_mesh(8)
        uex, f = gaussian_peak_problem()
        run = adaptive_loop(nodes, elems, f, uex, theta=0.4, max_steps=12)
        eta = [r.total_eta for r in run.records]
        assert all(eta[k + 5] <= eta[k] for k in range(1, len(eta) - 5))


class TestConvergenceRate:
    def test_power_law_over_the_second_half(self):
        # eta = N^-0.5 from the fourth record on; the first three are off the line
        n = [10, 20, 40, 80, 160, 320, 640]
        eta = [1.0, 5.0, 0.1] + [k ** -0.5 for k in n[3:]]
        records = [StepRecord(i, k, k, e, 0) for i, (k, e) in enumerate(zip(n, eta))]
        assert convergence_rate(records) == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_records(self):
        records = [StepRecord(i, 10 * (i + 1), 1, 1.0, 0) for i in range(2)]
        with pytest.raises(ValueError, match="at least 3 records"):
            convergence_rate(records)
        assert convergence_rate(records + [StepRecord(2, 40, 1, 0.5, 0)]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("num_nodes, total_eta", [(40, 0.0), (40, -0.5), (0, 0.5)])
    def test_a_non_positive_record_is_named(self, num_nodes, total_eta):
        records = [StepRecord(0, 10, 1, 1.0, 0), StepRecord(1, 20, 1, 0.7, 0),
                   StepRecord(2, num_nodes, 1, total_eta, 0)]
        with pytest.raises(ValueError, match=f"^step 2 has {num_nodes} nodes and total_eta {total_eta}, not both positive$"):
            convergence_rate(records)

    @pytest.mark.parametrize("total_eta", [float("nan"), float("inf")])
    def test_a_non_finite_indicator_is_named(self, total_eta):
        records = [StepRecord(0, 10, 1, 1.0, 0), StepRecord(1, 20, 1, total_eta, 0),
                   StepRecord(2, 40, 1, 0.5, 0)]
        with pytest.raises(ValueError, match=f"^step 1 has total_eta {total_eta}, not finite$"):
            convergence_rate(records)

    def test_one_node_count_has_no_slope(self):
        records = [StepRecord(0, 10, 1, 1.0, 0), StepRecord(1, 20, 1, 0.7, 0),
                   StepRecord(2, 20, 1, 0.5, 0)]
        with pytest.raises(ValueError, match="^steps 1 to 2 all have 20 nodes, so no slope exists$"):
            convergence_rate(records)
