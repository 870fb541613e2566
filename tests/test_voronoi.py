"""Acceptance checks on centroidal Voronoi meshes of the unit square, the
general convex polygons that the paper's refinement targets."""

import numpy as np
import pytest

from polyrefine import (
    adaptive_loop,
    assemble,
    build_topology,
    check_conformity,
    gaussian_peak_problem,
    mesh_area,
    solve_dirichlet,
    validate_mesh,
)

from sample_meshes import VORONOI_SEEDS, centroidal_voronoi_mesh

pytestmark = pytest.mark.parametrize("seed", VORONOI_SEEDS)


def assert_valid_conforming_unit_area(nodes, elems):
    assert validate_mesh(nodes, elems).ok
    assert check_conformity(nodes, elems) == []
    assert mesh_area(nodes, elems) == pytest.approx(1.0, rel=0.0, abs=1e-14)


def test_start_mesh(seed):
    nodes, elems = centroidal_voronoi_mesh(seed)
    assert len(elems) == 200
    assert {len(c) for c in elems} >= {4, 5, 6}
    assert_valid_conforming_unit_area(nodes, elems)


def test_affine_patch(seed):
    nodes, elems = centroidal_voronoi_mesh(seed)

    def affine(x, y):
        return 0.25 + 1.75 * np.asarray(x, float) - 0.5 * np.asarray(y, float)

    system = assemble(nodes, elems, build_topology(nodes, elems), lambda x, y: 0.0 * x)
    u = solve_dirichlet(system, affine)
    assert (~system.boundary_mask).sum() > 100
    assert np.abs(u - affine(nodes[:, 0], nodes[:, 1])).max() <= 1e-9


def test_adaptive_run_stays_valid(seed):
    u_exact, f = gaussian_peak_problem()
    run = adaptive_loop(*centroidal_voronoi_mesh(seed), f, u_exact, theta=0.4, dof_cap=5000)
    assert len(run.nodes) >= 5000
    assert build_topology(run.nodes, run.elements).hanging.any()
    assert_valid_conforming_unit_area(run.nodes, run.elements)
