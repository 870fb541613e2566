"""Pins on the largest systems tier-1 solves.

The peak run to 150,000 nodes is the one check of the float32 factor and its
float64 corrections on systems above about 40,000 unknowns (up to 175,000
here); about 7 s and 400 MB peak RSS on 2 cores.  The 256 x 256 grid is the
benchmark's seed-0 uniform_study level 256 (65,025 unknowns): its nodal error
and estimator are pinned, so that a kernel change beyond round-off fails.
"""

import numpy as np
import pytest

from polyrefine import (
    adaptive_loop,
    assemble,
    build_topology,
    estimate,
    gaussian_peak_problem,
    refine,
    solve_dirichlet,
    structured_quad_mesh,
)


def test_peak_run_to_150000_nodes():
    u, f = gaussian_peak_problem()
    run = adaptive_loop(*structured_quad_mesh(8), f, u, theta=0.4, max_steps=1000, dof_cap=150000)
    last = run.records[-1]
    assert last.num_nodes >= 150000, last.num_nodes
    assert abs(last.total_eta / 1.178458e-3 - 1) <= 1e-6, last.total_eta


@pytest.fixture(scope="module")
def grid256():
    """The 256 x 256 grid, its topology and its assembled system, with the problem's ``(u, f)``."""
    u_exact, f = gaussian_peak_problem(center=(0.5, 0.117), decay=1000.0)
    nodes, elements = structured_quad_mesh(256)
    topology = build_topology(nodes, elements)
    return nodes, elements, topology, assemble(nodes, elements, topology, f), u_exact, f


def test_256_table_holds_one_int_object_per_vertex(grid256):
    nodes, elements = grid256[:2]
    assert len({id(v) for cycle in elements for v in cycle}) == len(nodes)


def test_256_matrix_owns_exactly_its_nonzeros(grid256):
    A = grid256[3].matrix
    for buf in (A.data, A.indices):
        assert buf.size == A.nnz and (buf.base is None or buf.base.nbytes == buf.nbytes), (buf.size, A.nnz)


def test_256_nodal_error_and_estimator_pins(grid256):
    nodes, elements, topology, system, u_exact, f = grid256
    u = solve_dirichlet(system, u_exact)
    eta = estimate(nodes, elements, topology, u, f)
    err = float(np.max(np.abs(u - u_exact(nodes[:, 0], nodes[:, 1]))))
    total = float(np.sqrt(np.sum(eta * eta)))
    assert np.isfinite(eta).all()
    assert abs(err / 5.1498296292e-5 - 1) <= 1e-6, err
    assert abs(total / 1.9248948355e-2 - 1) <= 1e-9, total


def test_refining_every_256_cell_lists_quadrilaterals(grid256):
    # 262,144 cells of one length, so refine lists them by the one-length path
    nodes, elements, topology = grid256[:3]
    fine_nodes, fine = refine(nodes, elements, range(len(elements)), topology=topology)
    assert len(fine) == 4 * len(elements) == 262144 and {len(cycle) for cycle in fine} == {4}
    assert len({id(v) for cycle in fine for v in cycle}) == len(fine_nodes)
