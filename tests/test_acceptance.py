"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds (run with ``-v`` to
see one line per criterion either way).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from polyrefine import (
    adaptive_loop,
    assemble,
    build_topology,
    check_conformity,
    convergence_rate,
    dorfler_mark,
    estimate,
    gaussian_peak_problem,
    load_mesh,
    mesh_area,
    refine,
    save_mesh,
    solve_dirichlet,
    structured_quad_mesh,
    total_indicator,
    validate_mesh,
)
from polyrefine.cli import cli_main
from polyrefine.meshfile import read_mesh_file

from sample_meshes import (
    SQUARE_ELEMS,
    SQUARE_NODES,
    TRIANGLE_ELEMS,
    TRIANGLE_NODES,
    base_mesh_pool,
    cascade_mesh,
    centroidal_voronoi_mesh,
    hexagon_patch,
    pentagon_pair,
    refinement_of,
)
from test_refinement import brute_force_closure

NUM_TRIALS = 200
ROUNDS_PER_TRIAL = 5


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def randomized_trials():
    """Refinement trials shared by criteria 2 and 3."""
    pool = base_mesh_pool()
    conformity_failures = []
    area_errors = []
    for trial in range(NUM_TRIALS):
        rng = np.random.default_rng(1_000 + trial)
        nodes, elems = pool[trial % len(pool)]
        nodes = nodes.copy()
        elems = [list(c) for c in elems]
        ref_area = mesh_area(nodes, elems)
        for _ in range(ROUNDS_PER_TRIAL):
            size = int(rng.integers(1, 4))
            marked = rng.choice(len(elems), size=min(size, len(elems)), replace=False)
            nodes, elems = refine(nodes, elems, marked)
            report = validate_mesh(nodes, elems)
            if not report.ok:
                conformity_failures.append((trial, str(report)))
            issues = check_conformity(nodes, elems)
            if issues:
                conformity_failures.append((trial, issues))
            area_errors.append(abs(mesh_area(nodes, elems) - ref_area) / ref_area)
    return conformity_failures, np.array(area_errors)


def test_criterion_1_single_element_counts():
    nodes, elems = refine(SQUARE_NODES, SQUARE_ELEMS, [0])
    assert (len(nodes), len(elems)) == (9, 4)
    nodes, elems = refine(TRIANGLE_NODES, TRIANGLE_ELEMS, [0])
    assert (len(nodes), len(elems)) == (7, 3)
    print("PASS criterion 1: square -> (9, 4), triangle -> (7, 3)")


def test_criterion_2_one_hanging_node_rule(randomized_trials):
    failures, _ = randomized_trials
    assert failures == [], failures[:5]
    print(f"PASS criterion 2: {NUM_TRIALS} trials x {ROUNDS_PER_TRIAL} refinements, 0 violations")


def test_criterion_3_area_conservation(randomized_trials):
    _, area_errors = randomized_trials
    assert area_errors.max() <= 1e-12
    print(f"PASS criterion 3: max relative area drift {area_errors.max():.3e} <= 1e-12")


def test_criterion_4_closure_matches_brute_force():
    nodes, elems = cascade_mesh()
    topo = build_topology(nodes, elems)
    got = refinement_of(nodes, elems, [0])[0]
    assert got == {5, 7}
    assert got == brute_force_closure(nodes, elems, topo, [0])
    print("PASS criterion 4: cascade closure({0}) == {5, 7} == brute force")


def test_criterion_5_vem_patch_test():
    def affine(x, y):
        return 0.25 + 1.75 * np.asarray(x, float) - 0.5 * np.asarray(y, float)

    meshes = [
        (SQUARE_NODES, SQUARE_ELEMS),
        structured_quad_mesh(3),
        refine(*structured_quad_mesh(2), [0]),  # hanging nodes
        hexagon_patch(),
        pentagon_pair(),
    ]
    worst = 0.0
    for nodes, elems in meshes:
        topo = build_topology(nodes, elems)
        u = solve_dirichlet(assemble(nodes, elems, topo, zero), affine)
        worst = max(worst, float(np.abs(u - affine(nodes[:, 0], nodes[:, 1])).max()))
    assert worst <= 1e-9
    print(f"PASS criterion 5: patch test on 5 meshes, max error {worst:.3e} <= 1e-9")


def test_criterion_6_solver_against_finite_differences():
    nodes, elems = structured_quad_mesh(16)
    topo = build_topology(nodes, elems)
    u = solve_dirichlet(assemble(nodes, elems, topo, one), zero)

    m, h = 15, 1.0 / 16.0
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    A = (sp.kron(sp.identity(m), T) + sp.kron(T, sp.identity(m))) / (h * h)
    grid = np.zeros((17, 17))
    grid[1:16, 1:16] = spsolve(A.tocsc(), np.ones(m * m)).reshape(m, m)
    diff = float(np.abs(u.reshape(17, 17) - grid).max())
    assert diff <= 2e-3
    print(f"PASS criterion 6: max |VEM - FD| = {diff:.3e} <= 2e-3")


def test_criterion_7_estimator_sanity():
    nodes, elems = structured_quad_mesh(4)
    topo = build_topology(nodes, elems)
    affine = lambda x, y: 1.0 - 2.0 * np.asarray(x, float) + 0.5 * np.asarray(y, float)
    u = solve_dirichlet(assemble(nodes, elems, topo, zero), affine)
    total = total_indicator(estimate(nodes, elems, topo, u, zero))
    assert total <= 1e-9

    eta = np.array([4.0, 3.0, 2.0, 1.0])
    marked = dorfler_mark(eta, 0.4)
    # prefix brute force
    order = np.argsort(-eta, kind="stable")
    want = next(k for k in range(1, 5) if np.sum(eta[order[:k]] ** 2) >= 0.4 * np.sum(eta ** 2))
    assert list(marked) == sorted(order[:want])
    assert list(marked) == [0]
    print(f"PASS criterion 7: affine total eta {total:.3e} <= 1e-9; Doerfler([4,3,2,1], 0.4) == [0]")


def test_criterion_8_adaptive_peak_reproduction(tmp_path):
    steps = 20
    nodes, elems = structured_quad_mesh(8)
    src = tmp_path / "init.mesh"
    save_mesh(nodes, elems, src)
    prefix = str(tmp_path / "adapt")
    rc = cli_main(["adapt", "--in", str(src), "--theta", "0.4",
                   "--steps", str(steps), "--out-prefix", prefix])
    assert rc == 0

    lines = (tmp_path / "adapt.csv").read_text().strip().splitlines()
    assert lines[0] == "step,N,NT,total_eta,marked_count"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == steps
    eta = {int(r[0]): float(r[3]) for r in rows}

    # (a) refinement concentrates at the peak
    final_nodes, final_elems = load_mesh(f"{prefix}_step{steps:03d}.mesh")
    topo = build_topology(final_nodes, final_elems)
    dist = np.linalg.norm(topo.centroid - np.array([0.5, 0.117]), axis=1)
    frac = float(np.mean(dist < 0.25))
    assert frac >= 0.60

    # (b) the total estimator drops by at least a factor of ten
    assert eta[steps] <= 0.1 * eta[1]

    # (c) every intermediate mesh is valid, conforming and area preserving
    ref_area = mesh_area(nodes, elems)
    for k in range(steps + 1):
        nk, ek = read_mesh_file(f"{prefix}_step{k:03d}.mesh")
        assert validate_mesh(nk, ek).ok, f"step {k} invalid"
        assert check_conformity(nk, ek) == [], f"step {k} nonconforming"
        assert abs(mesh_area(nk, ek) - ref_area) / ref_area <= 1e-12

    print(
        "PASS criterion 8: "
        f"{frac:.0%} of elements within 0.25 of the peak; "
        f"eta20/eta1 = {eta[steps] / eta[1]:.3f} <= 0.1; all 21 meshes conforming"
    )


def test_criterion_9_determinism_and_roundtrip(tmp_path):
    # byte-identical CLI outputs for repeated runs
    nodes, elems = structured_quad_mesh(4)
    src = tmp_path / "grid.mesh"
    save_mesh(nodes, elems, src)
    blobs = []
    for d in ["a", "b"]:
        (tmp_path / d).mkdir()
        out = tmp_path / d / "out.mesh"
        svg = tmp_path / d / "out.svg"
        assert cli_main(["refine", "--in", str(src), "--marked", "0,5", "--out", str(out)]) == 0
        assert cli_main(["render", "--in", str(out), "--out", str(svg)]) == 0
        blobs.append(out.read_bytes() + svg.read_bytes())
    assert blobs[0] == blobs[1]

    # load(save(.)) identity over golden meshes
    goldens = [
        (SQUARE_NODES, SQUARE_ELEMS),
        refine(SQUARE_NODES, SQUARE_ELEMS, [0]),
        refine(*structured_quad_mesh(2), [0]),
        refine(*cascade_mesh(), [0]),
        pentagon_pair(),
        hexagon_patch(),
    ]
    for i, (n, e) in enumerate(goldens):
        p = tmp_path / f"g{i}.mesh"
        save_mesh(n, e, p)
        n2, e2 = load_mesh(p)
        assert np.array_equal(np.asarray(n, dtype=float), n2)
        assert [list(map(int, c)) for c in e] == e2
    print("PASS criterion 9: repeated runs byte-identical; load(save(mesh)) is the identity")


@pytest.mark.parametrize("start", ["quad8", "voronoi0"])
def test_criterion_10_asserted_convergence_rate(start):
    # the second-half slope of log eta against log N on the peak problem;
    # the optimal rate is -1/2 (measured: -0.552 on the quad start, -0.636 on Voronoi seed 0)
    mesh = structured_quad_mesh(8) if start == "quad8" else centroidal_voronoi_mesh(0)
    u_exact, f = gaussian_peak_problem()
    run = adaptive_loop(*mesh, f, u_exact, theta=0.4, dof_cap=10000)
    assert len(run.nodes) >= 10000
    rate = convergence_rate(run.records)
    assert rate <= -0.45
    print(f"PASS criterion 10 ({start}): eta ~ N^{rate:.3f} over the second half of "
          f"{len(run.records)} meshes")
