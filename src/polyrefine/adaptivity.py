"""Error estimation, marking and the adaptive solve-estimate-mark-refine loop.

The per-element indicator is the standard residual-type quantity for the
lowest-order virtual element discretization,

    eta_K^2 = h_K^2 ||f||_{0,K}^2
            + S_K(u - Pi u, u - Pi u)
            + 1/2 * sum over the sides e of K of h_e ||[d(Pi u)/dn]||_{0,e}^2,

with ``f`` integrated by one-point centroid quadrature, the identity-scaled
stabilization remainder of the solver, and normal jumps of the element-wise
affine projections.  A jump is taken per side of the vertex cycle (hanging
vertices included), against the one cell ``K'`` across it: with ``h_e = |e|``
and the side ``(dx, dy)``, its term is ``[(grad Pi u|_K - grad Pi u|_K') .
(dy, -dx)]^2``.  On a boundary side ``K'`` is ``K`` (``edge2elem`` lists it
twice), so the term vanishes, as the Dirichlet data ask no flux there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_core import MeshTopology, _as_nodes, _cycle_lists, _cycle_owners, _cycle_shifts, build_topology
from .refinement import refine
from .vem_poisson import assemble, solve_dirichlet


def estimate(nodes, elements, topology: MeshTopology, u, f) -> np.ndarray:
    """Per-element residual indicators ``eta_K`` (nonnegative)."""
    nodes = _as_nodes(nodes)
    u = np.asarray(u, dtype=float)
    if u.shape != (len(nodes),):
        raise ValueError(f"the solution has {u.size} values, the mesh {len(nodes)} nodes")
    topology = topology._matching(elements)
    offsets, conc = topology.offsets, topology.cycles
    lengths = np.diff(offsets)
    _, nxt = _cycle_shifts(offsets)
    red = offsets[:-1]
    x, y = nodes.T
    x0, y0 = x[conc], y[conc]
    u0 = u[conc]
    u1 = u0[nxt]

    area = topology.area
    # gradient of the elliptic projection from the boundary integral of u*n
    gx = np.add.reduceat(0.5 * (u0 + u1) * (y0[nxt] - y0), red) / area
    gy = np.add.reduceat(-0.5 * (u0 + u1) * (x0[nxt] - x0), red) / area

    # stabilization remainder: Pi u at vertex j is ubar + grad . (V_j - Vbar)
    inv_len = 1.0 / lengths
    ubar = np.add.reduceat(u0, red) * inv_len
    vbx = np.add.reduceat(x0, red) * inv_len
    vby = np.add.reduceat(y0, red) * inv_len
    rep = _cycle_owners(offsets)
    r = u0 - (ubar[rep] + gx[rep] * (x0 - vbx[rep]) + gy[rep] * (y0 - vby[rep]))
    eta2 = np.add.reduceat(r * r, red)

    h = topology.diameter
    fc = np.asarray(f(topology.centroid[:, 0], topology.centroid[:, 1]), dtype=float)
    eta2 += h * h * np.abs(area) * fc * fc

    # the jump term of each side, against the cell across it (K itself on a boundary side)
    pair = topology.edge2elem[topology.cycle_edges]
    across = pair[:, 0] + pair[:, 1] - rep
    jump = (gx[rep] - gx[across]) * (y0[nxt] - y0) - (gy[rep] - gy[across]) * (x0[nxt] - x0)
    eta2 += 0.5 * np.add.reduceat(jump * jump, red)
    return np.sqrt(eta2)


def total_indicator(eta) -> float:
    return float(np.linalg.norm(np.asarray(eta, dtype=float)))


def dorfler_mark(eta, theta: float) -> np.ndarray:
    """Minimal prefix of elements (by descending indicator) holding a
    ``theta`` fraction of the total squared indicator.

    Ties are broken toward lower element indices; elements with zero
    indicator are never marked.  Returns sorted element indices.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError(f"indicators must form a non-empty 1-D vector, got shape {eta.shape}")
    if not (0.0 < theta <= 1.0):
        raise ValueError("marking parameter must lie in (0, 1]")
    if (eta < 0).any() or not np.isfinite(eta).all():
        raise ValueError("indicators must be finite and nonnegative")
    eta2 = eta * eta
    total = float(eta2.sum())
    order = np.argsort(-eta2, kind="stable")
    npos = int(np.count_nonzero(eta2))
    order = order[:npos]
    csum = np.cumsum(eta2[order])
    k = min(int(np.searchsorted(csum, theta * total, side="left")), npos - 1)
    return np.sort(order[:k + 1])


@dataclass(frozen=True)
class StepRecord:
    """Mesh and estimator statistics after ``step`` refinements."""

    step: int
    num_nodes: int
    num_elements: int
    total_eta: float
    marked_count: int


def convergence_rate(records) -> float:
    """Least-squares slope of ``log(total_eta)`` against ``log(num_nodes)``
    over the second half of ``records`` (optimal for the lowest-order method
    in 2-D is -1/2).  ``ValueError`` names a record of that half whose node count
    or indicator is not positive, or whose indicator is not finite, and the steps of
    a half whose records share one node count."""
    tail = records[len(records) // 2:]
    if len(tail) < 2:
        raise ValueError("a convergence rate needs at least 3 records")
    for r in tail:
        if r.num_nodes <= 0 or r.total_eta <= 0:
            raise ValueError(f"step {r.step} has {r.num_nodes} nodes and total_eta {r.total_eta}, not both positive")
        if not np.isfinite(r.total_eta):
            raise ValueError(f"step {r.step} has total_eta {r.total_eta}, not finite")
    if len({r.num_nodes for r in tail}) == 1:
        raise ValueError(f"steps {tail[0].step} to {tail[-1].step} all have {tail[0].num_nodes} nodes, so no slope exists")
    log_n = np.log([r.num_nodes for r in tail])
    log_eta = np.log([r.total_eta for r in tail])
    return float(np.polyfit(log_n, log_eta, 1)[0])


@dataclass
class AdaptiveRun:
    records: list
    nodes: np.ndarray
    elements: list
    solution: np.ndarray


def adaptive_loop(nodes, elements, f, g, theta: float = 0.4, max_steps: int = 30,
                  dof_cap: int | None = None, on_step=None) -> AdaptiveRun:
    """Iterate solve -> estimate -> mark -> refine.

    One record is appended per visited mesh (the entry for step ``k``
    describes the mesh after ``k`` refinements, with the number of elements
    marked on it).  The loop stops after ``max_steps`` refinements, when the
    node count reaches ``dof_cap``, or when nothing is marked.  Marking is
    suppressed once the total indicator falls to the round-off floor
    (1e-12 of the discrete energy norm), which is where further refinement
    cannot improve the solution.
    """
    nodes = _as_nodes(nodes).copy()
    topology = build_topology(nodes, elements)
    elements = _cycle_lists(topology.offsets, topology.cycles)
    records = []
    step = 0
    while True:
        system = assemble(nodes, elements, topology, f)
        u = solve_dirichlet(system, g)
        eta = estimate(nodes, elements, topology, u, f)
        total = total_indicator(eta)
        # einsum, not a BLAS dot, so that no thread pool is left spinning
        energy = float(np.sqrt(max(np.einsum("i,i", u, system.matrix @ u), 0.0)))
        if total <= 1e-12 * max(energy, 1.0):
            marked = np.empty(0, dtype=np.int64)
        else:
            marked = dorfler_mark(eta, theta)
        records.append(StepRecord(step, len(nodes), len(elements), total, len(marked)))
        if on_step is not None:
            on_step(step, nodes, elements, u, eta, marked)
        if step >= max_steps or len(marked) == 0 or (dof_cap is not None and len(nodes) >= dof_cap):
            break
        nodes, elements = refine(nodes, elements, marked, topology=topology)
        topology = build_topology(nodes, elements)
        step += 1
    return AdaptiveRun(records, nodes, elements, u)
