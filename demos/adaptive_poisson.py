"""Adaptive Poisson solve on a sharply peaked manufactured solution.

Runs the solve -> estimate -> mark -> refine loop from a uniform 8x8 grid,
prints the convergence history, and renders the final mesh and solution.
The refinement should pile up around the peak at (0.5, 0.117); the demo
exits non-zero if fewer than 90 % of the final elements lie within 0.25 of
it or if the max vertex error exceeds 1e-3.
"""

import os

import numpy as np

from polyrefine import (
    adaptive_loop,
    build_topology,
    gaussian_peak_problem,
    render_svg,
    structured_quad_mesh,
)

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

u_exact, f = gaussian_peak_problem()
nodes, elements = structured_quad_mesh(8)

run = adaptive_loop(nodes, elements, f, u_exact, theta=0.4, max_steps=18)

print(f"{'step':>4} {'nodes':>7} {'elements':>9} {'total eta':>12} {'marked':>7}")
for r in run.records:
    print(f"{r.step:>4} {r.num_nodes:>7} {r.num_elements:>9} {r.total_eta:>12.5g} {r.marked_count:>7}")

topology = build_topology(run.nodes, run.elements)
dist = np.linalg.norm(topology.centroid - [0.5, 0.117], axis=1)
near_peak = np.mean(dist < 0.25)
print(f"\n{near_peak:.1%} of the final elements sit within 0.25 of the peak")

err = np.abs(run.solution - u_exact(run.nodes[:, 0], run.nodes[:, 1])).max()
print(f"max vertex error against the exact solution: {err:.3e}")

render_svg(run.nodes, run.elements, f"{OUT}/adaptive_mesh.svg")
render_svg(run.nodes, run.elements, f"{OUT}/adaptive_solution.svg", values=run.solution)
print(f"wrote {OUT}/adaptive_mesh.svg and {OUT}/adaptive_solution.svg")

if near_peak < 0.9:
    raise SystemExit(f"refinement is not concentrated at the peak: {near_peak:.1%} of the elements near it")
if err > 1e-3:
    raise SystemExit(f"max vertex error {err:.3e} exceeds 1e-3")
