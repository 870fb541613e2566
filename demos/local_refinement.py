"""Local refinement walkthrough.

Starts from a coarse grid, repeatedly refines the elements nearest a corner,
and shows how the closure rule keeps every straight segment at one hanging
node while neighbours are extended in place.  Writes one SVG per pass.
"""

import os

import numpy as np

from polyrefine import (
    build_topology,
    check_conformity,
    mesh_area,
    refine,
    render_svg,
    structured_quad_mesh,
    validate_mesh,
)

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

nodes, elements = structured_quad_mesh(4)
print(f"initial mesh: {len(nodes)} nodes, {len(elements)} elements, area {mesh_area(nodes, elements):g}")
render_svg(nodes, elements, f"{OUT}/refine_pass0.svg")

target = np.array([0.0, 0.0])
for k in range(1, 6):
    # mark the two elements whose centroids sit closest to the corner
    topology = build_topology(nodes, elements)
    order = np.argsort(np.linalg.norm(topology.centroid - target, axis=1))
    marked = order[:2]
    nodes, elements = refine(nodes, elements, marked)

    hanging = int(build_topology(nodes, elements).hanging.sum())
    assert validate_mesh(nodes, elements).ok
    assert check_conformity(nodes, elements) == []
    print(
        f"pass {k}: marked {list(map(int, marked))} -> {len(nodes)} nodes, "
        f"{len(elements)} elements, {hanging} hanging nodes, area {mesh_area(nodes, elements):.12f}"
    )
    render_svg(nodes, elements, f"{OUT}/refine_pass{k}.svg")

print(f"wrote {OUT}/refine_pass0.svg ... refine_pass5.svg")
