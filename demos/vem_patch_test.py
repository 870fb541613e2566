"""Solver sanity checks on general polygonal meshes.

The lowest-order virtual element scheme reproduces affine solutions exactly
on any admissible polygonal mesh (the patch test), including meshes with
hanging nodes; and on a uniform grid it agrees with a classical five-point
finite difference solve to discretization accuracy.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from polyrefine import assemble, build_topology, refine, solve_dirichlet, structured_quad_mesh


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def affine(x, y):
    return 0.3 + 1.1 * np.asarray(x, float) - 0.7 * np.asarray(y, float)


meshes = {
    "4x4 quad grid": structured_quad_mesh(4),
    "refined grid with hanging nodes": refine(*structured_quad_mesh(2), [0]),
    "irregular refinement": refine(*refine(*structured_quad_mesh(3), [0, 4]), [2]),
}
print("patch test (affine boundary data, f = 0):")
worst = 0.0
for name, (nodes, elements) in meshes.items():
    topology = build_topology(nodes, elements)
    u = solve_dirichlet(assemble(nodes, elements, topology, zero), affine)
    err = np.abs(u - affine(nodes[:, 0], nodes[:, 1])).max()
    print(f"  {name:34s} max vertex error {err:.2e}")
    worst = max(worst, err)

# f = 1, u = 0 on the boundary of the unit square, against 5-point differences
n = 16
nodes, elements = structured_quad_mesh(n)
topology = build_topology(nodes, elements)
u = solve_dirichlet(assemble(nodes, elements, topology, one), zero)

m, h = n - 1, 1.0 / n
T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
A = (sp.kron(sp.identity(m), T) + sp.kron(T, sp.identity(m))) / (h * h)
fd = np.zeros((n + 1, n + 1))
fd[1:n, 1:n] = spsolve(A.tocsc(), np.ones(m * m)).reshape(m, m)

print(f"\nf = 1 on the {n}x{n} grid:")
print(f"  peak value      {u.max():.5f} (five-point oracle {fd.max():.5f})")
print(f"  max difference  {np.abs(u.reshape(n + 1, n + 1) - fd).max():.2e}")

if worst > 1e-9:
    raise SystemExit(f"patch test failed: max vertex error {worst:.2e}")
