"""polyrefine: local refinement of polygonal meshes with hanging-node
closure, a lowest-order virtual element Poisson solver, and an adaptive
refinement loop."""

from .mesh_core import (
    DegeneratePolygonError,
    InvalidIndexError,
    MeshError,
    MeshTopology,
    NonManifoldEdgeError,
    TooDenseError,
    ValidationReport,
    build_topology,
    check_conformity,
    detect_hanging_nodes,
    element_diameter,
    mesh_area,
    polygon_area,
    polygon_centroid,
    structured_quad_mesh,
    validate_mesh,
)
from .refinement import CentroidNotInteriorError, closure_marked_set, compute_cut_edges, refine
from .vem_poisson import (
    LinearSystem,
    SingularProjectionError,
    SolverError,
    assemble,
    local_stiffness,
    solve_dirichlet,
    solve_poisson,
)
from .adaptivity import AdaptiveRun, StepRecord, adaptive_loop, dorfler_mark, estimate, total_indicator
from .meshfile import MeshParseError, MeshValidationError, load_mesh, save_mesh
from .problems import gaussian_peak_problem
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRun",
    "CentroidNotInteriorError",
    "DegeneratePolygonError",
    "InvalidIndexError",
    "LinearSystem",
    "MeshError",
    "MeshParseError",
    "MeshTopology",
    "MeshValidationError",
    "NonManifoldEdgeError",
    "SingularProjectionError",
    "SolverError",
    "StepRecord",
    "TooDenseError",
    "ValidationReport",
    "adaptive_loop",
    "assemble",
    "build_topology",
    "check_conformity",
    "closure_marked_set",
    "compute_cut_edges",
    "detect_hanging_nodes",
    "dorfler_mark",
    "element_diameter",
    "estimate",
    "gaussian_peak_problem",
    "load_mesh",
    "local_stiffness",
    "mesh_area",
    "polygon_area",
    "polygon_centroid",
    "refine",
    "render_svg",
    "save_mesh",
    "solve_dirichlet",
    "solve_poisson",
    "structured_quad_mesh",
    "total_indicator",
    "validate_mesh",
]
