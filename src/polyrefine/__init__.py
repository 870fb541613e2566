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
    mesh_area,
    structured_quad_mesh,
    validate_mesh,
)
from .refinement import CentroidNotInteriorError, refine
from .vem_poisson import (
    LinearSystem,
    SingularProjectionError,
    SolverError,
    assemble,
    solve_dirichlet,
)
from .adaptivity import (AdaptiveRun, StepRecord, adaptive_loop, convergence_rate, dorfler_mark, estimate,
                         total_indicator)
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
    "convergence_rate",
    "dorfler_mark",
    "estimate",
    "gaussian_peak_problem",
    "load_mesh",
    "mesh_area",
    "refine",
    "render_svg",
    "save_mesh",
    "solve_dirichlet",
    "structured_quad_mesh",
    "total_indicator",
    "validate_mesh",
]
