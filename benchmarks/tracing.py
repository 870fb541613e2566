"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of each ``polyrefine`` layer from the
outside: for every traced name it rebinds the attribute in each loaded
``polyrefine`` module that holds the original function, so calls made
between modules (``adaptivity`` calling ``refine``, ``refinement`` calling
``build_topology``) are recorded too.  Nothing in ``src/`` is edited.

A span is ``(name, start, end, parent, run_id)``; spans stay in memory and
are written out when the run ends.  Self time is a span's duration minus
the durations of its direct children.  Counts (marked elements, matrix
nonzeros, bytes written, ...) are recorded by probes at the same
boundaries and repeat exactly between runs of one input.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
from time import perf_counter

# (module, public function, span name).  Names a later version of the
# package no longer defines are skipped when the wrappers are installed.
TRACED = [
    ("mesh_core", "build_topology", "mesh_core.build_topology"),
    ("mesh_core", "validate_mesh", "mesh_core.validate_mesh"),
    ("mesh_core", "check_conformity", "mesh_core.check_conformity"),
    ("mesh_core", "mesh_area", "mesh_core.mesh_area"),
    ("refinement", "refine", "refinement.refine"),
    ("refinement", "plan_refinement", "refinement.plan"),
    ("refinement", "closure_marked_set", "refinement.closure"),
    ("refinement", "subdivide_element", "refinement.subdivide"),
    ("refinement", "compute_cut_edges", "refinement.cut_edges"),
    ("refinement", "extend_elements", "refinement.extend"),
    ("refinement", "assemble_refined_mesh", "refinement.assemble_mesh"),
    ("vem_poisson", "assemble", "vem_poisson.assemble"),
    ("vem_poisson", "solve_dirichlet", "vem_poisson.solve_dirichlet"),
    ("adaptivity", "adaptive_loop", "adaptivity.adaptive_loop"),
    ("adaptivity", "estimate", "adaptivity.estimate"),
    ("adaptivity", "dorfler_mark", "adaptivity.dorfler_mark"),
    ("adaptivity", "total_indicator", "adaptivity.total_indicator"),
    ("meshfile", "save_mesh", "meshfile.save_mesh"),
    ("meshfile", "load_mesh", "meshfile.load_mesh"),
]

LAYERS = ["mesh_core", "refinement", "vem_poisson", "adaptivity", "meshfile"]

# Per-layer metrics of a traced run, (name, unit).  ``.s`` is self time
# summed over the run, except ``refinement.refine.s``, which is inclusive.
LAYER_METRICS = (
    [(f"{layer}.s", "s") for layer in LAYERS]
    + [
        ("mesh_core.build_topology.s", "s"),
        ("mesh_core.build_topology.calls", "count"),
        ("mesh_core.validate_mesh.s", "s"),
        ("mesh_core.check_conformity.s", "s"),
        ("mesh_core.check_conformity.rss_rise_mb", "MB"),
        ("refinement.refine.s", "s"),
        ("refinement.refine.self_s", "s"),
        ("refinement.refine.calls", "count"),
        ("refinement.plan.s", "s"),
        ("refinement.closure.s", "s"),
        ("refinement.subdivide.s", "s"),
        ("refinement.cut_edges.s", "s"),
        ("refinement.extend.s", "s"),
        ("refinement.assemble_mesh.s", "s"),
        ("refinement.marked", "count"),
        ("refinement.closure_added", "count"),
        ("refinement.cut_edges", "count"),
        ("refinement.new_nodes", "count"),
        ("refinement.new_elements", "count"),
        ("vem_poisson.assemble.s", "s"),
        ("vem_poisson.solve_dirichlet.s", "s"),
        ("vem_poisson.free_dofs", "count"),
        ("vem_poisson.nnz", "count"),
        ("adaptivity.estimate.s", "s"),
        ("adaptivity.dorfler_mark.s", "s"),
        ("adaptivity.adaptive_loop.self_s", "s"),
        ("adaptivity.steps", "count"),
        ("meshfile.save_mesh.s", "s"),
        ("meshfile.load_mesh.s", "s"),
        ("meshfile.bytes", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
    ]
)

COUNT_METRICS = [name for name, unit in LAYER_METRICS if unit == "count"]


def _rss_mb() -> float:
    """Current resident set size of this process (Linux), else 0."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_refine(counts, args, kwargs, out, before):
    nodes, elements, marked = args[:3]
    counts["refinement.marked"] += len({int(i) for i in marked})
    counts["refinement.new_nodes"] += len(out[0]) - len(nodes)
    counts["refinement.new_elements"] += len(out[1]) - len(elements)


def _probe_closure(counts, args, kwargs, out, before):
    counts["refinement.closure_added"] += len(out)


def _probe_cut_edges(counts, args, kwargs, out, before):
    counts["refinement.cut_edges"] += len(out)


def _probe_assemble(counts, args, kwargs, out, before):
    counts["vem_poisson.nnz"] += int(out.matrix.nnz)


def _probe_solve(counts, args, kwargs, out, before):
    system = args[0] if args else kwargs["system"]
    counts["vem_poisson.free_dofs"] += int((~system.boundary_mask).sum())


def _probe_loop(counts, args, kwargs, out, before):
    counts["adaptivity.steps"] += len(out.records)


def _probe_save(counts, args, kwargs, out, before):
    path = args[2] if len(args) > 2 else kwargs["path"]
    counts["meshfile.bytes"] += os.path.getsize(path)


def _before_conformity():
    return _rss_mb(), _maxrss_mb()


def _probe_conformity(counts, args, kwargs, out, before):
    # Rise of the process high-water mark above the resident size at entry,
    # for the calls that set a new high-water mark.
    rss0, max0 = before
    max1 = _maxrss_mb()
    if max1 > max0:
        rise = max1 - rss0
        counts["mesh_core.check_conformity.rss_rise_mb"] = max(
            counts.get("mesh_core.check_conformity.rss_rise_mb", 0.0), rise)


PROBES = {
    "refinement.refine": (None, _probe_refine),
    "refinement.closure": (None, _probe_closure),
    "refinement.cut_edges": (None, _probe_cut_edges),
    "vem_poisson.assemble": (None, _probe_assemble),
    "vem_poisson.solve_dirichlet": (None, _probe_solve),
    "adaptivity.adaptive_loop": (None, _probe_loop),
    "meshfile.save_mesh": (None, _probe_save),
    "mesh_core.check_conformity": (_before_conformity, _probe_conformity),
}


class Tracer:
    """Records spans and counts for calls into the traced functions."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []
        self.counts = {name: 0 for name in COUNT_METRICS}
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        before_hook, after_hook = PROBES.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook() if before_hook else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.run_id)
            if after_hook:
                after_hook(self.counts, args, kwargs, out, before)
            return out

        return traced

    def install(self, package: str = "polyrefine") -> list:
        """Rebind every traced name in every loaded module of ``package``.

        Returns the span names that were installed.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        installed = []
        for modname, fname, span in TRACED:
            home = sys.modules.get(f"{package}.{modname}")
            original = getattr(home, fname, None) if home is not None else None
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            installed.append(span)
        return installed

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def span_totals(spans) -> dict:
    """``{name: (self seconds, inclusive seconds, calls)}`` from spans.

    Inclusive time counts only the outermost span of a name, so a
    function reached again inside itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for sid, (name, start, end, parent, _) in enumerate(spans):
        s, inc, calls = totals.get(name, (0.0, 0.0, 0))
        dur = end - start
        nested = False
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        totals[name] = (s + dur - child[sid], inc + (0.0 if nested else dur), calls + 1)
    return totals


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metric values of one traced run (``trace.overhead_s`` is
    filled in by the caller, which also has the untraced runs)."""
    totals = span_totals(tracer.spans)
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    out.update(tracer.counts)
    covered = 0.0
    for name, (self_s, inc_s, calls) in totals.items():
        layer = name.split(".")[0]
        out[f"{layer}.s"] += self_s
        covered += self_s
        if f"{name}.s" in out:
            out[f"{name}.s"] = self_s
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = calls
    if "refinement.refine" in totals:
        out["refinement.refine.s"] = totals["refinement.refine"][1]
        out["refinement.refine.self_s"] = totals["refinement.refine"][0]
    if "adaptivity.adaptive_loop" in totals:
        out["adaptivity.adaptive_loop.self_s"] = totals["adaptivity.adaptive_loop"][0]
    out["trace.wall_s"] = wall_s
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
