"""The benchmark's three workloads: inputs made from a seed, the timed run,
and the correctness gates that check what the run produced.

``adapt_peak``     the paper's loop: adaptive_loop on the Gaussian peak
                   problem from an 8x8 grid, theta = 0.4, dof_cap = 40000.
                   Seeds other than 0 translate the whole problem (domain,
                   grid and peak) by a seeded offset: every input value
                   changes, the refinement trajectory does not.
``uniform_study``  topology, assembly, solve and estimate on uniform grids
                   64^2 .. 512^2 (no refinement).  Seeds other than 0 move
                   the peak centre inside a box near y = 0.
``refine_verify``  seeded scattered marking of 15 % of the elements for six
                   passes from a 32x32 grid, each pass validated, checked for
                   conformity and area, then a save/load round trip.

Every run is one process with one caller: each call waits for the one
before it.  A run returns one verdict per operation (a mesh run, a level or
a pass), progress timestamps for ``time_to_target_s`` and its outputs;
``finish`` applies the gates after timing and makes a summary that the
reference of seed 0 pins and that repetitions must reproduce.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import polyrefine as pr

WORKLOADS = ("adapt_peak", "uniform_study", "refine_verify")

SIZES = {
    "full": {
        "adapt_peak": {"start": 8, "theta": 0.4, "dof_cap": 40000, "decay": 1000.0,
                       "target": 3.0e-3, "eta_drop": 0.1, "error_share": 0.01},
        "uniform_study": {"levels": (64, 128, 256, 512), "decay": 1000.0, "target": 4.0e-3},
        "refine_verify": {"start": 32, "passes": 6, "fraction": 0.15, "target": 12000},
    },
    # tiny sizes for the benchmark's own tests; broader peaks, so that the
    # coarse grids are already in the asymptotic range
    "small": {
        "adapt_peak": {"start": 8, "theta": 0.4, "dof_cap": 500, "decay": 300.0,
                       "target": 3.0e-2, "eta_drop": 0.25, "error_share": 0.05},
        "uniform_study": {"levels": (8, 16, 32), "decay": 10.0, "target": 2.0e-2},
        "refine_verify": {"start": 8, "passes": 2, "fraction": 0.15, "target": 100},
    },
}

# Outputs of seed 0 at full size.
REFERENCE = {
    "adapt_peak": {"meshes": 25, "nodes": 41744, "elements": 40942, "eta": 2.430125e-3},
    "uniform_study": {"errors": {128: 2.0944426873e-4, 256: 5.1498296292e-5,
                                 512: 1.2748060036e-5}},
    "refine_verify": {"nodes": 30803, "elements": 24754,
                      "digest": "6514b9f6ba89ed923f3264513b8bffdfe72c62171318f186aa5b229b7b4148f6"},
}

# The peak centre of seed 0 is the paper's; uniform_study draws the centre of
# other seeds from PEAK_BOX, adapt_peak draws a translation from SHIFT_BOX.
# Moving the peak relative to the 8x8 grid changes the adaptive trajectory
# (40k to 54k final nodes, 0.3 spread of wall time over five seeds), so
# adapt_peak moves the grid with it.
PEAK_CENTRE = (0.5, 0.117)
PEAK_BOX = ((0.4, 0.6), (0.10, 0.13))
SHIFT_BOX = ((-0.5, 0.5), (-0.5, 0.5))

AREA_RTOL = 1e-12          # area conservation, relative, round-off level
ETA_RTOL = 1e-6            # final estimator against the seed-0 reference
ERROR_RTOL = 1e-6          # nodal errors against the seed-0 reference
RATE_RANGE = (3.5, 4.5)    # error reduction per uniform level (second order)
FIRST_RATE_MIN = 3.0       # the coarsest step is still pre-asymptotic


@dataclass
class Outcome:
    """What one run of a workload produced."""

    failures: list                                   # per operation: None or a reason
    progress: list = field(default_factory=list)     # (seconds, value) per mesh/level/pass
    output: dict = field(default_factory=dict)       # what the gates check


def _in_box(seed: int, stream: int, box):
    rng = np.random.default_rng([seed, stream])
    (x0, x1), (y0, y1) = box
    return float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1))


def peak_centre(seed: int):
    return PEAK_CENTRE if seed == 0 else _in_box(seed, 1, PEAK_BOX)


def shift(seed: int):
    return (0.0, 0.0) if seed == 0 else _in_box(seed, 3, SHIFT_BOX)


def translated(fn, a: float, b: float):
    """``fn`` moved by ``(a, b)``: the returned function at ``(x, y)`` is
    ``fn(x - a, y - b)``."""
    if a == 0.0 and b == 0.0:
        return fn

    def moved(x, y):
        return fn(np.asarray(x, dtype=float) - a, np.asarray(y, dtype=float) - b)

    return moved


def mesh_digest(nodes, elements) -> str:
    """SHA-256 of the node table bytes and the element cycles."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(nodes, dtype="<f8").tobytes())
    lengths = np.array([len(c) for c in elements], dtype="<i8")
    h.update(lengths.tobytes())
    h.update(np.concatenate([np.asarray(c, dtype="<i8") for c in elements]).tobytes())
    return h.hexdigest()


def crossing_time(progress, target):
    """Time at which a decreasing quantity first reaches ``target``.

    Interpolated log-linearly between the last point above the target and
    the first at or below it, so the figure moves smoothly when a change
    shifts the trajectory; ``None`` if the target is never reached.
    """
    prev = None
    for t, v in progress:
        if v <= target:
            if prev is None or prev[1] <= target or v <= 0.0:
                return t
            w = math.log(prev[1] / target) / math.log(prev[1] / v)
            return prev[0] + w * (t - prev[0])
        prev = (t, v)
    return None


def make_inputs(name: str, seed: int, size: dict) -> dict:
    """Everything a run needs, made from the seed (the set-up phase)."""
    if name == "adapt_peak":
        a, b = shift(seed)
        u, f = pr.gaussian_peak_problem(center=PEAK_CENTRE, decay=size["decay"])
        nodes, elements = pr.structured_quad_mesh(size["start"], origin=(a, b))
        return {"u": translated(u, a, b), "f": translated(f, a, b),
                "nodes": nodes, "elements": elements}
    if name == "uniform_study":
        u, f = pr.gaussian_peak_problem(center=peak_centre(seed), decay=size["decay"])
        return {"u": u, "f": f, "meshes": [pr.structured_quad_mesh(n) for n in size["levels"]]}
    if name == "refine_verify":
        nodes, elements = pr.structured_quad_mesh(size["start"])
        return {"rng": np.random.default_rng([seed, 2]), "nodes": nodes, "elements": elements}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- adapt_peak

def run_adapt_peak(inputs, size, workdir=None) -> Outcome:
    t0 = perf_counter()
    progress = []

    def on_step(step, nodes, elements, u, eta, marked):
        progress.append((perf_counter() - t0, float(np.linalg.norm(eta))))

    try:
        run = pr.adaptive_loop(inputs["nodes"], inputs["elements"], inputs["f"], inputs["u"],
                               theta=size["theta"], max_steps=1000,
                               dof_cap=size["dof_cap"], on_step=on_step)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return Outcome([f"adaptive_loop raised {exc!r}"], progress)
    return Outcome([None], progress, {"run": run})


def adapt_summary(run) -> dict:
    return {"meshes": len(run.records), "nodes": len(run.nodes), "elements": len(run.elements),
            "eta": run.records[-1].total_eta, "digest": mesh_digest(run.nodes, run.elements)}


def gate_adapt_peak(run, u_exact, size, reference=None) -> list:
    """Reasons the adaptive run is wrong (empty when it passes)."""
    bad = []
    nodes, elements = run.nodes, run.elements
    etas = [r.total_eta for r in run.records]
    if len(nodes) < size["dof_cap"]:
        bad.append(f"stopped at {len(nodes)} nodes, below dof_cap {size['dof_cap']}")
    if min(etas) > size["target"]:
        bad.append(f"eta never reached {size['target']:.1e} (min {min(etas):.3e})")
    if len(etas) > 2 and not etas[-1] <= size["eta_drop"] * etas[1]:
        bad.append(f"eta fell only from {etas[1]:.3e} to {etas[-1]:.3e}")
    area = pr.mesh_area(nodes, elements)
    if abs(area - 1.0) > AREA_RTOL:
        bad.append(f"mesh area {area!r} != 1")
    u_nodes = u_exact(nodes[:, 0], nodes[:, 1])
    err = float(np.max(np.abs(run.solution - u_nodes)))
    if not err <= size["error_share"] * float(np.max(np.abs(u_nodes))):
        bad.append(f"max nodal error {err:.3e} is over {size['error_share']:.0%} of max |u|")
    if reference:
        got = adapt_summary(run)
        for key in ("meshes", "nodes", "elements"):
            if got[key] != reference[key]:
                bad.append(f"{key} {got[key]} != reference {reference[key]}")
        if not math.isclose(got["eta"], reference["eta"], rel_tol=ETA_RTOL):
            bad.append(f"final eta {got['eta']!r} != reference {reference['eta']!r}")
    return bad


# ------------------------------------------------------------- uniform_study

def run_uniform_study(inputs, size, workdir=None) -> Outcome:
    u_exact, f = inputs["u"], inputs["f"]
    t0 = perf_counter()
    failures, progress, levels = [], [], []
    for n, (nodes, elements) in zip(size["levels"], inputs["meshes"]):
        try:
            topology = pr.build_topology(nodes, elements)
            system = pr.assemble(nodes, elements, topology, f)
            u = pr.solve_dirichlet(system, u_exact)
            eta = pr.estimate(nodes, elements, topology, u, f)
        except Exception as exc:
            failures.append(f"level {n}: {exc!r}")
            levels.append(None)
            continue
        u_nodes = u_exact(nodes[:, 0], nodes[:, 1])
        err = float(np.max(np.abs(u - u_nodes)))
        progress.append((perf_counter() - t0, err / float(np.max(np.abs(u_nodes)))))
        levels.append({"n": n, "nodes": nodes, "elements": elements, "u": u,
                       "error": err, "eta": float(np.linalg.norm(eta))})
        failures.append(None)
    return Outcome(failures, progress, {"levels": levels})


def gate_uniform_level(level, previous, u_exact, reference=None) -> list:
    """Reasons one level of the study is wrong (empty when it passes).

    ``previous`` is the level before it, or ``None`` for the coarsest one.
    """
    bad = []
    n, nodes, elements = level["n"], level["nodes"], level["elements"]
    if len(elements) != n * n or len(nodes) != (n + 1) ** 2:
        bad.append(f"level {n}: {len(nodes)} nodes / {len(elements)} elements")
    area = pr.mesh_area(nodes, elements)
    if abs(area - 1.0) > AREA_RTOL:
        bad.append(f"level {n}: mesh area {area!r} != 1")
    err = float(np.max(np.abs(level["u"] - u_exact(nodes[:, 0], nodes[:, 1]))))
    if not math.isclose(err, level["error"], rel_tol=1e-12):
        bad.append(f"level {n}: error {err:.6e} differs from the one the run measured")
    if previous is not None:
        rate = previous["error"] / err
        if previous.get("coarsest"):
            ok = rate >= FIRST_RATE_MIN
        else:
            ok = RATE_RANGE[0] <= rate <= RATE_RANGE[1]
        if not ok:
            bad.append(f"level {n}: error fell by {rate:.2f}x, expected about 4x")
    ref = (reference or {}).get("errors", {}).get(n)
    if ref is not None and not math.isclose(err, ref, rel_tol=ERROR_RTOL):
        bad.append(f"level {n}: max nodal error {err!r} != reference {ref!r}")
    return bad


def gate_uniform_study(levels, u_exact, reference=None) -> list:
    """Per-level verdicts: ``None`` or a reason.  A level that failed in
    the run (``None`` in ``levels``) is left to the run's verdict."""
    verdicts = []
    previous = None
    for k, level in enumerate(levels):
        if level is None:
            verdicts.append(None)
            previous = None
            continue
        verdicts.append("; ".join(gate_uniform_level(level, previous, u_exact, reference)) or None)
        previous = dict(level, coarsest=(k == 0))
    return verdicts


# ------------------------------------------------------------- refine_verify

def gate_refine_pass(nodes, elements, area0: float) -> list:
    """Reasons a refined mesh is wrong (empty when it passes)."""
    bad = []
    report = pr.validate_mesh(nodes, elements)
    if not report.ok:
        bad.append(f"{len(report.violations)} validation violations, first: {report.violations[0]}")
    conformity = pr.check_conformity(nodes, elements)
    if conformity:
        bad.append(f"{len(conformity)} conformity violations, first: {conformity[0]}")
    area = pr.mesh_area(nodes, elements)
    if abs(area - area0) > AREA_RTOL * abs(area0):
        bad.append(f"area {area!r} != {area0!r}")
    return bad


def roundtrip(nodes, elements, path) -> list:
    """Reasons ``load_mesh(save_mesh(mesh))`` is not the identity."""
    pr.save_mesh(nodes, elements, path)
    try:
        nodes2, elements2 = pr.load_mesh(path)
    finally:
        os.remove(path)
    bad = []
    if not np.array_equal(np.asarray(nodes, dtype=float), nodes2):
        bad.append("round trip changed the node table")
    if [list(map(int, c)) for c in elements] != elements2:
        bad.append("round trip changed the element table")
    return bad


def run_refine_verify(inputs, size, workdir) -> Outcome:
    rng = inputs["rng"]
    nodes, elements = inputs["nodes"], inputs["elements"]
    area0 = pr.mesh_area(nodes, elements)
    t0 = perf_counter()
    failures, progress = [], []
    for p in range(size["passes"]):
        k = max(1, int(round(size["fraction"] * len(elements))))
        marked = np.sort(rng.choice(len(elements), size=k, replace=False))
        try:
            nodes, elements = pr.refine(nodes, elements, marked)
            bad = gate_refine_pass(nodes, elements, area0)
            if p == size["passes"] - 1:
                bad += roundtrip(nodes, elements, os.path.join(workdir, f"refine_verify-{os.getpid()}.mesh"))
        except Exception as exc:
            bad = [f"pass {p}: {exc!r}"]
        failures.append("; ".join(bad) or None)
        progress.append((perf_counter() - t0, 1.0 / len(nodes)))
    return Outcome(failures, progress, {"nodes": nodes, "elements": elements})


# ------------------------------------------------------------------- common

RUNNERS = {"adapt_peak": run_adapt_peak, "uniform_study": run_uniform_study,
           "refine_verify": run_refine_verify}


def target_value(name: str, size: dict) -> float:
    """The decreasing quantity's target for ``time_to_target_s``."""
    return 1.0 / size["target"] if name == "refine_verify" else size["target"]


def finish(name: str, inputs, size, outcome: Outcome, reference=None):
    """Apply the gates after timing; return ``(failures, summary)``.

    ``summary`` holds JSON figures that the repetitions of one run must
    reproduce exactly.
    """
    failures = list(outcome.failures)
    if name == "adapt_peak":
        run = outcome.output.get("run")
        if run is None:
            return failures, {}
        bad = gate_adapt_peak(run, inputs["u"], size, reference)
        failures[0] = "; ".join(bad) or None
        return failures, adapt_summary(run)
    if name == "uniform_study":
        verdicts = gate_uniform_study(outcome.output["levels"], inputs["u"], reference)
        failures = [a or b for a, b in zip(failures, verdicts)]
        errors = {lv["n"]: lv["error"] for lv in outcome.output["levels"] if lv}
        return failures, {"errors": errors,
                          "eta": {lv["n"]: lv["eta"] for lv in outcome.output["levels"] if lv}}
    nodes, elements = outcome.output["nodes"], outcome.output["elements"]
    summary = {"nodes": len(nodes), "elements": len(elements), "digest": mesh_digest(nodes, elements)}
    if reference:
        bad = [f"final {key} {summary[key]} != reference {reference[key]}"
               for key in ("nodes", "elements", "digest") if summary[key] != reference[key]]
        failures[-1] = "; ".join(filter(None, [failures[-1], *bad])) or None
    return failures, summary
