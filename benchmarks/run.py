"""polyrefine benchmark: run one workload and print its metrics.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload adapt_peak --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload in turn

The parent process starts one fresh child process per repetition and waits
for it (a closed loop with one caller).  Each child imports ``polyrefine``
from ``src/`` of the checkout, makes its inputs from the seed, runs the
workload once, checks the outputs and reports.  The parent starts
repetitions until ``--seconds`` have passed (at least ``MIN_REPS``),
reports medians, and prints a JSON object as its last line of output:
``correct``, ``attempted`` and ``failed`` operations, and ``metrics``.
``setup_s`` is the median over ``SETUP_SAMPLES`` extra children that only
set up and the measured ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see ``tracing.py``); the tracing overhead is the traced minus
the untraced median wall time.  Results, with a description of the
machine, are written to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")

WORKLOADS = ("adapt_peak", "uniform_study", "refine_verify")

# (name, unit) of every end-to-end metric, printed for each workload.
END_TO_END = [
    ("wall_s", "s"),
    ("time_to_target_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
]

MIN_REPS = 2            # repetitions per run, whatever --seconds says
SETUP_SAMPLES = 3       # extra children that only set up, for setup_s
HARD_LIMIT_S = 170.0    # a run never lasts longer than this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# --------------------------------------------------------------------- child

def child_main(args) -> int:
    """One repetition in a fresh process; prints one JSON line."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import polyrefine
    if not os.path.abspath(polyrefine.__file__).startswith(SRC + os.sep):
        print(f"polyrefine imported from {polyrefine.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads
    size = workloads.SIZES[args.size][args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed, size)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer(run_id=args.rep)
        tracer.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outcome = workloads.RUNNERS[args.workload](inputs, size, RESULTS)
    wall_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    at_reference = args.seed == 0 and args.size == "full"
    reference = workloads.REFERENCE[args.workload] if at_reference else None
    failures, summary = workloads.finish(args.workload, inputs, size, outcome, reference)
    to_target = workloads.crossing_time(outcome.progress, workloads.target_value(args.workload, size))
    if to_target is None and failures:
        failures[-1] = failures[-1] or "target not reached"
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "time_to_target_s": to_target,
        "attempted": len(failures),
        "failures": [f for f in failures if f],
        "summary": summary,
        "progress": outcome.progress,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, wall_s)
        os.makedirs(os.path.join(RESULTS, "spans"), exist_ok=True)
        tracer.write(os.path.join(RESULTS, "spans",
                                  f"{args.workload}-seed{args.seed}-rep{args.rep}.jsonl"))
    print(json.dumps(result, default=float))
    return 0


# -------------------------------------------------------------------- parent

def environment() -> dict:
    """The machine and library build a result was measured on."""
    import numpy as np
    import scipy
    env = {
        "cpu_model": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ram_gb": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal"):
                    env["ram_gb"] = round(int(line.split()[1]) / 2**20, 2)
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return env


def spawn(args, *, rep: int, traced: bool = False, setup_only: bool = False, timeout: float):
    """Run one child to completion; returns its result dict or a failure."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--rep", str(rep), "--spawned-at", repr(time.monotonic())]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"repetition {rep} timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"repetition {rep} exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' runs tiny inputs for the benchmark's own tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polyrefine", "__init__.py")):
        print(f"no polyrefine sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    os.makedirs(RESULTS, exist_ok=True)
    if args.workload != "all":
        result = measure(args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {w: measure(argparse.Namespace(**dict(vars(args), workload=w))) for w in WORKLOADS}
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def measure(args) -> dict:
    """Run one workload for ``args.seconds``; print its metrics and return
    the result object."""
    start = time.monotonic()

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - start)

    setups = [spawn(args, rep=-1 - k, setup_only=True, timeout=remaining())
              for k in range(SETUP_SAMPLES)]
    errors = [s["error"] for s in setups if "error" in s]
    if errors:
        print("; ".join(errors), file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    # Start repetitions until --seconds have passed (the one in flight is
    # finished), but at least MIN_REPS, and never past HARD_LIMIT_S.
    reps = []
    t_measure = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        res = spawn(args, rep=len(reps), traced=traced, timeout=remaining() - 5.0)
        res["traced"] = traced
        reps.append(res)
        elapsed = time.monotonic() - t_measure
        if "error" in res or remaining() < elapsed / len(reps) + 10.0:
            break
        if len(reps) >= MIN_REPS and elapsed >= args.seconds:
            break

    return report(args, setups, reps)


def report(args, setups, reps) -> dict:
    problems = [r["error"] for r in reps if "error" in r]
    done = [r for r in reps if "error" not in r]
    attempted = sum(r["attempted"] for r in done) + len(problems)
    failed = sum(len(r["failures"]) for r in done) + len(problems)
    for r in done:
        problems += r["failures"]
    summaries = {json.dumps(r["summary"], sort_keys=True) for r in done}
    if len(summaries) > 1:
        problems.append("repetitions of one seed produced different outputs")
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]

    def med(rows, key):
        vals = [r[key] for r in rows if r.get(key) is not None]
        return statistics.median(vals) if vals else None

    setup_vals = [s["setup_s"] for s in setups] + [r["setup_s"] for r in done]
    e2e = {
        "wall_s": med(untraced, "wall_s"),
        "time_to_target_s": med(untraced, "time_to_target_s"),
        "cpu_s": med(untraced, "cpu_s"),
        "peak_rss_mb": med(untraced, "peak_rss_mb"),
        "success_rate": 1.0 - failed / attempted if attempted else 0.0,
        "setup_s": statistics.median(setup_vals),
    }
    units = dict(END_TO_END)
    if args.trace:
        sys.path.insert(0, BENCH_DIR)
        import tracing
        units = dict(tracing.LAYER_METRICS)
        metrics = {}
        for name, unit in tracing.LAYER_METRICS:
            vals = [r["layers"][name] for r in traced]
            if not vals:
                continue
            if name in tracing.COUNT_METRICS and len(set(vals)) > 1:
                problems.append(f"count {name} differs between traced repetitions: {vals}")
            metrics[name] = statistics.median(vals)
        if traced and untraced:
            metrics["trace.overhead_s"] = med(traced, "wall_s") - e2e["wall_s"]
    else:
        metrics = e2e

    correct = not problems and len(metrics) == len(units) and all(
        v is not None for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "seconds": args.seconds, "environment": environment(), "result": result,
        "end_to_end": e2e, "problems": problems,
        "repetitions": reps, "setups": setups,
    }
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(done)} repetitions ({len(traced)} traced), {attempted} operations, {failed} failed")
    print(f"# machine: {env['cpu_model']}, nproc={env['nproc']}, ram={env['ram_gb']} GB, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {(env['blas'] or {}).get('name')} {(env['blas'] or {}).get('version')}, "
          f"threads {env['thread_env']}")
    for name, v in metrics.items():
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"{args.workload:14s} {name:40s} {shown:>14s} {units[name]}")
    for p in problems:
        print(f"# FAILED: {p}")
    print(f"# written to {os.path.relpath(out, ROOT)}")
    return result


if __name__ == "__main__":
    sys.exit(main())
