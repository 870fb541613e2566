"""Self-tests of the benchmark at tiny sizes.

Run from the root of the checkout:  python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import polyrefine as pr  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.SIZES["small"]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def small_run(name, tmp_path, seed=0):
    size = SMALL[name]
    inputs = workloads.make_inputs(name, seed, size)
    outcome = workloads.RUNNERS[name](inputs, size, str(tmp_path))
    return size, inputs, outcome


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_clean_run_passes_and_repeats(name, tmp_path):
    results = []
    for _ in range(2):
        size, inputs, outcome = small_run(name, tmp_path, seed=3)
        failures, summary = workloads.finish(name, inputs, size, outcome)
        assert failures and not any(failures), failures
        target = workloads.target_value(name, size)
        assert workloads.crossing_time(outcome.progress, target) is not None
        results.append(json.dumps(summary, sort_keys=True))
    assert results[0] == results[1]


def peak_node(nodes, u_exact):
    return int(np.argmax(u_exact(nodes[:, 0], nodes[:, 1])))


def test_adapt_gate_fails_on_corrupted_output(tmp_path):
    size, inputs, outcome = small_run("adapt_peak", tmp_path)
    run = outcome.output["run"]
    reference = workloads.adapt_summary(run)
    assert workloads.gate_adapt_peak(run, inputs["u"], size, reference) == []

    moved = copy.deepcopy(run)
    moved.nodes[peak_node(moved.nodes, inputs["u"])] += (0.05, 0.0)
    assert workloads.gate_adapt_peak(moved, inputs["u"], size, reference)

    dropped = copy.deepcopy(run)
    del dropped.elements[len(dropped.elements) // 2]
    bad = workloads.gate_adapt_peak(dropped, inputs["u"], size, reference)
    assert any("area" in b for b in bad) and any("elements" in b for b in bad)

    wrong_eta = dict(reference, eta=reference["eta"] * (1 + 1e-4))
    assert workloads.gate_adapt_peak(run, inputs["u"], size, wrong_eta)


def test_uniform_gate_fails_on_corrupted_output(tmp_path):
    size, inputs, outcome = small_run("uniform_study", tmp_path)
    levels = outcome.output["levels"]
    reference = {"errors": {lv["n"]: lv["error"] for lv in levels}}
    assert workloads.gate_uniform_study(levels, inputs["u"], reference) == [None] * len(levels)

    moved = copy.deepcopy(levels)
    finest = moved[-1]
    finest["nodes"][len(finest["nodes"]) // 2] += (0.03, 0.03)
    verdicts = workloads.gate_uniform_study(moved, inputs["u"], reference)
    assert verdicts[:-1] == [None] * (len(levels) - 1) and verdicts[-1]

    dropped = copy.deepcopy(levels)
    del dropped[1]["elements"][0]
    verdicts = workloads.gate_uniform_study(dropped, inputs["u"], reference)
    assert verdicts[1] and "area" in verdicts[1]


def test_refine_gate_fails_on_corrupted_output(tmp_path):
    size, inputs, outcome = small_run("refine_verify", tmp_path)
    nodes, elements = outcome.output["nodes"], outcome.output["elements"]
    area0 = pr.mesh_area(inputs["nodes"], inputs["elements"])
    assert workloads.gate_refine_pass(nodes, elements, area0) == []

    moved = nodes.copy()
    moved[0] += (0.01, 0.01)
    assert workloads.gate_refine_pass(moved, elements, area0)

    dropped = elements[:-1]
    bad = workloads.gate_refine_pass(nodes, dropped, area0)
    assert any("area" in b for b in bad)

    reference = {"nodes": len(nodes), "elements": len(elements),
                 "digest": workloads.mesh_digest(nodes, elements)}
    clean = workloads.finish("refine_verify", inputs, size, outcome, reference)[0]
    assert not any(clean)
    corrupted = copy.deepcopy(outcome)
    corrupted.output["nodes"] = moved
    assert workloads.finish("refine_verify", inputs, size, corrupted, reference)[0][-1]


def test_roundtrip_detects_nothing_on_a_clean_mesh(tmp_path):
    nodes, elements = pr.refine(*pr.structured_quad_mesh(4), [0, 5])
    assert workloads.roundtrip(nodes, elements, str(tmp_path / "m.mesh")) == []
    assert not os.listdir(tmp_path)


def test_crossing_time_interpolates_in_log_space():
    progress = [(1.0, 1e-1), (2.0, 1e-2), (4.0, 1e-3)]
    assert workloads.crossing_time(progress, 1e-1) == 1.0
    assert workloads.crossing_time(progress, 10 ** -1.5) == pytest.approx(1.5)
    assert workloads.crossing_time(progress, 10 ** -2.5) == pytest.approx(3.0)
    assert workloads.crossing_time(progress, 1e-4) is None


def test_peak_centre_is_seeded_and_boxed():
    assert workloads.peak_centre(0) == workloads.PEAK_CENTRE
    (x0, x1), (y0, y1) = workloads.PEAK_BOX
    for seed in range(1, 20):
        cx, cy = workloads.peak_centre(seed)
        assert x0 <= cx <= x1 and y0 <= cy <= y1
        assert workloads.peak_centre(seed) == (cx, cy)


def test_tracer_rebinds_every_importer_and_restores(tmp_path):
    import polyrefine.adaptivity as adaptivity
    import polyrefine.refinement as refinement
    originals = (pr.build_topology, adaptivity.build_topology, refinement.build_topology,
                 adaptivity.refine)
    tracer = tracing.Tracer()
    installed = tracer.install()
    try:
        assert "refinement.refine" in installed
        assert adaptivity.build_topology is not originals[1]
        assert refinement.build_topology is not originals[2]
        assert adaptivity.refine is not originals[3]
        size = SMALL["adapt_peak"]
        inputs = workloads.make_inputs("adapt_peak", 0, size)
        t0 = time.perf_counter()
        outcome = workloads.run_adapt_peak(inputs, size)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert (pr.build_topology, adaptivity.build_topology, refinement.build_topology,
            adaptivity.refine) == originals
    metrics = tracing.layer_metrics(tracer, wall_s)
    assert metrics["mesh_core.build_topology.calls"] == 2 * len(outcome.progress) - 1
    assert metrics["adaptivity.steps"] == len(outcome.progress)
    assert metrics["refinement.refine.s"] >= metrics["refinement.refine.self_s"] > 0
    assert 0.9 <= metrics["trace.coverage"] <= 1.0


def test_tracer_skips_names_the_package_no_longer_has(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + [
        ("refinement", "no_such_function", "refinement.gone")])
    tracer = tracing.Tracer()
    try:
        assert "refinement.gone" not in tracer.install()
    finally:
        tracer.uninstall()


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0),
             ("b", 5.0, 6.0, 0, 0)]
    totals = tracing.span_totals(spans)
    assert totals["a"] == pytest.approx((6.0, 10.0, 1))
    assert totals["b"] == pytest.approx((3.0, 4.0, 2))
    assert totals["c"] == pytest.approx((1.0, 1.0, 1))


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in bench.END_TO_END]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(tracing.LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(bench.WORKLOADS) == workloads.WORKLOADS
    layer_map = json.load(open(os.path.join(HERE, "layer_map.json"), encoding="utf-8"))
    assert set(layer_map["layer_metrics"]) <= dict(tracing.LAYER_METRICS).keys()
    assert set(layer_map["blocking_spans"]) == set(workloads.WORKLOADS)


def invoke(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(name, trace):
    proc = invoke(ROOT, "--workload", name, "--seed", "2", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert f" {m['name']} " in proc.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_all_runs_every_workload_in_one_command():
    proc = invoke(ROOT, "--workload", "all", "--seed", "1", "--seconds", "0.1", "--size", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in workloads.WORKLOADS
                                      for m in SPEC["end_to_end"]}


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = invoke(ROOT, "--workload", "refine_verify", "--seed", "5", "--seconds", "0.1",
                      "--trace", "1", "--size", "small")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["refinement.marked"] > 0


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = invoke(str(tmp_path), "--workload", "adapt_peak", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
