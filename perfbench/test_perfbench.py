"""Self-tests for the benchmark, at smoke size.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from fingerprint import (grid_fingerprint, grid_matches,  # noqa: E402
                         mesh_fingerprint, mesh_matches)
from workloads import WORKLOADS, EvalPoints, GridGeneric, MeshExport  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def env():
    fn = run.import_focalnet()
    inputs = run.build_inputs(fn)
    ref = run.load_reference()
    with tempfile.TemporaryDirectory(dir=run.ROOT,
                                     prefix=".perfbench-test-") as tmp:
        yield fn, inputs, ref, tmp


def _units(spec_key):
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


def _small(cls, env, n=3, calls=2):
    fn, inputs, ref, tmp = env
    wl = cls(fn, inputs, ref, tmp)
    wl.n, wl.trace_calls = n, calls
    return wl


def test_spec_matches_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_end_to_end_metrics_printed_with_units():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "eval_points", "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = _units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
        assert result["metrics"][name]["value"] > 0
    assert lines[0].startswith("env ")
    env_block = json.loads(lines[0][4:])
    assert {"nproc", "cpu", "python", "numpy", "seed"} <= set(env_block)


@pytest.mark.parametrize("cls", [GridGeneric, EvalPoints, MeshExport])
def test_layer_metrics_named_with_units(env, cls):
    wl = _small(cls, env)
    metrics = run.layer_metrics(wl, run.traced(wl, 5))
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")


@pytest.mark.parametrize("cls", [GridGeneric, EvalPoints, MeshExport])
def test_two_traced_runs_count_the_same(env, cls):
    def counts():
        t = run.traced(_small(cls, env), 11)
        return t["counter"].table(), t["tracer"].status_counts()

    first = counts()
    assert first[0]["mul"] and first == counts()


def test_gate_passes_reference_and_trips_on_perturbation(env):
    fn, inputs, ref, tmp = env
    wl = EvalPoints(fn, inputs, ref, tmp)
    m = run.measure(wl, seed=2, seconds=0.3)
    assert m["attempted"] > 0 and m["failed"] == 0

    bad = copy.deepcopy(ref)
    bad["eval"]["sums"] = [s + 1e-9 * (abs(s) + 1) for s in ref["eval"]["sums"]]
    wl = EvalPoints(fn, inputs, bad, tmp)
    m = run.measure(wl, seed=2, seconds=0.3)
    assert m["failed"] == m["attempted"] > 0

    bad = copy.deepcopy(ref)
    bad["eval"]["codes"] = [c ^ 1 for c in ref["eval"]["codes"]]
    wl = EvalPoints(fn, inputs, bad, tmp)
    m = run.measure(wl, seed=2, seconds=0.3)
    assert m["failed"] == m["attempted"] > 0


def test_grid_gate_tolerance(env):
    wl = _small(GridGeneric, env, n=4)
    rep = wl.call(("helicoid", 1))[0]
    ref = grid_fingerprint(rep.records, 4)
    assert grid_matches(rep.records, 4, ref)
    near = dict(ref, rows=[r * (1 + 1e-14) for r in ref["rows"]])
    assert grid_matches(rep.records, 4, near)
    far = dict(ref, rows=[r + 1e-9 * (abs(r) + 1) for r in ref["rows"]])
    assert not grid_matches(rep.records, 4, far)


def test_mesh_gate_trips(env):
    wl = _small(MeshExport, env, n=4)
    out_dir, manifest = wl.call(("graph_generic", 0))
    try:
        ref = mesh_fingerprint(out_dir, manifest)
        assert mesh_matches(out_dir, manifest, ref)
        moved = copy.deepcopy(ref)
        moved["files"]["surface"]["vsum"] += 1e-3
        assert not mesh_matches(out_dir, manifest, moved)
        rewired = copy.deepcopy(ref)
        rewired["files"]["surface"]["topology"] = "0" * 16
        assert not mesh_matches(out_dir, manifest, rewired)
    finally:
        wl.release((out_dir, manifest))


def test_exits_nonzero_without_sources():
    with tempfile.TemporaryDirectory(dir=run.ROOT,
                                     prefix=".perfbench-test-") as bare:
        os.mkdir(os.path.join(bare, "perfbench"))
        for name in os.listdir(run.HERE):
            if name.endswith((".py", ".json")):
                shutil.copy(os.path.join(run.HERE, name),
                            os.path.join(bare, "perfbench", name))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "eval_points",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
