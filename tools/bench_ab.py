"""Benchmark the working tree against a base revision, in alternating pairs.

    python3 tools/bench_ab.py --out BENCH_N.json [--base HEAD] [--pairs 10]
        [--seed 100] [--workloads NAME[,NAME]]

Run from the repository root.  Both sides run from snapshots unpacked
side by side in a temporary directory, so that they differ in nothing
but their files: the base revision from its committed files (``git
archive``), the working tree from ``git stash create`` (tracked files as
they stand, or HEAD where nothing changed) plus its untracked files that
git does not ignore.  For each
workload in BENCHMARK.json (or each one `--workloads` names, in the
benchmark's order), pair i runs ``perfbench/run.py --seed SEED+i``
for the benchmark's ``run_seconds`` once on each side, the side that goes
first alternating from pair to pair, so slow spells of a shared machine
fall on both sides alike.  Then one traced run (``--trace 1``, seed SEED)
per side records the per-layer split and the jet-operation table.

The output file holds, per workload and end-to-end metric (as listed in
BENCHMARK.json), each side's runs, median and quartiles, and how many
pairs each side won (ties count for neither); and per side the traced
run's per-layer metrics, self times per layer and jet operations by valid
order.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "tree")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def export_revision(rev: str, dest: str, name: str) -> str:
    """Unpack the committed files of `rev` into `dest`/`name`; returns the
    full commit id."""
    commit = _git("rev-parse", rev).strip()
    archive = os.path.join(dest, f"{name}.tar")
    _git("archive", "--format=tar", "-o", archive, commit)
    # The "data" filter where this Python has it: plain files only.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, name), **safe)
    os.remove(archive)
    return commit


def export_tree(dest: str, name: str) -> dict:
    """Unpack the working tree into `dest`/`name`: the tracked files as
    they stand and the untracked files git does not ignore.  Returns the
    snapshot's commit id and the untracked files' paths."""
    commit = export_revision(_git("stash", "create").strip() or "HEAD",
                             dest, name)
    untracked = _git("ls-files", "--others", "--exclude-standard",
                     "-z").split("\0")[:-1]
    for path in untracked:
        target = os.path.join(dest, name, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, path), target)
    return {"commit": commit, "untracked": untracked}


def run_bench(root: str, workload: str, seed: int, seconds: float,
              trace: bool) -> dict:
    """One perfbench run in checkout `root`; returns its result line, with
    the environment line added under "env"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {root} ({workload}, seed "
                           f"{seed}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0][len("env "):])
    return result


def summary(values: List[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(runs: Dict[str, List[dict]], metrics: List[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries and wins per side."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for b, t in zip(vals["base"], vals["tree"]):
            if b != t:
                wins["tree" if (t > b) == higher else "base"] += 1
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     **{side: summary(vals[side]) for side in SIDES},
                     "wins": wins}
    return out


def traced(root: str, workload: str, seed: int) -> dict:
    """One traced run: per-layer metrics plus, from the trace file it
    writes, self times per layer and jet operations by valid order."""
    result = run_bench(root, workload, seed, 1, trace=True)
    path = os.path.join(root, ".perfbench_out",
                        f"trace-{workload}-seed{seed}.json")
    with open(path) as fh:
        trace = json.load(fh)
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "self_raw_s": trace["self_raw_s"],
            "layer_status_counts": trace["layer_status_counts"],
            "jet_ops_by_valid_order": trace["jet_ops_by_valid_order"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--base", default="HEAD", help="base revision")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating pairs per workload (at least 2, "
                         "for the quartiles)")
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated workloads to pair (default: all "
                         "of BENCHMARK.json)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two runs "
                 "per side")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads is not None:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            ap.error(f"unknown workload {unknown[0]!r} (has: "
                     f"{', '.join(names)})")
        names = [name for name in names if name in wanted]
    seconds = spec["run_seconds"]
    report = {"base": None, "tree": None, "pairs": args.pairs,
              "seconds": seconds,
              "seeds": [args.seed, args.seed + args.pairs - 1],
              "python": platform.python_version(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        report["base"] = export_revision(args.base, tmp, "base")
        report["tree"] = export_tree(tmp, "tree")
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for workload in names:
            runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    res = run_bench(roots[side], workload, args.seed + i,
                                    seconds, trace=False)
                    runs[side].append(res)
                    print(f"{workload} pair {i} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}"
                        for k, v in sorted(res["metrics"].items())),
                        flush=True)
            report["env"] = runs["tree"][0]["env"]
            report["workloads"][workload] = {
                "failed": {side: sum(r["failed"] for r in runs[side])
                           for side in SIDES},
                "attempted": {side: sum(r["attempted"] for r in runs[side])
                              for side in SIDES},
                "end_to_end": compare(runs, spec["end_to_end"]),
                "traced": {side: traced(roots[side], workload, args.seed)
                           for side in SIDES},
            }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
