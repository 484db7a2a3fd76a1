"""Time the point path's stages of the working tree against a base revision,
in alternating rounds inside one interpreter.

    python3 tools/stage_ab.py [--base HEAD] [--rounds 30] [--points 500]
        [--seed 0]

Run from the repository root.  Both sides are snapshots unpacked side by
side in a temporary directory, as `tools/bench_ab.py` makes them: the base
revision's committed files, and the working tree's tracked files as they
stand plus its untracked files that git does not ignore.  Each side's
``src/focalnet`` is imported under its own package name (every import
inside the package is relative), so both run in one process and share its
state: the allocator, the caches and the CPU's clock.  Process-level pairs
(`tools/bench_ab.py`) spread about +-5% on a shared machine, too wide to
resolve a stage that moves by a few percent.

The inputs are `--points` draws, chosen by `--seed`, from perfbench's eval
pool (``perfbench/inputs.py``: surface, u, v over the whole gallery).
Four stages are timed, each on the draws where it returns on both sides:
``point_record`` on every draw, ``eval_surface`` on each draw's surface,
``principal_data`` on its surface jet and ``defect_report`` on its frame
point.  A round times every stage once per side over all its draws, the
side that goes first alternating from round to round.  Per stage the tool
prints each side's minimum time per call over the rounds, the median and
quartiles of the per-round ratio base/tree (above 1: the tree is faster)
and the number of rounds the tree won.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import random
import statistics
import sys
import tempfile
from time import perf_counter

from bench_ab import ROOT, SIDES, export_revision, export_tree

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from inputs import eval_pool  # noqa: E402

# Each stage by its module in the package, and its name.
STAGES = (("report", "point_record"), ("geometry", "eval_surface"),
          ("geometry", "principal_data"), ("classify", "defect_report"))


def load_package(src: str, name: str):
    """Import the package at `src` (its directory) as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def stage_inputs(fn, draws):
    """Per stage, per draw, the arguments of its call on package `fn`, or
    None where the call raises."""
    tol = fn.DEFAULT_TOLERANCES
    progs = {name: fn.compile_surface(fn.gallery(name))
             for name in {name for name, _, _ in draws}}
    out = {stage: [] for _, stage in STAGES}
    for name, u, v in draws:
        prog = progs[name]
        out["point_record"].append((prog, u, v, tol))
        try:
            sj = fn.eval_surface(prog, u, v)
        except fn.FocalnetError:
            sj = None
        out["eval_surface"].append(None if sj is None else (prog, u, v))
        pd_args = None
        if sj is not None:
            try:
                fn.principal_data(sj, tol)
                pd_args = (sj, tol)
            except fn.FocalnetError:
                pass
        out["principal_data"].append(pd_args)
        try:
            fp = fn.frame_point(prog, u, v, tol)
        except fn.FocalnetError:
            fp = None
        out["defect_report"].append(None if fp is None else (fp, tol))
    return out


def timed(fn_call, calls) -> float:
    """Seconds per call of `fn_call` over the argument tuples `calls`."""
    gc.collect()
    t0 = perf_counter()
    for args in calls:
        fn_call(*args)
    return (perf_counter() - t0) / len(calls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="base revision")
    ap.add_argument("--rounds", type=int, default=30,
                    help="alternating rounds (at least 2, for the "
                         "quartiles)")
    ap.add_argument("--points", type=int, default=500,
                    help="eval-pool draws per round")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the choice of draws")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2: quartiles need two rounds")
    with tempfile.TemporaryDirectory(prefix="stage-ab-") as tmp:
        base = export_revision(args.base, tmp, "base")
        tree = export_tree(tmp, "tree")["commit"]
        fns = {side: load_package(os.path.join(tmp, side, "src", "focalnet"),
                                  f"focalnet_{side}")
               for side in SIDES}
        compare(fns, args, base, tree)
    return 0


def compare(fns, args, base: str, tree: str) -> None:
    """Time the stages of both packages in `fns` and print the table."""
    print(f"base {base[:12]}  tree {tree[:12]}  rounds {args.rounds}  "
          f"points {args.points}  seed {args.seed}")
    pool = eval_pool(fns["base"])
    draws = random.Random(args.seed).sample(pool, args.points)
    inputs = {side: stage_inputs(fns[side], draws) for side in SIDES}
    calls = {}
    for _, stage in STAGES:
        keep = [i for i in range(len(draws))
                if all(inputs[side][stage][i] is not None for side in SIDES)]
        calls[stage] = {side: [inputs[side][stage][i] for i in keep]
                        for side in SIDES}
    times = {stage: {side: [] for side in SIDES} for _, stage in STAGES}
    for r in range(args.rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for module, stage in STAGES:
            for side in order:
                call = getattr(getattr(fns[side], module), stage)
                times[stage][side].append(timed(call, calls[stage][side]))
    print(f"{'stage':<16}{'calls':>6}{'base us':>10}{'tree us':>10}"
          f"{'base/tree':>11}{'q1':>8}{'q3':>8}{'tree won':>10}")
    for _, stage in STAGES:
        t = times[stage]
        ratios = [b / w for b, w in zip(t["base"], t["tree"])]
        q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        won = sum(w < b for b, w in zip(t["base"], t["tree"]))
        print(f"{stage:<16}{len(calls[stage]['base']):>6}"
              f"{min(t['base']) * 1e6:>10.1f}{min(t['tree']) * 1e6:>10.1f}"
              f"{med:>11.3f}{q1:>8.3f}{q3:>8.3f}{won:>7}/{args.rounds}")


if __name__ == "__main__":
    sys.exit(main())
