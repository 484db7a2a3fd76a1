"""Time the point path's stages, the grid report and the OBJ export of the
working tree against a base revision, in alternating rounds inside one
interpreter.

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
resolve a stage that moves by a few percent; mesh_export's spread between
processes is wider than between trees.

The point stages take `--points` draws, chosen by `--seed`, from
perfbench's eval pool (``perfbench/inputs.py``: surface, u, v over the
whole gallery), each timed on the draws where it returns on both sides:
``point_record`` on every draw, ``eval_surface`` on each draw's surface,
``principal_data`` on its surface jet and ``defect_report`` on its frame
point.  The ``grid_report`` stage runs ``grid_report(prog, 40, 40, tol)``
as perfbench's grid_generic calls it, on the 30 grid_generic inputs
(``inputs.grid_variants``): the batch path of every decision.  The export
stages run ``export_obj`` as perfbench's mesh_export
calls it (both sheets, nets 13/14/17/18, each call into a fresh
directory): ``export_obj`` on the eight 40x40 mesh_export inputs, and
``export_obj_3x3`` on the two 3x3 exports of the workload's warm-up, which
its ``setup_s`` includes.  A round times every stage once per side over
all its calls, the side that goes first alternating from round to round.
Per stage the tool prints each side's minimum time per call over the
rounds, the median and quartiles of the per-round ratio base/tree (above
1: the tree is faster) and the number of rounds the tree won.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import random
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

from bench_ab import ROOT, SIDES, export_revision, export_tree

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from inputs import (GRID_N, MESH_CENTRAL, MESH_NETS,  # noqa: E402
                    compile_variant, eval_pool, grid_variants, mesh_variants)
from workloads import _WARM_N  # noqa: E402

# Each point stage by its module in the package, and its name.
STAGES = (("report", "point_record"), ("geometry", "eval_surface"),
          ("geometry", "principal_data"), ("classify", "defect_report"))
# Each export stage by its name, the grid side and the inputs it takes of
# each surface (None: all of them; the warm-up exports each one's first).
EXPORTS = (("export_obj", GRID_N, None), ("export_obj_3x3", _WARM_N, 1))


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


def grid_inputs(fn):
    """The arguments of ``grid_report`` on package `fn` for each of
    perfbench's grid_generic inputs, as grid_generic passes them."""
    tol = fn.DEFAULT_TOLERANCES
    return [(compile_variant(fn, var), GRID_N, GRID_N, tol)
            for vs in grid_variants(fn).values() for var in vs]


def export_inputs(fn):
    """Per export stage, the (prog, n) of its calls on package `fn`, over
    perfbench's mesh_export inputs."""
    progs = {name: [compile_variant(fn, var) for var in vs]
             for name, vs in mesh_variants(fn).items()}
    return {stage: [(prog, n) for vs in progs.values() for prog in vs[:take]]
            for stage, n, take in EXPORTS}


def exporter(fn, root: str):
    """``export_obj(prog, n, n, ...)`` of package `fn` as mesh_export
    calls it, each call into a fresh directory under `root`."""
    def export(prog, n):
        fn.export_obj(prog, n, n, tempfile.mkdtemp(dir=root),
                      central=MESH_CENTRAL, nets=MESH_NETS)
    return export


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
        compare(fns, args, base, tree, tmp)
    return 0


def compare(fns, args, base: str, tree: str, tmp: str) -> None:
    """Time the stages of both packages in `fns` and print the table;
    exports are written under `tmp`."""
    print(f"base {base[:12]}  tree {tree[:12]}  rounds {args.rounds}  "
          f"points {args.points}  seed {args.seed}")
    pool = eval_pool(fns["base"])
    draws = random.Random(args.seed).sample(pool, args.points)
    inputs = {side: stage_inputs(fns[side], draws) for side in SIDES}
    # per stage and side, the function and its argument tuples
    calls = {}
    for module, stage in STAGES:
        keep = [i for i in range(len(draws))
                if all(inputs[side][stage][i] is not None for side in SIDES)]
        calls[stage] = {side: (getattr(getattr(fns[side], module), stage),
                               [inputs[side][stage][i] for i in keep])
                        for side in SIDES}
    calls["grid_report"] = {side: (fns[side].grid_report,
                                   grid_inputs(fns[side])) for side in SIDES}
    out = os.path.join(tmp, "exports")
    exports = {side: export_inputs(fns[side]) for side in SIDES}
    for stage, _, _ in EXPORTS:
        calls[stage] = {side: (exporter(fns[side], out),
                               exports[side][stage]) for side in SIDES}
    times = {stage: {side: [] for side in SIDES} for stage in calls}
    for r in range(args.rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for stage in calls:
            for side in order:
                os.mkdir(out)
                times[stage][side].append(timed(*calls[stage][side]))
                shutil.rmtree(out)
    print(f"{'stage':<16}{'calls':>6}{'base us':>10}{'tree us':>10}"
          f"{'base/tree':>11}{'q1':>8}{'q3':>8}{'tree won':>10}")
    for stage, t in times.items():
        ratios = [b / w for b, w in zip(t["base"], t["tree"])]
        q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        won = sum(w < b for b, w in zip(t["base"], t["tree"]))
        print(f"{stage:<16}{len(calls[stage]['base'][1]):>6}"
              f"{min(t['base']) * 1e6:>10.1f}{min(t['tree']) * 1e6:>10.1f}"
              f"{med:>11.3f}{q1:>8.3f}{q3:>8.3f}{won:>7}/{args.rounds}")

if __name__ == "__main__":
    sys.exit(main())
