"""Print sha256 digests of focalnet's emitted outputs over a fixed corpus.

Seven digests, one per line:

- json: ``emit_json`` of ``grid_report`` 25x25 for each of the ten surfaces
  in ``GRID_SURFACES``, in that order (a fixed list, so the digest stays
  comparable when the gallery grows);
- csv: ``emit_csv`` of the same ten reports, in the same order, each
  written after the report's ``emit_json`` (from the texts that call hands
  on); the tool also writes each CSV from a fresh report over the same
  columns that emitted no JSON, and exits 1 if the two texts differ;
- mesh: the name and then the bytes of every file ``export_obj`` writes
  (sorted by name) for a 20x20 grid with both focal sheets and nets
  13/14/17/18 on each surface in ``MESH_SURFACES`` (both torus sheets are
  canal at every point, helicoid's nets 13/14 are imaginary, every frame
  of sphere fails, and monkey_saddle and enneper meet more branches of the
  direction solve);
- point: ``json.dumps(point_record(...), sort_keys=True)`` at the 5x5
  interior points of a 7x7 sampling of the domain box of each surface in
  ``GRID_SURFACES``, u-major (the set meets umbilic, parabolic and canal
  points: sphere, plane and torus);
- json_shapes and csv_shapes: ``emit_json`` and ``emit_csv`` of the
  reports in ``SHAPE_GRIDS``, in that order, which take the record shapes
  the ten gallery grids do not: moulding with its excluded statements,
  canal1, canal2, ok next to canal12, graphs undefined on part of the box
  (9x9, so that u = 0 is on the grid), and one undefined everywhere (the
  whole evaluation fails).

A change that claims to leave the library's outputs unchanged should print
the same digests before and after; one that changes only the JSON
layout should move the json and json_shapes lines alone.  Run from the
repository root:

    PYTHONPATH=src python3 tools/output_digest.py [--expect FILE]

With ``--expect FILE`` the printed lines are compared with FILE's and the
exit status is 1 if any differs (or if a CSV differs from its fresh
report's, as without ``--expect``).  ``tools/output_digests.txt`` pins the
current digests; CI runs the tool against it, so a change that moves an
output must update that file and say why.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import sys
import tempfile

import numpy as np

from focalnet import (compile_surface, emit_csv, emit_json, export_obj,
                      gallery, grid_report, parse_surface, point_record)
from focalnet.checks import SWEPT_SRC

GRID_SURFACES = ("plane", "sphere", "graph_quad", "graph_generic",
                 "monkey_saddle", "helicoid", "torus", "enneper", "scherk",
                 "dini")


def _graph(z: str):
    """The graph z = f(u, v) over [-1, 1]^2."""
    return parse_surface("surface s {\n  x = u\n  y = v\n  z = " + z
                         + "\n  domain u in [-1, 1] v in [-1, 1]\n}\n")


SHAPE_GRIDS = ((parse_surface(SWEPT_SRC), 8, 8),
               (_graph("u^2 + v^2"), 8, 8),
               (_graph("0 - (u^2 + v^2)"), 8, 8),
               (gallery("helicoid"), 4, 5),
               (_graph("ln(u) + v^2"), 9, 9),
               (_graph("1 / u + v^2"), 9, 9),
               (_graph("u / 0"), 8, 8))

POINT_POOL = 2000
POOL_SEED = 34

MESH_SURFACES = ("graph_generic", "dini", "graph_quad", "torus", "helicoid",
                 "sphere", "monkey_saddle", "enneper")


def report_digests(reports) -> tuple:
    """(json, csv) digests over the files each report emits, in order, the
    CSV after the JSON; and the reports whose CSV differs from the one a
    fresh report over the same columns writes with no JSON before it."""
    hj, hc = hashlib.sha256(), hashlib.sha256()
    differ = []
    for rep in reports:
        alone = emit_csv(dataclasses.replace(rep))
        hj.update(emit_json(rep).encode())
        table = emit_csv(rep)
        hc.update(table.encode())
        if table != alone:
            differ.append(f"{rep.surface} {rep.nu}x{rep.nv}")
    return hj.hexdigest(), hc.hexdigest(), differ


def mesh_digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as root:
        for name in MESH_SURFACES:
            out = os.path.join(root, name)
            export_obj(compile_surface(gallery(name)), 20, 20, out,
                       central=(1, 2), nets=("13", "14", "17", "18"))
            for fname in sorted(os.listdir(out)):
                h.update(fname.encode())
                with open(os.path.join(out, fname), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def point_digest() -> str:
    h = hashlib.sha256()
    for name in GRID_SURFACES:
        prog = compile_surface(gallery(name))
        box = prog.definition.domain
        us = np.linspace(box.u_min, box.u_max, 7)[1:-1].tolist()
        vs = np.linspace(box.v_min, box.v_max, 7)[1:-1].tolist()
        for u in us:
            for v in vs:
                rec = point_record(prog, u, v)
                h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()


def point_pool_digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(POOL_SEED)
    progs = [compile_surface(gallery(name)) for name in GRID_SURFACES]
    for _ in range(POINT_POOL):
        prog = progs[int(rng.random() * len(progs))]
        box = prog.definition.domain
        u = box.u_min + (box.u_max - box.u_min) * rng.random()
        v = box.v_min + (box.v_max - box.v_min) * rng.random()
        rec = point_record(prog, u, v)
        h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print sha256 digests of focalnet's emitted outputs.")
    parser.add_argument("--expect", metavar="FILE",
                        help="compare the printed lines with FILE's and exit "
                             "with status 1 if any differs")
    args = parser.parse_args(argv)
    json_digest, csv_digest, differ = report_digests(
        grid_report(compile_surface(gallery(name)), 25, 25)
        for name in GRID_SURFACES)
    json_shapes, csv_shapes, differ_shapes = report_digests(
        grid_report(compile_surface(surface), nu, nv)
        for surface, nu, nv in SHAPE_GRIDS)
    lines = [f"json {json_digest}", f"csv {csv_digest}",
             f"mesh {mesh_digest()}", f"point {point_digest()}",
             f"point_pool {point_pool_digest()}",
             f"json_shapes {json_shapes}", f"csv_shapes {csv_shapes}"]
    print("\n".join(lines))
    status = 0
    for name in differ + differ_shapes:
        print(f"the CSV of {name} after its JSON differs from the CSV of a "
              f"fresh report", file=sys.stderr)
        status = 1
    if args.expect is not None:
        with open(args.expect) as fh:
            expected = fh.read().splitlines()
        if lines != expected:
            print(f"the digests differ from {args.expect}, which holds:",
                  *expected, sep="\n", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
