"""Print sha256 digests of focalnet's emitted outputs over a fixed corpus.

Four digests, one per line:

- json: ``emit_json`` of ``grid_report`` 25x25 for each of the ten surfaces
  in ``GRID_SURFACES``, in that order (a fixed list, so the digest stays
  comparable when the gallery grows);
- csv: ``emit_csv`` of the same ten reports, in the same order;
- mesh: the name and then the bytes of every file ``export_obj`` writes
  (sorted by name) for a 20x20 grid with both focal sheets and nets
  13/14/17/18 on each surface in ``MESH_SURFACES`` (both torus sheets are
  canal at every point, helicoid's nets 13/14 are imaginary, every frame
  of sphere fails, and monkey_saddle and enneper meet more branches of the
  direction solve);
- point: ``json.dumps(point_record(...), sort_keys=True)`` at the 5x5
  interior points of a 7x7 sampling of the domain box of each surface in
  ``GRID_SURFACES``, u-major (the set meets umbilic, parabolic and canal
  points: sphere, plane and torus).

A change that claims to leave the library's outputs unchanged should print
the same four digests before and after; one that changes only the JSON
layout should move the json line alone.  Run from the repository root:

    PYTHONPATH=src python3 tools/output_digest.py [--expect FILE]

With ``--expect FILE`` the printed lines are compared with FILE's and the
exit status is 1 if any differs.  ``tools/output_digests.txt`` pins the
current digests; CI runs the tool against it, so a change that moves an
output must update that file and say why.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from focalnet import (compile_surface, emit_csv, emit_json, export_obj,
                      gallery, grid_report, point_record)

GRID_SURFACES = ("plane", "sphere", "graph_quad", "graph_generic",
                 "monkey_saddle", "helicoid", "torus", "enneper", "scherk",
                 "dini")
MESH_SURFACES = ("graph_generic", "dini", "graph_quad", "torus", "helicoid",
                 "sphere", "monkey_saddle", "enneper")


def grid_digests() -> tuple:
    """(json, csv) digests over the ten reports."""
    hj, hc = hashlib.sha256(), hashlib.sha256()
    for name in GRID_SURFACES:
        rep = grid_report(compile_surface(gallery(name)), 25, 25)
        hj.update(emit_json(rep).encode())
        hc.update(emit_csv(rep).encode())
    return hj.hexdigest(), hc.hexdigest()


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print sha256 digests of focalnet's emitted outputs.")
    parser.add_argument("--expect", metavar="FILE",
                        help="compare the printed lines with FILE's and exit "
                             "with status 1 if any differs")
    args = parser.parse_args(argv)
    json_digest, csv_digest = grid_digests()
    lines = [f"json {json_digest}", f"csv {csv_digest}",
             f"mesh {mesh_digest()}", f"point {point_digest()}"]
    print("\n".join(lines))
    if args.expect is not None:
        with open(args.expect) as fh:
            expected = fh.read().splitlines()
        if lines != expected:
            print(f"the digests differ from {args.expect}, which holds:",
                  *expected, sep="\n", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
