"""Print sha256 digests of focalnet's emitted outputs over a fixed corpus.

Two digests, one per line:

- grid: ``emit_json`` followed by ``emit_csv`` of ``grid_report`` 25x25 for
  each of the ten surfaces in ``GRID_SURFACES``, in that order (a fixed
  list, so the digest stays comparable when the gallery grows);
- mesh: the name and then the bytes of every file ``export_obj`` writes
  (sorted by name) for a 20x20 grid with both focal sheets and nets
  13/14/17/18 on graph_generic, dini, graph_quad and torus.

A change that claims to leave the library's outputs unchanged should print
the same two digests before and after.  Run from the repository root:

    PYTHONPATH=src python3 tools/output_digest.py
"""
from __future__ import annotations

import hashlib
import os
import tempfile

from focalnet import (compile_surface, emit_csv, emit_json, export_obj,
                      gallery, grid_report)

GRID_SURFACES = ("plane", "sphere", "graph_quad", "graph_generic",
                 "monkey_saddle", "helicoid", "torus", "enneper", "scherk",
                 "dini")
MESH_SURFACES = ("graph_generic", "dini", "graph_quad", "torus")


def grid_digest() -> str:
    h = hashlib.sha256()
    for name in GRID_SURFACES:
        rep = grid_report(compile_surface(gallery(name)), 25, 25)
        h.update(emit_json(rep).encode())
        h.update(emit_csv(rep).encode())
    return h.hexdigest()


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


if __name__ == "__main__":
    print(f"grid {grid_digest()}")
    print(f"mesh {mesh_digest()}")
