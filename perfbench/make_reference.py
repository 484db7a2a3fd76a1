"""Write reference.json: fingerprints of every pool input's output.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  The stored reference defines what
the benchmark accepts as correct, so regenerate it only on purpose, for a
change that is meant to alter focalnet's outputs, and say so.
"""
from __future__ import annotations

import base64
import json
import os
import shutil
import sys
import tempfile
import zlib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import run  # noqa: E402
from fingerprint import (grid_fingerprint, mesh_fingerprint,  # noqa: E402
                         point_fingerprint)
from inputs import GRID_N, inputs_digest  # noqa: E402
from workloads import EvalPoints, GridGeneric, MeshExport  # noqa: E402


def main() -> int:
    fn = run.import_focalnet()
    inputs = run.build_inputs(fn)
    os.makedirs(run.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        grid = GridGeneric(fn, inputs, {}, tmp)
        ref_grid = {name: [] for name in inputs["grid"]}
        for (name, i), prog in grid.progs.items():
            rep = grid.call((name, i))[0]
            ref_grid[name].append(grid_fingerprint(rep.records, GRID_N))
            print("grid", name, i, rep.summary["status_counts"], flush=True)

        mesh = MeshExport(fn, inputs, {}, tmp)
        ref_mesh = {name: [] for name in inputs["mesh"]}
        for (name, i) in mesh.progs:
            out_dir, manifest = mesh.call((name, i))
            ref_mesh[name].append(mesh_fingerprint(out_dir, manifest))
            mesh.release((out_dir, manifest))
            print("mesh", name, i, flush=True)

        ev = EvalPoints(fn, inputs, {}, tmp)
        codes, sums = [], []
        for unit in range(len(ev.pool)):
            code, total = point_fingerprint(ev.call(unit))
            codes.append(code)
            sums.append(total)
        print("eval", len(codes), "points", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ref = {
        "schema": 1,
        "inputs": {k: inputs_digest(v) for k, v in sorted(inputs.items())},
        "grid": ref_grid,
        "mesh": ref_mesh,
        "eval": {
            key: base64.b64encode(zlib.compress(
                np.asarray(values, dtype=run.EVAL_DTYPES[key]).tobytes(),
                9)).decode()
            for key, values in (("codes", codes), ("sums", sums))
        },
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
