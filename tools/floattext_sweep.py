"""Compare `focalnet.floattext` with ``repr``, ``%.9g`` and ``%d`` on a
large sweep.

    PYTHONPATH=src python3 -W error::RuntimeWarning tools/floattext_sweep.py \
        [--bits 10000000] [--seed 0] [--grid 40]

Four corpora: `--bits` random 64-bit patterns read as float64 (drawn in
blocks of 2^18 from ``numpy.random.default_rng(seed)``), and every float
leaf of ``grid_report`` over each gallery surface on a `--grid` square
grid (each report's distinct values, as `report._format` writes them),
both against `reprs`; the same bit patterns, and every vertex that
``export_obj`` writes for a `--grid` square grid with both focal sheets
and nets 13/14/17/18 of each surface of ``tools/output_digest.py``'s
mesh corpus, against `write_lines`' ``'%.9g' % v``; and that export's
face and segment indices against its ``'%d' % v``.  For each corpus the
tool prints how many values it compared, how many texts differ, and the
share of values the fast path hands to ``repr`` or ``format``; it exits
1 on any mismatch.
"""
from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile

import numpy as np

from focalnet import compile_surface, gallery, gallery_names
from focalnet import floattext
from focalnet import mesh
from focalnet.report import grid_report
from output_digest import MESH_SURFACES

_BLOCK = 1 << 18


class _Corpus:
    """Mismatch and fallback counts over the values passed to `check`."""

    def __init__(self, name: str):
        self.name, self.n, self.bad, self.fallback = name, 0, 0, 0

    def check(self, values: np.ndarray) -> None:
        def counted(v):
            self.fallback += 1
            return repr(v)
        floattext.repr = counted     # the module's global shadows the builtin
        try:
            got = floattext.reprs(values)
        finally:
            del floattext.repr
        want = list(map(repr, values.tolist()))
        self.n += len(want)
        for g, w in zip(got, want):
            if g != w:
                if self.bad < 10:
                    print(f"{self.name}: {w} written as {g}")
                self.bad += 1

    def line(self) -> str:
        return (f"{self.name}: {self.n} values, {self.bad} mismatches, "
                f"{self.fallback} to repr "
                f"({100 * self.fallback / max(self.n, 1):.3f}%)")


class _Lines(_Corpus):
    """The same counts for `floattext.write_lines` against ``%``, line by
    line (one text per value)."""

    def check(self, key: str, rows: np.ndarray) -> None:
        def counted(v, spec):
            self.fallback += 1
            return format(v, spec)
        floattext.format = counted   # shadows the builtin, as repr above
        fh = io.BytesIO()
        try:
            floattext.write_lines(fh, key, rows)
        finally:
            del floattext.format
        spec = " %.9g" if rows.dtype.kind == "f" else " %d"
        got = fh.getvalue().decode("ascii").split("\n")[:-1]
        self.n += rows.size
        for g, row in zip(got, rows.tolist()):
            w = key + spec * len(row) % tuple(row)
            if g != w:
                if self.bad < 10:
                    print(f"{self.name}: {w!r} written as {g!r}")
                self.bad += rows.shape[1]
        self.bad += rows.size - rows.shape[1] * len(got)

    def line(self) -> str:
        return super().line().replace(" to repr ", " to format ")


def _mesh_blocks(n: int):
    """The (key, rows) blocks `export_obj` writes for an n x n grid with
    both sheets and all four nets, over the mesh digest corpus."""
    blocks = []
    write = mesh.write_lines
    mesh.write_lines = lambda fh, key, rows: blocks.append((key, rows))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in MESH_SURFACES:
                mesh.export_obj(compile_surface(gallery(name)), n, n,
                                os.path.join(tmp, name), central=(1, 2),
                                nets=mesh.NET_LABELS)
    finally:
        mesh.write_lines = write
    return blocks


def _leaves(tree: dict):
    for x in tree.values():
        if isinstance(x, dict):
            yield from _leaves(x)
        elif x.dtype != bool:
            yield x


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bits", type=int, default=10_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", type=int, default=40)
    args = ap.parse_args(argv)

    bits = _Corpus("random bit patterns")
    bits9 = _Lines("random bit patterns as %.9g")
    rng = np.random.default_rng(args.seed)
    for start in range(0, args.bits, _BLOCK):
        size = min(_BLOCK, args.bits - start)
        x = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64)
        bits.check(x)
        bits9.check("v", x[:, None])
    print(bits.line())
    print(bits9.line())

    vertices = _Lines(f"mesh {args.grid}x{args.grid} vertices as %.9g")
    indices = _Lines(f"mesh {args.grid}x{args.grid} face and segment "
                     "indices as %d")
    for key, rows in _mesh_blocks(args.grid):
        (vertices if key == "v" else indices).check(key, rows)
    print(vertices.line())
    print(indices.line())

    grids = _Corpus(f"gallery {args.grid}x{args.grid} reports")
    for name in gallery_names():
        rep = grid_report(compile_surface(gallery(name)), args.grid, args.grid)
        floats = np.concatenate(list(_leaves(rep.columns)))
        grids.check(np.unique(floats.view(np.int64)).view(np.float64))
    print(grids.line())
    return 1 if any(c.bad for c in (bits, bits9, vertices, indices,
                                    grids)) else 0


if __name__ == "__main__":
    sys.exit(main())
