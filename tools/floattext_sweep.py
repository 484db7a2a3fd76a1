"""Compare `focalnet.floattext` with ``repr``, ``%.9g`` and ``%d`` on a
large sweep.

    PYTHONPATH=src python3 -W error::RuntimeWarning tools/floattext_sweep.py \
        [--bits 10000000] [--seed 0] [--grid 40]

Seven corpora, each drawn in blocks of 2^18 from
``numpy.random.default_rng(seed)`` where it is random:

- `--bits` random 64-bit patterns read as float64, against `reprs` and
  against `write_lines`' ``'%.9g' % v``;
- `--bits` floats of mesh-range magnitudes (either sign, log-uniform in
  [1e-5, 1e4)), about one in 4096 replaced by a value in
  [1e4 - 1e-3, 1e4) at a log-uniform distance from 1e4, of which about
  three in four print as 10000, against ``'%.9g' % v``: the random bit
  patterns almost never fill a chunk whose whole parts all stay below
  10^4, and about half of these chunks do;
- `--bits` integers in blocks whose largest value lies below 10^4, 10^8
  and 10^12 in turn (log-uniform magnitudes), as rows of 3 and 2, against
  ``'%d' % v``;
- every vertex that ``export_obj`` writes for a `--grid` square grid with
  both focal sheets and nets 13/14/17/18 of each surface of
  ``tools/output_digest.py``'s mesh corpus, against ``'%.9g' % v``, and
  that export's face and segment indices against ``'%d' % v``;
- every float leaf of ``grid_report`` over each gallery surface on a
  `--grid` square grid (each report's distinct values, as
  `report._format` writes them), against `reprs`.

For each corpus the tool prints how many values it compared, how many
texts differ and the share of values the fast path hands to ``repr`` or
``format``, and for the OBJ lines how many chunks `write_lines` wrote with
each row width (words per value: 7 or 8 for floats, 3, 4 or 5 for
integers; the narrower rows leave out integer digits no value of the
chunk or block fills).  It exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import functools
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
    line (one text per value), and the chunks written by row width."""

    def __init__(self, name: str):
        super().__init__(name)
        self.widths = {}

    def check(self, key: str, rows: np.ndarray) -> None:
        def counted(v, spec):
            self.fallback += 1
            return format(v, spec)

        def measured(*args, fill, **kwargs):
            out = fill(*args, **kwargs)
            width = out.shape[1]
            self.widths[width] = self.widths.get(width, 0) + 1
            return out
        floattext.format = counted   # shadows the builtin, as repr above
        fills = floattext._g9_chunk, floattext._int_chunk
        floattext._g9_chunk = functools.partial(measured, fill=fills[0])
        floattext._int_chunk = functools.partial(measured, fill=fills[1])
        fh = io.BytesIO()
        try:
            floattext.write_lines(fh, key, rows)
        finally:
            del floattext.format
            floattext._g9_chunk, floattext._int_chunk = fills
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
        widths = ", ".join(f"{self.widths[w]} of {w}"
                           for w in sorted(self.widths))
        return (super().line().replace(" to repr ", " to format ")
                + f"; chunks by words per value: {widths}")


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
    near = _Lines("mesh-range magnitudes as %.9g")
    ints = _Lines("integer blocks below 10^4, 10^8 and 10^12 as %d")
    rng = np.random.default_rng(args.seed)
    for i, start in enumerate(range(0, args.bits, _BLOCK)):
        size = min(_BLOCK, args.bits - start)
        x = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64)
        bits.check(x)
        bits9.check("v", x[:, None])
        x = rng.choice([-1.0, 1.0], size) * 10 ** rng.uniform(-5, 4, size)
        edge = rng.random(size) < 1 / 4096
        x[edge] = 1e4 - 10 ** rng.uniform(-13, -3, edge.sum())
        near.check("v", x[:size // 3 * 3].reshape(-1, 3))
        # blocks below 10^4, 10^8 and 10^12 in turn, as rows of 3 (faces)
        # for three blocks and of 2 (segments) for the next three
        digits = 4 * (i % 3 + 1)
        v = (10 ** rng.uniform(0, digits, size)).astype(np.intp) - 1
        per_row = 3 - i // 3 % 2
        ints.check("f" if per_row == 3 else "l",
                   v[:size // per_row * per_row].reshape(-1, per_row))
    for corpus in (bits, bits9, near, ints):
        print(corpus.line())

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
    return 1 if any(c.bad for c in (bits, bits9, near, ints, vertices,
                                    indices, grids)) else 0


if __name__ == "__main__":
    sys.exit(main())
