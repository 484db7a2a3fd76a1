"""Compare `focalnet.floattext.reprs` with ``repr`` on a large sweep.

    PYTHONPATH=src python3 -W error::RuntimeWarning tools/floattext_sweep.py \
        [--bits 10000000] [--seed 0] [--grid 40]

Two corpora: `--bits` random 64-bit patterns read as float64 (drawn in
blocks of 2^18 from ``numpy.random.default_rng(seed)``), and every float
leaf of ``grid_report`` over each gallery surface on a `--grid` square
grid (each report's distinct values, as `report._format` writes them).
For each corpus the tool prints how many values it compared, how many
texts differ from ``repr``'s, and the share of values the fast path hands
to ``repr``; it exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from focalnet import compile_surface, gallery, gallery_names
from focalnet import floattext
from focalnet.report import grid_report

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
    rng = np.random.default_rng(args.seed)
    for start in range(0, args.bits, _BLOCK):
        size = min(_BLOCK, args.bits - start)
        bits.check(rng.integers(0, 2 ** 64, size, dtype=np.uint64)
                   .view(np.float64))
    print(bits.line())

    grids = _Corpus(f"gallery {args.grid}x{args.grid} reports")
    for name in gallery_names():
        rep = grid_report(compile_surface(gallery(name)), args.grid, args.grid)
        floats = np.concatenate(list(_leaves(rep.columns)))
        grids.check(np.unique(floats.view(np.int64)).view(np.float64))
    print(grids.line())
    return 1 if bits.bad or grids.bad else 0


if __name__ == "__main__":
    sys.exit(main())
