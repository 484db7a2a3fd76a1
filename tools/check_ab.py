"""Compare the `all` self-check suite line by line between a base revision
and the working tree.

    python3 tools/check_ab.py [--base HEAD] [--seeds 0-31]

Run from the repository root.  Both sides are checked from snapshots in
a temporary directory, as `tools/bench_ab.py` makes them: the base
revision's committed files, and the working tree's tracked files as they
stand plus its untracked files that git does not ignore.  For each
seed, each side runs ``run_suite("all", seed)`` in a fresh interpreter on
its own ``src/``, the side that goes first alternating from seed to seed,
and every ``elapsed=`` figure is masked, as CI masks the pinned
transcripts.  Per seed the tool prints whether the lines agree,
the first differing line of each side if not, and each side's wall time
of the suite (interpreter start and imports excluded).  The exit status
is 1 if any seed differs.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

from bench_ab import SIDES, export_revision, export_tree

_WORKER = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from focalnet.checks import run_suite
t0 = time.perf_counter()
lines = [r.line() for r in run_suite("all", int(sys.argv[2]))]
print(json.dumps({"lines": lines, "seconds": time.perf_counter() - t0}))
"""

_ELAPSED = re.compile(r"elapsed=[0-9.]+s")


def run_side(root: str, seed: int) -> dict:
    """One suite run in checkout `root`: its masked lines and wall time."""
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, os.path.join(root, "src"), str(seed)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the suite failed in {root} at seed {seed}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["lines"] = [_ELAPSED.sub("elapsed=-", line) for line in out["lines"]]
    return out


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="base revision")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-31"),
                    help="seed or inclusive seed range, e.g. 0-31")
    args = ap.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="check-ab-") as tmp:
        print(f"base {export_revision(args.base, tmp, 'base')}")
        print(f"tree {export_tree(tmp, 'tree')['commit']}")
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for seed in args.seeds:
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            runs = {side: run_side(roots[side], seed) for side in order}
            times = "  ".join(f"{side} {runs[side]['seconds']:.2f}s"
                              for side in SIDES)
            base, tree = runs["base"]["lines"], runs["tree"]["lines"]
            if base == tree:
                print(f"seed {seed}: identical ({len(base)} lines)  {times}")
                continue
            differing += 1
            at = next((i for i, (b, t) in enumerate(zip(base, tree))
                       if b != t), min(len(base), len(tree)))
            print(f"seed {seed}: differs at line {at + 1}  {times}")
            for side, lines in (("base", base), ("tree", tree)):
                print(f"  {side}: "
                      + (lines[at] if at < len(lines) else "(no line)"))
    print(f"{differing} of {len(args.seeds)} seeds differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
