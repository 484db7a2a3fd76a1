"""Wall time and peak RSS of ``focalnet grid`` at growing grid sizes.

    python3 tools/grid_scale.py [N ...]

Run from anywhere; the checkout's own ``src/`` is imported.  For each N
(default 100, 200 and 400) one fresh process runs

    focalnet grid --surface graph_generic --nu N --nv N --out F.json --csv F.csv

into a temporary directory, and one line is printed:

    NxN wall S s peak M MB json B bytes csv B bytes

The wall time runs from the start of the process to its exit, import
included; the peak is the child's own ``ru_maxrss`` (from ``os.wait4``,
so no other child's peak is read), in MB of 2^20 bytes.  A child that
exits with a status other than 0 stops the run with that status.  POSIX
only (``os.wait4``).
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (100, 200, 400)


def run(n: int, out_dir: str) -> str:
    """The line of one fresh ``focalnet grid`` run of n x n points."""
    base = os.path.join(out_dir, f"grid{n}")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "focalnet.cli", "grid",
         "--surface", "graph_generic", "--nu", str(n), "--nv", str(n),
         "--out", base + ".json", "--csv", base + ".csv"],
        env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(child.returncode)
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    sizes = [os.path.getsize(base + ext) for ext in (".json", ".csv")]
    for ext in (".json", ".csv"):
        os.remove(base + ext)
    return (f"{n}x{n} wall {wall:.2f} s peak "
            f"{usage.ru_maxrss * scale / 2**20:.1f} MB "
            f"json {sizes[0]} bytes csv {sizes[1]} bytes")


def main(argv) -> int:
    sizes = [int(a) for a in argv] or SIZES
    with tempfile.TemporaryDirectory() as out_dir:
        for n in sizes:
            print(run(n, out_dir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
