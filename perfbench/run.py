"""focalnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; focalnet is imported from ``src/``.
Workloads are listed in BENCHMARK.json and described in workloads.py.

``--trace 0`` runs the workload as a closed loop for S seconds and prints
the end-to-end metrics.  ``--trace 1`` runs a fixed number of calls; each is
timed untraced, replayed through the public layer functions inside spans,
and run again with the jet-operation counters on.  It prints the per-layer
metrics and writes every span to ``.perfbench_out/``.

Every output is checked against ``reference.json``; a mismatch, exception
or diverging replay counts as one failed operation.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread: the benchmark is one client on one core.  This must
# happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import base64
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import zlib
from collections import defaultdict
from itertools import islice
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 5
MIN_TAIL_SAMPLES = 10            # samples beyond p99, hence >= 1000 calls
# points_per_s is the median throughput over windows of consecutive calls at
# least this long (one call each for the grid workloads).
WINDOW_S = 0.2

sys.path[:0] = [HERE, SRC]

import numpy as np  # noqa: E402

from inputs import (eval_pool, grid_variants, inputs_digest,  # noqa: E402
                    mesh_variants)
from speed import REFERENCE_S, Clock  # noqa: E402
from tracing import JetCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_focalnet():
    """(Re-)import focalnet from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "focalnet" or m.startswith("focalnet.")]:
        del sys.modules[name]
    fn = importlib.import_module("focalnet")
    if not os.path.abspath(fn.__file__).startswith(SRC + os.sep):
        raise ImportError(f"focalnet imported from {fn.__file__}, not {SRC}")
    return fn


# The per-point eval reference is stored as zlib-compressed little-endian
# arrays in base64: uint16 codes and float64 sums.
EVAL_DTYPES = {"codes": "<u2", "sums": "<f8"}


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        ref = json.load(fh)
    for key, dtype in EVAL_DTYPES.items():
        blob = zlib.decompress(base64.b64decode(ref["eval"][key]))
        ref["eval"][key] = np.frombuffer(blob, dtype=dtype).tolist()
    return ref


def build_inputs(fn) -> dict:
    return {"grid": grid_variants(fn), "mesh": mesh_variants(fn),
            "eval": eval_pool(fn)}


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "blas_threads": 1}


def set_up(workload_cls, inputs: dict, ref: dict, tmp_root: str):
    """Import focalnet, compile the workload's programs and warm up, several
    times; the last set-up is kept.  Returns (workload, median seconds,
    median raw seconds)."""
    clock = Clock()
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        fn = import_focalnet()
        wl = workload_cls(fn, inputs, ref, tmp_root)
        wl.warm_up()
        raw.append(perf_counter() - t0)
        times.append(raw[-1] * clock.scale(raw[-1]))
    return wl, statistics.median(times), statistics.median(raw)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(n: int) -> float:
    """p99, or for fewer than 1000 calls the highest quantile with at least
    MIN_TAIL_SAMPLES calls above it, but never below the median."""
    return min(0.99, max(0.5, 1.0 - MIN_TAIL_SAMPLES / n))


def _checked(wl, unit, out) -> bool:
    try:
        return bool(wl.check(unit, out))
    except Exception:
        traceback.print_exc()
        return False


def measure(wl, seed: int, seconds: float) -> dict:
    """Closed loop of whole cycles of calls until ``seconds`` of wall time
    have passed.  Each call's time is converted to reference seconds by the
    calibrations just before and just after it (speed.py); checking its
    output comes after that and is not timed."""
    clock = Clock()
    per_point, windows, raw_busy = [], [], 0.0
    points = attempted = failed = 0
    w_points, w_raw, w_ref = 0, 0.0, 0.0
    stop = perf_counter() + seconds
    for i, unit in enumerate(wl.units(seed)):
        if i % wl.cycle == 0 and perf_counter() >= stop:
            break
        attempted += 1
        t0 = perf_counter()
        try:
            out = wl.call(unit)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        dt = perf_counter() - t0
        k = clock.scale(dt)
        failed += not _checked(wl, unit, out)
        wl.release(out)
        raw_busy += dt
        points += wl.points_per_call
        per_point.append(dt * k / wl.points_per_call)
        w_points, w_raw, w_ref = (w_points + wl.points_per_call, w_raw + dt,
                                  w_ref + dt * k)
        if w_raw >= WINDOW_S:
            windows.append(w_points / w_ref)
            w_points, w_raw, w_ref = 0, 0.0, 0.0
    if w_points and not windows:
        windows.append(w_points / w_ref)
    return {"per_point": sorted(per_point), "windows": windows,
            "points": points, "raw_busy": raw_busy,
            "calibration_s": statistics.median(clock.samples),
            "attempted": attempted, "failed": failed}


def end_to_end(wl, seed: int, seconds: float, setup_s: float, raw_setup_s):
    m = measure(wl, seed, seconds)
    lat = m["per_point"]
    if not lat:
        raise RuntimeError("no call completed")
    n = len(lat)
    tail = tail_quantile(n)
    print(f"calls={n} points={m['points']} windows={len(m['windows'])} "
          f"tail quantile={tail:.4g} with {n - math.ceil(tail * n)} calls "
          "above it")
    print(f"raw: points_per_s={m['points'] / m['raw_busy']:.6g} "
          f"setup_s={raw_setup_s:.6g} calibration_s={m['calibration_s']:.6g} "
          f"(reference {REFERENCE_S})")
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (statistics.median(m["windows"]), "1/s"),
        "point_p50_us": (1e6 * nearest_rank(lat, 0.5), "us"),
        "point_p99_us": (1e6 * nearest_rank(lat, tail), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return m["attempted"], m["failed"], metrics


def traced(wl, seed: int) -> dict:
    """The first ``wl.trace_calls`` calls, each run three times: untraced
    (timed and checked), replayed through the layer functions in spans, and
    again with the jet counters on (timed).  Each of the three is converted
    to reference seconds by the calibrations around it."""
    clock = Clock()
    t = {"tracer": Tracer(), "counter": JetCounter(wl.fn), "plain_s": 0.0,
         "counted_s": 0.0, "layer_s": defaultdict(float), "calls": 0,
         "bytes": 0, "attempted": 0, "failed": 0}
    tr = t["tracer"]
    for i, unit in enumerate(islice(wl.units(seed), wl.trace_calls)):
        t["attempted"] += 1
        try:
            t0 = perf_counter()
            out = wl.call(unit)
            plain = perf_counter() - t0
            plain *= clock.scale(plain)
            ok = _checked(wl, unit, out)
            first = len(tr.spans)
            tr.begin("replay", i)
            diverged = wl.replay(unit, out, tr)
            tr.end()
            layers = tr.totals(first)
            k = clock.scale(layers["replay"])
            t["bytes"] += wl.out_bytes(out)
            wl.release(out)
            with t["counter"]:
                t0 = perf_counter()
                again = wl.call(unit)
                counted = perf_counter() - t0
            counted *= clock.scale(counted)
            wl.release(again)
        except Exception:
            traceback.print_exc()
            t["failed"] += 1
            continue
        if diverged:
            print(f"replay of call {i} diverged at {diverged} points")
        t["failed"] += not ok or bool(diverged)
        t["plain_s"] += plain
        t["counted_s"] += counted
        for name, dur in layers.items():
            t["layer_s"][name] += dur * k
        t["calls"] += 1
    if not t["calls"]:
        raise RuntimeError("no call completed")
    return t


def layer_metrics(wl, t: dict) -> dict:
    """Per-layer metrics; times are in reference seconds (see speed.py)."""
    totals = t["layer_s"]
    status = t["tracer"].status_counts()
    counter, calls = t["counter"], t["calls"]
    pts = calls * wl.points_per_call

    def us_per_pt(name):
        return 1e6 * totals.get(name, 0.0) / pts

    def per_call(name):
        n = sum(status.get(name, {}).values())
        return 1e6 * totals.get(name, 0.0) / n if n else 0.0

    def frac(name, pred):
        counts = status.get(name, {})
        n = sum(counts.values())
        return sum(v for k, v in counts.items() if pred(k)) / n if n else 0.0

    # What export_obj spends outside the replayed layer calls: assembling
    # and writing the OBJ files.
    own = t["plain_s"] - sum(totals.get(name, 0.0) for name in wl.layers)
    is_mesh = "central" in wl.layers
    return {
        "sdl.eval_us_per_pt": (us_per_pt("sdl"), "us"),
        "jet.mul_per_pt": (counter.total("mul") / pts, "count"),
        "jet.compose_per_pt": (counter.total("compose") / pts, "count"),
        "jet.mul_pair_useful_frac": (counter.useful_pair_frac(), "ratio"),
        "geometry.principal_us_per_pt": (us_per_pt("geometry"), "us"),
        "geometry.raise_frac": (frac("geometry", lambda s: s != "ok"),
                                "ratio"),
        "frames.frame_us_per_pt": (us_per_pt("frames"), "us"),
        "classify.report_us_per_pt": (us_per_pt("classify"), "us"),
        "classify.canal_frac": (frac("classify",
                                     lambda s: s.startswith("canal")),
                                "ratio"),
        "central.point_us_per_call": (per_call("central"), "us"),
        "central.canal_refused_frac": (frac("central", lambda s: s != "ok"),
                                       "ratio"),
        "nets.net_us_per_call": (per_call("nets"), "us"),
        "nets.real_frac": (frac("nets", lambda s: s == "ok"), "ratio"),
        "report.summarize_s": (totals.get("report.summarize", 0.0) / calls,
                               "s"),
        "report.emit_json_s": (totals.get("report.emit_json", 0.0) / calls,
                               "s"),
        "report.emit_csv_s": (totals.get("report.emit_csv", 0.0) / calls,
                              "s"),
        "report.bytes": (0 if is_mesh else t["bytes"] / calls, "B"),
        "mesh.self_s": (own / calls if is_mesh else 0.0, "s"),
        "mesh.bytes_written": (t["bytes"] / calls if is_mesh else 0, "B"),
        "trace.overhead_frac": ((t["counted_s"] - t["plain_s"])
                                / t["plain_s"], "ratio"),
    }


def write_trace(wl, seed, env, t, metrics) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json")
    tr = t["tracer"]
    with open(path, "w") as fh:
        json.dump({"env": env, "workload": wl.name,
                   "layer_status_counts": tr.status_counts(),
                   "jet_ops_by_valid_order": t["counter"].table(),
                   "self_raw_s": tr.self_times(),
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "spans": tr.columns()}, fh)
    return path


def report_trace(wl, t: dict) -> None:
    tr = t["tracer"]
    replayed = sum(t["layer_s"].get(name, 0.0) for name in wl.layers)
    print(f"traced calls={t['calls']} untraced_s={t['plain_s']:.4f} "
          f"counted_s={t['counted_s']:.4f} (reference seconds)")
    print(f"untraced_s = replayed layers {replayed:.4f} + outside them "
          f"{t['plain_s'] - replayed:.4f}")
    for name, n in sorted(tr.self_times().items()):
        print(f"self {name:<18} {n:10.4f} s (raw)")
    for name, counts in tr.status_counts().items():
        print(f"calls {name:<17} {json.dumps(counts, sort_keys=True)}")
    for kind, row in t["counter"].table().items():
        print(f"jet {kind:<8} by valid order 0-4: {row}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    fn = import_focalnet()
    inputs = build_inputs(fn)
    ref = load_reference()
    if ref["inputs"] != {k: inputs_digest(v) for k, v in sorted(inputs.items())}:
        raise RuntimeError("reference.json was taken on other input pools")
    os.makedirs(OUT, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        wl, setup_s, raw_setup_s = set_up(WORKLOADS[workload], inputs, ref,
                                          tmp_root)
        if trace:
            t = traced(wl, seed)
            attempted, failed = t["attempted"], t["failed"]
            metrics = layer_metrics(wl, t)
            report_trace(wl, t)
            print("trace written to " + write_trace(wl, seed, env, t, metrics))
        else:
            attempted, failed, metrics = end_to_end(wl, seed, seconds,
                                                    setup_s, raw_setup_s)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except ImportError as exc:
        print(f"cannot import focalnet from {SRC}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
