"""Output fingerprints and the correctness gate.

A record's status and flags must match the reference exactly.  Its floats
(k1, k2, q1, q2) must match within ``REL`` of the record's own curvature
scale |k1| + |k2| + |q1| + |q2|.  To keep the stored reference small the
floats enter as one weighted sum per record (per grid row for grids); the
sum's tolerance is the sum of the per-value tolerances, so every output
within the bound passes, and a single value that drifts by more than
sum(WEIGHTS) / its weight times the bound fails.

Mesh vertices are written with 9 significant digits, so their tolerance is
one unit in the ninth digit; face and segment lists must match exactly.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from typing import List

REL = 1e-12
WEIGHTS = (1.0, 1.3247179572447460, 1.7320508075688772, 2.2360679774997896)
_FIELDS = ("k1", "k2", "q1", "q2")
STATUSES = ("ok", "moulding", "canal1", "canal2", "canal12",
            "umbilic", "parabolic", "degenerate")
FLAGS = ("canal1", "canal2", "cmc", "const_gauss", "diff", "gauss", "mean",
         "moulding", "radii_diff", "radii_sum", "ratio", "weingarten")
_OBJ_REL = 1e-8            # one unit in the 9th significant digit


def record_code(rec: dict) -> int:
    code = STATUSES.index(rec["status"]) << len(FLAGS)
    flags = rec["flags"] or {}
    for bit, key in enumerate(FLAGS):
        if flags.get(key):
            code |= 1 << bit
    return code


def record_sum(rec: dict) -> float:
    if rec["k1"] is None:
        return 0.0
    return sum(w * rec[f] for w, f in zip(WEIGHTS, _FIELDS))


def record_budget(rec: dict) -> float:
    if rec["k1"] is None:
        return 0.0
    scale = sum(abs(rec[f]) for f in _FIELDS)
    return REL * sum(WEIGHTS) * scale


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(value: float, ref: float, budget: float) -> bool:
    return abs(value - ref) <= budget


# -- single points -----------------------------------------------------------

def point_fingerprint(rec: dict) -> list:
    return [record_code(rec), record_sum(rec)]


def point_matches(rec: dict, ref: list) -> bool:
    return (record_code(rec) == ref[0]
            and _close(record_sum(rec), ref[1], record_budget(rec)))


# -- grid reports -------------------------------------------------------------

def _rows(records: List[dict], nv: int):
    return [records[i:i + nv] for i in range(0, len(records), nv)]


def grid_fingerprint(records: List[dict], nv: int) -> dict:
    codes = ",".join(str(record_code(r)) for r in records)
    return {"codes": _digest(codes),
            "rows": [sum(record_sum(r) for r in row)
                     for row in _rows(records, nv)]}


def grid_matches(records: List[dict], nv: int, ref: dict) -> bool:
    got = grid_fingerprint(records, nv)
    if got["codes"] != ref["codes"] or len(got["rows"]) != len(ref["rows"]):
        return False
    for row, value, want in zip(_rows(records, nv), got["rows"], ref["rows"]):
        if not _close(value, want, sum(record_budget(r) for r in row)):
            return False
    return True


def _csv_cell(x) -> str:
    return "" if x is None else repr(x)


def check_grid_outputs(js: str, cs: str, nv: int, ref: dict) -> bool:
    """The emitted JSON carries the reference records and a summary that
    counts them; the CSV repeats each record's status and values."""
    doc = json.loads(js)
    records = doc["records"]
    if not grid_matches(records, nv, ref):
        return False
    counts = {s: 0 for s in STATUSES}
    for rec in records:
        counts[rec["status"]] += 1
    if doc["summary"]["status_counts"] != counts:
        return False
    rows = list(csv.reader(io.StringIO(cs)))
    head, body = rows[0], rows[1:]
    if len(body) != len(records):
        return False
    cols = [head.index(c) for c in ("status",) + _FIELDS]
    for row, rec in zip(body, records):
        want = [rec["status"]] + [_csv_cell(rec[f]) for f in _FIELDS]
        if [row[c] for c in cols] != want:
            return False
    return True


# -- OBJ exports ----------------------------------------------------------------

def _obj_fingerprint(path: str) -> dict:
    vsum, vbudget, nvert, topo = 0.0, 0.0, 0, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                xyz = [float(t) for t in line.split()[1:]]
                vsum += sum(w * c for w, c in zip(WEIGHTS, xyz))
                vbudget += _OBJ_REL * sum(w * abs(c)
                                          for w, c in zip(WEIGHTS, xyz))
                nvert += 1
            else:
                topo.append(line)
    return {"vertices": nvert, "topology": _digest("".join(topo)),
            "vsum": vsum, "vbudget": vbudget}


def mesh_fingerprint(out_dir: str, manifest: dict) -> dict:
    files = {}
    for name, entry in sorted(manifest["objects"].items()):
        if entry["written"]:
            fp = _obj_fingerprint(os.path.join(out_dir, entry["file"]))
            del fp["vbudget"]
            files[name] = fp
    return {"objects": _digest(json.dumps(manifest["objects"],
                                          sort_keys=True)),
            "segment_length": manifest["segment_length"],
            "files": files}


def mesh_matches(out_dir: str, manifest: dict, ref: dict) -> bool:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        if json.load(fh) != manifest:
            return False
    objects = _digest(json.dumps(manifest["objects"], sort_keys=True))
    if objects != ref["objects"]:
        return False
    seg = manifest["segment_length"]
    if not _close(seg, ref["segment_length"], REL * abs(ref["segment_length"])):
        return False
    written = sorted(n for n, e in manifest["objects"].items() if e["written"])
    if written != sorted(ref["files"]):
        return False
    for name in written:
        got = _obj_fingerprint(os.path.join(out_dir,
                                            manifest["objects"][name]["file"]))
        want = ref["files"][name]
        if (got["vertices"] != want["vertices"]
                or got["topology"] != want["topology"]
                or not _close(got["vsum"], want["vsum"], got["vbudget"])):
            return False
    return True


def mesh_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))

