"""Grid evaluation and report serialization.

A point record is a plain dict mirroring the JSON schema (snake_case keys,
``"schema": 1`` at the report level).  Degenerate points carry a status
string instead of values — never NaN:

    ok          full record
    moulding    full record (one curvature-line family is geodesic; the
                curvature-line-net equivalences are listed in ``excluded``)
    canal1/canal2/canal12
                frame values and class defects, but no per-statement
                residuals (the focal sheet(s) degenerate to curves)
    umbilic / parabolic / degenerate
                coordinates and status only

Records are ordered u-major ((u index, v index) lexicographic).  The JSON
is ``json.dumps(..., sort_keys=True)`` (the standard library's C encoder) on
one line; ``python -m json.tool`` indents it for reading.  The CSV is
``csv.writer``'s.  Both write every float as its ``repr`` (shortest
round-trip form), so identical inputs produce byte-identical files.

`grid_report` takes the frames of its whole grid from one batched
`frames.frame_points` call; `point_record` evaluates its one point alone.
Both build each record with the same function, which reads a failed
frame's `status` alike from the class a batch gives and the exception a
single point raises, so a grid record equals the `point_record` of its
point byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .classify import CLASS_NAMES, defect_report
from .errors import FRAME_ERRORS
from .frames import FramePoint, frame_point, frame_points
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "GridReport", "STATUSES", "USABLE", "point_record", "grid_report",
    "grid_points", "emit_json", "parse_json", "emit_csv", "summarize",
]

STATUSES = ("ok", "moulding", "canal1", "canal2", "canal12",
            "umbilic", "parabolic", "degenerate")

# Statuses of a full record: the ones that enter the summary aggregates.
USABLE = ("ok", "moulding")

_CSV_VALUES = ("u", "v", "status", "k1", "k2", "h", "k", "q1", "q2")
_CSV_FLAGS = ("weingarten", "cmc", "const_gauss", "moulding", "canal1",
              "canal2")
_CSV_COLUMNS = (_CSV_VALUES + _CSV_FLAGS + ("w_defect",)
                + tuple("d_" + n for n in CLASS_NAMES))


def _empty_record(u: float, v: float, status: str) -> dict:
    return {
        "u": float(u), "v": float(v), "status": status,
        "k1": None, "k2": None, "h": None, "k": None,
        "q1": None, "q2": None, "flags": None, "defects": None,
        "prop_residuals": None, "excluded": None,
    }


def point_record(prog, u: float, v: float,
                 tol: ToleranceSet = DEFAULT_TOLERANCES) -> dict:
    """Evaluate one parameter point into a JSON-ready record."""
    try:
        fp = frame_point(prog, float(u), float(v), tol)
    except FRAME_ERRORS as exc:
        return _record(u, v, exc, tol)
    return _record(u, v, fp, tol)


def _record(u: float, v: float, fp, tol: ToleranceSet) -> dict:
    """The record of a point from its frame point, or from the
    `FRAME_ERRORS` class or instance its frame evaluation failed with."""
    if not isinstance(fp, FramePoint):
        return _empty_record(u, v, fp.status)
    rep = defect_report(fp, tol)
    rec = _empty_record(u, v, rep.status)
    rec.update({
        "k1": fp.k1, "k2": fp.k2,
        "h": 0.5 * (fp.k1 + fp.k2), "k": fp.k1 * fp.k2,
        "q1": fp.q1, "q2": fp.q2,
        "flags": rep.flags,
        "defects": {
            "w": rep.w_defect, "moulding": rep.moulding_defect,
            "class": rep.class_defects,
            "class_normalized": rep.class_defects_normalized,
        },
    })
    if rep.status in USABLE:
        rec["prop_residuals"] = {
            key: {"lhs_defect": r.lhs_defect, "rhs_defect": r.rhs_defect,
                  "identity_residual": r.identity_residual}
            for key, r in sorted(rep.prop_residuals.items())
        }
        rec["excluded"] = list(rep.excluded)
    return rec


def grid_points(prog, nu: int, nv: int):
    """The (u, v) grid: domain box sampled inclusively, u-major order."""
    box = prog.definition.domain
    us = np.linspace(box.u_min, box.u_max, nu)
    vs = np.linspace(box.v_min, box.v_max, nv)
    return [(float(u), float(v)) for u in us for v in vs]


def summarize(records: List[dict]) -> dict:
    """Aggregate a record list: status counts plus max/mean of each defect
    and identity residual over the non-degenerate (ok/moulding) records.
    Deterministic; recomputable from the records alone."""
    counts = {s: 0 for s in STATUSES}
    for rec in records:
        counts[rec["status"]] += 1

    live = [r for r in records if r["status"] in USABLE]

    def _agg(values: List[float]) -> dict:
        if not values:
            return {"max": None, "mean": None}
        return {"max": max(values), "mean": sum(values) / len(values)}

    defects: Dict[str, dict] = {
        "w_abs": _agg([abs(r["defects"]["w"]) for r in live]),
        "moulding": _agg([r["defects"]["moulding"] for r in live]),
    }
    for n in CLASS_NAMES:
        defects["class_" + n] = _agg(
            [r["defects"]["class"][n] for r in live])
        defects["class_normalized_" + n] = _agg(
            [r["defects"]["class_normalized"][n] for r in live])

    prop_keys = sorted(live[0]["prop_residuals"]) if live else []
    identity = {
        key: _agg([r["prop_residuals"][key]["identity_residual"]
                   for r in live])
        for key in prop_keys
    }
    return {"status_counts": counts, "defects": defects,
            "identity_residuals": identity,
            "n_records": len(records), "n_summarized": len(live)}


@dataclass
class GridReport:
    surface: str
    params: Dict[str, float]
    nu: int
    nv: int
    records: List[dict]
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "surface": self.surface,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "nu": self.nu, "nv": self.nv,
            "records": self.records,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridReport":
        if d.get("schema") != 1:
            raise ValueError(f"unsupported report schema: {d.get('schema')}")
        return cls(surface=d["surface"], params=d["params"],
                   nu=d["nu"], nv=d["nv"], records=d["records"],
                   summary=d["summary"])


def grid_report(prog, nu: int, nv: int,
                tol: ToleranceSet = DEFAULT_TOLERANCES) -> GridReport:
    pts = grid_points(prog, nu, nv)
    fps = frame_points(prog, [u for u, _ in pts], [v for _, v in pts], tol)
    records = [_record(u, v, fp, tol) for (u, v), fp in zip(pts, fps)]
    return GridReport(surface=prog.definition.name,
                      params=dict(prog.params), nu=nu, nv=nv,
                      records=records, summary=summarize(records))


def emit_json(report: GridReport) -> str:
    """The report as one line of JSON with sorted keys, written by the
    standard library's C encoder (``indent`` would force the pure-Python
    one); ``python -m json.tool`` indents it for reading."""
    return json.dumps(report.to_dict(), sort_keys=True) + "\n"


def parse_json(text: str) -> GridReport:
    return GridReport.from_dict(json.loads(text))


def emit_csv(report: GridReport) -> str:
    """One row per record.  `csv.writer` writes a float as its ``repr`` and
    ``None`` as an empty cell; flags are written as 1/0."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rec in report.records:
        row = [rec[k] for k in _CSV_VALUES]
        flags, defects = rec["flags"], rec["defects"]
        if flags is None:
            row += [None] * (len(_CSV_COLUMNS) - len(row))
        else:
            row += [int(flags[k]) for k in _CSV_FLAGS]
            row.append(defects["w"])
            row += [defects["class_normalized"][n] for n in CLASS_NAMES]
        writer.writerow(row)
    return buf.getvalue()
