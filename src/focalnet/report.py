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

Records are ordered u-major ((u index, v index) lexicographic).  All floats
are emitted through ``repr`` (shortest round-trip form), so identical inputs
produce byte-identical files.

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
import math
from json.encoder import encode_basestring_ascii as _json_str
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .classify import CLASS_NAMES, defect_report
from .errors import FRAME_ERRORS
from .frames import FramePoint, frame_point, frame_points
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "GridReport", "STATUSES", "point_record", "grid_report", "grid_points",
    "emit_json", "parse_json", "emit_csv", "summarize",
]

STATUSES = ("ok", "moulding", "canal1", "canal2", "canal12",
            "umbilic", "parabolic", "degenerate")

# Statuses that enter the summary aggregates.
_SUMMARIZED = ("ok", "moulding")

_FLAG_KEYS = tuple(CLASS_NAMES) + ("weingarten", "cmc", "const_gauss",
                                   "moulding", "canal1", "canal2")

_CSV_COLUMNS = (
    "u", "v", "status", "k1", "k2", "h", "k", "q1", "q2",
    "weingarten", "cmc", "const_gauss", "moulding", "canal1", "canal2",
    "w_defect", "d_diff", "d_ratio", "d_radii_diff", "d_radii_sum",
    "d_mean", "d_gauss",
)


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
    c1, c2 = rep.flags["canal1"], rep.flags["canal2"]
    if c1 or c2:
        status = "canal12" if (c1 and c2) else ("canal1" if c1 else "canal2")
    else:
        status = "moulding" if rep.flags["moulding"] else "ok"
    rec = _empty_record(u, v, status)
    rec.update({
        "k1": float(fp.k1), "k2": float(fp.k2),
        "h": float(0.5 * (fp.k1 + fp.k2)), "k": float(fp.k1 * fp.k2),
        "q1": float(fp.q1), "q2": float(fp.q2),
        "flags": {k: bool(rep.flags[k]) for k in _FLAG_KEYS},
        "defects": {
            "w": float(rep.w_defect), "moulding": float(rep.moulding_defect),
            "class": {n: float(rep.class_defects[n]) for n in CLASS_NAMES},
            "class_normalized": {n: float(rep.class_defects_normalized[n])
                                 for n in CLASS_NAMES},
        },
    })
    if not (c1 or c2):
        rec["prop_residuals"] = {
            key: {"lhs_defect": float(r.lhs_defect),
                  "rhs_defect": float(r.rhs_defect),
                  "identity_residual": float(r.identity_residual)}
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

    live = [r for r in records if r["status"] in _SUMMARIZED]

    def _agg(values: List[float]) -> dict:
        if not values:
            return {"max": None, "mean": None}
        return {"max": float(max(values)),
                "mean": float(sum(values) / len(values))}

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
    """The report as JSON, byte for byte what
    ``json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\\n"`` gives,
    which runs the pure-Python encoder because of `indent`."""
    return _json(report.to_dict(), "\n") + "\n"


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_INFINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _json(o, newline: str) -> str:
    """`o` as `json.dumps(o, sort_keys=True, indent=2)` spells it, nested at
    the indent that `newline` ends in."""
    t = type(o)
    if t is float:
        if o != o:
            return "NaN"
        return _JSON_INFINITE.get(o) or float.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _json(o[k], inner) for k in sorted(o)])
            + newline + "}")
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([_json(x, inner) for x in o])
                + newline + "]")
    if t is str:
        return _json_str(o)
    if o is None or o is True or o is False:
        return _JSON_CONSTANTS[o]
    if t is int:
        return int.__repr__(o)
    for base in (float, int, str):    # subclasses, such as numpy's float64
        if isinstance(o, base):
            return _json(base(o), newline)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def parse_json(text: str) -> GridReport:
    return GridReport.from_dict(json.loads(text))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(report: GridReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rec in report.records:
        flags = rec["flags"] or {}
        defects = rec["defects"] or {}
        normed = defects.get("class_normalized", {})
        row = [rec["u"], rec["v"], rec["status"],
               rec["k1"], rec["k2"], rec["h"], rec["k"],
               rec["q1"], rec["q2"]]
        row += [flags.get(k) for k in ("weingarten", "cmc", "const_gauss",
                                       "moulding", "canal1", "canal2")]
        row += [defects.get("w")]
        row += [normed.get(n) for n in CLASS_NAMES]
        writer.writerow([_csv_cell(x) for x in row])
    return buf.getvalue()
