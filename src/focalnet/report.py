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

`grid_report` evaluates and classifies its whole grid as one batch
(`frames.frame_batch`, then `classify.defect_report` on arrays);
`point_record` runs the same code on one point's floats.  Both build their
records with `_records`, from columns, and a failed frame's `status` comes
alike from the class a batch gives and the exception a point raises, so a
grid record equals the `point_record` of its point byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List

import numpy as np

from .classify import CLASS_NAMES, DefectReport, defect_report
from .errors import FRAME_ERRORS
from .frames import frame_batch, frame_point
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
    u, v = float(u), float(v)
    try:
        fp = frame_point(prog, u, v, tol)
    except FRAME_ERRORS as exc:
        return _empty_record(u, v, exc.status)
    return _records([(u, v)], [None], fp, defect_report(fp, tol))[0]


def _records(pts, failed, fp, rep: DefectReport) -> List[dict]:
    """The records at `pts` from their frame point `fp` (floats at one
    point, arrays for a batch) and its `defect_report`, built from columns;
    failed[i] is None or the class point i's frame evaluation failed with."""
    batch = isinstance(fp.k1, np.ndarray)

    def column(x) -> list:
        return x.tolist() if batch else [x]

    def per_point(d: dict) -> list:
        if not batch:
            return [d]
        return [dict(zip(d, vals)) for vals in zip(*map(column, d.values()))]

    keys, nums = sorted(rep.prop_residuals), []
    for key in keys:
        r = rep.prop_residuals[key]
        nums += (r.lhs_defect, r.rhs_defect, r.identity_residual)
    records = []
    for ((u, v), kind, status, excluded, k1, k2, q1, q2, w, md, flags, raw,
         normed, row) in zip(
            pts, failed, column(rep.status), column(rep.excluded),
            *map(column, (fp.k1, fp.k2, fp.q1, fp.q2, rep.w_defect,
                          rep.moulding_defect)),
            per_point(rep.flags), per_point(rep.class_defects),
            per_point(rep.class_defects_normalized),
            zip(*map(column, nums)) if batch and nums else repeat(nums)):
        if kind:
            records.append(_empty_record(u, v, kind.status))
            continue
        usable = status in USABLE
        records.append({
            "u": u, "v": v, "status": status, "k1": k1, "k2": k2,
            "h": 0.5 * (k1 + k2), "k": k1 * k2, "q1": q1, "q2": q2,
            "flags": flags,
            "defects": {"w": w, "moulding": md, "class": raw,
                        "class_normalized": normed},
            "prop_residuals": _residuals(keys, row) if usable else None,
            "excluded": list(excluded) if usable else None,
        })
    return records


def _residuals(keys, row) -> dict:
    """A record's residual entries from its three numbers per key."""
    nums = iter(row)
    return {key: {"lhs_defect": lhs, "rhs_defect": rhs,
                  "identity_residual": res}
            for key, lhs, rhs, res in zip(keys, nums, nums, nums)}


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
    live = [r for r in records if r["status"] in USABLE]
    defects = [r["defects"] for r in live]
    return _summary(
        [r["status"] for r in records], [d["w"] for d in defects],
        [d["moulding"] for d in defects],
        {n: [d["class"][n] for d in defects] for n in CLASS_NAMES},
        {n: [d["class_normalized"][n] for d in defects] for n in CLASS_NAMES},
        {key: [r["prop_residuals"][key]["identity_residual"] for r in live]
         for key in (sorted(live[0]["prop_residuals"]) if live else [])})


def _summary(statuses: List[str], w: list, moulding: list, raw: dict,
             normed: dict, identity: dict) -> dict:
    """`summarize` from the statuses of all records and, per aggregate, its
    values over the usable ones in record order.  Python's max and
    left-to-right sum: np.sum adds pairwise, and would move the bits."""
    def agg(values: list) -> dict:
        if not values:
            return {"max": None, "mean": None}
        return {"max": max(values), "mean": sum(values) / len(values)}

    counts = {s: 0 for s in STATUSES}
    for status in statuses:
        counts[status] += 1
    defects = {"w_abs": agg([abs(x) for x in w]), "moulding": agg(moulding)}
    for n in CLASS_NAMES:
        defects["class_" + n] = agg(raw[n])
        defects["class_normalized_" + n] = agg(normed[n])
    return {"status_counts": counts, "defects": defects,
            "identity_residuals": {k: agg(v) for k, v in identity.items()},
            "n_records": len(statuses), "n_summarized": len(w)}


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
    """The report of the nu x nv grid, classified as one batch: records and
    summary come from the columns of `defect_report` over the grid's
    `frames.frame_batch`, whose failed points keep their status."""
    pts = grid_points(prog, nu, nv)
    fp, failed = frame_batch(prog, [u for u, _ in pts], [v for _, v in pts],
                             tol)
    with np.errstate(all="ignore"):
        rep = defect_report(fp, tol)
    statuses = [kind.status if kind else status
                for kind, status in zip(failed, rep.status.tolist())]
    live = np.isin(statuses, USABLE)

    def col(values) -> list:
        return values[live].tolist()

    summary = _summary(
        statuses, col(rep.w_defect), col(rep.moulding_defect),
        {n: col(a) for n, a in rep.class_defects.items()},
        {n: col(a) for n, a in rep.class_defects_normalized.items()},
        {k: col(r.identity_residual)
         for k, r in sorted(rep.prop_residuals.items())}
        if live.any() else {})
    records = _records(pts, failed, fp, rep)
    return GridReport(surface=prog.definition.name,
                      params=dict(prog.params), nu=nu, nv=nv,
                      records=records, summary=summary)


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
