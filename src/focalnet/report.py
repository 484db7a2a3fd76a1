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

Records are ordered u-major ((u index, v index) lexicographic).

`grid_report` evaluates and classifies its whole grid as one batch
(`frames.frame_point` on arrays, then `classify.defect_report`) and keeps
the result as columns: a `GridReport` holds one float64 or bool array per
leaf of a record (``k1``, ``flags.cmc``, ``defects.class.mean``,
``prop_residuals.prop1_s1.lhs_defect``, ...), nested as in a record, next
to the status and excluded columns.  `parse_json` fills the same columns
from the records it reads.  `_records` builds records from such columns:
a report's ``records`` on first reading, and `point_record` from one
point's floats, so a grid record equals the `point_record` of its point
byte for byte.

The emitters write text straight from the columns, byte for byte what
``json.dumps(report.to_dict(), sort_keys=True)`` (one line) and
``csv.writer`` would write.  A record's shape, its status and, in a full
record, its excluded statements, fixes all of it but its float and bool
leaves.  So each shape has one template, the record `_records` builds from
placeholder leaves, rendered once (by ``json.dumps``, so key order and
separators are its by construction), and each record is one ``%`` of its
shape's template.  A float is written as its ``repr`` (the shortest
round-trip form; JSON writes ``NaN``, ``Infinity`` and ``-Infinity`` where
a value is not finite, as ``json.dumps`` does), and each emitter formats
each distinct bit pattern of its floats once.  Identical inputs produce
byte-identical files; ``python -m json.tool`` indents the JSON for reading.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from .classify import CLASS_NAMES, DefectReport, defect_report
from .errors import FRAME_ERRORS
from .frames import frame_point
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "GridReport", "STATUSES", "USABLE", "point_record", "grid_report",
    "grid_points", "emit_json", "parse_json", "emit_csv", "summarize",
]

STATUSES = ("ok", "moulding", "canal1", "canal2", "canal12",
            "umbilic", "parabolic", "degenerate")

# Statuses of a full record: the ones that enter the summary aggregates.
USABLE = ("ok", "moulding")

# Statuses of a failed frame: the record holds the coordinates alone.
_NO_FRAME = frozenset(error.status for error in FRAME_ERRORS)

_CSV_VALUES = ("u", "v", "status", "k1", "k2", "h", "k", "q1", "q2")
_CSV_FLAGS = ("weingarten", "cmc", "const_gauss", "moulding", "canal1",
              "canal2")
_CSV_COLUMNS = (_CSV_VALUES + _CSV_FLAGS + ("w_defect",)
                + tuple("d_" + n for n in CLASS_NAMES))


def _empty_record(u: float, v: float, status: str) -> dict:
    return {
        "u": u, "v": v, "status": status,
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
    rep = defect_report(fp, tol)
    return _records([rep.status], [rep.excluded], _columns(u, v, fp, rep))[0]


def _columns(u, v, fp, rep: DefectReport) -> dict:
    """The record leaves at (u, v) from its frame point `fp` (floats at one
    point, arrays for a batch) and `fp`'s `defect_report`, nested as in a
    record; the status and excluded statements are kept apart."""
    return {
        "u": u, "v": v, "k1": fp.k1, "k2": fp.k2,
        "h": 0.5 * (fp.k1 + fp.k2), "k": fp.k1 * fp.k2,
        "q1": fp.q1, "q2": fp.q2, "flags": rep.flags,
        "defects": {"w": rep.w_defect, "moulding": rep.moulding_defect,
                    "class": rep.class_defects,
                    "class_normalized": rep.class_defects_normalized},
        "prop_residuals": {
            key: {"lhs_defect": r.lhs_defect, "rhs_defect": r.rhs_defect,
                  "identity_residual": r.identity_residual}
            for key, r in sorted(rep.prop_residuals.items())},
    }


def _records(statuses, excluded, cols: dict) -> List[dict]:
    """The records with these statuses and excluded statements from their
    leaf columns `cols` (`_columns`' nesting; arrays for a batch, one value
    per leaf for one record): a `_NO_FRAME` status keeps the coordinates
    alone, and only a `USABLE` one keeps residuals and excluded."""
    if not statuses:             # an empty grid, whose columns may be none
        return []
    batch = isinstance(cols["u"], np.ndarray)

    def column(x) -> list:
        return x.tolist() if batch else [x]

    def per_point(d: dict) -> list:
        if not batch:
            return [d]
        return [dict(zip(d, vals)) for vals in zip(*map(column, d.values()))]

    us, vs = column(cols["u"]), column(cols["v"])
    if "flags" not in cols:      # a parsed report whose frames all failed
        return [_empty_record(u, v, s) for u, v, s in zip(us, vs, statuses)]
    defects, prop = cols["defects"], cols.get("prop_residuals", {})
    keys = list(prop)
    records = []
    for (u, v, status, exc, k1, k2, h, k, q1, q2, w, md, flags, raw,
         normed, row) in zip(
            us, vs, statuses, excluded,
            *map(column, (cols["k1"], cols["k2"], cols["h"], cols["k"],
                          cols["q1"], cols["q2"], defects["w"],
                          defects["moulding"])),
            per_point(cols["flags"]), per_point(defects["class"]),
            per_point(defects["class_normalized"]),
            zip(*(per_point(prop[key]) for key in keys))
            if keys else repeat(())):
        if status in _NO_FRAME:
            records.append(_empty_record(u, v, status))
            continue
        usable = status in USABLE
        records.append({
            "u": u, "v": v, "status": status, "k1": k1, "k2": k2,
            "h": h, "k": k, "q1": q1, "q2": q2, "flags": flags,
            "defects": {"w": w, "moulding": md, "class": raw,
                        "class_normalized": normed},
            "prop_residuals": dict(zip(keys, row)) if usable else None,
            "excluded": list(exc) if usable else None,
        })
    return records


def _leaves(tree: dict, path: Tuple[str, ...] = ()) -> Iterator[tuple]:
    """(path, value) of each leaf of nested dicts, depth first."""
    for key, x in tree.items():
        if isinstance(x, dict):
            yield from _leaves(x, path + (key,))
        else:
            yield path + (key,), x


def _nest(paths, values) -> dict:
    """The nested dicts holding each value at its path."""
    tree: dict = {}
    for path, x in zip(paths, values):
        node = tree
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = x
    return tree


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


@dataclass(eq=False)
class GridReport:
    """A grid's report as columns: per record its status and excluded
    statements (read in full records only), and `columns`, one float64 or
    bool array over the records per leaf, nested as in a record (`_leaves`
    gives each with its path).  A column's entries at a record whose shape
    has no such leaf are meaningless.  ``records`` is a view, built once on
    first reading; two reports are equal when their `to_dict` are."""
    surface: str
    params: Dict[str, float]
    nu: int
    nv: int
    status: List[str]
    excluded: List[Tuple[str, ...]]
    columns: dict
    summary: dict = field(default_factory=dict)

    @cached_property
    def records(self) -> List[dict]:
        return _records(self.status, self.excluded, self.columns)

    def to_dict(self) -> dict:
        return self._document(self.records)

    def _document(self, records) -> dict:
        return {
            "schema": 1,
            "surface": self.surface,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "nu": self.nu, "nv": self.nv,
            "records": records,
            "summary": self.summary,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "GridReport":
        """The report of a schema-1 document, its records read into
        columns: each leaf a record holds (not null) fills its entry of
        that leaf's column."""
        if d.get("schema") != 1:
            raise ValueError(f"unsupported report schema: {d.get('schema')}")
        records = d["records"]
        status = [rec["status"] for rec in records]
        unknown = set(status).difference(STATUSES)
        if unknown:
            raise ValueError(f"unknown record status: {sorted(unknown)}")
        found: Dict[tuple, tuple] = {}
        for i, rec in enumerate(records):
            for path, x in _leaves(rec):
                if x is not None and path not in (("status",), ("excluded",)):
                    found.setdefault(path, ([], []))
                    found[path][0].append(i)
                    found[path][1].append(x)
        columns = []
        for rows, values in found.values():
            if isinstance(values[0], bool):
                col = np.zeros(len(records), dtype=bool)
            else:
                col = np.full(len(records), np.nan)
            col[rows] = values
            columns.append(col)
        return cls(surface=d["surface"], params=d["params"],
                   nu=d["nu"], nv=d["nv"], status=status,
                   excluded=[tuple(rec["excluded"] or ()) for rec in records],
                   columns=_nest(found, columns), summary=d["summary"])


def grid_report(prog, nu: int, nv: int,
                tol: ToleranceSet = DEFAULT_TOLERANCES) -> GridReport:
    """The report of the nu x nv grid, classified as one batch: its
    columns and summary come from the columns of `defect_report` over the
    grid's `frames.frame_point`, whose failed points keep their status.
    The frame's jets are released before the classification runs."""
    us, vs = np.reshape(grid_points(prog, nu, nv), (-1, 2)).T
    fp = frame_point(prog, us, vs, tol)
    failed, fp.pd = fp.pd.failed, None
    with np.errstate(all="ignore"):
        rep = defect_report(fp, tol)
        columns = _columns(us, vs, fp, rep)
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
    return GridReport(surface=prog.definition.name,
                      params=dict(prog.params), nu=nu, nv=nv,
                      status=statuses, excluded=rep.excluded.tolist(),
                      columns=columns, summary=summary)


class _Format(NamedTuple):
    """How one emitter writes a record: `render` writes a record whose
    leaves are text, `leaf` matches a rendered `_placeholder` and takes its
    index, `floats` writes an array of floats, and `bools` holds the text
    of False and of True."""
    render: Callable[[dict], str]
    leaf: re.Pattern
    floats: Callable[[np.ndarray], List[str]]
    bools: Tuple[str, str]


def _placeholder(k: int) -> str:
    """The text standing for leaf k in a template: NUL and the index."""
    return "\0%d" % k


def _record_texts(report: GridReport, fmt: _Format) -> List[str]:
    """Each record of `report` written in `fmt`, in record order: the
    template of its shape filled with the text of its leaves."""
    paths, cols = [], []
    for path, col in _leaves(report.columns):
        paths.append(path)
        cols.append(col)
    marks = _nest(paths, map(_placeholder, range(len(paths))))
    shapes: Dict[tuple, List[int]] = {}     # shape -> its records
    for i, (status, excluded) in enumerate(zip(report.status,
                                               report.excluded)):
        shape = (status, excluded if status in USABLE else ())
        shapes.setdefault(shape, []).append(i)
    templates = {}                          # shape -> (template, leaves)
    for status, excluded in shapes:
        text = fmt.render(_records([status], [excluded], marks)[0])
        text = text.replace("%", "%%")
        templates[status, excluded] = (
            fmt.leaf.sub("%s", text),
            [int(k) for k in fmt.leaf.findall(text)])

    # The text of every leaf a template reads, at every record.  The float
    # columns are stacked and ravelled (so that numpy 1.x and 2.x give
    # np.unique one inverse shape), and each distinct bit pattern is
    # written once.
    used = sorted({k for _, leaves in templates.values() for k in leaves})
    n = len(report.status)
    texts = np.empty((len(paths), n), dtype=object)
    bools = np.array(fmt.bools, dtype=object)
    floats = []
    for k in used:
        if cols[k].dtype == bool:
            texts[k] = bools[cols[k].view(np.uint8)]
        else:
            floats.append(k)
    if floats:
        bits, inverse = np.unique(
            np.stack([cols[k] for k in floats]).ravel().view(np.int64),
            return_inverse=True)
        written = np.array(fmt.floats(bits.view(np.float64)), dtype=object)
        texts[floats] = written[inverse].reshape(len(floats), n)

    out = [""] * n
    for shape, rows in shapes.items():
        template, leaves = templates[shape]
        for i, values in zip(rows, texts[np.ix_(leaves, rows)].T.tolist()):
            out[i] = template % tuple(values)
    return out


def _reprs(values: np.ndarray) -> List[str]:
    """``repr`` of each float (``nan``, ``inf`` and ``-inf`` where a value
    is not finite, as csv.writer writes them)."""
    return list(map(float.__repr__, values.tolist()))


def _json_floats(values: np.ndarray) -> List[str]:
    """``json.dumps``' text of each float: its ``repr``, or ``NaN``,
    ``Infinity`` and ``-Infinity`` where it is not finite."""
    texts = _reprs(values)
    for i in np.flatnonzero(~np.isfinite(values)):
        x = values[i]
        texts[i] = "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return texts


def _csv_row(rec: dict) -> str:
    """A record's CSV row from its leaves' text; no cell holds a comma, a
    quote or a line break, so csv.writer would quote none."""
    cells = [rec[k] for k in _CSV_VALUES]
    flags, defects = rec["flags"], rec["defects"]
    if flags is None:
        cells += [None] * (len(_CSV_COLUMNS) - len(cells))
    else:
        cells += [flags[k] for k in _CSV_FLAGS]
        cells.append(defects["w"])
        cells += [defects["class_normalized"][n] for n in CLASS_NAMES]
    return ",".join("" if c is None else c for c in cells)


# json.dumps writes a placeholder's NUL as \u0000, inside quotes.
_JSON = _Format(render=lambda rec: json.dumps(rec, sort_keys=True),
                leaf=re.compile(r'"\\u0000(\d+)"'), floats=_json_floats,
                bools=("false", "true"))
_CSV = _Format(render=_csv_row, leaf=re.compile("\0(\\d+)"), floats=_reprs,
               bools=("0", "1"))


def emit_json(report: GridReport) -> str:
    """The report as one line of JSON with sorted keys, byte for byte
    ``json.dumps(report.to_dict(), sort_keys=True)``: the document around
    the records by ``json.dumps``, each record from its shape's template
    (see the module docstring).  ``python -m json.tool`` indents it for
    reading."""
    mark = _placeholder(0)
    head, _, tail = json.dumps(report._document(mark),
                               sort_keys=True).partition(json.dumps(mark))
    return "".join((head, "[", ", ".join(_record_texts(report, _JSON)), "]",
                    tail, "\n"))


def parse_json(text: str) -> GridReport:
    return GridReport.from_dict(json.loads(text))


def emit_csv(report: GridReport) -> str:
    """One row per record, byte for byte what ``csv.writer`` writes of the
    records: a float as its ``repr``, ``None`` as an empty cell, and a
    flag as 1 or 0; each row from its shape's template."""
    return "\n".join([",".join(_CSV_COLUMNS)]
                     + _record_texts(report, _CSV)) + "\n"
