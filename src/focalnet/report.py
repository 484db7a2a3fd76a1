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

A report is its columns.  `grid_report` evaluates and classifies its
whole grid as one batch (`frames.frame_point` on arrays, then
`classify.defect_report`), and a `GridReport` keeps one float64 or bool
array per leaf of a record (``k1``, ``flags.cmc``, ``defects.class.mean``,
``prop_residuals.prop1_s1.lhs_defect``, ...), nested as in a record, next
to the status and excluded columns.  `_columns` is the one statement of
those leaves; the rest reads them by generic code.  `_records` splits the
nesting into records and applies the shape rule: a report's ``records`` on
first reading, and `point_record` from one point's floats, so a grid record
equals the `point_record` of its point byte for byte.  `_read_columns`
reads records back into columns, for `parse_json` and `summarize`, and
`_summary` aggregates columns, for `grid_report` and `summarize` alike.

The emitters write text straight from the columns, byte for byte what
``json.dumps(report.to_dict(), sort_keys=True)`` (one line) and
``csv.writer`` would write.  A float is written as its ``repr`` (the
shortest round-trip form; JSON writes ``NaN``, ``Infinity`` and
``-Infinity`` where a value is not finite, as ``json.dumps`` does), and
each emitter formats each distinct bit pattern of its floats once.  In the
JSON, a record's shape, its status and, in a full record, its excluded
statements, fixes all of it but its float and bool leaves.  So each shape
has one template, the record `_records` builds from placeholder leaves,
rendered once by ``json.dumps`` (so key order and separators are its by
construction), and each record is one ``%`` of its shape's template.  The
CSV is written column by column, blank past the status where the frame
failed.  Identical inputs produce byte-identical files; ``python -m
json.tool`` indents the JSON for reading.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import is_not
from typing import Dict, List, Tuple

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

_CSV_VALUES = ("k1", "k2", "h", "k", "q1", "q2")
_CSV_FLAGS = ("weingarten", "cmc", "const_gauss", "moulding", "canal1",
              "canal2")
_CSV_COLUMNS = (("u", "v", "status") + _CSV_VALUES + _CSV_FLAGS
                + ("w_defect",) + tuple("d_" + n for n in CLASS_NAMES))


# The keys of a record; a record without a frame holds null past status.
_RECORD_KEYS = ("u", "v", "status", "k1", "k2", "h", "k", "q1", "q2",
                "flags", "defects", "prop_residuals", "excluded")


def _empty_record(u: float, v: float, status: str) -> dict:
    return {**dict.fromkeys(_RECORD_KEYS), "u": u, "v": v, "status": status}


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


def _split(tree: dict, n: int) -> List[dict]:
    """The n per-record dicts of columns over n records nested as in a
    record: an array leaf gives its entries, an empty dict n empty ones."""
    if not tree:
        return [{} for _ in range(n)]
    parts = [_split(x, n) if isinstance(x, dict) else x.tolist()
             for x in tree.values()]
    return [dict(zip(tree, values)) for values in zip(*parts)]


def _records(statuses, excluded, cols: dict) -> List[dict]:
    """The records with these statuses and excluded statements from their
    leaf columns `cols` (`_columns`' nesting; arrays for a batch, one value
    per leaf for one record): a `_NO_FRAME` status keeps the coordinates
    alone, and only a `USABLE` one keeps residuals and excluded."""
    if not statuses:             # an empty grid, whose columns may be none
        return []
    framed = "flags" in cols     # not in a parsed report whose frames failed
    records = []
    for status, exc, rec in zip(
            statuses, excluded,
            _split(cols, len(statuses))
            if isinstance(cols["u"], np.ndarray) else [cols]):
        if status in _NO_FRAME or not framed:
            records.append(_empty_record(rec["u"], rec["v"], status))
        elif status in USABLE:
            records.append({**rec, "status": status, "excluded": list(exc)})
        else:
            records.append({**rec, "status": status, "prop_residuals": None,
                            "excluded": None})
    return records


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
    return _summary([r["status"] for r in records], _read_columns(records))


def _summary(statuses: List[str], columns: dict) -> dict:
    """`summarize` from the statuses of all records and their columns
    (`_columns`' nesting).  Each aggregate is Python's max and
    left-to-right sum over its column's usable entries, in record order
    (np.sum adds pairwise, and would move the bits); where no record is
    usable, every aggregate is null and no column is read."""
    counts = {s: 0 for s in STATUSES}
    for status in statuses:
        counts[status] += 1
    live = np.array([s in USABLE for s in statuses], dtype=bool)
    n = int(live.sum())

    def agg(*path: str, f=None) -> dict:
        if not n:
            return {"max": None, "mean": None}
        col = columns
        for key in path:
            col = col[key]
        values = (f(col[live]) if f else col[live]).tolist()
        return {"max": max(values), "mean": sum(values) / n}

    defects = {"w_abs": agg("defects", "w", f=np.abs),
               "moulding": agg("defects", "moulding")}
    for c in CLASS_NAMES:
        for key in ("class", "class_normalized"):
            defects[f"{key}_{c}"] = agg("defects", key, c)
    keys = sorted(columns["prop_residuals"]) if n else []
    return {"status_counts": counts, "defects": defects,
            "identity_residuals": {
                k: agg("prop_residuals", k, "identity_residual")
                for k in keys},
            "n_records": len(statuses), "n_summarized": n}


def _read_columns(records: List[dict]) -> dict:
    """The columns of a record list, nested as in a record (with sorted
    keys): each leaf a record holds (not null) fills its entry of that
    leaf's column, a float64 or bool array over the records.  The status
    and excluded are left out."""
    n = len(records)

    def read(nodes: list, rows: list, skip=()) -> dict:
        tree = {}
        for key in sorted(set().union(*nodes).difference(skip)):
            values = list(map(dict.get, nodes, repeat(key)))
            held = list(map(is_not, values, repeat(None)))
            at, values = list(compress(rows, held)), list(compress(values,
                                                                   held))
            if not values:
                continue
            if isinstance(values[0], dict):
                if not all(map(isinstance, values, repeat(dict))):
                    raise ValueError(f"leaf {key!r} is an object in some "
                                     f"records only")
                tree[key] = read(values, at)
                continue
            tree[key] = (np.zeros(n, dtype=bool) if isinstance(values[0], bool)
                         else np.full(n, np.nan))
            try:
                tree[key][at] = values
            except TypeError:
                raise ValueError(f"leaf {key!r} holds a value that is not a "
                                 f"number") from None
        return tree
    return read(records, list(range(n)), ("status", "excluded"))


def _require(d, keys, what: str) -> None:
    """ValueError unless `d` is a dict holding `keys`, naming those lacking."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{what} has no {', '.join(missing)}")


@dataclass(eq=False)
class GridReport:
    """A grid's report as columns: per record its status and excluded
    statements (read in full records only), and `columns`, one float64 or
    bool array over the records per leaf, nested as in a record.  A
    column's entries at a record whose shape has no such leaf are
    meaningless.  ``records`` is a view, built once on first reading; two
    reports are equal when their `to_dict` are."""
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
        columns by `_read_columns`.  ValueError names what makes `d` no
        such document: another schema, a missing key or an unknown
        status."""
        _require(d, ("schema",), "the report")
        if d["schema"] != 1:
            raise ValueError(f"unsupported report schema: {d['schema']}")
        _require(d, ("surface", "params", "nu", "nv", "records", "summary"),
                 "the report")
        records = d["records"]
        if not isinstance(records, list):
            raise ValueError("the report's records are not a JSON array")
        for i, rec in enumerate(records):
            _require(rec, _RECORD_KEYS, f"record {i}")
        status = [rec["status"] for rec in records]
        unknown = set(status).difference(STATUSES)
        if unknown:
            raise ValueError(f"unknown record status: {sorted(unknown)}")
        return cls(surface=d["surface"], params=d["params"],
                   nu=d["nu"], nv=d["nv"], status=status,
                   excluded=[tuple(rec["excluded"] or ()) for rec in records],
                   columns=_read_columns(records), summary=d["summary"])


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
    return GridReport(surface=prog.definition.name,
                      params=dict(prog.params), nu=nu, nv=nv,
                      status=statuses, excluded=rep.excluded.tolist(),
                      columns=columns, summary=_summary(statuses, columns))


def _texts(cols: List[np.ndarray], bools: Tuple[str, str],
           dumps) -> np.ndarray:
    """The text of each entry of the columns `cols`, (len(cols), n)
    objects: `bools` holds the text of False and of True, and a float is
    written as `dumps` (``json.dumps`` or ``repr``) writes it in a list,
    once per distinct bit pattern of the float columns.  Those are stacked
    and ravelled, so that numpy 1.x and 2.x give np.unique one inverse
    shape."""
    texts = np.empty((len(cols), len(cols[0])), dtype=object)
    floats = []
    for k, col in enumerate(cols):
        if col.dtype == bool:
            texts[k] = np.array(bools, dtype=object)[col.view(np.uint8)]
        else:
            floats.append(k)
    bits, inverse = np.unique(
        np.stack([cols[k] for k in floats]).ravel().view(np.int64),
        return_inverse=True)
    written = np.array(dumps(bits.view(np.float64).tolist())[1:-1]
                       .split(", "), dtype=object)
    texts[floats] = written[inverse].reshape(len(floats), len(cols[0]))
    return texts


# json.dumps writes a placeholder leaf, NUL and the leaf's index, as
# "\u0000" and the index, in quotes.
_LEAF = re.compile(r'"\\u0000(\d+)"')


def _json_records(report: GridReport) -> List[str]:
    """Each record of `report` as JSON, in record order: the template of
    its shape, ``json.dumps`` of the record `_records` builds from
    placeholder leaves, filled with the text of its leaves."""
    n = len(report.status)
    if not n:
        return []
    cols: List[np.ndarray] = []

    def mark(x):
        """`x` with each leaf, depth first, put in `cols` and replaced by
        NUL and its index there."""
        if isinstance(x, dict):
            return {key: mark(y) for key, y in x.items()}
        cols.append(x)
        return "\0%d" % (len(cols) - 1)

    marks = mark(report.columns)
    shapes: Dict[tuple, List[int]] = {}     # shape -> its records
    for i, (status, excluded) in enumerate(zip(report.status,
                                               report.excluded)):
        shape = (status, excluded if status in USABLE else ())
        shapes.setdefault(shape, []).append(i)
    templates = {}                          # shape -> (template, leaves)
    for status, excluded in shapes:
        text = json.dumps(_records([status], [excluded], marks)[0],
                          sort_keys=True).replace("%", "%%")
        templates[status, excluded] = (
            _LEAF.sub("%s", text), [int(k) for k in _LEAF.findall(text)])

    texts = _texts(cols, ("false", "true"), json.dumps)
    out = [""] * n
    for shape, rows in shapes.items():
        template, leaves = templates[shape]
        for i, values in zip(rows, texts[np.ix_(leaves, rows)].T.tolist()):
            out[i] = template % tuple(values)
    return out


def emit_json(report: GridReport) -> str:
    """The report as one line of JSON with sorted keys, byte for byte
    ``json.dumps(report.to_dict(), sort_keys=True)``: the document around
    the records by ``json.dumps``, each record from its shape's template
    (see the module docstring).  ``python -m json.tool`` indents it for
    reading."""
    mark = "\0"
    head, _, tail = json.dumps(report._document(mark),
                               sort_keys=True).partition(json.dumps(mark))
    return "".join((head, "[", ", ".join(_json_records(report)), "]",
                    tail, "\n"))


def parse_json(text: str) -> GridReport:
    """The report of a JSON document; ValueError if it is not a schema-1
    report."""
    return GridReport.from_dict(json.loads(text))


def emit_csv(report: GridReport) -> str:
    """One row per record, byte for byte what ``csv.writer`` writes of the
    records, written column by column: a float as its ``repr``, a flag as
    1 or 0, and empty cells past the status of a record without a frame
    (no cell holds a comma, a quote or a line break, so csv.writer would
    quote none)."""
    cols, n = report.columns, len(report.status)
    table = np.full((len(_CSV_COLUMNS), n), "", dtype=object)
    table[2] = report.status
    if n:
        leaves = [cols["u"], cols["v"]]
        framed = "flags" in cols    # not in a parsed report without frames
        if framed:
            d = cols["defects"]
            leaves += [cols[k] for k in _CSV_VALUES] + [
                cols["flags"][k] for k in _CSV_FLAGS] + [d["w"]] + [
                d["class_normalized"][c] for c in CLASS_NAMES]
        texts = _texts(leaves, ("0", "1"), repr)
        table[:2] = texts[:2]
        if framed:
            rows = np.array([s not in _NO_FRAME for s in report.status])
            table[3:, rows] = texts[2:, rows]
    return "".join(",".join(row) + "\n"
                   for row in [_CSV_COLUMNS] + table.T.tolist())
