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
reads records back into columns, for `parse_json`.  `_summary` aggregates
the 28 leaves it names over the usable records, read from the columns for
`grid_report` and from the records for `summarize`, which reads those
leaves alone; it stacks them and takes every maximum and mean in one pass
(the first occurrence of a row's maximum where Python's max takes it, and
`jet.fold_sum` along each row, the left-to-right fold of + that states
how the library sums floats), with the bits of Python's max and of that
fold.  `grid_report` takes its coordinates from
`_grid_coordinates` (np.repeat and np.tile of the two np.linspace sides;
`grid_points` is the same grid as a list of pairs) and its statuses and
usable-record mask from arrays.

The emitters write text straight from the columns, byte for byte what
``json.dumps(report.to_dict(), sort_keys=True)`` (one line) and
``csv.writer`` would write.  A float is written as its ``repr`` (the
shortest round-trip form), and the JSON writes ``NaN``, ``Infinity`` and
``-Infinity`` where a value is not finite, as ``json.dumps`` does; which
values those are is read from their bits.  A report has one formatting
pass, `_format`: one np.unique over the bits of all of its float leaves
gives every leaf int32 codes, and each distinct value is written once, as
its ``repr``.  The texts come from `floattext.reprs`, which decides the
shortest digits of the whole array in double-double arithmetic and hands
to ``repr`` itself each value it cannot decide with a margin of 1e-6 of
the last digit's unit (its error is below 1e-13 of it), each of 13 or
fewer digits, and those that are zero, subnormal, not finite or past
1e+-280 in magnitude: 0.096% of the distinct values of the ten gallery
40x40 reports.  So the texts are ``repr``'s by construction.
`emit_json` runs the pass over every leaf and then leaves on the
report what `emit_csv` writes, the texts that the CSV's 15 float and 6
flag columns use and their codes; `emit_csv` takes those off the report,
so a CSV that follows the JSON formats no float, and after both calls the
report holds nothing more than before.  A CSV without that handoff (first,
alone or twice) runs `_format` over its own columns.  The handoff is the
CSV's texts alone: keeping every distinct text of the report would raise
its memory by the size of the JSON's texts.

In the JSON, a record's shape, its status and, in a full record, its
excluded statements, fixes all of it but its float and bool leaves.  So
each shape is rendered once by ``json.dumps`` (so key order and
separators are its by construction), as the record `_records` builds
from placeholder leaves, and split at those leaves into its literal
pieces.  A shape's records are written in blocks of `_BLOCK`: each
record is one ``"".join`` of its row of an object array, the pieces at
the even slots and the record's leaf texts, gathered for the whole block
at once, at the odd ones.  The join stays per record: one join per block
of records was slower, and one gather over all of a shape's records
would hold every record's texts at once and raise the peak memory of a
call.  The CSV is one table of int32 codes, records by
columns, into the texts it is handed followed by the statuses and an
empty text, which fills the cells past the status where the frame
failed; one gather reads it out and each row is one join.
Identical inputs produce byte-identical files;
``python -m json.tool`` indents the JSON for reading.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import getitem, is_not
from typing import Dict, List, Tuple

import numpy as np

from .classify import CLASS_NAMES, DefectReport, defect_report
from .errors import FRAME_ERRORS
from .floattext import reprs
from .frames import frame_point
from .jet import fold_sum
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


def _grid_coordinates(prog, nu: int,
                      nv: int) -> Tuple[np.ndarray, np.ndarray]:
    """The u and v arrays of the nu x nv grid: the domain box sampled
    inclusively (np.linspace along each side), u-major order."""
    box = prog.definition.domain
    return (np.repeat(np.linspace(box.u_min, box.u_max, nu), nv),
            np.tile(np.linspace(box.v_min, box.v_max, nv), nu))


def grid_points(prog, nu: int, nv: int) -> List[Tuple[float, float]]:
    """The (u, v) grid as a list of float pairs, u-major order."""
    return list(zip(*(x.tolist()
                      for x in _grid_coordinates(prog, nu, nv))))


def summarize(records: List[dict]) -> dict:
    """Aggregate a record list: status counts plus max/mean of each defect
    and identity residual over the non-degenerate (ok/moulding) records.
    Deterministic; recomputable from the records alone.  Only the leaves
    the summary aggregates are read, and only in those records."""
    live = [r for r in records if r["status"] in USABLE]

    def usable(*path: str) -> np.ndarray:
        nodes = live
        for key in path:
            nodes = [node[key] for node in nodes]
        return np.array(nodes, dtype=float)

    keys = set().union(*(r["prop_residuals"] or () for r in live))
    return _summary([r["status"] for r in records], usable, sorted(keys))


def _summary(statuses: List[str], usable, keys: List[str]) -> dict:
    """`summarize` from the statuses of all records, `usable(*path)`, the
    float64 entries of the leaf at `path` (`_columns`' nesting) in the
    usable records, in record order, and the keys of their prop_residuals.
    Each aggregate is Python's max and a left-to-right fold of + over its
    leaf's entries, taken in one pass over the stacked leaves; where no
    record is usable, every aggregate is null and no leaf is read."""
    counts = {s: 0 for s in STATUSES}
    for status, count in Counter(statuses).items():
        counts[status] += count
    n = sum(counts[s] for s in USABLE)
    names = ["w_abs", "moulding"]
    paths = [("defects", "w"), ("defects", "moulding")]
    for c in CLASS_NAMES:
        for key in ("class", "class_normalized"):
            names.append(f"{key}_{c}")
            paths.append(("defects", key, c))
    residuals = keys if n else ()
    paths += [("prop_residuals", k, "identity_residual") for k in residuals]
    if n:
        table = np.stack([usable(*path) for path in paths])
        table[0] = np.abs(table[0])
        aggs = [{"max": top, "mean": mean} for top, mean in zip(
            *(x.tolist() for x in _max_and_mean(table)))]
    else:
        aggs = [{"max": None, "mean": None} for _ in paths]
    return {"status_counts": counts,
            "defects": dict(zip(names, aggs)),
            "identity_residuals": dict(zip(residuals, aggs[len(names):])),
            "n_records": len(statuses), "n_summarized": n}


def _max_and_mean(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row of `table` (n > 0 columns), Python's max and the mean of a
    left-to-right fold of + from the integer 0, with their bits.  max keeps
    an entry only where a later one is greater, so its result is the row's
    first entry if that is NaN (nothing compares greater), else the first
    occurrence of the greatest value that is not NaN (a later NaN, or a
    -0.0 or 0.0 that ties, never replaces it).  The sum is `jet.fold_sum`
    of the row."""
    rows = np.arange(len(table))
    top = np.fmax.reduce(table, axis=1)
    first = table[rows, np.argmax(table == top[:, None], axis=1)]
    return (np.where(np.isnan(table[:, 0]), table[:, 0], first),
            fold_sum(table) / table.shape[1])


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
    us, vs = _grid_coordinates(prog, nu, nv)
    fp = frame_point(prog, us, vs, tol)
    failed, fp.pd = fp.pd.failed, None
    with np.errstate(all="ignore"):
        rep = defect_report(fp, tol)
        columns = _columns(us, vs, fp, rep)
    status = rep.status.astype(object)
    for kind in set(failed[np.not_equal(failed, None)].tolist()):
        status[np.equal(failed, kind)] = kind.status
    live = np.isin(status, USABLE)
    statuses = status.tolist()
    summary = _summary(statuses,
                       lambda *path: reduce(getitem, path, columns)[live],
                       sorted(columns["prop_residuals"]))
    return GridReport(surface=prog.definition.name,
                      params=dict(prog.params), nu=nu, nv=nv,
                      status=statuses, excluded=rep.excluded.tolist(),
                      columns=columns, summary=summary)


def _format(cols: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """The one formatting pass over the columns `cols` (n > 0 entries
    each): int32 codes, (len(cols), n), into texts, and the distinct float
    values.  One np.unique of the float columns' bits gives their distinct
    bit patterns, sorted, and each is written once, as its ``repr``
    (`floattext.reprs`); the flag texts "0" and "1" follow, which a bool
    column's codes index.  The float columns are stacked and ravelled, so
    that numpy 1.x and 2.x give np.unique one inverse shape."""
    floats = [k for k, col in enumerate(cols) if col.dtype != bool]
    bools = [k for k, col in enumerate(cols) if col.dtype == bool]
    bits, inverse = np.unique(
        np.stack([cols[k] for k in floats]).ravel().view(np.int64),
        return_inverse=True)
    values = bits.view(np.float64)
    texts = np.array([*reprs(values), "0", "1"], dtype=object)
    codes = np.empty((len(cols), len(cols[0])), dtype=np.int32)
    codes[floats] = inverse.reshape(len(floats), -1)
    if bools:
        codes[bools] = len(values) + np.stack([cols[k] for k in bools])
    return codes, texts, values


# The CSV's leaves in its column order past the status, as paths into a
# report's columns; a report without frames has the first two alone.
_CSV_LEAVES = ((("u",), ("v",)) + tuple((k,) for k in _CSV_VALUES)
               + tuple(("flags", k) for k in _CSV_FLAGS) + (("defects", "w"),)
               + tuple(("defects", "class_normalized", c)
                       for c in CLASS_NAMES))


def _csv_leaves(cols: dict) -> Tuple[tuple, ...]:
    return _CSV_LEAVES if "flags" in cols else _CSV_LEAVES[:2]


# Records per block of a shape's records: one gather of the block's leaf
# texts, and one object array of its rows, at a time.  emit_json of the
# 40x40 graph_generic report (tracemalloc peak; fastest and median of 21
# alternating calls): 128 records 9.69 MB, 45.7 / 66.1 ms; 256 9.69 MB,
# 45.6 / 67.0 ms; 512 10.33 MB, 47.4 / 69.5 ms; all 1600 13.24 MB,
# 51.5 / 64.5 ms.  The times are alike; past 256 the peak rises.
_BLOCK = 256

# json.dumps writes a placeholder leaf, NUL and the leaf's index, as
# "\u0000" and the index, in quotes.
_LEAF = re.compile(r'"\\u0000(\d+)"')


def _json_records(report: GridReport) -> List[str]:
    """Each record of `report` as JSON, in record order: the pieces of
    its shape, ``json.dumps`` of the record `_records` builds from
    placeholder leaves split at those leaves, joined with the texts of its
    leaves from one `_format` of all of them.  The texts and codes of the
    CSV's leaves are left on the report for `emit_csv`."""
    n = len(report.status)
    if not n:
        return []
    cols: List[np.ndarray] = []
    index: Dict[tuple, int] = {}            # leaf path -> its place in cols

    def mark(x, path=()):
        """`x` with each leaf, depth first, put in `cols` and replaced by
        NUL and its index there."""
        if isinstance(x, dict):
            return {key: mark(y, path + (key,)) for key, y in x.items()}
        index[path] = len(cols)
        cols.append(x)
        return "\0%d" % index[path]

    marks = mark(report.columns)
    shapes: Dict[tuple, List[int]] = {}     # shape -> its records
    for i, (status, excluded) in enumerate(zip(report.status,
                                               report.excluded)):
        shape = (status, excluded if status in USABLE else ())
        shapes.setdefault(shape, []).append(i)
    codes, texts = _json_texts(report, cols, [
        index[path] for path in _csv_leaves(report.columns)])
    out = [""] * n
    for (status, excluded), rows in shapes.items():
        parts = _LEAF.split(json.dumps(
            _records([status], [excluded], marks)[0], sort_keys=True))
        leaves = list(map(int, parts[1::2]))
        row = np.empty((min(_BLOCK, len(rows)), len(parts)), dtype=object)
        row[:, ::2] = parts[::2]
        for start in range(0, len(rows), _BLOCK):
            block = rows[start:start + _BLOCK]
            rec = row[:len(block)]
            rec[:, 1::2] = texts[codes[np.ix_(leaves, block)]].T
            for i, text in zip(block, map("".join, rec.tolist())):
                out[i] = text
    return out


def _json_texts(report: GridReport, cols: List[np.ndarray],
                csv_rows: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The codes and JSON texts of one `_format` of the leaf columns
    `cols`.  First a copy of the texts that the CSV's leaves, rows
    `csv_rows` of `cols`, use is left on the report, with their codes
    renumbered into it, for `emit_csv` to take; then the JSON respells the
    flags and the values that are not finite as json.dumps does.  The
    distinct values are not returned, so they are freed before the records
    are written."""
    codes, texts, values = _format(cols)
    csv_codes = codes[csv_rows]
    used = np.zeros(len(texts), dtype=bool)
    used[csv_codes] = used[-2:] = True
    renumber = np.cumsum(used, dtype=np.int32) - 1
    report._csv_texts = renumber[csv_codes], texts[used]
    texts[-2:] = "false", "true"
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = ("NaN" if np.isnan(values[k])
                    else "Infinity" if values[k] > 0 else "-Infinity")
    return codes, texts


def emit_json(report: GridReport) -> str:
    """The report as one line of JSON with sorted keys, byte for byte
    ``json.dumps(report.to_dict(), sort_keys=True)``: the document around
    the records by ``json.dumps``, each record one join of its shape's
    pieces and its leaf texts (see the module docstring).  ``python -m
    json.tool`` indents it for reading.  The report keeps the texts of its
    CSV's cells until `emit_csv` takes them."""
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
    records: a float as its ``repr``, a flag as 1 or 0, and empty cells
    past the status of a record without a frame (no cell holds a comma, a
    quote or a line break, so csv.writer would quote none).  The cell
    texts are those `emit_json` left on the report, which this takes off
    it (so they are the columns as that call read them), or else one
    `_format` of the CSV's leaves; with the statuses and an empty text
    after them they fill one table of codes, records by columns, read out
    by one gather."""
    cols, n = report.columns, len(report.status)
    handed = vars(report).pop("_csv_texts", None)
    header = ",".join(_CSV_COLUMNS) + "\n"
    if not n:
        return header
    if handed is None:
        handed = _format([reduce(getitem, path, cols)
                          for path in _csv_leaves(cols)])[:2]
    codes, texts = handed
    blank = len(texts) + len(STATUSES)     # the index of the empty text
    status = dict(zip(STATUSES, range(len(texts), blank)))
    table = np.full((n, len(_CSV_COLUMNS)), blank, dtype=np.int32)
    table[:, :2] = codes[:2].T
    table[:, 2] = [status[s] for s in report.status]
    if len(codes) > 2:              # not a parsed report without frames
        table[:, 3:] = codes[2:].T
        table[np.isin(report.status, tuple(_NO_FRAME)), 3:] = blank
    cells = np.concatenate([texts, np.array([*STATUSES, ""], dtype=object)])
    return header + "\n".join(map(",".join, cells[table].tolist())) + "\n"
