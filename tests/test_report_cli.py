"""Grid reports, serialization, OBJ export, and the command line."""
import csv
import dataclasses
import functools
import gc
import io
import json
import math
import operator
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import focalnet.jet as jt
from focalnet import cli, gallery_names
from focalnet import report as report_module
from focalnet.central import central_point
from focalnet.checks import SWEPT_SRC
from focalnet.classify import CLASS_NAMES
from focalnet.errors import (FRAME_ERRORS, CanalDegenerate,
                             DegenerateNetError, DegenerateParametrization,
                             FocalnetError, ImaginaryNetError,
                             JetDomainError)
from focalnet.frames import frame_point
from focalnet.nets import NETS, net_directions
from focalnet.report import (GridReport, emit_csv, emit_json, grid_points,
                             grid_report, parse_json, point_record, summarize,
                             write_csv, write_json)
from focalnet import mesh as mesh_module
from focalnet.mesh import export_obj
from focalnet.sdl import compile_surface, gallery_source, parse_surface

# z undefined on the u = 0 column of a 3x3 grid (ln also on u < 0), with
# the number of grid points where it is defined
UNDEFINED = pytest.mark.parametrize(
    "z, defined", [("ln(u) + v^2", 3), ("1 / u + v^2", 6)],
    ids=["log", "reciprocal"])

CSV_HEADER = ("u,v,status,k1,k2,h,k,q1,q2,weingarten,cmc,const_gauss,"
              "moulding,canal1,canal2,w_defect,d_diff,d_ratio,d_radii_diff,"
              "d_radii_sum,d_mean,d_gauss")


def _csv_by_writer(rep) -> str:
    """The CSV that `csv.writer` writes of a report's records: a float as
    its repr, None as an empty cell, a flag as 1 or 0.  `emit_csv` must
    give these bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for rec in rep.records:
        row = [rec[k] for k in ("u", "v", "status", "k1", "k2", "h", "k",
                                "q1", "q2")]
        flags, defects = rec["flags"], rec["defects"]
        if flags is None:
            row += [None] * 13
        else:
            row += [int(flags[k]) for k in ("weingarten", "cmc", "const_gauss",
                                            "moulding", "canal1", "canal2")]
            row.append(defects["w"])
            row += [defects["class_normalized"][n] for n in CLASS_NAMES]
        writer.writerow(row)
    return buf.getvalue()


def _floats(fp) -> list:
    """A FramePoint's floats (arrays in a batch) in field order, with
    gradients and vectors flattened; `pd` left out."""
    out = []
    for f in dataclasses.fields(fp):
        if f.name != "pd":
            value = getattr(fp, f.name)
            out += value if isinstance(value, tuple) else [value]
    return out


def test_grid_points_order_and_bounds(prog):
    program = prog("plane")
    pts = grid_points(program, 3, 2)
    assert pts == [(-1.0, -1.0), (-1.0, 1.0), (0.0, -1.0), (0.0, 1.0),
                   (1.0, -1.0), (1.0, 1.0)]


def test_json_roundtrip_and_determinism(prog, tol):
    rep = grid_report(prog("graph_generic"), 4, 3, tol)
    text = emit_json(rep)
    assert text == json.dumps(rep.to_dict(), sort_keys=True) + "\n"
    assert text == emit_json(rep)
    back = parse_json(text)
    assert back == rep
    assert back.surface == "graph_generic"
    # files written in the earlier indented layout read back alike
    assert parse_json(json.dumps(rep.to_dict(), sort_keys=True,
                                 indent=2)) == rep
    d = rep.to_dict()
    assert d["schema"] == 1 and d["nu"] == 4 and d["nv"] == 3
    with pytest.raises(ValueError):
        GridReport.from_dict({"schema": 2})


def _document(*records) -> str:
    """A schema-1 report of ok records, each with these leaves."""
    keys = ("u", "v", "status", "k1", "k2", "h", "k", "q1", "q2", "flags",
            "defects", "prop_residuals", "excluded")
    return json.dumps({
        "schema": 1, "surface": "s", "params": {}, "nu": 1,
        "nv": len(records), "summary": {},
        "records": [{**dict.fromkeys(keys), "u": 0.0, "v": 0.0,
                     "status": "ok", **rec} for rec in records]})


@pytest.mark.parametrize("text", [
    '{"schema": 1}', '[]', '{"schema": 1, "records": [{"status": "ok"}]}',
    '{"schema": 1, "surface": "s", "params": {}, "nu": 1, "nv": 1, '
    '"summary": {}, "records": [{"status": "ok"}]}',
    _document({"flags": {"cmc": True}}, {"flags": 1.0}),
    _document({"k1": 1.0}, {"k1": {"x": 1.0}})],
    ids=["no_records", "array", "no_surface", "record_without_leaves",
         "object_and_number", "number_and_object"])
def test_parse_json_refuses_what_is_no_report(text):
    """A document that is not a schema-1 report raises ValueError naming
    what is missing or malformed, not KeyError, AttributeError or
    TypeError."""
    with pytest.raises(ValueError, match="JSON object| has no |leaf '"):
        parse_json(text)


@pytest.mark.parametrize("nu, nv", [(0, 5), (5, 0)])
def test_empty_grid(tmp_path, prog, tol, nu, nv):
    """A grid with no points: its report round-trips through JSON and its
    export writes a manifest that marks the surface unwritten."""
    program = prog("graph_generic")
    rep = grid_report(program, nu, nv, tol)
    back = parse_json(emit_json(rep))
    assert back.records == [] and back.to_dict() == rep.to_dict()
    assert back == rep and emit_csv(back) == emit_csv(rep)
    manifest = export_obj(program, nu, nv, str(tmp_path), central=(1, 2),
                          nets=("13",), tol=tol)
    assert manifest["objects"]["surface"]["written"] is False
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest


def test_summary_recomputable(prog, tol):
    rep = grid_report(prog("graph_generic"), 3, 3, tol)
    assert rep.summary == summarize(rep.records)
    counts = rep.summary["status_counts"]
    assert sum(counts.values()) == 9 == rep.summary["n_records"]
    assert rep.summary["n_summarized"] == counts["ok"] + counts["moulding"]


def test_csv_layout(prog, tol):
    rep = grid_report(prog("graph_generic"), 3, 2, tol)
    lines = emit_csv(rep).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6
    row = lines[1].split(",")
    assert len(row) == 22
    assert row[2] == "ok"
    assert float(row[0]) == rep.records[0]["u"]
    assert float(row[3]) == rep.records[0]["k1"]
    assert set(row[9:15]) <= {"0", "1"}


def test_csv_blank_cells_for_degenerate(prog, tol):
    rep = grid_report(prog("sphere"), 2, 2, tol)
    lines = emit_csv(rep).splitlines()
    for line in lines[1:]:
        row = line.split(",")
        assert row[2] == "umbilic"
        assert row[3] == "" and row[9] == "" and row[15] == ""


def test_grid_statuses_on_special_surfaces(prog, tol):
    counts = grid_report(prog("sphere"), 3, 3, tol).summary["status_counts"]
    assert counts["umbilic"] == 9
    counts = grid_report(prog("plane"), 3, 3, tol).summary["status_counts"]
    assert counts["parabolic"] == 9
    counts = grid_report(prog("torus"), 3, 3, tol).summary["status_counts"]
    assert counts["canal12"] == 9
    # helicoid: the v = 0 line is doubly critical for the curvatures
    counts = grid_report(prog("helicoid"), 4, 5, tol).summary["status_counts"]
    assert counts["ok"] == 16 and counts["canal12"] == 4


def test_point_record_matches_grid(prog, graph_source, tol):
    """grid_report evaluates and classifies its grid as one batch.  On 8 x 8
    grids of every gallery surface, of two graphs undefined on part of the
    box, of two undefined everywhere (the whole evaluation fails), of one
    that uses the elementary functions the gallery does not, and on grids
    whose batches take every status branch (all canal1, all canal2, all
    moulding, and ok next to canal12), each record serialises byte for
    byte as point_record's at that point, the summary is summarize's of
    the records, and each column entry of frame_point on the grid's arrays
    is frame_point's float at that point, or its pd.failed[i] the class
    of the exception frame_point raises there.  The emitters, which write
    from the report's columns, give byte for byte what the standard
    library's encoders write of the records (json.dumps, csv.writer), and
    a parsed report emits the text it was parsed from."""
    def graph(z):
        return compile_surface(parse_surface(graph_source(z)))

    grids = [(prog(name), 8, 8, None) for name in gallery_names()]
    grids += [(graph(z), 8, 8, None)
              for z in ("ln(u) + v^2", "1 / u + v^2", "ln(0 - 1) + u",
                        "u / 0",
                        "exp(u) * sinh(v) + cosh(u * v) / sqrt(2 + u)"
                        " + (1.5 + v) ^ 1.5 + 2 ^ u")]
    grids += [(graph("u^2 + v^2"), 8, 8, {"canal1": 64}),
              (graph("0 - (u^2 + v^2)"), 8, 8, {"canal2": 64}),
              (compile_surface(parse_surface(SWEPT_SRC)), 8, 8,
               {"moulding": 64}),
              (prog("helicoid"), 4, 5, {"ok": 16, "canal12": 4})]
    for program, nu, nv, counts in grids:
        pts = grid_points(program, nu, nv)
        rep = grid_report(program, nu, nv, tol)
        text, table = emit_json(rep), emit_csv(rep)
        assert text == json.dumps(rep.to_dict(), sort_keys=True) + "\n"
        assert table == _csv_by_writer(rep)
        back = parse_json(text)
        assert emit_json(back) == text and emit_csv(back) == table
        assert rep.summary == summarize(rep.records)
        if counts is not None:
            assert {status: n for status, n
                    in rep.summary["status_counts"].items() if n} == counts
        fp = frame_point(program, *np.array(pts).T, tol)
        failed = fp.pd.failed
        columns = [c.tolist() for c in _floats(fp)]
        assert len(rep.records) == len(failed) == nu * nv
        for i, ((u, v), rec) in enumerate(zip(pts, rep.records)):
            assert (json.dumps(rec, sort_keys=True)
                    == json.dumps(point_record(program, u, v, tol),
                                  sort_keys=True))
            try:
                want = frame_point(program, u, v, tol)
            except FRAME_ERRORS as exc:
                assert failed[i] is type(exc), (program.name, u, v)
                continue
            assert failed[i] is None, (program.name, u, v)
            assert (repr([c[i] for c in columns])
                    == repr([float(x) for x in _floats(want)]))


def _non_finite_text(prog, tol):
    """The JSON text of helicoid 4 x 5 with NaN, +-Infinity and -0.0 put
    into leaves of an ok, a canal12 and an added umbilic record, and the
    index of that ok record."""
    d = json.loads(emit_json(grid_report(prog("helicoid"), 4, 5, tol)))
    records = d["records"]
    i = next(k for k, r in enumerate(records) if r["status"] == "ok")
    ok, canal = records[i], next(r for r in records
                                 if r["status"] == "canal12")
    ok.update(u=-0.0, k1=math.nan, k2=math.inf, q2=-math.inf)
    ok["defects"]["class_normalized"]["mean"] = math.nan
    ok["prop_residuals"]["prop1_s1"]["lhs_defect"] = -math.inf
    ok["prop_residuals"]["prop3a_13"]["rhs_defect"] = -0.0
    canal.update(h=math.inf, v=-0.0)
    canal["defects"]["w"] = -0.0
    records.append({**records[-1], "status": "umbilic", "u": math.nan})
    for key in ("k1", "k2", "h", "k", "q1", "q2", "flags", "defects",
                "prop_residuals", "excluded"):
        records[-1][key] = None
    return json.dumps(d, sort_keys=True) + "\n", i


def test_non_finite_and_signed_zero_leaves_emit_as_the_encoders_do(prog,
                                                                   tol):
    """A parsed report whose leaves hold NaN, +-Infinity and -0.0 (in ok,
    canal12 and umbilic records) emits the JSON text it was parsed from,
    which is json.dumps' of its records, and csv.writer's CSV of them
    (nan, inf, -inf, -0.0).  A NaN with its sign bit set is written alike."""
    text, i = _non_finite_text(prog, tol)
    for sign in (1.0, -1.0):
        rep = parse_json(text)
        rep.columns["k1"][i] = math.copysign(math.nan, sign)
        assert emit_json(rep) == text
        assert json.dumps(rep.to_dict(), sort_keys=True) + "\n" == text
        table = emit_csv(rep)
        assert table == _csv_by_writer(rep)
        row = table.splitlines()[1 + i].split(",")
        assert ([row[k] for k in (0, 2, 3, 4, 8, 20)]
                == ["-0.0", "ok", "nan", "inf", "-inf", "nan"])
        assert table.splitlines()[-1].startswith("nan,")


def _emission_report(name, prog, graph_source, tol) -> GridReport:
    """A report that takes one way through the emitters: every leaf of a
    grid, leaves that are not finite or are -0.0, no records, or parsed
    records without frames (only u and v have columns)."""
    if name == "helicoid":
        return grid_report(prog("helicoid"), 4, 5, tol)
    if name == "non_finite":
        return parse_json(_non_finite_text(prog, tol)[0])
    if name == "empty":
        return grid_report(prog("graph_generic"), 0, 5, tol)
    undefined = compile_surface(parse_surface(graph_source("u / 0")))
    rep = parse_json(emit_json(grid_report(undefined, 3, 3, tol)))
    assert set(rep.columns) == {"u", "v"}
    return rep


@pytest.mark.parametrize("name", ["helicoid", "non_finite", "empty",
                                  "frameless"])
@pytest.mark.parametrize("order", [("json", "csv"), ("csv", "json"),
                                   ("csv", "csv"), ("csv",)],
                         ids="-".join)
def test_emission_order_does_not_matter(prog, graph_source, tol, name,
                                        order):
    """Whichever emitter runs first, and whether the CSV follows a JSON or
    not, the JSON is json.dumps' of the report's dict and the CSV is
    csv.writer's of its records.  Afterwards the report holds no more than
    it did before, but for the CSV's texts where a JSON came last (an
    empty report has none to hand on)."""
    rep = _emission_report(name, prog, graph_source, tol)
    before = set(vars(rep))
    want = {"json": json.dumps(rep.to_dict(), sort_keys=True) + "\n",
            "csv": _csv_by_writer(rep)}
    vars(rep).pop("records")     # the view to_dict built
    for kind in order:
        assert (emit_json if kind == "json" else emit_csv)(rep) == want[kind]
    handed = {"_csv_texts"} if order[-1] == "json" and name != "empty" \
        else set()
    assert set(vars(rep)) - before == handed and before <= set(vars(rep))


def _vary(x, i: int):
    """`x` with each float in it scaled by 1 + i / 1024: record i's own."""
    if isinstance(x, dict):
        return {key: _vary(y, i) for key, y in x.items()}
    return x * (1 + i / 1024) if isinstance(x, float) else x


def _interleaved_report(prog, graph_source, tol, n: int) -> GridReport:
    """A report of n records, each with floats of its own, that cycle
    through the shapes ok, moulding (with its excluded statements), canal2
    and umbilic (no frame)."""
    def first(program, status):
        rep = grid_report(program, 2, 2, tol)
        return rep.records[rep.status.index(status)]

    shapes = [first(prog("helicoid"), "ok"),
              first(compile_surface(parse_surface(SWEPT_SRC)), "moulding"),
              first(compile_surface(parse_surface(
                  graph_source("0 - (u^2 + v^2)"))), "canal2"),
              first(prog("sphere"), "umbilic")]
    assert shapes[1]["excluded"]
    records = [_vary(shapes[i % 4], i) for i in range(n)]
    rep = parse_json(json.dumps({
        "schema": 1, "surface": "interleaved", "params": {}, "nu": 1,
        "nv": len(records), "records": records,
        "summary": summarize(records)}))
    assert rep.status[:4] == ["ok", "moulding", "canal2", "umbilic"]
    return rep


def test_interleaved_shapes_across_blocks(prog, graph_source, tol):
    """A report whose records cycle through four shapes (see
    `_interleaved_report`), 2 * _ROWS + 3 records of each, so that each
    shape's records fill two object arrays of rows and part of a third,
    every one running across the other shapes' records: its JSON is
    json.dumps' of its dict and its CSV csv.writer's of its records."""
    rep = _interleaved_report(prog, graph_source, tol,
                              4 * (2 * report_module._ROWS + 3))
    want = json.dumps(rep.to_dict(), sort_keys=True) + "\n"
    # compared record by record and line by line, where a difference is
    # quickly shown; both splits join back into their texts
    assert emit_json(rep).split("}, {") == want.split("}, {")
    assert (emit_csv(rep).splitlines(keepends=True)
            == _csv_by_writer(rep).splitlines(keepends=True))


@pytest.mark.parametrize("order", [("json", "csv"), ("csv", "json")],
                         ids="-".join)
def test_emitters_and_writers_across_blocks(prog, graph_source, tol,
                                            tmp_path, order):
    """A report of 2 * _BLOCK + 5 records in the four interleaved shapes
    (three blocks, the last of 5 records): emit_json, and write_json to a
    StringIO and to a file, give json.dumps' of its dict, and emit_csv and
    write_csv csv.writer's of its records, with the CSV after the JSON
    (handed its texts) and before it (formatting its own)."""
    n = 2 * report_module._BLOCK + 5
    rep = _interleaved_report(prog, graph_source, tol, n)
    want = {"json": json.dumps(rep.to_dict(), sort_keys=True) + "\n",
            "csv": _csv_by_writer(rep)}
    vars(rep).pop("records")     # the view to_dict built
    emit = {"json": emit_json, "csv": emit_csv}
    write = {"json": write_json, "csv": write_csv}
    for kind in order:
        assert emit[kind](rep) == want[kind], kind
    for kind in order:
        buf = io.StringIO()
        write[kind](rep, buf)
        assert buf.getvalue() == want[kind], kind
    for kind in order:
        with open(tmp_path / kind, "w", newline="") as fh:
            write[kind](rep, fh)
        assert (tmp_path / kind).read_bytes() == want[kind].encode(), kind


def test_json_hands_the_csv_its_texts_alone(prog, tol, monkeypatch):
    """After emit_json the report holds, per block of records, the texts
    of that block's cells in the CSV's 15 float and 6 flag columns, each
    once, with int32 codes that give every cell the CSV writes of the
    block; emit_csv takes them off the report again.  The 20 records are
    one block, and three (7, 7 and 6 records) at a block of 7."""
    rep = grid_report(prog("helicoid"), 4, 5, tol)
    rows = [line.split(",") for line in _csv_by_writer(rep).splitlines()[1:]]
    floats = [k for k in range(22) if k != 2 and not 9 <= k <= 14]
    before = set(vars(rep))
    for size, blocks in ((report_module._BLOCK, 1), (7, 3)):
        monkeypatch.setattr(report_module, "_BLOCK", size)
        emit_json(rep)
        assert set(vars(rep)) - before == {"_csv_texts"}
        assert len(rep._csv_texts) == blocks
        for b, (codes, texts) in enumerate(rep._csv_texts):
            cells = [row[:2] + row[3:]
                     for row in rows[b * size:(b + 1) * size]]
            assert codes.dtype == np.int32
            assert codes.shape == (21, len(cells))
            assert sorted(texts) == sorted(
                {row[k - (k > 2)] for row in cells for k in floats}
                | {"0", "1"})
            assert texts[codes].T.tolist() == cells
        emit_csv(rep)
        assert set(vars(rep)) == before


def test_a_csv_after_the_json_formats_no_float(prog, tol, monkeypatch):
    """emit_json formats each block of records in one `_format` pass with
    one np.unique; emit_csv after it makes neither call, and alone it
    makes one of each per block: the 20 records are one block, and three
    at a block of 7."""
    calls = []

    def counted(name, func):
        return lambda *args, **kwargs: calls.append(name) or func(*args,
                                                                  **kwargs)

    monkeypatch.setattr(report_module, "_format",
                        counted("format", report_module._format))
    monkeypatch.setattr(np, "unique", counted("unique", np.unique))
    rep = grid_report(prog("helicoid"), 4, 5, tol)
    for size, blocks in ((report_module._BLOCK, 1), (7, 3)):
        monkeypatch.setattr(report_module, "_BLOCK", size)
        calls.clear()
        emit_json(rep)
        assert calls == ["format", "unique"] * blocks
        emit_csv(rep)
        assert calls == ["format", "unique"] * blocks
        emit_csv(rep)
        assert calls == ["format", "unique"] * 2 * blocks


def test_records_are_built_once(prog, tol, monkeypatch):
    """A report's records are a view of its columns: emitting builds none,
    and the first reading builds all of them in one `_records` call, which
    a second reading and per-point indexing (as perfbench's replay does)
    do not repeat."""
    rep = grid_report(prog("helicoid"), 4, 5, tol)
    emit_json(rep), emit_csv(rep)
    assert "records" not in vars(rep)
    calls = []
    build = report_module._records
    monkeypatch.setattr(report_module, "_records",
                        lambda *args: calls.append(args) or build(*args))
    first = rep.records
    assert [rep.records[k]["status"] for k in range(20)] == rep.status
    assert rep.records is first and rep.to_dict()["records"] is first
    assert len(calls) == 1 and len(first) == 20
    assert first == build(rep.status, rep.excluded, rep.columns)


def test_frames_have_the_same_bits_at_the_outputs_order(prog, tol):
    """No FramePoint field reads a fourth derivative of the position, so
    `jt.OUTPUT_ORDER` jets give every field bit for bit as `jt.MAX_ORDER`
    jets do: at each point of a 12 x 12 interior grid of every gallery
    surface, frame_point gives the same bits or raises the same class, and
    one frame_point on the grid's arrays fails at the same points with the
    same classes and gives the same bits in every other column as
    frame_point at `jt.MAX_ORDER`."""
    orders = (jt.OUTPUT_ORDER, jt.MAX_ORDER)
    for name in gallery_names():
        program = prog(name)
        pts = [p for k, p in enumerate(grid_points(program, 14, 14))
               if 0 < k // 14 < 13 and 0 < k % 14 < 13]
        full = []
        for u, v in pts:
            got = []
            for order in orders:
                try:
                    fp = frame_point(program, u, v, tol, order)
                except FRAME_ERRORS as exc:
                    got.append(type(exc))
                    continue
                got.append([np.float64(x).tobytes() for x in _floats(fp)])
            assert got[0] == got[1], (name, u, v)
            full.append(got[1])
        fp = frame_point(program, *np.array(pts).T, tol)
        failed = fp.pd.failed
        for i, want in enumerate(full):
            if isinstance(want, type):
                assert failed[i] is want, (name, pts[i])
            else:
                assert failed[i] is None, (name, pts[i])
                assert [x[i].tobytes() for x in _floats(fp)] == want, name


def test_batch_builds_no_exception_per_point(tmp_path, prog, graph_source,
                                             tol, monkeypatch):
    """A degenerate point of a batch is its exception's class and a canal
    point its status or a masked vertex: on umbilic, parabolic and partly
    undefined grids `frame_point`, on canal12, canal1 and umbilic grids
    `grid_report`, and on the canal12 and canal1 grids and on grids with
    imaginary net directions (helicoid everywhere for nets 13/14,
    graph_generic in part) `export_obj` with both sheets and all four nets,
    build no library exception (no CanalDegenerate or ImaginaryNetError
    either)."""
    built = []
    init = FocalnetError.__init__
    monkeypatch.setattr(FocalnetError, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    programs = [prog("sphere"), prog("plane"),
                compile_surface(parse_surface(graph_source("ln(u) + v^2")))]
    for program in programs:
        pts = grid_points(program, 8, 8)
        failed = frame_point(program, *np.array(pts).T, tol).pd.failed
        assert all(isinstance(kind, type) for kind in failed[:8]), \
            program.name
    canal = [(prog("torus"), "canal12"),
             (compile_surface(parse_surface(graph_source("u^2 + v^2"))),
              "canal1")]
    for program, status in canal + [(prog("sphere"), "umbilic")]:
        counts = grid_report(program, 8, 8, tol).summary["status_counts"]
        assert counts[status] == 64, program.name
    imaginary = [prog("helicoid"), prog("graph_generic")]
    for i, program in enumerate([p for p, _ in canal] + imaginary):
        export_obj(program, 8, 8, str(tmp_path / str(i)), central=(1, 2),
                   nets=NETS, tol=tol)
    assert built == []


def test_overflow_past_the_outputs_order_is_not_read(graph_source, tol):
    """z = exp(1e80 u) / 1e10 overflows at u = 0 only in its degree-4
    slots (1e320 / 24 / 1e10), which no output reads.  At the outputs'
    order frame_point at the point and at arrays both fail there with
    DegenerateParametrization (xu = (1, 0, 1e70)), and point_record gives
    the status `degenerate`; frame_point at `jt.MAX_ORDER`, which forms
    those slots, fails with JetDomainError."""
    program = compile_surface(parse_surface(
        graph_source("exp(1e80 * u) / 1e10")))
    for order, kind in ((jt.OUTPUT_ORDER, DegenerateParametrization),
                        (jt.MAX_ORDER, JetDomainError)):
        with pytest.raises(kind):
            frame_point(program, 0.0, 0.3, tol, order)
    assert (frame_point(program, [0.0], [0.3], tol).pd.failed.tolist()
            == [DegenerateParametrization])
    assert point_record(program, 0.0, 0.3, tol)["status"] == "degenerate"


def _numbers(tree):
    """The numbers among the leaves of a record."""
    if isinstance(tree, dict):
        return [x for value in tree.values() for x in _numbers(value)]
    return [tree] if isinstance(tree, float) else []


def test_overflowing_frames_fail_at_both_shapes(tmp_path, graph_source, tol):
    """graph_generic's z scaled by 1e80 to 1e308: a frame that overflows
    fails as `degenerate` at a point and in a batch.  Each grid record is
    point_record's byte for byte, no record with a frame (ok, moulding,
    canal*) holds a non-finite number, and no OBJ vertex is nan or inf."""
    for exponent in (80, 100, 120, 150, 154, 160, 200, 250, 300, 308):
        program = compile_surface(parse_surface(graph_source(
            f"1e{exponent} * (sin(u) * cos(v) + u * v^2 / 5)")))
        rep = grid_report(program, 5, 5, tol)
        for rec in rep.records:
            assert (json.dumps(rec, sort_keys=True)
                    == json.dumps(point_record(program, rec["u"], rec["v"],
                                               tol), sort_keys=True))
            assert all(map(math.isfinite, _numbers(rec))), (exponent, rec)
        out = tmp_path / str(exponent)
        export_obj(program, 5, 5, str(out), central=(1, 2),
                   nets=tuple(NETS), tol=tol)
        for obj in out.glob("*.obj"):
            vertices = [line for line in obj.read_text().splitlines()
                        if line.startswith("v ")]
            assert not any("nan" in line or "inf" in line
                           for line in vertices), (exponent, obj.name)


def test_frame_point_of_no_points(prog, tol):
    fp = frame_point(prog("graph_generic"), [], [], tol)
    assert fp.pd.failed.tolist() == []
    assert all(np.shape(c) == (0,) for c in _floats(fp))


def test_point_record_leaves_no_reference_cycles(prog, tol):
    """point_record keeps no frame error past its except clause: a kept
    exception holds its traceback's frames in a reference cycle, which
    waits for the garbage collector (and showed as a slower tail of
    single-point calls)."""
    programs = [prog(name) for name in ("sphere", "plane", "graph_generic")]
    gc.collect()
    gc.disable()
    try:
        for program in programs:
            point_record(program, 0.3, 0.4, tol)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_export_obj_plane(tmp_path, prog, tol):
    manifest = export_obj(prog("plane"), 2, 2, str(tmp_path),
                          central=(1,), nets=("13",))
    text = (tmp_path / "surface.obj").read_text()
    assert text == ("v -1 -1 0\nv -1 1 0\nv 1 -1 0\nv 1 1 0\n"
                    "f 1 3 4\nf 1 4 2\n")
    surf = manifest["objects"]["surface"]
    assert surf["written"] and surf["vertices"] == 4 and surf["faces"] == 2
    # no usable frame exists on a plane: focal sheet and net are absent
    assert manifest["objects"]["central1"]["written"] is False
    assert "reason" in manifest["objects"]["central1"]
    assert manifest["objects"]["net13"]["written"] is False
    assert not (tmp_path / "central1.obj").exists()
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data == manifest


def test_export_obj_torus_sheets_absent(tmp_path, prog, tol):
    manifest = export_obj(prog("torus"), 4, 4, str(tmp_path),
                          central=(1, 2), nets=())
    assert manifest["objects"]["surface"]["written"]
    assert manifest["objects"]["central1"]["written"] is False
    assert manifest["objects"]["central2"]["written"] is False


_OBJ_FORMATS = {"v": "v %.9g %.9g %.9g\n", "f": "f %d %d %d\n",
                "l": "l %d %d\n"}


@pytest.mark.parametrize("name, n", [("graph_generic", 8), ("dini", 8),
                                     ("graph_generic", 60), ("steep", 40)],
                         ids=["graph_generic", "dini", "graph_generic-60",
                              "steep-40"])
def test_export_obj_files_equal_percent_format(tmp_path, prog, graph_source,
                                               tol, name, n, monkeypatch,
                                               chunk_widths):
    """Each OBJ file of an n x n export with both sheets and all four nets
    is, byte for byte, its rows as one ``%`` format per kind of line
    writes them, with ``\\n`` line ends.  The rows are as wide as their
    values: at 60 x 60 a net's segment indices pass 10^4 within its ``l``
    block, and the steep graph's surface block holds coordinates of 10^4
    and more in one chunk next to a chunk of small ones."""
    blocks = []
    real = mesh_module.write_lines

    def recorded(fh, key, rows):
        start = len(chunk_widths)
        real(fh, key, rows)
        blocks.append((os.path.basename(fh.name), key, np.array(rows),
                       chunk_widths[start:]))

    monkeypatch.setattr(mesh_module, "write_lines", recorded)
    surface = prog(name) if name != "steep" else compile_surface(
        parse_surface(graph_source("exp(10 * u) + u * v^2")))
    manifest = export_obj(surface, n, n, str(tmp_path), central=(1, 2),
                          nets=NETS, tol=tol)
    want = {}
    for file, key, rows, _ in blocks:
        want[file] = want.get(file, "") + _OBJ_FORMATS[key] * len(rows) % \
            tuple(np.ravel(rows).tolist())
    written = sorted(e["file"] for e in manifest["objects"].values()
                     if e["written"])
    assert sorted(want) == written and len(written) == 7
    for file, text in want.items():
        assert (tmp_path / file).read_bytes() == text.encode(), file
    # 3 words per index below 10^4 and 4 up to 10^8; 7 words per value
    # where each whole part is below 10^4, else 8
    indices = {w for _, key, _, widths in blocks if key != "v"
               for w in widths}
    assert indices == ({3, 4} if n == 60 else {3})
    if name == "steep":
        assert ("surface.obj", "v", [7, 8]) in [
            (file, key, widths) for file, key, _, widths in blocks]


def test_summary_means_fold_left_to_right():
    """The means are a left-to-right fold of +: over [1, 1e100, 1, -1e100]
    it gives 0.0, where a compensated sum (math.fsum, or the builtin sum
    since Python 3.12) gives 2.0 (w_abs's |values| give 5e99 either
    way)."""
    values = np.array([1.0, 1e100, 1.0, -1e100])
    summary = report_module._summary(["ok"] * 4, lambda *path: values,
                                     ["k"])
    defects = dict(summary["defects"])
    assert defects.pop("w_abs") == {"max": 1e100, "mean": 5e99}
    aggregates = [*defects.values(), *summary["identity_residuals"].values()]
    assert aggregates and all(a == {"max": 1e100, "mean": 0.0}
                              for a in aggregates)


def test_summary_equals_max_and_fold_of_each_leaf():
    """Every aggregate of `_summary` has the bits of Python's max and of
    ``functools.reduce(operator.add, ..., 0) / n`` over its leaf's entries
    (|entries| for w_abs), leaf by leaf: a NaN first (max keeps it) and a
    NaN later (max skips it), -0.0 and 0.0 tied in both orders (max keeps
    the first), infinities of both signs, a running sum that overflows,
    and an all -0.0 leaf (whose fold from 0 is 0.0).  Where no record is
    usable every aggregate is null and no leaf is read."""
    nan, inf = math.nan, math.inf
    columns = [[nan, 1.0, 2.0, -3.0], [1.0, nan, 3.0, nan],
               [-0.0, 0.0, -1.0, -0.0], [0.0, -0.0, -1.0, -2.0],
               [-inf, 1.0, inf, 2.0], [inf, -inf, 1.0, 1.0],
               [-inf, -1.0, -2.0, -inf],
               [1e308, 1e308, -1e308, -1e308], [-0.0, -0.0, -0.0, -0.0],
               [3.0, -5.0, 0.5, 2.0]]
    statuses = ["ok", "umbilic", "moulding", "canal1", "ok", "ok"]
    keys = ["prop1_s1", "prop4_16", "prop6_18"]
    leaves = {}                  # path -> its column, in the order read

    def usable(*path):
        leaves[path] = columns[len(leaves) % len(columns)]
        return np.array(leaves[path])

    summary = report_module._summary(statuses, usable, keys)
    assert summary["status_counts"]["ok"] == 3 and summary["n_summarized"] == 4
    assert len(leaves) == 2 + 2 * len(CLASS_NAMES) + len(keys)

    def bits(x):
        return np.float64(x).view(np.int64)

    for path, col in leaves.items():
        if path == ("defects", "w"):
            col, got = [abs(v) for v in col], summary["defects"]["w_abs"]
        elif path[0] == "defects":
            got = summary["defects"]["_".join(path[1:])]
        else:
            assert path[2] == "identity_residual"
            got = summary["identity_residuals"][path[1]]
        want = {"max": max(col),
                "mean": functools.reduce(operator.add, col, 0) / len(col)}
        assert {k: bits(v) for k, v in got.items()} == {
            k: bits(v) for k, v in want.items()}, path
    none = report_module._summary(["umbilic", "canal2"], None, keys)
    assert none["n_summarized"] == 0 and none["identity_residuals"] == {}
    assert all(a == {"max": None, "mean": None}
               for a in none["defects"].values())


def test_flag_rich_report(prog, tol, monkeypatch):
    """A 40 x 40 report whose flag columns hold many patterns (one of them
    at every third record, so that its records fill arrays of `_ROWS`
    across the others), among moulding, canal2 and umbilic (no frame)
    records: its JSON is json.dumps' of its dict, and its CSV, after the
    JSON and alone, csv.writer's of its records.  json.dumps renders each
    (status, excluded) shape once, not each flag pattern."""
    rep = grid_report(prog("helicoid"), 40, 40, tol)
    n = len(rep.status)
    i = np.arange(n)
    flags = rep.columns["flags"]
    for j, key in enumerate(sorted(flags)):
        flags[key] = ((i * 2654435761) >> (j + 3) & 1).astype(bool)
        flags[key][i % 3 == 0] = j % 2 == 0
    status = np.array(rep.status, dtype=object)
    status[i % 7 == 1], status[i % 7 == 2] = "moulding", "canal2"
    status[i % 11 == 3] = "umbilic"
    rep.status = status.tolist()
    rep.excluded = [("prop5a", "prop5b", "prop6") if s == "moulding" else ()
                    for s in rep.status]
    framed = [s != "umbilic" for s in rep.status]
    patterns = {tuple(bool(flags[k][r]) for k in flags)
                for r in range(n) if framed[r]}
    assert len(patterns) > 900 and report_module._ROWS < n // 3
    want = json.dumps(rep.to_dict(), sort_keys=True) + "\n"
    table = _csv_by_writer(rep)
    assert "1" in [row.split(",")[10] for row in table.splitlines()]
    vars(rep).pop("records")
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps",
                        lambda *args, **kw: calls.append(1) or dumps(*args,
                                                                     **kw))
    assert emit_json(rep).split("}, {") == want.split("}, {")
    # the document and its records' placeholder, then one shape per
    # status (ok, moulding with its excluded statements, canal2, umbilic)
    assert len(calls) == 2 + 4
    monkeypatch.undo()
    assert emit_csv(rep).splitlines() == table.splitlines()
    assert emit_csv(rep).splitlines() == table.splitlines()


def test_export_obj_generic_full(tmp_path, prog, tol):
    manifest = export_obj(prog("graph_generic"), 5, 5, str(tmp_path),
                          central=(1, 2), nets=("13", "17"))
    objs = manifest["objects"]
    for name in ("surface", "central1", "central2", "net13", "net17"):
        assert objs[name]["written"], name
        assert (tmp_path / f"{name}.obj").exists()
    assert objs["net13"]["segments"] > 0
    with pytest.raises(ValueError):
        export_obj(prog("graph_generic"), 2, 2, str(tmp_path), nets=("99",))
    with pytest.raises(ValueError):
        export_obj(prog("graph_generic"), 2, 2, str(tmp_path), central=(3,))


def test_export_obj_matches_point_api(tmp_path, prog, graph_source, tol):
    """export_obj computes each sheet and net once over the grid's batch and
    masks the canal points; what it writes is what the point API gives.
    On 5 x 5 grids meeting canal points (torus; helicoid's axis v = 0),
    imaginary nets (helicoid 13/14), undefined points and a whole failed
    evaluation, each manifest count is the number of grid points where
    frame_point and then central_point, or a net builder and
    net_directions, return without raising, and each focal vertex is
    central_point's position there, in grid order."""
    programs = [prog(name) for name in ("graph_generic", "dini", "torus",
                                        "helicoid")]
    programs += [compile_surface(parse_surface(graph_source(z)))
                 for z in ("ln(u) + v^2", "1 / u + v^2", "u / 0")]
    for k, program in enumerate(programs):
        out = tmp_path / str(k)
        objects = export_obj(program, 5, 5, str(out), central=(1, 2),
                             nets=NETS, tol=tol)["objects"]
        frames = []
        for u, v in grid_points(program, 5, 5):
            try:
                frames.append(frame_point(program, u, v, tol))
            except FRAME_ERRORS:
                pass
        for sheet in (1, 2):
            want = []
            for fp in frames:
                try:
                    y = central_point(fp, sheet, tol).y
                except CanalDegenerate:
                    continue
                want.append("v %.9g %.9g %.9g" % tuple(y))
            assert objects[f"central{sheet}"]["vertices"] == len(want), \
                (program.name, sheet)
            if want:
                text = (out / f"central{sheet}.obj").read_text()
                assert [line for line in text.splitlines()
                        if line.startswith("v ")] == want, program.name
        for label in NETS:
            builder, sheet = NETS[label]
            segments = 0
            for fp in frames:
                try:
                    segments += len(net_directions(builder(fp, sheet, tol)))
                except (CanalDegenerate, ImaginaryNetError,
                        DegenerateNetError):
                    pass
            assert objects[f"net{label}"]["segments"] == segments, \
                (program.name, label)


def test_segment_length_is_the_per_row_norm(tmp_path, prog):
    """The manifest's segment_length, written by repr, is 0.05 x the mean
    of the cell diagonals' lengths in Python floats, each
    sqrt((dx*dx + dy*dy) + dz*dz), summed left to right from 0, over the
    positions prog.position gives point by point, on each surface of the
    mesh digest's corpus at 20 x 20 and 40 x 40.  No BLAS kernel enters
    the oracle.  At 40 x 40 monkey_saddle the positions of the jet
    evaluation (the grid frame's x) would move it in the last digit."""
    for name in ("graph_generic", "dini", "graph_quad", "torus", "helicoid",
                 "sphere", "monkey_saddle", "enneper"):
        program = prog(name)
        for n in (20, 40):
            pts = grid_points(program, n, n)
            positions = {}
            for u, v in pts:
                try:
                    positions[(u, v)] = program.position(u, v)
                except JetDomainError:
                    pass
            diags = []
            for iu in range(n - 1):
                for iv in range(n - 1):
                    a, b = pts[iu * n + iv], pts[(iu + 1) * n + iv + 1]
                    if a in positions and b in positions:
                        dx, dy, dz = (positions[b] - positions[a]).tolist()
                        diags.append(math.sqrt((dx * dx + dy * dy)
                                               + dz * dz))
            want = (0.05 * (functools.reduce(operator.add, diags, 0)
                            / len(diags)) if diags else 0.0)
            got = export_obj(program, n, n, str(tmp_path / f"{name}{n}"))
            assert repr(got["segment_length"]) == repr(want), (name, n)


# Writes the mesh digest's enneper and monkey_saddle exports at 20 x 20
# under the directory named by its argument.
_KERNEL_EXPORT = """
import sys
from focalnet import compile_surface, export_obj, gallery
for name in ("enneper", "monkey_saddle"):
    export_obj(compile_surface(gallery(name)), 20, 20,
               f"{sys.argv[1]}/{name}", central=(1, 2),
               nets=("13", "14", "17", "18"))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86_64 kernels")
def test_export_obj_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """Every file export_obj writes for enneper and monkey_saddle at
    20 x 20 (both sheets, nets 13/14/17/18) is byte-equal whether OpenBLAS
    picks its kernel for the CPU or runs the Prescott one.  OpenBLAS reads
    OPENBLAS_CORETYPE when numpy loads, so each export runs in its own
    interpreter.  Cell diagonals summed by a BLAS dot product moved
    enneper's segment length in the last bit between kernels."""
    src = os.path.dirname(os.path.dirname(mesh_module.__file__))
    written = []
    for kernel in ("", "Prescott"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = tmp_path / (kernel or "cpu")
        subprocess.run([sys.executable, "-c", _KERNEL_EXPORT, str(out)],
                       env=env, check=True)
        written.append({str(p.relative_to(out)): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
    # enneper's nets 13/14 are imaginary: 7 + 5 OBJ files, 2 manifests
    assert sorted(written[0]) == sorted(written[1])
    assert len(written[0]) == 14
    for name, data in written[0].items():
        assert written[1][name] == data, name


@pytest.mark.parametrize("scale", ["1e160", "1e300"])
def test_segment_length_stays_finite_when_squares_overflow(tmp_path, scale):
    """graph_generic's z scaled so far that the cell diagonals' sums of
    squares overflow: the manifest is strict JSON, and segment_length is
    0.05 x the mean of math.hypot over the diagonals."""
    source = re.sub(r"z = (.*)\n", rf"z = {scale} * (\1)\n",
                    gallery_source("graph_generic"))
    program = compile_surface(parse_surface(source))
    n = 6
    export_obj(program, n, n, str(tmp_path), central=(1, 2),
               nets=("13", "17"))

    def refuse(name):
        raise ValueError(f"{name} in manifest.json")

    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=refuse)
    pts = grid_points(program, n, n)
    diags = [math.hypot(*(program.position(*pts[(iu + 1) * n + iv + 1])
                          - program.position(*pts[iu * n + iv])))
             for iu in range(n - 1) for iv in range(n - 1)]
    want = 0.05 * (sum(diags) / len(diags))
    assert math.isfinite(want)
    assert manifest["segment_length"] == pytest.approx(want, rel=1e-14)


_STEEP = """surface steep {
  x = u
  y = v
  z = 6.5e307 * u * (1 - v)
  domain u in [-1, 1] v in [-1, 1]
}"""


@pytest.mark.parametrize("source, nu, nv", [
    (re.sub(r"z = (.*)\n", r"z = 1.5e308 * (\1)\n",
            gallery_source("graph_generic")), 6, 6),
    (_STEEP, 2, 3)])
def test_segment_length_stays_finite_past_the_largest_float(tmp_path, source,
                                                            nu, nv):
    """Cell diagonals whose lengths sum past the largest float (graph_generic
    with z scaled by 1.5e308), or whose difference itself passes it (the
    steep graph's first cell, z from -1.3e308 to 6.5e307): the manifest is
    strict JSON, and segment_length is 0.05 x twice the mean of
    math.hypot over the halved differences."""
    program = compile_surface(parse_surface(source))
    export_obj(program, nu, nv, str(tmp_path))

    def refuse(name):
        raise ValueError(f"{name} in manifest.json")

    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=refuse)
    pts = grid_points(program, nu, nv)
    ends = [(program.position(*pts[iu * nv + iv]),
             program.position(*pts[(iu + 1) * nv + iv + 1]))
            for iu in range(nu - 1) for iv in range(nv - 1)]
    with np.errstate(over="ignore"):
        assert math.isinf(sum(math.hypot(*(b - a)) for a, b in ends))
    halves = [math.hypot(*(b / 2 - a / 2)) for a, b in ends]
    want = 0.05 * 2 * sum(x / len(halves) for x in halves)
    assert math.isfinite(want)
    assert manifest["segment_length"] == pytest.approx(want, rel=1e-14)


def test_segment_length_stays_finite_where_the_mean_diagonal_overflows(
        tmp_path, graph_source):
    """A wave of amplitude 1.7e308 whose height alternates sign between
    grid columns: every cell diagonal is about 3.4e308, so even twice the
    mean of the halved ones passes the largest float, but 0.05 x the mean
    does not.  The manifest is strict JSON and no OBJ line holds inf or
    nan."""
    program = compile_surface(parse_surface(
        graph_source("1.7e308 * sin(7.853981633974483 * u)")))
    export_obj(program, 6, 6, str(tmp_path), central=(1, 2),
               nets=("13", "14", "17", "18"))

    def refuse(name):
        raise ValueError(f"{name} in manifest.json")

    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=refuse)
    assert 1e307 < manifest["segment_length"] < 2e307
    for path in tmp_path.glob("*.obj"):
        for line in path.read_text().splitlines():
            assert "inf" not in line and "nan" not in line, (path.name, line)


@UNDEFINED
def test_export_obj_drops_undefined_vertices(tmp_path, graph_source, z,
                                             defined):
    prog = compile_surface(parse_surface(graph_source(z)))
    manifest = export_obj(prog, 3, 3, str(tmp_path), central=(1, 2),
                          nets=("13", "17"))
    surf = manifest["objects"]["surface"]
    assert surf["written"] and surf["vertices"] == defined
    assert surf["faces"] == 0          # every cell touches the u = 0 column
    text = (tmp_path / "surface.obj").read_text()
    assert text.count("v ") == defined and "v 0 " not in text
    assert (tmp_path / "manifest.json").exists()


# -- command line -------------------------------------------------------------

def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("helicoid", "torus", "sphere", "graph_generic"):
        assert name in out


def test_cli_eval_json(capsys):
    assert cli.main(["eval", "--surface", "helicoid",
                     "--at", "0.4,0.8", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "ok"
    assert rec["flags"]["weingarten"] is True
    assert rec["flags"]["cmc"] is True
    assert rec["k1"] == pytest.approx(-rec["k2"])


def test_cli_eval_text(capsys):
    assert cli.main(["eval", "--surface", "graph_generic",
                     "--at", "0.3,0.4"]) == 0
    out = capsys.readouterr().out
    assert "status:  ok\n" in out
    for start in ("flags:   none", "defects: w=", "max identity residual: "):
        assert "\n" + start in out, start


def test_cli_eval_degenerate_exits_nonzero(capsys):
    for surface, at, status in (
            ("sphere", "0.1,0.2", "umbilic (UmbilicPoint)"),
            ("torus", "0.4,0.9", "canal12 (CanalDegenerate(sheets 1,2))")):
        assert cli.main(["eval", "--surface", surface, "--at", at]) == 1
        assert f"status:  {status}" in capsys.readouterr().out


def test_cli_eval_overflowing_point(capsys):
    """A frame that overflows is a status line and exit 1: no traceback,
    and no RuntimeWarning (an error under this test suite)."""
    assert cli.main(["eval", "--surface", "graph_generic",
                     "--at", "1e308,0"]) == 1
    captured = capsys.readouterr()
    assert re.search(r"^status:  [a-z]+ \([A-Za-z]+\)$", captured.out,
                     re.MULTILINE)
    assert captured.err == ""


@pytest.mark.parametrize("x, z, condition", [
    ("u", "ln(u) + v^2", "JetDomainError"),
    ("u^3", "v^2", "DegenerateParametrization"),      # xu = 0 at u = 0
    # d^4 z / du^4 overflows, but the report's order stops below it
    ("u", "exp(1e80 * u) / 1e10", "DegenerateParametrization"),
], ids=["undefined", "not_immersed", "overflow_past_the_outputs_order"])
def test_cli_eval_names_the_raised_condition(tmp_path, capsys, x, z,
                                             condition):
    """The conditions share the status `degenerate`; the display names
    the exception that was raised."""
    src = tmp_path / "s.surf"
    src.write_text(f"surface s {{\n  x = {x}\n  y = v\n  z = {z}\n"
                   "  domain u in [-1, 1] v in [-1, 1]\n}\n")
    assert cli.main(["eval", "--file", str(src), "--at", "0,0.5"]) == 1
    out = capsys.readouterr().out
    assert f"status:  degenerate ({condition})" in out


def test_cli_eval_param_override(capsys):
    assert cli.main(["eval", "--surface", "helicoid", "--param", "c=2.0",
                     "--at", "0.4,0.8", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["k1"] == pytest.approx(2.0 / (4.0 + 0.64))


def test_cli_usage_errors(capsys):
    """Each usage error exits 2 and shows the usage line of the command it
    concerns: the subcommand's, also for errors found while it runs, and
    the top level's for an unknown subcommand."""
    for argv in (["eval", "--surface", "nope", "--at", "0,0"],
                 ["eval", "--surface", "helicoid", "--at", "zero,zero"],
                 ["eval", "--at", "0,0"],
                 ["eval", "--surface", "helicoid", "--param", "a",
                  "--at", "0,0"],
                 ["eval", "--surface", "helicoid", "--param", "a=x",
                  "--at", "0,0"],
                 ["eval", "--surface", "helicoid", "--at", "1"],
                 ["grid", "--surface", "helicoid", "--param", "c=nan",
                  "--nu", "3", "--nv", "3"],
                 ["grid", "--surface", "helicoid", "--param", "c=inf",
                  "--nu", "3", "--nv", "3"],
                 ["eval", "--surface", "helicoid", "--at", "nan,0.5"],
                 ["eval", "--surface", "helicoid", "--at", "0,inf"],
                 ["grid", "--surface", "helicoid", "--nu", "1", "--nv", "3"],
                 ["mesh", "--surface", "helicoid", "--nu", "3", "--nv", "3",
                  "--nets", "99", "--out", "/tmp/x"],
                 ["mesh", "--surface", "helicoid", "--nu", "1", "--nv", "3",
                  "--out", "/tmp/x"],
                 ["check", "--suite", "bogus"],
                 ["frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        usage = ("usage: focalnet [-h] {" if argv[0] == "frobnicate"
                 else f"usage: focalnet {argv[0]} [-h]")
        assert capsys.readouterr().err.startswith(usage), argv


def test_cli_grid_files(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    csv_path = str(tmp_path / "rep.csv")
    code = cli.main(["grid", "--surface", "graph_generic",
                     "--nu", "3", "--nv", "2",
                     "--out", out, "--csv", csv_path])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "3x2" in stdout
    rep = parse_json(open(out).read())
    assert rep.nu == 3 and rep.nv == 2
    assert open(csv_path).readline().strip() == CSV_HEADER


def _windows_open(file, mode="r", *args, newline=None, **kwargs):
    """`open` as on Windows: a text file opened for writing without a
    `newline` argument writes each "\\n" as "\\r\\n"."""
    if "w" in mode and "b" not in mode and newline is None:
        newline = "\r\n"
    return open(file, mode, *args, newline=newline, **kwargs)


def test_cli_files_are_the_emitters_bytes(prog, tol, tmp_path, capsys,
                                          monkeypatch):
    """focalnet grid's --out and --csv files hold emit_json's and
    emit_csv's bytes, and export_obj's manifest.json json.dumps', also
    where text files translate newlines (open as on Windows)."""
    monkeypatch.setattr(cli, "open", _windows_open, raising=False)
    monkeypatch.setattr(mesh_module, "open", _windows_open, raising=False)
    out, table = tmp_path / "rep.json", tmp_path / "rep.csv"
    assert cli.main(["grid", "--surface", "helicoid", "--nu", "4",
                     "--nv", "5", "--out", str(out),
                     "--csv", str(table)]) == 0
    rep = grid_report(prog("helicoid"), 4, 5, tol)
    assert out.read_bytes() == emit_json(rep).encode()
    assert table.read_bytes() == emit_csv(rep).encode()
    manifest = export_obj(prog("helicoid"), 3, 3, str(tmp_path),
                          central=(1,))
    assert (tmp_path / "manifest.json").read_bytes() == (json.dumps(
        manifest, sort_keys=True, indent=2) + "\n").encode()


def test_cli_write_failures_are_error_lines(tmp_path, capsys):
    """An output that cannot be written is the CLI's error line with exit
    1, not a traceback: a grid's JSON or CSV in a missing directory, and a
    mesh whose output directory is an existing file."""
    missing = str(tmp_path / "missing")
    taken = tmp_path / "taken"
    taken.write_text("")
    grid = ["grid", "--surface", "graph_generic", "--nu", "2", "--nv", "2"]
    for argv, path in (
            (grid + ["--out", f"{missing}/r.json"], f"{missing}/r.json"),
            (grid + ["--out", str(tmp_path / "r.json"),
                     "--csv", f"{missing}/r.csv"], f"{missing}/r.csv"),
            (["mesh", "--surface", "graph_quad", "--nu", "3", "--nv", "3",
              "--out", str(taken)], str(taken))):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and path in err, argv


def test_cli_check_without_mpmath(capsys, monkeypatch):
    """On an install without mpmath the jets suite still runs: its
    convergence line fails and names the module, the other lines pass, and
    the exit status is 1."""
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert cli.main(["check", "--suite", "jets"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] jets.fd_convergence: needs the "
                               "mpmath module")
    assert [line.split(":")[0] for line in lines[1:]] == [
        "[PASS] jets.dsl_roundtrip", "[PASS] jets.json_roundtrip",
        "[PASS] jets.mesh_determinism", "suite 'jets'"]


def test_cli_grid_stdout_and_degenerate_exit(tmp_path, capsys):
    code = cli.main(["grid", "--surface", "sphere", "--nu", "2", "--nv", "2"])
    captured = capsys.readouterr()
    assert code == 1
    rep = parse_json(captured.out)
    assert rep.summary["status_counts"]["umbilic"] == 4
    assert "no evaluable points" in captured.err


def test_cli_check_structure(capsys):
    assert cli.main(["check", "--suite", "structure"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "suite 'structure'" in out


def test_cli_mesh(tmp_path, capsys):
    out_dir = str(tmp_path / "mesh")
    code = cli.main(["mesh", "--surface", "graph_quad",
                     "--nu", "4", "--nv", "4", "--central", "1,2",
                     "--nets", "13,17", "--out", out_dir])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "surface.obj" in stdout and "manifest.json" in stdout
    assert os.path.exists(os.path.join(out_dir, "manifest.json"))


def test_cli_mesh_skipped_objects(tmp_path, capsys, graph_source):
    """Torus sheets are canal at every vertex, so their files are skipped;
    a surface with no evaluable point exits 1."""
    code = cli.main(["mesh", "--surface", "torus", "--nu", "4", "--nv", "4",
                     "--central", "1,2", "--out", str(tmp_path / "torus")])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipped central1.obj: no non-degenerate vertices" in out
    assert "wrote " + str(tmp_path / "torus" / "surface.obj") in out
    src = tmp_path / "s.surf"
    src.write_text(graph_source("u / 0"))
    code = cli.main(["mesh", "--file", str(src), "--nu", "3", "--nv", "3",
                     "--out", str(tmp_path / "none")])
    captured = capsys.readouterr()
    assert code == 1
    assert "skipped surface.obj" in captured.out
    assert "no evaluable points" in captured.err


@UNDEFINED
def test_cli_mesh_undefined_points(tmp_path, capsys, graph_source, z,
                                   defined):
    src = tmp_path / "s.surf"
    src.write_text(graph_source(z))
    out_dir = tmp_path / "mesh"
    code = cli.main(["mesh", "--file", str(src), "--nu", "3", "--nv", "3",
                     "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.out + captured.err
    assert (out_dir / "surface.obj").exists()
    assert (out_dir / "manifest.json").exists()


def test_cli_file_input(tmp_path, capsys):
    src = tmp_path / "two.surf"
    src.write_text("""
surface flat {
  x = u
  y = v
  z = 0.0
  domain u in [-1.0, 1.0] v in [-1.0, 1.0]
}
surface bowl {
  param a = 0.5
  x = u
  y = v
  z = a * u * u + 0.3 * v * v + 0.1 * u * v
  domain u in [-1.0, 1.0] v in [-1.0, 1.0]
}
""")
    code = cli.main(["eval", "--file", str(src), "--surface", "bowl",
                     "--at", "0.3,0.2", "--json"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "ok"
    # ambiguous without --surface
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--file", str(src), "--at", "0,0"])
    assert exc.value.code == 2
