"""Grid reports, serialization, OBJ export, and the command line."""
import dataclasses
import gc
import json
import os

import pytest

from focalnet import cli, gallery_names
from focalnet.errors import FRAME_ERRORS, FocalnetError
from focalnet.frames import frame_point, frame_points
from focalnet.report import (GridReport, emit_csv, emit_json, grid_points,
                             grid_report, parse_json, point_record, summarize)
from focalnet.mesh import export_obj
from focalnet.sdl import compile_surface, parse_surface

# z undefined on the u = 0 column of a 3x3 grid (ln also on u < 0), with
# the number of grid points where it is defined
UNDEFINED = pytest.mark.parametrize(
    "z, defined", [("ln(u) + v^2", 3), ("1 / u + v^2", 6)],
    ids=["log", "reciprocal"])

CSV_HEADER = ("u,v,status,k1,k2,h,k,q1,q2,weingarten,cmc,const_gauss,"
              "moulding,canal1,canal2,w_defect,d_diff,d_ratio,d_radii_diff,"
              "d_radii_sum,d_mean,d_gauss")


def test_grid_points_order_and_bounds(prog):
    program = prog("plane")
    pts = grid_points(program, 3, 2)
    assert pts == [(-1.0, -1.0), (-1.0, 1.0), (0.0, -1.0), (0.0, 1.0),
                   (1.0, -1.0), (1.0, 1.0)]


def test_json_roundtrip_and_determinism(prog, tol):
    rep = grid_report(prog("graph_generic"), 4, 3, tol)
    text = emit_json(rep)
    assert text == emit_json(rep)
    back = parse_json(text)
    assert back.records == rep.records
    assert back.summary == rep.summary
    assert back.surface == "graph_generic"
    d = rep.to_dict()
    assert d["schema"] == 1 and d["nu"] == 4 and d["nv"] == 3
    with pytest.raises(ValueError):
        GridReport.from_dict({"schema": 2})


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
    """grid_report evaluates its grid in one batched pass.  On 8 x 8 grids
    of every gallery surface, of two graphs undefined on part of the box,
    of two undefined everywhere (the whole evaluation fails) and of one
    that uses the elementary functions the gallery does not, each record
    serialises byte for byte as point_record's at that point, and each
    frame_points entry is frame_point's result with the same floats, or
    the class of the exception frame_point raises there."""
    programs = [prog(name) for name in gallery_names()]
    programs += [compile_surface(parse_surface(graph_source(z)))
                 for z in ("ln(u) + v^2", "1 / u + v^2",
                           "ln(0 - 1) + u", "u / 0",
                           "exp(u) * sinh(v) + cosh(u * v) / sqrt(2 + u)"
                           " + (1.5 + v) ^ 1.5 + 2 ^ u")]
    for program in programs:
        pts = grid_points(program, 8, 8)
        records = grid_report(program, 8, 8, tol).records
        batch = frame_points(program, [u for u, _ in pts],
                             [v for _, v in pts], tol)
        assert len(records) == len(batch) == 64
        for (u, v), rec, got in zip(pts, records, batch):
            assert (json.dumps(rec, sort_keys=True)
                    == json.dumps(point_record(program, u, v, tol),
                                  sort_keys=True))
            try:
                want = frame_point(program, u, v, tol)
            except FRAME_ERRORS as exc:
                assert got is type(exc), (program.name, u, v)
                continue
            assert repr(got) == repr(dataclasses.replace(want, pd=None))


def test_frame_points_builds_no_exception_per_point(prog, graph_source, tol,
                                                   monkeypatch):
    """A degenerate point of a batch is its exception's class: on umbilic,
    parabolic and partly undefined grids no library exception is built."""
    built = []
    init = FocalnetError.__init__
    monkeypatch.setattr(FocalnetError, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    programs = [prog("sphere"), prog("plane"),
                compile_surface(parse_surface(graph_source("ln(u) + v^2")))]
    for program in programs:
        pts = grid_points(program, 8, 8)
        batch = frame_points(program, [u for u, _ in pts],
                             [v for _, v in pts], tol)
        assert all(isinstance(fp, type) for fp in batch[:8]), program.name
    assert built == []


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


def test_emit_json_matches_json_dumps(prog, tol):
    """emit_json writes what json.dumps(..., sort_keys=True, indent=2)
    writes, here on reports with degenerate records (None fields, empty
    ``excluded`` lists, booleans)."""
    for name in ("graph_generic", "helicoid", "torus", "sphere", "dini"):
        rep = grid_report(prog(name), 5, 4, tol)
        want = json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"
        assert emit_json(rep) == want
    odd = GridReport("s", {"a": 1.0}, 1, 1,
                     [{"x": [float("nan"), float("inf"), -float("inf"), -0.0],
                       "t": (), "d": {}, "n": None, "s": "\u00e9\"\n"}])
    assert emit_json(odd) == json.dumps(odd.to_dict(), sort_keys=True,
                                        indent=2) + "\n"


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


def test_cli_eval_degenerate_exits_nonzero(capsys):
    assert cli.main(["eval", "--surface", "sphere", "--at", "0.1,0.2"]) == 1
    out = capsys.readouterr().out
    assert "status:  umbilic (UmbilicPoint)" in out


@pytest.mark.parametrize("x, z, condition", [
    ("u", "ln(u) + v^2", "JetDomainError"),
    ("u^3", "v^2", "DegenerateParametrization"),      # xu = 0 at u = 0
], ids=["undefined", "not_immersed"])
def test_cli_eval_names_the_raised_condition(tmp_path, capsys, x, z,
                                             condition):
    """Both conditions share the status `degenerate`; the display names
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


def test_cli_usage_errors():
    for argv in (["eval", "--surface", "nope", "--at", "0,0"],
                 ["eval", "--surface", "helicoid", "--at", "zero,zero"],
                 ["eval", "--at", "0,0"],
                 ["grid", "--surface", "helicoid", "--nu", "1", "--nv", "3"],
                 ["mesh", "--surface", "helicoid", "--nu", "3", "--nv", "3",
                  "--nets", "99", "--out", "/tmp/x"],
                 ["check", "--suite", "bogus"],
                 ["frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


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
