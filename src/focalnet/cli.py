"""Command-line interface.

Subcommands: ``list`` (gallery), ``eval`` (single-point report), ``grid``
(JSON/CSV grid report), ``check`` (self-check suites), ``mesh`` (OBJ export
of the surface, focal sheets, and net direction fields).

Exit codes: 0 success; 1 check-suite failure, degenerate evaluation point,
a grid/mesh with no usable points, or an output that cannot be written;
2 usage error (bad flags, unknown surface or parameter, unparsable
``.surf`` input).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, Optional, Tuple

from .checks import SUITE_NAMES, run_suite
from .decisions import DEFAULT_TOLERANCES
from .errors import (FRAME_ERRORS, CanalDegenerate, FocalnetError,
                     ParseError, UnknownParameterError, UnknownSurfaceError)
from .frames import frame_point
from .mesh import NET_LABELS, export_obj
from .report import (USABLE, grid_report, point_record, write_csv,
                     write_json)
from .sdl import compile_surface, gallery, gallery_names, load_surface

__all__ = ["main"]

def _add_surface_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", metavar="NAME",
                   help="gallery surface name (or block name with --file)")
    p.add_argument("--file", metavar="F.surf",
                   help="read surface definition(s) from a .surf file")
    p.add_argument("--param", action="append", default=[], metavar="k=v",
                   help="override a surface parameter (repeatable)")


def _number(text: str, what: str, parser) -> float:
    """`text` as a finite float; anything else is a usage error, since NaN
    and infinities have no place in a report's JSON."""
    try:
        x = float(text)
    except ValueError:
        parser.error(f"{what}: '{text}' is not a number")
    if not math.isfinite(x):
        parser.error(f"{what}: '{text}' is not finite")
    return x


def _parse_params(pairs, parser) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for item in pairs:
        name, eq, value = item.partition("=")
        if not eq or not name:
            parser.error(f"--param expects k=v, got '{item}'")
        out[name.strip()] = _number(value, f"--param {name}", parser)
    return out


def _resolve_program(args, parser):
    overrides = _parse_params(args.param, parser)
    try:
        if args.file:
            with open(args.file) as fh:
                text = fh.read()
            return load_surface(text, args.surface, overrides)
        if args.surface:
            return compile_surface(gallery(args.surface), overrides)
    except (UnknownSurfaceError, UnknownParameterError, ParseError,
            OSError) as e:
        parser.error(str(e))
    parser.error("one of --surface or --file is required")


def _parse_at(text: str, parser) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        parser.error(f"--at expects u,v, got '{text}'")
    return (_number(parts[0], "--at u", parser),
            _number(parts[1], "--at v", parser))


def _fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:.12g}"


def cmd_list(args, parser) -> int:
    for name in gallery_names():
        sd = gallery(name)
        box = sd.domain
        params = ", ".join(f"{k}={v:g}" for k, v in sd.params) or "-"
        print(f"{name:14s} params: {params:24s} "
              f"domain: u in [{box.u_min:g}, {box.u_max:g}], "
              f"v in [{box.v_min:g}, {box.v_max:g}]")
    return 0


def _condition(prog, rec: dict) -> str:
    """Name of the exception behind a record that is neither ok nor
    moulding: the one its frame evaluation raises, else CanalDegenerate
    for the canal sheet(s) its flags name."""
    if rec["flags"] is None:
        try:
            frame_point(prog, rec["u"], rec["v"], DEFAULT_TOLERANCES)
        except FRAME_ERRORS as exc:
            return type(exc).__name__
    sheets = [s for s in ("1", "2") if rec["flags"]["canal" + s]]
    return (f"{CanalDegenerate.__name__}"
            f"(sheet{'s' if len(sheets) > 1 else ''} {','.join(sheets)})")


def cmd_eval(args, parser) -> int:
    prog = _resolve_program(args, parser)
    u, v = _parse_at(args.at, parser)
    rec = point_record(prog, u, v, DEFAULT_TOLERANCES)
    if args.json:
        print(json.dumps(rec, sort_keys=True, indent=2))
    else:
        params = ", ".join(f"{k}={v_:g}"
                           for k, v_ in sorted(prog.params.items()))
        print(f"surface: {prog.definition.name}"
              + (f" ({params})" if params else ""))
        print(f"point:   u={u:g}, v={v:g}")
        status = rec["status"]
        print(f"status:  {status}" + ("" if status in USABLE
                                      else f" ({_condition(prog, rec)})"))
        if rec["k1"] is not None:
            print(f"k1={_fmt(rec['k1'])}  k2={_fmt(rec['k2'])}  "
                  f"H={_fmt(rec['h'])}  K={_fmt(rec['k'])}")
            print(f"q1={_fmt(rec['q1'])}  q2={_fmt(rec['q2'])}")
        if rec["flags"] is not None:
            on = [k for k, v_ in rec["flags"].items() if v_]
            print("flags:   " + (", ".join(sorted(on)) if on else "none"))
            d = rec["defects"]
            print(f"defects: w={d['w']:.3e}  moulding={d['moulding']:.3e}")
            print("         " + "  ".join(
                f"{k}={d['class_normalized'][k]:.3e}"
                for k in sorted(d["class_normalized"])))
        if rec["prop_residuals"] is not None:
            worst = max(r["identity_residual"]
                        for r in rec["prop_residuals"].values())
            print(f"max identity residual: {worst:.3e}"
                  + (f"  (excluded: {', '.join(rec['excluded'])})"
                     if rec["excluded"] else ""))
    return 0 if rec["status"] in USABLE else 1


def cmd_grid(args, parser) -> int:
    if args.nu < 2 or args.nv < 2:
        parser.error("--nu and --nv must be at least 2")
    prog = _resolve_program(args, parser)
    rep = grid_report(prog, args.nu, args.nv, DEFAULT_TOLERANCES)
    # newline="": the files hold the emitters' bytes on every platform
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_json(rep, fh)
    else:
        write_json(rep, sys.stdout)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            write_csv(rep, fh)
    counts = rep.summary["status_counts"]
    usable = sum(counts[s] for s in USABLE)
    note = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v)
    if args.out:
        print(f"wrote {args.out}"
              + (f" and {args.csv}" if args.csv else "")
              + f": {args.nu}x{args.nv} points ({note})")
    if usable == 0:
        print("error: no evaluable points in the grid "
              f"({note})", file=sys.stderr)
        return 1
    return 0


def cmd_check(args, parser) -> int:
    try:
        results = run_suite(args.suite, seed=args.seed)
    except ValueError as e:
        parser.error(str(e))
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"suite '{args.suite}': {len(results) - len(failed)}/{len(results)}"
          " checks passed")
    return 1 if failed else 0


def _parse_csv_list(text: str, kind: str, valid, parser):
    if not text:
        return ()
    items = tuple(s.strip() for s in text.split(","))
    for item in items:
        if item not in valid:
            parser.error(f"unknown {kind} '{item}' "
                         f"(expected one of {', '.join(valid)})")
    return items


def cmd_mesh(args, parser) -> int:
    if args.nu < 2 or args.nv < 2:
        parser.error("--nu and --nv must be at least 2")
    central = tuple(int(s) for s in _parse_csv_list(
        args.central, "central sheet", ("1", "2"), parser))
    nets = _parse_csv_list(args.nets, "net label", NET_LABELS, parser)
    prog = _resolve_program(args, parser)
    manifest = export_obj(prog, args.nu, args.nv, args.out,
                          central=central, nets=nets,
                          tol=DEFAULT_TOLERANCES)
    for name, entry in sorted(manifest["objects"].items()):
        if entry["written"]:
            stats = ", ".join(f"{k}={entry[k]}" for k in ("vertices",
                                                          "faces", "segments")
                              if k in entry)
            print(f"wrote {args.out}/{entry['file']} ({stats})")
        else:
            print(f"skipped {entry['file']}: {entry['reason']}")
    print(f"wrote {args.out}/manifest.json")
    if not manifest["objects"]["surface"]["written"]:
        print("error: surface grid has no evaluable points",
              file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focalnet",
        description="Principal-curvature frames, focal sheets, and "
                    "curvature-net reports for parametric surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print the surface gallery")
    p.set_defaults(func=cmd_list, parser=p)

    p = sub.add_parser("eval", help="evaluate one parameter point")
    _add_surface_args(p)
    p.add_argument("--at", required=True, metavar="u,v",
                   help="parameter point")
    p.add_argument("--json", action="store_true",
                   help="emit the full record as JSON")
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("grid", help="evaluate a grid and write a report")
    _add_surface_args(p)
    p.add_argument("--nu", type=int, required=True, help="grid points in u")
    p.add_argument("--nv", type=int, required=True, help="grid points in v")
    p.add_argument("--out", metavar="report.json",
                   help="JSON output path (default: stdout)")
    p.add_argument("--csv", metavar="report.csv",
                   help="also write a flat CSV")
    p.set_defaults(func=cmd_grid, parser=p)

    p = sub.add_parser("check", help="run self-check suites")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=7, help="sampling seed")
    p.set_defaults(func=cmd_check, parser=p)

    p = sub.add_parser("mesh", help="export OBJ meshes")
    _add_surface_args(p)
    p.add_argument("--nu", type=int, required=True, help="grid points in u")
    p.add_argument("--nv", type=int, required=True, help="grid points in v")
    p.add_argument("--central", default="", metavar="1,2",
                   help="focal sheets to export")
    p.add_argument("--nets", default="", metavar="13,14,17,18",
                   help="net direction fields to export")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output directory")
    p.set_defaults(func=cmd_mesh, parser=p)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a usage error shows the subcommand's usage line
        return args.func(args, args.parser)
    except (FocalnetError, OSError) as e:     # OSError: an output write
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
