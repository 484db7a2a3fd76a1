"""The benchmark workloads.

Each workload is a closed loop of calls into focalnet's public API: one
client, each call issued when the previous one returns.  A workload knows
its timed call, how to check the call's output against the stored
reference, and how to replay the same points through the public layer
functions, in the order the call itself uses them, for the traced run.

Every workload receives the focalnet package as ``fn`` rather than importing
it, because set-up re-imports the package to time it.
"""
from __future__ import annotations

import os
import shutil
from typing import Iterator, List, Tuple

from fingerprint import (check_grid_outputs, mesh_bytes, mesh_matches,
                         point_matches)
from inputs import (GRID_N, GRID_SURFACES, GRID_VARIANTS, MESH_CENTRAL,
                    MESH_NETS, MESH_SURFACES, MESH_VARIANTS, compile_variant,
                    cycle_variants, run_order, shuffled_pool)
from tracing import Tracer

_WARM_N = 3


def _geometry_errors(fn):
    return (fn.UmbilicPoint, fn.ParabolicPoint, fn.DegenerateParametrization,
            fn.JetDomainError)


def _classify(fn, fp, tol) -> str:
    """point_record's classification step, returning the record status."""
    cl = fn.classify
    c1, c2 = cl.is_canal(fp, 1, tol), cl.is_canal(fp, 2, tol)
    if c1 or c2:
        _, normed = cl.class_defects(fp)
        md = cl.moulding_defect(fp, tol)
        cl.w_defect(fp)
        cl.flags_from_defects(cl.w_defect(fp), normed, md, c1, c2, tol)
        return "canal12" if (c1 and c2) else ("canal1" if c1 else "canal2")
    rep = cl.proposition_report(fp, tol=tol)
    return "moulding" if rep.flags["moulding"] else "ok"


def _frame(fn, tr: Tracer, prog, u, v, pid, tol):
    """eval_surface -> principal_data -> frame_point_from_pd in spans.
    Returns (frame point or None, status the failure maps to)."""
    sj, exc = tr.call("sdl", pid, fn.eval_surface, prog, u, v,
                      catch=(fn.JetDomainError,))
    if exc is not None:
        return None, "degenerate"
    pd, exc = tr.call("geometry", pid, fn.principal_data, sj, tol,
                      catch=_geometry_errors(fn))
    if exc is not None:
        return None, {fn.UmbilicPoint: "umbilic",
                      fn.ParabolicPoint: "parabolic"}.get(type(exc),
                                                          "degenerate")
    fp, exc = tr.call("frames", pid, fn.frames.frame_point_from_pd, pd, tol,
                      catch=(fn.JetDomainError,))
    if exc is not None:
        return None, "degenerate"
    return fp, "ok"


def replay_point(fn, tr: Tracer, prog, u, v, pid, tol) -> str:
    """point_record's layer calls for one point; returns the status."""
    fp, status = _frame(fn, tr, prog, u, v, pid, tol)
    if fp is None:
        return status
    status, _ = tr.call("classify", pid, _classify, fn, fp, tol,
                        status=True)
    return status


class Workload:
    name = ""
    trace_calls = 1           # calls in a traced run (fixed, so counts repeat)
    cycle = 1                 # a run measures whole cycles of this many calls
    layers: Tuple[str, ...] = ()   # replayed spans the call's time contains

    def __init__(self, fn, inputs: dict, ref: dict, tmp_root: str):
        self.fn = fn
        self.tol = fn.DEFAULT_TOLERANCES
        self.ref = ref
        self.tmp_root = tmp_root
        self.n = GRID_N       # grid side, for the workloads that take grids

    @property
    def points_per_call(self) -> int:
        return 1

    def units(self, seed: int) -> Iterator:
        raise NotImplementedError

    def call(self, unit):
        raise NotImplementedError

    def check(self, unit, out) -> bool:
        raise NotImplementedError

    def replay(self, unit, out, tr: Tracer) -> int:
        """Replay ``unit`` in spans; return how many points (or, for meshes,
        objects) of the replay disagree with the call's output."""
        raise NotImplementedError

    def out_bytes(self, out) -> int:
        return 0

    def release(self, out) -> None:
        pass

    def warm_up(self) -> None:
        raise NotImplementedError


class GridGeneric(Workload):
    """grid_report + emit_json + emit_csv on 40 x 40 grids of the five
    generic gallery surfaces, each on a seeded sub-box with seeded
    parameters (the ``focalnet grid`` use)."""
    name = "grid_generic"
    trace_calls = 2
    cycle = len(GRID_SURFACES)
    layers = ("sdl", "geometry", "frames", "classify", "report.summarize",
              "report.emit_json", "report.emit_csv")

    def __init__(self, fn, inputs, ref, tmp_root):
        super().__init__(fn, inputs, ref, tmp_root)
        self.progs = {(name, i): compile_variant(fn, var)
                      for name, vs in inputs["grid"].items()
                      for i, var in enumerate(vs)}

    @property
    def points_per_call(self):
        return self.n * self.n

    def units(self, seed):
        return cycle_variants(seed, GRID_SURFACES, GRID_VARIANTS)

    def _run(self, prog, n):
        rep = self.fn.grid_report(prog, n, n, self.tol)
        return rep, self.fn.emit_json(rep), self.fn.emit_csv(rep)

    def call(self, unit):
        return self._run(self.progs[unit], self.n)

    def check(self, unit, out):
        _, js, cs = out
        name, i = unit
        return check_grid_outputs(js, cs, self.n, self.ref["grid"][name][i])

    def replay(self, unit, out, tr):
        rep = out[0]
        fn, prog = self.fn, self.progs[unit]
        bad = 0
        for pid, (u, v) in enumerate(fn.report.grid_points(prog, self.n,
                                                           self.n)):
            tr.begin("point", pid)
            status = replay_point(fn, tr, prog, u, v, pid, self.tol)
            tr.end(status)
            bad += status != rep.records[pid]["status"]
        tr.call("report.summarize", -1, fn.report.summarize, rep.records)
        tr.call("report.emit_json", -1, fn.emit_json, rep)
        tr.call("report.emit_csv", -1, fn.emit_csv, rep)
        return bad

    def out_bytes(self, out):
        return len(out[1].encode()) + len(out[2].encode())

    def warm_up(self):
        for name in GRID_SURFACES:
            self._run(self.progs[(name, 0)], _WARM_N)


class EvalPoints(Workload):
    """Single point_record calls at seeded (surface, u, v) draws over all ten
    gallery surfaces (the ``focalnet eval`` use).  Statuses fall as the
    draws do: about 70% ok and 10% each umbilic, parabolic and canal12."""
    name = "eval_points"
    trace_calls = 3000
    layers = ("sdl", "geometry", "frames", "classify")

    def __init__(self, fn, inputs, ref, tmp_root):
        super().__init__(fn, inputs, ref, tmp_root)
        self.pool = inputs["eval"]
        self.progs = {name: fn.compile_surface(fn.gallery(name))
                      for name in fn.gallery_names()}

    def units(self, seed):
        return iter(run_order(seed, 0xE7A1).shuffled(len(self.pool)))

    def call(self, unit):
        name, u, v = self.pool[unit]
        return self.fn.point_record(self.progs[name], u, v, self.tol)

    def check(self, unit, out):
        ref = self.ref["eval"]
        return point_matches(out, (ref["codes"][unit], ref["sums"][unit]))

    def replay(self, unit, out, tr):
        name, u, v = self.pool[unit]
        tr.begin("point", unit)
        status = replay_point(self.fn, tr, self.progs[name], u, v, unit,
                              self.tol)
        tr.end(status)
        return int(status != out["status"])

    def warm_up(self):
        for unit in range(len(self.progs) * 2):
            self.call(unit)


# Net label -> (builder, sheet), as export_obj pairs them.
def _net_builders(fn):
    return {"13": (fn.net_asymptotic_pullback, 1),
            "14": (fn.net_asymptotic_pullback, 2),
            "17": (fn.net_curvature_pullback, 1),
            "18": (fn.net_curvature_pullback, 2)}


class MeshExport(Workload):
    """export_obj on 40 x 40 grids of graph_generic and dini with both focal
    sheets and all four nets, written to a fresh directory per call.
    frames, central and nets run here; classify never does.  A run makes
    whole passes over all eight variants, in an order the seed draws."""
    name = "mesh_export"
    trace_calls = 4
    cycle = len(MESH_SURFACES) * MESH_VARIANTS
    layers = ("sdl", "geometry", "frames", "central", "nets")

    def __init__(self, fn, inputs, ref, tmp_root):
        super().__init__(fn, inputs, ref, tmp_root)
        self.progs = {(name, i): compile_variant(fn, var)
                      for name, vs in inputs["mesh"].items()
                      for i, var in enumerate(vs)}
        self._serial = 0

    @property
    def points_per_call(self):
        return self.n * self.n

    def units(self, seed):
        return shuffled_pool(seed, MESH_SURFACES, MESH_VARIANTS)

    def _out_dir(self) -> str:
        self._serial += 1
        return os.path.join(self.tmp_root, f"mesh-{self._serial}")

    def _run(self, prog, n):
        out_dir = self._out_dir()
        manifest = self.fn.export_obj(prog, n, n, out_dir,
                                      central=MESH_CENTRAL, nets=MESH_NETS,
                                      tol=self.tol)
        return out_dir, manifest

    def call(self, unit):
        return self._run(self.progs[unit], self.n)

    def check(self, unit, out):
        name, i = unit
        return mesh_matches(out[0], out[1], self.ref["mesh"][name][i])

    def replay(self, unit, out, tr):
        fn, prog, tol = self.fn, self.progs[unit], self.tol
        pts = fn.report.grid_points(prog, self.n, self.n)
        frames: List[Tuple[int, object]] = []
        for pid, (u, v) in enumerate(pts):
            tr.begin("point", pid)
            _, exc = tr.call("sdl", pid, prog.position, u, v,
                             catch=(fn.JetDomainError,))
            if exc is None:
                fp, _ = _frame(fn, tr, prog, u, v, pid, tol)
                if fp is not None:
                    frames.append((pid, fp))
            tr.end()
        # Vertices (central) and segments (nets) the replay would write.
        written = {}
        for sheet in MESH_CENTRAL:
            written[f"central{sheet}"] = sum(
                tr.call("central", pid, fn.central_point, fp, sheet=sheet,
                        tol=tol, catch=(fn.CanalDegenerate,))[1] is None
                for pid, fp in frames)
        builders = _net_builders(fn)
        errors = (fn.CanalDegenerate, fn.ImaginaryNetError,
                  fn.DegenerateNetError)
        for label in MESH_NETS:
            builder, sheet = builders[label]
            written[f"net{label}"] = 2 * sum(
                tr.call("nets", pid, _net, fn, builder, fp, sheet, tol,
                        catch=errors)[1] is None
                for pid, fp in frames)
        objects = out[1]["objects"]
        return sum(n != objects[name].get("vertices",
                                          objects[name].get("segments"))
                   for name, n in written.items())

    def out_bytes(self, out):
        return mesh_bytes(out[0])

    def release(self, out):
        shutil.rmtree(out[0], ignore_errors=True)

    def warm_up(self):
        for name in MESH_SURFACES:
            self.release(self._run(self.progs[(name, 0)], _WARM_N))


def _net(fn, builder, fp, sheet, tol):
    return fn.net_directions(builder(fp, sheet, tol))


WORKLOADS = {w.name: w for w in (GridGeneric, EvalPoints, MeshExport)}
