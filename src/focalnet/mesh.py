"""Wavefront OBJ export of the surface, its focal sheets, and net direction
fields over a parameter grid.

Vertices are written with 9 significant digits, faces as two triangles per
grid cell (1-based indices), and net directions as ``l i j`` segments of
length 0.05 x the mean surface cell diagonal, centered at each sample.
Vertices that cannot be computed (undefined position, degenerate frame,
canal sheet, imaginary directions) are dropped and the touching faces
pruned.  A sheet or net with no computable vertices produces no file; the
sidecar ``manifest.json`` records what was written and why anything is
absent.  Output is byte-deterministic for identical inputs.
"""
from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .central import central_point
from .errors import (FRAME_ERRORS, CanalDegenerate, DegenerateNetError,
                     ImaginaryNetError, JetDomainError)
from .frames import frame_point
from .nets import net_asymptotic_pullback, net_curvature_pullback, net_directions
from .report import grid_points
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = ["export_obj", "NET_LABELS"]

NET_LABELS = ("13", "14", "17", "18")

_NET_SHEET = {"13": 1, "14": 2, "17": 1, "18": 2}
_NET_BUILDER = {"13": net_asymptotic_pullback, "14": net_asymptotic_pullback,
                "17": net_curvature_pullback, "18": net_curvature_pullback}


def _fmt(x: float) -> str:
    return "%.9g" % x


def _obj_text(vertices: List[np.ndarray], faces: Iterable[Tuple[int, ...]],
              segments: Iterable[Tuple[int, int]]) -> str:
    parts = []
    for p in vertices:
        parts.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
    for f in faces:
        parts.append("f %d %d %d\n" % f)
    for s in segments:
        parts.append("l %d %d\n" % s)
    return "".join(parts)


def _grid_mesh(points: Dict[Tuple[int, int], np.ndarray], nu: int, nv: int):
    """Collect present vertices in (iu, iv) order and triangulate the cells
    whose four corners are all present."""
    vid: Dict[Tuple[int, int], int] = {}
    verts: List[np.ndarray] = []
    for iu in range(nu):
        for iv in range(nv):
            p = points.get((iu, iv))
            if p is not None:
                vid[(iu, iv)] = len(verts) + 1
                verts.append(p)
    faces: List[Tuple[int, int, int]] = []
    for iu in range(nu - 1):
        for iv in range(nv - 1):
            corners = ((iu, iv), (iu + 1, iv), (iu + 1, iv + 1), (iu, iv + 1))
            if all(c in vid for c in corners):
                a, b, c, d = (vid[c] for c in corners)
                faces.append((a, b, c))
                faces.append((a, c, d))
    return verts, faces


def export_obj(prog, nu: int, nv: int, out_dir: str,
               central: Iterable[int] = (),
               nets: Iterable[str] = (),
               tol: ToleranceSet = DEFAULT_TOLERANCES) -> dict:
    """Write surface.obj (always), central{i}.obj and net{label}.obj as
    requested, plus manifest.json.  Returns the manifest dict."""
    central = tuple(int(s) for s in central)
    nets = tuple(str(n) for n in nets)
    for s in central:
        if s not in (1, 2):
            raise ValueError(f"central sheet must be 1 or 2, got {s}")
    for n in nets:
        if n not in NET_LABELS:
            raise ValueError(f"unknown net label '{n}' "
                             f"(expected one of {', '.join(NET_LABELS)})")

    pts = grid_points(prog, nu, nv)
    index = [(iu, iv) for iu in range(nu) for iv in range(nv)]

    positions: Dict[Tuple[int, int], np.ndarray] = {}
    frames: Dict[Tuple[int, int], object] = {}
    for key, (u, v) in zip(index, pts):
        try:
            positions[key] = prog.position(u, v)
        except JetDomainError:
            continue
        try:
            frames[key] = frame_point(prog, u, v, tol)
        except FRAME_ERRORS:
            pass

    os.makedirs(out_dir, exist_ok=True)
    objects: Dict[str, dict] = {}

    def _write(name: str, text: Optional[str], stats: dict):
        entry = {"file": f"{name}.obj", "written": text is not None}
        entry.update(stats)
        if text is None:
            entry["reason"] = "no non-degenerate vertices"
        else:
            with open(os.path.join(out_dir, f"{name}.obj"), "w") as fh:
                fh.write(text)
        objects[name] = entry

    # Base surface: every point with a computable position.
    verts, faces = _grid_mesh(positions, nu, nv)
    text = _obj_text(verts, faces, ()) if verts else None
    _write("surface", text, {"vertices": len(verts), "faces": len(faces)})

    # Segment length: 0.05 x mean cell diagonal of the surface grid.
    diags = []
    for iu in range(nu - 1):
        for iv in range(nv - 1):
            a, b = positions.get((iu, iv)), positions.get((iu + 1, iv + 1))
            if a is not None and b is not None:
                diags.append(float(np.linalg.norm(b - a)))
    seg_len = 0.05 * (sum(diags) / len(diags)) if diags else 0.0

    for sheet in central:
        cpts: Dict[Tuple[int, int], np.ndarray] = {}
        for key, fp in frames.items():
            try:
                cpts[key] = central_point(fp, sheet=sheet, tol=tol).y
            except CanalDegenerate:
                continue
        verts, faces = _grid_mesh(cpts, nu, nv)
        text = _obj_text(verts, faces, ()) if verts else None
        _write(f"central{sheet}", text,
               {"vertices": len(verts), "faces": len(faces)})

    for label in nets:
        sheet = _NET_SHEET[label]
        builder = _NET_BUILDER[label]
        verts: List[np.ndarray] = []
        segments: List[Tuple[int, int]] = []
        for key in index:
            fp = frames.get(key)
            if fp is None:
                continue
            try:
                net = builder(fp, sheet, tol)
                dirs = net_directions(net)
            except (CanalDegenerate, ImaginaryNetError, DegenerateNetError):
                continue
            p = positions[key]
            e1 = np.array([j.value for j in fp.pd.e1], dtype=float)
            e2 = np.array([j.value for j in fp.pd.e2], dtype=float)
            for c1, c2 in dirs:
                d = c1 * e1 + c2 * e2
                half = 0.5 * seg_len * d
                verts.append(p - half)
                verts.append(p + half)
                segments.append((len(verts) - 1, len(verts)))
        text = _obj_text(verts, (), segments) if verts else None
        _write(f"net{label}", text, {"segments": len(segments)})

    manifest = {
        "schema": 1,
        "surface": prog.definition.name,
        "params": {k: float(v) for k, v in sorted(prog.params.items())},
        "nu": nu, "nv": nv,
        "segment_length": seg_len,
        "objects": objects,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
