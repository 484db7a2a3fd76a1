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

Surface vertices come from `SurfaceProgram.position`.  The frames behind
the focal sheets and net segments come from one `frames.frame_batch` call
over the grid, and each sheet and net is computed once on its arrays:
`central.is_canal` masks the canal points of a sheet, `central_point`
gives all its positions and a net builder all its coefficients, so no
exception is built for a canal point.  Only `nets.net_directions` solves
point by point, on each point's floats.
"""
from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .central import central_point, is_canal
from .errors import DegenerateNetError, ImaginaryNetError, JetDomainError
from .frames import frame_batch
from .nets import NETS, NetForm, net_directions
from .report import grid_points
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = ["export_obj", "NET_LABELS"]

NET_LABELS = tuple(NETS)


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


def _grid_mesh(points: list, nu: int, nv: int):
    """Collect the present vertices (points[iu * nv + iv] is not None) in
    grid order and triangulate the cells whose four corners are all
    present."""
    vid: Dict[int, int] = {}
    verts = []
    for i, p in enumerate(points):
        if p is not None:
            vid[i] = len(verts) + 1
            verts.append(p)
    faces: List[Tuple[int, int, int]] = []
    for iu in range(nu - 1):
        for iv in range(nv - 1):
            i = iu * nv + iv
            corners = (i, i + nv, i + nv + 1, i + 1)
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
    positions: List[Optional[np.ndarray]] = []
    for u, v in pts:
        try:
            positions.append(prog.position(u, v))
        except JetDomainError:
            positions.append(None)
    fp, failed = frame_batch(prog, [u for u, _ in pts], [v for _, v in pts],
                             tol)
    # the points with a position and a frame
    framed = np.array([kind is None and p is not None
                       for kind, p in zip(failed, positions)], dtype=bool)

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
            i = iu * nv + iv
            a, b = positions[i], positions[i + nv + 1]
            if a is not None and b is not None:
                diags.append(float(np.linalg.norm(b - a)))
    seg_len = 0.05 * (sum(diags) / len(diags)) if diags else 0.0

    # Each sheet and net is computed once over the batch and then masked:
    # the points without a frame and the sheet's canal points are dropped.
    with np.errstate(all="ignore"):
        usable = {sheet: (framed & ~is_canal(fp, sheet, tol)).tolist()
                  for sheet in {*central, *(NETS[n][1] for n in nets)}}

        for sheet in central:
            ys = central_point(fp, sheet, tol).y.T.tolist()
            verts, faces = _grid_mesh(
                [y if ok else None for y, ok in zip(ys, usable[sheet])],
                nu, nv)
            text = _obj_text(verts, faces, ()) if verts else None
            _write(f"central{sheet}", text,
                   {"vertices": len(verts), "faces": len(faces)})

        e1s, e2s = np.array(fp.e1).T, np.array(fp.e2).T
        for label in nets:
            builder, sheet = NETS[label]
            net = builder(fp, sheet, tol)
            coeffs = zip(*(np.broadcast_to(x, framed.shape).tolist()
                           for x in net.triple()))
            verts: List[np.ndarray] = []
            segments: List[Tuple[int, int]] = []
            for ok, (a, b, c), p, e1, e2 in zip(usable[sheet], coeffs,
                                                positions, e1s, e2s):
                if not ok:
                    continue
                try:
                    dirs = net_directions(NetForm(a, b, c, net.label))
                except (ImaginaryNetError, DegenerateNetError):
                    continue
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
