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

Surface vertices come from one `SurfaceProgram.position` call on the
grid's arrays, which gives every point the bits of the float evaluator at
that point and NaN where it would raise.  The grid's frame point holds
positions too, in `fp.x`, but the jet evaluator's floats differ from the
float evaluator's in the last bit at some points (195, 204 and 515 of the
1600 points of 40 x 40 monkey_saddle, enneper and dini), and the manifest
writes `segment_length` by `repr` (monkey_saddle's would move).  The
segment length is the mean of the cell diagonals' lengths, each with the
bits of `np.linalg.norm` of its row (a scaled norm where the row's sum of
squares overflows, so the manifest stays finite), summed left to right.
The frames behind the focal sheets and net segments come from one
`frames.frame_point` call on the grid's arrays, and everything after it
runs on whole arrays: `central.is_canal` masks the canal points of a
sheet, `central_point` gives all its positions, a net builder all its
coefficients and `nets.net_directions` all its directions with the class
of each point that has none, so no exception is built for an undefined
position, a canal point or an imaginary net.  Faces come from a mask of
the present vertices, and each file's text from one % format per kind of
line.
"""
from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional

import numpy as np

from .central import central_point, is_canal
from .frames import frame_point
from .nets import NETS, net_directions
from .report import grid_points
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = ["export_obj", "NET_LABELS"]

NET_LABELS = tuple(NETS)


def _obj_text(vertices: np.ndarray, faces: np.ndarray,
              segments: np.ndarray) -> str:
    """Rows of (n, 3) vertices, then of 1-based (m, 3) faces and (k, 2)
    segments (or empty ()), each kind of line by one % format."""
    return "".join(fmt * len(rows) % tuple(np.ravel(rows).tolist())
                   for fmt, rows in (("v %.9g %.9g %.9g\n", vertices),
                                     ("f %d %d %d\n", faces),
                                     ("l %d %d\n", segments)))


def _cells(nu: int, nv: int) -> np.ndarray:
    """The corners (i, i + nv, i + nv + 1, i + 1) of each grid cell, with
    i = iu * nv + iv, as rows in grid order."""
    i = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1)).ravel()
    return np.stack([i, i + nv, i + nv + 1, i + 1], axis=1)


def _grid_mesh(points: np.ndarray, present: np.ndarray, nu: int, nv: int):
    """The present rows of `points` (row iu * nv + iv) in grid order, and
    two triangles for each cell whose four corners are present."""
    cells = _cells(nu, nv)
    vid = np.cumsum(present)     # the 1-based vertex number of a present row
    a, b, c, d = vid[cells[present[cells].all(axis=1)]].T
    faces = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return points[present], faces


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

    us, vs = np.reshape(grid_points(prog, nu, nv), (-1, 2)).T
    positions = prog.position(us, vs).T
    defined = np.isfinite(positions).all(axis=1)
    fp = frame_point(prog, us, vs, tol)
    # the points with a position and a frame; the jets are not read again
    framed = defined & np.equal(fp.pd.failed, None)
    fp.pd = None

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

    def _write_mesh(name: str, points: np.ndarray, present: np.ndarray):
        verts, faces = _grid_mesh(points, present, nu, nv)
        text = _obj_text(verts, faces, ()) if len(verts) else None
        _write(name, text, {"vertices": len(verts), "faces": len(faces)})

    # Base surface: every point with a computable position.
    _write_mesh("surface", positions, defined)

    # numpy runs silently: a sum of squares may overflow, and the columns
    # of the points without a frame are meaningless.
    with np.errstate(all="ignore"):
        # Segment length: 0.05 x mean cell diagonal of the surface grid.
        a, _, b, _ = _cells(nu, nv).T
        both = defined[a] & defined[b]
        d = positions[b[both]] - positions[a[both]]
        # the bits of np.linalg.norm per row (norm(axis=1) and einsum
        # differ), and max|d| sqrt(sum (d / max|d|)^2) where the sum of
        # squares overflows
        diags = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
        big = np.isinf(diags)
        top = np.abs(d[big]).max(axis=1, keepdims=True)
        diags[big] = top[:, 0] * np.sqrt(((d[big] / top) ** 2).sum(axis=1))
        diags = diags.tolist()
        seg_len = 0.05 * (sum(diags) / len(diags)) if diags else 0.0

        # Each sheet and net is computed once over the batch and then
        # masked: the points without a frame, the sheet's canal points and,
        # for a net, the points without real directions are dropped.
        usable = {sheet: framed & ~is_canal(fp, sheet, tol)
                  for sheet in {*central, *(NETS[n][1] for n in nets)}}

        for sheet in central:
            _write_mesh(f"central{sheet}", central_point(fp, sheet, tol).y.T,
                        usable[sheet])

        e1s, e2s = np.array(fp.e1).T, np.array(fp.e2).T
        for label in nets:
            builder, sheet = NETS[label]
            d0, d1, kinds = net_directions(builder(fp, sheet, tol))
            ok = usable[sheet] & np.equal(kinds, None)
            p, e1, e2 = positions[ok], e1s[ok], e2s[ok]
            # per point the segments along d0 and d1, each as (p - h, p + h)
            ends = []
            for c1, c2 in (d0[:, ok], d1[:, ok]):
                half = 0.5 * seg_len * (c1[:, None] * e1 + c2[:, None] * e2)
                ends += [p - half, p + half]
            verts = np.stack(ends, axis=1).reshape(-1, 3)
            segments = np.arange(1, len(verts) + 1).reshape(-1, 2)
            text = _obj_text(verts, (), segments) if len(verts) else None
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
