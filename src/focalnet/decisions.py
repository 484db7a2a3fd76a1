"""Every degeneracy decision of the pipeline, and the thresholds they read.

The statements about the nets on the two focal sheets hold only away from
degenerate points: where the parametrization is not an immersion, at
umbilics (principal directions undefined), at parabolic points (a focal
sheet runs off to infinity) and where a focal sheet collapses to a curve
(canal case).  Each decision is one function here, and it is the only
place a `ToleranceSet` field is read outside the self-checks.

Every function takes the raw quantity and what its threshold scales with,
as floats at a point or as arrays of shape S in a batch, and returns a
Python bool at a point and a bool array of shape S in a batch.  A
decision computes the same operations in the same order at both shapes,
and every square of a scale goes through `jt.power`, so a batch column's
threshold has its point's bits (a square that overflows is inf at both
shapes) and the column decides as its point does.  A NaN quantity
fires no test: no comparison holds for it.

All thresholds are relative: the raw quantity is compared with a scale
built from local magnitudes (the metric's trace, or curvatures plus
`curvature_floor`), so the same tolerances work for surfaces of very
different size; the canal test is the one exception its docstring
states.  The net tests read
the normalized coefficients of a net, which are dimensionless.

Of the package it imports only `jet` and `errors`, so every layer can
call it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import jet as jt
from .errors import CanalDegenerate

__all__ = [
    "ToleranceSet", "DEFAULT_TOLERANCES", "NET_NORM_FLOOR", "NET_ROOT_TOL",
    "metric_degenerate", "near_umbilic", "parabolic", "e1_flipped",
    "own_curvature", "canal_threshold", "is_canal", "check_canal",
    "moulding_defect", "flags_from_defects", "zero_net", "imaginary_net",
]


@dataclass(frozen=True)
class ToleranceSet:
    """The thresholds of the decisions below, each relative to the scale
    its function's docstring gives."""
    umbilic: float = 1e-7          # (k1-k2)^2 vs (|k1|+|k2|+floor)^2
    parabolic: float = 1e-9        # |k1*k2| vs (|k1|+|k2|+floor)^2
    metric: float = 1e-12          # EG - F^2 vs (E + G)^2
    sign: float = 1e-12            # threshold for sign canonicalization
    curvature_floor: float = 1e-9  # additive floor for relative scales
    canal: float = 1e-6            # |grad_i k_i| vs |k_i|^3 + floor
    classify: float = 1e-6         # normalized class/W defects
    moulding: float = 1e-6         # min(|q1|,|q2|) vs |k1|+|k2|+floor


DEFAULT_TOLERANCES = ToleranceSet()

# The floor added to a net's coefficient scale, and the discriminant and
# zero tolerance on the net normalized by that scale.
NET_NORM_FLOOR = 1e-30
NET_ROOT_TOL = 1e-12


def metric_degenerate(det, trace, tol: ToleranceSet):
    """Whether the first fundamental form is singular (not an immersion):
    det = EG - F^2 at or below tol.metric (E + G)^2, with trace = E + G.
    Both sides are in the metric's squared units, so tol.metric is a
    relative bound on the determinant; `<=` fires at equality."""
    return det <= tol.metric * jt.power(trace, 2)


def near_umbilic(disc, h, tol: ToleranceSet):
    """Whether k1 = k2 to within the umbilic tolerance: disc = h^2 - K =
    ((k1 - k2) / 2)^2, in curvature^2, at or below tol.umbilic (4 h^2 +
    4 |disc| + floor^2), h the mean curvature; `<=` fires at equality.

    It is the only umbilic test.  Past it the roots are real, so
    (|k1| + |k2| + floor)^2 = (2 max(|h|, sqrt(disc)) + floor)^2 <= 2 times
    the scale above, and (k1 - k2)^2 <= umbilic (|k1| + |k2| + floor)^2
    would need disc <= (umbilic / 2) times that scale, where this holds."""
    scale = 4 * jt.power(abs(h), 2) + 4 * abs(disc) + tol.curvature_floor ** 2
    return disc <= tol.umbilic * scale


def parabolic(product, a, b, tol: ToleranceSet):
    """Whether a principal curvature vanishes: |product| = |a b|, in
    curvature^2, at or below tol.parabolic (|a| + |b| + floor)^2; `<=`
    fires at equality.  (a, b) are (k1, k2), or (h, h) at a near-umbilic
    point, where k1 = k2 = h."""
    scale = jt.power(abs(a) + abs(b) + tol.curvature_floor, 2)
    return abs(product) <= tol.parabolic * scale


def e1_flipped(components, tol: ToleranceSet):
    """The sign rule of e1: whether the first of its ambient `components`
    (of a unit vector, so dimensionless) whose magnitude is strictly above
    tol.sign is negative.  A component at tol.sign does not decide; where
    none is above it, nothing flips."""
    flipped = False
    for comp in reversed(components):
        flipped = jt.pick(abs(comp) > tol.sign, comp < 0, flipped)
    return flipped


def own_curvature(fp, sheet: int):
    """(k_i, nabla k_i, nabla_i k_i) of frame point `fp`: the principal
    curvature whose radius places focal sheet i, its Pfaffian gradient and
    the sheet's own derivative of it; ValueError unless i is 1 or 2.  The
    one place a sheet number is checked."""
    if sheet not in (1, 2):
        raise ValueError(f"sheet must be 1 or 2, got {sheet}")
    if sheet == 1:
        return fp.k1, fp.grad_k1, fp.grad_k1[0]
    return fp.k2, fp.grad_k2, fp.grad_k2[1]


def canal_threshold(fp, tol: ToleranceSet = DEFAULT_TOLERANCES):
    """The canal bound on |nabla_i k_i|: tol.canal (max(|k1|, |k2|)^3 +
    floor), the same for both sheets.  The closed forms divide k_i^3 by
    nabla_i k_i (c = k_i^3 / nabla_i k_i), so past the bound |c| < 1 /
    tol.canal.  nabla_i k_i is in curvature^2 and the bound in
    curvature^3, so the test is not scale-free: scaling the surface by s
    scales their ratio by s."""
    k = jt.largest(abs(fp.k1), abs(fp.k2))
    return tol.canal * (jt.power(k, 3) + tol.curvature_floor)


def is_canal(fp, sheet: int, tol: ToleranceSet = DEFAULT_TOLERANCES):
    """Whether focal sheet `sheet` degenerates to a curve at `fp`:
    |nabla_i k_i| at or below `canal_threshold`; `<=` fires at equality."""
    return abs(own_curvature(fp, sheet)[2]) <= canal_threshold(fp, tol)


def check_canal(fp, sheet: int, tol: ToleranceSet = DEFAULT_TOLERANCES):
    """`is_canal`'s verdict, having raised CanalDegenerate where it holds at
    a point; a batch never raises."""
    canal = is_canal(fp, sheet, tol)
    if not isinstance(canal, np.ndarray) and canal:
        own = own_curvature(fp, sheet)[2]
        raise CanalDegenerate(
            f"focal sheet {sheet} degenerates at (u, v) = {fp.point}: "
            f"|nabla_{sheet} k{sheet}| = {abs(own):.3e}", sheet)
    return canal


def moulding_defect(fp, tol: ToleranceSet = DEFAULT_TOLERANCES):
    """min(|q1|, |q2|) relative to |k1| + |k2| + |q1| + |q2| + floor, all
    in curvature units, so the defect is dimensionless.  Small where one
    family of curvature lines is geodesic (`flags_from_defects` decides)."""
    scale = (abs(fp.k1) + abs(fp.k2) + abs(fp.q1) + abs(fp.q2)
             + tol.curvature_floor)
    return jt.smallest(abs(fp.q1), abs(fp.q2)) / scale


def flags_from_defects(wd, normed: Dict[str, float], md, canal1, canal2,
                       tol: ToleranceSet) -> Dict[str, bool]:
    """The class flags of a point from its normalized (dimensionless)
    defects, each firing at equality (`<=`):

    - each class of `normed` where its normalized gradient defect is at or
      below tol.classify (`cmc` and `const_gauss` copy `mean` and `gauss`);
    - `weingarten` where |wd|, the normalized (k1, k2) Jacobian, is at or
      below tol.classify;
    - `moulding` where md, the `moulding_defect`, is at or below
      tol.moulding;
    - `canal1` and `canal2` as given (`is_canal`)."""
    flags = {name: value <= tol.classify for name, value in normed.items()}
    flags["weingarten"] = abs(wd) <= tol.classify
    flags["cmc"] = flags["mean"]
    flags["const_gauss"] = flags["gauss"]
    flags["moulding"] = md <= tol.moulding
    flags["canal1"] = canal1
    flags["canal2"] = canal2
    return flags


def zero_net(norm):
    """Whether a net is identically zero: its coefficient scale norm =
    max(|A|, |B|, |C|) + NET_NORM_FLOOR at or below twice the floor, so the
    largest coefficient is at most the floor (within rounding); `<=` fires
    at equality."""
    return norm <= 2 * NET_NORM_FLOOR


def imaginary_net(disc):
    """Whether a net's directions are imaginary: the discriminant B^2 - AC
    of the net normalized by its coefficient scale (dimensionless) strictly
    below -NET_ROOT_TOL; a discriminant at -NET_ROOT_TOL is a (double) real
    root."""
    return disc < -NET_ROOT_TOL
