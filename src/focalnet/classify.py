"""Pointwise classification of a surface point: the functional-relation
defect of the principal curvatures, gradient defects of six curvature
functions, moulding/canal flags, and the per-statement identity residuals
tying net conditions to curvature-function conditions.

Each curvature class tracks one function g(k1, k2):

    diff        k1 - k2           ratio      k1 / k2
    radii_diff  1/k1 - 1/k2       radii_sum  1/k1 + 1/k2
    mean        k1 + k2           gauss      k1 * k2

Each gradient comes by the chain rule, nabla g = g_k1 nabla k1 +
g_k2 nabla k2, from the floats of the frame point; no jet is built here.
The raw class defect is the Pfaffian gradient norm sqrt((d1 g)^2 + (d2 g)^2);
the normalized defect divides by |dg/dk1|*|grad k1| + |dg/dk2|*|grad k2| +
floor so thresholds are scale-free across surfaces.

Identity residuals: each statement's net-condition side equals a conversion
factor lambda times its curvature-gradient side, exactly (the factor comes
from eliminating the cross derivatives with the compatibility equations);
see docs/derivations.md for the factors.  Residuals are reported after
dividing by the net's own coefficient scale, so "exact" means ~= machine
epsilon relative to the participating terms.  With chain-rule gradients
the prop3-prop6 residuals compare two float arrangements of the same
expression; the self-checks feed `prop_residuals` gradients built on jets
instead, which keeps that identity an independent test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .central import (central_pfaffian, check_canal, connection_gradient,
                      divergence_closed_form, divergence_scale, is_canal,
                      w_jacobian)
from .frames import FramePoint
from .nets import (net_asymptotic_pullback, net_curvature_pullback, net_norm,
                   spherical_image)
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "CLASS_NAMES", "PropositionResidual", "DefectReport", "w_defect",
    "class_partials", "class_gradients", "class_defects", "moulding_defect",
    "is_canal", "proposition_report", "defect_report", "prop_residuals",
    "classify_point", "flags_from_defects",
]

CLASS_NAMES = ("diff", "ratio", "radii_diff", "radii_sum", "mean", "gauss")

_FLOOR = 1e-30


@dataclass(frozen=True)
class PropositionResidual:
    """One verified identity: defect of the net-condition side, defect of
    the curvature-function side (scaled by the conversion factor), and the
    residual of the identity between them.  All three share one
    normalization, the coefficient scale of the participating net."""
    lhs_defect: float
    rhs_defect: float
    identity_residual: float


@dataclass(frozen=True)
class DefectReport:
    w_defect: float
    class_defects: Dict[str, float]
    class_defects_normalized: Dict[str, float]
    moulding_defect: float
    flags: Dict[str, bool]
    prop_residuals: Dict[str, PropositionResidual]
    excluded: Tuple[str, ...] = ()


def w_defect(fp: FramePoint) -> float:
    """Jacobian determinant d1k1*d2k2 - d2k1*d1k2, normalized by
    |grad k1|*|grad k2| + floor.  Zero iff k1 and k2 are functionally
    dependent at the point (the pointwise functional-relation test)."""
    g1 = math.hypot(*fp.grad_k1)
    g2 = math.hypot(*fp.grad_k2)
    return w_jacobian(fp) / (g1 * g2 + _FLOOR)


def class_partials(k1: float, k2: float) -> Dict[str, Tuple[float, float]]:
    """(dg/dk1, dg/dk2) of each class function g."""
    return {
        "diff": (1.0, -1.0),
        "ratio": (1.0 / k2, -k1 / k2 ** 2),
        "radii_diff": (-1.0 / k1 ** 2, 1.0 / k2 ** 2),
        "radii_sum": (-1.0 / k1 ** 2, -1.0 / k2 ** 2),
        "mean": (1.0, 1.0),
        "gauss": (k2, k1),
    }


def class_gradients(fp: FramePoint) -> Dict[str, Tuple[float, float]]:
    """Pfaffian gradients (nabla_1 g, nabla_2 g) of the six class functions
    by the chain rule, nabla_i g = g_k1 nabla_i k1 + g_k2 nabla_i k2."""
    (d1k1, d2k1), (d1k2, d2k2) = fp.grad_k1, fp.grad_k2
    return {name: (p1 * d1k1 + p2 * d1k2, p1 * d2k1 + p2 * d2k2)
            for name, (p1, p2) in class_partials(fp.k1, fp.k2).items()}


def class_defects(fp: FramePoint):
    """(raw, normalized) gradient-defect maps over the six classes."""
    return _class_defects(fp, class_gradients(fp))


def _class_defects(fp: FramePoint, grads: Dict[str, Tuple[float, float]]):
    partials = class_partials(fp.k1, fp.k2)
    g1 = math.hypot(*fp.grad_k1)
    g2 = math.hypot(*fp.grad_k2)
    raw, norm = {}, {}
    for name in CLASS_NAMES:
        p1, p2 = partials[name]
        raw[name] = math.hypot(*grads[name])
        norm[name] = raw[name] / (abs(p1) * g1 + abs(p2) * g2 + _FLOOR)
    return raw, norm


def moulding_defect(fp: FramePoint,
                    tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """min(|q1|, |q2|) relative to the local curvature/connection scale.
    Small at points where one family of curvature lines is geodesic."""
    scale = (abs(fp.k1) + abs(fp.k2) + abs(fp.q1) + abs(fp.q2)
             + tol.curvature_floor)
    return min(abs(fp.q1), abs(fp.q2)) / scale


def _res(lhs_raw: float, rhs_raw: float, norm: float) -> PropositionResidual:
    return PropositionResidual(abs(lhs_raw) / norm, abs(rhs_raw) / norm,
                               abs(lhs_raw - rhs_raw) / norm)


def proposition_report(fp: FramePoint,
                       tol: ToleranceSet = DEFAULT_TOLERANCES) -> DefectReport:
    """Full defect report at a non-canal point.

    Raises CanalDegenerate when either sheet is canal-degenerate (the nets
    and divergence quantities need both sheets).  At moulding points the
    report is still produced, but the statements whose conversion factor is
    a q coefficient (the curvature-line-net equivalences and their spherical
    images) are listed in ``excluded``: their factor degenerates to zero
    there, so the two sides no longer determine each other.
    """
    check_canal(fp, 1, tol)
    check_canal(fp, 2, tol)
    return _report(fp, False, False, tol)


def defect_report(fp: FramePoint,
                  tol: ToleranceSet = DEFAULT_TOLERANCES) -> DefectReport:
    """Defects and flags at any frame point.  Where either sheet is
    canal-degenerate the canal flags are set and ``prop_residuals`` stays
    empty; elsewhere this is ``proposition_report``."""
    return _report(fp, is_canal(fp, 1, tol), is_canal(fp, 2, tol), tol)


def _report(fp: FramePoint, canal1: bool, canal2: bool,
            tol: ToleranceSet) -> DefectReport:
    grads = class_gradients(fp)
    raw, normed = _class_defects(fp, grads)
    wd = w_defect(fp)
    md = moulding_defect(fp, tol)
    flags = flags_from_defects(wd, normed, md, canal1, canal2, tol)
    res: Dict[str, PropositionResidual] = {}
    excluded: Tuple[str, ...] = ()
    if not (canal1 or canal2):
        res = prop_residuals(fp, grads, tol)
        if flags["moulding"]:
            excluded = ("prop5a", "prop5b", "prop6")
    return DefectReport(w_defect=wd, class_defects=raw,
                        class_defects_normalized=normed, moulding_defect=md,
                        flags=flags, prop_residuals=res, excluded=excluded)


def prop_residuals(fp: FramePoint, grads: Dict[str, Tuple[float, float]],
                   tol: ToleranceSet) -> Dict[str, PropositionResidual]:
    """Per-statement residuals at a non-canal point.  ``grads`` maps each
    class name to its gradient: `class_gradients` in reports, gradients of
    jet fields in the self-checks.  The sheet divergences (prop1) always use
    `connection_gradient`."""
    n13 = net_asymptotic_pullback(fp, 1, tol)
    n14 = net_asymptotic_pullback(fp, 2, tol)
    n17 = net_curvature_pullback(fp, 1, tol)
    n18 = net_curvature_pullback(fp, 2, tol)
    n15 = spherical_image(n13, fp)
    n16 = spherical_image(n14, fp)
    s17 = spherical_image(n17, fp)
    s18 = spherical_image(n18, fp)

    k1, k2, q1, q2 = fp.k1, fp.k2, fp.q1, fp.q2
    g_diff, g_ratio = grads["diff"], grads["ratio"]
    g_rdiff, g_rsum = grads["radii_diff"], grads["radii_sum"]
    g_mean, g_gauss = grads["mean"], grads["gauss"]

    res: Dict[str, PropositionResidual] = {}

    # Sheet divergences vs. their closed forms (the isothermic criterion).
    # Normalized by the term-magnitude scale, not |div| + |closed|: when the
    # curvatures are functionally dependent both sides cancel to noise and
    # their own magnitudes stop being a meaningful yardstick.
    grad_q = connection_gradient(fp)
    for sheet, key in ((1, "prop1_s1"), (2, "prop1_s2")):
        div = central_pfaffian(fp, grad_q, sheet, tol)[sheet - 1]
        closed = divergence_closed_form(fp, sheet, tol)
        scale = divergence_scale(fp, sheet, tol) + _FLOOR
        res[key] = PropositionResidual(abs(div) / scale, abs(closed) / scale,
                                       abs(div - closed) / scale)

    # Asymptotic-net pullbacks: orthogonality <-> d(k1 - k2),
    # conjugacy <-> k2^2 d(k1/k2).  Pure rearrangements, factor 1 and k2^2.
    nm13, nm14 = net_norm(n13), net_norm(n14)
    res["prop3a_13"] = _res(n13.a + n13.c, g_diff[0], nm13)
    res["prop3a_14"] = _res(n14.a + n14.c, g_diff[1], nm14)
    res["prop3b_13"] = _res(k2 * n13.a + k1 * n13.c, k2 ** 2 * g_ratio[0],
                            nm13)
    res["prop3b_14"] = _res(k2 * n14.a + k1 * n14.c, k2 ** 2 * g_ratio[1],
                            nm14)

    # Their spherical images: orthogonality <-> -d(1/k1 - 1/k2), factor -1.
    res["prop4_15"] = _res(n15.a + n15.c, -g_rdiff[0], net_norm(n15))
    res["prop4_16"] = _res(n16.a + n16.c, -g_rdiff[1], net_norm(n16))

    # Curvature-line-net pullbacks: orthogonality <-> q_i d(k1 + k2),
    # conjugacy <-> q_i d(k1 k2) (cross derivatives eliminated via the
    # compatibility equations, leaving the factor q_i).
    nm17, nm18 = net_norm(n17), net_norm(n18)
    res["prop5a_17"] = _res(n17.a + n17.c, q1 * g_mean[0], nm17)
    res["prop5a_18"] = _res(n18.a + n18.c, q2 * g_mean[1], nm18)
    res["prop5b_17"] = _res(k2 * n17.a + k1 * n17.c, q1 * g_gauss[0], nm17)
    res["prop5b_18"] = _res(k2 * n18.a + k1 * n18.c, q2 * g_gauss[1], nm18)

    # Their spherical images: orthogonality <-> -q_i d(1/k1 + 1/k2).
    res["prop6_17"] = _res(s17.a + s17.c, -q1 * g_rsum[0], net_norm(s17))
    res["prop6_18"] = _res(s18.a + s18.c, -q2 * g_rsum[1], net_norm(s18))
    return res


def flags_from_defects(wd: float, normed: Dict[str, float], md: float,
                       canal1: bool, canal2: bool,
                       tol: ToleranceSet) -> Dict[str, bool]:
    flags = {name: normed[name] <= tol.classify for name in CLASS_NAMES}
    flags["weingarten"] = abs(wd) <= tol.classify
    flags["cmc"] = flags["mean"]
    flags["const_gauss"] = flags["gauss"]
    flags["moulding"] = md <= tol.moulding
    flags["canal1"] = canal1
    flags["canal2"] = canal2
    return flags


def classify_point(report: DefectReport,
                   tol: ToleranceSet = DEFAULT_TOLERANCES) -> Dict[str, bool]:
    """Recompute the boolean flags from a report's defects under ``tol``."""
    return flags_from_defects(report.w_defect,
                              report.class_defects_normalized,
                              report.moulding_defect,
                              report.flags.get("canal1", False),
                              report.flags.get("canal2", False), tol)
