"""Pointwise classification of a surface point: the functional-relation
defect of the principal curvatures, gradient defects of six curvature
functions, moulding/canal flags, and the per-statement identity residuals
tying net conditions to curvature-function conditions.  The flags, the
canal test and the moulding defect are `decisions`'.

Each curvature class tracks one function g(k1, k2):

    diff        k1 - k2           ratio      k1 / k2
    radii_diff  1/k1 - 1/k2       radii_sum  1/k1 + 1/k2
    mean        k1 + k2           gauss      k1 * k2

Each gradient comes by the chain rule, nabla g = g_k1 nabla k1 +
g_k2 nabla k2, from the floats of the frame point; no jet is built here.
The raw class defect is the Pfaffian gradient norm sqrt((d1 g)^2 + (d2 g)^2);
the normalized defect divides by |dg/dk1|*|grad k1| + |dg/dk2|*|grad k2| +
floor so thresholds are scale-free across surfaces.

Identity residuals: seven statements per focal sheet i, each written once
and read along e_i.  A statement's net-condition side equals a conversion
factor lambda times its curvature-gradient side, exactly (see
docs/derivations.md for the factors).  Residuals are divided by the net's
own coefficient scale, so "exact" means ~= machine epsilon relative to
the participating terms.  With chain-rule gradients the prop3-prop6
residuals compare two float arrangements of the same expression; the
self-checks feed `prop_residuals` gradients built on jets instead, which
keeps that identity an independent test.  `defect_report` builds every
report and decides its record status.  It calls the same public entries as
any caller, each behind its canal gate, and no gate fires there: at a point
it takes residuals only at ok and moulding points, never canal, and on a
batch `check_canal` does not raise.

Every formula runs on a point's floats and, unchanged and with the same
bits, on a batch `FramePoint` of arrays, by way of `jet`'s shape helpers.
The gradient norms are `jt.hypot`, `math.hypot` at a point and on a
batch its bits from whole-array passes (CPython's two-argument
`vector_norm`, op for op), so classifying a batch calls no Python
function per point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import jet as jt
from .central import (connection_gradient, divergence_closed_form,
                      divergence_scale, isothermic_divergence, w_jacobian)
from .decisions import (DEFAULT_TOLERANCES, ToleranceSet, check_canal,
                        flags_from_defects, is_canal, moulding_defect)
from .frames import FramePoint
from .nets import (net_asymptotic_pullback, net_curvature_pullback, net_norm,
                   spherical_image)

__all__ = [
    "CLASS_NAMES", "PropositionResidual", "DefectReport", "w_defect",
    "class_partials", "class_gradients", "class_defects",
    "proposition_report", "defect_report", "prop_residuals",
    # the decisions a report takes, re-exported from `decisions`
    "is_canal", "moulding_defect", "flags_from_defects",
]

CLASS_NAMES = ("diff", "ratio", "radii_diff", "radii_sum", "mean", "gauss")

_FLOOR = 1e-30


@dataclass
class PropositionResidual:
    """One verified identity: defect of the net-condition side, defect of
    the curvature-function side (scaled by the conversion factor), and the
    residual of the identity between them.  All three share one
    normalization, the coefficient scale of the participating net."""
    lhs_defect: float
    rhs_defect: float
    identity_residual: float


@dataclass
class DefectReport:
    status: str                   # ok, moulding, canal1, canal2 or canal12
    w_defect: float
    class_defects: Dict[str, float]
    class_defects_normalized: Dict[str, float]
    moulding_defect: float
    flags: Dict[str, bool]
    prop_residuals: Dict[str, PropositionResidual]
    excluded: Tuple[str, ...] = ()


def _gradient_norms(fp: FramePoint) -> Tuple[float, float]:
    """(|grad k1|, |grad k2|)."""
    return jt.hypot(*fp.grad_k1), jt.hypot(*fp.grad_k2)


def w_defect(fp: FramePoint, norms=None) -> float:
    """Jacobian determinant d1k1*d2k2 - d2k1*d1k2, normalized by
    |grad k1|*|grad k2| + floor.  Zero iff k1 and k2 are functionally
    dependent at the point (the pointwise functional-relation test).
    `norms` is `_gradient_norms(fp)`, taken here if not given."""
    g1, g2 = _gradient_norms(fp) if norms is None else norms
    return w_jacobian(fp) / (g1 * g2 + _FLOOR)


def class_partials(k1: float, k2: float) -> Dict[str, Tuple[float, float]]:
    """(dg/dk1, dg/dk2) of each class function g."""
    k1_sq, k2_sq = jt.power(k1, 2), jt.power(k2, 2)
    return {
        "diff": (1.0, -1.0),
        "ratio": (1.0 / k2, -k1 / k2_sq),
        "radii_diff": (-1.0 / k1_sq, 1.0 / k2_sq),
        "radii_sum": (-1.0 / k1_sq, -1.0 / k2_sq),
        "mean": (1.0, 1.0),
        "gauss": (k2, k1),
    }


def class_gradients(fp: FramePoint,
                    partials=None) -> Dict[str, Tuple[float, float]]:
    """Pfaffian gradients (nabla_1 g, nabla_2 g) of the six class functions
    by the chain rule, nabla_i g = g_k1 nabla_i k1 + g_k2 nabla_i k2.
    `partials` is `class_partials(fp.k1, fp.k2)`, taken here if not given."""
    if partials is None:
        partials = class_partials(fp.k1, fp.k2)
    (d1k1, d2k1), (d1k2, d2k2) = fp.grad_k1, fp.grad_k2
    return {name: (p1 * d1k1 + p2 * d1k2, p1 * d2k1 + p2 * d2k2)
            for name, (p1, p2) in partials.items()}


def class_defects(fp: FramePoint, norms=None, grads=None, partials=None):
    """(raw, normalized) gradient-defect maps over the six classes.
    `norms` is `_gradient_norms(fp)`, `grads` `class_gradients(fp)` and
    `partials` `class_partials(fp.k1, fp.k2)`, taken here if not given."""
    if partials is None:
        partials = class_partials(fp.k1, fp.k2)
    grads = class_gradients(fp, partials) if grads is None else grads
    g1, g2 = _gradient_norms(fp) if norms is None else norms
    raw, norm = {}, {}
    for name in CLASS_NAMES:
        p1, p2 = partials[name]
        raw[name] = jt.hypot(*grads[name])
        norm[name] = raw[name] / (abs(p1) * g1 + abs(p2) * g2 + _FLOOR)
    return raw, norm


def _res(lhs_raw: float, rhs_raw: float, norm: float) -> PropositionResidual:
    return PropositionResidual(abs(lhs_raw) / norm, abs(rhs_raw) / norm,
                               abs(lhs_raw - rhs_raw) / norm)


def proposition_report(fp: FramePoint,
                       tol: ToleranceSet = DEFAULT_TOLERANCES) -> DefectReport:
    """Full defect report at a non-canal point: `defect_report`, after
    raising CanalDegenerate when either sheet is canal-degenerate (the nets
    and divergence quantities need both sheets)."""
    check_canal(fp, 1, tol)
    check_canal(fp, 2, tol)
    return defect_report(fp, tol)


def defect_report(fp: FramePoint,
                  tol: ToleranceSet = DEFAULT_TOLERANCES) -> DefectReport:
    """Defects, flags and status at any frame point.  Where either sheet is
    canal-degenerate the status is canal1, canal2 or canal12 and
    ``prop_residuals`` stays empty.  At moulding points the statements whose
    conversion factor is a q coefficient (prop5, prop6) are listed in
    ``excluded``: the factor vanishes there, so the two sides no longer
    determine each other.  On a batch every field holds arrays, and the
    residuals, computed at every point, are meaningless at canal points."""
    partials = class_partials(fp.k1, fp.k2)
    norms, grads = _gradient_norms(fp), class_gradients(fp, partials)
    raw, normed = class_defects(fp, norms, grads, partials)
    canal1, canal2 = is_canal(fp, 1, tol), is_canal(fp, 2, tol)
    wd = w_defect(fp, norms)
    md = moulding_defect(fp, tol)
    flags = flags_from_defects(wd, normed, md, canal1, canal2, tol)
    status = jt.pick(canal1, jt.pick(canal2, "canal12", "canal1"),
                     jt.pick(canal2, "canal2",
                             jt.pick(flags["moulding"], "moulding", "ok")))
    excluded = jt.pick(status == "moulding", ("prop5a", "prop5b", "prop6"),
                       ())
    res: Dict[str, PropositionResidual] = {}
    if isinstance(status, np.ndarray) or status in ("ok", "moulding"):
        res = prop_residuals(fp, grads, tol)
    return DefectReport(status=status, w_defect=wd, class_defects=raw,
                        class_defects_normalized=normed, moulding_defect=md,
                        flags=flags, prop_residuals=res, excluded=excluded)


_SHEET_KEYS = (("prop1_s1", "prop3a_13", "prop3b_13", "prop4_15",
                "prop5a_17", "prop5b_17", "prop6_17"),
               ("prop1_s2", "prop3a_14", "prop3b_14", "prop4_16",
                "prop5a_18", "prop5b_18", "prop6_18"))


def prop_residuals(fp: FramePoint, grads: Dict[str, Tuple[float, float]],
                   tol: ToleranceSet) -> Dict[str, PropositionResidual]:
    """Per-statement residuals at a non-canal point, keyed by each sheet's
    row of `_SHEET_KEYS`.  ``grads`` maps each class name to its gradient:
    `class_gradients` in reports, gradients of jet fields in the
    self-checks.  The sheet divergences (prop1) use `connection_gradient`.
    A canal point raises CanalDegenerate, sheet 1 first: the gates of the
    closed forms it calls, sheet by sheet."""
    k1, k2 = fp.k1, fp.k2
    g_diff, g_ratio = grads["diff"], grads["ratio"]
    g_rdiff, g_rsum = grads["radii_diff"], grads["radii_sum"]
    g_mean, g_gauss = grads["mean"], grads["gauss"]
    grad_q = connection_gradient(fp)

    res: Dict[str, PropositionResidual] = {}
    for i, (p1, p3a, p3b, p4, p5a, p5b, p6) in enumerate(_SHEET_KEYS):
        sheet, q = i + 1, (fp.q1, fp.q2)[i]
        # The divergence against its closed form (the isothermic criterion),
        # on the scale of its terms: where the curvatures are functionally
        # dependent both sides cancel to noise.
        div = isothermic_divergence(fp, grad_q, sheet, tol)
        closed = divergence_closed_form(fp, sheet, tol)
        scale = divergence_scale(fp, sheet, tol) + _FLOOR
        res[p1] = PropositionResidual(abs(div) / scale, abs(closed) / scale,
                                      abs(div - closed) / scale)
        # Asymptotic net: orthogonality <-> d_i(k1 - k2), conjugacy <->
        # k2^2 d_i(k1/k2); its spherical image's orthogonality <->
        # -d_i(1/k1 - 1/k2).  Pure rearrangements.
        net = net_asymptotic_pullback(fp, sheet, tol)
        nm = net_norm(net)
        res[p3a] = _res(net.a + net.c, g_diff[i], nm)
        res[p3b] = _res(k2 * net.a + k1 * net.c,
                        jt.power(k2, 2) * g_ratio[i], nm)
        sph = spherical_image(net, fp)
        res[p4] = _res(sph.a + sph.c, -g_rdiff[i], net_norm(sph))
        # Curvature-line net: orthogonality <-> q_i d_i(k1 + k2), conjugacy
        # <-> q_i d_i(k1 k2); its spherical image's orthogonality <->
        # -q_i d_i(1/k1 + 1/k2).  The compatibility equations leave q_i.
        net = net_curvature_pullback(fp, sheet, tol)
        nm = net_norm(net)
        res[p5a] = _res(net.a + net.c, q * g_mean[i], nm)
        res[p5b] = _res(k2 * net.a + k1 * net.c, q * g_gauss[i], nm)
        sph = spherical_image(net, fp)
        res[p6] = _res(sph.a + sph.c, -q * g_rsum[i], net_norm(sph))
    return res

