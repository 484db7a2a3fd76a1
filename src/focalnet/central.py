"""Focal sheets of a surface: positions, adapted coframes, fundamental
quantities, transformed Pfaffian derivatives, and the divergence identity
for the focal coordinate net.

Sheet i sits at y = x + (1/k_i) e3.  Its adapted frame is {e2, e3; e1} for
sheet 1 and {e3, e1; e2} for sheet 2 (last vector = unit normal of the
sheet).  In the base principal coframe (w1, w2):

    sheet 1:  w1' = (1 - k2/k1) w2,            w2' = -dk1 / k1^2
    sheet 2:  w1' = -dk2 / k2^2,               w2' = (1 - k1/k2) w1

The closed forms for the sheet's fundamental quantities (a, b, c) and
connection coefficients, and the transformed Pfaffian derivatives, follow
from those coframes; the sheet-2 derivative formulas are the 1<->2 mirror of
the sheet-1 ones (derived from the coframe above and validated against the
finite-difference oracle; the df-consistency check is exact).

Everything here divides by nabla_1 k1 (sheet 1) or nabla_2 k2 (sheet 2).
When that derivative vanishes the sheet degenerates toward a curve (canal
case) and computation is refused rather than returning huge values.
`is_canal` decides that and rejects a sheet other than 1 or 2; every sheet
entry point goes through it by way of `check_canal`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import CanalDegenerate
from .frames import FramePoint, pfaffian_values
from .geometry import PrincipalData, eval_surface, principal_data, vdot
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "CentralPoint", "CentralFundamentals", "canal_threshold", "is_canal",
    "check_canal",
    "base_coframe_matrix", "focal_coframe_matrix", "central_point",
    "central_ii_oracle", "central_pfaffian", "connection_gradient",
    "isothermic_divergence", "divergence_closed_form", "divergence_scale",
    "w_jacobian",
]


def canal_threshold(fp: FramePoint, tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Degeneracy scale for |nabla_i k_i|: curvature^3 has the right units
    (the closed forms divide k_i^3 by it)."""
    k = max(abs(fp.k1), abs(fp.k2))
    return tol.canal * (k ** 3 + tol.curvature_floor)


def _own_gradient(fp: FramePoint, sheet: int) -> float:
    """nabla_i k_i, the derivative sheet i divides by."""
    return fp.grad_k1[0] if sheet == 1 else fp.grad_k2[1]


def is_canal(fp: FramePoint, sheet: int,
             tol: ToleranceSet = DEFAULT_TOLERANCES) -> bool:
    """Whether focal sheet `sheet` (1 or 2, else ValueError) degenerates to
    a curve at `fp`: |nabla_i k_i| at or below `canal_threshold`."""
    if sheet not in (1, 2):
        raise ValueError(f"sheet must be 1 or 2, got {sheet}")
    return abs(_own_gradient(fp, sheet)) <= canal_threshold(fp, tol)


def check_canal(fp: FramePoint, sheet: int,
                tol: ToleranceSet = DEFAULT_TOLERANCES) -> None:
    """Raise CanalDegenerate where `is_canal` holds."""
    if is_canal(fp, sheet, tol):
        raise CanalDegenerate(
            f"focal sheet {sheet} degenerates at (u, v) = {fp.point}: "
            f"|nabla_{sheet} k{sheet}| = {abs(_own_gradient(fp, sheet)):.3e}",
            sheet, fp.point)


def base_coframe_matrix(pd: PrincipalData) -> np.ndarray:
    """Rows = (w1, w2) as covectors over (du, dv): w_i = <e_i, .> via the
    first fundamental form."""
    E, F, G = pd.E.value, pd.F.value, pd.G.value
    xi1, eta1 = pd.xi1.value, pd.eta1.value
    xi2, eta2 = pd.xi2.value, pd.eta2.value
    return np.array([
        [E * xi1 + F * eta1, F * xi1 + G * eta1],
        [E * xi2 + F * eta2, F * xi2 + G * eta2],
    ])


def focal_coframe_matrix(fp: FramePoint, sheet: int) -> np.ndarray:
    """Rows = (w1', w2') of the sheet's coframe over the base (w1, w2)."""
    k1, k2 = fp.k1, fp.k2
    if sheet == 1:
        d1, d2 = fp.grad_k1
        return np.array([
            [0.0, (k1 - k2) / k1],
            [-d1 / k1 ** 2, -d2 / k1 ** 2],
        ])
    d1, d2 = fp.grad_k2
    return np.array([
        [-d1 / k2 ** 2, -d2 / k2 ** 2],
        [(k2 - k1) / k2, 0.0],
    ])


@dataclass
class CentralPoint:
    """Closed-form data of one focal sheet at one base point."""
    sheet: int
    y: np.ndarray                 # ambient position of the focal point
    a: float
    b: float
    c: float
    q1: float                     # connection coefficients in the sheet frame
    q2: float


def central_point(fp: FramePoint, sheet: int = 1,
                  tol: ToleranceSet = DEFAULT_TOLERANCES) -> CentralPoint:
    """Fundamental quantities of focal sheet `sheet` from the closed forms.

    a, b, c are the coefficients of the sheet's second fundamental form in
    its adapted coframe; q1, q2 its connection coefficients (one vanishes
    identically, the other equals k1 k2 / (k1 - k2))."""
    check_canal(fp, sheet, tol)
    pd = fp.pd
    k1, k2 = fp.k1, fp.k2
    gap = k1 - k2
    qq = k1 * k2 / gap

    if sheet == 1:
        d1k1, d2k1 = fp.grad_k1
        a = k1 * (fp.q1 * d2k1 - fp.q2 * d1k1) / (gap * d1k1)
        b = fp.q1 * k1 ** 2 / d1k1
        c = k1 ** 3 / d1k1
        q1c, q2c = qq, 0.0
        k_jet = pd.k1
    else:
        d1k2, d2k2 = fp.grad_k2
        a = k2 ** 3 / d2k2
        b = -fp.q2 * k2 ** 2 / d2k2
        c = k2 * (fp.q2 * d1k2 - fp.q1 * d2k2) / (gap * d2k2)
        q1c, q2c = 0.0, qq
        k_jet = pd.k2

    inv_k = 1.0 / k_jet.value
    y = np.array([p.value + inv_k * n.value
                  for p, n in zip(pd.sj.pos, pd.e3)])
    return CentralPoint(sheet=sheet, y=y, a=a, b=b, c=c, q1=q1c, q2=q2c)


@dataclass
class CentralFundamentals:
    """Direct (oracle) computation of a focal sheet's fundamental data."""
    sheet: int
    a: float
    b: float
    c: float
    q1: float
    q2: float
    coframe_uv: np.ndarray         # (w1', w2') over (du, dv) via the coframe
    coframe_uv_projected: np.ndarray  # same, via <dy, frame vector>


def central_ii_oracle(prog, u: float, v: float, sheet: int = 1,
                      tol: ToleranceSet = DEFAULT_TOLERANCES) -> CentralFundamentals:
    """Second fundamental form and connection of a focal sheet computed
    directly from order-2 jets of its position field, bypassing the closed
    forms entirely.  The sheet's normal is e1 (sheet 1) or e2 (sheet 2).

    Consumes order-4 surface jets: the focal position differentiates the
    curvature, and its second fundamental form differentiates it again.
    """
    from .frames import frame_point_from_pd
    sj = eval_surface(prog, u, v)
    pd = principal_data(sj, tol)
    fp = frame_point_from_pd(pd, tol)
    check_canal(fp, sheet, tol)

    k_jet = pd.k1 if sheet == 1 else pd.k2
    normal = pd.e1 if sheet == 1 else pd.e2        # sheet normal
    first = pd.e2 if sheet == 1 else pd.e3         # first sheet frame vector
    second = pd.e3 if sheet == 1 else pd.e1        # second sheet frame vector

    inv_k = 1.0 / k_jet
    y = tuple(p + inv_k * n for p, n in zip(sj.pos, pd.e3))

    y_u = tuple(c.du() for c in y)
    y_v = tuple(c.dv() for c in y)
    n_u = tuple(c.du() for c in normal)
    n_v = tuple(c.dv() for c in normal)

    t_uu = -vdot(y_u, n_u).value
    t_vv = -vdot(y_v, n_v).value
    t_uv = -0.5 * (vdot(y_u, n_v).value + vdot(y_v, n_u).value)
    t_mat = np.array([[t_uu, t_uv], [t_uv, t_vv]])

    # sheet coframe over (du, dv): closed-form rows composed with the base
    # coframe, and independently by projecting dy on the sheet frame
    omega = base_coframe_matrix(pd)
    p_uv = focal_coframe_matrix(fp, sheet) @ omega
    p_proj = np.array([
        [vdot(y_u, first).value, vdot(y_v, first).value],
        [vdot(y_u, second).value, vdot(y_v, second).value],
    ])

    det = np.linalg.det(p_uv)
    if abs(det) < 1e-300:
        raise CanalDegenerate(
            f"singular focal coframe for sheet {sheet} at ({u}, {v})",
            sheet, (sj.u, sj.v))
    p_inv = np.linalg.inv(p_uv)
    form = p_inv.T @ t_mat @ p_inv
    a, b, c = form[0, 0], 0.5 * (form[0, 1] + form[1, 0]), form[1, 1]

    # sheet connection form w12' = <d(first), second> over (du, dv),
    # re-expressed in the sheet coframe
    f_u = tuple(comp.du() for comp in first)
    f_v = tuple(comp.dv() for comp in first)
    w = np.array([vdot(f_u, second).value, vdot(f_v, second).value])
    q1c, q2c = np.linalg.solve(p_uv.T, w)

    return CentralFundamentals(
        sheet=sheet, a=float(a), b=float(b), c=float(c), q1=float(q1c),
        q2=float(q2c), coframe_uv=p_uv, coframe_uv_projected=p_proj)


def central_pfaffian(fp: FramePoint, grad_f: Tuple[float, float],
                     sheet: int = 1,
                     tol: ToleranceSet = DEFAULT_TOLERANCES) -> Tuple[float, float]:
    """Pfaffian derivatives of a base-surface field along the focal sheet's
    coordinate curves, from its base derivatives grad_f = (nabla_1 f,
    nabla_2 f).

    Sheet 1:  nabla_1' f = k1 (nabla_1 k1 nabla_2 f - nabla_2 k1 nabla_1 f)
                           / ((k1 - k2) nabla_1 k1)
              nabla_2' f = -k1^2 nabla_1 f / nabla_1 k1
    Sheet 2 is the 1<->2 mirror.
    """
    check_canal(fp, sheet, tol)
    d1f, d2f = grad_f
    k1, k2 = fp.k1, fp.k2
    if sheet == 1:
        d1k1, d2k1 = fp.grad_k1
        return (k1 * (d1k1 * d2f - d2k1 * d1f) / ((k1 - k2) * d1k1),
                -k1 ** 2 * d1f / d1k1)
    d1k2, d2k2 = fp.grad_k2
    return (-k2 ** 2 * d2f / d2k2,
            k2 * (d2k2 * d1f - d1k2 * d2f) / ((k2 - k1) * d2k2))


def connection_gradient(fp: FramePoint) -> Tuple[float, float]:
    """Base Pfaffian gradient of Q = k1 k2 / (k1 - k2), the nonvanishing
    focal connection coefficient, computed on jets."""
    q_field = fp.k1_jet * fp.k2_jet / (fp.k1_jet - fp.k2_jet)
    return pfaffian_values(q_field, fp.pd)


def isothermic_divergence(fp: FramePoint, sheet: int = 1,
                          tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Divergence nabla_1' q1' + nabla_2' q2' of the focal sheet's
    connection coefficients; its vanishing is the isothermic criterion for
    the sheet's coordinate net.

    One coefficient vanishes identically per sheet, so only one term
    survives: sheet 1 -> nabla_1' Q, sheet 2 -> nabla_2' Q.
    """
    return central_pfaffian(fp, connection_gradient(fp), sheet,
                            tol)[sheet - 1]


def w_jacobian(fp: FramePoint) -> float:
    """Raw Jacobian determinant of (k1, k2) under (nabla_1, nabla_2)."""
    return (fp.grad_k1[0] * fp.grad_k2[1] - fp.grad_k1[1] * fp.grad_k2[0])


def divergence_closed_form(fp: FramePoint, sheet: int = 1,
                           tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Closed form of the divergence: k_i^3 J / ((k1 - k2)^3 nabla_i k_i)
    with J the (k1, k2) Jacobian.  The k_i^3 power is forced by the closed
    forms of the sheet connection and derivatives (see docs/derivations.md);
    a k_i^2 variant fails by exactly one factor of k_i."""
    check_canal(fp, sheet, tol)
    jac = w_jacobian(fp)
    gap = fp.k1 - fp.k2
    if sheet == 1:
        return fp.k1 ** 3 * jac / (gap ** 3 * fp.grad_k1[0])
    return fp.k2 ** 3 * jac / (gap ** 3 * fp.grad_k2[1])


def divergence_scale(fp: FramePoint, sheet: int = 1,
                     tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Magnitude scale of the divergence's constituent terms: the closed
    form with every product taken in absolute value.  The right yardstick
    for divergence residuals — on surfaces whose curvatures are functionally
    dependent the Jacobian cancels to machine noise, so the result itself
    is a useless scale."""
    check_canal(fp, sheet, tol)
    num = (abs(fp.grad_k1[0] * fp.grad_k2[1])
           + abs(fp.grad_k1[1] * fp.grad_k2[0]))
    gap = abs(fp.k1 - fp.k2)
    if sheet == 1:
        return abs(fp.k1) ** 3 * num / (gap ** 3 * abs(fp.grad_k1[0]))
    return abs(fp.k2) ** 3 * num / (gap ** 3 * abs(fp.grad_k2[1]))
