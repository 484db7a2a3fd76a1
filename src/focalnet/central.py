"""Focal sheets of a surface: positions, adapted coframes, fundamental
quantities, transformed Pfaffian derivatives, and the divergence identity
for the focal coordinate net.

Sheet i sits at y = x + (1/k_i) e3.  Its adapted frame is {e2, e3; e1} for
sheet 1 and {e3, e1; e2} for sheet 2 (last vector = unit normal of the
sheet).  In the base principal coframe (w1, w2):

    sheet 1:  w1' = (1 - k2/k1) w2,            w2' = -dk1 / k1^2
    sheet 2:  w1' = -dk2 / k2^2,               w2' = (1 - k1/k2) w1

Each closed form (coframe, fundamental quantities, Pfaffian derivatives)
is written once, as sheet 1's, and gives sheet 2 by the relabelling rule of
docs/derivations.md: `_relabelled` swaps the inputs 1 <-> 2 and
`_in_sheet_order` reverses each pair.  Every formula reads k_i, nabla k_i and
nabla_i k_i from `decisions.own_curvature`.

Everything here divides by nabla_1 k1 (sheet 1) or nabla_2 k2 (sheet 2).
Where that derivative vanishes the sheet degenerates toward a curve (canal
case), and every public sheet entry point refuses it through
`decisions.check_canal`, which raises at a point only.  On a batch
`FramePoint` the formulas run everywhere; `classify.defect_report` marks
the canal points in their status and `mesh.export_obj` drops them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import jet as jt
from .decisions import (DEFAULT_TOLERANCES, ToleranceSet, canal_threshold,
                        check_canal, is_canal, own_curvature)
from .frames import FramePoint
from .geometry import PrincipalData, vdot

__all__ = [
    # the canal decisions, re-exported from `decisions`
    "canal_threshold", "is_canal", "check_canal", "own_curvature",
    "CentralPoint", "CentralFundamentals", "base_coframe_matrix",
    "focal_coframe_matrix", "central_point",
    "central_ii_oracle", "central_pfaffian", "connection_gradient",
    "isothermic_divergence", "divergence_closed_form", "divergence_scale",
    "w_jacobian",
]


def _relabelled(fp: FramePoint, sheet: int):
    """(k_i, k_other, q1, q2, nabla k_i) for a sheet-1 closed form; for
    sheet 2 relabelled 1 <-> 2, which reverses the orientation of (e1, e2)
    and so turns (q1, q2) into (-q2, -q1)."""
    k, grad_k, _ = own_curvature(fp, sheet)
    if sheet == 1:
        return k, fp.k2, fp.q1, fp.q2, grad_k
    return k, fp.k1, -fp.q2, -fp.q1, grad_k[::-1]


def _in_sheet_order(pair, sheet: int):
    """`pair` reversed for sheet 2: a base pair relabelled, or a sheet pair
    in the order of sheet 2's frame {e3, e1; e2}."""
    return pair if sheet == 1 else pair[::-1]


def _matrix(rows) -> np.ndarray:
    """The 2x2 matrix of two rows of numbers; of entries of shape S, the
    stack of shape S + (2, 2)."""
    m = np.stack(np.broadcast_arrays(*rows[0], *rows[1]), axis=-1)
    return m.reshape(m.shape[:-1] + (2, 2))


# The 2x2 algebra is written out on the entries: `@` and np.linalg run the
# BLAS and LAPACK kernels that OpenBLAS picks for the CPU, whose last bits
# differ from kernel to kernel.

def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b of stacks of 2x2 matrices, shape S + (2, 2)."""
    return _matrix([[a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
                     for j in (0, 1)] for i in (0, 1)])


def _inverse(m: np.ndarray) -> np.ndarray:
    """The inverse of a stack of 2x2 matrices by the adjugate over the
    determinant."""
    a, b, c, d = (m[..., i, j] for i in (0, 1) for j in (0, 1))
    det = a * d - b * c
    return _matrix(((d / det, -b / det), (-c / det, a / det)))


def base_coframe_matrix(pd: PrincipalData) -> np.ndarray:
    """Rows = (w1, w2) as covectors over (du, dv): w_i = <e_i, .> via the
    first fundamental form."""
    E, F, G = pd.E.value, pd.F.value, pd.G.value
    xi1, eta1 = pd.xi1.value, pd.eta1.value
    xi2, eta2 = pd.xi2.value, pd.eta2.value
    return _matrix(((E * xi1 + F * eta1, F * xi1 + G * eta1),
                    (E * xi2 + F * eta2, F * xi2 + G * eta2)))


def focal_coframe_matrix(fp: FramePoint, sheet: int) -> np.ndarray:
    """Rows = (w1', w2') of the sheet's coframe over the base (w1, w2);
    relabelling reverses both the rows and the base columns."""
    k, k_other, _, _, (d1, d2) = _relabelled(fp, sheet)
    k_sq = jt.power(k, 2)
    rows = ((0.0, (k - k_other) / k), (-d1 / k_sq, -d2 / k_sq))
    return _matrix(_in_sheet_order(
        [_in_sheet_order(row, sheet) for row in rows], sheet))


@dataclass
class CentralPoint:
    """Closed-form data of one focal sheet at one base point."""
    y: np.ndarray                 # ambient position of the focal point
    a: float
    b: float
    c: float
    q1: float                     # connection coefficients in the sheet frame
    q2: float


def central_point(fp: FramePoint, sheet: int,
                  tol: ToleranceSet = DEFAULT_TOLERANCES) -> CentralPoint:
    """Fundamental quantities of focal sheet `sheet` from the closed forms.

    a, b, c are the coefficients of the sheet's second fundamental form in
    its adapted coframe; q1, q2 its connection coefficients, (Q, 0) on
    sheet 1 with Q = k1 k2 / (k1 - k2).  The relabelling negates both Q and
    the sheet's coefficients, so Q is taken as is."""
    check_canal(fp, sheet, tol)
    k, k_other, q1, q2, (d1k, d2k) = _relabelled(fp, sheet)
    a = k * (q1 * d2k - q2 * d1k) / ((k - k_other) * d1k)
    b = q1 * jt.power(k, 2) / d1k
    c = jt.power(k, 3) / d1k
    a, c = _in_sheet_order((a, c), sheet)
    q1c, q2c = _in_sheet_order((fp.k1 * fp.k2 / (fp.k1 - fp.k2), 0.0), sheet)

    inv_k = 1.0 / k
    y = np.array([p + inv_k * n for p, n in zip(fp.x, fp.e3)])
    return CentralPoint(y=y, a=a, b=b, c=c, q1=q1c, q2=q2c)


@dataclass
class CentralFundamentals:
    """Direct (oracle) computation of a focal sheet's fundamental data."""
    a: float
    b: float
    c: float
    q1: float
    q2: float
    coframe_uv: np.ndarray         # (w1', w2') over (du, dv) via the coframe
    coframe_uv_projected: np.ndarray  # same, via <dy, frame vector>


def central_ii_oracle(fp: FramePoint, sheet: int,
                      tol: ToleranceSet = DEFAULT_TOLERANCES) -> CentralFundamentals:
    """Second fundamental form and connection of a focal sheet computed
    directly from the jets of its position field, bypassing the closed
    forms entirely.  The sheet's normal is e1 (sheet 1) or e2 (sheet 2).

    Reads the jets of `fp.pd`, differentiated once past the curvature:
    third derivatives of the position, so a frame of `jt.OUTPUT_ORDER`
    gives the bits of one of `jt.MAX_ORDER` (the samples of `checks`).
    Every field has the frame's shape and each point's bits; a batch
    passes `check_canal`, and its canal columns (singular coframes) read NaN.
    """
    pd, sj = fp.pd, fp.pd.sj
    canal = check_canal(fp, sheet, tol)

    # the sheet frame {first, second; normal}
    k_jet, first, second, normal = ((pd.k1, pd.e2, pd.e3, pd.e1) if sheet == 1
                                    else (pd.k2, pd.e3, pd.e1, pd.e2))

    inv_k = 1.0 / k_jet
    y = sj.pos + inv_k * pd.e3

    y_u, y_v = y.du(), y.dv()
    n_u, n_v = normal.du(), normal.dv()

    t_uu = -vdot(y_u, n_u).value
    t_vv = -vdot(y_v, n_v).value
    t_uv = -0.5 * (vdot(y_u, n_v).value + vdot(y_v, n_u).value)
    t_mat = _matrix(((t_uu, t_uv), (t_uv, t_vv)))

    # sheet coframe over (du, dv): closed-form rows composed with the base
    # coframe, and independently by projecting dy on the sheet frame
    omega = base_coframe_matrix(pd)
    p_uv = _matmul(focal_coframe_matrix(fp, sheet), omega)
    p_proj = _matrix(((vdot(y_u, first).value, vdot(y_v, first).value),
                      (vdot(y_u, second).value, vdot(y_v, second).value)))

    p_live = np.where(np.expand_dims(canal, (-2, -1)), np.nan, p_uv)
    p_inv = _inverse(p_live)
    form = _matmul(_matmul(np.swapaxes(p_inv, -1, -2), t_mat), p_inv)

    # sheet connection form w12' = <d(first), second> over (du, dv),
    # re-expressed in the sheet coframe: q = P^-T w
    f_u, f_v = first.du(), first.dv()
    w_u, w_v = vdot(f_u, second).value, vdot(f_v, second).value
    q1, q2 = (p_inv[..., 0, i] * w_u + p_inv[..., 1, i] * w_v for i in (0, 1))

    return CentralFundamentals(
        form[..., 0, 0], 0.5 * (form[..., 0, 1] + form[..., 1, 0]),
        form[..., 1, 1], q1, q2,
        coframe_uv=p_uv, coframe_uv_projected=p_proj)


def central_pfaffian(fp: FramePoint, grad_f: Tuple[float, float],
                     sheet: int,
                     tol: ToleranceSet = DEFAULT_TOLERANCES) -> Tuple[float, float]:
    """Pfaffian derivatives of a base-surface field along the focal sheet's
    coordinate curves, from its base derivatives grad_f = (nabla_1 f,
    nabla_2 f).

    Sheet 1:  nabla_1' f = k1 (nabla_1 k1 nabla_2 f - nabla_2 k1 nabla_1 f)
                           / ((k1 - k2) nabla_1 k1)
              nabla_2' f = -k1^2 nabla_1 f / nabla_1 k1
    Relabelling reverses grad_f and the two components.
    """
    check_canal(fp, sheet, tol)
    k, k_other, _, _, (d1k, d2k) = _relabelled(fp, sheet)
    d1f, d2f = _in_sheet_order(grad_f, sheet)
    return _in_sheet_order(
        (k * (d1k * d2f - d2k * d1f) / ((k - k_other) * d1k),
         -jt.power(k, 2) * d1f / d1k), sheet)


def connection_gradient(fp: FramePoint) -> Tuple[float, float]:
    """Base Pfaffian gradient of Q = k1 k2 / (k1 - k2), the nonvanishing
    focal connection coefficient, by the chain rule:
    nabla Q = (k1^2 nabla k2 - k2^2 nabla k1) / (k1 - k2)^2."""
    k1_sq, k2_sq = jt.power(fp.k1, 2), jt.power(fp.k2, 2)
    gap_sq = jt.power(fp.k1 - fp.k2, 2)
    (d1k1, d2k1), (d1k2, d2k2) = fp.grad_k1, fp.grad_k2
    return ((k1_sq * d1k2 - k2_sq * d1k1) / gap_sq,
            (k1_sq * d2k2 - k2_sq * d2k1) / gap_sq)


def isothermic_divergence(fp: FramePoint, grad_q: Tuple[float, float],
                          sheet: int,
                          tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Divergence nabla_1' q1' + nabla_2' q2' of the focal sheet's
    connection coefficients from grad_q = nabla Q (`connection_gradient`
    or jet-built); its vanishing is the isothermic criterion for the
    sheet's coordinate net.

    One coefficient vanishes identically per sheet, so only one term
    survives: sheet 1 -> nabla_1' Q, sheet 2 -> nabla_2' Q.
    """
    return central_pfaffian(fp, grad_q, sheet, tol)[sheet - 1]


def w_jacobian(fp: FramePoint) -> float:
    """Raw Jacobian determinant of (k1, k2) under (nabla_1, nabla_2)."""
    return (fp.grad_k1[0] * fp.grad_k2[1] - fp.grad_k1[1] * fp.grad_k2[0])


def divergence_closed_form(fp: FramePoint, sheet: int,
                           tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Closed form of the divergence: k_i^3 J / ((k1 - k2)^3 nabla_i k_i)
    with J the (k1, k2) Jacobian.  The k_i^3 power is forced by the closed
    forms of the sheet connection and derivatives (see docs/derivations.md);
    a k_i^2 variant fails by exactly one factor of k_i."""
    check_canal(fp, sheet, tol)
    k, _, own = own_curvature(fp, sheet)
    jac = w_jacobian(fp)
    gap = fp.k1 - fp.k2
    return jt.power(k, 3) * jac / (jt.power(gap, 3) * own)


def divergence_scale(fp: FramePoint, sheet: int,
                     tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Magnitude scale of the divergence's constituent terms: the closed
    form with every product taken in absolute value.  The right yardstick
    for divergence residuals — on surfaces whose curvatures are functionally
    dependent the Jacobian cancels to machine noise, so the result itself
    is a useless scale."""
    check_canal(fp, sheet, tol)
    k, _, own = own_curvature(fp, sheet)
    num = (abs(fp.grad_k1[0] * fp.grad_k2[1])
           + abs(fp.grad_k1[1] * fp.grad_k2[0]))
    gap = abs(fp.k1 - fp.k2)
    return jt.power(abs(k), 3) * num / (jt.power(gap, 3) * abs(own))
