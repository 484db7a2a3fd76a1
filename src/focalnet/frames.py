"""Curvature-line frame data: connection coefficients, Pfaffian derivatives,
and the pointwise structure-equation residuals.

`pfaffian` differentiates a scalar jet field along the principal directions:
nabla_i f = xi_i df/du + eta_i df/dv.  Because the direction components are
jets themselves, iterating it captures the rotation of the frame, so the
commutator identity [nabla_1, nabla_2] f = -(q1 nabla_1 f + q2 nabla_2 f)
holds exactly (validated against the finite-difference oracle; see tests).

The connection coefficients q1, q2 come from differentiating the frame
vectors directly (q_i = <D_{e_i} e1, e2>), which keeps the compatibility
checks below independent of the curvature gradients they constrain.

`FramePoint` is the last layer that differentiates jets: it keeps only
float values and first Pfaffians, and the curvature jets stay reachable as
`pd.k1`/`pd.k2`.  The gradient of any curvature function g(k1, k2) follows
by the chain rule, nabla g = g_k1 nabla k1 + g_k2 nabla k2 (see
`classify.class_gradients` and `central.connection_gradient`).

`frame_points` evaluates many points in one pass, on jets with a batch axis
(see `jet`), through the same `principal_data` and `frame_point_from_pd`
as `frame_point`.  It returns each point's FramePoint, without its jets, or
the class of the exception `frame_point` would raise there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import jet as jt
from .errors import JetDomainError
from .geometry import PrincipalData, eval_surface, principal_data, vdot
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "FramePoint", "frame_point", "frame_points", "frame_point_from_pd",
    "pfaffian",
    "pfaffian_values", "check_codazzi", "codazzi_scale", "check_gauss",
    "gauss_scale", "commutator_residual",
]


def pfaffian(field: jt.Jet4, pd: PrincipalData) -> Tuple[jt.Jet4, jt.Jet4]:
    """(nabla_1 f, nabla_2 f) as jets, one order below `field`."""
    fu, fv = field.du(), field.dv()
    return (pd.xi1 * fu + pd.eta1 * fv, pd.xi2 * fu + pd.eta2 * fv)


def pfaffian_values(field: jt.Jet4, pd: PrincipalData) -> Tuple[float, float]:
    d1, d2 = pfaffian(field, pd)
    return (d1.value, d2.value)


@dataclass
class FramePoint:
    """Everything the focal-sheet and net layers need at one surface point,
    as floats; `pd` is the only jet data it holds, and `frame_points`
    entries hold none (`pd` is None).

    d2_q1 and d1_q2 are nabla_2 q1 and nabla_1 q2, the derivatives the
    Gauss equation reads.  x is the position and e1, e2, e3 the frame
    vectors, each as three ambient components.  Built from a batch
    `PrincipalData`, every float field holds an array of shape S."""
    u: float
    v: float
    pd: Optional[PrincipalData]
    k1: float
    k2: float
    q1: float
    q2: float
    grad_k1: Tuple[float, float]
    grad_k2: Tuple[float, float]
    d2_q1: float
    d1_q2: float
    x: Tuple[float, float, float]
    e1: Tuple[float, float, float]
    e2: Tuple[float, float, float]
    e3: Tuple[float, float, float]

    @property
    def point(self) -> Tuple[float, float]:
        return (self.u, self.v)


def _values(vec) -> tuple:
    return tuple(c.value for c in vec)


def frame_point_from_pd(pd: PrincipalData,
                        tol: ToleranceSet = DEFAULT_TOLERANCES) -> FramePoint:
    # q_i = <D_{e_i} e1, e2>: differentiate the ambient frame field.
    e1u = (pd.e1[0].du(), pd.e1[1].du(), pd.e1[2].du())
    e1v = (pd.e1[0].dv(), pd.e1[1].dv(), pd.e1[2].dv())
    d1_e1 = tuple(pd.xi1 * a + pd.eta1 * b for a, b in zip(e1u, e1v))
    d2_e1 = tuple(pd.xi2 * a + pd.eta2 * b for a, b in zip(e1u, e1v))
    q1_jet = vdot(d1_e1, pd.e2)
    q2_jet = vdot(d2_e1, pd.e2)

    sj = pd.sj
    return FramePoint(
        u=sj.u, v=sj.v, pd=pd,
        k1=pd.k1.value, k2=pd.k2.value,
        q1=q1_jet.value, q2=q2_jet.value,
        grad_k1=pfaffian_values(pd.k1, pd),
        grad_k2=pfaffian_values(pd.k2, pd),
        # one component of each q gradient, as in `pfaffian`
        d2_q1=(pd.xi2 * q1_jet.du() + pd.eta2 * q1_jet.dv()).value,
        d1_q2=(pd.xi1 * q2_jet.du() + pd.eta1 * q2_jet.dv()).value,
        x=_values(sj.pos), e1=_values(pd.e1), e2=_values(pd.e2),
        e3=_values(pd.e3))


def frame_point(prog, u: float, v: float,
                tol: ToleranceSet = DEFAULT_TOLERANCES) -> FramePoint:
    """The frame point at (u, v); a degenerate point raises one of
    `errors.FRAME_ERRORS`.  The code `frame_points` runs, at S = ()."""
    sj = eval_surface(prog, u, v)
    return frame_point_from_pd(principal_data(sj, tol), tol)


def frame_points(prog, us: Sequence[float], vs: Sequence[float],
                 tol: ToleranceSet = DEFAULT_TOLERANCES) -> list:
    """Frame points at the points (us[i], vs[i]), evaluated in one pass on
    jets with a batch axis.  Each entry is the FramePoint that `frame_point`
    returns for that point (without `pd`), or the class of the
    `errors.FRAME_ERRORS` exception it raises; a failure of the whole
    evaluation is JetDomainError at every point."""
    if len(us) == 0:
        return []
    # Failed points run through to the end on meaningless columns.
    with np.errstate(all="ignore"):
        try:
            sj = eval_surface(prog, us, vs)
        except JetDomainError:
            return [JetDomainError] * len(us)
        pd = principal_data(sj, tol)
        fp = frame_point_from_pd(pd, tol)
    cols = [fp.u, fp.v, fp.k1, fp.k2, fp.q1, fp.q2, *fp.grad_k1,
            *fp.grad_k2, fp.d2_q1, fp.d1_q2, *fp.x, *fp.e1, *fp.e2, *fp.e3]
    return [kind or FramePoint(
        u=c[0], v=c[1], pd=None, k1=c[2], k2=c[3], q1=c[4], q2=c[5],
        grad_k1=c[6:8], grad_k2=c[8:10], d2_q1=c[10], d1_q2=c[11],
        x=c[12:15], e1=c[15:18], e2=c[18:21], e3=c[21:24])
        for kind, c in zip(pd.failed, zip(*(a.tolist() for a in cols)))]


def check_codazzi(fp: FramePoint) -> Tuple[float, float]:
    """Raw residuals of the compatibility identities
    nabla_2 k1 = q1 (k1 - k2) and nabla_1 k2 = q2 (k1 - k2).
    Divide by `codazzi_scale` for a relative figure."""
    gap = fp.k1 - fp.k2
    return (fp.grad_k1[1] - fp.q1 * gap, fp.grad_k2[0] - fp.q2 * gap)


def codazzi_scale(fp: FramePoint) -> float:
    return (abs(fp.k1 - fp.k2) * (abs(fp.q1) + abs(fp.q2))
            + abs(fp.grad_k1[1]) + abs(fp.grad_k2[0]) + 1e-12)


def check_gauss(fp: FramePoint) -> float:
    """Raw residual of nabla_2 q1 - nabla_1 q2 = q1^2 + q2^2 + k1 k2."""
    return (fp.d2_q1 - fp.d1_q2
            - (fp.q1 ** 2 + fp.q2 ** 2 + fp.k1 * fp.k2))


def gauss_scale(fp: FramePoint) -> float:
    return (abs(fp.d2_q1) + abs(fp.d1_q2) + fp.q1 ** 2 + fp.q2 ** 2
            + abs(fp.k1 * fp.k2) + 1e-12)


def commutator_residual(fp: FramePoint, field: jt.Jet4) -> float:
    """Scale-relative residual of
    nabla_1 nabla_2 f - nabla_2 nabla_1 f = -(q1 nabla_1 f + q2 nabla_2 f)."""
    d1f, d2f = pfaffian(field, fp.pd)
    d12 = pfaffian_values(d2f, fp.pd)[0]
    d21 = pfaffian_values(d1f, fp.pd)[1]
    lhs = d12 - d21
    rhs = -(fp.q1 * d1f.value + fp.q2 * d2f.value)
    scale = abs(d12) + abs(d21) + abs(rhs) + 1e-12
    return (lhs - rhs) / scale
