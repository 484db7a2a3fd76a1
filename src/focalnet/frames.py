"""Curvature-line frame data: connection coefficients, Pfaffian derivatives,
and the pointwise structure-equation residuals.

`pfaffian` differentiates a scalar jet field, or each component of a vector
jet, along the principal directions: nabla_i f = xi_i df/du + eta_i df/dv.
Because the direction components are jets themselves, iterating it
captures the rotation of the frame, so the commutator identity
[nabla_1, nabla_2] f = -(q1 nabla_1 f + q2 nabla_2 f) holds exactly
(asserted in the tests).

The connection coefficients q1, q2 come from differentiating the frame
vectors directly (q_i = <D_{e_i} e1, e2>), which keeps the compatibility
checks below independent of the curvature gradients they constrain.

`FramePoint` is the last layer that differentiates jets: it keeps only
float values and first Pfaffians, and the curvature jets stay reachable
as `pd.k1`/`pd.k2`.  `frame_point_from_pd` reads those first Pfaffians
as values (`pfaffian_values`, slot 0 of `pfaffian` computed on slots
alone): those of one vector field, (e1, k1, k2), give D_{e_i} e1 and
nabla k1, nabla k2 at once, and q_i is the dot product of D_{e_i} e1
with the value of e2, summed as `geometry._dots` sums it.  Its fields
read derivatives of the position up to the third, so `frame_point`
evaluates at `jt.OUTPUT_ORDER` by default; a check that differentiates
`pd` twice (the Gauss equation, the commutator) asks for `jt.MAX_ORDER`.
The gradient of any curvature function g(k1, k2) follows by the chain
rule, nabla g = g_k1 nabla k1 + g_k2 nabla k2 (see
`classify.class_gradients` and `central.connection_gradient`).

`frame_point` is the one frame entry, for a point and for a batch.  At
arrays u, v it evaluates every point in one pass, on jets with a batch
axis (see `jet`), through the same `principal_data` and
`frame_point_from_pd`, and returns one FramePoint of arrays, which the
classify, focal-sheet and net formulas read as it is
(`report.grid_report`, `mesh.export_obj`, the samples of `checks`).  A
batch never raises: `pd.failed` gives per point the class of the
exception the call at that point raises.  numpy runs silently at both
shapes, and a frame that overflows past every degeneracy test (a float
field not finite) fails with JetDomainError, status `degenerate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import jet as jt
from .decisions import DEFAULT_TOLERANCES, ToleranceSet
from .errors import JetDomainError, JetOrderError
from .geometry import (PrincipalData, _dots, components, eval_surface,
                       principal_data)

__all__ = [
    "FramePoint", "frame_point", "frame_point_from_pd", "pfaffian",
    "pfaffian_values", "check_codazzi", "codazzi_scale", "check_gauss",
]


def pfaffian(field: jt.Jet4, pd: PrincipalData) -> Tuple[jt.Jet4, jt.Jet4]:
    """(nabla_1 f, nabla_2 f) as jets, one order below `field`, of a scalar
    or a vector jet (one field per component)."""
    fu, fv = field.du(), field.dv()
    return (pd.xi1 * fu + pd.eta1 * fv, pd.xi2 * fu + pd.eta2 * fv)


def pfaffian_values(field: jt.Jet4, pd: PrincipalData) -> tuple:
    """The values of `pfaffian(field, pd)`, with their bits, from the
    field's slots (1, 0) and (0, 1) and the directions' values alone: at
    every order and shape a product's slot 0 is one product added to +0.0,
    and du's and dv's factor there is 1.  Floats for a scalar field at a
    point, else arrays of the field's components' shape."""
    if field.valid_order < 1:
        raise JetOrderError("cannot differentiate an order-0 jet")
    c = field.c
    fu, fv = c[1], c[2]
    d1, d2 = ((xi.c[0] * fu + 0.0) + (eta.c[0] * fv + 0.0)
              for xi, eta in ((pd.xi1, pd.eta1), (pd.xi2, pd.eta2)))
    return (float(d1), float(d2)) if c.ndim == 1 else (d1, d2)


@dataclass
class FramePoint:
    """Everything the focal-sheet and net layers need at one surface point,
    as floats; `pd` is the only jet data it holds (None once a caller done
    with the jets has released it, as grid reports and meshes do).

    q1 and q2 are the connection coefficients and grad_k1, grad_k2 the
    Pfaffian gradients of the curvatures, the highest derivatives here
    (third of the position), all read as values (`pfaffian_values`, see
    `frame_point_from_pd`).  x is the position and e1, e2, e3 the frame
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
    x: Tuple[float, float, float]
    e1: Tuple[float, float, float]
    e2: Tuple[float, float, float]
    e3: Tuple[float, float, float]

    @property
    def point(self) -> Tuple[float, float]:
        return (self.u, self.v)


def frame_point_from_pd(pd: PrincipalData,
                        tol: ToleranceSet = DEFAULT_TOLERANCES) -> FramePoint:
    """The frame point of `pd`.  A frame whose float fields are not all
    finite (an overflow past every degeneracy test) fails with
    JetDomainError: at S = () it raises, in a batch the point's `pd.failed`
    entry records it unless an earlier failure is there."""
    sj = pd.sj
    # The first Pfaffians of (e1, k1, k2) read its slots up to degree 1.
    field = jt.Jet4(np.concatenate(
        [pd.e1.c[:3], pd.k1.c[:3, None], pd.k2.c[:3, None]], axis=1),
        min(pd.k1.valid_order, 1))
    d1, d2 = pfaffian_values(field, pd)
    # q_i = <D_{e_i} e1, e2>: three products, each plus +0.0, summed left
    # to right, which are the bits of `geometry._dots` at valid order 0.
    e2 = pd.e2.c[0]
    q1, q2 = (p[0] + p[1] + p[2] for p in (d1[:3] * e2 + 0.0,
                                           d2[:3] * e2 + 0.0))
    if e2.ndim == 1:            # a point: floats
        d1, d2, q1, q2 = d1.tolist(), d2.tolist(), float(q1), float(q2)
    fp = FramePoint(
        u=sj.u, v=sj.v, pd=pd,
        k1=pd.k1.value, k2=pd.k2.value, q1=q1, q2=q2,
        grad_k1=(d1[3], d2[3]), grad_k2=(d1[4], d2[4]),
        x=components(sj.pos), e1=components(pd.e1), e2=components(pd.e2),
        e3=components(pd.e3))
    fields = [fp.k1, fp.k2, fp.q1, fp.q2, *fp.grad_k1, *fp.grad_k2, *fp.x,
              *fp.e1, *fp.e2, *fp.e3]
    if pd.failed is not None:
        finite = np.isfinite(fields).all(axis=0)
        pd.failed[~finite & np.equal(pd.failed, None)] = JetDomainError
    elif not all(map(math.isfinite, fields)):
        raise JetDomainError(f"frame not finite at (u, v) = {(sj.u, sj.v)}")
    return fp


def frame_point(prog, u, v, tol: ToleranceSet = DEFAULT_TOLERANCES,
                order: int = jt.OUTPUT_ORDER) -> FramePoint:
    """The frame point at (u, v), with `pd` of the surface jets of valid
    order `order`.  At numbers a degenerate point raises one of
    `errors.FRAME_ERRORS`.  At arrays u, v of shape (N,) it is one
    FramePoint of arrays of shape (N,) and nothing raises: `pd.failed[i]`
    is None or the class of the exception the call at point i raises, and
    that point's columns are meaningless.  numpy warns at neither."""
    sj = eval_surface(prog, u, v, order)
    # numpy runs silently: a failed batch point runs through to the end on
    # meaningless columns, and a point that overflows fails at the end.
    with np.errstate(all="ignore"):
        return frame_point_from_pd(principal_data(sj, tol), tol)


def check_codazzi(fp: FramePoint) -> Tuple[float, float]:
    """Raw residuals of the compatibility identities
    nabla_2 k1 = q1 (k1 - k2) and nabla_1 k2 = q2 (k1 - k2).
    Divide by `codazzi_scale` for a relative figure."""
    gap = fp.k1 - fp.k2
    return (fp.grad_k1[1] - fp.q1 * gap, fp.grad_k2[0] - fp.q2 * gap)


def codazzi_scale(fp: FramePoint) -> float:
    return (abs(fp.k1 - fp.k2) * (abs(fp.q1) + abs(fp.q2))
            + abs(fp.grad_k1[1]) + abs(fp.grad_k2[0]) + 1e-12)


def check_gauss(fp: FramePoint) -> Tuple[float, float]:
    """(raw residual, scale) of the Gauss equation
    nabla_2 q1 - nabla_1 q2 = q1^2 + q2^2 + k1 k2; divide the residual by
    the scale for a relative figure.  nabla_2 q1 and nabla_1 q2 (one
    component of each q gradient, by `pfaffian_values`) are fourth
    derivatives of the position, so `fp.pd` must be of `jt.MAX_ORDER`."""
    pd = fp.pd
    # q_i = <D_{e_i} e1, e2> as jets
    d1, d2 = pfaffian(pd.e1, pd)
    q1, q2 = _dots((d1, pd.e2), (d2, pd.e2)).split()
    d2_q1 = pfaffian_values(q1, pd)[1]
    d1_q2 = pfaffian_values(q2, pd)[0]
    q1_sq, q2_sq = jt.power(fp.q1, 2), jt.power(fp.q2, 2)
    return (d2_q1 - d1_q2 - (q1_sq + q2_sq + fp.k1 * fp.k2),
            abs(d2_q1) + abs(d1_q2) + q1_sq + q2_sq + abs(fp.k1 * fp.k2)
            + 1e-12)

