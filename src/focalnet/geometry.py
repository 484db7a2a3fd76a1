"""First/second fundamental forms, principal curvatures and directions.

Everything is computed on jets, so downstream consumers can take exact
directional derivatives of any derived field (curvatures, frame vectors,
connection coefficients) without finite differencing.

The pipeline is generic: no assumption that (u, v) are curvature-line or
even orthogonal coordinates.  Degeneracies are decided in a fixed order:
non-immersion point, near-umbilic (parabolic if a curvature vanishes
there, else umbilic), then parabolic.  At S = () (one point, see `jet`)
the first one raises its typed exception.  With a batch axis every point
is computed on its own column, each branch becomes a per-point mask taken
in that same order, after a first one for the points whose surface jet is
not finite (their JetDomainError), and `PrincipalData.failed` keeps per
point the class of the exception it would raise; no exception is built
for a batch point.  Every threshold scale squares through `jt.power`, so
a batch column's thresholds have its point's bits, and a square that
overflows is inf at both shapes.  No test `value <= bound` holds for a
NaN value, so a frame that overflows past them is failed later, by
`frames.frame_point_from_pd`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import jet as jt
from .errors import (DegenerateParametrization, JetDomainError,
                     ParabolicPoint, UmbilicPoint)
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "SurfaceJet", "PrincipalData", "eval_surface", "principal_data",
    "flipped_principal", "vdot", "vcross", "vcomb",
]

Vec3 = Tuple[jt.Jet4, jt.Jet4, jt.Jet4]


def vdot(a: Vec3, b: Vec3) -> jt.Jet4:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vcross(a: Vec3, b: Vec3) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def vcomb(s: jt.Jet4, a: Vec3, t: jt.Jet4, b: Vec3) -> Vec3:
    """s*a + t*b componentwise."""
    return (s * a[0] + t * b[0], s * a[1] + t * b[1], s * a[2] + t * b[2])


def _vdu(a: Vec3) -> Vec3:
    return (a[0].du(), a[1].du(), a[2].du())


def _vdv(a: Vec3) -> Vec3:
    return (a[0].dv(), a[1].dv(), a[2].dv())


def _vscale(a: Vec3, s) -> Vec3:
    return (a[0] * s, a[1] * s, a[2] * s)


@dataclass
class SurfaceJet:
    """Jets of the position map at one parameter point, or at N points when
    u and v are arrays of shape (N,) (see `eval_surface`), all three of the
    valid order `eval_surface` was asked for."""
    u: float
    v: float
    x: jt.Jet4
    y: jt.Jet4
    z: jt.Jet4

    @property
    def pos(self) -> Vec3:
        return (self.x, self.y, self.z)


def eval_surface(prog, u, v, order: int = jt.OUTPUT_ORDER) -> SurfaceJet:
    """Jets of the position at (u, v), of valid order `order`: the outputs'
    order, `jt.MAX_ORDER` for a check that differentiates the frame twice.
    With floats an undefined point raises JetDomainError; with arrays u, v
    of shape (N,) the jets carry a batch axis, nothing raises, and an
    undefined point leaves its column non-finite (every column, where the
    whole evaluation fails)."""
    if np.ndim(u) == 0:
        return SurfaceJet(float(u), float(v), *prog.jets(u, v, order))
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return SurfaceJet(u, v, *prog.jets(u, v, order))


@dataclass
class PrincipalData:
    """Orthonormal curvature-line frame and principal curvatures as jets.

    e1/e2 are the principal directions for k1/k2 (k1 >= k2 by value), e3 the
    unit normal along normalize(xu x xv).  (xi_i, eta_i) are the coordinate
    components of e_i: e_i = xi_i * xu + eta_i * xv.  The e1 sign is
    canonicalized (first ambient component above the sign tolerance is
    positive) and e2 = e3 x e1 keeps the frame right-handed.

    With a batch axis, `failed` holds per point the class of the exception
    that `eval_surface` or `principal_data` raises for it at S = (), else
    None; the jet columns of failed points hold meaningless values.
    """
    sj: SurfaceJet
    E: jt.Jet4
    F: jt.Jet4
    G: jt.Jet4
    xu: Vec3
    xv: Vec3
    e3: Vec3
    k1: jt.Jet4
    k2: jt.Jet4
    xi1: jt.Jet4
    eta1: jt.Jet4
    xi2: jt.Jet4
    eta2: jt.Jet4
    e1: Vec3
    e2: Vec3
    failed: Optional[np.ndarray] = None


class _Failures:
    """The first failure of each point, in check order.  At S = () it
    raises; with a batch axis its class is recorded per point, starting
    with JetDomainError where the surface jet is not finite."""

    def __init__(self, sj: SurfaceJet):
        self.sj = sj
        self.kinds = None
        if np.ndim(sj.u):
            self.kinds = np.full(np.shape(sj.u), None, dtype=object)
            self.record(~jt.finite(sj.pos), JetDomainError, None)

    def record(self, mask, kind, message) -> None:
        """Fail the points where `mask` holds with `kind`, at S = () by
        raising it with the text that `message` returns."""
        if self.kinds is None:
            if mask:
                raise kind(f"{message()} at (u, v) = {(self.sj.u, self.sj.v)}")
            return
        self.kinds[mask & np.equal(self.kinds, None)] = kind


def principal_data(sj: SurfaceJet,
                   tol: ToleranceSet = DEFAULT_TOLERANCES) -> PrincipalData:
    """The principal frame and curvatures.  At S = () a degenerate point
    raises, in the order of the module docstring; with a batch axis every
    point is computed and each degenerate one has its exception class in
    `failed`."""
    failures = _Failures(sj)
    xu, xv = _vdu(sj.pos), _vdv(sj.pos)
    E, F, G = vdot(xu, xu), vdot(xu, xv), vdot(xv, xv)
    W2 = E * G - F * F
    trace_scale = jt.power(E.value + G.value, 2)
    failures.record(W2.value <= tol.metric * trace_scale,
                    DegenerateParametrization,
                    lambda: f"EG - F^2 = {W2.value:.3e}")
    inv_w = 1.0 / jt.sqrt(W2)
    e3 = _vscale(vcross(xu, xv), inv_w)

    xuu, xuv, xvv = _vdu(xu), _vdv(xu), _vdv(xv)
    L, M, N = vdot(xuu, e3), vdot(xuv, e3), vdot(xvv, e3)

    inv_w2 = 1.0 / W2
    s11 = (G * L - F * M) * inv_w2
    s12 = (G * M - F * N) * inv_w2
    s21 = (E * M - F * L) * inv_w2
    s22 = (E * N - F * M) * inv_w2

    h = (s11 + s22) * 0.5
    kgauss = s11 * s22 - s12 * s21
    disc = h * h - kgauss
    gap_scale = (4 * jt.power(abs(h.value), 2) + 4 * abs(disc.value)
                 + tol.curvature_floor ** 2)
    # (k1 - k2)^2 = 4 disc; at a near-umbilic point k1 = k2 = h, and the
    # squared curvature scale decides whether that point is parabolic.
    # It is the only umbilic test: past it the roots are real, so
    # (|k1| + |k2| + floor)^2 = (2 max(|h|, sqrt(disc)) + floor)^2 <=
    # 2 gap_scale, and (k1 - k2)^2 <= umbilic (|k1| + |k2| + floor)^2
    # would need disc <= (umbilic / 2) gap_scale, where `near` holds.
    near = disc.value <= tol.umbilic * gap_scale
    near_scale = jt.power(abs(h.value) + abs(h.value) + tol.curvature_floor, 2)
    failures.record(near & (abs(kgauss.value) <= tol.parabolic * near_scale),
                    ParabolicPoint, lambda: "principal curvature vanishes")
    failures.record(near, UmbilicPoint, lambda: f"k1 == k2 = {h.value:.6g}")

    root = jt.sqrt(disc)
    k1 = h + root
    k2 = h - root
    k1v, k2v = k1.value, k2.value
    scale = jt.power(abs(k1v) + abs(k2v) + tol.curvature_floor, 2)
    failures.record(abs(k1v * k2v) <= tol.parabolic * scale,
                    ParabolicPoint, lambda: "principal curvature vanishes")

    # Eigenvector of the shape operator for k1: two algebraic candidates;
    # keep the better-conditioned one (larger ambient norm at the point,
    # the first one on a tie).
    cand_a = (s12, k1 - s11)
    cand_b = (k1 - s22, s21)

    def _norm2_value(xi, eta):
        xv_, ev_ = xi.value, eta.value
        return (E.value * xv_ * xv_ + 2 * F.value * xv_ * ev_
                + G.value * ev_ * ev_)

    take_b = _norm2_value(*cand_b) > _norm2_value(*cand_a)
    xi1 = jt.where(take_b, cand_b[0], cand_a[0])
    eta1 = jt.where(take_b, cand_b[1], cand_a[1])
    norm = jt.sqrt(E * (xi1 * xi1) + F * (2 * (xi1 * eta1)) + G * (eta1 * eta1))
    inv_norm = 1.0 / norm
    xi1, eta1 = xi1 * inv_norm, eta1 * inv_norm
    e1 = vcomb(xi1, xu, eta1, xv)

    # The first ambient component of e1 above the sign tolerance decides.
    decided = flipped = np.zeros(k1.c.shape[1:], dtype=bool)
    for comp in e1:
        here = (abs(comp.value) > tol.sign) & ~decided
        flipped = flipped | (here & (comp.value < 0))
        decided = decided | here
    if flipped.any():
        xi1, eta1 = (jt.where(flipped, -xi1, xi1),
                     jt.where(flipped, -eta1, eta1))
        e1 = tuple(jt.where(flipped, -c, c) for c in e1)

    # e2 = e3 x e1; its coordinate components come from rotating (xi1, eta1)
    # by 90 degrees in the tangent plane.
    xi2 = (F * xi1 + G * eta1) * (-1) * inv_w
    eta2 = (E * xi1 + F * eta1) * inv_w
    e2 = vcross(e3, e1)

    return PrincipalData(sj=sj, E=E, F=F, G=G, xu=xu, xv=xv, e3=e3,
                         k1=k1, k2=k2, xi1=xi1, eta1=eta1, xi2=xi2,
                         eta2=eta2, e1=e1, e2=e2, failed=failures.kinds)


def flipped_principal(pd: PrincipalData, mask=True) -> PrincipalData:
    """The same frame with e1 -> -e1, e2 -> -e2 (orientation preserved)
    where `mask` (of shape S) holds, by default everywhere.  Used to check
    that downstream quantities transform consistently, and to continue the
    e1 sign from a reference frame."""
    neg = lambda jet: jt.where(mask, -jet, jet)
    return PrincipalData(
        sj=pd.sj, E=pd.E, F=pd.F, G=pd.G, xu=pd.xu, xv=pd.xv,
        e3=pd.e3, k1=pd.k1, k2=pd.k2,
        xi1=neg(pd.xi1), eta1=neg(pd.eta1), xi2=neg(pd.xi2),
        eta2=neg(pd.eta2), e1=tuple(map(neg, pd.e1)),
        e2=tuple(map(neg, pd.e2)), failed=pd.failed)
