"""First/second fundamental forms, principal curvatures and directions.

Everything is computed on jets, so downstream consumers can take exact
directional derivatives of any derived field (curvatures, frame vectors,
connection coefficients) without finite differencing.

The pipeline is generic: no assumption that (u, v) are curvature-line or
even orthogonal coordinates.  Degeneracies raise typed exceptions in a
fixed order: non-immersion point, then parabolic (a vanishing principal
curvature), then umbilic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import jet as jt
from .errors import (DegenerateParametrization, ParabolicPoint, UmbilicPoint)
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
    """Order-4 jets of the position map at one parameter point."""
    u: float
    v: float
    x: jt.Jet4
    y: jt.Jet4
    z: jt.Jet4

    @property
    def pos(self) -> Vec3:
        return (self.x, self.y, self.z)


def eval_surface(prog, u: float, v: float) -> SurfaceJet:
    xj, yj, zj = prog.jets(u, v)
    return SurfaceJet(float(u), float(v), xj, yj, zj)


@dataclass
class PrincipalData:
    """Orthonormal curvature-line frame and principal curvatures as jets.

    e1/e2 are the principal directions for k1/k2 (k1 >= k2 by value), e3 the
    unit normal along normalize(xu x xv).  (xi_i, eta_i) are the coordinate
    components of e_i: e_i = xi_i * xu + eta_i * xv.  The e1 sign is
    canonicalized (first ambient component above the sign tolerance is
    positive) and e2 = e3 x e1 keeps the frame right-handed.
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
    e1_flipped: bool


def principal_data(sj: SurfaceJet,
                   tol: ToleranceSet = DEFAULT_TOLERANCES) -> PrincipalData:
    point = (sj.u, sj.v)
    xu, xv = _vdu(sj.pos), _vdv(sj.pos)
    E, F, G = vdot(xu, xu), vdot(xu, xv), vdot(xv, xv)
    W2 = E * G - F * F
    trace_scale = (E.value + G.value) ** 2
    if W2.value <= tol.metric * trace_scale:
        raise DegenerateParametrization(
            f"EG - F^2 = {W2.value:.3e} at (u, v) = {point}", point)
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
    gap_scale = 4 * abs(h.value) ** 2 + 4 * abs(disc.value) + tol.curvature_floor ** 2
    if disc.value <= tol.umbilic * gap_scale:
        # (k1 - k2)^2 = 4 disc; compare against the squared curvature scale
        k1v = k2v = h.value
        scale = (abs(k1v) + abs(k2v) + tol.curvature_floor) ** 2
        if abs(kgauss.value) <= tol.parabolic * scale:
            raise ParabolicPoint(
                f"principal curvature vanishes at (u, v) = {point}", point)
        raise UmbilicPoint(
            f"k1 == k2 = {k1v:.6g} at (u, v) = {point}", point)

    root = jt.sqrt(disc)
    k1 = h + root
    k2 = h - root
    scale = (abs(k1.value) + abs(k2.value) + tol.curvature_floor) ** 2
    if abs(k1.value * k2.value) <= tol.parabolic * scale:
        raise ParabolicPoint(
            f"principal curvature vanishes at (u, v) = {point}", point)
    if (k1.value - k2.value) ** 2 <= tol.umbilic * scale:
        raise UmbilicPoint(
            f"k1 == k2 within tolerance at (u, v) = {point}", point)

    # Eigenvector of the shape operator for k1: two algebraic candidates;
    # keep the better-conditioned one (larger ambient norm at the point).
    cand_a = (s12, k1 - s11)
    cand_b = (k1 - s22, s21)

    def _norm2_value(xi, eta):
        xv_, ev_ = xi.value, eta.value
        return (E.value * xv_ * xv_ + 2 * F.value * xv_ * ev_
                + G.value * ev_ * ev_)

    xi1, eta1 = max((cand_a, cand_b), key=lambda c: _norm2_value(*c))
    norm = jt.sqrt(E * (xi1 * xi1) + F * (2 * (xi1 * eta1)) + G * (eta1 * eta1))
    inv_norm = 1.0 / norm
    xi1, eta1 = xi1 * inv_norm, eta1 * inv_norm
    e1 = vcomb(xi1, xu, eta1, xv)

    flipped = False
    for comp in e1:
        if abs(comp.value) > tol.sign:
            if comp.value < 0:
                flipped = True
            break
    if flipped:
        xi1, eta1 = -xi1, -eta1
        e1 = (-e1[0], -e1[1], -e1[2])

    # e2 = e3 x e1; its coordinate components come from rotating (xi1, eta1)
    # by 90 degrees in the tangent plane.
    xi2 = (F * xi1 + G * eta1) * (-1) * inv_w
    eta2 = (E * xi1 + F * eta1) * inv_w
    e2 = vcross(e3, e1)

    return PrincipalData(sj=sj, E=E, F=F, G=G, xu=xu, xv=xv, e3=e3,
                         k1=k1, k2=k2, xi1=xi1, eta1=eta1, xi2=xi2,
                         eta2=eta2, e1=e1, e2=e2, e1_flipped=flipped)


def flipped_principal(pd: PrincipalData) -> PrincipalData:
    """The same frame with e1 -> -e1, e2 -> -e2 (orientation preserved).
    Used to check that downstream quantities transform consistently."""
    neg = lambda vec: (-vec[0], -vec[1], -vec[2])
    return PrincipalData(
        sj=pd.sj, E=pd.E, F=pd.F, G=pd.G, xu=pd.xu, xv=pd.xv,
        e3=pd.e3, k1=pd.k1, k2=pd.k2,
        xi1=-pd.xi1, eta1=-pd.eta1, xi2=-pd.xi2, eta2=-pd.eta2,
        e1=neg(pd.e1), e2=neg(pd.e2), e1_flipped=not pd.e1_flipped)
