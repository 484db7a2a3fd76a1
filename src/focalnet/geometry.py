"""First/second fundamental forms, principal curvatures and directions.

Everything is computed on jets, so downstream consumers can take exact
directional derivatives of any derived field (curvatures, frame vectors,
connection coefficients) without finite differencing.

A vector is one vector jet (see `jet`): the position `SurfaceJet.pos`,
xu, xv and the frame e1, e2, e3.  `vdot`, `vcross` and `vcomb` are one
jet product each, and `principal_data` forms its scalar terms the same
way, in stacks: E, F, G from one product of the gradient (xu, xv) with
itself, L, M, N from one of the Hessian with e3, the shape operator's
eight terms in one and its four entries in another.  Each product keeps
the operand order and each sum the left-to-right order of the formula
on components, so every value has the bits of that formula.

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
from typing import Optional

import numpy as np

from . import jet as jt
from .errors import (DegenerateParametrization, JetDomainError,
                     ParabolicPoint, UmbilicPoint)
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "SurfaceJet", "PrincipalData", "eval_surface", "principal_data",
    "flipped_principal", "vdot", "vcross", "vcomb", "components",
]

def vdot(a: jt.Jet4, b: jt.Jet4) -> jt.Jet4:
    """<a, b> of two vector jets: one product, its components summed left
    to right."""
    return jt.dots(a, _XYZ, b, _XYZ).component(0)


def vcross(a: jt.Jet4, b: jt.Jet4) -> jt.Jet4:
    """a x b of two vector jets: the six products a[i] b[j] and a[j] b[i]
    in one, then their differences."""
    return _paired(jt.products(a, _CROSS_A, b, _CROSS_B), np.subtract)


_XYZ = (0, 1, 2)
# components of the products a[i] b[j], a[j] b[i] of each entry of `vcross`
_CROSS_A = (1, 2, 2, 0, 0, 1)
_CROSS_B = (2, 1, 0, 2, 1, 0)


def vcomb(s: jt.Jet4, a: jt.Jet4, t: jt.Jet4, b: jt.Jet4) -> jt.Jet4:
    """s*a + t*b of scalar jets s, t and vector jets a, b."""
    return s * a + t * b


def _dots(*pairs) -> jt.Jet4:
    """The vector jet of <a, b> for each pair (a, b) of vector jets; the
    left vectors share a valid order, and so do the right ones."""
    left, right = (jt.Jet4(np.concatenate([v.c for v in vs], axis=1),
                           vs[0].valid_order) for vs in zip(*pairs))
    every = tuple(range(3 * len(pairs)))
    return jt.dots(left, every, right, every)


def _paired(p: jt.Jet4, op) -> jt.Jet4:
    """The vector jet of op(p[2i], p[2i + 1]) for each pair of components
    of p (op is np.add or np.subtract)."""
    return jt.Jet4(op(p.c[:, 0::2], p.c[:, 1::2]), p.valid_order)


def components(vec: jt.Jet4) -> tuple:
    """The values of a vector jet's components: three floats at a point,
    three arrays of shape S in a batch (views of one copy)."""
    value = vec.c[0]
    return tuple(value.tolist()) if value.ndim == 1 else tuple(value.copy())


@dataclass
class SurfaceJet:
    """Jets of the position map at one parameter point, or at N points when
    u and v are arrays of shape (N,) (see `eval_surface`): `pos` is one
    vector jet of the valid order `eval_surface` was asked for, and x, y, z
    its components."""
    u: float
    v: float
    pos: jt.Jet4

    @property
    def x(self) -> jt.Jet4:
        return self.pos.component(0)

    @property
    def y(self) -> jt.Jet4:
        return self.pos.component(1)

    @property
    def z(self) -> jt.Jet4:
        return self.pos.component(2)


def eval_surface(prog, u, v, order: int = jt.OUTPUT_ORDER) -> SurfaceJet:
    """Jets of the position at (u, v), of valid order `order`: the outputs'
    order, `jt.MAX_ORDER` for a check that differentiates the frame twice.
    With floats an undefined point raises JetDomainError; with arrays u, v
    of shape (N,) the jets carry a batch axis, nothing raises, and an
    undefined point leaves its column non-finite (every column, where the
    whole evaluation fails)."""
    if isinstance(u, float) or np.ndim(u) == 0:
        return SurfaceJet(float(u), float(v), jt.stack(prog.jets(u, v, order)))
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return SurfaceJet(u, v, jt.stack(prog.jets(u, v, order)))


@dataclass
class PrincipalData:
    """Orthonormal curvature-line frame and principal curvatures as jets.

    e1/e2 are the principal directions for k1/k2 (k1 >= k2 by value), e3 the
    unit normal along normalize(xu x xv).  (xi_i, eta_i) are the coordinate
    components of e_i: e_i = xi_i * xu + eta_i * xv.  The e1 sign is
    canonicalized (first ambient component above the sign tolerance is
    positive) and e2 = e3 x e1 keeps the frame right-handed.

    With `sj` of valid order r, xu and xv are of valid order r - 1 and
    every other jet of r - 2.  E, F, G and e3 are carried at the order of
    the second derivatives of the position, which is all that their
    readers here use; a caller that needs the metric or the normal one
    order higher takes it from xu and xv (`vdot`, `vcross`).

    With a batch axis, `failed` holds per point the class of the exception
    that `eval_surface` or `principal_data` raises for it at S = (), else
    None; the jet columns of failed points hold meaningless values.
    """
    sj: SurfaceJet
    E: jt.Jet4
    F: jt.Jet4
    G: jt.Jet4
    xu: jt.Jet4
    xv: jt.Jet4
    e3: jt.Jet4
    k1: jt.Jet4
    k2: jt.Jet4
    xi1: jt.Jet4
    eta1: jt.Jet4
    xi2: jt.Jet4
    eta2: jt.Jet4
    e1: jt.Jet4
    e2: jt.Jet4
    failed: Optional[np.ndarray] = None


class _Failures:
    """The first failure of each point, in check order.  At S = () it
    raises; with a batch axis its class is recorded per point, starting
    with JetDomainError where the surface jet is not finite."""

    def __init__(self, sj: SurfaceJet):
        self.sj = sj
        self.kinds = None
        if not isinstance(sj.u, float) and np.ndim(sj.u):
            self.kinds = np.full(np.shape(sj.u), None, dtype=object)
            self.record(~np.isfinite(sj.pos.c).all(axis=(0, 1)),
                        JetDomainError, None)

    def record(self, mask, kind, message) -> None:
        """Fail the points where `mask` holds with `kind`, at S = () by
        raising it with the text that `message` returns."""
        if self.kinds is None:
            if mask:
                raise kind(f"{message()} at (u, v) = {(self.sj.u, self.sj.v)}")
            return
        self.kinds[mask & np.equal(self.kinds, None)] = kind


# Component lists of the stacked products of `principal_data`.  In the
# gradient (xu, xv) and the Hessian (xuu, xvu, xuv, xvv) of the position:
# the terms of E, F, G and of L, M, N against e3.  In (E, F, G), (L, M, N),
# s = (s11, s12, s21, s22) and (xi1, eta1): the shape operator's terms
# (G L, F M, G M, F N, E M, F L, E N, F M), its determinant's (s11 s22,
# s12 s21), the norm's (xi1^2, xi1 eta1, eta1^2) and the rotation's
# (F xi1, G eta1, E xi1, F eta1).
_FIRST_A, _FIRST_B = (0, 1, 2, 0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5, 3, 4, 5)
_SECOND_A, _SECOND_B = (0, 1, 2, 6, 7, 8, 9, 10, 11), (0, 1, 2) * 3
_SHAPE_EFG, _SHAPE_LMN = (2, 1, 2, 1, 0, 1, 0, 1), (0, 1, 1, 2, 1, 0, 2, 1)
_DET_A, _DET_B = (0, 1), (3, 2)
_QUAD_A, _QUAD_B = (0, 0, 1), (0, 1, 1)
_ROT_EFG, _ROT_XE = (1, 2, 0, 1), (0, 1, 0, 1)


def principal_data(sj: SurfaceJet,
                   tol: ToleranceSet = DEFAULT_TOLERANCES) -> PrincipalData:
    """The principal frame and curvatures.  At S = () a degenerate point
    raises, in the order of the module docstring; with a batch axis every
    point is computed and each degenerate one has its exception class in
    `failed`."""
    failures = _Failures(sj)
    grad = sj.pos.gradient()
    xu, xv = grad.split(3)
    # Every reader of the metric and the normal meets them in a product
    # with second derivatives of the position, so they are carried at the
    # order of those (the same bits in fewer slots).
    low = grad.cut(max(grad.valid_order - 1, 0))
    efg = jt.dots(low, _FIRST_A, low, _FIRST_B)
    E, F, G = efg.split()
    W2 = E * G - F * F
    trace_scale = jt.power(E.value + G.value, 2)
    failures.record(W2.value <= tol.metric * trace_scale,
                    DegenerateParametrization,
                    lambda: f"EG - F^2 = {W2.value:.3e}")
    inv_w = 1.0 / jt.sqrt(W2)
    e3 = vcross(*low.split(3)) * inv_w

    lmn = jt.dots(grad.gradient(), _SECOND_A, e3, _SECOND_B)

    # The shape operator (G L - F M, G M - F N, E M - F L, E N - F M) / W2:
    # its eight products in one, then its four entries in another.
    s = (_paired(jt.products(efg, _SHAPE_EFG, lmn, _SHAPE_LMN), np.subtract)
         * (1.0 / W2))
    s11, s12, s21, s22 = s.split()

    h = (s11 + s22) * 0.5
    kgauss = _paired(jt.products(s, _DET_A, s, _DET_B),
                     np.subtract).component(0)
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
    # E xi1^2 + F 2 xi1 eta1 + G eta1^2, its three terms in one product
    xe = jt.stack((xi1, eta1))
    quad = jt.products(xe, _QUAD_A, xe, _QUAD_B)
    quad.c[:, 1] *= 2
    inv_norm = 1.0 / jt.sqrt(jt.dots(efg, _XYZ, quad, _XYZ).component(0))
    xe = xe * inv_norm
    xi1, eta1 = xe.split()
    e1 = vcomb(xi1, xu, eta1, xv)

    # The first ambient component of e1 above the sign tolerance decides.
    decided = flipped = np.zeros(k1.c.shape[1:], dtype=bool)
    for comp in e1.c[0]:
        here = (abs(comp) > tol.sign) & ~decided
        flipped = flipped | (here & (comp < 0))
        decided = decided | here
    if flipped.any():
        xe = jt.where(flipped, -xe, xe)
        xi1, eta1 = xe.split()
        e1 = jt.where(flipped, -e1, e1)

    # e2 = e3 x e1; its coordinate components come from rotating (xi1, eta1)
    # by 90 degrees in the tangent plane: (-(F xi1 + G eta1), E xi1 + F eta1)
    # / W, the four products in one and both quotients in another.
    rotated = _paired(jt.products(efg, _ROT_EFG, xe, _ROT_XE), np.add)
    rotated.c[:, 0] *= -1
    xi2, eta2 = (rotated * inv_w).split()
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
        eta2=neg(pd.eta2), e1=neg(pd.e1), e2=neg(pd.e2), failed=pd.failed)
