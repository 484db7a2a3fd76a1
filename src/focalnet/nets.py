"""Quadratic direction nets A w1^2 + 2B w1 w2 + C w2^2 = 0 in the principal
coframe, their spherical images, and the defect predicates.

All defect formulas are projective (root-free) and homogeneous of degree 1
in (A, B, C) after normalization by max(|A|, |B|, |C|) + floor, so nothing
blows up when a leading coefficient vanishes.  In the orthonormal coframe,
orthogonality of the direction pair is A + C = 0; conjugacy with respect to
the diagonal second fundamental form k1 w1^2 + k2 w2^2 is k2 A + k1 C = 0;
the pair is real iff B^2 - AC >= 0.

A `NetForm` is (A, B, C) and a label, and the label says which coframe the
coefficients are in.  "13"/"14" are the focal-sheet asymptotic nets pulled
back to the base surface and "17"/"18" the focal-sheet curvature-line nets
pulled back, all in (w1, w2); "15"/"16" and "sph17"/"sph18" are their
spherical images, in (w31, w32).  Each builder states its net once for both
sheets; `NETS` maps each pulled-back net's label to its builder and sheet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jet as jt
from .central import check_canal, own_curvature
from .errors import DegenerateNetError, ImaginaryNetError
from .frames import FramePoint
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "NetForm", "NETS", "net_asymptotic_pullback", "net_curvature_pullback",
    "spherical_image", "orthogonality_defect", "conjugacy_defect",
    "reality_discriminant", "net_directions", "net_norm",
]

_NORM_FLOOR = 1e-30
# Discriminant and zero tolerance of `net_directions` on the normalized net.
_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class NetForm:
    a: float
    b: float
    c: float
    label: str

    def triple(self):
        return (self.a, self.b, self.c)


def net_norm(net: NetForm) -> float:
    return (jt.largest(jt.largest(abs(net.a), abs(net.b)), abs(net.c))
            + _NORM_FLOOR)


def net_asymptotic_pullback(fp: FramePoint, sheet: int,
                            tol: ToleranceSet = DEFAULT_TOLERANCES) -> NetForm:
    """Asymptotic directions of focal sheet i pulled back to the base:
    nabla_i k1 w1^2 - nabla_i k2 w2^2 = 0 (net "13" or "14")."""
    check_canal(fp, sheet, tol)
    i = sheet - 1
    return NetForm(fp.grad_k1[i], 0.0, -fp.grad_k2[i], ("13", "14")[i])


def net_curvature_pullback(fp: FramePoint, sheet: int,
                           tol: ToleranceSet = DEFAULT_TOLERANCES) -> NetForm:
    """Curvature lines of focal sheet i pulled back to the base surface
    (net "17" or "18"): with (d1, d2) = nabla k_i,
    q1 d1 w1^2 + (k_i^2 (k1 - k2) + q2 d1 + q1 d2) w1 w2 + q2 d2 w2^2 = 0."""
    check_canal(fp, sheet, tol)
    k, (d1, d2), _ = own_curvature(fp, sheet)
    k1, k2, q1, q2 = fp.k1, fp.k2, fp.q1, fp.q2
    two_b = jt.power(k, 2) * (k1 - k2) + q2 * d1 + q1 * d2
    return NetForm(q1 * d1, 0.5 * two_b, q2 * d2, ("17", "18")[sheet - 1])


NETS = {"13": (net_asymptotic_pullback, 1), "14": (net_asymptotic_pullback, 2),
        "17": (net_curvature_pullback, 1), "18": (net_curvature_pullback, 2)}

_SPH_LABEL = {"13": "15", "14": "16", "17": "sph17", "18": "sph18"}


def spherical_image(net: NetForm, fp: FramePoint) -> NetForm:
    """Transport by the Gauss map: w1 = -w31/k1, w2 = -w32/k2 turns
    (A, B, C) into (A/k1^2, B/(k1 k2), C/k2^2) in the coframe (w31, w32),
    orthonormal on the unit sphere."""
    k1, k2 = fp.k1, fp.k2
    return NetForm(net.a / jt.power(k1, 2), net.b / (k1 * k2),
                   net.c / jt.power(k2, 2),
                   _SPH_LABEL.get(net.label) or f"sph({net.label})")


def orthogonality_defect(net: NetForm) -> float:
    """(A + C) / norm: zero iff the two directions are orthogonal."""
    return (net.a + net.c) / net_norm(net)


def conjugacy_defect(net: NetForm, k1: float, k2: float) -> float:
    """(k2 A + k1 C) / norm: zero iff the direction pair is conjugate with
    respect to the base second fundamental form (diagonal here)."""
    return (k2 * net.a + k1 * net.c) / net_norm(net)


def reality_discriminant(net: NetForm) -> float:
    """(B^2 - AC) / norm^2: nonnegative iff the directions are real."""
    n = net_norm(net)
    return (net.b * net.b - net.a * net.c) / (n * n)


def net_directions(net: NetForm):
    """The two direction pairs as unit vectors in the (e1, e2) basis.

    Roots of A t^2 + 2B t + C = 0 (t = w2-slope handled projectively to
    tolerate A = 0 or C = 0).  Deterministic: each direction's first nonzero
    component is positive; the pair is ordered by descending first component,
    ties by descending second.
    """
    a, b, c = net.a, net.b, net.c
    n = net_norm(net)
    if n <= 2 * _NORM_FLOOR:
        raise DegenerateNetError(f"net {net.label} is identically zero")
    a, b, c = a / n, b / n, c / n
    disc = b * b - a * c
    if disc < -_ROOT_TOL:
        raise ImaginaryNetError(
            f"net {net.label} has imaginary directions "
            f"(discriminant {disc:.3e})")
    root = math.sqrt(max(disc, 0.0))

    # direction (x, y) solves a x^2 + 2b x y + c y^2 = 0.
    if abs(a) >= abs(c):
        if abs(a) < _ROOT_TOL:
            # a ~ c ~ 0, b != 0: the pair of coordinate axes
            pairs = [(1.0, 0.0), (0.0, 1.0)]
        else:
            # x/y roots with the stable quadratic branch
            q = -(b + math.copysign(root, b)) if b != 0 else -root
            if q == 0.0:
                pairs = [(-b / a, 1.0)] * 2
            else:
                pairs = [(q / a, 1.0), (c / q, 1.0)]
    else:
        # solve for y/x to keep the large coefficient in the denominator
        q = -(b + math.copysign(root, b)) if b != 0 else -root
        if q == 0.0:
            pairs = [(1.0, -b / c)] * 2
        else:
            pairs = [(1.0, q / c), (1.0, a / q)]

    out = []
    for x, y in pairs:
        s = math.hypot(x, y)
        x, y = x / s, y / s
        if x < -_ROOT_TOL or (abs(x) <= _ROOT_TOL and y < 0):
            x, y = -x, -y
        out.append((x, y))
    out.sort(key=lambda d: (-d[0], -d[1]))
    return (np.array(out[0]), np.array(out[1]))
