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


@dataclass
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

    At a point: two arrays of shape (2,), or DegenerateNetError for the zero
    form and ImaginaryNetError for imaginary directions.  On a net of arrays
    of shape (N,): (d0, d1, failed), d0 and d1 of shape (2, N) and failed[i]
    None or the class point i would raise (its directions are meaningless);
    no exception is built.  Both shapes run one solve on numpy floats, whose
    arithmetic gives Python's bits and divides by zero without raising, so
    every branch is computed and `jt.pick` chooses.
    """
    with np.errstate(all="ignore"):
        n = net_norm(net)
        a, b, c = (np.float64(x) / n for x in net.triple())
        disc = b * b - a * c
        failed = jt.pick(n <= 2 * _NORM_FLOOR, DegenerateNetError,
                         jt.pick(disc < -_ROOT_TOL, ImaginaryNetError, None))
        root = np.sqrt(jt.largest(disc, 0.0))
        # stable quadratic branch
        q = jt.pick(b != 0, -(b + np.copysign(root, b)), -root)

        # Direction (x, y) solves a x^2 + 2b x y + c y^2 = 0.  With the
        # larger of |a|, |c| in the denominator the slopes are q / big and
        # small / q (-b / big twice at a double root), x/y where a leads and
        # y/x where c leads; a ~ c ~ 0 (b != 0) is the pair of axes.
        a_leads = abs(a) >= abs(c)
        big, small = jt.pick(a_leads, a, c), jt.pick(a_leads, c, a)
        double = q == 0.0
        slopes = (jt.pick(double, -b / big, q / big),
                  jt.pick(double, -b / big, small / q))
        axes = a_leads & (abs(a) < _ROOT_TOL)
        pairs = []
        for slope, (ax, ay) in zip(slopes, ((1.0, 0.0), (0.0, 1.0))):
            x = jt.pick(axes, ax, jt.pick(a_leads, slope, 1.0))
            y = jt.pick(axes, ay, jt.pick(a_leads, 1.0, slope))
            s = jt.hypot(x, y)
            x, y = x / s, y / s
            flip = (x < -_ROOT_TOL) | ((abs(x) <= _ROOT_TOL) & (y < 0))
            pairs.append((jt.pick(flip, -x, x), jt.pick(flip, -y, y)))
        # a stable sort by (-x, -y): the second goes first only when its
        # key is smaller (-0.0 and 0.0 tie)
        (x0, y0), (x1, y1) = pairs
        swap = (x1 > x0) | ((x1 == x0) & (y1 > y0))
        d0 = np.array([jt.pick(swap, x1, x0), jt.pick(swap, y1, y0)])
        d1 = np.array([jt.pick(swap, x0, x1), jt.pick(swap, y0, y1)])
    if isinstance(failed, np.ndarray):
        return d0, d1, failed
    if failed is DegenerateNetError:
        raise DegenerateNetError(f"net {net.label} is identically zero")
    if failed is ImaginaryNetError:
        raise ImaginaryNetError(
            f"net {net.label} has imaginary directions "
            f"(discriminant {disc:.3e})")
    return d0, d1
