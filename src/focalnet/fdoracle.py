"""Finite-difference oracles for every analytic derivative path.

Central 5-point stencils (exact for polynomials through total degree 4) check
surface jets; 4-point directional differences along principal directions
check Pfaffian derivatives; the same machinery along the focal coframe's dual
directions checks the focal-sheet derivative formulas.

Oracle samples are plain floats from `SurfaceProgram.evaluate` (through
`prog.position` and `scalar_fn`), so no jet arithmetic enters them.  For
convergence-ratio studies the stencil sums are taken in mpmath, with the
program evaluated in mpmath numbers by `mp_scalar_fn`: at step sizes near
1e-4, float64 cancellation noise exceeds the O(h^2) truncation error for
second and higher derivatives, which would make ratio tests meaningless.
mpmath is imported lazily; the library runtime never needs it.

Frame-dependent field sampling realigns the e1 sign at every stencil node
against the center frame (nearest-neighbor continuation); ambiguous
alignment near umbilics is an error, never a guess.
"""
from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from . import expr as ex
from . import jet as jt
from .errors import FocalnetError
from .frames import FramePoint, frame_point_from_pd
from .geometry import (SurfaceJet, eval_surface, flipped_principal,
                       principal_data)
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = [
    "fd_partial", "fd_partial_mp", "fd_surface_partial", "fd_surface_jet",
    "fd_directional", "fd_pfaffian", "fd_frame_field", "aligned_frame_point",
    "scalar_fn", "mp_scalar_fn", "jet_fd_error",
]

_OFFSETS = (-2, -1, 0, 1, 2)

# numerators and divisor of the 5-point central stencil per derivative order
_STENCILS = {
    0: ((0, 0, 1, 0, 0), 1),
    1: ((1, -8, 0, 8, -1), 12),
    2: ((-1, 16, -30, 16, -1), 12),
    3: ((-1, 2, 0, -2, 1), 2),
    4: ((1, -4, 6, -4, 1), 1),
}

# 4-point first-derivative stencil for directional differences
_DIR_OFFSETS = (-2, -1, 1, 2)
_DIR_NUMS = (1, -8, 8, -1)
_DIR_DIV = 12


def fd_partial(f: Callable[[float, float], float], u: float, v: float,
               i: int, j: int, h: float) -> float:
    """d^{i+j} f / du^i dv^j by a tensor-product 5x5 central stencil
    (componentwise when f returns an array)."""
    nums_u, div_u = _STENCILS[i]
    nums_v, div_v = _STENCILS[j]
    acc = 0.0
    for a, cu in zip(_OFFSETS, nums_u):
        if cu == 0:
            continue
        for b, cv in zip(_OFFSETS, nums_v):
            if cv == 0:
                continue
            acc += cu * cv * f(u + a * h, v + b * h)
    return acc / (div_u * div_v * h ** (i + j))


def fd_partial_mp(f, u: float, v: float, i: int, j: int, h, dps: int = 50):
    """Same stencil with mpmath working precision (f takes and returns mpf)."""
    import mpmath as mp
    with mp.workdps(dps):
        return fd_partial(f, mp.mpf(u), mp.mpf(v), i, j, mp.mpf(h))


def scalar_fn(prog, coord: int) -> Callable[[float, float], float]:
    """Plain float evaluator for one coordinate expression of a program."""
    return lambda u, v: prog.evaluate(u, v, ex.FLOAT_FUNCTIONS)[coord]


def mp_scalar_fn(prog, coord: int, dps: int = 50):
    """mpmath evaluator for one coordinate expression of a program: the
    reference sampler, kept apart from `SurfaceProgram.evaluate` because
    constants and parameters must be mpmath numbers too."""
    import mpmath as mp
    node = prog.exprs[coord]
    params = prog.params
    funcs = {f.name: getattr(mp, f.mp_name) for f in jt.ELEMENTARY}

    def f(u, v):
        with mp.workdps(dps):
            env = {"pi": mp.pi, "e": mp.e, "u": u, "v": v}
            env.update({k: mp.mpf(w) for k, w in params.items()})
            return ex.evaluate(node, env, funcs)

    return f


def fd_surface_partial(prog, u: float, v: float, i: int, j: int,
                       h: float) -> np.ndarray:
    return fd_partial(prog.position, u, v, i, j, h)


def fd_surface_jet(prog, u: float, v: float, h: float) -> SurfaceJet:
    """A SurfaceJet built purely from finite differences.

    Feeding it through principal_data/frame_point gives an end-to-end
    derivative path with no jet arithmetic anywhere.
    """
    coeffs = np.array([fd_partial(prog.position, u, v, i, j, h)
                       / (math.factorial(i) * math.factorial(j))
                       for i, j in jt.MONOMIALS])
    return SurfaceJet(float(u), float(v),
                      *(jt.Jet4(coeffs[:, c].copy()) for c in range(3)))


def fd_directional(f: Callable[[float, float], float], u: float, v: float,
                   direction: Tuple[float, float], h: float) -> float:
    """First derivative of f along a parameter-space direction (4-point)."""
    du, dv = direction
    acc = 0.0
    for a, cu in zip(_DIR_OFFSETS, _DIR_NUMS):
        acc += cu * f(u + a * h * du, v + a * h * dv)
    return acc / (_DIR_DIV * h)


def aligned_frame_point(prog, u: float, v: float, ref: FramePoint,
                        tol: ToleranceSet = DEFAULT_TOLERANCES) -> FramePoint:
    """Frame at (u, v) with the e1 sign continued from a reference frame."""
    pd = principal_data(eval_surface(prog, u, v), tol)
    ref_e1 = np.array([c.value for c in ref.pd.e1])
    e1 = np.array([c.value for c in pd.e1])
    dot = float(ref_e1 @ e1)
    if abs(dot) < 0.1:
        raise FocalnetError(
            f"principal-direction continuation ambiguous at ({u}, {v}): "
            f"|<e1, e1_ref>| = {abs(dot):.3f}")
    if dot < 0:
        pd = flipped_principal(pd)
    return frame_point_from_pd(pd, tol)


def fd_pfaffian(prog, u: float, v: float,
                sampler: Callable[[FramePoint], float], h: float,
                tol: ToleranceSet = DEFAULT_TOLERANCES) -> Tuple[float, float]:
    """(nabla_1 f, nabla_2 f) of a frame-dependent field by directional
    differencing along the center frame's principal directions."""
    pd = principal_data(eval_surface(prog, u, v), tol)
    d1 = (pd.xi1.value, pd.eta1.value)
    d2 = (pd.xi2.value, pd.eta2.value)
    return (fd_frame_field(prog, u, v, sampler, d1, h, tol),
            fd_frame_field(prog, u, v, sampler, d2, h, tol))


def fd_frame_field(prog, u: float, v: float,
                   sampler: Callable[[FramePoint], float],
                   direction: Tuple[float, float], h: float,
                   tol: ToleranceSet = DEFAULT_TOLERANCES) -> float:
    """Directional derivative of a frame-dependent field along an arbitrary
    parameter-space direction (principal or focal coordinate curves), with
    sign continuation against the center frame."""
    center = frame_point_from_pd(
        principal_data(eval_surface(prog, u, v), tol), tol)

    def field(uu: float, vv: float) -> float:
        return sampler(aligned_frame_point(prog, uu, vv, center, tol))

    return fd_directional(field, u, v, direction, h)


def jet_fd_error(prog, u: float, v: float, coord: int, i: int, j: int,
                 h: float, dps: int = 50) -> float:
    """|finite difference - jet coefficient| with the stencil computed in
    mpmath, so the result reflects truncation error, not float64 noise."""
    sj = eval_surface(prog, u, v)
    exact = sj.pos[coord].extract(i, j)
    approx = fd_partial_mp(mp_scalar_fn(prog, coord, dps), u, v, i, j, h, dps)
    return abs(float(approx - exact))
