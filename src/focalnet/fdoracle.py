"""Finite-difference oracles for every analytic derivative path.

Central 5-point stencils (exact for polynomials through total degree 4) check
surface jets; Richardson pairs of 4-point directional differences check
Pfaffian derivatives along principal directions and the focal-sheet
derivative formulas along the focal coframe's dual directions.

Oracle samples are plain floats from `SurfaceProgram.evaluate` (through
`prog.position`), so no jet arithmetic enters them.  For convergence-ratio
studies the stencil sums are taken in mpmath, with a coordinate's compiled
program (`expr.Program`) run on mpmath numbers by `mp_scalar_fn`: at step
sizes near 1e-4, float64 cancellation noise exceeds the O(h^2) truncation
error for second and higher derivatives, which would make ratio tests
meaningless.  mpmath is imported lazily; the library runtime never needs
it.

The float oracles take a point or arrays u, v of shape (N,) and evaluate
the nodes of a stencil for every point in one call, summed by the code of
the per-node `fd_partial` and `fd_directional`, so each column gets its
point's bits.  Frame-dependent field sampling takes the frame at the
stencil's center from its caller and realigns the e1 sign at every
stencil node against it, column by column (nearest-neighbor
continuation); ambiguous alignment near umbilics is an error, never a
guess.  The samplers read frame values only, so the stencil frames
evaluate at the outputs' order, `eval_surface`'s default.
Both float oracles fail alike at every shape: numpy runs silently, and a
node that cannot be computed (an undefined position, a frame that
`pd.failed` marks) reads NaN, as does every derivative that reads it.
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
    "fd_partial", "fd_surface_jet", "fd_directional", "fd_frame_field",
    "aligned_frame_point", "mp_scalar_fn", "jet_fd_error",
]

_OFFSETS = (-2, -1, 0, 1, 2)

# mpmath working precision of the reference stencils, in decimal digits
_MP_DPS = 50

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


def _stencil_sum(node, i: int, j: int, h: float):
    """d^{i+j} / du^i dv^j by the tensor-product 5x5 central stencil from
    node(a, b), the sample at offsets (a h, b h), summed u-major."""
    nums_u, div_u = _STENCILS[i]
    nums_v, div_v = _STENCILS[j]
    acc = 0.0
    for a, cu in zip(_OFFSETS, nums_u):
        if cu == 0:
            continue
        for b, cv in zip(_OFFSETS, nums_v):
            if cv == 0:
                continue
            acc += cu * cv * node(a, b)
    return acc / (div_u * div_v * h ** (i + j))


def fd_partial(f: Callable[[float, float], float], u: float, v: float,
               i: int, j: int, h: float) -> float:
    """d^{i+j} f / du^i dv^j by a tensor-product 5x5 central stencil
    (componentwise when f returns an array, as it does at arrays u, v)."""
    return _stencil_sum(lambda a, b: f(u + a * h, v + b * h), i, j, h)


def mp_scalar_fn(prog, coord: int):
    """mpmath evaluator for one coordinate expression of a program, at the
    caller's working precision: the reference sampler, kept apart from
    `SurfaceProgram.evaluate` because constants and parameters must be
    mpmath numbers too.  It runs the coordinate's straight-line program
    (`expr.Program`) with the mpmath functions; the tree is compiled
    alone, so a sample computes no other coordinate."""
    import mpmath as mp
    program = ex.Program((prog.exprs[coord],))
    params = prog.params
    funcs = {f.name: getattr(mp, f.mp_name) for f in jt.ELEMENTARY}

    def f(u, v):
        env = {"pi": mp.pi, "e": mp.e, "u": u, "v": v}
        env.update({k: mp.mpf(w) for k, w in params.items()})
        return program.run(env, funcs)[0]

    return f


def fd_surface_jet(prog, u, v, h: float) -> SurfaceJet:
    """A SurfaceJet built purely from finite differences.

    Feeding it through principal_data/frame_point gives an end-to-end
    derivative path with no jet arithmetic anywhere.  u and v become
    arrays, of shape () for a point or (N,) for a batch.  One
    `prog.position` call takes the 5x5 nodes of every point, and each
    coefficient has the bits of `fd_partial(prog.position, ...)`; a point
    with an undefined node gets NaN coefficients.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    step = np.reshape(_OFFSETS, (5,) + (1,) * u.ndim) * h
    xyz = prog.position(*np.broadcast_arrays(u + step[:, None], v + step))
    coeffs = np.array([_stencil_sum(lambda a, b: xyz[:, a + 2, b + 2],
                                    i, j, h)
                       / (math.factorial(i) * math.factorial(j))
                       for i, j in jt.MONOMIALS])
    return SurfaceJet(u, v, jt.Jet4(coeffs))


def _directional_sum(samples, h: float):
    """First derivative from the samples at `_DIR_OFFSETS` x h (4-point)."""
    acc = 0.0
    for cu, sample in zip(_DIR_NUMS, samples):
        acc += cu * sample
    return acc / (_DIR_DIV * h)


def fd_directional(f: Callable[[float, float], float], u: float, v: float,
                   direction: Tuple[float, float], h: float) -> float:
    """First derivative of f along a parameter-space direction (4-point)."""
    du, dv = direction
    return _directional_sum((f(u + a * h * du, v + a * h * dv)
                             for a in _DIR_OFFSETS), h)


def aligned_frame_point(prog, u: float, v: float, ref: FramePoint,
                        tol: ToleranceSet = DEFAULT_TOLERANCES) -> FramePoint:
    """Frame at (u, v) with the e1 sign continued from a reference frame,
    column by column at arrays u, v (and a reference of their shape, or
    one that broadcasts against it).  An ambiguous sign raises, at the
    first such column of a batch."""
    pd = principal_data(eval_surface(prog, u, v), tol)
    ref_e1 = np.stack(ref.e1, axis=-1)[..., None, :]
    e1 = np.stack(pd.e1.value, axis=-1)[..., :, None]
    dot = (ref_e1 @ e1)[..., 0, 0]
    ambiguous = np.flatnonzero(abs(dot) < 0.1)
    if ambiguous.size:
        u0, v0, dot0 = (np.ravel(x)[ambiguous[0]] for x in (u, v, dot))
        raise FocalnetError(f"principal-direction continuation ambiguous at "
                            f"({u0}, {v0}): |<e1, e1_ref>| = {abs(dot0):.3f}")
    return frame_point_from_pd(flipped_principal(pd, dot < 0), tol)


def fd_frame_field(prog, ref: FramePoint, sampler: Callable,
                   direction: Tuple[float, float], h: float,
                   tol: ToleranceSet = DEFAULT_TOLERANCES):
    """Directional derivative of a frame-dependent field along an arbitrary
    parameter-space direction (principal or focal coordinate curves) at
    the point of the frame `ref`, a point or a batch, with sign
    continuation against `ref`; the Richardson pair
    (16 D(h/2) - D(h)) / 15 cancels the 4-point stencil's O(h^4) error,
    which dominates where the frame turns fast (a small curvature gap).

    The direction components broadcast against ref.u, ref.v (stacked
    directions go in front).  The eight nodes, D(h/2)'s then D(h)'s, are
    one node-major `aligned_frame_point` batch, which `sampler` maps to a
    field or to a tuple of fields; each derivative has the bits of
    `fd_directional` over per-node calls.  numpy runs silently, and the
    fields of a node that `nodes.pd.failed` marks read NaN, so a
    derivative with a degenerate node is NaN."""
    u, v = ref.u, ref.v
    du, dv = direction
    steps = np.reshape([a * step for step in (h / 2, h) for a in _DIR_OFFSETS],
                       (8,) + (1,) * np.broadcast(u, v, du, dv).ndim)
    with np.errstate(all="ignore"):
        nodes = aligned_frame_point(prog, u + steps * du, v + steps * dv,
                                    ref, tol)
        fields = sampler(nodes)
        failed = ~np.equal(nodes.pd.failed, None)
        out = [(16 * _directional_sum(f[:4], h / 2)
                - _directional_sum(f[4:], h)) / 15
               for f in (np.where(failed, np.nan, f) for f in
                         (fields if isinstance(fields, tuple) else [fields]))]
    return tuple(out) if isinstance(fields, tuple) else out[0]


def jet_fd_error(prog, u: float, v: float, coord: int, i: int, j: int,
                 h: float) -> float:
    """|finite difference - jet coefficient| with the stencil computed in
    mpmath at `_MP_DPS` digits, so the result reflects truncation error,
    not float64 noise."""
    import mpmath as mp
    sj = eval_surface(prog, u, v, jt.MAX_ORDER)
    exact = sj.pos.component(coord).extract(i, j)
    with mp.workdps(_MP_DPS):
        approx = fd_partial(mp_scalar_fn(prog, coord), mp.mpf(u), mp.mpf(v),
                            i, j, mp.mpf(h))
    return abs(float(approx - exact))
