"""Self-check suites: seeded, deterministic verification runs shared by the
``check`` CLI subcommand and the test suite.

Suites: ``jets`` (jet-vs-FD convergence and serialization round-trips),
``structure`` (frame compatibility equations, chain-rule curvature-function
gradients against jet Pfaffians), ``central`` (focal-sheet
fundamentals and coframes vs. the independent oracle, focal positions vs. a
jet-free finite-difference build, focal derivatives vs. finite differences,
the divergence identity and its cubic curvature power), ``nets`` (exact net
rearrangements, coincidence/bisection, reality), ``props`` (forward
statement checks, degeneracy statuses, flag implications), and ``all``.

These routines are where an identity is swept over sampled points at its
bound; the test suite asserts on their results.  Every bound is pinned in
the check that uses it, and ``seed`` drives all sampling.  Sampling guards
(curvature floors, canal margins) keep oracle comparisons inside their
well-conditioned regime; the identities themselves hold at every
non-degenerate point.  The samples are one batch FramePoint, run through
the formulas reports and meshes run, and each finite-difference stencil
is one batch; only `check_degeneracies` and `check_gallery` call
`point_record` per point.

The library takes every curvature-function gradient by the chain rule from
floats.  The checks whose curvature-function side would then be the same
floats rearranged (the divergence identity, the cubic power, the net
rearrangements and the spherical identity) take that side from
`jet_gradients`, which builds each function as a jet field and
differentiates it.
"""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import jet as jt
from .central import (central_ii_oracle, central_point, central_pfaffian,
                      connection_gradient, divergence_closed_form,
                      divergence_scale, isothermic_divergence, w_jacobian,
                      base_coframe_matrix, focal_coframe_matrix, _inverse,
                      _matmul)
from .classify import (class_gradients, class_partials, prop_residuals,
                       proposition_report)
from .decisions import (DEFAULT_TOLERANCES, ToleranceSet, canal_threshold,
                        own_curvature)
from .errors import FocalnetError
from .fdoracle import fd_frame_field, fd_surface_jet, jet_fd_error
from .frames import (FramePoint, check_codazzi, check_gauss, codazzi_scale,
                     frame_point, pfaffian_values)
from .geometry import principal_data
from .mesh import export_obj
from .nets import (net_asymptotic_pullback, net_curvature_pullback,
                   net_directions, net_norm, orthogonality_defect,
                   conjugacy_defect, reality_discriminant)
from .report import grid_report, emit_json, parse_json, point_record
from .sdl import (compile_surface, gallery, gallery_names, load_surface,
                  parse_surface, surface_source)

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES", "SWEPT_SRC",
           "domain_points", "sample_frame_points", "jet_gradients",
           "check_structure", "check_central_oracle", "check_central_pfaffian",
           "check_divergence", "check_rearrangements", "check_prop5_prop6",
           "check_degeneracies", "check_remarks", "check_toolchain",
           "check_gallery"]

GENERIC5 = ("graph_generic", "helicoid", "enneper", "scherk", "dini")
CENTRAL7 = GENERIC5 + ("graph_quad", "monkey_saddle")

_TOL = DEFAULT_TOLERANCES
# Share of the domain box's width left out on each side when sampling.
_MARGIN = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


_PROG_CACHE: Dict[str, object] = {}


def _prog(name: str):
    if name not in _PROG_CACHE:
        _PROG_CACHE[name] = compile_surface(gallery(name))
    return _PROG_CACHE[name]


def domain_points(prog, n: int, rng) -> np.ndarray:
    """n random (u, v) rows of an (n, 2) array inside the domain box, shrunk
    by `_MARGIN` of its width per side; u is drawn before v in each row."""
    box = prog.definition.domain
    eu, ev = box.u_max - box.u_min, box.v_max - box.v_min
    return rng.uniform((box.u_min + _MARGIN * eu, box.v_min + _MARGIN * ev),
                       (box.u_max - _MARGIN * eu, box.v_max - _MARGIN * ev),
                       (n, 2))


def sample_frame_points(prog, n: int, rng, tol: ToleranceSet = DEFAULT_TOLERANCES,
                        *, sheets: Sequence[int] = (),
                        healthy: float = 10.0,
                        min_k: float = 0.0,
                        min_gap: float = 0.0) -> FramePoint:
    """Rejection-sample n non-degenerate frame points in the domain box
    (shrunk by `_MARGIN` per side), from surface jets of `jt.MAX_ORDER`,
    so that the Gauss equation and second Pfaffians of `fp.pd` can be
    taken: one batch FramePoint of shape (n,), with its `pd`.  ``sheets``
    demands |nabla_i k_i| >= healthy x canal threshold for those sheets;
    ``min_k`` floors min(|k1|, |k2|); ``min_gap`` floors |k1-k2| relative
    to |k1|+|k2|.  Chunks of max(16, 2 x still needed) draws of
    `domain_points` are judged as one batch each, and the rng is rewound
    to just past the last draw kept, so the points and the rng state are
    those of judging one draw at a time, up to max(4000, 400 n) draws.
    The result is one `frame_point` of the kept draws, whose columns have
    the bits of their points, as in the chunks that judged them."""
    def usable(fp: FramePoint) -> np.ndarray:
        k1, k2 = abs(fp.k1), abs(fp.k2)
        reject = ~np.equal(fp.pd.failed, None)
        reject |= jt.smallest(k1, k2) < min_k
        reject |= abs(fp.k1 - fp.k2) < min_gap * (k1 + k2)
        thr = healthy * canal_threshold(fp, tol)
        for s in sheets:
            reject |= abs(own_curvature(fp, s)[2]) < thr
        return ~reject

    kept, found, draws, cap = [], 0, 0, max(4000, 400 * n)
    while found < n and draws < cap:
        need, state = n - found, rng.bit_generator.state
        chunk = domain_points(prog, min(max(16, 2 * need), cap - draws), rng)
        fp = frame_point(prog, chunk[:, 0], chunk[:, 1], tol, jt.MAX_ORDER)
        with np.errstate(all="ignore"):
            hits = np.flatnonzero(usable(fp))[:need]
        kept.append(chunk[hits])
        if len(hits) == need:
            rng.bit_generator.state = state
            chunk = domain_points(prog, hits[-1] + 1, rng)
        draws += len(chunk)
        found += len(hits)
    if found < n:
        raise FocalnetError(
            f"sampling exhausted on {prog.definition.name}: "
            f"{found}/{n} points after {draws} draws")
    u, v = np.concatenate(kept).T
    return frame_point(prog, u, v, tol, jt.MAX_ORDER)


def _worst(*values) -> float:
    """The largest entry of `values` (numbers or arrays), at least 0.0; a
    NaN entry gives NaN, which fails every bound."""
    return float(np.max([np.max(x, initial=0.0) for x in values]))


def jet_gradients(fp: FramePoint) -> Dict[str, Tuple[float, float]]:
    """Pfaffian gradients of the six class functions and of the focal
    connection Q = k1 k2 / (k1 - k2) (key ``"connection"``), each built as a
    jet field from the curvature jets ``fp.pd.k1``, ``fp.pd.k2`` and then
    differentiated: the leg independent of the chain rule."""
    k1j, k2j = fp.pd.k1, fp.pd.k2
    fields = {
        "diff": k1j - k2j,
        "ratio": k1j / k2j,
        "radii_diff": 1.0 / k1j - 1.0 / k2j,
        "radii_sum": 1.0 / k1j + 1.0 / k2j,
        "mean": k1j + k2j,
        "gauss": k1j * k2j,
        "connection": k1j * k2j / (k1j - k2j),
    }
    return {name: pfaffian_values(g, fp.pd) for name, g in fields.items()}


# ---------------------------------------------------------------- structure

def _chain_rule_mismatch(fp: FramePoint) -> float:
    """Worst gap between the chain-rule gradients (`class_gradients`,
    `connection_gradient`) and `jet_gradients`, each relative to
    |g_k1| |grad k1| + |g_k2| |grad k2| of its function g."""
    k1, k2 = fp.k1, fp.k2
    partials = class_partials(k1, k2)
    gap_sq = jt.power(k1 - k2, 2)
    partials["connection"] = (-jt.power(k2, 2) / gap_sq,
                              jt.power(k1, 2) / gap_sq)
    chain = class_gradients(fp)
    chain["connection"] = connection_gradient(fp)
    g1, g2 = jt.hypot(*fp.grad_k1), jt.hypot(*fp.grad_k2)
    gaps = []
    for name, (a1, a2) in jet_gradients(fp).items():
        p1, p2 = partials[name]
        c1, c2 = chain[name]
        scale = abs(p1) * g1 + abs(p2) * g2 + 1e-30
        gaps.append(jt.hypot(c1 - a1, c2 - a2) / scale)
    return _worst(*gaps)


def check_structure(seed: int = 7) -> List[CheckResult]:
    """Compatibility-equation residuals on the five generic surfaces and the
    torus; at the same points, the chain-rule curvature-function gradients
    against the jet Pfaffians."""
    rng = np.random.default_rng(seed)
    bound, bound_chain = 1e-10, 5e-15
    results = []
    t0 = perf_counter()
    for name in GENERIC5 + ("torus",):
        fp = sample_frame_points(_prog(name), 220, rng, _TOL)
        r1, r2 = check_codazzi(fp)
        max_cod = _worst(jt.largest(abs(r1), abs(r2)) / codazzi_scale(fp))
        res, scale = check_gauss(fp)
        max_gau = _worst(abs(res) / scale)
        ok = max_cod <= bound and max_gau <= bound
        results.append(CheckResult(
            f"structure.codazzi_gauss.{name}", ok,
            f"n={len(fp.u)} max_codazzi={max_cod:.3e} "
            f"max_gauss={max_gau:.3e} bound={bound:.1e}"))
        chain = _chain_rule_mismatch(fp)
        results.append(CheckResult(
            f"structure.chain_rule.{name}", chain <= bound_chain,
            f"n={len(fp.u)}x7 max_rel={chain:.3e} bound={bound_chain:.1e}"))
    dt = perf_counter() - t0
    results.append(CheckResult("structure.runtime", dt <= 10.0,
                               f"elapsed={dt:.2f}s bound=10.0s"))
    return results


# ------------------------------------------------------------------ central

def _oracle_mismatch(fp: FramePoint, sheet: int) -> Tuple[float, float]:
    """Closed form vs. oracle on one sheet: the worst relative mismatch of
    (a, b, c, q1, q2), and of the coframe against the projection of dy."""
    cp = central_point(fp, sheet=sheet, tol=_TOL)
    cf = central_ii_oracle(fp, sheet=sheet, tol=_TOL)
    closed = (cp.a, cp.b, cp.c, cp.q1, cp.q2)
    oracle = (cf.a, cf.b, cf.c, cf.q1, cf.q2)
    scale = reduce(jt.largest, (abs(x) for x in closed + oracle)) + 1e-30
    fundamentals = reduce(jt.largest, (abs(x - y) for x, y
                                       in zip(closed, oracle))) / scale
    coframe = (np.abs(cf.coframe_uv - cf.coframe_uv_projected).max((-2, -1))
               / (np.abs(cf.coframe_uv).max((-2, -1)) + 1e-30))
    return _worst(fundamentals), _worst(coframe)


_Y_POINTS, _Y_STEP = 20, 3e-3


def _position_mismatch(prog, fp: FramePoint) -> float:
    """Closed-form focal positions of both sheets at the first `_Y_POINTS`
    points vs. x + e3/k_i with x from `prog.position` and e3, k_i from a
    finite-difference surface jet, so no jet arithmetic enters that side;
    per component, relative to max(|y_i|, 1e-2), and NaN at a point whose
    finite-difference `principal_data` fails."""
    u, v = fp.u[:_Y_POINTS], fp.v[:_Y_POINTS]
    with np.errstate(all="ignore"):
        pd = principal_data(fd_surface_jet(prog, u, v, _Y_STEP), _TOL)
    x = prog.position(u, v)
    normal = pd.e3.value
    ys = (central_point(fp, s, _TOL).y[:, :_Y_POINTS] for s in (1, 2))
    return _worst(*(np.where(np.equal(pd.failed, None),
                             np.abs(x + normal / k.value - y)
                             / np.maximum(np.abs(y), 1e-2), np.nan)
                    for k, y in zip((pd.k1, pd.k2), ys)))


def check_central_oracle(seed: int = 7) -> List[CheckResult]:
    """Closed-form focal fundamentals vs. the direct second-form oracle, the
    oracle's coframe vs. its projection of dy, and, on the first points of
    each surface, closed-form focal positions vs. a jet-free build."""
    rng = np.random.default_rng(seed)
    bound, bound_y, bound_coframe = 1e-7, 1e-7, 1e-10
    results = []
    for name in CENTRAL7:
        prog = _prog(name)
        fp = sample_frame_points(prog, 100, rng, _TOL, sheets=(1, 2),
                                 healthy=10.0, min_k=0.05, min_gap=0.02)
        rel, coframe = (_worst(*col) for col in zip(
            *(_oracle_mismatch(fp, sheet) for sheet in (1, 2))))
        y = _position_mismatch(prog, fp)
        results.append(CheckResult(
            f"central.oracle.{name}",
            rel <= bound and y <= bound_y and coframe <= bound_coframe,
            f"n={len(fp.u)}x2 sheets max_rel={rel:.3e} bound={bound:.1e} "
            f"max_y={y:.3e} n_y={_Y_POINTS} bound_y={bound_y:.1e} "
            f"max_coframe={coframe:.3e} bound_coframe={bound_coframe:.1e}"))
    return results


def check_central_pfaffian(seed: int = 7) -> List[CheckResult]:
    """Focal-sheet derivatives vs. finite differences along the focal
    coordinate directions, plus the df-consistency identity: per surface
    one `fd_frame_field` call, along the four (sheet, i) directions."""
    rng = np.random.default_rng(seed)
    bound_fd = 1e-6
    bound_df = 1e-10
    results = []
    fields = lambda pd: (pd.k2, pd.k1, pd.sj.x + 2.0 * pd.sj.y - pd.sj.z)
    for name in ("graph_generic", "monkey_saddle"):
        prog = _prog(name)
        fp = sample_frame_points(prog, 8, rng, _TOL, sheets=(1, 2),
                                 healthy=20.0, min_k=0.08, min_gap=0.05)
        base = base_coframe_matrix(fp.pd)
        p_uvs = [_matmul(focal_coframe_matrix(fp, sheet), base)
                 for sheet in (1, 2)]
        # sheet x i x point x (du, dv): column i of each inverse
        direction = np.array([[p_inv[..., i] for i in (0, 1)]
                              for p_inv in map(_inverse, p_uvs)])
        speed = np.sqrt(direction[..., 0] * direction[..., 0]
                        + direction[..., 1] * direction[..., 1])
        unit = direction / speed[..., None]
        fds = fd_frame_field(prog, fp,
                             lambda fq: tuple(f.value for f in fields(fq.pd)),
                             (unit[..., 0], unit[..., 1]), 5e-4, _TOL)
        fd_gaps, df_gaps = [], []
        for s, (sheet, p_uv) in enumerate(zip((1, 2), p_uvs)):
            for jet_field, fd in zip(fields(fp.pd), fds):
                ana = central_pfaffian(fp, pfaffian_values(jet_field, fp.pd),
                                       sheet, _TOL)
                gscale = abs(ana[0]) + abs(ana[1]) + 1e-12
                fd_gaps.append(abs(np.stack(ana) - speed[s] * fd[s]) / gscale)
                d_u, d_v = (ana[0] * p_uv[:, 0, j] + ana[1] * p_uv[:, 1, j]
                            for j in (0, 1))
                f_u, f_v = jet_field.extract(1, 0), jet_field.extract(0, 1)
                df_gaps.append((abs(d_u - f_u) + abs(d_v - f_v))
                               / (abs(f_u) + abs(f_v) + 1e-30))
        worst_fd, worst_df = _worst(*fd_gaps), _worst(*df_gaps)
        results.append(CheckResult(
            f"central.pfaffian_fd.{name}", worst_fd <= bound_fd,
            f"n={len(fp.u)}x2x3 max_rel={worst_fd:.3e} bound={bound_fd:.1e}"))
        results.append(CheckResult(
            f"central.df_consistency.{name}", worst_df <= bound_df,
            f"max_rel={worst_df:.3e} bound={bound_df:.1e}"))
    return results


def check_divergence(seed: int = 7) -> List[CheckResult]:
    """Divergence identity on graph_generic; on surfaces with functionally
    dependent curvatures (helicoid, enneper minimal; dini constant K) the
    divergence defect and the functional-relation defect vanish together;
    the k_i^2 variant of the closed form misses the divergence by exactly
    one factor k_i."""
    rng = np.random.default_rng(seed)
    bound_id = 1e-9
    bound_div, bound_w = 1e-10, 1e-12
    bound_pow = 1e-6
    results = []

    fp = sample_frame_points(_prog("graph_generic"), 60, rng, _TOL,
                             sheets=(1, 2), healthy=10.0)
    grad_q = jet_gradients(fp)["connection"]
    worst = _worst(*(abs(isothermic_divergence(fp, grad_q, sheet, _TOL)
                         - divergence_closed_form(fp, sheet, _TOL))
                     / (divergence_scale(fp, sheet, _TOL) + 1e-30)
                     for sheet in (1, 2)))
    results.append(CheckResult(
        "central.divergence_identity.graph_generic", worst <= bound_id,
        f"n={len(fp.u)}x2 max_rel={worst:.3e} bound={bound_id:.1e}"))

    for name in ("helicoid", "enneper", "dini"):
        fp = sample_frame_points(_prog(name), 100, rng, _TOL,
                                 sheets=(1, 2), healthy=10.0)
        rep = proposition_report(fp, tol=_TOL)
        worst_div = _worst(*(rep.prop_residuals[key].lhs_defect
                             for key in ("prop1_s1", "prop1_s2")))
        worst_w = _worst(abs(rep.w_defect))
        results.append(CheckResult(
            f"central.divergence_and_w_defect.{name}",
            worst_div <= bound_div and worst_w <= bound_w,
            f"n={len(fp.u)} max_div_defect={worst_div:.3e} "
            f"bound={bound_div:.1e} max_w_defect={worst_w:.3e} "
            f"bound_w={bound_w:.1e}"))

    fp = sample_frame_points(_prog("graph_generic"), 12, rng, _TOL,
                             sheets=(1, 2), healthy=10.0, min_k=0.05,
                             min_gap=0.02)
    jac = w_jacobian(fp)
    grad_q = jet_gradients(fp)["connection"]
    misses, used = [], 0
    for sheet in (1, 2):
        k, _, own = own_curvature(fp, sheet)
        quad_variant = jt.power(k, 2) * jac / (jt.power(fp.k1 - fp.k2, 3) * own)
        kept = ~(abs(quad_variant) < 1e-12)
        used += int(np.count_nonzero(kept))
        div = isothermic_divergence(fp, grad_q, sheet, _TOL)
        misses.append((abs(div / quad_variant - k) / abs(k))[kept])
    worst = _worst(*misses)
    results.append(CheckResult(
        "central.cubic_power.graph_generic", used > 0 and worst <= bound_pow,
        f"n={len(fp.u)}x2 used={used} max_rel={worst:.3e} "
        f"bound={bound_pow:.1e}"))
    return results


# --------------------------------------------------------------------- nets

_REARRANGEMENT_KEYS = ("prop3a_13", "prop3a_14", "prop3b_13", "prop3b_14",
                       "prop4_15", "prop4_16")


def check_rearrangements(seed: int = 7) -> List[CheckResult]:
    """Exact net rearrangements at 50 generic points."""
    rng = np.random.default_rng(seed)
    bound = 1e-12
    fp = sample_frame_points(_prog("graph_generic"), 50, rng, _TOL,
                             sheets=(1, 2), healthy=5.0)
    res = prop_residuals(fp, jet_gradients(fp), _TOL)
    worst = _worst(*(res[key].identity_residual
                     for key in _REARRANGEMENT_KEYS))
    return [CheckResult(
        "nets.rearrangements.graph_generic", worst <= bound,
        f"n={len(fp.u)} keys={len(_REARRANGEMENT_KEYS)} "
        f"max_residual={worst:.3e} bound={bound:.1e}")]


def _synthetic_equal_gradient_points(rng, n: int) -> FramePoint:
    """n frame points whose two curvature gradients coincide, so the
    difference k1 - k2 is stationary; only the value fields are populated
    (the asymptotic-net pullbacks touch nothing else).  Point by point the
    draws are k1, k1 - k2, then per gradient component |g| and its sign."""
    k1, gap, g1, s1, g2, s2 = rng.uniform((0.5, 0.5, 0.3, 0.0, 0.3, 0.0),
                                          (2.0, 1.5, 1.5, 1.0, 1.5, 1.0),
                                          (n, 6)).T
    g = (np.where(s1 < 0.5, g1, -g1), np.where(s2 < 0.5, g2, -g2))
    return FramePoint(u=0.0, v=0.0, pd=None, k1=k1, k2=k1 - gap, q1=0.0,
                      q2=0.0, grad_k1=g, grad_k2=g, x=None, e1=None,
                      e2=None, e3=None)


def check_remarks(seed: int = 7) -> List[CheckResult]:
    """Stationary k1 - k2 makes the asymptotic pullbacks coincide and bisect
    the principal directions; on the helicoid they are imaginary."""
    rng = np.random.default_rng(seed)
    bound = 1e-6
    atan2 = np.frompyfunc(math.atan2, 2, 1)       # math.atan2's bits
    fp = _synthetic_equal_gradient_points(rng, 40)
    nets = [net_asymptotic_pullback(fp, sheet, _TOL) for sheet in (1, 2)]
    t13, t14 = (np.stack(np.broadcast_arrays(*net.triple()), axis=-1)
                / net_norm(net)[:, None] for net in nets)
    t14 = np.where((t13[:, None, :] @ t14[:, :, None])[:, 0] < 0, -t14, t14)
    worst_coin = _worst(abs(t13 - t14))
    directions = [net_directions(net) for net in nets]
    failed = sum(np.count_nonzero(~np.equal(d[2], None)) for d in directions)
    worst_bis = _worst(*(abs(np.asarray(atan2(abs(c2), abs(c1)), dtype=float)
                             - math.pi / 4)
                         for d0, d1, _ in directions for c1, c2 in (d0, d1)))
    results = [CheckResult(
        "nets.coincide_and_bisect.synthetic",
        not failed and worst_coin <= bound and worst_bis <= bound,
        f"n=40 max_coincidence={worst_coin:.3e} "
        f"max_bisection_rad={worst_bis:.3e} bound={bound:.1e}"
        + (f" failed={failed}" if failed else ""))]

    fp = sample_frame_points(_prog("helicoid"), 100, rng, _TOL,
                             sheets=(1,), healthy=10.0)
    disc = float(np.max(reality_discriminant(
        net_asymptotic_pullback(fp, 1, _TOL))))
    results.append(CheckResult(
        "nets.reality.helicoid", disc < 0.0,
        f"n={len(fp.u)} max_discriminant={disc:.3e} (must be < 0)"))
    return results


# -------------------------------------------------------------------- props

def check_prop5_prop6(seed: int = 7) -> List[CheckResult]:
    """Forward checks: stationary mean curvature makes the curvature-line
    pullbacks orthogonal (helicoid), stationary Gauss curvature makes them
    conjugate (dini); the spherical-image identity on graph_generic.

    Dini's samples need no moulding exclusion: the conjugacy side of the
    statement is q_i nabla_i K, which vanishes with nabla K whatever q_i
    is, so a moulding point (q_i = 0) satisfies it as any other does."""
    rng = np.random.default_rng(seed)
    bound = 1e-8
    results = []

    fp = sample_frame_points(_prog("helicoid"), 100, rng, _TOL,
                             sheets=(1, 2), healthy=10.0)
    worst = _worst(*(abs(orthogonality_defect(
        net_curvature_pullback(fp, sheet, _TOL))) for sheet in (1, 2)))
    results.append(CheckResult(
        "props.orthogonality.helicoid", worst <= bound,
        f"n={len(fp.u)}x2 max_orth_defect={worst:.3e} bound={bound:.1e}"))

    fp = sample_frame_points(_prog("dini"), 100, rng, _TOL,
                             sheets=(1, 2), healthy=10.0)
    worst = _worst(*(abs(conjugacy_defect(
        net_curvature_pullback(fp, sheet, _TOL), fp.k1, fp.k2))
        for sheet in (1, 2)))
    results.append(CheckResult(
        "props.conjugacy.dini", worst <= bound,
        f"n={len(fp.u)}x2 max_conj_defect={worst:.3e} bound={bound:.1e}"))

    fp = sample_frame_points(_prog("graph_generic"), 50, rng, _TOL,
                             sheets=(1, 2), healthy=5.0)
    res = prop_residuals(fp, jet_gradients(fp), _TOL)
    worst = _worst(*(res[key].identity_residual
                     for key in ("prop6_17", "prop6_18")))
    results.append(CheckResult(
        "props.spherical_identity.graph_generic", worst <= bound,
        f"n={len(fp.u)} max_residual={worst:.3e} bound={bound:.1e}"))
    return results


def check_degeneracies(seed: int = 7) -> List[CheckResult]:
    """Status routing: umbilic sphere, parabolic plane and saddle origin,
    canal torus tube sheet, canal helicoid axis line — all by status."""
    rng = np.random.default_rng(seed)
    results = []

    for name, first, want in (("sphere", (0.1, 0.2), "umbilic"),
                              ("plane", (0.0, 0.0), "parabolic")):
        statuses = {point_record(_prog(name), u, v, _TOL)["status"]
                    for u, v in [first, *domain_points(_prog(name), 20, rng)]}
        results.append(CheckResult(
            f"props.status.{name}_{want}", statuses == {want},
            f"statuses={sorted(statuses)} (want only '{want}')"))

    status = point_record(_prog("monkey_saddle"), 0.0, 0.0, _TOL)["status"]
    results.append(CheckResult(
        "props.status.monkey_saddle_origin", status == "parabolic",
        f"status={status} (want 'parabolic')"))

    recs = [point_record(_prog("torus"), u, v, _TOL)
            for u, v in domain_points(_prog("torus"), 100, rng).tolist()]
    ok = all(r["status"].startswith("canal") and r["flags"]["canal2"]
             for r in recs)
    results.append(CheckResult(
        "props.status.torus_tube_canal", ok,
        f"n={len(recs)} statuses={sorted({r['status'] for r in recs})}"
        + (" canal2 flag everywhere" if ok else "")))

    recs = [point_record(_prog("helicoid"), u, 0.0, _TOL)
            for u in (-2.0, -0.5, 0.7, 2.4)]
    ok = all(r["status"].startswith("canal") and r["flags"]["canal1"]
             for r in recs)
    results.append(CheckResult(
        "props.status.helicoid_axis_canal", ok,
        f"v=0 statuses={sorted({r['status'] for r in recs})} "
        f"canal1={[r['flags']['canal1'] if r['flags'] else None for r in recs]}"))
    return results


_IMPLICATION_PREMISES = ("mean", "gauss", "diff", "ratio",
                         "radii_diff", "radii_sum")


# A profile curve swept perpendicular to a planar base curve: one family of
# curvature lines stays planar and geodesic (q1 = 0 identically), while the
# curvature gradients stay generic, so every point is moulding and no sheet
# is canal.
SWEPT_SRC = """
surface swept {
  param a = 0.3
  param b = 0.5
  x = u - 2.0 * a * u * v / sqrt(1.0 + 4.0 * a * a * u * u)
  y = a * u * u + v / sqrt(1.0 + 4.0 * a * a * u * u)
  z = b * v * v
  domain u in [-1.2, 1.2] v in [0.1, 1.0]
}
"""


def check_gallery(seed: int = 7) -> List[CheckResult]:
    """Two guards over one sweep of 40 random points per gallery surface,
    and then of 40 on the `SWEPT_SRC` surface, where the moulding guard
    has points to check: no gallery surface is moulding with both sheets
    non-canal.

    Implication lattice: any stationary curvature function forces the
    functional-relation defect down (premise at tol.classify, conclusion at
    10 x tol.classify).  Moulding exclusion: at a geodesic-family (moulding)
    point, an orthogonal curvature-line pullback forces canal degeneracy, so
    no sample combines the moulding flag, a vanishing orthogonality side,
    and both canal flags clear; the line fails when no sample is moulding
    with both canal flags clear."""
    rng = np.random.default_rng(seed)
    violations, offenders = [], []
    checked = moulding_checked = 0
    surfaces = [(name, _prog(name)) for name in gallery_names()]
    surfaces.append(("swept", load_surface(SWEPT_SRC)))
    for name, prog in surfaces:
        for u, v in domain_points(prog, 40, rng).tolist():
            rec = point_record(prog, u, v, _TOL)
            if rec["defects"] is None:
                continue
            checked += 1
            normed = rec["defects"]["class_normalized"]
            w_abs = abs(rec["defects"]["w"])
            for cls in _IMPLICATION_PREMISES:
                if normed[cls] <= _TOL.classify and w_abs > 10 * _TOL.classify:
                    violations.append((name, u, v, cls, w_abs))
            flags = rec["flags"]
            if flags["canal1"] or flags["canal2"] or not flags["moulding"]:
                continue
            moulding_checked += 1
            lhs = max(rec["prop_residuals"]["prop5a_17"]["lhs_defect"],
                      rec["prop_residuals"]["prop5a_18"]["lhs_defect"])
            if lhs <= 10 * _TOL.classify:
                offenders.append((name, u, v, lhs))
    return [
        CheckResult(
            "props.implication_lattice.gallery", not violations,
            f"checked={checked} points, violations={len(violations)}"
            + (f" first={violations[0]!r}" if violations else "")),
        CheckResult(
            "props.moulding_exclusion.gallery",
            moulding_checked > 0 and not offenders,
            f"checked={checked} points, moulding_checked={moulding_checked},"
            f" offenders={len(offenders)}"
            + (f" first={offenders[0]!r}" if offenders else "")),
    ]


# --------------------------------------------------------------------- jets

_CONV_EXPRS = (
    ("sin(u) * cos(v) + u * v^2 / 5", (0.4, -0.3)),
    ("exp(u / 2) * ln(2 + v)", (0.3, 0.4)),
    ("sqrt(4 + u^2 + v^2)", (0.5, -0.2)),
    ("tan(u / 3) + sinh(v / 2) * cosh(u / 3)", (0.7, 0.5)),
    ("(1 + u^2) ^ 1.5 / (2 + cos(v))", (0.35, 0.25)),
)
_CONV_ORDERS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (3, 0))
_CONV_HS = (2e-3, 1e-3, 5e-4, 2.5e-4)


def _expr_prog(expr: str):
    src = (f"surface conv {{\n  x = {expr}\n  y = u\n  z = v\n"
           "  domain u in [-1, 1] v in [-1, 1]\n}\n")
    return compile_surface(parse_surface(src))


def _fd_convergence() -> CheckResult:
    """Jet coefficients against finite differences taken in mpmath, whose
    error must shrink at least 3x per halving of h.  Without mpmath (an
    install without the ``test`` extra) the line fails and names it."""
    try:
        import mpmath  # noqa: F401  (the stencils of `jet_fd_error`)
    except ImportError as exc:
        return CheckResult("jets.fd_convergence", False,
                           f"needs the {exc.name} module, not installed "
                           "(pip install '.[test]')")
    min_ratio = math.inf
    worst = ""
    informative = 0
    for expr, (u, v) in _CONV_EXPRS:
        prog = _expr_prog(expr)
        for i, j in _CONV_ORDERS:
            errs = [jet_fd_error(prog, u, v, 0, i, j, h) for h in _CONV_HS]
            for a, b in zip(errs, errs[1:]):
                if a < 1e-15 or b < 1e-15:
                    # saturated at the coefficient's own rounding floor;
                    # the ratio no longer measures truncation order
                    continue
                informative += 1
                ratio = a / b
                if ratio < min_ratio:
                    min_ratio = ratio
                    worst = f"{expr!r} d({i},{j})"
    return CheckResult(
        "jets.fd_convergence", min_ratio >= 3.0 and informative >= 15,
        f"exprs={len(_CONV_EXPRS)} orders={len(_CONV_ORDERS)} "
        f"informative_pairs={informative} min_halving_ratio={min_ratio:.2f} "
        f"(>=3 required) at {worst}")


def check_toolchain(seed: int = 7) -> List[CheckResult]:
    """Jet-vs-FD convergence, parser round-trip, report round-trip, and
    byte-determinism of emitted files (nothing here is sampled)."""
    results = [_fd_convergence()]

    mismatch = [name for name in gallery_names()
                if parse_surface(surface_source(gallery(name)))
                != gallery(name)]
    results.append(CheckResult(
        "jets.dsl_roundtrip", not mismatch,
        f"{len(gallery_names())} gallery definitions"
        + (f", mismatches: {mismatch}" if mismatch else " all round-trip")))

    rep = grid_report(_prog("graph_generic"), 5, 5, _TOL)
    txt = emit_json(rep)
    ok_rt = parse_json(txt).to_dict() == rep.to_dict()
    ok_bytes = emit_json(grid_report(_prog("graph_generic"), 5, 5, _TOL)) == txt
    results.append(CheckResult(
        "jets.json_roundtrip", ok_rt and ok_bytes,
        f"grid 5x5 round_trip={ok_rt} byte_identical={ok_bytes}"))

    with tempfile.TemporaryDirectory() as td:
        d1, d2 = os.path.join(td, "a"), os.path.join(td, "b")
        for d in (d1, d2):
            export_obj(_prog("graph_quad"), 7, 7, d, central=(1, 2),
                       nets=("13", "17"), tol=_TOL)
        names = sorted(os.listdir(d1))
        same = names == sorted(os.listdir(d2)) and all(
            Path(d1, f).read_bytes() == Path(d2, f).read_bytes()
            for f in names)
    results.append(CheckResult(
        "jets.mesh_determinism", same,
        f"files={names} byte_identical={same}"))
    return results


# ------------------------------------------------------------------- suites

_SUITES: Dict[str, Tuple[Callable[[int], List[CheckResult]], ...]] = {
    "jets": (check_toolchain,),
    "structure": (check_structure,),
    "central": (check_central_oracle, check_central_pfaffian,
                check_divergence),
    "nets": (check_rearrangements, check_remarks),
    "props": (check_prop5_prop6, check_degeneracies, check_gallery),
}
_SUITES["all"] = tuple(c for checks in _SUITES.values() for c in checks)

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 7) -> List[CheckResult]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite '{name}' "
                         f"(expected one of {', '.join(SUITE_NAMES)})")
    return [r for check in _SUITES[name] for r in check(seed)]
