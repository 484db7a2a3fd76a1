"""Self-check suites: seeded, deterministic verification runs shared by the
``check`` CLI subcommand and the test suite.

Suites: ``jets`` (jet-vs-FD convergence and serialization round-trips),
``structure`` (frame compatibility equations), ``central`` (focal-sheet
fundamentals and coframes vs. the independent oracle, focal positions vs. a
jet-free finite-difference build, focal derivatives vs. finite differences,
the divergence identity and its cubic curvature power), ``nets`` (exact net
rearrangements, coincidence/bisection, reality), ``props`` (forward
statement checks, degeneracy statuses, flag implications), and ``all``.

These routines are the only place an identity is swept over sampled points;
the test suite asserts on their results.  Every bound is pinned in the check
that uses it, and ``seed`` drives all sampling.  Sampling guards (curvature
floors, canal margins) keep oracle comparisons inside their well-conditioned
regime; the identities themselves hold at every non-degenerate point.
"""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .central import (canal_threshold, central_ii_oracle, central_point,
                      central_pfaffian, divergence_closed_form,
                      divergence_scale, isothermic_divergence, w_jacobian,
                      base_coframe_matrix, focal_coframe_matrix)
from .classify import moulding_defect, proposition_report
from .errors import FRAME_ERRORS, FocalnetError
from .fdoracle import fd_frame_field, fd_surface_jet, jet_fd_error
from .frames import (FramePoint, check_codazzi, check_gauss, codazzi_scale,
                     frame_point, gauss_scale)
from .geometry import principal_data
from .mesh import export_obj
from .nets import (net_asymptotic_pullback, net_curvature_pullback,
                   net_directions, net_norm, orthogonality_defect,
                   conjugacy_defect, reality_discriminant)
from .report import grid_report, emit_json, parse_json, point_record
from .sdl import compile_surface, gallery, gallery_names, parse_surface, surface_source
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES", "domain_points",
           "sample_frame_points", "check_structure", "check_central_oracle",
           "check_central_pfaffian", "check_divergence",
           "check_rearrangements", "check_prop5_prop6", "check_degeneracies",
           "check_remarks", "check_toolchain", "check_gallery"]

GENERIC5 = ("graph_generic", "helicoid", "enneper", "scherk", "dini")
CENTRAL7 = GENERIC5 + ("graph_quad", "monkey_saddle")

_TOL = DEFAULT_TOLERANCES


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


def domain_points(prog, n: int, rng,
                  margin: float = 0.05) -> List[Tuple[float, float]]:
    """n random (u, v) pairs inside the domain box, shrunk by ``margin`` of
    its width per side; u is drawn before v for each pair."""
    box = prog.definition.domain
    eu, ev = box.u_max - box.u_min, box.v_max - box.v_min
    return [(float(rng.uniform(box.u_min + margin * eu,
                               box.u_max - margin * eu)),
             float(rng.uniform(box.v_min + margin * ev,
                               box.v_max - margin * ev)))
            for _ in range(n)]


def sample_frame_points(prog, n: int, rng, tol: ToleranceSet = DEFAULT_TOLERANCES,
                        *, margin: float = 0.05,
                        sheets: Sequence[int] = (),
                        healthy: float = 10.0,
                        min_k: float = 0.0,
                        min_gap: float = 0.0,
                        nonmoulding: float = 0.0) -> List[FramePoint]:
    """Rejection-sample n non-degenerate frame points in the domain box
    (shrunk by ``margin`` per side).  ``sheets`` demands |nabla_i k_i| >=
    healthy x canal threshold for those sheets; ``min_k`` floors min(|k1|,
    |k2|); ``min_gap`` floors |k1-k2| relative to |k1|+|k2|; ``nonmoulding``
    floors the moulding defect."""
    out: List[FramePoint] = []
    draws, cap = 0, max(4000, 400 * n)
    while len(out) < n and draws < cap:
        draws += 1
        (u, v), = domain_points(prog, 1, rng, margin)
        try:
            fp = frame_point(prog, u, v, tol)
        except FRAME_ERRORS:
            continue
        if min(abs(fp.k1), abs(fp.k2)) < min_k:
            continue
        if abs(fp.k1 - fp.k2) < min_gap * (abs(fp.k1) + abs(fp.k2)):
            continue
        if sheets:
            thr = canal_threshold(fp, tol)
            diag = {1: abs(fp.grad_k1[0]), 2: abs(fp.grad_k2[1])}
            if any(diag[s] < healthy * thr for s in sheets):
                continue
        if nonmoulding and moulding_defect(fp, tol) <= nonmoulding:
            continue
        out.append(fp)
    if len(out) < n:
        raise FocalnetError(
            f"sampling exhausted on {prog.definition.name}: "
            f"{len(out)}/{n} points after {draws} draws")
    return out


# ---------------------------------------------------------------- structure

def check_structure(seed: int = 7) -> List[CheckResult]:
    """Compatibility-equation residuals on the five generic surfaces and the
    torus."""
    rng = np.random.default_rng(seed)
    bound = 1e-10
    results = []
    t0 = perf_counter()
    for name in GENERIC5 + ("torus",):
        pts = sample_frame_points(_prog(name), 220, rng, _TOL)
        max_cod = max_gau = 0.0
        for fp in pts:
            r1, r2 = check_codazzi(fp)
            max_cod = max(max_cod, max(abs(r1), abs(r2)) / codazzi_scale(fp))
            max_gau = max(max_gau, abs(check_gauss(fp)) / gauss_scale(fp))
        ok = max_cod <= bound and max_gau <= bound
        results.append(CheckResult(
            f"structure.codazzi_gauss.{name}", ok,
            f"n={len(pts)} max_codazzi={max_cod:.3e} "
            f"max_gauss={max_gau:.3e} bound={bound:.1e}"))
    dt = perf_counter() - t0
    results.append(CheckResult("structure.runtime", dt <= 10.0,
                               f"elapsed={dt:.2f}s bound=10.0s"))
    return results


# ------------------------------------------------------------------ central

def _oracle_mismatch(prog, fp: FramePoint,
                     sheet: int) -> Tuple[float, float]:
    """Closed form vs. oracle at one point of one sheet: relative mismatch
    of (a, b, c, q1, q2), and of the coframe against the projection of dy."""
    cp = central_point(fp, sheet=sheet, tol=_TOL)
    cf = central_ii_oracle(prog, fp.u, fp.v, sheet=sheet, tol=_TOL)
    closed = (cp.a, cp.b, cp.c, cp.q1, cp.q2)
    oracle = (cf.a, cf.b, cf.c, cf.q1, cf.q2)
    scale = max(abs(x) for x in closed + oracle) + 1e-30
    fundamentals = max(abs(x - y) for x, y in zip(closed, oracle)) / scale
    coframe = float(np.abs(cf.coframe_uv - cf.coframe_uv_projected).max()
                    / (np.abs(cf.coframe_uv).max() + 1e-30))
    return fundamentals, coframe


_Y_POINTS, _Y_STEP = 20, 3e-3


def _position_mismatch(prog, fp: FramePoint) -> float:
    """Closed-form focal positions of both sheets vs. x + e3/k_i with x from
    `prog.position` and e3, k_i from a finite-difference surface jet, so no
    jet arithmetic enters that side; per component, relative to
    max(|y_i|, 1e-2)."""
    pd = principal_data(fd_surface_jet(prog, fp.u, fp.v, _Y_STEP), _TOL)
    x = prog.position(fp.u, fp.v)
    normal = np.array([c.value for c in pd.e3])
    ys = (central_point(fp, sheet=s, tol=_TOL).y for s in (1, 2))
    return max(float(np.max(np.abs(x + normal / k.value - y)
                            / np.maximum(np.abs(y), 1e-2)))
               for k, y in zip((pd.k1, pd.k2), ys))


def check_central_oracle(seed: int = 7) -> List[CheckResult]:
    """Closed-form focal fundamentals vs. the direct second-form oracle, the
    oracle's coframe vs. its projection of dy, and, on the first points of
    each surface, closed-form focal positions vs. a jet-free build."""
    rng = np.random.default_rng(seed)
    bound, bound_y, bound_coframe = 1e-7, 1e-7, 1e-10
    results = []
    for name in CENTRAL7:
        prog = _prog(name)
        pts = sample_frame_points(prog, 100, rng, _TOL, sheets=(1, 2),
                                  healthy=10.0, min_k=0.05, min_gap=0.02)
        rel, coframe = (max(col) for col in zip(
            *(_oracle_mismatch(prog, fp, sheet)
              for fp in pts for sheet in (1, 2))))
        y = max(_position_mismatch(prog, fp) for fp in pts[:_Y_POINTS])
        results.append(CheckResult(
            f"central.oracle.{name}",
            rel <= bound and y <= bound_y and coframe <= bound_coframe,
            f"n={len(pts)}x2 sheets max_rel={rel:.3e} bound={bound:.1e} "
            f"max_y={y:.3e} n_y={_Y_POINTS} bound_y={bound_y:.1e} "
            f"max_coframe={coframe:.3e} bound_coframe={bound_coframe:.1e}"))
    return results


def _pfaffian_fields(fp: FramePoint):
    """(jet field, aligned-frame sampler) pairs for FD comparison."""
    sj = fp.pd.sj
    return (
        ("k2", fp.k2_jet, lambda fq: fq.k2),
        ("k1", fp.k1_jet, lambda fq: fq.k1),
        ("pos", sj.x + 2.0 * sj.y - sj.z,
         lambda fq: (fq.pd.sj.x.value + 2.0 * fq.pd.sj.y.value
                     - fq.pd.sj.z.value)),
    )


def check_central_pfaffian(seed: int = 7) -> List[CheckResult]:
    """Focal-sheet derivatives vs. finite differences along the focal
    coordinate directions, plus the df-consistency identity."""
    rng = np.random.default_rng(seed)
    bound_fd = 1e-6
    bound_df = 1e-10
    results = []
    for name in ("graph_generic", "monkey_saddle"):
        prog = _prog(name)
        pts = sample_frame_points(prog, 8, rng, _TOL, sheets=(1, 2),
                                  healthy=20.0, min_k=0.08, min_gap=0.05)
        worst_fd = worst_df = 0.0
        for fp in pts:
            base = base_coframe_matrix(fp.pd)
            for sheet in (1, 2):
                p_uv = focal_coframe_matrix(fp, sheet) @ base
                for _, jet_field, sampler in _pfaffian_fields(fp):
                    grad = fp.gradient(jet_field)
                    ana = central_pfaffian(fp, grad, sheet, _TOL)
                    gscale = abs(ana[0]) + abs(ana[1]) + 1e-12
                    for i in (0, 1):
                        direction = np.linalg.solve(p_uv, np.eye(2)[:, i])
                        speed = float(np.linalg.norm(direction))
                        fd = fd_frame_field(prog, fp.u, fp.v, sampler,
                                            tuple(direction / speed),
                                            5e-4, _TOL)
                        worst_fd = max(worst_fd,
                                       abs(ana[i] - speed * fd) / gscale)
                    duv = np.array(ana) @ p_uv
                    f_u = jet_field.extract(1, 0)
                    f_v = jet_field.extract(0, 1)
                    dfres = (abs(duv[0] - f_u) + abs(duv[1] - f_v)) \
                        / (abs(f_u) + abs(f_v) + 1e-30)
                    worst_df = max(worst_df, dfres)
        results.append(CheckResult(
            f"central.pfaffian_fd.{name}", worst_fd <= bound_fd,
            f"n={len(pts)}x2x3 max_rel={worst_fd:.3e} bound={bound_fd:.1e}"))
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

    pts = sample_frame_points(_prog("graph_generic"), 60, rng, _TOL,
                              sheets=(1, 2), healthy=10.0)
    worst = 0.0
    for fp in pts:
        for sheet in (1, 2):
            div = isothermic_divergence(fp, sheet, _TOL)
            closed = divergence_closed_form(fp, sheet, _TOL)
            scale = divergence_scale(fp, sheet, _TOL) + 1e-30
            worst = max(worst, abs(div - closed) / scale)
    results.append(CheckResult(
        "central.divergence_identity.graph_generic", worst <= bound_id,
        f"n={len(pts)}x2 max_rel={worst:.3e} bound={bound_id:.1e}"))

    for name in ("helicoid", "enneper", "dini"):
        pts = sample_frame_points(_prog(name), 100, rng, _TOL,
                                  sheets=(1, 2), healthy=10.0)
        worst_div = worst_w = 0.0
        for fp in pts:
            rep = proposition_report(fp, tol=_TOL)
            for key in ("prop1_s1", "prop1_s2"):
                worst_div = max(worst_div,
                                rep.prop_residuals[key].lhs_defect)
            worst_w = max(worst_w, abs(rep.w_defect))
        results.append(CheckResult(
            f"central.divergence_and_w_defect.{name}",
            worst_div <= bound_div and worst_w <= bound_w,
            f"n={len(pts)} max_div_defect={worst_div:.3e} "
            f"bound={bound_div:.1e} max_w_defect={worst_w:.3e} "
            f"bound_w={bound_w:.1e}"))

    pts = sample_frame_points(_prog("graph_generic"), 12, rng, _TOL,
                              sheets=(1, 2), healthy=10.0, min_k=0.05,
                              min_gap=0.02)
    worst, used = 0.0, 0
    for fp in pts:
        jac = w_jacobian(fp)
        for sheet, k, dk in ((1, fp.k1, fp.grad_k1[0]),
                             (2, fp.k2, fp.grad_k2[1])):
            quad_variant = k ** 2 * jac / ((fp.k1 - fp.k2) ** 3 * dk)
            if abs(quad_variant) < 1e-12:
                continue
            used += 1
            div = isothermic_divergence(fp, sheet, _TOL)
            worst = max(worst, abs(div / quad_variant - k) / abs(k))
    results.append(CheckResult(
        "central.cubic_power.graph_generic", used > 0 and worst <= bound_pow,
        f"n={len(pts)}x2 used={used} max_rel={worst:.3e} "
        f"bound={bound_pow:.1e}"))
    return results


# --------------------------------------------------------------------- nets

_REARRANGEMENT_KEYS = ("prop3a_13", "prop3a_14", "prop3b_13", "prop3b_14",
                       "prop4_15", "prop4_16")


def check_rearrangements(seed: int = 7) -> List[CheckResult]:
    """Exact net rearrangements at 50 generic points."""
    rng = np.random.default_rng(seed)
    bound = 1e-12
    pts = sample_frame_points(_prog("graph_generic"), 50, rng, _TOL,
                              sheets=(1, 2), healthy=5.0)
    worst = 0.0
    for fp in pts:
        rep = proposition_report(fp, tol=_TOL)
        for key in _REARRANGEMENT_KEYS:
            worst = max(worst, rep.prop_residuals[key].identity_residual)
    return [CheckResult(
        "nets.rearrangements.graph_generic", worst <= bound,
        f"n={len(pts)} keys={len(_REARRANGEMENT_KEYS)} "
        f"max_residual={worst:.3e} bound={bound:.1e}")]


def _synthetic_equal_gradient_point(rng) -> FramePoint:
    """A frame point whose two curvature gradients coincide, so the
    difference k1 - k2 is stationary; only the value fields are populated
    (the asymptotic-net pullbacks touch nothing else)."""
    k1 = float(rng.uniform(0.5, 2.0))
    k2 = k1 - float(rng.uniform(0.5, 1.5))
    g = (float(rng.uniform(0.3, 1.5)) * (1 if rng.uniform() < 0.5 else -1),
         float(rng.uniform(0.3, 1.5)) * (1 if rng.uniform() < 0.5 else -1))
    return FramePoint(u=0.0, v=0.0, pd=None, k1=k1, k2=k2, q1=0.0, q2=0.0,
                      grad_k1=g, grad_k2=g, k1_jet=None, k2_jet=None,
                      d2_q1=0.0, d1_q2=0.0)


def check_remarks(seed: int = 7) -> List[CheckResult]:
    """Stationary k1 - k2 makes the asymptotic pullbacks coincide and bisect
    the principal directions; on the helicoid they are imaginary."""
    rng = np.random.default_rng(seed)
    bound = 1e-6
    worst_coin = worst_bis = 0.0
    for _ in range(40):
        fp = _synthetic_equal_gradient_point(rng)
        n13 = net_asymptotic_pullback(fp, 1, _TOL)
        n14 = net_asymptotic_pullback(fp, 2, _TOL)
        t13 = np.array(n13.triple()) / net_norm(n13)
        t14 = np.array(n14.triple()) / net_norm(n14)
        if float(t13 @ t14) < 0:
            t14 = -t14
        worst_coin = max(worst_coin, float(np.max(np.abs(t13 - t14))))
        for net in (n13, n14):
            for c1, c2 in net_directions(net):
                angle = math.atan2(abs(c2), abs(c1))
                worst_bis = max(worst_bis, abs(angle - math.pi / 4))
    results = [CheckResult(
        "nets.coincide_and_bisect.synthetic",
        worst_coin <= bound and worst_bis <= bound,
        f"n=40 max_coincidence={worst_coin:.3e} "
        f"max_bisection_rad={worst_bis:.3e} bound={bound:.1e}")]

    pts = sample_frame_points(_prog("helicoid"), 100, rng, _TOL,
                              sheets=(1,), healthy=10.0)
    discs = [reality_discriminant(net_asymptotic_pullback(fp, 1, _TOL))
             for fp in pts]
    results.append(CheckResult(
        "nets.reality.helicoid", max(discs) < 0.0,
        f"n={len(pts)} max_discriminant={max(discs):.3e} (must be < 0)"))
    return results


# -------------------------------------------------------------------- props

def check_prop5_prop6(seed: int = 7) -> List[CheckResult]:
    """Forward checks: stationary mean curvature makes the curvature-line
    pullbacks orthogonal (helicoid), stationary Gauss curvature makes them
    conjugate (dini); the spherical-image identity on graph_generic."""
    rng = np.random.default_rng(seed)
    bound = 1e-8
    results = []

    pts = sample_frame_points(_prog("helicoid"), 100, rng, _TOL,
                              sheets=(1, 2), healthy=10.0)
    worst = 0.0
    for fp in pts:
        for sheet in (1, 2):
            net = net_curvature_pullback(fp, sheet, _TOL)
            worst = max(worst, abs(orthogonality_defect(net)))
    results.append(CheckResult(
        "props.orthogonality.helicoid", worst <= bound,
        f"n={len(pts)}x2 max_orth_defect={worst:.3e} bound={bound:.1e}"))

    pts = sample_frame_points(_prog("dini"), 100, rng, _TOL,
                              sheets=(1, 2), healthy=10.0,
                              nonmoulding=10.0 * _TOL.moulding)
    worst = 0.0
    for fp in pts:
        for sheet in (1, 2):
            net = net_curvature_pullback(fp, sheet, _TOL)
            worst = max(worst, abs(conjugacy_defect(net, fp.k1, fp.k2)))
    results.append(CheckResult(
        "props.conjugacy.dini", worst <= bound,
        f"n={len(pts)}x2 max_conj_defect={worst:.3e} bound={bound:.1e}"))

    pts = sample_frame_points(_prog("graph_generic"), 50, rng, _TOL,
                              sheets=(1, 2), healthy=5.0)
    worst = 0.0
    for fp in pts:
        rep = proposition_report(fp, tol=_TOL)
        for key in ("prop6_17", "prop6_18"):
            worst = max(worst, rep.prop_residuals[key].identity_residual)
    results.append(CheckResult(
        "props.spherical_identity.graph_generic", worst <= bound,
        f"n={len(pts)} max_residual={worst:.3e} bound={bound:.1e}"))
    return results


def check_degeneracies(seed: int = 7) -> List[CheckResult]:
    """Status routing: umbilic sphere, parabolic plane and saddle origin,
    canal torus tube sheet, canal helicoid axis line — all by status."""
    rng = np.random.default_rng(seed)
    results = []

    statuses = {point_record(_prog("sphere"), u, v, _TOL)["status"]
                for u, v in [(0.1, 0.2)] + domain_points(
                    _prog("sphere"), 20, rng)}
    results.append(CheckResult(
        "props.status.sphere_umbilic", statuses == {"umbilic"},
        f"statuses={sorted(statuses)} (want only 'umbilic')"))

    statuses = {point_record(_prog("plane"), u, v, _TOL)["status"]
                for u, v in [(0.0, 0.0)] + domain_points(
                    _prog("plane"), 20, rng)}
    results.append(CheckResult(
        "props.status.plane_parabolic", statuses == {"parabolic"},
        f"statuses={sorted(statuses)} (want only 'parabolic')"))

    status = point_record(_prog("monkey_saddle"), 0.0, 0.0, _TOL)["status"]
    results.append(CheckResult(
        "props.status.monkey_saddle_origin", status == "parabolic",
        f"status={status} (want 'parabolic')"))

    recs = [point_record(_prog("torus"), u, v, _TOL)
            for u, v in domain_points(_prog("torus"), 100, rng)]
    ok = all(r["status"].startswith("canal") and r["flags"]["canal2"]
             for r in recs)
    results.append(CheckResult(
        "props.status.torus_tube_canal", ok,
        f"n={len(recs)} statuses={sorted({r['status'] for r in recs})} "
        "canal2 flag everywhere" if ok else
        f"n={len(recs)} statuses={sorted({r['status'] for r in recs})}"))

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


def check_gallery(seed: int = 7) -> List[CheckResult]:
    """Two guards over one sweep of 40 random points per gallery surface.

    Implication lattice: any stationary curvature function forces the
    functional-relation defect down (premise at tol.classify, conclusion at
    10 x tol.classify).  Moulding exclusion: at a geodesic-family (moulding)
    point, an orthogonal curvature-line pullback forces canal degeneracy, so
    no sample combines the moulding flag, a vanishing orthogonality side,
    and both canal flags clear."""
    rng = np.random.default_rng(seed)
    violations, offenders = [], []
    checked = 0
    for name in gallery_names():
        prog = _prog(name)
        for u, v in domain_points(prog, 40, rng):
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
            "props.moulding_exclusion.gallery", not offenders,
            f"checked={checked} points, offenders={len(offenders)}"
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


def check_toolchain(seed: int = 7) -> List[CheckResult]:
    """Jet-vs-FD convergence, parser round-trip, report round-trip, and
    byte-determinism of emitted files (nothing here is sampled)."""
    results = []

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
    results.append(CheckResult(
        "jets.fd_convergence", min_ratio >= 3.0 and informative >= 15,
        f"exprs={len(_CONV_EXPRS)} orders={len(_CONV_ORDERS)} "
        f"informative_pairs={informative} min_halving_ratio={min_ratio:.2f} "
        f"(>=3 required) at {worst}"))

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
        export_obj(_prog("graph_quad"), 7, 7, d1, central=(1, 2),
                   nets=("13", "17"), tol=_TOL)
        export_obj(_prog("graph_quad"), 7, 7, d2, central=(1, 2),
                   nets=("13", "17"), tol=_TOL)
        names = sorted(os.listdir(d1))
        same = names == sorted(os.listdir(d2)) and all(
            open(os.path.join(d1, f)).read() == open(os.path.join(d2, f)).read()
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
