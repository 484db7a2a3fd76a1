"""Pointwise classification: defects, flags, proposition residuals."""
import math

import pytest

from focalnet.checks import SWEPT_SRC, domain_points
from focalnet.classify import (CLASS_NAMES, class_defects, flags_from_defects,
                               is_canal, moulding_defect, proposition_report,
                               w_defect)
from focalnet.errors import CanalDegenerate
from focalnet.frames import frame_point, pfaffian_values
from focalnet.report import point_record
from focalnet.sdl import load_surface
from focalnet.decisions import DEFAULT_TOLERANCES

RESIDUAL_KEYS = {
    "prop1_s1", "prop1_s2",
    "prop3a_13", "prop3a_14", "prop3b_13", "prop3b_14",
    "prop4_15", "prop4_16",
    "prop5a_17", "prop5a_18", "prop5b_17", "prop5b_18",
    "prop6_17", "prop6_18",
}


def _flags(prog, u, v, tol):
    return proposition_report(frame_point(prog, u, v, tol), tol=tol).flags


def test_minimal_surface_flags(prog, tol):
    """Helicoid, Enneper and Scherk: cmc/mean, ratio, radii_sum and the
    functional-relation flag hold; the curvature product still varies."""
    for name, u, v in (("helicoid", 0.4, 0.8), ("helicoid", -1.1, -0.6),
                       ("enneper", 0.4, 0.3), ("scherk", 0.3, 0.4)):
        flags = _flags(prog(name), u, v, tol)
        for key in ("weingarten", "cmc", "mean", "ratio", "radii_sum"):
            assert flags[key], (name, key)
        for key in ("diff", "radii_diff", "gauss", "const_gauss",
                    "moulding", "canal1", "canal2"):
            assert not flags[key], (name, key)


def test_constant_gauss_flags(prog, tol):
    for u, v in ((0.5, 1.1), (-0.9, 1.8), (1.4, 0.7)):
        flags = _flags(prog("dini"), u, v, tol)
        assert flags["weingarten"] and flags["gauss"] and flags["const_gauss"]
        for key in ("cmc", "mean", "diff", "ratio", "radii_diff",
                    "radii_sum", "moulding"):
            assert not flags[key], key


def test_generic_graph_has_no_flags(prog, tol):
    for u, v in ((0.3, -0.2), (0.7, 0.5)):
        flags = _flags(prog("graph_generic"), u, v, tol)
        assert not any(flags.values())


def test_w_defect_normalization(prog, tol):
    fp = frame_point(prog("graph_generic"), 0.3, -0.2, tol)
    jac = (fp.grad_k1[0] * fp.grad_k2[1] - fp.grad_k1[1] * fp.grad_k2[0])
    denom = (math.hypot(*fp.grad_k1) * math.hypot(*fp.grad_k2) + 1e-30)
    assert w_defect(fp) == pytest.approx(jac / denom, rel=1e-14)
    assert abs(w_defect(fp)) <= 1.0 + 1e-12


def test_class_defect_normalization(prog, tol):
    """Raw and normalized maps agree through the declared scale; the 'diff'
    scale is |grad k1| + |grad k2|."""
    fp = frame_point(prog("graph_generic"), 0.7, 0.5, tol)
    raw, normed = class_defects(fp)
    assert set(raw) == set(CLASS_NAMES) == set(normed)
    g1 = math.hypot(*fp.grad_k1)
    g2 = math.hypot(*fp.grad_k2)
    assert raw["diff"] == pytest.approx(
        math.hypot(*pfaffian_values(fp.pd.k1 - fp.pd.k2, fp.pd)), rel=1e-14)
    assert normed["diff"] == pytest.approx(raw["diff"] / (g1 + g2 + 1e-30),
                                           rel=1e-14)
    for name in CLASS_NAMES:
        assert normed[name] > DEFAULT_TOLERANCES.classify


def test_swept_surface_is_moulding(tol):
    """One vanishing connection coefficient flags moulding; the q-factored
    statements are excluded; the record status says so."""
    prog = load_surface(SWEPT_SRC)
    for u, v in ((0.5, 0.4), (-0.8, 0.7), (0.2, 0.9)):
        fp = frame_point(prog, u, v, tol)
        assert abs(fp.q1) < 1e-12 and abs(fp.q2) > 0.1
        assert moulding_defect(fp, tol) < tol.moulding
        rep = proposition_report(fp, tol=tol)
        assert rep.flags["moulding"]
        assert rep.excluded == ("prop5a", "prop5b", "prop6")
        rec = point_record(prog, u, v, tol)
        assert rec["status"] == "moulding"
        assert rec["flags"]["moulding"] is True
        assert not rec["flags"]["canal1"] and not rec["flags"]["canal2"]


def test_torus_is_canal_and_moulding(prog, tol):
    program = prog("torus")
    rec = point_record(program, 0.4, 0.9, tol)
    assert rec["status"] == "canal12"
    assert rec["flags"]["canal1"] is True
    assert rec["flags"]["canal2"] is True
    assert rec["flags"]["moulding"] is True
    with pytest.raises(CanalDegenerate):
        proposition_report(frame_point(program, 0.4, 0.9, tol), tol=tol)


@pytest.mark.parametrize("surface, u, v, status", [
    ("torus", 0.4, 0.9, "canal12"),
    ("swept", 0.5, 0.4, "moulding"),
    ("graph_generic", 0.3, -0.2, "ok"),
])
def test_point_record_matches_classify_layer(prog, tol, surface, u, v,
                                             status):
    """point_record's flags and defects are exactly what the classify
    functions give; off canal points they are also proposition_report's,
    and so are the residuals and exclusions."""
    program = load_surface(SWEPT_SRC) if surface == "swept" else prog(surface)
    rec = point_record(program, u, v, tol)
    assert rec["status"] == status
    fp = frame_point(program, u, v, tol)
    raw, normed = class_defects(fp)
    wd, md = w_defect(fp), moulding_defect(fp, tol)
    assert rec["flags"] == flags_from_defects(
        wd, normed, md, is_canal(fp, 1, tol), is_canal(fp, 2, tol), tol)
    assert rec["defects"] == {"w": wd, "moulding": md, "class": raw,
                              "class_normalized": normed}
    if status == "canal12":
        assert rec["prop_residuals"] is None and rec["excluded"] is None
        with pytest.raises(CanalDegenerate):
            proposition_report(fp, tol=tol)
        return
    rep = proposition_report(fp, tol=tol)
    assert rec["flags"] == rep.flags
    assert rec["defects"] == {
        "w": rep.w_defect, "moulding": rep.moulding_defect,
        "class": rep.class_defects,
        "class_normalized": rep.class_defects_normalized}
    assert rec["prop_residuals"] == {
        key: {"lhs_defect": r.lhs_defect, "rhs_defect": r.rhs_defect,
              "identity_residual": r.identity_residual}
        for key, r in rep.prop_residuals.items()}
    assert rec["excluded"] == list(rep.excluded)


def test_residual_keys_and_magnitudes(prog, tol, rng):
    """Every statement key is present and its identity residual is at
    rounding level on a generic surface."""
    program = prog("graph_generic")
    for u, v in domain_points(program, 8, rng):
        try:
            rep = proposition_report(frame_point(program, u, v, tol), tol=tol)
        except CanalDegenerate:
            continue
        assert set(rep.prop_residuals) == RESIDUAL_KEYS
        for key, pr in rep.prop_residuals.items():
            assert pr.identity_residual <= 1e-8, (key, pr)


def test_class_flag_implies_functional_relation(prog, tol, rng):
    """Lattice sanity: each of the six special classes lies inside the
    functionally-dependent class."""
    for name in ("helicoid", "dini", "enneper", "scherk", "graph_generic"):
        program = prog(name)
        for u, v in domain_points(program, 12, rng):
            try:
                rep = proposition_report(frame_point(program, u, v, tol),
                                         tol=tol)
            except CanalDegenerate:
                continue
            if any(rep.flags[n] for n in CLASS_NAMES):
                assert rep.flags["weingarten"], (name, u, v)
