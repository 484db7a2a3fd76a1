"""Focal sheets: canal degeneracy, the sheet-index gate, connection
structure and sheet derivatives.  The sampled oracle, focal-position,
divergence and cubic-power sweeps live in `focalnet.checks` (asserted by
test_acceptance)."""
import numpy as np
import pytest

from focalnet.central import (base_coframe_matrix, canal_threshold,
                              central_ii_oracle, central_pfaffian,
                              central_point, check_canal,
                              divergence_closed_form, divergence_scale,
                              focal_coframe_matrix, is_canal,
                              isothermic_divergence)
from focalnet.checks import sample_frame_points
from focalnet.errors import CanalDegenerate
from focalnet.frames import frame_point
from focalnet.nets import net_asymptotic_pullback, net_curvature_pullback


def test_paraboloid_apex_is_canal_both_sheets(prog, tol):
    """At the apex both curvatures are critical (symmetry), so both focal
    sheets are degenerate there."""
    fp = frame_point(prog("graph_quad"), 0.0, 0.0, tol)
    for sheet in (1, 2):
        with pytest.raises(CanalDegenerate):
            central_point(fp, sheet=sheet, tol=tol)


def test_connection_coefficients_structure(prog, tol, rng):
    """Per sheet one connection coefficient vanishes identically and the
    other equals k1 k2/(k1 - k2) — in the closed form AND the oracle."""
    program = prog("graph_generic")
    for fp in sample_frame_points(program, 6, rng, tol, sheets=(1, 2),
                                  healthy=10.0, min_k=0.05, min_gap=0.02):
        qq = fp.k1 * fp.k2 / (fp.k1 - fp.k2)
        cp1 = central_point(fp, sheet=1, tol=tol)
        cp2 = central_point(fp, sheet=2, tol=tol)
        assert cp1.q2 == 0.0 and cp2.q1 == 0.0
        assert cp1.q1 == pytest.approx(qq, rel=1e-12)
        assert cp2.q2 == pytest.approx(qq, rel=1e-12)
        for sheet, expect in ((1, (qq, 0.0)), (2, (0.0, qq))):
            cf = central_ii_oracle(program, fp.u, fp.v, sheet, tol)
            scale = abs(qq) + 1e-9
            assert abs(cf.q1 - expect[0]) / scale < 1e-7
            assert abs(cf.q2 - expect[1]) / scale < 1e-7


def test_central_pfaffian_df_consistency(prog, tol, rng):
    """(D1'f, D2'f) composed with the sheet coframe over (du, dv) must
    reproduce the raw parameter-space differential (f_u, f_v)."""
    program = prog("graph_generic")
    for fp in sample_frame_points(program, 8, rng, tol, sheets=(1, 2),
                                  healthy=10.0):
        base = base_coframe_matrix(fp.pd)
        field = fp.k2_jet * fp.k1_jet + fp.pd.sj.x    # arbitrary scalar jet
        grad = fp.gradient(field)
        f_uv = np.array([field.extract(1, 0), field.extract(0, 1)])
        for sheet in (1, 2):
            p_uv = focal_coframe_matrix(fp, sheet) @ base
            d_sheet = np.array(central_pfaffian(fp, grad, sheet, tol))
            back = d_sheet @ p_uv
            scale = np.abs(f_uv).sum() + 1e-30
            assert np.abs(back - f_uv).max() / scale < 1e-10


def test_canal_detection_torus(prog, tol):
    """Tube sheet of the torus: curvature constant along its own line."""
    fp = frame_point(prog("torus"), 0.5, 1.1, tol)
    with pytest.raises(CanalDegenerate) as ei:
        check_canal(fp, 2, tol)
    assert ei.value.sheet == 2
    assert ei.value.status == "canal2"
    with pytest.raises(CanalDegenerate):
        central_point(fp, sheet=2, tol=tol)
    with pytest.raises(CanalDegenerate):
        central_ii_oracle(prog("torus"), 0.5, 1.1, sheet=2, tol=tol)
    with pytest.raises(CanalDegenerate):
        isothermic_divergence(fp, 2, tol)


def test_canal_threshold_scales_with_curvature(prog, tol):
    fp = frame_point(prog("graph_generic"), 0.4, 0.3, tol)
    t = canal_threshold(fp, tol)
    assert t > 0
    k = max(abs(fp.k1), abs(fp.k2))
    assert t == pytest.approx(tol.canal * (k ** 3 + tol.curvature_floor),
                              rel=1e-15)


def test_sheet_argument_validated(prog, tol):
    """Every sheet entry point rejects a sheet other than 1 or 2 (the gate
    is `is_canal`), rather than returning the other sheet's values."""
    program = prog("graph_generic")
    fp = frame_point(program, 0.4, 0.3, tol)
    grad = fp.gradient(fp.k1_jet)
    entries = {
        "is_canal": lambda s: is_canal(fp, s, tol),
        "check_canal": lambda s: check_canal(fp, s, tol),
        "central_point": lambda s: central_point(fp, sheet=s, tol=tol),
        "central_pfaffian": lambda s: central_pfaffian(fp, grad, s, tol),
        "isothermic_divergence": lambda s: isothermic_divergence(fp, s, tol),
        "divergence_closed_form": lambda s: divergence_closed_form(fp, s, tol),
        "divergence_scale": lambda s: divergence_scale(fp, s, tol),
        "net_asymptotic_pullback":
            lambda s: net_asymptotic_pullback(fp, s, tol),
        "net_curvature_pullback":
            lambda s: net_curvature_pullback(fp, s, tol),
        "central_ii_oracle":
            lambda s: central_ii_oracle(program, 0.4, 0.3, s, tol),
    }
    for name, call in entries.items():
        for sheet in (1, 2):
            call(sheet)
        for sheet in (0, 3):
            with pytest.raises(ValueError, match="sheet must be 1 or 2"):
                call(sheet)
                pytest.fail(f"{name} accepted sheet {sheet}")
