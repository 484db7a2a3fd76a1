"""Focal sheets: canal degeneracy, connection structure, focal positions and
sheet derivatives.  The sampled oracle, divergence and cubic-power sweeps
live in `focalnet.checks` (asserted by test_acceptance)."""
import numpy as np
import pytest

from focalnet.central import (base_coframe_matrix, canal_threshold,
                              central_ii_oracle, central_pfaffian,
                              central_point, check_canal,
                              focal_coframe_matrix, isothermic_divergence)
from focalnet.checks import sample_frame_points
from focalnet.errors import CanalDegenerate
from focalnet.frames import frame_point


def test_paraboloid_apex_is_canal_both_sheets(prog, tol):
    """At the apex both curvatures are critical (symmetry), so both focal
    sheets are degenerate there."""
    fp = frame_point(prog("graph_quad"), 0.0, 0.0, tol)
    for sheet in (1, 2):
        with pytest.raises(CanalDegenerate):
            central_point(fp, sheet=sheet, tol=tol)


def test_focal_point_position_jet_free(prog, tol):
    """y_i = x + e3/k_i checked against a frame built purely from finite
    differences of the position map (no jet arithmetic on that path)."""
    from focalnet.fdoracle import fd_surface_jet
    from focalnet.frames import frame_point_from_pd
    from focalnet.geometry import principal_data
    program = prog("graph_quad")
    u, v = 0.31, -0.44
    fp = frame_point(program, u, v, tol)
    fq = frame_point_from_pd(
        principal_data(fd_surface_jet(program, u, v, 0.01), tol), tol)
    x = np.array(program.position(u, v))
    for sheet, fqk in ((1, fq.k1), (2, fq.k2)):
        cp = central_point(fp, sheet=sheet, tol=tol)
        n = np.array([c.value for c in fq.pd.e3])
        y_fd = x + n / fqk
        assert cp.y == pytest.approx(y_fd, rel=1e-7, abs=1e-8)


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
    fp = frame_point(prog("graph_generic"), 0.4, 0.3, tol)
    with pytest.raises(ValueError):
        central_point(fp, sheet=3, tol=tol)
