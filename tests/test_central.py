"""Focal sheets: canal degeneracy, the sheet-index gate, connection
structure and sheet derivatives.  The sampled oracle, focal-position,
sheet-derivative (finite-difference and df-consistency), divergence and
cubic-power sweeps live in `focalnet.checks` (asserted by test_acceptance)."""
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import focalnet
from focalnet.central import (canal_threshold, central_ii_oracle,
                              central_pfaffian, central_point, check_canal,
                              connection_gradient, divergence_closed_form,
                              divergence_scale, focal_coframe_matrix,
                              is_canal, isothermic_divergence, own_curvature)
from focalnet.checks import sample_frame_points
from focalnet.classify import class_gradients, prop_residuals
from focalnet.errors import CanalDegenerate
from focalnet.fdoracle import fd_frame_field
from focalnet.frames import frame_point, pfaffian_values
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
    other equals k1 k2/(k1 - k2) — in the closed form AND the oracle, at
    each point of one sampled batch."""
    program = prog("graph_generic")
    fp = sample_frame_points(program, 6, rng, tol, sheets=(1, 2),
                             healthy=10.0, min_k=0.05, min_gap=0.02)
    qq = fp.k1 * fp.k2 / (fp.k1 - fp.k2)
    cp1 = central_point(fp, sheet=1, tol=tol)
    cp2 = central_point(fp, sheet=2, tol=tol)
    assert cp1.q2 == 0.0 and cp2.q1 == 0.0
    assert cp1.q1 == pytest.approx(qq, rel=1e-12)
    assert cp2.q2 == pytest.approx(qq, rel=1e-12)
    for sheet, expect in ((1, (qq, 0.0)), (2, (0.0, qq))):
        cf = central_ii_oracle(fp, sheet, tol)
        scale = abs(qq) + 1e-9
        assert np.all(abs(cf.q1 - expect[0]) / scale < 1e-7)
        assert np.all(abs(cf.q2 - expect[1]) / scale < 1e-7)


def test_oracle_batch_columns_are_point_calls(prog, tol, rng):
    """`central_ii_oracle` and `fd_frame_field` on a sampled batch frame
    (of `jt.MAX_ORDER`) give, column by column, the bits of their calls on
    the frame at each point, of the outputs' order (the e1 sign continued
    per column)."""
    program = prog("graph_generic")
    fp = sample_frame_points(program, 5, rng, tol, sheets=(1, 2))
    points = list(zip(fp.u.tolist(), fp.v.tolist()))
    for sheet in (1, 2):
        batch = central_ii_oracle(fp, sheet, tol)
        for i, (u, v) in enumerate(points):
            point = central_ii_oracle(frame_point(program, u, v, tol),
                                      sheet, tol)
            for name in ("a", "b", "c", "q1", "q2"):
                assert getattr(batch, name)[i] == getattr(point, name)
            for name in ("coframe_uv", "coframe_uv_projected"):
                assert np.array_equal(getattr(batch, name)[i],
                                      getattr(point, name))
    direction = (np.cos(fp.u), np.sin(fp.u))
    for sampler in (lambda fq: fq.k2, lambda fq: fq.e1[0]):
        batch = fd_frame_field(program, fp, sampler, direction, 5e-4, tol)
        for i, (u, v) in enumerate(points):
            assert batch[i] == fd_frame_field(
                program, frame_point(program, u, v, tol), sampler,
                (direction[0][i], direction[1][i]), 5e-4, tol)


def _canal_gated(fp, tol):
    """Canal-gated entries that `defect_report` also calls, each as (the
    sheet whose gate refuses the torus point first, a call on `fp`): sheet
    2 where a sheet is asked for; `prop_residuals` raises from the gates
    of the closed forms it calls, sheet 1 first."""
    return {
        "central_pfaffian":
            (2, lambda: central_pfaffian(fp, connection_gradient(fp), 2, tol)),
        "divergence_closed_form":
            (2, lambda: divergence_closed_form(fp, 2, tol)),
        "divergence_scale": (2, lambda: divergence_scale(fp, 2, tol)),
        "prop_residuals":
            (1, lambda: prop_residuals(fp, class_gradients(fp), tol)),
    }


def test_canal_detection_torus(prog, tol):
    """Tube sheet of the torus: curvature constant along its own line.  A
    batch passes `check_canal`, and its canal columns read NaN in the
    oracle (at (0.5, 1.1) nabla_2 k2 is 0.0 and the coframe singular).
    The gated entries return arrays on the batch and raise at the point,
    with `check_canal`'s message."""
    batch = frame_point(prog("torus"), np.array([0.5, 0.9]),
                        np.array([1.1, 0.4]), tol)
    assert check_canal(batch, 2, tol).tolist() == [True, True]
    cf = central_ii_oracle(batch, 2, tol)
    assert np.isnan([cf.a, cf.b, cf.c, cf.q1, cf.q2]).all()
    for name, (_, call) in _canal_gated(batch, tol).items():
        with np.errstate(all="ignore"):
            out = call()
        if isinstance(out, dict):
            out = [x for r in out.values() for x in vars(r).values()]
        arrays = out if isinstance(out, (list, tuple)) else [out]
        assert arrays and all(isinstance(x, np.ndarray) and x.shape == (2,)
                              for x in arrays), name
    fp = frame_point(prog("torus"), 0.5, 1.1, tol)
    with pytest.raises(CanalDegenerate) as ei:
        check_canal(fp, 2, tol)
    assert ei.value.sheet == 2
    assert ei.value.status == "canal2"
    assert "(u, v) = (0.5, 1.1)" in str(ei.value)
    assert own_curvature(fp, 2) == (fp.k2, fp.grad_k2, fp.grad_k2[1])
    with pytest.raises(CanalDegenerate):
        central_point(fp, sheet=2, tol=tol)
    with pytest.raises(CanalDegenerate):
        central_ii_oracle(fp, sheet=2, tol=tol)
    with pytest.raises(CanalDegenerate):
        isothermic_divergence(fp, connection_gradient(fp), 2, tol)
    for name, (sheet, call) in _canal_gated(fp, tol).items():
        with pytest.raises(CanalDegenerate) as gated:
            call()
        with pytest.raises(CanalDegenerate) as checked:
            check_canal(fp, sheet, tol)
        assert str(gated.value) == str(checked.value), name


def test_prop_residuals_raises_at_a_canal2_point(prog, tol):
    """At a point of dini where sheet 2 alone is canal, `prop_residuals`
    (which has no gate of its own) raises the sheet-2 CanalDegenerate of
    the closed forms it calls, with `check_canal`'s message."""
    fp = frame_point(prog("dini"), 1.5164621228583437, 1.580513809546511,
                     tol)
    assert not is_canal(fp, 1, tol) and is_canal(fp, 2, tol)
    with pytest.raises(CanalDegenerate) as raised:
        prop_residuals(fp, class_gradients(fp), tol)
    with pytest.raises(CanalDegenerate) as checked:
        check_canal(fp, 2, tol)
    assert raised.value.sheet == 2
    assert str(raised.value) == str(checked.value)


def test_canal_threshold_scales_with_curvature(prog, tol):
    fp = frame_point(prog("graph_generic"), 0.4, 0.3, tol)
    t = canal_threshold(fp, tol)
    assert t > 0
    k = max(abs(fp.k1), abs(fp.k2))
    assert t == pytest.approx(tol.canal * (k ** 3 + tol.curvature_floor),
                              rel=1e-15)


def test_sheet_argument_validated(prog, tol):
    """Every sheet entry point rejects a sheet other than 1 or 2 (the gate
    is `own_curvature`), rather than returning the other sheet's values."""
    program = prog("graph_generic")
    fp = frame_point(program, 0.4, 0.3, tol)
    grad = pfaffian_values(fp.pd.k1, fp.pd)
    grad_q = connection_gradient(fp)
    entries = {
        "own_curvature": lambda s: own_curvature(fp, s),
        "focal_coframe_matrix": lambda s: focal_coframe_matrix(fp, s),
        "is_canal": lambda s: is_canal(fp, s, tol),
        "check_canal": lambda s: check_canal(fp, s, tol),
        "central_point": lambda s: central_point(fp, sheet=s, tol=tol),
        "central_pfaffian": lambda s: central_pfaffian(fp, grad, s, tol),
        "isothermic_divergence":
            lambda s: isothermic_divergence(fp, grad_q, s, tol),
        "divergence_closed_form": lambda s: divergence_closed_form(fp, s, tol),
        "divergence_scale": lambda s: divergence_scale(fp, s, tol),
        "net_asymptotic_pullback":
            lambda s: net_asymptotic_pullback(fp, s, tol),
        "net_curvature_pullback":
            lambda s: net_curvature_pullback(fp, s, tol),
        "central_ii_oracle":
            lambda s: central_ii_oracle(fp, s, tol),
    }
    for name, call in entries.items():
        for sheet in (1, 2):
            call(sheet)
        for sheet in (0, 3):
            with pytest.raises(ValueError, match="sheet must be 1 or 2"):
                call(sheet)
                pytest.fail(f"{name} accepted sheet {sheet}")


_CENTRAL_SUITE = """
from focalnet.checks import run_suite
for r in run_suite("central", 0):
    print(r.line())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86_64 kernels")
def test_central_suite_does_not_depend_on_the_blas_kernel():
    """`run_suite("central", 0)` prints the same lines, elapsed times
    masked, whether OpenBLAS picks its kernel for the CPU or runs the
    Prescott one (read when numpy loads, so each run has its own
    interpreter).  The oracle's and the sheet-derivative check's 2x2
    algebra through `@` and np.linalg moved their figures between
    kernels."""
    src = os.path.dirname(os.path.dirname(focalnet.__file__))
    lines = []
    for kernel in ("", "Prescott"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", _CENTRAL_SUITE], env=env,
                             check=True, capture_output=True, text=True)
        lines.append(re.sub(r"elapsed=[0-9.]+s", "elapsed=-", out.stdout))
    assert lines[0].count("central.oracle.") == 7
    assert lines[0] == lines[1]
