"""Frame fields: connection coefficients, Pfaffian derivatives, and the
compatibility identities."""
import numpy as np
import pytest

from focalnet.errors import ParabolicPoint, UmbilicPoint
from focalnet.fdoracle import fd_pfaffian
from focalnet.frames import (check_codazzi, check_gauss, codazzi_scale,
                             commutator_residual, frame_point,
                             frame_point_from_pd, gauss_scale, pfaffian,
                             pfaffian_values)
from focalnet.geometry import flipped_principal

from conftest import domain_points


def _frame_points(program, n, rng, tol):
    out = []
    for u, v in domain_points(program, 3 * n, rng):
        try:
            out.append(frame_point(program, u, v, tol))
        except (UmbilicPoint, ParabolicPoint):
            continue
        if len(out) == n:
            break
    assert len(out) == n
    return out


def test_graph_quad_origin_flat_connection(prog, tol):
    """Axis-aligned paraboloid: curvature lines through the origin are the
    coordinate axes, both geodesic there."""
    fp = frame_point(prog("graph_quad"), 0.0, 0.0, tol)
    assert fp.q1 == pytest.approx(0.0, abs=1e-12)
    assert fp.q2 == pytest.approx(0.0, abs=1e-12)
    assert fp.k1 == pytest.approx(2.0, abs=1e-12)
    assert fp.k2 == pytest.approx(1.0, abs=1e-12)


def test_codazzi_gauss_residuals_tiny(prog, tol, rng):
    for name in ("graph_generic", "torus", "scherk"):
        for fp in _frame_points(prog(name), 15, rng, tol):
            r1, r2 = check_codazzi(fp)
            assert max(abs(r1), abs(r2)) / codazzi_scale(fp) < 1e-10
            assert abs(check_gauss(fp)) / gauss_scale(fp) < 1e-10


def test_commutator_sign_convention(prog, tol, rng):
    """[nabla_1, nabla_2] f = -(q1 nabla_1 f + q2 nabla_2 f); with the
    opposite sign the residual is O(1)."""
    program = prog("graph_generic")
    for fp in _frame_points(program, 6, rng, tol):
        f = fp.pd.sj.x * fp.pd.sj.z + fp.pd.sj.y      # arbitrary scalar
        assert abs(commutator_residual(fp, f)) < 1e-10
        # demonstrate the sign matters where q is non-negligible
        if abs(fp.q1) + abs(fp.q2) > 0.1:
            d1f, d2f = pfaffian(f, fp.pd)
            d12 = pfaffian_values(d2f, fp.pd)[0]
            d21 = pfaffian_values(d1f, fp.pd)[1]
            wrong = (d12 - d21) - (fp.q1 * d1f.value + fp.q2 * d2f.value)
            scale = abs(d12) + abs(d21) + 1e-12
            assert abs(wrong) / scale > 1e-6


def test_gradient_matches_fd_oracle(prog, tol, rng):
    """Jet-computed Pfaffian gradients vs. directional finite differences."""
    program = prog("monkey_saddle")
    for fp in _frame_points(program, 4, rng, tol):
        ana = fp.gradient(fp.k1_jet)
        fd = fd_pfaffian(program, fp.u, fp.v,
                         lambda g: g.k1, 1e-4, tol)
        scale = abs(ana[0]) + abs(ana[1]) + 1e-9
        assert abs(ana[0] - fd[0]) / scale < 1e-7
        assert abs(ana[1] - fd[1]) / scale < 1e-7


def test_sign_flip_covariance(prog, tol, rng):
    """Under e1 -> -e1, e2 -> -e2: q flips sign, gradients flip sign,
    the structure residuals and the curvature Jacobian are unchanged."""
    program = prog("dini")
    for fp in _frame_points(program, 5, rng, tol):
        fq = frame_point_from_pd(flipped_principal(fp.pd), tol)
        assert fq.q1 == pytest.approx(-fp.q1, rel=1e-11, abs=1e-13)
        assert fq.q2 == pytest.approx(-fp.q2, rel=1e-11, abs=1e-13)
        assert fq.grad_k1[0] == pytest.approx(-fp.grad_k1[0],
                                              rel=1e-11, abs=1e-13)
        assert fq.grad_k2[1] == pytest.approx(-fp.grad_k2[1],
                                              rel=1e-11, abs=1e-13)
        # invariants
        jac_p = (fp.grad_k1[0] * fp.grad_k2[1]
                 - fp.grad_k1[1] * fp.grad_k2[0])
        jac_q = (fq.grad_k1[0] * fq.grad_k2[1]
                 - fq.grad_k1[1] * fq.grad_k2[0])
        assert jac_q == pytest.approx(jac_p, rel=1e-10, abs=1e-14)
        assert abs(check_gauss(fq)) / gauss_scale(fq) < 1e-10
        r1, r2 = check_codazzi(fq)
        assert max(abs(r1), abs(r2)) / codazzi_scale(fq) < 1e-10


def test_connection_determined_by_curvature_gradients(prog, tol, rng):
    """q_i measured from frame rotation equals the compatibility quotient
    nabla_2 k1/(k1 - k2) resp. nabla_1 k2/(k1 - k2)."""
    program = prog("enneper")
    for fp in _frame_points(program, 8, rng, tol):
        gap = fp.k1 - fp.k2
        assert fp.q1 == pytest.approx(fp.grad_k1[1] / gap,
                                      rel=1e-10, abs=1e-12)
        assert fp.q2 == pytest.approx(fp.grad_k2[0] / gap,
                                      rel=1e-10, abs=1e-12)


def test_hessian_mixed_entries_differ_by_commutator(prog, tol, rng):
    """hess[0,1] - hess[1,0] = -(q1 grad[0] + q2 grad[1]) for k1, where
    hess[a, b] = nabla_{a+1}(nabla_{b+1} k1) (0-indexed)."""
    program = prog("graph_generic")
    for fp in _frame_points(program, 6, rng, tol):
        d1k1, d2k1 = pfaffian(fp.k1_jet, fp.pd)
        hess = np.array([pfaffian_values(d1k1, fp.pd),
                         pfaffian_values(d2k1, fp.pd)]).T
        lhs = hess[0, 1] - hess[1, 0]
        rhs = -(fp.q1 * fp.grad_k1[0] + fp.q2 * fp.grad_k1[1])
        scale = abs(hess).max() + 1e-12
        assert abs(lhs - rhs) / scale < 1e-10


def test_helicoid_frame_values(prog, tol):
    """Helicoid with pitch c: k1 = -k2 = c/(c^2 + v^2) at distance v from
    the axis, minimal everywhere."""
    fp = frame_point(prog("helicoid"), 0.6, -0.9, tol)
    c = 1.0
    expect = c / (c * c + 0.81)
    assert fp.k1 == pytest.approx(expect, rel=1e-12)
    assert fp.k2 == pytest.approx(-expect, rel=1e-12)
    assert fp.k1 + fp.k2 == pytest.approx(0.0, abs=1e-13)
