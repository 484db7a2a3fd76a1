"""Frame fields: connection coefficients, Pfaffian derivatives, and the
compatibility identities (the sampled Codazzi/Gauss sweep is the
`structure` check in `focalnet.checks`)."""
import numpy as np
import pytest

import focalnet.jet as jt
from focalnet.checks import domain_points
from focalnet.errors import JetOrderError, ParabolicPoint, UmbilicPoint
from focalnet.frames import (check_codazzi, check_gauss, codazzi_scale,
                             commutator_residual, frame_point,
                             frame_point_from_pd, pfaffian,
                             pfaffian_values)
from focalnet.geometry import (_dots, eval_surface, flipped_principal,
                               principal_data)
from focalnet.report import grid_points


def _frame_points(program, n, rng, tol):
    """n frame points of `jt.MAX_ORDER` surface jets, whose `pd` the Gauss
    equation and second Pfaffians differentiate twice."""
    out = []
    for u, v in domain_points(program, 3 * n, rng):
        try:
            out.append(frame_point(program, u, v, tol, jt.MAX_ORDER))
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
        res, scale = check_gauss(fq)
        assert abs(res) / scale < 1e-10
        r1, r2 = check_codazzi(fq)
        assert max(abs(r1), abs(r2)) / codazzi_scale(fq) < 1e-10


def test_hessian_mixed_entries_differ_by_commutator(prog, tol, rng):
    """hess[0,1] - hess[1,0] = -(q1 grad[0] + q2 grad[1]) for k1, where
    hess[a, b] = nabla_{a+1}(nabla_{b+1} k1) (0-indexed)."""
    program = prog("graph_generic")
    for fp in _frame_points(program, 6, rng, tol):
        d1k1, d2k1 = pfaffian(fp.pd.k1, fp.pd)
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


def _principal(program, u, v, order):
    return principal_data(eval_surface(program, u, v, order))


def test_pfaffian_values_have_the_bits_of_pfaffian(prog):
    """pfaffian_values is slot 0 of pfaffian, bit for bit: a scalar field
    (k1) and the vector field (e1, k1, k2), at a point and on a 40 x 40
    batch, with surface jets of the outputs' order and of MAX_ORDER; at a
    point a scalar field gives floats."""
    program = prog("graph_generic")
    us, vs = np.array(grid_points(program, 40, 40)).T
    for order in (jt.OUTPUT_ORDER, jt.MAX_ORDER):
        for u, v in ((0.3, -0.7), (us, vs)):
            pd = _principal(program, u, v, order)
            vector = jt.Jet4(np.concatenate(
                [pd.e1.c, pd.k1.c[:, None], pd.k2.c[:, None]], axis=1),
                pd.k1.valid_order)
            for field in (pd.k1, vector):
                got = pfaffian_values(field, pd)
                want = [d.value for d in pfaffian(field, pd)]
                for g, w in zip(got, want):
                    assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
            if np.ndim(u) == 0:
                assert all(type(g) is float
                           for g in pfaffian_values(pd.k1, pd))
    with pytest.raises(JetOrderError):
        pfaffian_values(pd.k1.cut(0), pd)


def test_frame_point_connection_has_the_bits_of_the_jet_dots(prog):
    """q1, q2 and the curvature gradients of frame_point have the bits of
    the order-0 jets <nabla_i e1, e2> (`_dots`) and nabla k1, nabla k2,
    at a point (floats) and on a 40 x 40 batch of a surface with umbilic
    and parabolic points."""
    program = prog("monkey_saddle")
    us, vs = np.array(grid_points(program, 40, 40)).T
    for u, v in ((0.3, -0.7), (us, vs)):
        fp = frame_point(program, u, v)
        pd = fp.pd
        d1, d2 = (d.cut(0) for d in pfaffian(pd.e1, pd))
        q1, q2 = _dots((d1, pd.e2), (d2, pd.e2)).split()
        want = (q1.value, q2.value, *(d.cut(0).value for d in
                                      (*pfaffian(pd.k1, pd),
                                       *pfaffian(pd.k2, pd))))
        got = (fp.q1, fp.q2, *fp.grad_k1, *fp.grad_k2)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
