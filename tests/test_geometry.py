"""Fundamental forms, principal curvatures, and principal directions."""
import math

import numpy as np
import pytest

import focalnet.jet as jt
from focalnet import gallery_names
from focalnet.checks import domain_points
from focalnet.errors import (DegenerateParametrization, JetOrderError,
                             ParabolicPoint, UmbilicPoint)
from focalnet.geometry import (eval_surface, principal_data, vdot, vcross)
from focalnet.sdl import compile_surface, parse_surface


def _pd(program, u, v, tol):
    return principal_data(eval_surface(program, u, v), tol)


def _vec(vec):
    return vec.value


def test_graph_quad_origin_curvatures(prog, tol):
    # z = (a u^2 + b v^2)/2 with a=2, b=1: at the origin k1=2, k2=1,
    # normal straight up, principal directions along the axes.
    pd = _pd(prog("graph_quad"), 0.0, 0.0, tol)
    assert pd.k1.value == pytest.approx(2.0, abs=1e-12)
    assert pd.k2.value == pytest.approx(1.0, abs=1e-12)
    assert _vec(pd.e3) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
    assert abs(_vec(pd.e1) @ [1, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(_vec(pd.e2) @ [0, 1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_frame_orthonormal_and_ordered(prog, tol, rng):
    for name in ("graph_generic", "helicoid", "enneper", "dini", "torus"):
        program = prog(name)
        for u, v in domain_points(program, 12, rng):
            try:
                pd = _pd(program, u, v, tol)
            except (UmbilicPoint, ParabolicPoint):
                continue
            e1, e2, e3 = _vec(pd.e1), _vec(pd.e2), _vec(pd.e3)
            for a, b in ((e1, e1), (e2, e2), (e3, e3)):
                assert a @ b == pytest.approx(1.0, abs=1e-12)
            for a, b in ((e1, e2), (e1, e3), (e2, e3)):
                assert a @ b == pytest.approx(0.0, abs=1e-12)
            # right-handed
            assert np.cross(e1, e2) @ e3 == pytest.approx(1.0, abs=1e-12)
            assert pd.k1.value > pd.k2.value


def test_euler_normal_curvature(prog, tol, rng):
    """k(theta) = k1 cos^2 + k2 sin^2 for the direction rotated by theta
    from e1, with k computed directly from the embedding second form."""
    program = prog("graph_generic")
    for u, v in domain_points(program, 4, rng):
        pd = _pd(program, u, v, tol)
        xu, xv, e3 = pd.xu, pd.xv, pd.e3
        xuu, xuv, xvv = xu.du(), xu.dv(), xv.dv()
        L = vdot(xuu, e3).value
        M = vdot(xuv, e3).value
        N = vdot(xvv, e3).value
        E, F, G = pd.E.value, pd.F.value, pd.G.value
        for theta in np.linspace(0.0, math.pi, 8, endpoint=False):
            c, s = math.cos(theta), math.sin(theta)
            # direction in coordinate components
            du = c * pd.xi1.value + s * pd.xi2.value
            dv = c * pd.eta1.value + s * pd.eta2.value
            ii = L * du * du + 2 * M * du * dv + N * dv * dv
            i1 = E * du * du + 2 * F * du * dv + G * dv * dv
            expect = pd.k1.value * c * c + pd.k2.value * s * s
            assert ii / i1 == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_reparametrization_invariance(tol):
    """The same geometric surface under (u, v) -> (u + v, v) must produce
    identical curvatures and frame vectors at matching points."""
    base = compile_surface(parse_surface("""surface s {
      x = u
      y = v
      z = sin(u) * cos(v) / 3 + u^2 / 5 - v^3 / 7
      domain u in [-2, 2] v in [-2, 2]
    }"""))
    sheared = compile_surface(parse_surface("""surface sh {
      x = u + v
      y = v
      z = sin(u + v) * cos(v) / 3 + (u + v)^2 / 5 - v^3 / 7
      domain u in [-4, 4] v in [-2, 2]
    }"""))
    for (a, b) in ((0.3, 0.4), (-0.8, 0.9), (1.1, -1.2)):
        pd1 = _pd(base, a, b, tol)
        pd2 = _pd(sheared, a - b, b, tol)     # maps to same ambient point
        assert pd2.k1.value == pytest.approx(pd1.k1.value, rel=1e-10)
        assert pd2.k2.value == pytest.approx(pd1.k2.value, rel=1e-10)
        assert _vec(pd2.e3) == pytest.approx(_vec(pd1.e3), abs=1e-10)
        # principal directions agree up to sign
        for v1, v2 in ((pd1.e1, pd2.e1), (pd1.e2, pd2.e2)):
            d = abs(_vec(v1) @ _vec(v2))
            assert d == pytest.approx(1.0, abs=1e-10)


def test_eigenvector_branch_stability(prog, tol):
    """Near a direction-swap locus both algebraic eigenvector candidates
    degenerate at different places; the picked branch must stay unit-norm
    and smooth.  Walk a short path and require small frame rotation steps."""
    program = prog("graph_generic")
    pts = [(-0.9 + 1.8 * t / 40, 0.37) for t in range(41)]
    prev = None
    for u, v in pts:
        pd = _pd(program, u, v, tol)
        e1 = _vec(pd.e1)
        assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-12)
        if prev is not None:
            # allow sign canonicalization flips, not direction jumps
            assert min(np.linalg.norm(e1 - prev),
                       np.linalg.norm(e1 + prev)) < 0.2
        prev = e1


def test_shape_operator_diagonalized(prog, tol, rng):
    """de3 along e_i equals -k_i e_i (Rodrigues) — directional derivative
    of the normal computed from the jets themselves."""
    program = prog("monkey_saddle")
    for u, v in domain_points(program, 6, rng):
        try:
            pd = _pd(program, u, v, tol)
        except (UmbilicPoint, ParabolicPoint):
            continue
        for xi, eta, e, k in ((pd.xi1, pd.eta1, pd.e1, pd.k1),
                              (pd.xi2, pd.eta2, pd.e2, pd.k2)):
            de3 = (xi.value * pd.e3.du().value
                   + eta.value * pd.e3.dv().value)
            assert de3 == pytest.approx(-k.value * _vec(e),
                                        rel=1e-9, abs=1e-9)


def test_sphere_raises_umbilic(prog, tol):
    with pytest.raises(UmbilicPoint):
        _pd(prog("sphere"), 0.1, 0.2, tol)


def test_plane_raises_parabolic(prog, tol):
    with pytest.raises(ParabolicPoint):
        _pd(prog("plane"), 0.3, -0.4, tol)


def test_monkey_saddle_origin_parabolic(prog, tol):
    with pytest.raises(ParabolicPoint):
        _pd(prog("monkey_saddle"), 0.0, 0.0, tol)


def test_degenerate_parametrization_detected(tol):
    pinched = compile_surface(parse_surface("""surface pinch {
      x = u^2
      y = u^3
      z = v
      domain u in [-1, 1] v in [-1, 1]
    }"""))
    with pytest.raises(DegenerateParametrization):
        _pd(pinched, 0.0, 0.5, tol)


def test_normal_orientation_consistent(prog, tol):
    """e3 = (xu x xv)/|xu x xv| exactly."""
    program = prog("enneper")
    pd = _pd(program, 0.6, -0.8, tol)
    n = _vec(vcross(pd.xu, pd.xv))
    n /= np.linalg.norm(n)
    assert _vec(pd.e3) == pytest.approx(n, abs=1e-12)


def test_batch_of_no_points_gives_float_jets(prog):
    """An empty batch is a batch like any other: every gallery surface
    gives a float position jet of shape (10, 3, 0) at the outputs' order,
    the default, and (15, 3, 0) at `jt.MAX_ORDER`."""
    for name in gallery_names():
        for order, shape in ((None, (10, 3, 0)),
                             (jt.OUTPUT_ORDER, (10, 3, 0)),
                             (jt.MAX_ORDER, (15, 3, 0))):
            sj = (eval_surface(prog(name), [], []) if order is None
                  else eval_surface(prog(name), [], [], order))
            assert sj.pos.c.dtype == np.float64 and sj.pos.c.shape == shape, \
                name


def test_principal_data_field_orders(prog, tol):
    """From a position jet of valid order r, xu and xv are of valid order
    r - 1 and every other jet of `PrincipalData` of r - 2, at a point and
    in a batch; e3 one order higher is vcross(xu, xv) normalized."""
    program = prog("enneper")
    for r in (jt.OUTPUT_ORDER, jt.MAX_ORDER):
        for u, v in ((0.6, -0.8), ([0.6, 0.3], [-0.8, 0.2])):
            pd = principal_data(eval_surface(program, u, v, r), tol)
            for name in ("xu", "xv"):
                assert getattr(pd, name).valid_order == r - 1, (name, r)
            for name in ("E", "F", "G", "e3", "k1", "k2", "xi1", "eta1",
                         "xi2", "eta2", "e1", "e2"):
                assert getattr(pd, name).valid_order == r - 2, (name, r)
            with pytest.raises(JetOrderError):
                pd.e3.extract(r - 1, 0)
            n = vcross(pd.xu, pd.xv)
            assert n.valid_order == r - 1
            assert np.allclose(n.value / np.sqrt(vdot(n, n).value),
                               pd.e3.value, rtol=0, atol=1e-12)
