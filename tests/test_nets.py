"""Quadratic direction nets: defects, directions, spherical transport."""
import itertools
import math

import numpy as np
import pytest

from focalnet.central import central_point, focal_coframe_matrix
from focalnet.checks import sample_frame_points
from focalnet.errors import (CanalDegenerate, DegenerateNetError,
                             ImaginaryNetError)
from focalnet.frames import frame_point, pfaffian_values
from focalnet.nets import (NETS, NetForm, conjugacy_defect,
                           net_asymptotic_pullback, net_curvature_pullback,
                           net_directions, net_norm, orthogonality_defect,
                           reality_discriminant, spherical_image)
from focalnet.report import grid_points

SQ2 = math.sqrt(0.5)


def _net(a, b, c, label="t"):
    return NetForm(a, b, c, label)


def test_defects_scale_invariant():
    base = _net(0.7, -0.2, 0.4)
    for t in (1e-6, 1.0, 3.7, 1e6):
        scaled = _net(t * 0.7, t * -0.2, t * 0.4)
        assert orthogonality_defect(scaled) == pytest.approx(
            orthogonality_defect(base), rel=1e-12)
        assert conjugacy_defect(scaled, 2.0, -1.0) == pytest.approx(
            conjugacy_defect(base, 2.0, -1.0), rel=1e-12)
        assert reality_discriminant(scaled) == pytest.approx(
            reality_discriminant(base), rel=1e-12)


def test_direction_examples():
    # w1^2 - w2^2 = 0: the two diagonal bisectors
    d1, d2 = net_directions(_net(1.0, 0.0, -1.0))
    assert d1 == pytest.approx([SQ2, SQ2], abs=1e-15)
    assert d2 == pytest.approx([SQ2, -SQ2], abs=1e-15)
    # 2 w1 w2 = 0: the coordinate axes
    d1, d2 = net_directions(_net(0.0, 1.0, 0.0))
    assert d1 == pytest.approx([1.0, 0.0], abs=1e-15)
    assert d2 == pytest.approx([0.0, 1.0], abs=1e-15)
    # w1^2 = 0 and w2^2 = 0: one axis, returned twice
    for abc, axis in (((1.0, 0.0, 0.0), [0.0, 1.0]),
                      ((0.0, 0.0, 1.0), [1.0, 0.0])):
        for d in net_directions(_net(*abc)):
            assert d == pytest.approx(axis, abs=1e-15)
    # w1^2 + w2^2 = 0: imaginary
    with pytest.raises(ImaginaryNetError):
        net_directions(_net(1.0, 0.0, 1.0))
    # zero form: degenerate
    with pytest.raises(DegenerateNetError):
        net_directions(_net(0.0, 0.0, 0.0))


def test_directions_solve_the_quadratic():
    for a, b, c in ((1.0, 0.7, -0.3), (0.0, 0.4, -1.2), (2.0, -0.1, 0.0),
                    (1e-8, 1.0, -1e-8), (-0.5, 0.9, 0.5)):
        net = _net(a, b, c)
        for x, y in net_directions(net):
            val = a * x * x + 2 * b * x * y + c * y * y
            assert abs(val) < 1e-10 * net_norm(net)
            assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-14)


def test_directions_deterministic_ordering():
    net = _net(1.0, 0.25, -0.7)
    first = net_directions(net)
    for _ in range(5):
        again = net_directions(net)
        assert np.array_equal(first[0], again[0])
        assert np.array_equal(first[1], again[1])
    # first components positive, descending order
    assert first[0][0] >= first[1][0] - 1e-15
    assert first[0][0] > 0 and first[1][0] >= 0


def _assert_batch_matches_points(a, b, c):
    """net_directions on the columns (a, b, c) gives at each point the
    directions, bit for bit, or the failure class of net_directions on that
    point's floats."""
    a, b, c = (x.tolist() for x in np.broadcast_arrays(a, b, c))
    d0, d1, failed = net_directions(_net(np.array(a), np.array(b),
                                         np.array(c)))
    assert d0.shape == d1.shape == (2, len(a))
    for i, abc in enumerate(zip(a, b, c)):
        try:
            want = net_directions(_net(*abc))
        except (DegenerateNetError, ImaginaryNetError) as exc:
            assert failed[i] is type(exc), abc
            continue
        assert failed[i] is None, abc
        assert (repr([x.tolist() for x in want])
                == repr([d0[:, i].tolist(), d1[:, i].tolist()])), abc


def test_batch_directions_match_points(rng):
    """Every branch of the root solve: the axes (a = c = 0), a = 0, c = 0,
    b = 0, the double root q = 0, a discriminant in (-1e-12, 0) taken as 0,
    imaginary directions, the zero form, signed zeros and random scales."""
    values = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-13, -1e-13, 1e-31)
    triples = list(itertools.product(values, repeat=3))
    triples += [(1.0, 1.0, 1.0), (4.0, -2.0, 1.0), (1.0, 3.0, 9.0),
                (1.0, 1.0, 1.0 + 1e-13), (1e-13, 0.0, 1.0),
                (1.0, 0.0, 5e-13), (1.0, 0.5, 1.0), (-2.0, 0.3, -1.0)]
    scales = 10.0 ** rng.uniform(-14, 2, size=(3, 400))
    triples += (rng.normal(size=(3, 400)) * scales).T.tolist()
    a, b, c = np.array(triples).T
    _assert_batch_matches_points(a, b, c)
    failed = net_directions(_net(a, b, c))[2].tolist()
    assert {DegenerateNetError, ImaginaryNetError, None} <= set(failed)


def test_batch_directions_on_grids(prog, tol):
    """The four pulled-back nets of 5 x 5 batches, canal points and failed
    frames included."""
    for name in ("graph_generic", "dini", "helicoid", "torus"):
        program = prog(name)
        pts = grid_points(program, 5, 5)
        fp = frame_point(program, *np.array(pts).T, tol)
        for builder, sheet in NETS.values():
            with np.errstate(all="ignore"):
                net = builder(fp, sheet, tol)
            _assert_batch_matches_points(*net.triple())


def _same(got, want) -> bool:
    """Whether two tuples of numbers or arrays are equal entry by entry."""
    return len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want))


def test_asymptotic_pullback_forms(prog, tol, rng):
    """Coefficients are exactly (D_i k1, 0, -D_i k2), and the spherical
    images of nets 13/14 are labelled 15/16."""
    program = prog("graph_generic")
    fp = sample_frame_points(program, 6, rng, tol, sheets=(1, 2),
                             healthy=10.0)
    n13 = net_asymptotic_pullback(fp, 1, tol)
    assert n13.label == "13"
    assert _same(n13.triple(), (fp.grad_k1[0], 0.0, -fp.grad_k2[0]))
    n14 = net_asymptotic_pullback(fp, 2, tol)
    assert n14.label == "14"
    assert _same(n14.triple(), (fp.grad_k1[1], 0.0, -fp.grad_k2[1]))
    assert spherical_image(n13, fp).label == "15"
    assert spherical_image(n14, fp).label == "16"


def test_curvature_pullback_identities(prog, tol, rng):
    """A + C of 17/18 equals q_i D_i(k1 + k2); k2 A + k1 C equals
    q_i D_i(k1 k2)."""
    program = prog("graph_generic")
    fp = sample_frame_points(program, 10, rng, tol, sheets=(1, 2),
                             healthy=10.0)
    g_mean = pfaffian_values(fp.pd.k1 + fp.pd.k2, fp.pd)
    g_gauss = pfaffian_values(fp.pd.k1 * fp.pd.k2, fp.pd)
    for sheet, i, q in ((1, 0, fp.q1), (2, 1, fp.q2)):
        net = net_curvature_pullback(fp, sheet, tol)
        norm = net_norm(net)
        assert orthogonality_defect(net) == pytest.approx(
            q * g_mean[i] / norm, rel=1e-10, abs=1e-12)
        assert conjugacy_defect(net, fp.k1, fp.k2) == pytest.approx(
            q * g_gauss[i] / norm, rel=1e-10, abs=1e-12)


def test_curvature_pullback_is_the_sheet_curvature_net(prog, tol):
    """Every coefficient of nets 17/18, b included: the curvature lines of
    sheet i's second form (a, b, c) in its orthonormal coframe are
    (b, (c - a)/2, -b), and P^T N P with P = `focal_coframe_matrix` pulls
    them back to (w1, w2).  The triples agree in direction (sine of the
    angle between them) at 40 healthy points of five surfaces."""
    for name in ("graph_generic", "dini", "helicoid", "enneper", "scherk"):
        fp = sample_frame_points(prog(name), 40, np.random.default_rng(7),
                                 tol, sheets=(1, 2))
        for sheet in (1, 2):
            cp = central_point(fp, sheet, tol)
            half = 0.5 * (cp.c - cp.a)
            sheet_net = np.stack([np.stack([cp.b, half], -1),
                                  np.stack([half, -cp.b], -1)], -2)
            p = focal_coframe_matrix(fp, sheet)
            m = np.swapaxes(p, -1, -2) @ sheet_net @ p
            want = np.stack([m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]], -1)
            got = np.stack(np.broadcast_arrays(
                *net_curvature_pullback(fp, sheet, tol).triple()), -1)
            sine = (np.linalg.norm(np.cross(got, want), axis=-1)
                    / (np.linalg.norm(got, axis=-1)
                       * np.linalg.norm(want, axis=-1)))
            assert sine.max() < 1e-9, (name, sheet, sine.max())


def test_principal_axes_net_orthogonal_and_conjugate():
    """The principal net w1 w2 = 0 is orthogonal and conjugate for any
    diagonal second form."""
    net = _net(0.0, 1.0, 0.0)
    assert orthogonality_defect(net) == 0.0
    assert conjugacy_defect(net, 3.0, -0.7) == 0.0
    assert reality_discriminant(net) > 0


def test_canal_blocks_net_construction(prog, tol):
    fp = frame_point(prog("torus"), 0.4, 0.9, tol)
    with pytest.raises(CanalDegenerate):
        net_asymptotic_pullback(fp, 2, tol)
    with pytest.raises(CanalDegenerate):
        net_curvature_pullback(fp, 2, tol)


def test_spherical_image_of_spherical_label():
    net = _net(1.0, 0.0, -1.0, "nonstandard")
    fp_like = type("F", (), {"k1": 2.0, "k2": 0.5})()
    sph = spherical_image(net, fp_like)
    assert sph.label == "sph(nonstandard)"
    assert sph.triple() == (0.25, 0.0, -4.0)
