"""Finite-difference oracles: stencil correctness and agreement with the
jet engine along every derivative path the library uses."""
import dataclasses
import math

import numpy as np
import pytest

from focalnet import jet as jt
from focalnet.checks import domain_points
from focalnet.errors import FocalnetError, ParabolicPoint, UmbilicPoint
from focalnet.fdoracle import (aligned_frame_point, fd_directional,
                               fd_frame_field, fd_partial, fd_surface_jet,
                               jet_fd_error)
from focalnet.frames import (frame_point, frame_point_from_pd,
                             pfaffian_values)
from focalnet.geometry import flipped_principal, principal_data
from focalnet.sdl import compile_surface, parse_surface


def test_stencils_exact_on_quartics():
    """The 5-point stencils are exact (up to roundoff) for polynomials of
    degree <= 4 in each variable."""
    f = lambda u, v: (2.0 + u) ** 4 * 0.125 + (v - 0.5) ** 3 + u * u * v * v
    h = 0.1
    got = fd_partial(f, 0.3, 0.2, 3, 0, h)
    assert got == pytest.approx(24 * 2.3 * 0.125, rel=1e-10)
    assert fd_partial(f, 0.3, 0.2, 0, 3, h) == pytest.approx(6.0, rel=1e-9)
    assert fd_partial(f, 0.3, 0.2, 2, 2, h) == pytest.approx(4.0, rel=1e-9)
    assert fd_partial(f, 0.3, 0.2, 4, 0, h) == pytest.approx(3.0, rel=1e-8)


def test_fd_partial_matches_analytic_transcendental():
    f = lambda u, v: math.exp(u / 2.0) * math.sin(v)
    u, v, h = 0.4, 1.1, 1e-3
    assert fd_partial(f, u, v, 1, 0, h) == pytest.approx(
        0.5 * math.exp(0.2) * math.sin(1.1), rel=1e-10)
    assert fd_partial(f, u, v, 1, 1, h) == pytest.approx(
        0.5 * math.exp(0.2) * math.cos(1.1), rel=1e-9)
    assert fd_partial(f, u, v, 0, 2, h) == pytest.approx(
        -math.exp(0.2) * math.sin(1.1), rel=1e-7)


def test_fd_directional_equals_gradient_combination():
    f = lambda u, v: u * u * v + math.cos(v)
    u, v = 0.7, -0.3
    d = (0.6, 0.8)
    expect = d[0] * (2 * u * v) + d[1] * (u * u - math.sin(v))
    assert fd_directional(f, u, v, d, 1e-4) == pytest.approx(expect,
                                                             rel=1e-10)


def test_fd_surface_partial_matches_jets(prog):
    program = prog("dini")
    u, v = 0.9, 1.4
    sj = program.jets(u, v)
    for (i, j) in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        fd = fd_partial(program.position, u, v, i, j, 1e-3)
        exact = np.array([sj[c].extract(i, j) for c in range(3)])
        assert fd == pytest.approx(exact, rel=1e-7, abs=1e-8)


def test_fd_surface_jet_reproduces_frame(prog, tol):
    """An entirely FD-built surface jet run through the frame pipeline
    agrees with the jet-built frame on curvatures and connection."""
    program = prog("graph_generic")
    u, v = 0.35, -0.55
    fp = frame_point(program, u, v, tol)
    fd_sj = fd_surface_jet(program, u, v, 0.02)
    fq = frame_point_from_pd(principal_data(fd_sj, tol), tol)
    assert fq.k1 == pytest.approx(fp.k1, rel=1e-7)
    assert fq.k2 == pytest.approx(fp.k2, rel=1e-7)
    # q depends on third-order position coefficients, whose 5-point
    # stencil is only O(h^2): at h = 0.02 that allows ~1e-4 error
    assert fq.q1 == pytest.approx(fp.q1, rel=2e-3, abs=1e-4)
    assert fq.q2 == pytest.approx(fp.q2, rel=2e-3, abs=1e-4)


@pytest.mark.parametrize("surface, field, n, bound", [
    ("monkey_saddle", "k1", 4, 1e-7), ("scherk", "k2", 5, 1e-6)],
    ids=["monkey_saddle-k1", "scherk-k2"])
def test_fd_pfaffian_matches_jet_gradient(prog, tol, rng, surface, field, n,
                                          bound):
    """The jet Pfaffian gradient of a curvature against directional finite
    differences along both principal directions, stacked in one call, at
    the first n non-degenerate points of 12 random ones."""
    program = prog(surface)
    count = 0
    for u, v in domain_points(program, 12, rng):
        try:
            fp = frame_point(program, u, v, tol)
        except (UmbilicPoint, ParabolicPoint):
            continue
        pd = fp.pd
        ana = pfaffian_values(getattr(pd, field), pd)
        fd = fd_frame_field(program, fp, lambda g: getattr(g, field),
                            (np.array([pd.xi1.value, pd.xi2.value]),
                             np.array([pd.eta1.value, pd.eta2.value])),
                            1e-4, tol)
        scale = abs(ana[0]) + abs(ana[1]) + 1e-9
        assert abs(ana[0] - fd[0]) / scale < bound
        assert abs(ana[1] - fd[1]) / scale < bound
        count += 1
        if count == n:
            break
    assert count == n


def test_aligned_frame_point_continues_e1(prog, tol):
    """A reference with e1 flipped flips the frame it continues to; a
    reference orthogonal to e1 leaves the sign undecided and raises."""
    program = prog("graph_generic")
    ref = frame_point_from_pd(
        flipped_principal(frame_point(program, 0.3, -0.4, tol).pd), tol)
    plain = frame_point(program, 0.301, -0.4, tol)
    got = aligned_frame_point(program, 0.301, -0.4, ref, tol)
    assert got.e1 == tuple(-c for c in plain.e1)
    assert got.q1 == -plain.q1
    with pytest.raises(FocalnetError, match=r"\|<e1, e1_ref>\| = 0\.000"):
        aligned_frame_point(program, 0.301, -0.4,
                            dataclasses.replace(plain, e1=plain.e2), tol)


def test_aligned_frame_point_flips_per_column(prog, tol):
    """In a batch whose reference e1 is reversed at every other column,
    each column continues to its own reference: the bits of the call at
    that point, flipped exactly where the reference is."""
    program = prog("graph_generic")
    u = np.array([0.3, -0.2, 0.45, 0.1])
    v = np.array([-0.4, 0.25, 0.05, 0.6])
    reversed_ = np.array([True, False, True, False])
    plain = frame_point(program, u, v, tol)
    ref = dataclasses.replace(plain, e1=tuple(
        np.where(reversed_, -c, c) for c in plain.e1))
    got = aligned_frame_point(program, u + 1e-3, v, ref, tol)
    for i in range(len(u)):
        ref_i = frame_point(program, float(u[i]), float(v[i]), tol)
        if reversed_[i]:
            ref_i = frame_point_from_pd(flipped_principal(ref_i.pd), tol)
        want = aligned_frame_point(program, float(u[i]) + 1e-3,
                                   float(v[i]), ref_i, tol)
        assert (got.e1[0][i], got.e2[1][i], got.q1[i], got.grad_k1[0][i]) \
            == (want.e1[0], want.e2[1], want.q1, want.grad_k1[0])
        assert (got.e1[0][i] < 0) == bool(reversed_[i])


def test_jet_fd_error_is_truncation_sized():
    program = compile_surface(parse_surface("""surface t {
      x = exp(u / 3) * cos(v)
      y = u
      z = v
      domain u in [-1, 1] v in [-1, 1]
    }"""))
    # first derivative, 4th-order stencil: error ~ h^4 f^(5) / 30
    e = jet_fd_error(program, 0.2, 0.4, 0, 1, 0, 1e-3)
    assert e < 1e-13
    e3 = jet_fd_error(program, 0.2, 0.4, 0, 3, 0, 1e-3)
    assert e3 < 1e-6



# ------------------------------------------- one batch per stencil, bitwise

def _per_node_frame_field(program, u, v, sampler, direction, h, tol):
    """The Richardson pair of `fd_directional` over one
    `aligned_frame_point` call per stencil node: the per-node reference
    for `fd_frame_field`, for one field and one direction."""
    center = frame_point(program, u, v, tol)

    def field(uu, vv):
        return sampler(aligned_frame_point(program, uu, vv, center, tol))

    return (16 * fd_directional(field, u, v, direction, h / 2)
            - fd_directional(field, u, v, direction, h)) / 15


_FIELDS = (lambda g: g.k1, lambda g: g.q2,
           lambda g: (g.pd.sj.x.value + 2.0 * g.pd.sj.y.value
                      - g.pd.sj.z.value))


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
def test_fd_frame_field_is_the_per_node_richardson_pair(prog, tol, batch):
    """Three fields from one sampler along three stacked directions: each
    derivative has the bits of the per-node reference at that direction
    (and point), and a single-field sampler gives one array."""
    program = prog("graph_generic")
    u = np.array([0.3, -0.2, 0.45, 0.1])
    v = np.array([-0.4, 0.25, 0.05, 0.6])
    if not batch:
        u, v = float(u[0]), float(v[0])
    angles = np.array([0.3, 1.9, -2.4])[:, None] + np.zeros(np.shape(u))
    direction = (np.cos(angles), np.sin(angles))
    ref = frame_point(program, u, v, tol)
    got = fd_frame_field(program, ref,
                         lambda g: tuple(f(g) for f in _FIELDS),
                         direction, 5e-4, tol)
    assert len(got) == len(_FIELDS)
    for d, (du, dv) in enumerate(zip(*direction)):
        for f, field in zip(_FIELDS, got):
            want = _per_node_frame_field(program, u, v, f, (du, dv), 5e-4,
                                         tol)
            assert np.array_equal(field[d], want)
    single = fd_frame_field(program, ref, _FIELDS[0], direction, 5e-4, tol)
    assert np.array_equal(single, got[0])


def test_stencil_node_outside_the_domain(graph_source):
    """A stencil node where sqrt(u) is undefined leaves NaN, at a point as
    in a one-column batch, and numpy stays silent (RuntimeWarning is an
    error here): for `fd_frame_field` and `fd_surface_jet`."""
    program = compile_surface(parse_surface(
        graph_source("sqrt(u) + u * v + v * v / 3")))
    k1 = lambda g: g.k1
    for u, v in ((0.05, 0.2), (np.array([0.05]), np.array([0.2]))):
        ref = frame_point(program, u, v)
        assert np.isfinite(fd_frame_field(program, ref, k1, (1.0, 0.0), 0.02))
        assert np.isnan(fd_frame_field(program, ref, k1, (1.0, 0.0), 0.03))
        assert np.isnan(fd_surface_jet(program, u, v, 0.03).z.c).any()


def test_degenerate_stencil_node_reads_nan(graph_source, tol):
    """On z = u^3 + v^2 at (0.02, 0.3) with h = 0.02 along u, two of the
    eight nodes lie on the parabolic line u = 0: every derivative of the
    point frame and of a one-column batch is NaN, silently."""
    program = compile_surface(parse_surface(graph_source("u^3 + v^2")))
    nodes = 0.02 + np.array([-2, -1, 1, 2, -4, -2, 2, 4]) * 0.01
    failed = frame_point(program, nodes, np.full(8, 0.3), tol).pd.failed
    assert failed.tolist() == [ParabolicPoint] + [None] * 4 + [
        ParabolicPoint] + [None] * 2
    for u, v in ((0.02, 0.3), (np.array([0.02]), np.array([0.3]))):
        got = fd_frame_field(program, frame_point(program, u, v, tol),
                             lambda g: (g.k1, g.k2, g.e1[0]), (1.0, 0.0),
                             0.02, tol)
        assert all(np.shape(d) == np.shape(u) and np.isnan(d).all()
                   for d in got)


@pytest.mark.parametrize("surface", ["graph_generic", "dini"])
def test_fd_surface_jet_is_fd_partial_per_monomial(prog, surface):
    """Every coefficient, at a point and in a batch, has the bits of
    `fd_partial(prog.position, ...)` divided by i! j!."""
    program = prog(surface)
    us, vs = np.array(domain_points(program, 6, np.random.default_rng(5))).T
    for u, v in ((float(us[0]), float(vs[0])), (us, vs)):
        sj = fd_surface_jet(program, u, v, 0.02)
        for slot, (i, j) in enumerate(jt.MONOMIALS):
            want = (fd_partial(program.position, u, v, i, j, 0.02)
                    / (math.factorial(i) * math.factorial(j)))
            got = sj.pos.c[slot]
            assert np.array_equal(got, want)
