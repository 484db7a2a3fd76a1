"""Finite-difference oracles: stencil correctness and agreement with the
jet engine along every derivative path the library uses."""
import math

import numpy as np
import pytest

from focalnet.errors import UmbilicPoint, ParabolicPoint
from focalnet.fdoracle import (fd_directional, fd_partial, fd_pfaffian,
                               fd_surface_jet, fd_surface_partial,
                               jet_fd_error, scalar_fn)
from focalnet.frames import frame_point, frame_point_from_pd
from focalnet.geometry import principal_data
from focalnet.sdl import compile_surface, parse_surface

from conftest import domain_points


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
        fd = fd_surface_partial(program, u, v, i, j, 1e-3)
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


def test_fd_pfaffian_matches_jet_gradient(prog, tol, rng):
    program = prog("scherk")
    count = 0
    for u, v in domain_points(program, 12, rng):
        try:
            fp = frame_point(program, u, v, tol)
        except (UmbilicPoint, ParabolicPoint):
            continue
        ana = fp.gradient(fp.k2_jet)
        fd = fd_pfaffian(program, u, v, lambda g: g.k2, 1e-4, tol)
        scale = abs(ana[0]) + abs(ana[1]) + 1e-9
        assert abs(ana[0] - fd[0]) / scale < 1e-6
        assert abs(ana[1] - fd[1]) / scale < 1e-6
        count += 1
        if count == 5:
            break
    assert count == 5


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


def test_scalar_fn_matches_position(prog):
    program = prog("torus")
    f = scalar_fn(program, 2)
    assert f(0.5, 1.0) == pytest.approx(program.position(0.5, 1.0)[2],
                                        rel=1e-15)
