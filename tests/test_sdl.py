"""Surface-definition language: parsing, printing, compiling."""
import math
import warnings

import numpy as np
import pytest

from focalnet.errors import (JetDomainError, ParseError,
                             UnknownParameterError, UnknownSurfaceError)
from focalnet.fdoracle import mp_scalar_fn
from focalnet.frames import frame_point
from focalnet.geometry import eval_surface
from focalnet.jet import MAX_ORDER, MONOMIALS, finite
from focalnet.sdl import (compile_surface, gallery, gallery_names,
                          gallery_source, load_surface, parse_program,
                          parse_surface)
from focalnet.report import grid_points

BOWL = """
surface bowl {
  param s = 0.5
  x = u
  y = v
  z = s * (u^2 + 2 * v^2)
  domain u in [-1, 1] v in [-1, 1]
}
"""


def test_parse_basic_block():
    sd = parse_surface(BOWL)
    assert sd.name == "bowl"
    assert dict(sd.params) == {"s": 0.5}
    box = sd.domain
    assert (box.u_min, box.u_max, box.v_min, box.v_max) == (-1, 1, -1, 1)


def test_compile_and_evaluate_position():
    prog = compile_surface(parse_surface(BOWL))
    x, y, z = prog.position(0.4, -0.2)
    assert (x, y) == (0.4, -0.2)
    assert z == pytest.approx(0.5 * (0.16 + 2 * 0.04), rel=1e-15)


def test_parameter_override_changes_geometry():
    sd = parse_surface(BOWL)
    z1 = compile_surface(sd).position(0.5, 0.5)[2]
    z2 = compile_surface(sd, {"s": 2.0}).position(0.5, 0.5)[2]
    assert z2 == pytest.approx(4.0 * z1, rel=1e-15)


def test_unknown_override_rejected():
    sd = parse_surface(BOWL)
    with pytest.raises(UnknownParameterError):
        compile_surface(sd, {"radius": 1.0})


def test_precedence_and_unary_minus():
    src = """surface p {
      x = -u^2
      y = 2 * u + 3 * v ^ 2 ^ 1
      z = (u + v) * -2
      domain u in [-1, 1] v in [-1, 1]
    }"""
    prog = compile_surface(parse_surface(src))
    x, y, z = prog.position(2.0, 3.0)
    assert x == -4.0              # -(u^2), not (-u)^2... equal here; check u=2
    assert y == pytest.approx(2 * 2 + 3 * 9)
    assert z == -10.0


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as ei:
        parse_surface("surface bad {\n  x = u +\n}")
    assert ei.value.line >= 2
    assert "line" in str(ei.value)


_X, _Y, _Z = "x = u", "y = v", "z = u * v"
_D = "domain u in [0, 1] v in [0, 1]"


def _block(*clauses):
    return "surface s {\n" + "".join(f"  {c}\n" for c in clauses) + "}\n"


@pytest.mark.parametrize("source, message, line, col", [
    (_block("x = u @ v", _Y, _Z, _D), "unexpected character '@'", 2, 9),
    ("surface s\n  x = u\n", "expected '{', found 'x'", 2, 3),
    ("surface {\n}\n", "expected identifier, found '{'", 1, 9),
    (_block("x = sin(u, v)", _Y, _Z, _D),
     "function 'sin' takes one argument", 2, 12),
    (_block("param a = u", _X, _Y, _Z, _D),
     "default of 'a' must be constant; found identifier 'u'", 2, 13),
    (_block("param a = ln(0)", _X, _Y, _Z, _D),
     "cannot evaluate default of 'a'", 2, 13),
    (_block("param a = 1e308 * 10", _X, _Y, _Z, _D),
     "default of 'a' is not finite", 2, 13),
    (_block("1", _X, _Y, _Z, _D),
     "expected 'param', 'x', 'y', 'z', 'domain' or '}'", 2, 3),
    (_block("param u = 1", _X, _Y, _Z, _D),
     "'u' cannot be a parameter name", 2, 9),
    (_block("param a = 1", "param a = 2", _X, _Y, _Z, _D),
     "duplicate parameter 'a'", 3, 9),
    (_block(_X, "x = v", _Y, _Z, _D), "duplicate coordinate 'x'", 3, 3),
    (_block(_X, _Y, _Z, _D, _D), "duplicate domain clause", 6, 3),
    (_block("w = u", _X, _Y, _Z, _D), "unknown clause 'w'", 2, 3),
    (_block(_X, _Y, _D), "missing coordinate clause 'z'", 1, 9),
    (_block(_X, _Y, _Z), "missing domain clause", 1, 9),
    (_block(_X, _Y, _Z, "domain u in [1, 1] v in [0, 1]"),
     "domain intervals must have min < max", 5, 3),
    (_block(_X, _Y, _Z, _D) * 2, "expected exactly one surface, found 2",
     1, 1),
], ids=["character", "brace", "identifier", "arity", "not_constant",
        "not_evaluable", "not_finite", "clause_token", "reserved",
        "duplicate_param", "duplicate_coord", "duplicate_domain",
        "unknown_clause", "missing_coord", "missing_domain", "empty_interval",
        "two_blocks"])
def test_parse_error_message_and_location(source, message, line, col):
    with pytest.raises(ParseError) as ei:
        parse_surface(source)
    assert message in str(ei.value)
    assert (ei.value.line, ei.value.col) == (line, col)


def test_parse_rejects_unknown_function_and_identifier():
    with pytest.raises(ParseError):
        parse_surface("""surface f {
          x = frob(u)
          y = v
          z = u
          domain u in [0, 1] v in [0, 1]
        }""")
    with pytest.raises((ParseError, JetDomainError)) as ei:
        prog = compile_surface(parse_surface("""surface g {
          x = u + w
          y = v
          z = u
          domain u in [0, 1] v in [0, 1]
        }"""))
        prog.position(0.5, 0.5)
    assert ei.type is not JetDomainError or "w" in str(ei.value)


def test_multi_block_selection():
    two = BOWL + "\nsurface wave {\n  x = u\n  y = v\n  z = sin(u)\n" \
                 "  domain u in [-2, 2] v in [-2, 2]\n}\n"
    assert [d.name for d in parse_program(two)] == ["bowl", "wave"]
    prog = load_surface(two, "wave")
    assert prog.definition.name == "wave"
    with pytest.raises(UnknownSurfaceError):
        load_surface(two)                      # ambiguous
    with pytest.raises(UnknownSurfaceError):
        load_surface(two, "nonesuch")
    with pytest.raises(ParseError) as ei:
        load_surface("# nothing here\n")
    assert "no surface definitions found" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 1)


def test_gallery_membership_and_errors():
    assert len(gallery_names()) == 10
    for expected in ("plane", "sphere", "helicoid", "torus", "enneper",
                     "scherk", "dini", "graph_quad", "graph_generic",
                     "monkey_saddle"):
        assert expected in gallery_names()
    with pytest.raises(UnknownSurfaceError):
        gallery_source("moebius")


@pytest.mark.parametrize("z, z_at_1", [("ln(u) + v^2", 0.25),
                                       ("1 / u + v^2", 1.25)],
                         ids=["log", "reciprocal"])
def test_undefined_position_is_a_domain_error(graph_source, z, z_at_1):
    """Plain positions fail the way jets do: JetDomainError, not the float
    evaluator's ValueError or ZeroDivisionError."""
    prog = compile_surface(parse_surface(graph_source(z)))
    with pytest.raises(JetDomainError):
        prog.position(0.0, 0.5)
    with pytest.raises(JetDomainError):
        prog.jets(0.0, 0.5)
    assert prog.position(1.0, 0.5)[2] == pytest.approx(z_at_1, rel=1e-15)


def test_non_finite_position_is_a_domain_error(graph_source):
    """Overflow becomes JetDomainError without a RuntimeWarning on the way."""
    prog = compile_surface(parse_surface(
        graph_source("exp(700 * u) * exp(700 * u)")))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(JetDomainError, match="not finite"):
            prog.position(1.0, 0.0)
        with pytest.raises(JetDomainError, match="not finite"):
            prog.jets(1.0, 0.0)


def test_torus_positions_match_closed_form():
    prog = compile_surface(gallery("torus"))
    R = prog.params["R"]
    r = prog.params["r"]
    u, v = 0.7, -1.1
    x, y, z = prog.position(u, v)
    assert x == pytest.approx((R + r * math.cos(v)) * math.cos(u), rel=1e-14)
    assert y == pytest.approx((R + r * math.cos(v)) * math.sin(u), rel=1e-14)
    assert z == pytest.approx(r * math.sin(v), rel=1e-14)


def test_position_jets_match_mpmath_derivatives():
    """All 15 slots of each position jet at `MAX_ORDER` (`prog.jets` as
    `eval_surface` hands them to the geometry), degree 4 included (no
    output reads those; the checks do), agree with mpmath's derivatives of the coordinate expression
    at 40 digits, to 4e-15 of the coordinate's largest slot: the ten
    gallery surfaces at two interior points each."""
    import mpmath as mp
    for name in gallery_names():
        prog = compile_surface(gallery(name))
        box = prog.definition.domain
        for fu, fv in ((0.31, 0.62), (0.73, 0.27)):
            u = box.u_min + fu * (box.u_max - box.u_min)
            v = box.v_min + fv * (box.v_max - box.v_min)
            sj = eval_surface(prog, u, v, MAX_ORDER)
            for coord, jet in enumerate((sj.x, sj.y, sj.z)):
                assert len(jet.c) == len(MONOMIALS)
                f = mp_scalar_fn(prog, coord)
                with mp.workdps(40):
                    want = [float(mp.diff(f, (u, v), (i, j))
                                  / (math.factorial(i) * math.factorial(j)))
                            for i, j in MONOMIALS]
                scale = max(map(abs, want))
                err = max(abs(g - w) for g, w in zip(jet.c.tolist(), want))
                assert err <= 4e-15 * scale, (name, u, v, coord, err, scale)


# z of graphs over [-1, 1]^2 whose float positions raise at some points of a
# 41 x 41 grid (which holds u = 0, v = 0 and u = v), or at every point; a
# power 0 or a base 1 hides a failure from NaN propagation
_FAILING_Z = ("1 / (u - v)", "u ^ v", "(u - 2) ^ (v + 0.5)", "(u ^ v) ^ 0",
              "ln(v)", "exp(800 * u)", "exp(800 * u) ^ 0", "1 / (1 / u)",
              "(1 / u) ^ 0", "1 ^ (1 / u)", "u / 0", "ln(0 - 1) + u")


def _point_positions(prog, us, vs):
    """Per point: prog.position, or NaN where it raises JetDomainError."""
    rows = []
    for u, v in zip(us, vs):
        try:
            rows.append(prog.position(u, v))
        except JetDomainError:
            rows.append(np.full(3, np.nan))
    return np.array(rows).T


@pytest.mark.parametrize("z, point_error", [
    ("ln(0 - 1) + u", (r"ln\(-1\.0\): math domain error",
                       r"s undefined \(math domain error\) at")),
    ("u / 0", ("division by zero",
               r"s undefined \(float division by zero\) at")),
    # ln(0 - 1) is one step of the compiled program, read twice
    ("ln(0 - 1) * u + ln(0 - 1)", (r"ln\(-1\.0\): math domain error",
                                   r"s undefined \(math domain error\) at"))],
    ids=["log", "division", "shared"])
def test_whole_evaluation_failure_fails_every_batch_point(graph_source, z,
                                                          point_error):
    """A constant subexpression outside its domain fails the whole
    evaluation.  At arrays eval_surface, frame_point and prog.position
    raise nothing and warn nothing, every jet column is non-finite, every
    point JetDomainError and every position NaN; at a point each raises
    its JetDomainError."""
    prog = compile_surface(parse_surface(graph_source(z)))
    us, vs = np.array([0.0, 0.5, -0.7]), np.array([0.3, 0.0, 0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sj = eval_surface(prog, us, vs)
        fp = frame_point(prog, us, vs)
        xyz = prog.position(us, vs)
    assert sj.pos.c.shape == (10, 3, 3)
    assert not finite([sj.x, sj.y, sj.z]).any()
    assert fp.pd.failed.tolist() == [JetDomainError] * 3
    assert xyz.shape == (3, 3) and np.isnan(xyz).all()
    jet_error, position_error = point_error
    for call, match in ((eval_surface, jet_error), (frame_point, jet_error),
                        (lambda p, u, v: p.position(u, v), position_error)):
        with pytest.raises(JetDomainError, match=match):
            call(prog, 0.0, 0.3)


def test_batch_positions_equal_point_positions(graph_source):
    """position on arrays gives each point's float position by bits, and
    NaN in all three coordinates exactly where the point's position raises,
    without a RuntimeWarning: the ten gallery surfaces at 40 x 40 (where
    monkey_saddle, enneper and dini hold points at which the jet value
    differs in the last bit), graphs whose positions fail at some or all
    points at 41 x 41, and a surface with a constant coordinate."""
    programs = [(compile_surface(gallery(name)), 40)
                for name in gallery_names()]
    programs += [(compile_surface(parse_surface(graph_source(z))), 41)
                 for z in _FAILING_Z]
    programs.append((compile_surface(parse_surface(
        "surface wall {\n  x = 0\n  y = v\n  z = u * v\n"
        "  domain u in [-1, 1] v in [-1, 1]\n}\n")), 41))
    for prog, n in programs:
        us, vs = np.array(grid_points(prog, n, n)).T
        want = _point_positions(prog, us.tolist(), vs.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = prog.position(us, vs)
        assert got.shape == (3, n * n)
        defined = ~np.isnan(want[0])
        assert (np.isfinite(got).all(axis=0) == defined).all(), prog.name
        assert got[:, defined].tobytes() == want[:, defined].tobytes(), \
            prog.name
        assert np.isnan(got[:, ~defined]).all(), prog.name
