"""Surface-definition language: parsing, printing, compiling."""
import math
import warnings

import pytest

from focalnet.errors import (JetDomainError, ParseError,
                             UnknownParameterError, UnknownSurfaceError)
from focalnet.sdl import (compile_surface, gallery, gallery_names,
                          gallery_source, load_surface, parse_program,
                          parse_surface)

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
