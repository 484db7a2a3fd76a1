"""Surface definition language: tokenizer, parser, printer, gallery.

A definition looks like

    surface helicoid {
      param c = 1.0
      x = v * cos(u)
      y = v * sin(u)
      z = c * u
      domain u in [-3.0, 3.0] v in [-2.0, 2.0]
    }

Parameter defaults and domain bounds are constant expressions (pi and e
allowed), coordinate expressions may use u, v, declared parameters, pi, e,
and the built-in functions.  `#` starts a line comment.  Parsing then
printing then parsing again reproduces the AST exactly.

Compiling a surface binds its parameters and compiles its x, y and z
expressions once into one straight-line program (`expr.Program`), in
which a subexpression that the coordinates share is one step.
`SurfaceProgram.evaluate` is the one evaluator of a compiled surface
(jets, positions and oracle samples): it runs that program, and its
arguments pick its functions: jets take `jet.JET_FUNCTIONS`, floats and
`jet.Floats` the float-function map `jet.FLOATS_FUNCTIONS`.  The parser
evaluates only constants, with the same map (`expr.evaluate`, which
compiles and runs one tree).  An undefined point raises JetDomainError;
a batch never raises, an undefined point only leaves its jet column
non-finite, and `geometry.principal_data` gives it that class.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import expr as ex
from . import jet as jt
from .errors import (JetDomainError, ParseError, UnknownParameterError,
                     UnknownSurfaceError)

__all__ = [
    "Box", "SurfaceDef", "SurfaceProgram",
    "parse_program", "parse_surface", "surface_source",
    "compile_surface", "load_surface",
    "gallery_names", "gallery", "gallery_source", "GALLERY_SOURCES",
]

_RESERVED = {"u", "v", "pi", "e", "surface", "param", "domain", "in",
             "x", "y", "z"} | set(ex.FUNCTION_NAMES)


@dataclass(frozen=True)
class Box:
    u_min: float
    u_max: float
    v_min: float
    v_max: float


@dataclass(frozen=True)
class SurfaceDef:
    name: str
    params: Tuple[Tuple[str, float], ...]
    x: ex.Node
    y: ex.Node
    z: ex.Node
    domain: Box


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[{}\[\](),=+\-*/^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | sym | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


# -- parser ------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 4


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}" if tok.text
                       else f"expected {text!r}, found end of input")
        return self.advance()

    def expect_ident(self, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or (text is not None and tok.text != text):
            want = repr(text) if text else "identifier"
            self.error(f"expected {want}, found {tok.text!r}" if tok.text
                       else f"expected {want}, found end of input")
        return self.advance()

    # expressions

    def parse_expr(self, min_prec: int = 1) -> ex.Node:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "sym" or tok.text not in _PREC:
                return left
            prec = _PREC[tok.text]
            if prec < min_prec:
                return left
            self.advance()
            # '^' is right-associative, the others left-associative
            right = self.parse_expr(prec if tok.text == "^" else prec + 1)
            left = ex.BinOp(tok.text, left, right)

    def parse_unary(self) -> ex.Node:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            arg = self.parse_expr(_UNARY_PREC)
            if isinstance(arg, ex.Num):
                return ex.Num(-arg.value)
            return ex.Neg(arg)
        return self.parse_atom()

    def parse_atom(self) -> ex.Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return ex.Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "sym" and nxt.text == "(":
                if tok.text not in ex.FUNCTION_NAMES:
                    self.error(f"unknown function '{tok.text}'", tok)
                self.advance()
                arg = self.parse_expr()
                if self.peek().kind == "sym" and self.peek().text == ",":
                    self.error(f"function '{tok.text}' takes one argument")
                self.expect_sym(")")
                return ex.Call(tok.text, arg)
            return ex.Var(tok.text)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        self.error(f"expected expression, found {tok.text!r}" if tok.text
                   else "expected expression, found end of input")

    # constant expressions (parameter defaults, domain bounds)

    def parse_const(self, what: str) -> float:
        tok = self.peek()
        node = self.parse_expr()
        extra = ex.free_names(node) - ex.CONSTANT_NAMES
        if extra:
            self.error(f"{what} must be constant; found identifier "
                       f"'{sorted(extra)[0]}'", tok)
        try:
            value = ex.evaluate(node, {"pi": math.pi, "e": math.e},
                                jt.FLOATS_FUNCTIONS)
        except Exception as exc:
            self.error(f"cannot evaluate {what}: {exc}", tok)
        if not math.isfinite(value):
            self.error(f"{what} is not finite", tok)
        return float(value)

    # surface blocks

    def parse_surface_block(self) -> SurfaceDef:
        self.expect_ident("surface")
        name_tok = self.expect_ident()
        self.expect_sym("{")
        params: List[Tuple[str, float]] = []
        coords: Dict[str, ex.Node] = {}
        domain: Optional[Box] = None
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "}":
                self.advance()
                break
            if tok.kind != "ident":
                self.error("expected 'param', 'x', 'y', 'z', 'domain' or '}'")
            if tok.text == "param":
                self.advance()
                pname_tok = self.expect_ident()
                pname = pname_tok.text
                if pname in _RESERVED:
                    self.error(f"'{pname}' cannot be a parameter name", pname_tok)
                if any(p == pname for p, _ in params):
                    self.error(f"duplicate parameter '{pname}'", pname_tok)
                self.expect_sym("=")
                params.append((pname, self.parse_const(f"default of '{pname}'")))
            elif tok.text in ("x", "y", "z"):
                self.advance()
                if tok.text in coords:
                    self.error(f"duplicate coordinate '{tok.text}'", tok)
                self.expect_sym("=")
                coords[tok.text] = self.parse_expr()
            elif tok.text == "domain":
                self.advance()
                if domain is not None:
                    self.error("duplicate domain clause", tok)
                domain = self.parse_domain(tok)
            else:
                self.error(f"unknown clause '{tok.text}'", tok)
        missing = [c for c in ("x", "y", "z") if c not in coords]
        if missing:
            self.error(f"missing coordinate clause '{missing[0]}'", name_tok)
        if domain is None:
            self.error("missing domain clause", name_tok)
        sd = SurfaceDef(name_tok.text, tuple(params),
                        coords["x"], coords["y"], coords["z"], domain)
        self.validate(sd, name_tok)
        return sd

    def parse_domain(self, at: _Token) -> Box:
        self.expect_ident("u")
        self.expect_ident("in")
        u_min, u_max = self.parse_interval()
        self.expect_ident("v")
        self.expect_ident("in")
        v_min, v_max = self.parse_interval()
        if not (u_min < u_max and v_min < v_max):
            self.error("domain intervals must have min < max", at)
        return Box(u_min, u_max, v_min, v_max)

    def parse_interval(self) -> Tuple[float, float]:
        self.expect_sym("[")
        lo = self.parse_const("domain bound")
        self.expect_sym(",")
        hi = self.parse_const("domain bound")
        self.expect_sym("]")
        return lo, hi

    def validate(self, sd: SurfaceDef, at: _Token):
        allowed = {"u", "v"} | ex.CONSTANT_NAMES | {p for p, _ in sd.params}
        for coord in (sd.x, sd.y, sd.z):
            extra = ex.free_names(coord) - allowed
            if extra:
                self.error(f"unknown identifier '{sorted(extra)[0]}'", at)


def parse_program(text: str) -> List[SurfaceDef]:
    parser = _Parser(text)
    defs = []
    while parser.peek().kind != "end":
        defs.append(parser.parse_surface_block())
    return defs


def parse_surface(text: str) -> SurfaceDef:
    defs = parse_program(text)
    if len(defs) != 1:
        raise ParseError(f"expected exactly one surface, found {len(defs)}", 1, 1)
    return defs[0]


# -- printer -----------------------------------------------------------------

def surface_source(sd: SurfaceDef) -> str:
    lines = [f"surface {sd.name} {{"]
    for pname, pvalue in sd.params:
        lines.append(f"  param {pname} = {pvalue!r}")
    lines.append(f"  x = {ex.to_source(sd.x)}")
    lines.append(f"  y = {ex.to_source(sd.y)}")
    lines.append(f"  z = {ex.to_source(sd.z)}")
    d = sd.domain
    lines.append(f"  domain u in [{d.u_min!r}, {d.u_max!r}]"
                 f" v in [{d.v_min!r}, {d.v_max!r}]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- compilation -------------------------------------------------------------

class SurfaceProgram:
    """A surface definition bound to concrete parameter values, its x, y
    and z expressions compiled once into one straight-line program
    (`expr.Program`), which every evaluation runs."""

    def __init__(self, definition: SurfaceDef, params: Dict[str, float]):
        self.definition = definition
        self.name = definition.name
        self.params = dict(params)
        self.exprs = (definition.x, definition.y, definition.z)
        self.program = ex.Program(self.exprs)

    def evaluate(self, u, v) -> tuple:
        """The (x, y, z) expressions with u and v bound to the given values:
        jets with `jet.JET_FUNCTIONS`, floats or `jet.Floats` with the
        float-function map `jet.FLOATS_FUNCTIONS`.  At a point a failure
        (a function outside its domain, a division by zero, an overflow,
        a result that `jet.finite` rejects) raises JetDomainError.  A
        batch never raises: a failing point leaves its jet column
        non-finite, or its `Floats` entry failed, and a failure of the
        whole evaluation (say of a constant subexpression) fails every
        point.  numpy's warnings are silenced, as those values are the
        failure."""
        env = {"pi": math.pi, "e": math.e, **self.params, "u": u, "v": v}
        funcs = (jt.JET_FUNCTIONS if isinstance(u, jt.Jet4)
                 else jt.FLOATS_FUNCTIONS)
        at = (getattr(u, "value", u), getattr(v, "value", v))
        try:
            with np.errstate(all="ignore"):
                out = self.program.run(env, funcs)
        except (ZeroDivisionError, ValueError, OverflowError,
                JetDomainError) as exc:
            if np.ndim(at[0]):          # a batch: every point fails
                nan = u * math.nan
                return (nan if isinstance(u, jt.Jet4)
                        else nan.failing(True),) * 3
            if isinstance(exc, JetDomainError):
                raise
            raise JetDomainError(
                f"{self.name} undefined ({exc}) at (u, v) = {at}") from None
        if ((isinstance(at[0], float) or np.ndim(at[0]) == 0)
                and not jt.finite(out)):
            raise JetDomainError(f"{self.name} not finite at (u, v) = {at}")
        return out

    def jets(self, u, v, order: int = jt.OUTPUT_ORDER):
        """Jets of (x, y, z) at (u, v) of valid order `order` (the outputs'
        order unless asked for more), constants as constant jets.  u and v
        are numbers, or arrays of shape (N,) for a batch."""
        out = self.evaluate(*jt.jet_variables(u, v, order))
        return tuple(c if isinstance(c, jt.Jet4)
                     else jt.Jet4.const(np.full(np.shape(u), c), order)
                     for c in out)

    def position(self, u, v) -> np.ndarray:
        """(x, y, z) at (u, v) by the float evaluator.  At numbers a (3,)
        array; an undefined or non-finite point raises JetDomainError.  At
        arrays of shape S a (3,) + S array with, at each point, the bits of
        that point's position (through `jet.Floats`), and NaN in all three
        coordinates where the point's position would raise."""
        if np.ndim(u) == 0:
            return np.array(self.evaluate(float(u), float(v)), dtype=float)
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        xyz = np.empty((3,) + u.shape)
        failed = np.zeros(u.shape, dtype=bool)
        out = self.evaluate(jt.Floats(u), jt.Floats(v))
        for row, c in zip(xyz, out):
            row[...] = getattr(c, "value", c)
            failed |= getattr(c, "failed", False)
        xyz[:, failed | ~np.isfinite(xyz).all(axis=0)] = math.nan
        return xyz

    def __repr__(self):
        ps = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"SurfaceProgram({self.name}{', ' + ps if ps else ''})"


def compile_surface(sd: SurfaceDef,
                    overrides: Optional[Dict[str, float]] = None) -> SurfaceProgram:
    params = {pname: pvalue for pname, pvalue in sd.params}
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise UnknownParameterError(
                f"surface '{sd.name}' has no parameter "
                f"'{sorted(unknown)[0]}' (has: {sorted(params) or 'none'})")
        params.update({k: float(v) for k, v in overrides.items()})
    return SurfaceProgram(sd, params)


def load_surface(text: str, name: Optional[str] = None,
                 overrides: Optional[Dict[str, float]] = None) -> SurfaceProgram:
    """Parse source that may hold several definitions and compile one."""
    defs = parse_program(text)
    if not defs:
        raise ParseError("no surface definitions found", 1, 1)
    if name is None:
        if len(defs) > 1:
            raise UnknownSurfaceError(
                "source defines several surfaces; pick one of: "
                + ", ".join(d.name for d in defs))
        return compile_surface(defs[0], overrides)
    for d in defs:
        if d.name == name:
            return compile_surface(d, overrides)
    raise UnknownSurfaceError(
        f"no surface named '{name}' in source (has: "
        + ", ".join(d.name for d in defs) + ")")


# -- gallery -----------------------------------------------------------------

GALLERY_SOURCES: Dict[str, str] = {
    "plane": """
surface plane {
  x = u
  y = v
  z = 0
  domain u in [-1, 1] v in [-1, 1]
}
""",
    "sphere": """
surface sphere {
  param R = 1
  x = R * cos(v) * cos(u)
  y = R * cos(v) * sin(u)
  z = R * sin(v)
  domain u in [-3, 3] v in [-1.2, 1.2]
}
""",
    "graph_quad": """
surface graph_quad {
  param a = 2
  param b = 1
  x = u
  y = v
  z = a * u^2 / 2 + b * v^2 / 2
  domain u in [-1, 1] v in [-1, 1]
}
""",
    "graph_generic": """
surface graph_generic {
  x = u
  y = v
  z = sin(u) * cos(v) + u * v^2 / 5
  domain u in [-1.2, 1.2] v in [-1.2, 1.2]
}
""",
    "monkey_saddle": """
surface monkey_saddle {
  x = u
  y = v
  z = u^3 - 3 * u * v^2
  domain u in [-1, 1] v in [-1, 1]
}
""",
    "helicoid": """
surface helicoid {
  param c = 1
  x = v * cos(u)
  y = v * sin(u)
  z = c * u
  domain u in [-3, 3] v in [-2, 2]
}
""",
    "torus": """
surface torus {
  param R = 2
  param r = 0.5
  x = (R + r * cos(v)) * cos(u)
  y = (R + r * cos(v)) * sin(u)
  z = r * sin(v)
  domain u in [-pi, pi] v in [-pi, pi]
}
""",
    "enneper": """
surface enneper {
  x = u - u^3 / 3 + u * v^2
  y = -v + v^3 / 3 - v * u^2
  z = u^2 - v^2
  domain u in [-2, 2] v in [-2, 2]
}
""",
    "scherk": """
surface scherk {
  x = u
  y = v
  z = ln(cos(u)) - ln(cos(v))
  domain u in [-1.3, 1.3] v in [-1.3, 1.3]
}
""",
    "dini": """
surface dini {
  param a = 1
  param b = 0.2
  x = a * cos(u) * sin(v)
  y = a * sin(u) * sin(v)
  z = a * (cos(v) + ln(tan(v / 2))) + b * u
  domain u in [-3, 3] v in [0.3, 2.8]
}
""",
}

_GALLERY_CACHE: Dict[str, SurfaceDef] = {}


def gallery_names() -> List[str]:
    return list(GALLERY_SOURCES)


def gallery_source(name: str) -> str:
    try:
        return GALLERY_SOURCES[name]
    except KeyError:
        raise UnknownSurfaceError(
            f"unknown surface '{name}' (available: "
            + ", ".join(gallery_names()) + ")") from None


def gallery(name: str) -> SurfaceDef:
    if name not in _GALLERY_CACHE:
        _GALLERY_CACHE[name] = parse_surface(gallery_source(name))
    return _GALLERY_CACHE[name]
