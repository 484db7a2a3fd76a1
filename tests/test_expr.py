"""The straight-line program of expression trees (`expr.Program`): one step
per distinct subtree, keys that keep constants of another type or sign
apart, and the failures of a walk of the tree in its order."""
import math

import pytest

import focalnet.expr as ex
import focalnet.jet as jt
from focalnet import sdl
from focalnet.errors import JetDomainError, UnboundIdentifierError


def _counting(funcs, calls):
    """`funcs` with each call counted by name in `calls`."""
    def counted(name, fn):
        def call(x):
            calls[name] = calls.get(name, 0) + 1
            return fn(x)
        return call
    return {name: counted(name, fn) for name, fn in funcs.items()}


def test_program_evaluates_each_distinct_subtree_once():
    """sin(u) appears seven times over three trees and cos(sin(u)) twice:
    one call of each function, and the values of the trees as written."""
    sin_u = ex.Call("sin", ex.Var("u"))
    cos_sin = ex.Call("cos", sin_u)
    first = ex.BinOp("+", ex.BinOp("*", sin_u, sin_u), cos_sin)
    second = ex.BinOp("-", cos_sin, ex.Neg(ex.BinOp("^", sin_u, sin_u)))
    prog = ex.Program((first, second, sin_u))
    calls = {}
    out = prog.run({"u": 0.3}, _counting(jt.FLOATS_FUNCTIONS, calls))
    assert calls == {"sin": 1, "cos": 1}
    s = math.sin(0.3)
    assert out == (s * s + math.cos(s), math.cos(s) - -(s ** s), s)
    # sin, u, sin(u), *, cos, cos(sin(u)), +, ^, neg, -(^), -
    assert len(prog.steps) == 11


def test_program_keeps_signed_zeros_and_int_constants_apart():
    """Num(-0.0) == Num(0.0) and Num(1) == Num(1.0) as dataclasses, but
    each is its own step: -0.0 + 0.0 and -0.0 + -0.0 keep their signs,
    and the int constant stays an int."""
    zero, neg_zero = ex.Num(0.0), ex.Num(-0.0)
    one_int, one = ex.Num(1), ex.Num(1.0)
    assert zero == neg_zero and one_int == one
    trees = (ex.BinOp("+", ex.Var("u"), zero),
             ex.BinOp("+", ex.Var("u"), neg_zero), one_int, one, neg_zero)
    out = ex.Program(trees).run({"u": -0.0}, jt.FLOATS_FUNCTIONS)
    assert [math.copysign(1.0, x) for x in out[:2]] == [1.0, -1.0]
    assert type(out[2]) is int and type(out[3]) is float
    assert math.copysign(1.0, out[4]) == -1.0


# (tree, then per evaluation: floats at a point, jets at a point, and
# expr.evaluate on floats) -> (exception, message); the recursive walk that
# the program replaced raised these
_U, _W = ex.Var("u"), ex.Var("w")
_FAILURES = {
    "log": (ex.BinOp("+", ex.Call("ln", ex.BinOp("-", ex.Num(0.0),
                                                 ex.Num(1.0))), _U),
            ((JetDomainError, "s undefined (math domain error) at "
                              "(u, v) = (0.5, 0.25)"),
             (JetDomainError, "ln(-1.0): math domain error"),
             (ValueError, "math domain error"))),
    "division": (ex.BinOp("/", _U, ex.Num(0.0)),
                 ((JetDomainError, "s undefined (float division by zero) "
                                   "at (u, v) = (0.5, 0.25)"),
                  (JetDomainError, "division by zero"),
                  (ZeroDivisionError, "float division by zero"))),
    "unbound": (ex.BinOp("*", _U, _W),
                ((UnboundIdentifierError, "unbound identifier 'w'"),) * 3),
    "unknown": (ex.Call("foo", _U),
                ((UnboundIdentifierError, "unknown function 'foo'"),) * 3),
    # a call looks its function up before it evaluates its argument
    "unknown_before_argument": (
        ex.Call("foo", _W),
        ((UnboundIdentifierError, "unknown function 'foo'"),) * 3),
    "left_before_right": (
        ex.BinOp("+", _W, ex.Call("foo", _U)),
        ((UnboundIdentifierError, "unbound identifier 'w'"),) * 3),
    "domain_before_unbound": (
        ex.BinOp("-", ex.Call("ln", ex.Num(-2.0)), _W),
        ((JetDomainError, "s undefined (math domain error) at "
                          "(u, v) = (0.5, 0.25)"),
         (JetDomainError, "ln(-2.0): math domain error"),
         (ValueError, "math domain error"))),
    # u / 0 is one step, which fails before w is looked up
    "shared": (ex.BinOp("+", ex.BinOp("/", _U, ex.Num(0.0)),
                        ex.BinOp("*", ex.BinOp("/", _U, ex.Num(0.0)), _W)),
               ((JetDomainError, "s undefined (float division by zero) "
                                 "at (u, v) = (0.5, 0.25)"),
                (JetDomainError, "division by zero"),
                (ZeroDivisionError, "float division by zero"))),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_point_failures_raise_what_the_recursive_walk_raised(case):
    tree, expected = _FAILURES[case]
    prog = sdl.SurfaceProgram(sdl.SurfaceDef("s", (), _U, ex.Var("v"), tree,
                                             sdl.Box(-1, 1, -1, 1)), {})
    calls = (lambda: prog.evaluate(0.5, 0.25),
             lambda: prog.evaluate(*jt.jet_variables(0.5, 0.25, 3)),
             lambda: ex.evaluate(tree, {"u": 0.5, "v": 0.25},
                                 jt.FLOATS_FUNCTIONS))
    for call, (kind, message) in zip(calls, expected):
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind and str(info.value) == message


def test_compiling_rejects_what_is_no_expression():
    with pytest.raises(ValueError, match="unknown operator '%'"):
        ex.Program((ex.BinOp("%", _U, _U),))
    with pytest.raises(TypeError, match="not an expression node"):
        ex.Program((ex.Neg(1.5),))
