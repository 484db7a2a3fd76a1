"""Expression AST shared by the surface language, jet evaluation, and the
finite-difference oracles.

Nodes are frozen dataclasses, so structural equality is `==`.  `Program`
compiles trees once into a straight-line program: each distinct subtree is
one step, in the post-order of its first appearance, so a subtree that the
trees hold several times is evaluated once.  Running it is generic over the
scalar type: `env` supplies values for identifiers and `funcs` supplies the
elementary functions, so the same program evaluates to floats, `Floats`,
jets, or mpmath values.  The steps are those a recursive walk would take
(left operand, right operand, operator; a call's function before its
argument), less the repeats, so the first step that fails raises what the
walk raises, with its message.  Two subtrees are one step only if their
constants have the same type and repr: dataclass `==` would merge
`Num(-0.0)` with `Num(0.0)` and `Num(1)` with `Num(1.0)`.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

from .errors import JetDomainError, UnboundIdentifierError
from .jet import ELEMENTARY

__all__ = [
    "Num", "Var", "Neg", "BinOp", "Call", "Node", "Program",
    "evaluate", "free_names", "to_source",
    "FUNCTION_NAMES", "CONSTANT_NAMES",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]

FUNCTION_NAMES = frozenset(f.name for f in ELEMENTARY)
CONSTANT_NAMES = frozenset({"pi", "e"})


def _power(a, b):
    # Guard the float path: Python would hand back a complex number.
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a < 0 and not float(b).is_integer():
            raise JetDomainError(
                f"negative base {a} with non-integer exponent {b}")
    return a ** b


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": _power}

# Step kinds: a constant, an identifier's value in `env`, a function of
# `funcs`, and a binary operator or a function applied to earlier steps.
_CONST, _VAR, _FUNC, _BINARY, _CALL = range(5)


class Program:
    """The straight-line program of `trees`; `run` gives their values.
    Each step is (kind, x, a, b) with a and b the indices of earlier steps:
    a constant x, the identifier or function named x, x(a, b) for a binary
    operator x, or the function of step x applied to a (negation is the
    constant function operator.neg).  A tree with an
    unknown operator or a part that is not a node fails to compile."""
    __slots__ = ("steps", "outputs")

    def __init__(self, trees):
        self.steps = []
        index = {}

        def step(key, *args) -> int:
            if key not in index:
                index[key] = len(self.steps)
                self.steps.append(args + (None,) * (4 - len(args)))
            return index[key]

        def emit(node) -> int:
            if isinstance(node, Num):
                v = node.value
                return step((Num, type(v), repr(v)), _CONST, v)
            if isinstance(node, Var):
                return step((Var, node.name), _VAR, node.name)
            if isinstance(node, Neg):
                f = step((Neg,), _CONST, operator.neg)
                a = emit(node.arg)
                return step((Call, f, a), _CALL, f, a)
            if isinstance(node, BinOp):
                if node.op not in _OPERATORS:
                    raise ValueError(f"unknown operator {node.op!r}")
                a, b = emit(node.left), emit(node.right)
                return step((BinOp, node.op, a, b), _BINARY,
                            _OPERATORS[node.op], a, b)
            if isinstance(node, Call):
                f = step((Call, node.func), _FUNC, node.func)
                a = emit(node.arg)
                return step((Call, f, a), _CALL, f, a)
            raise TypeError(f"not an expression node: {node!r}")

        self.outputs = tuple(emit(tree) for tree in trees)

    def run(self, env: dict, funcs: dict) -> tuple:
        """The trees' values, identifiers bound by `env` and functions by
        `funcs`; the first step that fails raises."""
        vals = []
        push = vals.append
        for kind, x, a, b in self.steps:
            if kind == _BINARY:
                push(x(vals[a], vals[b]))
            elif kind == _CALL:
                push(vals[x](vals[a]))
            elif kind == _CONST:
                push(x)
            elif kind == _VAR:
                try:
                    push(env[x])
                except KeyError:
                    raise UnboundIdentifierError(
                        f"unbound identifier '{x}'") from None
            else:
                try:
                    push(funcs[x])
                except KeyError:
                    raise UnboundIdentifierError(
                        f"unknown function '{x}'") from None
        return tuple([vals[k] for k in self.outputs])


def evaluate(node: Node, env: dict, funcs: dict):
    """The value of one tree: its program, compiled and run once."""
    return Program((node,)).run(env, funcs)[0]


def free_names(node: Node) -> set:
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return free_names(node.arg)
    if isinstance(node, BinOp):
        return free_names(node.left) | free_names(node.right)
    if isinstance(node, Call):
        return free_names(node.arg)
    raise TypeError(f"not an expression node: {node!r}")


# Precedence levels for printing: addition 1, multiplication 2, unary 3,
# power 4, atoms 5.  Mirrors the parser so parse(to_source(t)) == t.
_BIN_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _fmt(node: Node):
    if isinstance(node, Num):
        v = node.value
        text = repr(v)
        return (text, 3 if v < 0 else 5)
    if isinstance(node, Var):
        return (node.name, 5)
    if isinstance(node, Neg):
        s, lvl = _fmt(node.arg)
        if lvl < 4:
            s = f"({s})"
        return (f"-{s}", 3)
    if isinstance(node, BinOp):
        lvl = _BIN_LEVEL[node.op]
        ls, ll = _fmt(node.left)
        rs, rl = _fmt(node.right)
        if node.op == "^":
            # right-associative: left operand must be an atom
            if ll < 5:
                ls = f"({ls})"
            if rl < 4:
                rs = f"({rs})"
        else:
            if ll < lvl:
                ls = f"({ls})"
            if rl < lvl + 1:
                rs = f"({rs})"
        return (f"{ls} {node.op} {rs}", lvl)
    if isinstance(node, Call):
        s, _ = _fmt(node.arg)
        return (f"{node.func}({s})", 5)
    raise TypeError(f"not an expression node: {node!r}")


def to_source(node: Node) -> str:
    return _fmt(node)[0]
