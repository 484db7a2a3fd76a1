"""Expression AST shared by the surface language, jet evaluation, and the
finite-difference oracles.

Nodes are frozen dataclasses, so structural equality is `==`.  Evaluation is
generic over the scalar type: `env` supplies values for identifiers and
`funcs` supplies the elementary functions, so the same tree evaluates to
floats, jets, or mpmath values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import JetDomainError, UnboundIdentifierError
from .jet import ELEMENTARY

__all__ = [
    "Num", "Var", "Neg", "BinOp", "Call", "Node",
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


def evaluate(node: Node, env: dict, funcs: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundIdentifierError(f"unbound identifier '{node.name}'") from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, env, funcs)
    if isinstance(node, BinOp):
        a = evaluate(node.left, env, funcs)
        b = evaluate(node.right, env, funcs)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if op == "^":
            # Guard the float path: Python would hand back a complex number.
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                if a < 0 and not float(b).is_integer():
                    raise JetDomainError(
                        f"negative base {a} with non-integer exponent {b}")
            return a ** b
        raise ValueError(f"unknown operator {op!r}")
    if isinstance(node, Call):
        try:
            fn = funcs[node.func]
        except KeyError:
            raise UnboundIdentifierError(f"unknown function '{node.func}'") from None
        return fn(evaluate(node.arg, env, funcs))
    raise TypeError(f"not an expression node: {node!r}")


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
