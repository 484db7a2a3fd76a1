"""Truncated bivariate Taylor arithmetic up to total order 4.

A Jet4 stores the value and all partial derivatives of a scalar f(u, v)
through total degree 4, Taylor-normalized: slot (i, j) holds
d^{i+j} f / (du^i dv^j) / (i! j!).  With that normalization multiplication
is a truncated Cauchy convolution and every elementary function is a
univariate series composed with the nilpotent part of its argument.

Each jet carries a `valid_order`: derivatives above it are meaningless
(consumed by a derivative operator) and extraction past it raises.
Binary operations propagate the minimum of the two orders.

Expressions are turned into jets by `sdl.SurfaceProgram.jets`, which binds
`jet_variables` and evaluates with `JET_FUNCTIONS`.
"""
from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .errors import JetDomainError, JetOrderError

__all__ = [
    "MAX_ORDER", "MONOMIALS", "MONOMIAL_INDEX", "N_COEFFS", "Jet4",
    "jet_variables", "JET_FUNCTIONS",
    "sqrt", "exp", "ln", "sin", "cos", "tan", "sinh", "cosh",
]

MAX_ORDER = 4

# Graded order, u-power descending inside each degree.
MONOMIALS: tuple = tuple(
    (d - j, j) for d in range(MAX_ORDER + 1) for j in range(d + 1)
)
MONOMIAL_INDEX = {m: k for k, m in enumerate(MONOMIALS)}
N_COEFFS = len(MONOMIALS)  # 15

# Scatter tables for truncated convolution: out[_MUL_OUT] += a[_MUL_A]*b[_MUL_B].
_mul_a, _mul_b, _mul_out = [], [], []
for _ka, (_pa, _qa) in enumerate(MONOMIALS):
    for _kb, (_pb, _qb) in enumerate(MONOMIALS):
        if _pa + _pb + _qa + _qb <= MAX_ORDER:
            _mul_a.append(_ka)
            _mul_b.append(_kb)
            _mul_out.append(MONOMIAL_INDEX[(_pa + _pb, _qa + _qb)])
_MUL_A = np.array(_mul_a, dtype=np.intp)
_MUL_B = np.array(_mul_b, dtype=np.intp)
_MUL_OUT = np.array(_mul_out, dtype=np.intp)
del _mul_a, _mul_b, _mul_out

# d/du: result[(i, j)] = (i+1) * c[(i+1, j)]; slots with i+1 > 4 vanish.
def _shift_table(axis: int):
    src = np.zeros(N_COEFFS, dtype=np.intp)
    fac = np.zeros(N_COEFFS)
    for k, (i, j) in enumerate(MONOMIALS):
        up = (i + 1, j) if axis == 0 else (i, j + 1)
        if up in MONOMIAL_INDEX:
            src[k] = MONOMIAL_INDEX[up]
            fac[k] = up[axis]
    return src, fac

_DU_SRC, _DU_FAC = _shift_table(0)
_DV_SRC, _DV_FAC = _shift_table(1)

_FACT = np.array([math.factorial(n) for n in range(MAX_ORDER + 1)])

Number = Union[int, float, np.floating]


class Jet4:
    __slots__ = ("c", "valid_order")

    def __init__(self, coeffs: np.ndarray, valid_order: int = MAX_ORDER):
        self.c = coeffs
        self.valid_order = valid_order

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Number, valid_order: int = MAX_ORDER) -> "Jet4":
        c = np.zeros(N_COEFFS)
        c[0] = float(value)
        return Jet4(c, valid_order)

    @staticmethod
    def variable(value: Number, axis: int) -> "Jet4":
        """Seed jet for the independent variable along `axis` (0 = u, 1 = v)."""
        c = np.zeros(N_COEFFS)
        c[0] = float(value)
        c[1 + axis] = 1.0
        return Jet4(c)

    # -- access ------------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    def extract(self, i: int, j: int) -> float:
        """Return d^{i+j} f / du^i dv^j (factorials restored)."""
        if i < 0 or j < 0:
            raise JetOrderError(f"negative derivative order ({i}, {j})")
        if i + j > self.valid_order:
            raise JetOrderError(
                f"order ({i}, {j}) exceeds valid order {self.valid_order}")
        return float(self.c[MONOMIAL_INDEX[(i, j)]] * _FACT[i] * _FACT[j])

    def du(self) -> "Jet4":
        if self.valid_order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        return Jet4(self.c[_DU_SRC] * _DU_FAC, self.valid_order - 1)

    def dv(self) -> "Jet4":
        if self.valid_order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        return Jet4(self.c[_DV_SRC] * _DV_FAC, self.valid_order - 1)

    def __repr__(self) -> str:
        return f"Jet4(value={self.c[0]!r}, valid_order={self.valid_order})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet4):
            return Jet4(self.c + other.c,
                        min(self.valid_order, other.valid_order))
        return Jet4(_add_scalar(self.c, other), self.valid_order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet4):
            return Jet4(self.c - other.c,
                        min(self.valid_order, other.valid_order))
        return Jet4(_add_scalar(self.c, -other), self.valid_order)

    def __rsub__(self, other):
        return Jet4(_add_scalar(-self.c, other), self.valid_order)

    def __neg__(self):
        return Jet4(-self.c, self.valid_order)

    def __mul__(self, other):
        if isinstance(other, Jet4):
            out = np.bincount(_MUL_OUT, weights=self.c[_MUL_A] * other.c[_MUL_B],
                              minlength=N_COEFFS)
            return Jet4(out, min(self.valid_order, other.valid_order))
        return Jet4(self.c * float(other), self.valid_order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet4):
            return self * _reciprocal(other)
        d = float(other)
        if d == 0.0:
            raise JetDomainError("division by zero")
        return Jet4(self.c / d, self.valid_order)

    def __rtruediv__(self, other):
        return _reciprocal(self) * float(other)

    def __pow__(self, p):
        if isinstance(p, Jet4):
            return exp(p * ln(self))
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p.is_integer()):
            return _int_pow(self, int(p))
        return _real_pow(self, float(p))

    def __rpow__(self, base):
        b = float(base)
        if b <= 0.0:
            raise JetDomainError(f"base {b} of exponential must be positive")
        return exp(self * math.log(b))


def _add_scalar(c: np.ndarray, s) -> np.ndarray:
    out = c.copy()
    out[0] += float(s)
    return out


def _compose(g: Jet4, series: Sequence[float]) -> Jet4:
    """Evaluate sum_k series[k] * (g - g.value)^k by Horner."""
    gh = Jet4(g.c.copy(), g.valid_order)
    gh.c[0] = 0.0
    acc = Jet4.const(series[MAX_ORDER], g.valid_order)
    for k in range(MAX_ORDER - 1, -1, -1):
        acc = acc * gh
        acc.c[0] += series[k]
    return acc


def _reciprocal(g: Jet4) -> Jet4:
    g0 = g.value
    if g0 == 0.0:
        raise JetDomainError("division by zero")
    inv = 1.0 / g0
    return _compose(g, [inv, -inv**2, inv**3, -inv**4, inv**5])


def _int_pow(g: Jet4, n: int) -> Jet4:
    if n < 0:
        return _int_pow(_reciprocal(g), -n)
    result = Jet4.const(1.0, g.valid_order)
    base = g
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _real_pow(g: Jet4, p: float) -> Jet4:
    g0 = g.value
    if g0 <= 0.0:
        raise JetDomainError(f"non-integer power of non-positive value {g0}")
    series = []
    coeff = 1.0
    for k in range(MAX_ORDER + 1):
        series.append(coeff * g0 ** (p - k))
        coeff *= (p - k) / (k + 1)
    return _compose(g, series)


# -- elementary functions (accept Jet4 or plain numbers) --------------------

def sqrt(x):
    if not isinstance(x, Jet4):
        if x < 0:
            raise JetDomainError(f"sqrt of negative value {x}")
        return math.sqrt(x)
    g0 = x.value
    if g0 <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {g0} in jet")
    r = math.sqrt(g0)
    return _compose(x, [r, r / (2 * g0), -r / (8 * g0**2),
                        r / (16 * g0**3), -5 * r / (128 * g0**4)])


def exp(x):
    if not isinstance(x, Jet4):
        return math.exp(x)
    e0 = math.exp(x.value)
    return _compose(x, [e0, e0, e0 / 2, e0 / 6, e0 / 24])


def ln(x):
    if not isinstance(x, Jet4):
        if x <= 0:
            raise JetDomainError(f"ln of non-positive value {x}")
        return math.log(x)
    g0 = x.value
    if g0 <= 0.0:
        raise JetDomainError(f"ln of non-positive value {g0} in jet")
    return _compose(x, [math.log(g0), 1 / g0, -1 / (2 * g0**2),
                        1 / (3 * g0**3), -1 / (4 * g0**4)])


def sin(x):
    if not isinstance(x, Jet4):
        return math.sin(x)
    s, c = math.sin(x.value), math.cos(x.value)
    return _compose(x, [s, c, -s / 2, -c / 6, s / 24])


def cos(x):
    if not isinstance(x, Jet4):
        return math.cos(x)
    s, c = math.sin(x.value), math.cos(x.value)
    return _compose(x, [c, -s, -c / 2, s / 6, c / 24])


def tan(x):
    if not isinstance(x, Jet4):
        return math.tan(x)
    return sin(x) / cos(x)


def sinh(x):
    if not isinstance(x, Jet4):
        return math.sinh(x)
    s, c = math.sinh(x.value), math.cosh(x.value)
    return _compose(x, [s, c, s / 2, c / 6, s / 24])


def cosh(x):
    if not isinstance(x, Jet4):
        return math.cosh(x)
    s, c = math.sinh(x.value), math.cosh(x.value)
    return _compose(x, [c, s, c / 2, s / 6, c / 24])


JET_FUNCTIONS = {
    "sqrt": sqrt, "exp": exp, "ln": ln,
    "sin": sin, "cos": cos, "tan": tan, "sinh": sinh, "cosh": cosh,
}


def jet_variables(u: Number, v: Number):
    return (Jet4.variable(u, 0), Jet4.variable(v, 1))
