"""Truncated bivariate Taylor arithmetic up to total order 4.

A Jet4 stores the value and all partial derivatives of a scalar f(u, v)
through total degree 4, Taylor-normalized: slot (i, j) holds
d^{i+j} f / (du^i dv^j) / (i! j!).  With that normalization multiplication
is a truncated Cauchy convolution and every elementary function is a
univariate series composed with the nilpotent part of its argument.

The coefficients have shape (15,) + S.  S = () is one point; S = (N,) is a
batch of N points, one per column, and every operation acts on each column
exactly as it would on that point alone, with the same floating-point
operations in the same order.  Values and extracted derivatives are floats
at S = () and arrays of shape S otherwise.

Each jet carries a `valid_order`: derivatives above it are meaningless
(consumed by a derivative operator) and extraction past it raises.
Binary operations propagate the minimum of the two orders, and a product
computes only the coefficients up to its valid order (the rest are 0).

An elementary function outside its domain (ln or sqrt of a non-positive
value, division by zero, an overflowing series coefficient) raises
JetDomainError at S = ().  With a batch axis it poisons only the columns
concerned, and builds no exception for them: all their coefficients become
NaN, which every later operation keeps, and `finite` tells them apart.

The elementary functions are the rows of one table, `ELEMENTARY`, which
also gives `expr.FLOAT_FUNCTIONS` and the mpmath functions of `fdoracle`.
Expressions are turned into jets by `sdl.SurfaceProgram.jets`, which binds
`jet_variables` and evaluates with `JET_FUNCTIONS`.
"""
from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .errors import JetDomainError, JetOrderError

__all__ = [
    "MAX_ORDER", "MONOMIALS", "MONOMIAL_INDEX", "N_COEFFS", "Jet4",
    "jet_variables", "where", "finite", "Elementary", "ELEMENTARY",
    "JET_FUNCTIONS",
    "sqrt", "exp", "ln", "sin", "cos", "tan", "sinh", "cosh",
]

MAX_ORDER = 4

# Graded order, u-power descending inside each degree.
MONOMIALS: tuple = tuple(
    (d - j, j) for d in range(MAX_ORDER + 1) for j in range(d + 1)
)
MONOMIAL_INDEX = {m: k for k, m in enumerate(MONOMIALS)}
N_COEFFS = len(MONOMIALS)  # 15


# Convolution pair tables, one per valid order r: out[OUT] += a[A] * b[B]
# over the pairs whose degrees sum to at most r (1, 5, 15, 35, 70 pairs).
# Every table keeps the pairs in the order of the full one, so each output
# coefficient sums the same terms in the same order whatever r is.
def _pair_tables():
    pairs = [(ka, kb, MONOMIAL_INDEX[(pa + pb, qa + qb)], pa + qa + pb + qb)
             for ka, (pa, qa) in enumerate(MONOMIALS)
             for kb, (pb, qb) in enumerate(MONOMIALS)
             if pa + pb + qa + qb <= MAX_ORDER]
    tables = []
    for r in range(MAX_ORDER + 1):
        kept = np.array([p[:3] for p in pairs if p[3] <= r], dtype=np.intp)
        tables.append((kept[:, 0].copy(), kept[:, 1].copy(),
                       kept[:, 2].copy()))
    return tuple(tables)


_PAIRS = _pair_tables()


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


def _slots(c: np.ndarray) -> tuple:
    """Shape that broadcasts one value per slot against coefficients c."""
    return (N_COEFFS,) + (1,) * (c.ndim - 1)

class Jet4:
    __slots__ = ("c", "valid_order")
    # numpy defers to the reflected operators: array * jet is jet.__rmul__
    __array_ufunc__ = None

    def __init__(self, coeffs: np.ndarray, valid_order: int = MAX_ORDER):
        self.c = coeffs
        self.valid_order = valid_order

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value, valid_order: int = MAX_ORDER) -> "Jet4":
        """Constant jet; `value` is a number, or an array of shape S."""
        c = np.zeros((N_COEFFS,) + getattr(value, "shape", ()))
        c[0] = value
        return Jet4(c, valid_order)

    @staticmethod
    def variable(value, axis: int) -> "Jet4":
        """Seed jet for the independent variable along `axis` (0 = u, 1 = v);
        `value` is a number, or an array of shape S."""
        jet = Jet4.const(value)
        jet.c[1 + axis] = 1.0
        return jet

    # -- access ------------------------------------------------------------

    @property
    def value(self):
        """The value: a float at S = (), else an array of shape S."""
        c = self.c
        return float(c[0]) if c.ndim == 1 else c[0]

    def extract(self, i: int, j: int):
        """Return d^{i+j} f / du^i dv^j (factorials restored)."""
        if i < 0 or j < 0:
            raise JetOrderError(f"negative derivative order ({i}, {j})")
        if i + j > self.valid_order:
            raise JetOrderError(
                f"order ({i}, {j}) exceeds valid order {self.valid_order}")
        d = self.c[MONOMIAL_INDEX[(i, j)]] * _FACT[i] * _FACT[j]
        return float(d) if self.c.ndim == 1 else d

    def du(self) -> "Jet4":
        if self.valid_order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        c = self.c
        fac = _DU_FAC if c.ndim == 1 else _DU_FAC.reshape(_slots(c))
        return Jet4(c[_DU_SRC] * fac, self.valid_order - 1)

    def dv(self) -> "Jet4":
        if self.valid_order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        c = self.c
        fac = _DV_FAC if c.ndim == 1 else _DV_FAC.reshape(_slots(c))
        return Jet4(c[_DV_SRC] * fac, self.valid_order - 1)

    def __repr__(self) -> str:
        return f"Jet4(value={self.c[0]!r}, valid_order={self.valid_order})"

    # -- ring operations ----------------------------------------------------
    # A number operand may also be an array of shape S (one per point).

    def __add__(self, other):
        if isinstance(other, Jet4):
            return Jet4(self.c + other.c,
                        self.valid_order if self.valid_order < other.valid_order
                        else other.valid_order)
        return Jet4(_add_scalar(self.c, other), self.valid_order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet4):
            return Jet4(self.c - other.c,
                        self.valid_order if self.valid_order < other.valid_order
                        else other.valid_order)
        return Jet4(_add_scalar(self.c, -other), self.valid_order)

    def __rsub__(self, other):
        return Jet4(_add_scalar(-self.c, other), self.valid_order)

    def __neg__(self):
        return Jet4(-self.c, self.valid_order)

    def __mul__(self, other):
        if isinstance(other, Jet4):
            order = (self.valid_order if self.valid_order < other.valid_order
                     else other.valid_order)
            a, b = self.c, other.c
            if a.ndim == 1:
                ka, kb, out = _PAIRS[order]
                return Jet4(np.bincount(out, a[ka] * b[kb], N_COEFFS), order)
            return Jet4(_convolve_batch(a, b, order), order)
        return Jet4(self.c * other, self.valid_order)

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


def _convolve_batch(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of two coefficient arrays with a batch axis: one
    bincount over the bins slot * n + column, so every column sums its
    terms in the order of the one-point product."""
    ka, kb, out = _PAIRS[order]
    n = a[0].size
    terms = a.reshape(N_COEFFS, n)[ka] * b.reshape(N_COEFFS, n)[kb]
    bins = (out[:, None] * n + np.arange(n)).ravel()
    return np.bincount(bins, terms.ravel(), N_COEFFS * n).reshape(a.shape)


def _add_scalar(c: np.ndarray, s) -> np.ndarray:
    out = c.copy()
    out[0] += s
    return out


def where(mask, a: Jet4, b: Jet4) -> Jet4:
    """Per point: `a` where `mask` holds, else `b` (mask has shape S); the
    valid order is the lower of the two."""
    c = (a if mask else b).c if a.c.ndim == 1 else np.where(mask, a.c, b.c)
    return Jet4(c, min(a.valid_order, b.valid_order))


def _compose(g: Jet4, series) -> Jet4:
    """Evaluate sum_k series[k] * (g - g.value)^k by Horner.  `series`
    holds five numbers, or five arrays of shape S."""
    gh = Jet4(g.c.copy(), g.valid_order)
    gh.c[0] = 0.0
    acc = Jet4.const(series[MAX_ORDER], g.valid_order)
    for k in range(MAX_ORDER - 1, -1, -1):
        acc = acc * gh
        acc.c[0] += series[k]
    return acc


_NAN_SERIES = [math.nan] * (MAX_ORDER + 1)


def _series(coeffs: Callable[[float], Optional[List[float]]], g: Jet4,
            name: str):
    """The five series coefficients `coeffs` gives at the value of g, by the
    same float code at every point; `coeffs` returns None outside the
    domain of function `name`.  At S = () that, or a failure of the float
    code, raises; with a batch axis such a point gets NaN coefficients."""
    if g.c.ndim == 1:
        row = coeffs(g.value)
        if row is None:
            raise JetDomainError(f"{name} undefined at value {g.value} in jet")
        return row
    rows = []
    for g0 in g.c[0].ravel().tolist():
        try:
            rows.append(coeffs(g0) or _NAN_SERIES)
        except (ArithmeticError, ValueError):
            rows.append(_NAN_SERIES)
    return np.array(rows).T.reshape((MAX_ORDER + 1,) + g.c.shape[1:])


def _reciprocal_series(g0: float) -> Optional[List[float]]:
    if g0 == 0.0:
        return None
    inv = 1.0 / g0
    return [inv, -inv**2, inv**3, -inv**4, inv**5]


def _reciprocal(g: Jet4) -> Jet4:
    return _compose(g, _series(_reciprocal_series, g, "1 / x"))


def _int_pow(g: Jet4, n: int) -> Jet4:
    if n < 0:
        return _int_pow(_reciprocal(g), -n)
    result = Jet4.const(np.ones(g.c.shape[1:]), g.valid_order)
    if n == 0:
        # 1, except where the base is already undefined
        result.c[..., np.isnan(g.c[0])] = math.nan
        return result
    base = g
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _real_pow(g: Jet4, p: float) -> Jet4:
    def coeffs(g0: float) -> Optional[List[float]]:
        if g0 <= 0.0:
            return None
        series = []
        coeff = 1.0
        for k in range(MAX_ORDER + 1):
            series.append(coeff * g0 ** (p - k))
            coeff *= (p - k) / (k + 1)
        return series
    return _compose(g, _series(coeffs, g, "non-integer power"))


# -- elementary functions ----------------------------------------------------
# Each series function gives the five Taylor coefficients of the function at
# a value, the same float code for one point and for every batch column, or
# None outside the function's domain.

def _sqrt_series(g0: float) -> Optional[List[float]]:
    if g0 <= 0.0:
        return None
    r = math.sqrt(g0)
    return [r, r / (2 * g0), -r / (8 * g0**2),
            r / (16 * g0**3), -5 * r / (128 * g0**4)]


def _exp_series(g0: float) -> List[float]:
    e0 = math.exp(g0)
    return [e0, e0, e0 / 2, e0 / 6, e0 / 24]


def _ln_series(g0: float) -> Optional[List[float]]:
    if g0 <= 0.0:
        return None
    return [math.log(g0), 1 / g0, -1 / (2 * g0**2),
            1 / (3 * g0**3), -1 / (4 * g0**4)]


def _sin_series(g0: float) -> List[float]:
    s, c = math.sin(g0), math.cos(g0)
    return [s, c, -s / 2, -c / 6, s / 24]


def _cos_series(g0: float) -> List[float]:
    s, c = math.sin(g0), math.cos(g0)
    return [c, -s, -c / 2, s / 6, c / 24]


def _sinh_series(g0: float) -> List[float]:
    s, c = math.sinh(g0), math.cosh(g0)
    return [s, c, s / 2, c / 6, s / 24]


def _cosh_series(g0: float) -> List[float]:
    s, c = math.sinh(g0), math.cosh(g0)
    return [c, s, c / 2, s / 6, c / 24]


class Elementary(NamedTuple):
    """A function of the surface language: its name there, its float
    version, its series coefficients at a value (None for tan, which is
    sin / cos on jets) and the name of its mpmath version."""
    name: str
    float_fn: Callable[[float], float]
    series: Optional[Callable[[float], Optional[List[float]]]]
    mp_name: str


ELEMENTARY = (
    Elementary("sqrt", math.sqrt, _sqrt_series, "sqrt"),
    Elementary("exp", math.exp, _exp_series, "exp"),
    Elementary("ln", math.log, _ln_series, "log"),
    Elementary("sin", math.sin, _sin_series, "sin"),
    Elementary("cos", math.cos, _cos_series, "cos"),
    Elementary("tan", math.tan, None, "tan"),
    Elementary("sinh", math.sinh, _sinh_series, "sinh"),
    Elementary("cosh", math.cosh, _cosh_series, "cosh"),
)


def _jet_function(f: Elementary) -> Callable:
    """`f` on a Jet4 or a plain number; a number outside the domain of the
    float function raises JetDomainError."""
    def fn(x):
        if isinstance(x, Jet4):
            if f.series is None:
                return sin(x) / cos(x)
            return _compose(x, _series(f.series, x, f.name))
        try:
            return f.float_fn(x)
        except (ValueError, OverflowError) as exc:
            raise JetDomainError(f"{f.name}({x!r}): {exc}") from None
    fn.__name__ = fn.__qualname__ = f.name
    return fn


JET_FUNCTIONS = {f.name: _jet_function(f) for f in ELEMENTARY}
sqrt, exp, ln, sin, cos, tan, sinh, cosh = (
    JET_FUNCTIONS[name]
    for name in ("sqrt", "exp", "ln", "sin", "cos", "tan", "sinh", "cosh"))


def finite(values):
    """Whether every number and jet coefficient in `values` is finite: a
    bool, or with a batch axis a bool array with one entry per point."""
    ok = True
    for x in values:
        ok = ok & (np.isfinite(x.c).all(axis=0) if isinstance(x, Jet4)
                   else math.isfinite(x))
    return ok


def jet_variables(u, v):
    """The seed jets of u and v: numbers, or arrays of shape S."""
    return (Jet4.variable(u, 0), Jet4.variable(v, 1))
