"""Truncated bivariate Taylor arithmetic up to total order 4.

A Jet4 stores the value and the partial derivatives of a scalar f(u, v)
through its `valid_order` r <= 4, Taylor-normalized: slot (i, j) holds
d^{i+j} f / (du^i dv^j) / (i! j!).  With that normalization multiplication
is a truncated Cauchy convolution and every elementary function is a
univariate series composed with the nilpotent part of its argument.

The slots are in graded order (`MONOMIALS`), and a jet stores exactly the
prefix up to its valid order: its coefficients have shape
(N_SLOTS[r],) + S, 15/10/6/3/1 slots for r = 4..0.  S = () is one point;
S = (N,) is a batch of N points, one per column, and every operation acts
on each column exactly as it would on that point alone, with the same
floating-point operations in the same order.  Values and extracted
derivatives are floats at S = () and arrays of shape S otherwise.

A vector of jets is one Jet4 whose coefficients have a component axis
after the slots, shape (N_SLOTS[r], m) + S: the position, its gradient and
the frame vectors of `geometry`.  A scalar jet times a vector jet is
broadcast along the components, `products` multiplies listed components
of two vectors and `dots` sums those products in threes, `stack` and
`Jet4.split` turn scalars into a vector and back, and `Jet4.gradient`
gives du() and dv() of a vector at once.

A product picks its form by its width n, its columns (points times
components).  A scalar at a point is one np.bincount over its pairs; up
to `_BINCOUNT_MAX` = 128 columns it is one gather-multiply and one
np.bincount over the bins slot n + column; above, one pass over the
pairs (`_PAIRS`) adds each term, a product of two slot rows, into its
slot of a zero-started array, with a scalar operand broadcast along a
vector's components and listed components (`products`) gathered term by
term.  The pass forms one term at a time, so besides its result it
holds a few rows at any width.  Both forms start each slot at +0.0 and
add its terms in pair order, so a column has its point's bits whatever
the width.  Measured (minimum of timeit repeats on a 2-core shared VM,
Python 3.11.7, numpy 2.4.6), in us per product of two scalar jets, one
bincount against one pass at n = 3, 64, 128, 256: order 1 2.6/13.3,
4.1/13.5, 5.2/14.2, 8.3/14.8; order 2 2.9/22.4, 6.2/23.1, 10.3/23.8,
18.1/26.0; order 3 2.9/39.9, 11.0/40.4, 19.8/40.6, 35.6/43.7; order 4
3.5/69.7, 19.3/71.1, 37.2/71.2, 159.6/74.4.  The pass at n = 1600, 4800
and 16000: order 1 20.7, 26.4, 82.0; order 2 42.5, 60.0, 230.9; order 3
84.5, 142.0, 558.8; order 4 147.8, 276.1, 1191.7.

A derivative operator lowers the valid order by one, and extraction past
it raises.  Binary operations propagate the minimum of the two orders and
read only that order's slots.  A slot depends only on slots of no higher
degree, and a product sums each slot's terms in the same order at every
valid order, so a slot has the same bits whatever order the computation
runs at: the library's outputs read third derivatives of the position and
evaluate at `OUTPUT_ORDER`, and the self-checks that read a fourth at
`MAX_ORDER`.

An elementary function outside its domain (ln or sqrt of a non-positive
value, division by zero, an overflowing series coefficient) raises
JetDomainError at S = ().  With a batch axis it poisons only the columns
concerned, and builds no exception for them: all their coefficients become
NaN, which every later operation keeps, and `finite` tells them apart.

A quotient by a jet is a product with its reciprocal, the series of 1 / x
composed with it.  `1.0 / g` is that reciprocal as it stands, which has
the bits of its product by 1.0 (x * 1.0 is x, NaN and -0.0 included); any
other number scales it.

The elementary functions are the rows of one table, `ELEMENTARY`, which
also gives `JET_FUNCTIONS`, the mpmath functions of `fdoracle` and the
float-function map `FLOATS_FUNCTIONS`: a row's float function on a float,
its array version on `Floats` (Python's float arithmetic on arrays, with a
mask of the entries where the float code raises).  Each row's array
version gives the float function's bits on arrays: a numpy function where
numpy rounds as `math` does (sqrt, sin, cos), else the float function
called entry by entry.  Each row's series coefficients are one code on a
float or on `Floats`, which calls its functions through the map, so a
batch column gets its point's bits.  `sdl.SurfaceProgram.evaluate` runs a
surface's expressions on jets with `JET_FUNCTIONS`, and on floats or
`Floats` (a batch of positions) with the map; `SurfaceProgram.jets` binds
`jet_variables`, seeded at the order it is asked for.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import JetDomainError, JetOrderError

__all__ = [
    "MAX_ORDER", "OUTPUT_ORDER", "MONOMIALS", "MONOMIAL_INDEX", "N_SLOTS",
    "Jet4",
    "jet_variables", "stack", "products", "dots", "where", "finite", "power",
    "hypot", "fold_sum", "pick", "largest", "smallest", "Floats",
    "Elementary",
    "ELEMENTARY",
    "JET_FUNCTIONS", "FLOATS_FUNCTIONS",
    "sqrt", "exp", "ln", "sin", "cos", "tan", "sinh", "cosh",
]

MAX_ORDER = 4
# The order the library's outputs read: the principal frame, its connection
# coefficients and the curvature gradients are third derivatives of the
# position (see `frames.FramePoint`).
OUTPUT_ORDER = 3

# Graded order, u-power descending inside each degree.
MONOMIALS: tuple = tuple(
    (d - j, j) for d in range(MAX_ORDER + 1) for j in range(d + 1)
)
MONOMIAL_INDEX = {m: k for k, m in enumerate(MONOMIALS)}
# Slots of a jet of valid order r: the monomials of degree <= r.
N_SLOTS = tuple((r + 1) * (r + 2) // 2 for r in range(MAX_ORDER + 1))


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


# The width at which a product changes form (measured in the module
# docstring): one np.bincount up to _BINCOUNT_MAX columns (points times
# components), one pass over the pairs above.
_BINCOUNT_MAX = 128


# d/du of a jet of valid order r, one (source slots, factors) table per
# r >= 1: slot (i, j) of the result, of valid order r - 1, is
# (i+1) * c[(i+1, j)], a slot of the r-th prefix.
def _shift_tables(axis: int):
    tables = [None]
    for r in range(1, MAX_ORDER + 1):
        ups = [(i + 1, j) if axis == 0 else (i, j + 1)
               for i, j in MONOMIALS[:N_SLOTS[r - 1]]]
        tables.append((np.array([MONOMIAL_INDEX[up] for up in ups]),
                       np.array([float(up[axis]) for up in ups])))
    return tuple(tables)


_DU = _shift_tables(0)
_DV = _shift_tables(1)
# Both at once, for `Jet4.gradient`: slot k of derivative d (0 = u, 1 = v)
# is c[src[k, d]] * fac[k, d].
_GRAD = (None,) + tuple(
    (np.stack((su, sv), axis=1), np.stack((fu, fv), axis=1))
    for (su, fu), (sv, fv) in zip(_DU[1:], _DV[1:]))

_FACT = np.array([math.factorial(n) for n in range(MAX_ORDER + 1)])


class Jet4:
    """A truncated Taylor jet: `c` holds the N_SLOTS[valid_order] slots up
    to the valid order, with the batch shape S after them, and a vector
    jet a component axis between the two."""
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
        c = np.zeros((N_SLOTS[valid_order],) + getattr(value, "shape", ()))
        c[0] = value
        return Jet4(c, valid_order)

    @staticmethod
    def variable(value, axis: int, valid_order: int) -> "Jet4":
        """Seed jet for the independent variable along `axis` (0 = u, 1 = v),
        of valid order 1 or more; `value` is a number, or an array of
        shape S."""
        jet = Jet4.const(value, valid_order)
        jet.c[1 + axis] = 1.0
        return jet

    # -- access ------------------------------------------------------------

    @property
    def value(self):
        """The value: a float at S = (), else an array of shape S, or of
        the components' shape (m,) + S for a vector jet (a copy, which does
        not keep the jet's coefficients alive)."""
        c = self.c
        return float(c[0]) if c.ndim == 1 else c[0].copy()

    def extract(self, i: int, j: int):
        """Return d^{i+j} f / du^i dv^j (factorials restored)."""
        if i < 0 or j < 0:
            raise JetOrderError(f"negative derivative order ({i}, {j})")
        if i + j > self.valid_order:
            raise JetOrderError(
                f"order ({i}, {j}) exceeds valid order {self.valid_order}")
        d = self.c[MONOMIAL_INDEX[(i, j)]] * _FACT[i] * _FACT[j]
        return float(d) if self.c.ndim == 1 else d

    def cut(self, order: int) -> "Jet4":
        """This jet at a valid order `order` no higher than its own: its
        slots up to that order (a view), which have the same bits."""
        return Jet4(self.c[:N_SLOTS[order]], order)

    def component(self, i: int) -> "Jet4":
        """Component i of a vector jet."""
        return Jet4(self.c[:, i], self.valid_order)

    def split(self, width: int = 1) -> tuple:
        """The components of a vector jet as scalar jets (`stack`'s
        inverse), or its runs of `width` components as vector jets."""
        if width == 1:
            return tuple(Jet4(self.c[:, i], self.valid_order)
                         for i in range(self.c.shape[1]))
        return tuple(Jet4(self.c[:, i:i + width], self.valid_order)
                     for i in range(0, self.c.shape[1], width))

    def gradient(self) -> "Jet4":
        """du() and dv() of a vector jet as one vector jet: the components
        of du() and then those of dv(), from one gather."""
        if self.valid_order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        src, fac = _GRAD[self.valid_order]
        c = self.c
        d = c[src] * fac.reshape(fac.shape + (1,) * (c.ndim - 1))
        return Jet4(d.reshape((len(src), 2 * c.shape[1]) + c.shape[2:]),
                    self.valid_order - 1)

    def du(self) -> "Jet4":
        return _shifted(self, _DU)

    def dv(self) -> "Jet4":
        return _shifted(self, _DV)

    def __repr__(self) -> str:
        return f"Jet4(value={self.c[0]!r}, valid_order={self.valid_order})"

    # -- ring operations ----------------------------------------------------
    # A number operand of + - * may also be an array of shape S (one per
    # point); `/` takes one number.

    def __add__(self, other):
        if isinstance(other, Jet4):
            a, b, order = _common(self, other)
            return Jet4(a + b, order)
        return Jet4(_add_scalar(self.c, other), self.valid_order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet4):
            a, b, order = _common(self, other)
            return Jet4(a - b, order)
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
            if a.ndim == 1 and b.ndim == 1:
                ka, kb, out = _PAIRS[order]
                return Jet4(np.bincount(out, a[ka] * b[kb]), order)
            return Jet4(_product(a, b, order), order)
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
        inv, d = _reciprocal(self), float(other)
        # x * 1.0 is x, to the bits of a NaN and a -0.0
        return inv if d == 1.0 else inv * d

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


def _product(a: np.ndarray, b: np.ndarray, order: int, ia: tuple = None,
             ib: tuple = None) -> np.ndarray:
    """The truncated product of two coefficient arrays at valid order
    `order`: one np.bincount up to `_BINCOUNT_MAX` columns, one pass over
    the pairs above.  A scalar operand of a vector one is broadcast along
    the component axis.  Given component lists ia and ib of two vector
    operands, it is the vector of the products of components ia[j] and
    ib[j] (see `products`), and the pass gathers those components term by
    term.  In both forms each slot starts at +0.0 and adds its terms in
    the order of `_PAIRS`, so each column has the bits of its point's
    product.  The pass is silent, as bincount's adds are: a sum that
    overflows or meets inf - inf gives inf or NaN without a warning."""
    plan = _bincount_plan(order, a.shape[1:], b.shape[1:], ia, ib)
    if plan is not None:
        ga, gb, bins, shape = plan
        return np.bincount(bins, a.ravel()[ga] * b.ravel()[gb]).reshape(shape)
    if ia is not None:
        ia, ib = np.array(ia), np.array(ib)
        shape = (len(ia),) + a.shape[2:]
    else:
        if a.ndim < b.ndim:
            a = a[:, None]
        elif b.ndim < a.ndim:
            b = b[:, None]
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    sums = np.zeros((N_SLOTS[order],) + shape)
    rows, rows_a, rows_b = list(sums), list(a), list(b)
    pairs = zip(*(t.tolist() for t in _PAIRS[order]))
    with np.errstate(over="ignore", invalid="ignore"):
        if ia is None:
            for i, j, k in pairs:
                rows[k] += rows_a[i] * rows_b[j]
        else:
            for i, j, k in pairs:
                rows[k] += rows_a[i][ia] * rows_b[j][ib]
    return sums


@functools.lru_cache(maxsize=256)
def _bincount_plan(order: int, shape_a: tuple, shape_b: tuple, ia: tuple,
                   ib: tuple):
    """The flat gathers, the bins and the result's shape of the one-bincount
    product of operands of the column shapes shape_a and shape_b (and
    component lists ia, ib, or None), or None past `_BINCOUNT_MAX` columns
    or at none.  Term p of result column j is a[ka[p], col_a[j]] *
    b[kb[p], col_b[j]], with the operands' columns raveled, and goes to bin
    out[p] n + j, so the terms reach each bin in pair order."""
    if ia is None:
        # a scalar operand of a vector repeats along the components
        shape = shape_a if len(shape_a) >= len(shape_b) else shape_b
        n = math.prod(shape)
        col_a, col_b = (np.arange(n) % math.prod(sh)
                        for sh in (shape_a, shape_b))
    else:
        shape = (len(ia),) + shape_a[1:]
        n, per = math.prod(shape), math.prod(shape_a[1:])
        col_a, col_b = ((np.array(comps)[:, None] * per
                         + np.arange(per)).ravel() for comps in (ia, ib))
    if not 0 < n <= _BINCOUNT_MAX:
        return None
    ka, kb, out = _PAIRS[order]
    return ((ka[:, None] * math.prod(shape_a) + col_a).ravel(),
            (kb[:, None] * math.prod(shape_b) + col_b).ravel(),
            (out[:, None] * n + np.arange(n)).ravel(),
            (N_SLOTS[order],) + shape)


def _common(a: Jet4, b: Jet4) -> tuple:
    """The coefficients of a and b cut to the slots of the lower valid
    order, and that order.  Operands of one order pass as they are, so an
    operation on them costs no slicing."""
    ca, cb = a.c, b.c
    order = a.valid_order if a.valid_order < b.valid_order else b.valid_order
    if len(ca) != len(cb):
        ca, cb = ca[:N_SLOTS[order]], cb[:N_SLOTS[order]]
    return ca, cb, order


def _shifted(g: Jet4, tables) -> Jet4:
    """d/du or d/dv of g by its order's shift table (`_DU`, `_DV`)."""
    if g.valid_order < 1:
        raise JetOrderError("cannot differentiate an order-0 jet")
    src, fac = tables[g.valid_order]
    c = g.c
    if c.ndim > 1:
        fac = fac.reshape(fac.shape + (1,) * (c.ndim - 1))
    return Jet4(c[src] * fac, g.valid_order - 1)


def _add_scalar(c: np.ndarray, s) -> np.ndarray:
    out = c.copy()
    out[0] += s
    return out


def stack(jets) -> Jet4:
    """The vector jet of scalar jets of one shape S, at their lowest valid
    order: coefficients of shape (slots, len(jets)) + S (a view of one new
    array, which np.stack would build slower)."""
    order = min(j.valid_order for j in jets)
    k = N_SLOTS[order]
    return Jet4(np.array([j.c[:k] for j in jets]).swapaxes(0, 1), order)


def products(a: Jet4, ia: tuple, b: Jet4, ib: tuple) -> Jet4:
    """The vector jet of the products a[ia[j]] * b[ib[j]] of components of
    the vector jets a and b (tuples of component indices): one product,
    which copies no component in a wide batch."""
    order = a.valid_order if a.valid_order < b.valid_order else b.valid_order
    return Jet4(_product(a.c, b.c, order, ia, ib), order)


def dots(a: Jet4, ia: tuple, b: Jet4, ib: tuple) -> Jet4:
    """The vector jet of the sums, left to right, of each run of three
    products of `products(a, ia, b, ib)`: the dot products of listed
    components.  Past `_BINCOUNT_MAX` columns it takes one run at a time,
    so that a batch holds no more products than the run's three."""
    order = a.valid_order if a.valid_order < b.valid_order else b.valid_order
    if len(ia) * a.c[0, 0].size <= _BINCOUNT_MAX:
        p = _product(a.c, b.c, order, ia, ib)
        return Jet4(p[:, 0::3] + p[:, 1::3] + p[:, 2::3], order)
    sums = []
    for j in range(0, len(ia), 3):
        p = _product(a.c, b.c, order, ia[j:j + 3], ib[j:j + 3])
        sums.append(p[:, 0::3] + p[:, 1::3] + p[:, 2::3])
    return Jet4(sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1),
                order)


def where(mask, a: Jet4, b: Jet4) -> Jet4:
    """Per point: `a` where `mask` holds, else `b` (mask has shape S); the
    valid order is the lower of the two."""
    ca, cb, order = _common(a, b)
    point = not isinstance(mask, np.ndarray) or mask.ndim == 0
    return Jet4((ca if mask else cb) if point else np.where(mask, ca, cb),
                order)


def _compose(g: Jet4, series) -> Jet4:
    """Evaluate sum_k series[k] * (g - g.value)^k by Horner.  `series`
    holds five numbers, or five arrays of shape S.  (g - g.value)^k starts
    at degree k, so at valid order r Horner starts from series[r] and forms
    r - 1 products (none below order 2): each term it leaves out reaches a
    stored slot only as a product with the zero value slot of g - g.value,
    and sums start at +0.0, so wherever Horner over all five terms is
    finite this one has its bits.  Where a left-out term is inf or NaN (a
    non-finite series[k] for k > r, or a product of one that overflows) the
    five-term Horner gets NaN from that zero; this one does not form it.

    At order 1 Horner is its first step and the constant: slots 1 and 2
    are series[1] * g's plus +0.0, slot 0 is series[1] * 0.0 + 0.0 +
    series[0], the same operations without the copy of g - g.value."""
    r = g.valid_order
    if r == 0:
        acc = Jet4(np.zeros_like(g.c), 0)
    elif r == 1:
        acc = Jet4(series[1] * g.c + 0.0, 1)
        acc.c[0] = series[1] * 0.0 + 0.0
    else:
        gh = Jet4(g.c.copy(), r)
        gh.c[0] = 0.0
        # The first step, series[r] * gh, is a scaled copy: the one nonzero
        # term of each slot of the product with the constant jet series[r].
        # Adding +0.0 turns the copy's -0.0 into the product's +0.0.  Where
        # gh holds inf or NaN the product has NaN in more slots; the result
        # is non-finite either way, with the same slot 0.
        acc = Jet4(series[r] * gh.c, r)
        acc.c += 0.0
        for k in range(r - 1, 0, -1):
            acc.c[0] += series[k]
            acc = acc * gh
    acc.c[0] += series[0]
    return acc


# -- Python's float arithmetic on arrays --------------------------------------
# On float64 arrays numpy's + - * / and `float_power` (the libm pow that
# Python's ** calls) give Python's bits, and so do np.sqrt, np.sin and
# np.cos; tests/test_jet.py asserts the functions over 10^6 inputs, so a
# numpy that rounds them differently fails there.  What numpy does not give
# is Python's verdict: where the float code raises, numpy returns inf or NaN,
# or a number (pow(nan, 0) and pow(1, nan) are 1).  `Floats` carries that
# verdict as a mask through every operation.

class Floats:
    """Python's float arithmetic on an array of shape S: `value` holds at
    each entry the bits of the float code at that entry, and `failed` marks
    the entries where the float code raises (their values mean nothing).
    The operators take Floats and numbers.  `/` fails where the divisor is
    0; `**` fails where finite operands give a non-finite power (an
    overflow, 0 to a negative power, a negative base to a non-integer one);
    + - * never fail.  Run under `np.errstate(all="ignore")`."""
    __slots__ = ("value", "failed")
    # numpy defers to the reflected operators: array * Floats is __rmul__
    __array_ufunc__ = None

    def __init__(self, value, failed=False):
        self.value = value
        self.failed = failed

    def failing(self, mask) -> "Floats":
        """These values, failing also where `mask` holds (a domain guard)."""
        return Floats(self.value, self.failed | mask)

    def map(self, array_fn) -> "Floats":
        """An `Elementary.array_fn` applied entry by entry."""
        value, failed = array_fn(self.value)
        return Floats(value, self.failed | failed)

    def __neg__(self):
        return Floats(-self.value, self.failed)

    def __add__(self, other):
        return _binary(np.add, self, other)

    def __radd__(self, other):
        return _binary(np.add, other, self)

    def __sub__(self, other):
        return _binary(np.subtract, self, other)

    def __rsub__(self, other):
        return _binary(np.subtract, other, self)

    def __mul__(self, other):
        return _binary(np.multiply, self, other)

    def __rmul__(self, other):
        return _binary(np.multiply, other, self)

    def __truediv__(self, other):
        return _binary(np.divide, self, other, _zero_divisor)

    def __rtruediv__(self, other):
        return _binary(np.divide, other, self, _zero_divisor)

    def __pow__(self, other):
        return _binary(np.float_power, self, other, _non_finite_power)

    def __rpow__(self, other):
        return _binary(np.float_power, other, self, _non_finite_power)


def _binary(op, a, b, fails=None) -> Floats:
    x, fa = (a.value, a.failed) if isinstance(a, Floats) else (a, False)
    y, fb = (b.value, b.failed) if isinstance(b, Floats) else (b, False)
    out = op(x, y)
    failed = fa | fb
    return Floats(out, failed if fails is None else failed | fails(x, y, out))


def _zero_divisor(x, y, out):
    return y == 0       # ZeroDivisionError


def _non_finite_power(x, y, out):
    return np.isfinite(x) & np.isfinite(y) & ~np.isfinite(out)


def _native(ufunc):
    """The array function of a numpy ufunc with math's bits.  Its verdict is
    CPython's rule for the one-argument math functions: they raise where a
    non-NaN argument gives NaN or a finite one an infinity."""
    def array_fn(x):
        y = ufunc(x)
        return y, (np.isnan(y) & ~np.isnan(x)) | (np.isinf(y) & np.isfinite(x))
    return array_fn


def _per_entry(float_fn, ufunc):
    """The array function that calls the float function entry by entry,
    where numpy's `ufunc` rounds differently.  The verdict is `ufunc`'s by
    CPython's rule (see `_native`), so `float_fn` is only called where it
    returns and no exception is built; a failed entry holds NaN."""
    verdict = _native(ufunc)
    call = np.frompyfunc(float_fn, 1, 1)

    def array_fn(x):
        failed = verdict(x)[1]
        y = call(np.where(failed, 1.0, x)).astype(float)
        y[failed] = math.nan
        return y, failed
    return array_fn


# -- series coefficients -----------------------------------------------------
# Each function's five Taylor coefficients at a value g0, written once for a
# float (one point) and for the `Floats` of a batch's values.  They reach
# their row's functions through the float-function map (`_SQRT` ... bound
# below), which calls the float function on a float and the array function
# on `Floats`, so a point runs Python's float operations and each column of
# a batch the same operations, with their bits and their verdict.  Outside
# the domain the float code raises and the column fails: at a division by
# zero or an overflow, and where `_positive` guards sqrt, ln and x ** p.
# tests/test_jet.py runs every series at both shapes over 10^6 values and
# the edges, and checks its coefficients against mpmath's.

def _positive(g0):
    """g0 on the domain x > 0 of sqrt, ln and x ** p (a negative float base
    would give a complex power): a float outside it raises ValueError, and
    `Floats` fail there."""
    if isinstance(g0, Floats):
        return g0.failing(g0.value <= 0.0)
    if g0 <= 0.0:
        raise ValueError(f"{g0!r} is not positive")
    return g0


def _series(series: Callable, g: Jet4, name: str):
    """The series coefficients at the value of g.  At S = () a value where
    the float code raises (outside the domain, or an overflow) raises
    JetDomainError.  With a batch axis the code runs on all columns at
    once, and a column where the float code would raise gets NaN
    coefficients."""
    if g.c.ndim == 1:
        try:
            return series(g.value)
        except (ArithmeticError, ValueError):
            raise JetDomainError(
                f"{name} undefined at value {g.value} in jet") from None
    g0 = g.c[0]
    with np.errstate(all="ignore"):
        terms = series(Floats(g0, np.zeros(g0.shape, dtype=bool)))
    coeffs = np.array([t.value for t in terms])
    coeffs[:, np.logical_or.reduce([t.failed for t in terms])] = math.nan
    return coeffs


def _reciprocal_series(g0) -> list:
    inv = 1.0 / g0
    return [inv, -inv**2, inv**3, -inv**4, inv**5]


def _reciprocal(g: Jet4) -> Jet4:
    return _compose(g, _series(_reciprocal_series, g, "1 / x"))


def _int_pow(g: Jet4, n: int) -> Jet4:
    """g ** n by squaring: the chain of products from the constant one at
    n = 1, where 1 * g writes g's -0.0 slots as +0.0, and from its first
    factor f at n >= 2.  A product's sums start at +0.0, so 1 * f differs
    from a finite f at most in the sign of a zero slot: f has none where
    it is a product, and where it is g (odd n) the product that follows
    drops it.  Where f has an inf or NaN slot, 1 * f adds NaN (0 * inf) to
    the slots above it, so a result that is not finite everywhere is
    formed again from the one."""
    if n < 0:
        return _int_pow(_reciprocal(g), -n)
    if n >= 2:
        result = _power_chain(g, n, None)
        if np.isfinite(result.c).all():
            return result
    one = Jet4.const(np.ones(g.c.shape[1:]), g.valid_order)
    if n == 0:
        # 1, except where the base is already undefined
        one.c[..., np.isnan(g.c[0])] = math.nan
        return one
    return _power_chain(g, n, one)


def _power_chain(base: Jet4, n: int, result: Optional[Jet4]) -> Jet4:
    """result * base ** n by squaring, n >= 1; a `result` of None stands
    for the constant one and is left out of the first product."""
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _power_series(p: float) -> Callable:
    """The series of x ** p for a non-integer p."""
    def series(g0) -> list:
        g0 = _positive(g0)
        terms = []
        coeff = 1.0
        for k in range(MAX_ORDER + 1):
            terms.append(coeff * g0 ** (p - k))
            coeff *= (p - k) / (k + 1)
        return terms
    return series


def _real_pow(g: Jet4, p: float) -> Jet4:
    return _compose(g, _series(_power_series(p), g, "non-integer power"))


def _sqrt_series(g0) -> list:
    g0 = _positive(g0)
    r = _SQRT(g0)
    return [r, r / (2 * g0), -r / (8 * g0**2),
            r / (16 * g0**3), -5 * r / (128 * g0**4)]


def _exp_series(g0) -> list:
    e0 = _EXP(g0)
    return [e0, e0, e0 / 2, e0 / 6, e0 / 24]


def _ln_series(g0) -> list:
    g0 = _positive(g0)
    return [_LN(g0), 1 / g0, -1 / (2 * g0**2),
            1 / (3 * g0**3), -1 / (4 * g0**4)]


def _sin_series(g0) -> list:
    s, c = _SIN(g0), _COS(g0)
    return [s, c, -s / 2, -c / 6, s / 24]


def _cos_series(g0) -> list:
    s, c = _SIN(g0), _COS(g0)
    return [c, -s, -c / 2, s / 6, c / 24]


def _sinh_series(g0) -> list:
    s, c = _SINH(g0), _COSH(g0)
    return [s, c, s / 2, c / 6, s / 24]


def _cosh_series(g0) -> list:
    s, c = _SINH(g0), _COSH(g0)
    return [c, s, c / 2, s / 6, c / 24]


# -- elementary functions ----------------------------------------------------

class Elementary(NamedTuple):
    """A function of the surface language: its name there, its float
    version, its array version (`array_fn(x)` gives the float version's
    bits entry by entry and the mask of entries where it raises), its
    series coefficients at a float or `Floats` value (None for tan, which
    is sin / cos on jets) and the name of its mpmath version."""
    name: str
    float_fn: Callable[[float], float]
    array_fn: Callable[[np.ndarray], tuple]
    series: Optional[Callable]
    mp_name: str


ELEMENTARY = (
    Elementary("sqrt", math.sqrt, _native(np.sqrt), _sqrt_series, "sqrt"),
    Elementary("exp", math.exp, _per_entry(math.exp, np.exp), _exp_series,
               "exp"),
    Elementary("ln", math.log, _per_entry(math.log, np.log), _ln_series,
               "log"),
    Elementary("sin", math.sin, _native(np.sin), _sin_series, "sin"),
    Elementary("cos", math.cos, _native(np.cos), _cos_series, "cos"),
    Elementary("tan", math.tan, _per_entry(math.tan, np.tan), None, "tan"),
    Elementary("sinh", math.sinh, _per_entry(math.sinh, np.sinh),
               _sinh_series, "sinh"),
    Elementary("cosh", math.cosh, _per_entry(math.cosh, np.cosh),
               _cosh_series, "cosh"),
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


def _floats_function(f: Elementary) -> Callable:
    """`f` on `Floats` (its array version) or on a plain number (its float
    version, which raises outside its domain)."""
    float_fn, array_fn = f.float_fn, f.array_fn

    def fn(x):
        return x.map(array_fn) if isinstance(x, Floats) else float_fn(x)
    fn.__name__ = fn.__qualname__ = f.name
    return fn


JET_FUNCTIONS = {f.name: _jet_function(f) for f in ELEMENTARY}
FLOATS_FUNCTIONS = {f.name: _floats_function(f) for f in ELEMENTARY}
sqrt, exp, ln, sin, cos, tan, sinh, cosh = (
    JET_FUNCTIONS[name]
    for name in ("sqrt", "exp", "ln", "sin", "cos", "tan", "sinh", "cosh"))
# the series' functions, bound once rather than looked up per call
_SQRT, _EXP, _LN, _SIN, _COS, _SINH, _COSH = (
    FLOATS_FUNCTIONS[name]
    for name in ("sqrt", "exp", "ln", "sin", "cos", "sinh", "cosh"))


def finite(values):
    """Whether every number and jet coefficient in `values` is finite: a
    bool, or with a batch axis a bool array with one entry per point."""
    ok = True
    for x in values:
        ok = ok & (np.isfinite(x.c).all(axis=0) if isinstance(x, Jet4)
                   else math.isfinite(x))
    return ok


# -- values at either shape ----------------------------------------------
# A formula on point values (floats at S = (), arrays of shape S) is written
# once.  Arithmetic and abs give the same bits at both shapes; these helpers
# give Python's bits in a batch too, and turn an `if` into a mask.  A float
# is tested first, which is the cheap test and the one a point passes.

def power(x, n):
    """x ** n; in a batch `np.float_power`, the libm pow that Python calls
    (array ``**`` multiplies instead, and can differ in the last bit).  At
    a float where ``**`` raises OverflowError, np.float_power's +-inf, as a
    batch column gets, without a warning."""
    if isinstance(x, float):
        try:
            return x ** n
        except OverflowError:
            with np.errstate(over="ignore"):
                return float(np.float_power(x, n))
    return np.float_power(x, n)


def hypot(a, b):
    """math.hypot(a, b), with its bits point by point in a batch too
    (np.hypot rounds otherwise).  On arrays, the two-argument case of
    CPython's `vector_norm` (Modules/mathmodule.c) op for op: |a| and |b|
    are scaled by 2^-e, e the binary exponent of the larger one (frexp),
    which is exact; each is squared exactly by Dekker's product and added
    to 1 by a fast two-sum, the low parts summed apart; h is the square
    root of the sum less 1, corrected once by its residual, h += x / (2h),
    and unscaled.  The entries where both are zero, either is not finite,
    or e lies outside -1023..1023 (2^-e or h / 2^-e would overflow) go to
    math.hypot itself, one call each."""
    if isinstance(a, float) and isinstance(b, float):
        return math.hypot(a, b)
    x, y = np.broadcast_arrays(np.abs(np.asarray(a, dtype=float)),
                               np.abs(np.asarray(b, dtype=float)))
    big = np.maximum(x, y)
    e = np.frexp(big)[1]
    slow = ~np.isfinite(big) | (big == 0.0) | (np.abs(e) > 1023)
    scale = np.ldexp(1.0, np.where(slow, 0, -e))
    with np.errstate(all="ignore"):
        hi, frac1 = _square(x * scale)
        csum, frac2 = _fast_two_sum(1.0, hi)
        hi, lo = _square(y * scale)
        csum, low = _fast_two_sum(csum, hi)
        frac1, frac2 = frac1 + lo, frac2 + low
        h = np.sqrt(csum - 1.0 + (frac1 + frac2))
        # (-h) * h is -(h * h), to the bits of both parts
        hi, lo = _square(h)
        csum, low = _fast_two_sum(csum, -hi)
        frac1, frac2 = frac1 - lo, frac2 + low
        h = np.asarray((h + (csum - 1.0 + (frac1 + frac2)) / (2.0 * h))
                       / scale)
    if slow.any():
        h[slow] = list(map(math.hypot, x[slow].tolist(), y[slow].tolist()))
    return h


def fold_sum(values):
    """The sum of `values` (an array, or a list of floats) along their
    last axis, which is not empty, as a left-to-right fold of + from the
    integer 0.  It is the one way the library sums floats that reach a
    file: the report summary's means, and the export's cell diagonals and
    segment length.  It is np.cumsum's last entry, which adds in order,
    plus 0.0, which writes a sum of -0.0s as 0.0, as the fold from 0 does;
    silent where the sum overflows, as float + is.  Any other sum can move
    the bits: np.sum adds pairwise, `@` and np.linalg run the BLAS kernel
    that OpenBLAS picks for the CPU (or by OPENBLAS_CORETYPE), and the
    builtin sum compensates since Python 3.12."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(values, axis=-1)[..., -1] + 0.0


# Veltkamp's splitting constant 2^27 + 1: x * _SPLIT splits a double's 53
# bits into two halves of at most 26 bits, whose products are exact.
_SPLIT = 134217729.0


def _square(x):
    """Dekker's exact square: (p, r) with p + r = x * x exactly."""
    t = x * _SPLIT
    hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = hi * lo * 2.0
    s = p + q
    return s, p - s + q + lo * lo


def _fast_two_sum(a, b):
    """(s, r) with s + r = a + b exactly, where |a| >= |b|."""
    s = a + b
    return s, (a - s) + b


def pick(mask, a, b):
    """`a` if `mask` holds, else `b`: by `if` at S = (), by `np.where` in a
    batch, where a tuple choice is one object per point."""
    if isinstance(mask, bool) or not isinstance(mask, np.ndarray):
        return a if mask else b
    return np.where(mask, *map(_choice, (a, b)))


def _choice(x):
    if not isinstance(x, tuple):
        return x
    box = np.empty((), dtype=object)
    box[()] = x
    return box


def largest(a, b):
    """max(a, b), point by point in a batch: `a` unless `b` is greater."""
    if isinstance(a, float) and isinstance(b, float):
        return b if b > a else a
    return np.where(b > a, b, a)


def smallest(a, b):
    """min(a, b), point by point in a batch: `a` unless `b` is less."""
    if isinstance(a, float) and isinstance(b, float):
        return b if b < a else a
    return np.where(b < a, b, a)


def jet_variables(u, v, order: int):
    """The seed jets of u and v at valid order `order`: numbers, or arrays
    of shape S."""
    return (Jet4.variable(u, 0, order), Jet4.variable(v, 1, order))
