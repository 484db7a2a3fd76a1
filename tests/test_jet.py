"""Order-4 bivariate jet arithmetic."""
import functools
import math
import operator
import warnings

import numpy as np
import pytest

import focalnet.jet as jt
from focalnet.errors import JetDomainError, JetOrderError
from focalnet.geometry import vcomb, vcross, vdot


def _vars(u, v):
    return jt.jet_variables(u, v, jt.MAX_ORDER)


def test_polynomial_jets_are_exact():
    u, v = _vars(0.7, -0.4)
    f = 3.0 * u * u * v - 2.0 * u + v * v * v * v + 5.0
    assert f.value == pytest.approx(3 * 0.7**2 * -0.4 - 2 * 0.7 + 0.4**4 + 5,
                                    abs=1e-14)
    assert f.extract(2, 1) == pytest.approx(6.0, abs=1e-13)
    assert f.extract(1, 0) == pytest.approx(6 * 0.7 * -0.4 - 2, abs=1e-13)
    assert f.extract(0, 4) == pytest.approx(24.0, abs=1e-12)
    assert f.extract(3, 0) == 0.0
    assert f.extract(2, 2) == 0.0


def test_quotient_and_power_match_closed_forms():
    u, v = _vars(0.3, 0.9)
    f = (1.0 + u * u) ** 1.5 / (2.0 + v)
    # d/du: 3u sqrt(1+u^2) / (2+v)
    expect_du = 3 * 0.3 * math.sqrt(1 + 0.09) / 2.9
    assert f.extract(1, 0) == pytest.approx(expect_du, rel=1e-14)
    # d/dv: -(1+u^2)^1.5 / (2+v)^2
    expect_dv = -(1.09 ** 1.5) / 2.9**2
    assert f.extract(0, 1) == pytest.approx(expect_dv, rel=1e-14)


def test_transcendental_chain():
    u, v = _vars(0.5, 0.2)
    f = jt.exp(jt.sin(u) * jt.cos(v)) + jt.ln(2.0 + jt.sqrt(1.0 + u * v))
    g = math.exp(math.sin(0.5) * math.cos(0.2)) \
        + math.log(2.0 + math.sqrt(1.1))
    assert f.value == pytest.approx(g, rel=1e-15)
    # d/du of exp(sin u cos v) = cos u cos v exp(...)
    term1 = math.cos(0.5) * math.cos(0.2) * math.exp(
        math.sin(0.5) * math.cos(0.2))
    term2 = 0.2 / (2 * math.sqrt(1.1) * (2.0 + math.sqrt(1.1)))
    assert f.extract(1, 0) == pytest.approx(term1 + term2, rel=1e-13)


def test_mixed_partials_of_product_rule():
    u, v = _vars(1.1, -0.6)
    f = jt.sinh(u / 2.0) * jt.cosh(v / 3.0)
    got = f.extract(2, 2)
    expect = (math.sinh(0.55) / 4.0) * (math.cosh(-0.2) / 9.0)
    assert got == pytest.approx(expect, rel=1e-13)


def test_tan_vs_sin_over_cos():
    u, v = _vars(0.4, 0.0)
    a, b = jt.tan(u + v), jt.sin(u + v) / jt.cos(u + v)
    assert np.allclose(a.c, b.c, rtol=1e-14, atol=1e-16)


def test_derivative_shift_consistent_with_extract():
    u, v = _vars(0.25, 0.75)
    f = jt.sin(u * v) + u ** 3
    fu = f.du()
    assert fu.valid_order == f.valid_order - 1
    for i, j in ((0, 0), (1, 0), (0, 2), (2, 1)):
        assert fu.extract(i, j) == pytest.approx(f.extract(i + 1, j),
                                                 rel=1e-13, abs=1e-13)
    fv = f.dv()
    for i, j in ((0, 0), (1, 1), (3, 0)):
        assert fv.extract(i, j) == pytest.approx(f.extract(i, j + 1),
                                                 rel=1e-13, abs=1e-13)


def test_truncation_order_tracking():
    u, v = _vars(0.1, 0.2)
    f = jt.sin(u) + v
    g = f.du().dv()          # two derivatives: order 2 remains
    assert g.valid_order == 2
    g.extract(1, 1)          # still valid
    with pytest.raises(JetOrderError):
        g.extract(2, 1)
    with pytest.raises(JetOrderError):
        f.extract(5, 0)


def test_domain_errors():
    u, _ = _vars(0.0, 0.0)
    with pytest.raises(JetDomainError):
        jt.ln(u)                      # ln(0)
    with pytest.raises(JetDomainError):
        jt.sqrt(u - 1.0)              # sqrt(-1)
    with pytest.raises(JetDomainError):
        1.0 / u                       # 1/0
    with pytest.raises(JetDomainError):
        (u - 2.0) ** 0.5
    for fn, x in ((jt.ln, 0.0), (jt.sqrt, -1.0), (jt.exp, 1e3)):
        with pytest.raises(JetDomainError):
            fn(x)                     # plain numbers fail the same way


def test_scalar_interop():
    u, v = _vars(2.0, 3.0)
    f = 2.0 + u
    g = u + 2.0
    assert np.allclose(f.c, g.c)
    h = 3.0 - v
    assert h.value == 0.0
    assert h.extract(0, 1) == -1.0
    r = 5.0 / (1.0 + u)
    assert r.value == pytest.approx(5.0 / 3.0, rel=1e-15)
    p = 2.0 ** u
    assert p.extract(1, 0) == pytest.approx(4.0 * math.log(2.0), rel=1e-14)


def test_integer_power_negative_base_allowed():
    u, _ = _vars(-1.5, 0.0)
    f = u ** 3
    assert f.value == pytest.approx(-3.375, rel=1e-15)
    assert f.extract(1, 0) == pytest.approx(3 * 1.5**2, rel=1e-15)


def test_jet_exponent_and_zero_power():
    """u ^ v is exp(v ln u); g ^ 0 is 1, except in a column where the base
    is already undefined."""
    u, v = _vars(1.5, 0.7)
    f = u ** v
    assert f.value == pytest.approx(1.5 ** 0.7, rel=1e-15)
    assert f.extract(1, 0) == pytest.approx(0.7 * 1.5 ** -0.3, rel=1e-14)
    assert f.extract(0, 1) == pytest.approx(1.5 ** 0.7 * math.log(1.5),
                                            rel=1e-14)
    one = u ** 0
    assert one.value == 1.0 and not one.c[1:].any()
    x, _ = jt.jet_variables(np.array([0.5, -1.0]), np.zeros(2),
                            jt.MAX_ORDER)
    out = jt.ln(x) ** 0
    assert out.c[0, 0] == 1.0 and not out.c[1:, 0].any()
    assert np.isnan(out.c[:, 1]).all()


# The slots of a jet of valid order 4 (15), and the full truncated
# convolution: every monomial pair of total degree <= 4.
_SLOTS = jt.N_SLOTS[jt.MAX_ORDER]
_FULL_PAIRS = [(ka, kb, jt.MONOMIAL_INDEX[(pa + pb, qa + qb)])
               for ka, (pa, qa) in enumerate(jt.MONOMIALS)
               for kb, (pb, qb) in enumerate(jt.MONOMIALS)
               if pa + pb + qa + qb <= jt.MAX_ORDER]


def _full_product(a, b):
    ka, kb, out = (np.array(col) for col in zip(*_FULL_PAIRS))
    return np.bincount(out, weights=a[ka] * b[kb], minlength=_SLOTS)


_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-308, 1.7e308,
                   -1.7e308, math.nan, math.inf, -math.inf])


def _edge_coeffs(rng, shape, edge_frac):
    """Coefficients of shape (15,) + shape.  Each column has its own scale,
    10^-160 to 10^160, so that products underflow, overflow, or sum finite
    terms past the largest float; a fraction `edge_frac` of the entries are
    edges: signed zeros, subnormals, the largest floats, NaN and +-inf."""
    size = (_SLOTS,) + shape
    scale = rng.uniform(-160, 160, shape) + rng.uniform(-2, 2, size)
    c = rng.normal(size=size) * 10.0 ** scale
    edge = rng.random(size) < edge_frac
    c[edge] = rng.choice(_EDGES, edge.sum())
    return c


def _same_bits(got, want) -> bool:
    """Equal in shape and bit for bit, NaN signs included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_products_match_the_full_convolution_bitwise():
    """A jet stores the slots up to its valid order and no more.  A product
    computes them from that order's pairs alone; they equal the 70-pair
    convolution of the full coefficients (whatever the slots above the
    operands' orders held) bit for bit in every column, at S = () and in
    batches of 0, 7 and 1600 points and of 3 x 5 points, over columns with
    signed zeros, subnormals, sums that overflow, NaN and +-inf.  A sum, a
    difference, a `where` and the derivatives of operands of unequal
    orders keep their order's slots."""
    rng = np.random.default_rng(3)
    for shape in ((0,), (7,), (1600,), (3, 5)):
        for ra in range(jt.MAX_ORDER + 1):
            for rb in range(jt.MAX_ORDER + 1):
                full_a = _edge_coeffs(rng, shape, 0.1)
                full_b = _edge_coeffs(rng, shape, 0.1)
                a = jt.Jet4(full_a[:jt.N_SLOTS[ra]], ra)
                b = jt.Jet4(full_b[:jt.N_SLOTS[rb]], rb)
                order = min(ra, rb)
                kept = (order + 1) * (order + 2) // 2
                assert jt.N_SLOTS[order] == kept
                with np.errstate(all="ignore"):
                    batch = a * b
                    mask = rng.random(shape) < 0.5
                    for op, want in (
                            (a + b, full_a[:kept] + full_b[:kept]),
                            (a - b, full_a[:kept] - full_b[:kept]),
                            (jt.where(mask, a, b),
                             np.where(mask, full_a[:kept], full_b[:kept]))):
                        assert op.valid_order == order
                        assert _same_bits(op.c, want)
                    for d in (a.du(), a.dv()) if ra else ():
                        assert d.valid_order == ra - 1
                        assert d.c.shape == (jt.N_SLOTS[ra - 1],) + shape
                assert batch.valid_order == order
                assert batch.c.shape == (kept,) + shape
                for i in np.ndindex(shape):
                    col = (slice(None),) + i
                    with np.errstate(all="ignore"):
                        want = _full_product(full_a[col], full_b[col])[:kept]
                        one = (jt.Jet4(a.c[col].copy(), ra)
                               * jt.Jet4(b.c[col].copy(), rb))
                    assert one.valid_order == order
                    assert one.c.tobytes() == want.tobytes()
                    assert _same_bits(batch.c[col], want)


def test_batch_products_add_without_warnings():
    """A batch product adds its terms as silently as the one-point product
    (bincount): finite terms whose sum overflows give inf, and inf + -inf
    gives NaN, with no warning even where warnings are errors."""
    big = np.full((_SLOTS, 3), 1e154)
    clash = np.zeros((_SLOTS, 3))
    clash[:2] = [[math.inf], [-math.inf]]
    ones = np.ones((_SLOTS, 3))
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        overflow = (jt.Jet4(big) * jt.Jet4(big)).c
        nan = (jt.Jet4(clash) * jt.Jet4(ones)).c
        for a, b, got in ((big, big, overflow), (clash, ones, nan)):
            for i in range(3):
                want = _full_product(a[:, i], b[:, i])
                assert _same_bits(got[:, i], want)
    # every slot past the value sums two or more terms of 1e308
    assert (overflow[0] == 1e308).all() and np.isposinf(overflow[1:]).all()
    assert np.isnan(nan[1]).all()      # slot (1, 0): inf * 1 + -inf * 1


# Widths around each form of a product: a point's, the crossover from one
# bincount to the pass over the pairs, and wide batches: 1000 columns, a
# 40x40 grid's 1600 and three times that, and 16000.
_WIDTHS = (1, 3, jt._BINCOUNT_MAX - 1, jt._BINCOUNT_MAX,
           jt._BINCOUNT_MAX + 1, 1000, 1600, 4800, 16000)


def test_products_give_the_point_bits_at_every_width():
    """A product over n columns, in the form its width picks (one bincount
    up to `_BINCOUNT_MAX` columns, one pass over the pairs above), gives
    each column its point's product bit for bit at orders 0-4 and n = 1,
    3, the crossover +- 1, 1000, 1600, 4800 and 16000, over columns with
    signed zeros, NaN and +-inf.  So do a scalar times a vector of three
    components and a vector times a scalar, each column against its
    component's point product, and `jt.products` of listed components."""
    rng = np.random.default_rng(11)
    for n in _WIDTHS:
        for order in range(jt.MAX_ORDER + 1):
            k = jt.N_SLOTS[order]
            a, b = (_edge_coeffs(rng, (n,), 0.1)[:k] for _ in range(2))
            with np.errstate(all="ignore"):
                got = (jt.Jet4(a, order) * jt.Jet4(b, order)).c
                for j in range(n):
                    want = (jt.Jet4(a[:, j].copy(), order)
                            * jt.Jet4(b[:, j].copy(), order)).c
                    assert _same_bits(got[:, j], want), (n, order, j)
    for points in (1, 42, 43, 44, 1000, 1600, 16000):
        order = jt.OUTPUT_ORDER
        k = jt.N_SLOTS[order]
        s = _edge_coeffs(rng, (points,), 0.1)[:k]
        vec, other = (_edge_coeffs(rng, (3, points), 0.1)[:k]
                      for _ in range(2))
        comps_a, comps_b = (1, 2, 0, 2), (2, 0, 1, 1)
        with np.errstate(all="ignore"):
            scaled = (jt.Jet4(s, order) * jt.Jet4(vec, order)).c
            scaling = (jt.Jet4(vec, order) * jt.Jet4(s, order)).c
            taken = jt.products(jt.Jet4(vec, order), comps_a,
                                jt.Jet4(other, order), comps_b).c
            point = lambda x, y: (jt.Jet4(x.copy(), order)
                                  * jt.Jet4(y.copy(), order)).c
            for p in range(points):
                for i in range(3):
                    assert _same_bits(scaled[:, i, p],
                                      point(s[:, p], vec[:, i, p]))
                    assert _same_bits(scaling[:, i, p],
                                      point(vec[:, i, p], s[:, p]))
                for j, (i, m) in enumerate(zip(comps_a, comps_b)):
                    assert _same_bits(taken[:, j, p],
                                      point(vec[:, i, p], other[:, m, p]))


def test_vector_helpers_match_their_component_formulas():
    """vdot, vcross and vcomb of vector jets equal their formulas on the
    component jets bit for bit, and `gradient` equals du() and dv(), at a
    point and in batches of 5 and 1600 points, over coefficients with
    signed zeros, NaN and +-inf, operands of two valid orders."""
    rng = np.random.default_rng(5)
    for shape in ((), (5,), (1600,)):
        coeffs = lambda size: _edge_coeffs(rng, size + shape, 0.05)
        a = jt.Jet4(coeffs((3,))[:jt.N_SLOTS[3]], 3)
        b = jt.Jet4(coeffs((3,))[:jt.N_SLOTS[2]], 2)
        s = jt.Jet4(coeffs(())[:jt.N_SLOTS[2]], 2)
        t = jt.Jet4(coeffs(())[:jt.N_SLOTS[3]], 3)
        x, y = a.split(), b.split()
        with np.errstate(all="ignore"):
            cases = (
                (vdot(a, b), x[0] * y[0] + x[1] * y[1] + x[2] * y[2]),
                (vcross(a, b), jt.stack([x[1] * y[2] - x[2] * y[1],
                                         x[2] * y[0] - x[0] * y[2],
                                         x[0] * y[1] - x[1] * y[0]])),
                (vcomb(s, a, t, b), jt.stack([s * x[i] + t * y[i]
                                              for i in range(3)])),
                (a.gradient(), jt.Jet4(np.concatenate(
                    [a.du().c, a.dv().c], axis=1), 2)))
        for got, want in cases:
            assert got.valid_order == want.valid_order
            assert got.c.shape == want.c.shape
            assert got.c.tobytes() == want.c.tobytes(), shape


def _compose_by_products(g, series, order, top=jt.MAX_ORDER):
    """Horner by products on the full slots of one column, from the zero
    jet: series[top], ..., series[0] each added after a product with
    g - g.value; the slots above `order` are zero.  top = 4 gives all five
    terms, top = order the ones that start at a stored degree."""
    kept = (order + 1) * (order + 2) // 2
    gh = g.copy()
    gh[0] = 0.0
    acc = np.zeros(_SLOTS)
    for k in range(top, -1, -1):
        acc = _full_product(acc, gh)
        acc[kept:] = 0.0
        acc[0] += series[k]
    return acc


def test_compose_starts_from_the_scaled_series_bitwise():
    """`_compose` at valid order r starts Horner from the scaled copy
    series[r] * (g - g.value), not from a product with a constant jet, and
    leaves out the terms k > r.  Per column, at every valid order 0-4, at
    S = () and in a batch, over columns with signed zeros, subnormals,
    overflows, NaN and +-inf: the result stores the slots up to the valid
    order, and against Horner by products from series[r] slot 0 has the same
    bits, a column is finite exactly where that reference's is, and then
    has all its bits.  Against the full five-term Horner a column has all
    its bits wherever that one is finite (at least the half of the columns
    with normal inputs); below order 4 it is finite in more columns, where
    a left-out term is inf or NaN or overflows (the five-term Horner
    multiplies it by the zero value slot).  A point fails where its surface
    jet is not finite and otherwise on values (slot 0), so every poisoned
    column keeps its failure class."""
    rng = np.random.default_rng(17)
    n = 1600
    for order in range(jt.MAX_ORDER + 1):
        kept = jt.N_SLOTS[order]
        g = _edge_coeffs(rng, (n,), 0.01)
        g[:, : n // 2] = rng.normal(size=(_SLOTS, n // 2))
        g[:, : n // 4][rng.random((_SLOTS, n // 4)) < 0.2] = 0.0
        series = rng.normal(size=(jt.MAX_ORDER + 1, n))
        series[rng.random(series.shape) < 0.1] = -0.0
        edge = rng.random(series.shape) < 0.01
        series[edge] = rng.choice(_EDGES, edge.sum())
        with np.errstate(all="ignore"):
            batch = jt._compose(jt.Jet4(g[:kept], order), series).c
        assert batch.shape == (kept, n)
        finite = five = 0
        for i in range(n):
            with np.errstate(all="ignore"):
                want = _compose_by_products(g[:, i], series[:, i], order,
                                            order)[:kept]
                full = _compose_by_products(g[:, i], series[:, i],
                                            order)[:kept]
                one = jt._compose(jt.Jet4(g[:kept, i].copy(), order),
                                  series[:, i].tolist()).c
            for got in (one, batch[:, i]):
                assert _same_bits(got[0], want[0])
                assert np.isfinite(got).all() == np.isfinite(want).all()
                if np.isfinite(want).all():
                    assert got.tobytes() == want.tobytes()
                if np.isfinite(full).all():
                    assert got.tobytes() == full.tobytes()
            finite += bool(np.isfinite(want).all())
            five += bool(np.isfinite(full).all())
        assert n // 2 <= five <= finite < n
        assert (five < finite) == (order < jt.MAX_ORDER)


# The forms the point path's shortcuts replace, kept as references: each
# shortcut must give their bits, NaN and -0.0 included, at a point and at
# 100 and 1600 columns.
_SHORTCUT_POINTS = ((), (100,), (1600,))


def _compose_order1_by_horner(g, series):
    """Horner at valid order 1 as it runs at order 2 and up: the scaled
    copy series[1] * (g - g.value), plus +0.0, plus series[0]."""
    gh = g.c.copy()
    gh[0] = 0.0
    acc = series[1] * gh
    acc += 0.0
    acc[0] += series[0]
    return acc


def _order1_jets(rng, shape):
    """Order-1 jets whose value is positive and normal in half the columns
    and otherwise an edge (signed zeros, subnormals, the largest floats,
    NaN and +-inf), with edges among their derivative slots too."""
    c = _edge_coeffs(rng, shape, 0.2)[:jt.N_SLOTS[1]]
    normal = rng.random(shape) < 0.5
    c[0] = np.where(normal, rng.uniform(0.1, 3.0, shape), c[0])
    return c


def _point_or_batch(fn, c, order):
    """fn on the jet of coefficients c, or None where a point raises
    JetDomainError."""
    try:
        with np.errstate(all="ignore"):
            return fn(jt.Jet4(c, order))
    except JetDomainError:
        return None


def test_order1_compose_is_the_horner_form_bitwise():
    """`_compose` at valid order 1 writes series[1] * g plus +0.0 and sets
    slot 0 to series[1] * 0.0 + 0.0 + series[0], without the copy of
    g - g.value: the bits of Horner's scaled copy, with sqrt's, the
    reciprocal's and exp's series, over values and slots with signed
    zeros, NaN and +-inf."""
    rng = np.random.default_rng(23)
    named = (("sqrt", jt._sqrt_series), ("1 / x", jt._reciprocal_series),
             ("exp", jt._exp_series))
    for shape in _SHORTCUT_POINTS:
        for _ in range(40 if shape == () else 1):
            c = _order1_jets(rng, shape)
            for name, s in named:
                series = _point_or_batch(
                    lambda g: jt._series(s, g, name), c, 1)
                if series is None:
                    continue
                g = jt.Jet4(c, 1)
                with np.errstate(all="ignore"):
                    got = jt._compose(g, series)
                    want = _compose_order1_by_horner(g, series)
                assert got.valid_order == 1
                assert _same_bits(got.c, want), (name, shape)


def test_reciprocal_of_a_jet_skips_the_product_by_one():
    """1.0 / g is `_reciprocal(g)` as it stands, with the bits of
    `_reciprocal(g) * 1.0` (x * 1.0 is x, NaN and -0.0 included); another
    numerator still scales it."""
    rng = np.random.default_rng(29)
    for shape in _SHORTCUT_POINTS:
        for order in range(jt.MAX_ORDER + 1):
            for _ in range(10 if shape == () else 1):
                c = _edge_coeffs(rng, shape, 0.1)[:jt.N_SLOTS[order]]
                got = _point_or_batch(lambda g: 1.0 / g, c, order)
                if got is None:
                    continue
                with np.errstate(all="ignore"):
                    inv = jt._reciprocal(jt.Jet4(c, order))
                    assert _same_bits(got.c, (inv * 1.0).c)
                    assert _same_bits((2.5 / jt.Jet4(c, order)).c,
                                      (inv * 2.5).c)


def _int_pow_from_one(g, n):
    """g ** n by squaring, as the chain of products from the constant one."""
    result = jt.Jet4.const(np.ones(g.c.shape[1:]), g.valid_order)
    base = g
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def test_int_pow_leaves_out_the_product_by_one_bitwise():
    """g ** n for n = 1..5 has the bits of the chain of products from the
    constant one: on -u, whose zero slots are -0.0 (which 1 * g writes as
    +0.0, so n = 1 keeps that product), on bases whose powers overflow
    (there the product by one puts NaN above an inf slot, so a result
    that is not finite is formed from the one again) and on slots with
    signed zeros, subnormals, NaN and +-inf, at orders 1-4."""
    rng = np.random.default_rng(31)
    for shape in _SHORTCUT_POINTS:
        u, v = jt.jet_variables(rng.uniform(-2.0, 2.0, shape),
                                rng.uniform(-2.0, 2.0, shape), jt.MAX_ORDER)
        big = jt.jet_variables(10.0 ** rng.uniform(50, 200, shape),
                               rng.uniform(-2.0, 2.0, shape), jt.MAX_ORDER)
        bases = [-u, -u * v, big[0], -(big[0] * big[1])]
        for order in range(1, jt.MAX_ORDER + 1):
            bases.append(jt.Jet4(
                _edge_coeffs(rng, shape, 0.1)[:jt.N_SLOTS[order]], order))
        for g in bases:
            for n in range(1, 6):
                with np.errstate(all="ignore"):
                    got, want = g ** n, _int_pow_from_one(g, n)
                assert got.valid_order == want.valid_order
                assert _same_bits(got.c, want.c), (shape, n)
    assert not np.isfinite((big[0] ** 2).c).all()


def _dots_by_runs(a, ia, b, ib):
    """The dot products of listed components as the reshape of `products`
    into runs of three, summed left to right, one run at a time past
    `_BINCOUNT_MAX` columns."""
    step = 3 if len(ia) * a.c[0, 0].size > jt._BINCOUNT_MAX else len(ia)
    sums = []
    for j in range(0, len(ia), step):
        p = jt.products(a, ia[j:j + step], b, ib[j:j + step]).c
        runs = p.reshape((len(p), step // 3, 3) + p.shape[2:])
        sums.append(runs[:, :, 0] + runs[:, :, 1] + runs[:, :, 2])
    return sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)


def test_dots_sum_the_strided_products_bitwise():
    """`dots` sums p[:, 0::3] + p[:, 1::3] + p[:, 2::3] of one product at
    every width: the bits of the runs of the reshaped products (one run at
    a time past `_BINCOUNT_MAX` columns, as `dots` once took them), at 3
    (a point), 9, 42, 126, 129, 387, 4800 and 14400 columns
    (components times 1, 14, 43 and 1600 points), at orders 0-4, over
    slots of one scale, where the order of the sum shows, and signed
    zeros, NaN and +-inf."""
    rng = np.random.default_rng(37)
    lists = (((0, 1, 2), (3, 4, 5)),
             ((0, 1, 2, 3, 4, 5, 0, 2, 4), (0, 1, 2, 0, 1, 2, 5, 5, 5)))

    def coeffs(size):
        c = rng.normal(size=size)
        edge = rng.random(size) < 0.05
        c[edge] = rng.choice(_EDGES, edge.sum())
        return c

    for shape in ((), (14,), (43,), (1600,)):
        for order in range(jt.MAX_ORDER + 1):
            k = jt.N_SLOTS[order]
            a, b = (jt.Jet4(coeffs((k, 6) + shape), order) for _ in range(2))
            for ia, ib in lists:
                with np.errstate(all="ignore"):
                    got = jt.dots(a, ia, b, ib)
                    want = _dots_by_runs(a, ia, b, ib)
                assert got.valid_order == order
                assert _same_bits(got.c, want), (shape, order, len(ia))


def test_batch_columns_equal_their_points_bitwise():
    """Every elementary function, reciprocal and power of a batch jet gives
    in each column the bits of the same operation on that column alone."""
    rng = np.random.default_rng(11)
    n = 400
    coeffs = rng.normal(size=(_SLOTS, n)) * 0.3
    coeffs[0] = rng.uniform(0.05, 3.0, n)
    batch = jt.Jet4(coeffs)
    ops = [*jt.JET_FUNCTIONS.values(), lambda g: 1.0 / g,
           lambda g: g ** 2.5, lambda g: g ** -3, lambda g: 1.7 ** g]
    for op in ops:
        out = op(batch)
        for i in range(n):
            one = op(jt.Jet4(coeffs[:, i].copy()))
            assert out.c[:, i].tobytes() == one.c.tobytes()


def test_batch_domain_error_poisons_only_its_column():
    """ln of a batch jet that is negative in one column, and a reciprocal
    of one that is zero there, poison that column with NaN; every other
    column equals the jet of its point alone."""
    values = np.array([0.5, 1.5, -0.25, 2.0])
    x, _ = jt.jet_variables(values, np.zeros(4), jt.MAX_ORDER)
    for fn in (jt.ln, lambda g: 1.0 / (g + 0.25)):
        out = fn(x)
        assert np.isnan(out.c[:, 2]).all()
        for i in (0, 1, 3):
            one = fn(jt.Jet4.variable(values[i], 0, jt.MAX_ORDER))
            assert out.c[:, i].tobytes() == one.c.tobytes()


_OVERFLOWING = (
    (jt.exp, 800.0), (jt.sinh, 800.0),
    (lambda g: 1.0 / g, 1e-80), (lambda g: g ** -1.5, 1e-80),
)


def test_series_overflow_is_a_domain_error():
    """A series whose float coefficients overflow raises JetDomainError at
    one point and poisons only its own column in a batch."""
    for fn, bad in _OVERFLOWING:
        with pytest.raises(JetDomainError):
            fn(jt.Jet4.variable(bad, 0, jt.MAX_ORDER))
        out = fn(jt.Jet4.variable(np.array([bad, 0.5]), 0, jt.MAX_ORDER))
        assert np.isnan(out.c[:, 0]).all()
        one = fn(jt.Jet4.variable(0.5, 0, jt.MAX_ORDER))
        assert out.c[:, 1].tobytes() == one.c.tobytes()


def test_value_helpers_give_python_bits_on_arrays(rng):
    """power, hypot, largest/smallest and pick give, point by point on
    arrays, exactly what they give on the point's floats; up to |x| =
    1e300, so that power overflows, to +-inf at both shapes."""
    x = rng.standard_normal(4000) * 10.0 ** rng.uniform(-20, 300, 4000)
    y = rng.standard_normal(4000)
    xs, ys = x.tolist(), y.tolist()
    for n in (2, 3):
        with np.errstate(over="ignore"):
            got = jt.power(x, n)
        assert np.isinf(got).any()
        assert got.tolist() == [jt.power(a, n) for a in xs]
    assert jt.hypot(x, y).tolist() == [jt.hypot(a, b) for a, b in zip(xs, ys)]
    for f, py in ((jt.largest, max), (jt.smallest, min)):
        got = f(abs(x), abs(y))
        assert got.dtype == float
        assert got.tolist() == [py(abs(a), abs(b)) for a, b in zip(xs, ys)]
    got = jt.pick(x > y, ("a", "b"), jt.pick(y > 0, "c", ())).tolist()
    assert got == [("a", "b") if a > b else ("c" if b > 0 else ())
                   for a, b in zip(xs, ys)]


_HYPOT_EDGES = (0.0, math.inf, math.nan, 5e-324, 1e-310,
                2.2250738585072014e-308, 1.7976931348623157e308)


def _bits(x) -> list:
    return np.asarray(x, dtype=float).ravel().view(np.int64).tolist()


def test_hypot_on_arrays_is_math_hypot(rng):
    """jt.hypot on arrays gives math.hypot's bits: at 10^5 random pairs
    whose binary exponents span -1074..1023 (half of them independent,
    half within 40 of each other, where both squares count), at every
    pair of the signed edges (zeros, infinities, NaN, subnormals, the
    least normal and the largest float), on 0-d arrays, and with a float
    broadcast against an array."""
    n = 100_000
    e = rng.integers(-1074, 1024, (2, n))
    e[1, n // 2:] = np.clip(e[0, n // 2:] + rng.integers(-40, 41, n - n // 2),
                            -1074, 1023)
    x, y = np.ldexp(rng.uniform(1.0, 2.0, (2, n)), e) * rng.choice(
        [-1.0, 1.0], (2, n))
    edges = np.array(_HYPOT_EDGES + tuple(-v for v in _HYPOT_EDGES))
    a, b = (np.concatenate([x, np.repeat(edges, len(edges))]),
            np.concatenate([y, np.tile(edges, len(edges))]))
    want = list(map(math.hypot, a.tolist(), b.tolist()))
    assert _bits(jt.hypot(a, b)) == _bits(want)
    for p, q in zip(a[::1000].tolist(), b[::1000].tolist()):
        got = jt.hypot(np.asarray(p), np.asarray(q))
        assert got.shape == () and _bits(got) == _bits(math.hypot(p, q))
    for c in (2.5, 1e-300, 0.0, math.inf):
        assert _bits(jt.hypot(c, b)) == _bits([math.hypot(c, q) for q in b])
        assert _bits(jt.hypot(a, c)) == _bits([math.hypot(p, c) for p in a])


def test_fold_sum_is_a_left_to_right_fold_from_zero(rng):
    """jt.fold_sum gives the bits of functools.reduce(operator.add, row, 0)
    along the last axis, silently: on rows of random magnitudes, where the
    order of the additions shows in the last bits (pairwise np.sum moves
    rows of 50), on [1, 1e100, 1, -1e100] (0.0, where a compensated sum
    gives 2.0), on -0.0s (0.0), on a running sum that overflows and on
    infinities of both signs (NaN)."""
    table = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-8, 9, (50, 7))
    table[:4, :4] = [[1.0, 1e100, 1.0, -1e100], [-0.0] * 4,
                     [1e308, 1e308, -1e308, -1e308],
                     [math.inf, 1.0, -math.inf, 2.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (table, np.ascontiguousarray(table.T)):
            want = [functools.reduce(operator.add, row, 0)
                    for row in rows.tolist()]
            assert _bits(jt.fold_sum(rows)) == _bits(want)
    assert _bits(jt.fold_sum(table[:2, :4])) == _bits([0.0, 0.0])


def _overflow_edge(fn):
    """The largest x > 0 at which the float function fn does not overflow."""
    lo, hi = 1.0, 1e3
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        try:
            fn(mid)
            lo = mid
        except OverflowError:
            hi = mid
    return lo


def _table_inputs():
    """10^6 random values (every scale from subnormal to near overflow, the
    moderate ones, the overflow ranges of exp, sinh and cosh and of the
    series' powers) and the edges: signed zeros, subnormals, 7e-155 and
    1.3e154 (a square overflows), 1e-160 (a cube underflows to 0), the
    overflow edges of exp, sinh and cosh and the values next to them, the
    largest float, infinities and NaN."""
    rng = np.random.default_rng(16)
    k = 250_000
    mags = np.concatenate([10.0 ** rng.uniform(-330, 308, k),
                           rng.uniform(0.0, 20.0, k),
                           rng.uniform(700.0, 720.0, k),
                           10.0 ** rng.uniform(-170.0, 170.0, k)])
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 7e-155,
             1e-80, 1.0, 1.3e154, 1e300, 1.7976931348623157e308, math.inf]
    for fn in (math.exp, math.sinh, math.cosh):
        edge = _overflow_edge(fn)
        edges += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1e3)]
    values = np.concatenate([mags * rng.choice([-1.0, 1.0], mags.size),
                             edges, np.negative(edges), [math.nan]])
    return values


def _float_rows(fn, xs):
    """fn at each value, or None where it raises as the batch code should
    say it fails (ArithmeticError covers overflow and division by zero)."""
    rows = []
    for x in xs:
        try:
            rows.append(fn(x))
        except (ArithmeticError, ValueError):
            rows.append(None)
    return rows


def _assert_same(got, failed, rows, what):
    """The verdicts agree, and the values of every column that does not
    fail agree by bits (any NaN equals any NaN)."""
    want_failed = np.array([r is None for r in rows])
    bad = np.flatnonzero(failed != want_failed)
    assert bad.size == 0, (what, bad.size, got.T[bad[0]], rows[bad[0]])
    want = np.array([r for r in rows if r is not None], dtype=float).T
    got = got[..., ~failed]
    same = (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want))
    if same.ndim > 1:
        same = same.all(axis=0)
    bad = np.flatnonzero(~same)
    assert bad.size == 0, (what, bad.size, got.T[bad[0]], want.T[bad[0]])


_CHUNK = 100_000


def _floats(x):
    """The values x as `Floats` that fail nowhere."""
    return jt.Floats(x, np.zeros(x.size, dtype=bool))


def test_array_functions_have_the_float_bits_and_verdict():
    """Each function of the float-function map (a row of ELEMENTARY): on
    the `Floats` of 10^6 values and the edges it gives, by the row's array
    function, the float function's bits and fails exactly where the float
    function raises.  np.sqrt, np.sin and np.cos are used as they are, so
    a numpy that rounds them otherwise fails here."""
    values = _table_inputs()
    for name, fn in jt.FLOATS_FUNCTIONS.items():
        for at in range(0, values.size, _CHUNK):
            x = values[at:at + _CHUNK]
            with np.errstate(all="ignore"):
                out = fn(_floats(x))
            _assert_same(out.value, out.failed, _float_rows(fn, x.tolist()),
                         name)


def _all_series():
    """(name, series) of the table's rows, the reciprocal and x ** 2.5,
    whose exponents 2.5 - k take both signs."""
    series = [(f.name, f.series) for f in jt.ELEMENTARY if f.series]
    return series + [("1 / x", jt._reciprocal_series),
                     ("x ** 2.5", jt._power_series(2.5))]


def test_batch_series_have_the_float_bits_and_verdict():
    """Every series: on the `Floats` of 10^6 values and the edges it gives
    the bits it gives on each value as a float, and fails exactly at the
    values where the float code raises (outside the domain, at a division
    by zero or an overflow).  At 1e-160 sqrt's g0**3 underflows to 0, so
    the float code raises ZeroDivisionError where numpy's division would
    give inf."""
    values = _table_inputs()
    for name, s in _all_series():
        for at in range(0, values.size, _CHUNK):
            x = values[at:at + _CHUNK]
            with np.errstate(all="ignore"):
                terms = s(_floats(x))
            got = np.array([t.value for t in terms])
            failed = np.logical_or.reduce([t.failed for t in terms])
            _assert_same(got, failed, _float_rows(s, x.tolist()), name)


def test_series_match_mpmath_taylor():
    """Every series' five coefficients lie within 4 ulp of the Taylor
    coefficients mpmath computes at 50 digits, at 0.3, 1.7 and 4.0 and at
    their negatives where the domain has them: a reference apart from the
    float code, which the point and the batch share."""
    import mpmath as mp
    refs = {f.name: getattr(mp, f.mp_name) for f in jt.ELEMENTARY}
    refs.update({"1 / x": lambda x: 1 / x, "x ** 2.5": lambda x: x ** 2.5})
    positive = ("sqrt", "ln", "x ** 2.5")
    for name, series in _all_series():
        for x in (0.3, 1.7, 4.0) + (() if name in positive
                                    else (-0.3, -1.7, -4.0)):
            got = series(x)
            with mp.workdps(50):
                want = mp.taylor(refs[name], mp.mpf(x), jt.MAX_ORDER)
                for k, (g, w) in enumerate(zip(got, want)):
                    ulp = math.ulp(float(w))
                    assert abs(g - w) <= 4 * ulp, (name, x, k, g, w)
