"""Order-4 bivariate jet arithmetic."""
import math

import numpy as np
import pytest

import focalnet.jet as jt
from focalnet.errors import JetDomainError, JetOrderError


def _vars(u, v):
    return jt.jet_variables(u, v)


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


# The full truncated convolution: every monomial pair of total degree <= 4.
_FULL_PAIRS = [(ka, kb, jt.MONOMIAL_INDEX[(pa + pb, qa + qb)])
               for ka, (pa, qa) in enumerate(jt.MONOMIALS)
               for kb, (pb, qb) in enumerate(jt.MONOMIALS)
               if pa + pb + qa + qb <= jt.MAX_ORDER]


def _full_product(a, b):
    ka, kb, out = (np.array(col) for col in zip(*_FULL_PAIRS))
    return np.bincount(out, weights=a[ka] * b[kb], minlength=jt.N_COEFFS)


def test_products_match_the_full_convolution_bitwise():
    """A product computes the coefficients up to its valid order from that
    order's pairs alone; they equal the 70-pair convolution bit for bit, at
    S = () and in every column at S = (7,), and the rest are zero."""
    rng = np.random.default_rng(3)
    for ra in range(jt.MAX_ORDER + 1):
        for rb in range(jt.MAX_ORDER + 1):
            a = jt.Jet4(rng.normal(size=(jt.N_COEFFS, 7)), ra)
            b = jt.Jet4(rng.normal(size=(jt.N_COEFFS, 7)), rb)
            a.c[3, 2] = -0.0
            order = min(ra, rb)
            kept = (order + 1) * (order + 2) // 2
            batch = a * b
            assert batch.valid_order == order
            assert not batch.c[kept:].any()
            for i in range(7):
                want = _full_product(a.c[:, i], b.c[:, i])[:kept].tobytes()
                one = (jt.Jet4(a.c[:, i].copy(), ra)
                       * jt.Jet4(b.c[:, i].copy(), rb))
                assert one.valid_order == order
                assert one.c[:kept].tobytes() == want
                assert batch.c[:kept, i].tobytes() == want


def test_batch_columns_equal_their_points_bitwise():
    """Every elementary function, reciprocal and power of a batch jet gives
    in each column the bits of the same operation on that column alone."""
    rng = np.random.default_rng(11)
    n = 400
    coeffs = rng.normal(size=(jt.N_COEFFS, n)) * 0.3
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
    x, _ = jt.jet_variables(values, np.zeros(4))
    for fn in (jt.ln, lambda g: 1.0 / (g + 0.25)):
        out = fn(x)
        assert np.isnan(out.c[:, 2]).all()
        for i in (0, 1, 3):
            one = fn(jt.Jet4.variable(values[i], 0))
            assert out.c[:, i].tobytes() == one.c.tobytes()
