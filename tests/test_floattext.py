"""`floattext.reprs` against ``repr`` and `floattext.write_lines` against
``%``, class by class."""
import io

import numpy as np
import pytest

from focalnet import floattext
from focalnet.floattext import reprs, write_lines


def _same(values) -> None:
    x = np.asarray(values, dtype=np.float64)
    want = list(map(repr, x.ravel().tolist()))
    got = reprs(x)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def _neighbours(x: np.ndarray) -> np.ndarray:
    """x and the floats next to it on both sides."""
    return np.concatenate([x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf)])


def test_every_digit_count_and_decimal_exponent():
    """Each sign, digit count 1-17 and decimal exponent -324..308: a
    seeded d-digit decimal with nonzero ends, read as a float."""
    rng = np.random.default_rng(29)
    texts = []
    for d in range(1, 18):
        lead = rng.integers(1, 10, 633)
        body = rng.integers(0, 10, (633, max(d - 2, 0)))
        tail = rng.integers(1, 10, 633)
        for e, a, b, c in zip(range(-324, 309), lead.tolist(),
                              body.tolist(), tail.tolist()):
            digits = str(a) + "".join(map(str, b)) + (str(c) if d > 1 else "")
            texts.append(f"{digits[0]}.{digits[1:]}e{e}")
    x = np.array([float(t) for t in texts])
    _same(np.concatenate([x, -x]))


def test_special_values():
    _same([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           np.finfo(float).max, -np.finfo(float).max,
           np.finfo(float).tiny, 1e-280, 1e280])


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _same(_neighbours(np.concatenate([twos, tens, -twos, -tens])))


def test_positional_and_exponent_boundaries():
    """Both sides of 1e-4 and 1e16, where repr changes notation: 40 floats
    on each side, and values of several digit counts at decimal exponents
    -5, -4, 15 and 16."""
    walks = []
    for b in (1e-4, 1e16):
        down, up = [b], [b]
        for _ in range(40):
            down.append(np.nextafter(down[-1], -np.inf))
            up.append(np.nextafter(up[-1], np.inf))
        walks += down + up
    shapes = [float(f"{m}e{e}") for e in (-5, -4, 15, 16)
              for m in ("9.999999999999999", "9.99999999999999",
                        "1.2345678901234567", "1.234567890123456",
                        "1.23456789012345", "9.8765432109876")]
    x = np.array(walks + shapes)
    _same(np.concatenate([x, -x]))


def test_random_bit_patterns():
    rng = np.random.default_rng(20261020)
    _same(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
          .view(np.float64))


def test_decimal_exponent_is_exact():
    """The multiply-and-shift decimal exponent against the digit count of
    2^(e2 - 1), over every binary exponent of float64."""
    e2 = np.arange(-1073, 1025)
    exact = [len(str(2 ** (b - 1))) - 1 if b >= 1 else -len(str(2 ** (1 - b)))
             for b in e2.tolist()]
    assert floattext._decimal_exponent(e2).tolist() == exact


def test_shape_and_order():
    x = np.arange(12.0).reshape(3, 4) / 7
    assert reprs(x) == list(map(repr, x.ravel().tolist()))
    assert reprs(x.T) == list(map(repr, x.T.ravel().tolist()))
    assert reprs(np.array([])) == []


def test_fallback_runs_repr_and_the_fast_path_does_not(monkeypatch):
    """Values outside the fast path (zero, subnormal, NaN, infinities,
    magnitudes past 1e+-280) and values of 13 or fewer digits are written
    by ``repr``; 17-digit values inside the range are not."""
    calls = []

    def counted(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(floattext, "repr", counted, raising=False)
    slow = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, -1e300,
            0.5, 1.25, -3.0, 0.1, 1234567.0]
    fast = [0.1234567890123456, -2.718281828459045, 3.141592653589793e-200,
            6.02214076123456e23]
    _same(slow)
    assert len(calls) == len(slow)
    calls.clear()
    _same(fast)
    assert calls == []


def _lines(values, per_row: int = 3, key: str = "v") -> None:
    """`write_lines` of `values` (rows of `per_row`) against ``%``."""
    x = np.asarray(values).reshape(-1, per_row)
    fh = io.BytesIO()
    write_lines(fh, key, x)
    spec = " %.9g" if x.dtype.kind == "f" else " %d"
    want = [key + spec * per_row % tuple(row) for row in x.tolist()]
    got = fh.getvalue().decode("ascii").split("\n")
    assert got[-1] == "" and len(got) == len(want) + 1
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:5]


def test_nine_digit_edge_classes():
    """Ties at the ninth digit, the carries to ten digits (a new decimal
    exponent: to 1e+09, to 100000000 and out of the exponent form to
    0.0001), both sides of %g's notation change at 1e-05 and 1e+09,
    subnormals, signed zeros, NaN, infinities and 3-digit exponents, each
    with its negative, one value per line and three."""
    carries = {999999999.5: "1e+09", 99999999.995: "100000000",
               9.9999999995e-05: "0.0001"}
    fh = io.BytesIO()
    write_lines(fh, "v", np.array(list(carries))[:, None])
    assert fh.getvalue().decode().split("\n")[:-1] == [
        "v " + text for text in carries.values()]
    x = np.array([1234567.125, 1234567.375, 123456789.5, 0.5, *carries,
                  1e-05, 1e+09, 99999.9999, 100000000.0, 5e-324,
                  2.2250738585072014e-308, 2.225073858507201e-308,
                  0.0, np.nan, np.inf, 1e-100, 1e+100, 1.7e308,
                  1e-280, 1e280, 1.23456789e-205, 9.87654321e+123])
    x = _neighbours(x)
    x = np.concatenate([x, -x])
    _lines(x, 1)
    _lines(x[:len(x) // 3 * 3], 3)


def test_nine_digit_near_ties():
    """Ten-digit decimals ending in 5 at decimal exponents -12..12, where
    the ninth digit's rounding is closest to a tie, and the floats next
    to them: the margin hands the undecided ones to ``format``."""
    rng = np.random.default_rng(31)
    for e in range(-12, 13):
        m = rng.integers(10 ** 8, 10 ** 9, 600) * 10 + 5
        x = _neighbours(m * 10.0 ** (e - 9))
        _lines(np.concatenate([x, -x]), 3)


def test_nine_digit_carries_at_every_exponent():
    """9999999995e-280..9999999995e279, the ten-digit decimals that round
    up to a new decimal exponent, and the 20 floats on each side: where
    the scaled value lies within the margin of 999999999.5, the carry is
    left to ``format``."""
    walks = []
    for e in range(-280, 280):
        down = up = float(f"9999999995e{e}")
        for _ in range(20):
            down, up = np.nextafter(down, 0), np.nextafter(up, np.inf)
            walks += [down, up]
    _lines(walks, 2)


def test_nine_digit_random_bit_patterns():
    rng = np.random.default_rng(20261031)
    _lines(rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64)
           .view(np.float64), 3)


@pytest.mark.parametrize("key, per_row", [("f", 3), ("l", 2)])
def test_integer_lines(key, per_row):
    """Integers across each group boundary of their 4-digit words."""
    v = np.concatenate([np.arange(0, 20002), np.arange(10 ** 8 - 6, 10 ** 8
                                                        + 6),
                        [10 ** 12 - 1, 10 ** 11, 12345678901]])
    _lines(v[:len(v) // per_row * per_row], per_row, key)


@pytest.mark.parametrize("per_row", [1, 2, 3, 4])
@pytest.mark.parametrize("top, words", [(9999, 3), (10 ** 4, 4),
                                        (10 ** 8 - 1, 4), (10 ** 8, 5)])
def test_integer_rows_as_wide_as_the_block(top, words, per_row,
                                           chunk_widths):
    """Every row of a block has one 4-digit word per group that the
    block's largest integer fills: small integers in a block that also
    holds a large one, over three chunks of rows of 1-4 values."""
    v = np.concatenate([[top], np.arange(0, 10002),
                        np.arange(10 ** 8 - 6, 10 ** 8 + 6)])
    v = v[v <= top]
    _lines(v[:len(v) // per_row * per_row], per_row, "f")
    assert len(chunk_widths) >= 3 and set(chunk_widths) == {words}


def _mesh_range(rng, size: int) -> np.ndarray:
    """`size` floats of either sign with magnitudes log-uniform in
    [1e-5, 1e4), as a mesh's coordinates are."""
    return rng.choice([-1.0, 1.0], size) * 10 ** rng.uniform(-5, 4, size)


@pytest.mark.parametrize("per_row", [1, 2, 3, 4])
@pytest.mark.parametrize("reach", [9999.999995, 9999.9999951, -9999.9999951,
                                   np.nextafter(1e4, 0), 1e4, 123456789.0])
def test_float_rows_as_wide_as_the_chunk(reach, per_row, chunk_widths):
    """A chunk's rows keep the word of integer digits 5-8 only where some
    value's whole part reaches 10^4 once rounded to nine digits: 9999.99999
    and 9999.999994999 stay below it, while 9999.9999951 (the fast path)
    and 9999.999995 (``format``) print as 10000.  Chunks narrow, wide and
    narrow in one block, of rows of 1-4 values."""
    rng = np.random.default_rng(43)
    size = floattext._CHUNK // per_row * per_row
    below = [9999.999994999, -9999.999994999, 9999.99999, 0.0, 1e-5]
    x = _mesh_range(rng, 3 * size)
    x[:len(below)] = below
    x[size + size // 2] = reach
    x[2 * size - len(below):2 * size] = below
    _lines(x, per_row)
    assert chunk_widths == [7, 8, 7]


def test_longest_fallbacks_fit_a_narrow_row(chunk_widths):
    """The longest ``%.9g`` texts, the fallbacks' among them, each the
    only value of its line (key, space, text and newline: 19 bytes of a
    row's 28), in chunks whose rows have 7 words."""
    longest = [-4.94065646e-324, -1.23456789e-300, 1.23456789e-300,
               -2.22507386e-308, -1.23456789e-100, 9.87654321e+123,
               -1.7e308, -np.inf, np.nan, -0.0, -9999.99999, -0.000123456789]
    rng = np.random.default_rng(47)
    x = _mesh_range(rng, 2 * floattext._CHUNK)
    x[::509][:len(longest)] = longest
    x[-len(longest):] = longest
    _lines(x, 1)
    _lines(x[:len(x) // 3 * 3], 3)
    assert chunk_widths == [7] * 4


def test_write_lines_refuses_what_it_cannot_write():
    fh = io.BytesIO()
    for key, rows in (("vn", [[1.0]]), ("f", [[-1]]), ("f", [[10 ** 12]])):
        with pytest.raises(ValueError):
            write_lines(fh, key, np.array(rows))
    write_lines(fh, "f", np.zeros((0, 3), int))
    assert fh.getvalue() == b""


def test_nine_digit_fallback_is_format_and_rare(monkeypatch):
    """Non-finite values and ties go to ``format``; fast-path values and
    zero do not."""
    calls = []

    def counted(v, spec):
        calls.append(v)
        return format(v, spec)

    monkeypatch.setattr(floattext, "format", counted, raising=False)
    slow = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1234567.125]
    _lines(slow, 1)
    assert len(calls) == len(slow)
    calls.clear()
    _lines([0.0, -0.0, 0.1, -2.718281828459045, 6.02214076e23, 1e-5], 1)
    assert calls == []
