"""`floattext.reprs` against ``repr``, class by class."""
import numpy as np
import pytest

from focalnet import floattext
from focalnet.floattext import reprs


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
