"""Float texts computed on arrays: ``repr`` for the reports and ``%.9g``
lines for the OBJ files.

`reprs(x)` equals ``[repr(v) for v in x.tolist()]``: the shortest digits
that read back as the same float, nearest to it among those, written
positionally for decimal exponents -4..15 and with ``e±XX`` otherwise.
It follows Grisu3 (Loitsch, PLDI 2010): decide the digits in extended
precision with a margin, and hand the values that the margin cannot
decide to the exact printer, here ``repr`` itself (Gay's dtoa).

The fast path takes finite x with 1e-280 <= |x| <= 1e280:

- Scale: s = |x| 10^(16-E) as a double-double, with E from the binary
  exponent, so that s lies in [1e16, 2e17); an 18-digit s is divided by
  10 once.  10^(16-E) is two doubles, hi + lo, each rounded from Python
  integers, and the product takes Dekker's split (no FMA), so s is off by
  less than 1e-13 of its last unit.
- Digits: s reads back as x on [s - below, s + above], each a half-ulp of
  x in units of s (the lower one halved at a power of two).  The fewest
  digits are those of the coarsest unit, 10^0..10^3 of s, with a multiple
  in that interval; at 10^0 and 10^1 two may lie there, and the nearer to
  s is taken.
- A value goes to ``repr`` where a bound lies within 1e-6 of an integer
  (so whether a bound is open or closed never decides), where s lies
  within 1e-6 of an integer or a half-integer (a tie at 16 or 17 digits),
  and where a multiple of 10^4 lies in the interval: that value has 13 or
  fewer digits.  Zero, subnormals, NaN, infinities and the magnitudes
  outside the range go there too.
- Text: each value is a row of 4-byte words, zero where blank: a
  separator and the sign, 16 integer digits from a 4-digit table with
  leading zeros blank, the point, 16 + 4 fraction digits with trailing
  zeros blank, and the exponent.  One ``translate`` that drops the zero
  bytes, one ``decode`` and one ``split`` give the strings.

`write_lines(fh, key, rows)` writes an OBJ block, one line per row:
``key``, each entry after a space as ``'%.9g' % v`` (floats) or
``'%d' % v`` (integers), and ``\\n``.  Nine digits need no double-double:

- y = |x| 10^(8-E), one product with the same power table, lies in
  [1e8, 2e9) and is off by less than 5e-7 of its last unit; where
  y >= 999999999.5 (ten digits once rounded) E rises by one and y is
  divided by 10.  ``np.rint(y)`` gives the nine digits.
- A value goes to ``format(v, ".9g")`` where y lies within 1e-5 of a
  half-integer (a tie such as 1234567.125 among them) or of 999999999.5
  before that division, and where it is NaN, infinite, subnormal or
  outside [1e-280, 1e280]; zero is written on the fast path.
- Text: each value is 8 words: the line's key on its first value, the
  sign and the ninth-from-last integer digit, 8 more integer digits with
  leading zeros blank, the point, 12 fraction digits with trailing zeros
  blank (decimal exponents -4..8, as ``%g`` writes them) and, otherwise,
  ``e±XX``, a third exponent digit and the line's ``\\n`` on its last
  value.  An integer is 5 words: the key or a space, 12 digits, and the
  newline.  A fallback text is written into its value's words, so each
  chunk of rows is one ``translate`` of the words' bytes, written to the
  binary file as it stands: no ``str`` per value, and ``\\n`` on every
  platform.

Both writers run in chunks of 2^12 values, whose few dozen transient
arrays stay in a core's cache (chunks of 2^14, arrays of 128 KiB, ran
about 28% slower for `reprs`), and the tables are built on first use.
"""
from __future__ import annotations

from functools import cache
from types import SimpleNamespace
from typing import List

import numpy as np

__all__ = ["reprs", "write_lines"]

_LO, _HI = 1e-280, 1e280        # the fast path's magnitudes
_MARGIN = 1e-6                  # in units of s
_CHUNK = 1 << 12
_SPLITTER = 134217729.0         # 2^27 + 1
_SEP = ","
_NINE = 999999999.5             # nine digits that round up to ten
_MARGIN9 = 1e-5                 # in units of y's last digit
_INT_END = 10 ** 12             # integers are written as 12 digits

# The places of the digit tables in the words table: every 4-digit group,
# then with leading zeros blank, then with trailing zeros blank.
_LEAD, _TRAIL = 10000, 20000


def _words(*texts: str) -> np.ndarray:
    """The 4-byte words holding `texts`, each NUL-padded."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts),
                         np.uint32)


def _decimal_exponent(e2):
    """floor(log10 2^(e2 - 1)), exact over np.frexp's exponents of float64."""
    return ((e2 - 1) * 78913) >> 18


@cache
def _tables() -> SimpleNamespace:
    """The power and text tables."""
    dec_min, dec_max = (_decimal_exponent(np.frexp(b)[1]) for b in (_LO, _HI))
    # 10^k = hi + lo, each correctly rounded (int -> float and int / int
    # are), at dec - dec_min for k = 16 - dec (and at dec - dec_min + 8
    # for `write_lines`' k = 8 - dec)
    neg, pos = [], []
    ten = 1
    for k in range(17 - dec_min):
        pos.append((float(ten), float(ten - int(float(ten)))))
        if 0 < k <= dec_max - 8:
            pn, pd = (1 / ten).as_integer_ratio()
            neg.append((1 / ten, (pd - pn * ten) / ten / pd))
        ten *= 10
    hi, lo = np.array(pos[::-1] + neg).T
    c = hi * _SPLITTER
    hi1 = c - (c - hi)

    # group g's digits, shown: all, from the first non-zero one, or up to
    # the last
    pair = np.frombuffer(b"".join(b"%02d" % i for i in range(100)),
                         np.uint8).reshape(100, 2)
    text = np.concatenate([np.repeat(pair, 100, axis=0),
                           np.tile(pair, (100, 1))], axis=1)
    lead, trail = text != ord("0"), text != ord("0")
    for p in range(1, 4):
        lead[:, p] |= lead[:, p - 1]
        trail[:, 3 - p] |= trail[:, 4 - p]
    shown = np.stack([np.ones_like(lead), lead, trail])
    words = (text * shown).view(np.uint32).ravel()

    # by e + 4 over the positional exponents e = -4..15: `unit` splits the
    # 17 digits into the integer digits (none at 10^17) and the rest; the
    # rest // `shift` * `scale` is the first 16 fraction digits, and the
    # remainder * `low` the last 4
    e = np.arange(-4, 16, dtype=np.int64)
    shift = 10 ** np.maximum(-e, 0)
    # `write_lines`' integer digits: group 0 of a whole part below 10^4
    # is "0" (the whole part is 0)
    units = words[:_TRAIL].copy()
    units[_LEAD] = _words("0")[0]
    # by e + 4 over %g's positional exponents e = -4..8: the 9 digits
    # // `unit9` are the integer digits, the rest * `scale9` the 12
    # fraction digits
    e9 = np.arange(-4, 9)
    return SimpleNamespace(
        dec_min=int(dec_min), hi=hi, hi1=hi1, hi2=hi - hi1, lo=lo,
        words=words, units=units,
        unit9=10 ** (8 - e9), scale9=10 ** (4 + e9),
        # the sign and the point, "0." where there are no integer digits
        # and ".0" where there are no fraction digits
        sign=_words(_SEP, _SEP + "-"), point=_words(".", "0.", ".0"),
        # blank for positional rows, then e = dec_min..dec_max + 1
        exp=np.frombuffer(bytes(8) + b"".join(
            (b"e%+03d" % d).ljust(8, b"\0")
            for d in range(dec_min, dec_max + 2)), np.uint64),
        unit=10 ** (16 - np.maximum(e, -1)), shift=shift,
        scale=10 ** np.maximum(e, 0), low=10 ** 4 // shift)


def _groups(v: np.ndarray):
    """The four 4-digit groups of v < 10^16, the highest first."""
    g0 = v // 10 ** 12
    r = v - g0 * 10 ** 12
    g1 = r // 10 ** 8
    r -= g1 * 10 ** 8
    g2 = r // 10 ** 4
    return g0, g1, g2, r - g2 * 10 ** 4


def reprs(values: np.ndarray) -> List[str]:
    """``repr(float(x))`` of every entry of `values` (float64, any shape),
    in C order."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    texts: List[str] = []
    for start in range(0, len(x), _CHUNK):
        texts += _chunk(x[start:start + _CHUNK])
    return texts


def _chunk(x: np.ndarray) -> List[str]:
    t = _tables()
    a = np.abs(x)
    fast = (a >= _LO) & (a <= _HI)
    np.putmask(a, ~fast, 1.0)
    mant, e2 = np.frexp(a)
    dec = _decimal_exponent(e2)
    at = dec - t.dec_min
    # s = a (hi + lo) = p + err, exact up to the rounding of a * lo
    p = a * t.hi[at]
    c = a * _SPLITTER
    a1 = c - (c - a)
    a2 = a - a1
    hi1, hi2 = t.hi1[at], t.hi2[at]
    err = ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2 + a * t.lo[at]
    whole = np.floor(err)
    n = p.astype(np.int64) + whole.astype(np.int64)
    frac = err - whole
    big = n >= 10 ** 17
    q = n // 10
    frac += big * ((n - 10 * q + frac) / 10 - frac)
    n += big * (q - n)
    dec += big
    # s = n + frac reads back as x on [s - below, s + above]
    above = (n + frac) * 2.0 ** -54 / mant
    below = above - (mant == 0.5) * (above / 2)
    top, bottom = frac + above, frac - below
    high, low = np.floor(top), np.floor(bottom)
    undecided = ~fast | (np.abs(top - high - 0.5) > 0.5 - _MARGIN) | (
        np.abs(bottom - low - 0.5) > 0.5 - _MARGIN) | (
        np.abs(np.abs(frac - 0.5) - 0.25) > 0.25 - _MARGIN)
    # the integers in the interval are first..last
    last = n + high.astype(np.int64)
    first = n + low.astype(np.int64) + 1
    digits = n + (frac > 0.5)
    for unit in (10, 100, 1000):
        cand = last // unit * unit
        if unit == 10:
            cand -= 10 * ((cand - 10 >= first) & (cand - n - frac > 5))
        digits += (cand >= first) * (cand - digits)
    undecided |= last // 10 ** 4 * 10 ** 4 >= first

    # an exponent row is written as e = 0 with its exponent after it
    positional = (dec >= -4) & (dec <= 15)
    j = dec * positional + 4
    whole = digits // t.unit[j]
    rest = digits - whole * t.unit[j]
    shift = t.shift[j]
    high = rest // shift
    low = (rest - high * shift) * t.low[j]
    high *= t.scale[j]

    i0, i1, i2, i3 = _groups(whole)
    f0, f1, f2, f3 = _groups(high)
    y3 = low == 0
    y2 = y3 & (f3 == 0)
    y1 = y2 & (f2 == 0)
    y0 = y1 & (f1 == 0)
    w = t.words
    rows = np.empty((len(x), 13), np.uint32)
    rows[:, 0] = t.sign[np.signbit(x).view(np.int8)]
    rows[:, 1] = w[_LEAD + i0]
    rows[:, 2] = w[i1 + _LEAD * (whole < 10 ** 12)]
    rows[:, 3] = w[i2 + _LEAD * (whole < 10 ** 8)]
    rows[:, 4] = w[i3 + _LEAD * (whole < 10 ** 4)]
    rows[:, 5] = t.point[(whole == 0) + 2 * (y0 & (f0 == 0))]
    rows[:, 6] = w[f0 + _TRAIL * y0]
    rows[:, 7] = w[f1 + _TRAIL * y1]
    rows[:, 8] = w[f2 + _TRAIL * y2]
    rows[:, 9] = w[f3 + _TRAIL * y3]
    rows[:, 10] = w[_TRAIL + low]
    rows[:, 11:] = t.exp[(dec - t.dec_min + 1) * ~positional].view(
        np.uint32).reshape(-1, 2)
    texts = rows.tobytes().translate(None, b"\0").decode("ascii").split(
        _SEP)[1:]
    slow = np.flatnonzero(undecided)
    for k, v in zip(slow.tolist(), x[slow].tolist()):
        texts[k] = repr(v)
    return texts


@cache
def _key_words(key: str) -> SimpleNamespace:
    """The words that start a value of a `key` line: a float's sign and
    ninth-from-last integer digit (blank at 0) by digit + 10 sign + 20
    first, an integer's space by first."""
    heads = (" ", key + " ")
    return SimpleNamespace(
        sign=_words(*(h + s + (str(i) if i else "") for h in heads
                      for s in ("", "-") for i in range(10))),
        space=_words(*heads))


@cache
def _row_marks(k: int):
    """Over a chunk of whole rows of k values: 1 at each row's first value
    (else 0), and at its last value the word ``"\\0\\0\\0\\n"`` (else 0).
    Zero bytes are dropped, so a byte's place in its word does not show;
    the newline takes the last byte to be or-ed onto an exponent's word,
    whose last byte is blank."""
    first = np.tile(np.arange(k) == 0, max(_CHUNK // k, 1)).astype(np.intp)
    return first, _words("", "\0\0\0\n")[np.roll(first, -1)]


def write_lines(fh, key: str, rows: np.ndarray) -> None:
    """Write one line per row of the 2-D array `rows` to the binary file
    `fh`: the one-character `key`, each entry after a space as
    ``'%.9g' % v`` (a float array) or ``'%d' % v`` (an integer array,
    entries in [0, 10^12)), and ``\\n``."""
    if len(key.encode()) != 1:
        raise ValueError(f"an OBJ line key is one character, got {key!r}")
    rows = np.asarray(rows)
    n, k = rows.shape
    if not n * k:
        return
    if rows.dtype.kind == "f":
        words, fill, rows = 8, _g9_chunk, rows.astype(np.float64, copy=False)
    else:
        words, fill, rows = 5, _int_chunk, rows.astype(np.intp, copy=False)
        if rows.min() < 0 or rows.max() >= _INT_END:
            raise ValueError("OBJ integers lie in [0, 10^12)")
    values = rows.ravel()
    first, end = _row_marks(k)
    kw = _key_words(key)
    for start in range(0, len(values), len(first)):
        x = values[start:start + len(first)]
        out = np.empty((len(x), words), np.uint32)
        fill(x, out, first[:len(x)], end[:len(x)], kw)
        fh.write(out.tobytes().translate(None, b"\0"))


def _int_chunk(v, out, first, end, kw) -> None:
    t = _tables()
    _, g0, g1, g2 = _groups(v)
    out[:, 0] = kw.space.take(first)
    out[:, 1] = t.words.take(g0 + _LEAD)
    out[:, 2] = t.words.take(g1 + _LEAD * (v < 10 ** 8))
    out[:, 3] = t.units.take(g2 + _LEAD * (v < 10 ** 4))
    out[:, 4] = end


def _g9_chunk(x, out, first, end, kw) -> None:
    t = _tables()
    a = np.abs(x)
    # the values outside the fast path's magnitudes go to format, but
    # zero, whose y and digits are 0, written "0"
    slow = ~((a >= _LO) & (a <= _HI)) & (a != 0)
    np.putmask(a, slow, 1.0)
    dec = _decimal_exponent(np.frexp(a)[1])
    # y = a 10^(8 - dec): 9 digits, or 10 where dec is one short
    y = a * t.hi.take(dec + (8 - t.dec_min))
    ten = y >= _NINE
    # (the y within the margin above 999999999.5 may lie below it)
    undecided = slow | (ten ^ (y >= _NINE + _MARGIN9))
    y = np.where(ten, y / 10, y)
    dec += ten
    digits = np.rint(y)
    undecided |= np.abs(y - digits) > 0.5 - _MARGIN9
    digits = digits.astype(np.intp)

    # an exponent row is written as e = 0 with its exponent after it
    positional = (dec >= -4) & (dec <= 8)
    j = dec * positional + 4
    unit = t.unit9.take(j)
    whole = digits // unit
    rest = (digits - whole * unit) * t.scale9.take(j)
    _, top, i1, i2 = _groups(whole)
    _, f0, f1, f2 = _groups(rest)
    w = t.words
    out[:, 0] = kw.sign.take(top + 10 * np.signbit(x) + 20 * first)
    out[:, 1] = w.take(i1 + _LEAD * (whole < 10 ** 8))
    out[:, 2] = t.units.take(i2 + _LEAD * (whole < 10 ** 4))
    out[:, 3] = (rest != 0) * np.uint32(ord("."))
    out[:, 4] = w.take(f0 + _TRAIL * ((f1 == 0) & (f2 == 0)))
    out[:, 5] = w.take(f1 + _TRAIL * (f2 == 0))
    # the exponent's first four bytes after the blank last fraction
    # digits, its third digit before the newline
    e = t.exp.take((dec - t.dec_min + 1) * ~positional).view(np.uint32)
    out[:, 6] = w.take(f2 + _TRAIL) | e[::2]
    out[:, 7] = end | e[1::2]
    for i in np.flatnonzero(undecided).tolist():
        text = (kw.sign[20 * first[i]].tobytes()
                + format(float(x[i]), ".9g").encode() + end[i].tobytes())
        out[i] = np.frombuffer(text.replace(b"\0", b"").ljust(32, b"\0"),
                               np.uint32)
