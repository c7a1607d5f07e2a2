"""CSV rows in which each value is b"%.17g" % v of the stored double, byte for byte.

One numpy kernel formats a block of rows at a time.  It scales |v| by
10^(16 - E), E = floor(log10 |v|), in double-double arithmetic (Dekker's
two-product with a table of 10^k = hi + lo), which leaves the 17-digit
integer and its fraction with an absolute error below 1e-14.  The digits
come from a table of 4-digit groups, and a mask per form (sign, %g's fixed
or exponent notation, significant digits) lays them out.  A value goes
through Python's % instead when its fraction lies within 1e-9 of 1/2, when
the integer misses [10^16, 10^17) (E off by one, or a rounding carry), or
when |v| lies outside [1e-280, 1e280]; 0, -0, inf, -inf and nan have
layouts of their own.  The tables are built on the first call.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# rows per block, which bounds the kernel's temporaries: with five columns
# its largest array, the 48-byte source rows, is 90 KB, under glibc's 128 KB
# mmap threshold.  384 measured about as fast as 512 on a 1000-row profile,
# and a fresh `dbisol solve` peaked 0.4 MB lower
BLOCK_ROWS = 384
# magnitudes scaled in double-double; a value outside, or one whose rounding
# the scaled error cannot decide, is formatted by Python's %
_RANGE = (1e-280, 1e280)
_POW_MIN = -300
# A value's source row holds every byte its text can hold, in text order:
#   0-7    sign, "0.000", d0, "."   (sign, "inf" or "nan" for those)
#   8-39   d1 "." d2 "." ... d16 "."
#   40-44  "e", the exponent's sign and its 2 or 3 digits
#   47     the separator
# A mask keeps the bytes of the value's form; zero bytes are dropped.
_SLOTS = 48
# forms: %g's fixed notation for exponents -4..16, the exponent form, inf, nan
_FIXED = range(-4, 17)
_EXP, _INF, _NAN = range(len(_FIXED), len(_FIXED) + 3)
_FORMS = _NAN + 1


class _Tables(NamedTuple):
    pow_hi: np.ndarray       # 10^k = hi + lo, k in [-300, 300]; hi = hh + hl
    pow_hh: np.ndarray
    pow_hl: np.ndarray
    pow_lo: np.ndarray
    pairs: np.ndarray        # "d.d.d.d." of each 4-digit group, as uint64
    last_digit: np.ndarray   # group j: position of its last non-zero digit in d1..d16
    form_key: np.ndarray     # mask key of each decimal exponent, 17 * form
    exponent: np.ndarray     # bytes 40-43 of each decimal exponent, as uint32
    exponent_3: np.ndarray   # byte 44: the third exponent digit, or 0
    heads: np.ndarray        # bytes 0-7 for d0 = 0..9, then inf and nan
    masks: np.ndarray        # (sign, form, significant digits - 1) -> slots kept


def _mask(neg: bool, form: int, nd: int) -> bytes:
    """Slots of the source row that spell one form with nd significant digits."""
    row = bytearray(_SLOTS)
    row[0] = neg and form != _NAN
    if form < _EXP:
        x = _FIXED[form]
        n = nd if x < 0 else max(nd, x + 1)
        row[6:6 + 2 * n:2] = b"\1" * n
        if x < 0:
            row[1:2 - x] = b"\1" * (1 - x)
        elif nd > x + 1:
            row[7 + 2 * x] = 1
    elif form == _EXP:
        row[6:6 + 2 * nd:2] = b"\1" * nd
        row[7] = nd > 1
        row[40:45] = b"\1" * 5
    else:
        row[1:4] = b"\1" * 3
    row[-1] = 1
    return bytes(row)


@functools.cache
def _tables() -> _Tables:
    """The kernel's tables, built on the first CSV written.

    10^k = hi + lo with hi the nearest double and lo the nearest double to
    the remainder, both from exact integers (CPython rounds int / int
    correctly); hi comes with its Dekker split.
    """
    hi, lo = [], []
    m = 10 ** -_POW_MIN
    for _ in range(-_POW_MIN):
        h = 1 / m
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((den - num * m) / (den * m))
        m //= 10
    for _ in range(1 - _POW_MIN):
        hi.append(float(m))
        lo.append(float(m - int(hi[-1])))
        m *= 10
    hi = np.array(hi)
    c = hi * 134217729.0
    hh = c - (c - hi)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    pairs = np.full((10000, 8), ord("."), dtype=np.uint8)
    pairs[:, ::2] = digits + ord("0")
    last = np.zeros(10000, dtype=np.uint8)
    for j in range(4):
        last = np.where(digits[:, j] != 0, np.uint8(j + 1), last)
    last_digit = np.array([np.where(last > 0, last + 4 * j, 0) for j in range(4)],
                          dtype=np.uint8)
    exps = range(_POW_MIN, 1 - _POW_MIN)
    form = [x - _FIXED[0] if x in _FIXED else _EXP for x in exps]
    text = [b"e%+03d\0" % x for x in exps]
    heads = b"".join(b"-0.000%d." % i for i in range(10)) + b"-inf\0\0\0\0-nan\0\0\0\0"
    masks = b"".join(_mask(bool(s), f, nd) for s in (0, 1)
                     for f in range(_FORMS) for nd in range(1, 18))
    return _Tables(
        hi, hh, hi - hh, np.array(lo), pairs.view(np.uint64).ravel(),
        last_digit, 17 * np.array(form),
        np.frombuffer(b"".join(t[:4] for t in text), dtype=np.uint32),
        np.frombuffer(b"".join(t[4:5] for t in text), dtype=np.uint8),
        np.frombuffer(heads, dtype=np.uint64),
        np.frombuffer(masks, dtype=np.dtype((np.void, _SLOTS))))


def _digits(x: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit integer and decimal exponent of each |x|, and where both hold.

    Where they do not (0, inf, nan, |x| outside the range, a rounding the
    error cannot decide), both are 0.
    """
    ax = np.abs(x)
    ok = (ax >= _RANGE[0]) & (ax <= _RANGE[1])
    v = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(v)).astype(np.intp)
    # v * 10^(16 - e) = p + r to within 1e-14: Dekker's two-product of v and
    # hi, plus v * lo; p is an integer
    k = 16 - _POW_MIN - e
    hh = t.pow_hh.take(k)
    hl = t.pow_hl.take(k)
    p = v * t.pow_hi.take(k)
    c = v * 134217729.0
    vh = c - (c - v)
    vl = v - vh
    r = vl * hl - (((p - vh * hh) - vl * hh) - vh * hl) + v * t.pow_lo.take(k)
    whole = np.floor(r)
    frac = r - whole
    whole = p.astype(np.int64) + whole.astype(np.int64)
    d = whole + (frac > 0.5)
    # 17 digits at exponent e, and a rounding that no error can flip
    ok &= (whole >= 10 ** 16) & (d < 10 ** 17) & (np.abs(frac - 0.5) > 1e-9)
    if not ok.all():
        d *= ok
        e *= ok
    return d, e, ok


def _block(x: np.ndarray, cols: int) -> bytes:
    """Rows of cols values each, as CSV lines of b"%.17g" % v."""
    t = _tables()
    d, e, ok = _digits(x, t)
    regular = ok.all()
    head, rest = np.divmod(d, 10 ** 16)
    g = np.empty((x.size, 4), dtype=np.int64)
    np.divmod(rest, 10 ** 8, out=(g[:, 0], g[:, 2]))
    np.divmod(g[:, ::2], 10 ** 4, out=(g[:, ::2], g[:, 1::2]))
    last = [t.last_digit[j].take(g[:, j]) for j in range(4)]
    e -= _POW_MIN
    key = t.form_key.take(e) + np.maximum(np.maximum(last[0], last[1]),
                                          np.maximum(last[2], last[3]))
    if not regular:
        for special, form in ((np.isinf(x), _INF), (np.isnan(x), _NAN)):
            key[special] = 17 * form
            head[special] = 10 + form - _INF
    key += np.signbit(x) * (17 * _FORMS)

    src = np.empty((x.size, _SLOTS), dtype=np.uint8)
    words = src.view(np.uint64)
    words[:, 0] = t.heads.take(head)
    words[:, 1:5] = t.pairs.take(g)
    words[:, 5] = 0
    src.view(np.uint32)[:, 10] = t.exponent.take(e)
    src[:, 44] = t.exponent_3.take(e)
    src[:, -1] = ord(",")
    src[cols - 1::cols, -1] = ord("\n")
    mask = t.masks.take(key).view(np.bool_).reshape(src.shape)
    slow = () if regular else np.flatnonzero(~ok & np.isfinite(x) & (x != 0))
    if len(slow):
        fallback = b"".join((b"%.17g" % y).ljust(24, b"\0") for y in x[slow].tolist())
        src[slow, :24] = np.frombuffer(fallback, dtype=np.uint8).reshape(-1, 24)
        mask[slow, :-1] = False
        mask[slow, :24] = src[slow, :24] != 0
    np.multiply(src, mask, out=src)
    return src.tobytes().translate(None, b"\0")


def csv_rows(table) -> bytes:
    """CSV lines of a 2-D float array, each value b"%.17g" % v byte for byte."""
    a = np.asarray(table, dtype=float)
    step = BLOCK_ROWS
    return b"".join(_block(a[r:r + step].ravel(), a.shape[1])
                    for r in range(0, len(a), step))
