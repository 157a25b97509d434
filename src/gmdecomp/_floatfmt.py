"""CSV rows of float64 values, each written as its ``repr``, a chunk of cells at a time.

``repr`` is the shortest decimal that rounds back to the double, the closest if several are.
Schubfach (Giulietti 2020, "The Schubfach way to render doubles") finds it in uint64 arithmetic
(never mixed with int64, which numpy would promote to float64). It takes one product per value:
g cb 2^h, of the 128-bit power of ten g and the scaled significand cb, as three 64-bit words; the
products of the interval's lower and upper ends are that one less g 2^(h + 1 - closer) and plus
g 2^(h + 1), carried between the words. Each of the three is then rounded to odd from its top
two words, as Schubfach rounds its three 128-bit products. The bytes follow ``repr``: fixed
form for a decimal point position (decpt) from -3 to 16, ``.0`` on an integral value, else
``d.ddde±XX``; ``-0.0``, ``nan``, ``inf``. Each cell's layout is a row of a small table indexed by
(sign, form, digit count, row end), read with one flat gather and one mask compaction.
"""

from functools import cache

import numpy as np

_CHUNK = 4096  # cells formatted at once
_WIDTH = 26  # bytes of the longest cell: "-d.dddddddddddddddde-XXX\r\n"
# A cell's source rows: 17 digits, 3 exponent digits, then these; NUL marks unused layout bytes.
_CONST = b"0.-e+,\r\nnaif\0"
_P10 = 10 ** np.arange(18, dtype=np.uint64)
_M32, _M57 = np.uint64(2**32 - 1), np.uint64(2**57 - 1)


def _mul(a, b):
    """The high and low words of a b."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low, m1, m2 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> 32) + (m2 >> 32) + (mid >> 32), (mid << 32) | (low & _M32)


def _shifted(g_hi, g_lo, s):
    """The three words of g 2^s for g = g_hi 2^64 + g_lo and 1 <= s <= 63."""
    return g_hi >> (64 - s), (g_hi << s) | (g_lo >> (64 - s)), g_lo << s


def _products(g_hi, g_lo, cb, h, closer):
    """g cp / 2^128 rounded to odd (its last bit set when bits 64-127 of g cp exceed 1) for
    cp = (cb - 2 + closer) 2^h, cb 2^h and (cb + 2) 2^h: the lower, middle and upper products,
    from the one 192-bit product g cb 2^h, less g 2^(h + 1 - closer) and plus g 2^(h + 1)."""
    (x_hi, w0), (y_hi, y_lo) = _mul(g_lo, cb << h), _mul(g_hi, cb << h)
    w1 = y_lo + x_hi
    w2 = y_hi + (w1 < x_hi)
    d2, d1, d0 = _shifted(g_hi, g_lo, h + 1 - closer)
    borrow = w0 < d0
    l1 = w1 - d1
    l2 = w2 - d2 - ((w1 < d1) | (l1 < borrow))
    l1 -= borrow
    d2, d1, d0 = _shifted(g_hi, g_lo, h + 1)
    carry = w0 + d0 < d0
    u1 = w1 + d1
    u2 = w2 + d2 + ((u1 < d1) | (u1 + carry < carry))
    u1 += carry
    return l2 | (l1 > 1), w2 | (w1 > 1), u2 | (u1 > 1)


@cache
def _tables():
    """g(j) = floor(10^j 2^-r) + 1 in [2^127, 2^128) for j in [-292, 324], as high and low
    words; then for each (sign, form, digit count, row end) key, the source row of each byte
    of the cell and its byte count."""
    j = np.arange(-292, 325, dtype=object)  # Python ints: exact
    r = (j * 1741647 >> 19) - 127
    g = 1 + (10 ** j.clip(0) << (-r).clip(0) >> r.clip(0)) // 10 ** (-j).clip(0)
    g_hi, g_lo = (g >> 64).astype(np.uint64), (g & (2**64 - 1)).astype(np.uint64)

    # forms 0-19: fixed, decpt -3..16; 20-23: exponent, + 2 if negative, + 1 with three
    # digits; 24: nan; 25: inf. q is the position after the sign, z the bytes of "0.0..".
    neg, form, n, last, pos = np.ix_(*(np.arange(a, b, dtype=np.int16)
                                        for a, b in ((0, 2), (0, 26), (1, 18), (0, 2), (0, _WIDTH))))
    col = {chr(c): 20 + i for i, c in enumerate(_CONST)}
    q, dp, z = pos - neg, form - 3, 5 - form
    mant, three = np.where(n == 1, 1, n + 1), form % 2
    size = np.select([form < 4, form < 20, form < 24],
                     [z + n, np.maximum(n + 1, dp + 2), mant + 4 + three], 3)
    body = np.select([form < 4, form < 20, form < 24], [
        np.where(q == 1, col["."], np.where(q < z, col["0"], np.clip(q - z, 0, 16))),
        np.where(q == dp, col["."], np.where(q < n + (q > dp), np.clip(q - (q > dp), 0, 16),
                                             col["0"])),
        np.select([q < mant, q == mant, q == mant + 1],
                  [np.where(q == 1, col["."], np.clip(q - (q > 0), 0, 16)), col["e"],
                   np.where(form >= 22, col["-"], col["+"])], 16 + q - mant - three)],
        np.array([col[c] for c in "naninf"])[np.clip(q, 0, 2) + 3 * (form == 25)])
    cell = np.select([pos < neg, q < size, q == size, (q == size + 1) & (last == 1)],
                     [col["-"], body, np.where(last, col["\r"], col[","]), col["\n"]], col["\0"])
    return g_hi, g_lo, cell.astype(np.uint8).reshape(-1, _WIDTH), (neg + size + 1 + last).ravel()


def _source(x, last, src):
    """Each float64 value of `x`'s layout key, once its source bytes are written to the first
    x.size columns of `src`, a column each (rows 20 on, the constants, are the caller's)."""
    g_hi, g_lo = _tables()[:2]
    bits = x.view(np.uint64)
    be, t = (bits >> 52) & 0x7FF, bits & (2**52 - 1)
    special, zero = be == 0x7FF, (bits << 1) == 0
    c = np.where(be != 0, t | 2**52, t)
    q = np.maximum(be, 1).astype(np.int64) - 1075
    closer = (t == 0) & (be > 1)  # a power of two: the lower neighbour is closer
    k = (q * 315653 - np.where(closer, 131237, 0)) >> 20
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    odd, cb = c & 1, c << 2
    lower, vb, upper = _products(g_hi[292 - k], g_lo[292 - k], cb, h, closer)
    lower, upper, s, sp = lower + odd, upper - odd, vb >> 2, vb // 40  # sp = s // 10
    short = (s >= 10) & ((lower <= 40 * sp) != (40 * sp + 40 <= upper))
    w_in, mid = 4 * s + 4 <= upper, 4 * s + 2  # mid: halfway between s and s + 1
    up = np.where((lower <= 4 * s) != w_in, w_in, (vb > mid) | ((vb == mid) & (s & 1 == 1)))
    f = np.where(special | zero, 0, np.where(short, sp + (40 * sp + 40 <= upper), s + up))

    n = np.searchsorted(_P10, f, side="right")  # digits of f
    decpt, exp = np.where(zero, 1, n + k + short), np.abs(n + k + short - 1)
    left = f * _P10[17 - n]  # the 17 digits of f, zero-padded on the right
    src = src[:, :x.size]
    frac = np.stack([left // 10**8, left % 10**8]) * np.uint64(-(-2**57 // 10**8))
    for i in range(9):  # frac holds each 9-digit half as a 57-bit fraction: take a digit of each
        src[i:i + 9:8] = frac >> 57  # the low half's first digit, 0, is overwritten at i = 8
        frac = (frac & _M57) * 10
    src[17], src[18], src[19] = exp // 100, exp // 10 % 10, exp % 10
    src[:20] += ord("0")
    nonzero = (src[:17] != ord("0")) * np.arange(1, 18, dtype=np.uint8)[:, None]
    n_sig = np.where(f == 0, 1, nonzero.max(axis=0))  # digits up to the last nonzero one

    form = np.where((decpt >= -3) & (decpt <= 16), decpt + 3, 20 + 2 * (decpt < 1) + (exp >= 100))
    form = np.where(special, 24 + (t == 0), form)
    return (((np.signbit(x) & ~(special & (t != 0))) * 26 + form) * 17 + n_sig - 1) * 2 + last


def write_rows(fh, values, heads=None):
    """Write each row of the 2-d float64 array `values` to the binary file `fh` as the reprs
    of its cells joined by "," and ended by "\\r\\n", after the row's bytes in `heads`."""
    n, k = values.shape
    heads = heads or [b""] * n
    if k == 0:
        return fh.write(b"".join(head + b"\r\n" for head in heads))
    step, (layout, sizes) = max(1, _CHUNK // k), _tables()[2:]
    width = min(step, n) * k  # the cells of the largest chunk
    last = np.arange(width) % k == k - 1
    src = np.empty((20 + len(_CONST), width), np.uint8)
    src[20:] = np.frombuffer(_CONST, np.uint8)[:, None]
    layout = layout * np.intp(width)  # each layout byte's source row as an offset into src
    for r0 in range(0, n, step):
        # the arrays that made the source bytes are freed before the gather's int64 index
        x = np.ascontiguousarray(values[r0:r0 + step], np.float64).ravel()
        key = _source(x, last[:x.size], src)
        out = np.empty((x.size, _WIDTH), np.uint8)
        for i in range(0, x.size, 1024):  # the index of 1024 cells at a time
            flat = layout[key[i:i + 1024]]
            flat += np.arange(i, min(i + 1024, x.size))[:, None]
            out[i:i + 1024] = src.ravel()[flat]
        out, ends = out[out != 0], np.cumsum(sizes[key].reshape(-1, k).sum(axis=1)).tolist()
        fh.write(b"".join(head + out[a:b].tobytes()
                          for head, a, b in zip(heads[r0:r0 + step], [0] + ends, ends)))
