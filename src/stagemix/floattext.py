"""Exact shortest round-trip text of float64 arrays, computed with numpy.

`cells(values)` gives the bytes of each float's `repr` as one row of a
NUL-padded (rows, width) uint8 matrix, the cell layout the JSONL writer uses.
Digits follow Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) as in the JDK's DoubleToDecimal, without its two-digit minimum: `repr`
prints the shortest digits that read back to the same double, the closest
of those if several (Steele & White, PLDI 1990). The 64x64->128-bit products
run on 32-bit halves in uint64 lanes, and the text is assembled in three
little-endian uint64 words per lane. Subnormal, infinite and NaN lanes, rare
in any log, take `repr` one at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that normal doubles need
_M32, _M63 = 0xFFFF_FFFF, (1 << 63) - 1
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# _BELOW[i][p]: the bytes of word i of a 24-byte string that lie before position p
_BELOW = np.array([[(1 << 8 * min(max(p - 8 * i, 0), 8)) - 1 for p in range(34)] for i in range(3)], dtype=np.uint64)
_ZEROS, _DOTS, _ONES = 0x3030_3030_3030_3030, 0x2E2E_2E2E_2E2E_2E2E, 0x0101_0101_0101_0101


def _flog2pow10(e):
    """floor(e log2(10)), exact over the doubles' range."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """(2, k) uint64 halves g1, g0 of g = g1 2**63 + g0 = floor(10**-k 2**-r) + 1, 2**125 <= g < 2**126."""
    table = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)  # so that 10**-k 2**shift lies in [2**125, 2**126)
        g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1
        table.append((g >> 63, g & _M63))
    return np.array(table, dtype=np.uint64).T.copy()


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit product of a and b, given their 32-bit halves."""
    hi_lo = a_hi * b_lo
    cross = (a_lo * b_lo >> 32) + (hi_lo & _M32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> 32) + (cross >> 32)


def _rop(g1, halves, cp):
    """Schubfach's rop(g cp 2**-127): the product's floor with a sticky low bit."""
    cp_hi, cp_lo = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(halves[2], halves[3], cp_hi, cp_lo)
    return (_mulhi(halves[0], halves[1], cp_hi, cp_lo) + (z >> 63)) | ((z & _M63) + _M63 >> 63)


def _shortest(bits: np.ndarray):
    """(d, k): d 10**k is the shortest decimal that rounds to each normal double, the closest if several."""
    biased = (bits >> 52) & 0x7FF
    fraction = bits & ((1 << 52) - 1)
    q = biased.astype(np.int64) - 1075
    c = fraction | (1 << 52)
    irregular = (fraction == 0) & (biased > 1)  # at a power of two the gap below is half the gap above
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2**q)), or of 3/4 2**q
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = (table[k - _K_MIN] for table in _g_table())
    halves = (g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)
    cb = c << 2
    vb, vbl, vbr = (_rop(g1, halves, x << h) for x in (cb, cb - 2 + irregular, cb + 2))
    out = c & 1  # an odd significand leaves the rounding interval's ends out
    s = vb >> 2
    sp10 = s // 10 * 10  # the one multiple of 10**(k+1) that can be in the interval, or the next
    upin, wpin = vbl + out <= sp10 << 2, ((sp10 + 10) << 2) + out <= vbr
    uin, win = vbl + out <= s << 2, ((s + 1) << 2) + out <= vbr
    cmp = vb.view(np.int64) - ((s << 2) + 2).view(np.int64)
    d = s + (~uin | (win & ((cmp > 0) | ((cmp == 0) & (s & 1 == 1)))))  # s if only it, or it is closer, else s + 1
    shorter = sp10 + 10 * (1 - upin.astype(np.uint64))
    return d + (upin != wpin) * (shorter - d), k  # the shorter one, if only it is in


def _swar8(x):
    """Each x < 10**8 as 8 digit values, most significant first, in the bytes of one little-endian word."""
    hi = x // 10_000
    x = hi | ((x - hi * 10_000) << 32)
    hi = ((x * 5243) >> 19) & 0x0000_007F_0000_007F  # /100 in each 32-bit lane
    x = hi | ((x - hi * 100) << 16)
    hi = ((x * 103) >> 10) & 0x000F_000F_000F_000F  # /10 in each 16-bit lane
    return hi | ((x - hi * 10) << 8)


def _top_byte(word):
    """Index of each word's highest non-zero byte, whose value is below 16 (-128 for a zero word)."""
    return ((word.astype(np.float64).view(np.uint64) >> 52).astype(np.int64) - 1023) >> 3


def _below(p):
    """Each lane's mask of the bytes before position p, per word."""
    return [table[p] for table in _BELOW]


def _moved(words, by):
    """The 3-word string moved `by` < 8 bytes towards its end."""
    bits = by.astype(np.uint64) * 8
    back = 64 - bits  # a shift by 64 gives 0 in numpy
    return [words[0] << bits, (words[1] << bits) | (words[0] >> back), (words[2] << bits) | (words[1] >> back)]


def cells(values: np.ndarray) -> np.ndarray:
    """Each float64 as the bytes of its repr, left-aligned in a NUL-padded (rows, width) uint8 matrix."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    zero = (bits << 1) == 0
    normal = (biased != 0) & (biased != 0x7FF)
    d, k = _shortest(np.where(normal, bits, 0x3FF0_0000_0000_0000))  # other lanes print 1.0 until the end
    # The digits, left-aligned to 17 = 1 + 8 + 8, as the bytes of 3 little-endian words.
    n = np.searchsorted(_POW10, d, side="right")
    aligned = d * _POW10[17 - n]
    first = aligned // 10**16
    rest = aligned - first * 10**16
    hi = rest // 10**8
    high, low = _swar8(hi), _swar8(rest - hi * 10**8)
    digits = [first | (high << 8), (high >> 56) | (low << 8), low >> 56]
    ns = np.maximum(np.maximum(1 + _top_byte(digits[0]), 9 + _top_byte(digits[1])), 17 + _top_byte(digits[2]))
    digits = [digits[0] + _ZEROS - zero, digits[1] + _ZEROS, digits[2] + 0x30]  # zeros print as 0.0 and -0.0
    # repr's layout, for a value of 0.d1d2... 10**decpt
    decpt = n + k
    negative = (bits >> 63).astype(np.int64)
    expo = (decpt <= -4) | (decpt > 16)
    z = np.maximum(1 - decpt, 0) * ~expo  # zeros after "0."
    point = np.maximum(decpt, 1)
    point += expo * (1 + 29 * (ns == 1) - point)  # 1.5e-05, or past the end: 1e-05
    body = negative + np.where(expo, ns + (ns > 1), np.maximum(z + ns, point + 1) + 1)
    exponent = np.abs(decpt - 1)
    length = body + expo * (4 + (exponent >= 100))
    # "-" and the zeros of "0.00" before the digits, then the point, then cut to the body
    text = _moved(digits, negative + z)
    for word, below, sign in zip(text, _below(negative + z), _below(negative)):
        word |= (below & _ZEROS) ^ (sign & (0x30 ^ 0x2D) * _ONES)
    p = negative + point
    moved, before, upto = _moved(text, np.ones_like(p)), _below(p), _below(p + 1)
    text = [(w & b) | (b1 & ~b & _DOTS) | (m & ~b1) for w, m, b, b1 in zip(text, moved, before, upto)]
    text = [w & b for w, b in zip(text, _below(body))]
    if expo.any():  # "e", the sign and two or three exponent digits after the body
        places = exponent // 100 | (exponent // 10 % 10) << 8 | (exponent % 10) << 16
        tail = 0x65 | (0x2B + 2 * (decpt < 1)) << 8 | ((places + 0x30_3030) >> 8 * (exponent < 100)) << 16
        tail = tail.astype(np.uint64) * expo
        low, high = tail << (body % 8 * 8).astype(np.uint64), tail >> (64 - body % 8 * 8).astype(np.uint64)
        text = [w | low * (body // 8 == i) | high * (body // 8 + 1 == i) for i, w in enumerate(text)]
    slow = np.flatnonzero(~normal & ~zero)
    slow_text = [repr(v).encode() for v in values[slow].tolist()]
    width = max([int(np.max(length, initial=0)), *map(len, slow_text)])
    text = np.stack(text, axis=1).view(np.uint8)[:, :width]
    for row, token in zip(slow.tolist(), slow_text):
        text[row] = np.frombuffer(token.ljust(width, b"\0"), dtype=np.uint8)
    return text
