"""Exact float64 text in both directions, computed with numpy.

`cells(values)` gives the bytes of each float's `repr` as one row of a
NUL-padded (rows, width) uint8 matrix, the cell layout the JSONL writer uses.
Digits follow Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) as in the JDK's DoubleToDecimal, without its two-digit minimum: `repr`
prints the shortest digits that read back to the same double, the closest
of those if several (Steele & White, PLDI 1990). The 64x64->128-bit products
run on 32-bit halves in uint64 lanes, and the text is assembled in three
little-endian uint64 words per lane. Subnormal, infinite and NaN lanes, rare
in any log, take `repr` one at a time.

`parse(buf, begins, lengths)` reads a column of JSON number tokens as
json.loads does. Each token is taken as the last bytes of a 32-byte row, its
classes of byte (digit, point, e, sign) as bit masks, and its last 24 bytes
as three little-endian uint64 words: up to 19 significant digits become one
uint64 w with the SWAR step above run in reverse, with a decimal exponent q.
w 10**q is rounded by Eisel-Lemire (D. Lemire, "Number parsing at a
gigabyte per second", 2021), exact without fallback for such w (N. Mushtak
and D. Lemire, 2023). It leaves longer tokens, those that are not JSON
numbers, and the rare lanes that no rule above decides to the caller.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


_Q_MIN, _Q_MAX = -342, 308  # w 10**q rounds to zero below, to infinity above, for 0 < w < 2**64
_M64, _INF = (1 << 64) - 1, 0x7FF << 52
_ROW, _TOP = 32, 1 << 24  # parse's rows of 32 bytes pack their flags into a uint32; it reads the last 24


@functools.cache
def _p5_table() -> np.ndarray:
    """(2, q) uint64 halves of 5**q scaled into [2**127, 2**128), truncated; 5**-q's reciprocal rounded up
    (the table of fast_float, which Eisel-Lemire needs)."""
    table = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        p = 5 ** abs(q)
        if q >= 0:
            c = p << max(128 - p.bit_length(), 0) >> max(p.bit_length() - 128, 0)
        else:
            b = p.bit_length() + 127 if q >= -27 else 2 * p.bit_length() + 128
            c = (1 << b) // p + 1
            c >>= max(c.bit_length() - 128, 0)
        table.append((c >> 64, c & _M64))
    return np.array(table, dtype=np.uint64).T.copy()


def _top_bit(x):
    """Index of each non-zero uint64's highest set bit, as int64."""
    e = (x.astype(np.float64).view(np.uint64) >> 52).astype(np.int64) - 1023
    return e - ((x >> e.astype(x.dtype)) == 0)  # the conversion may round up to the next power of two


def _unswar8(x):
    """The value of 8 digit values in the bytes of one little-endian word, most significant first."""
    x = x * 10 + (x >> 8)
    pairs, high_pairs = x & 0x0000_00FF_0000_00FF, (x >> 16) & 0x0000_00FF_0000_00FF
    return (pairs * (100 + (1_000_000 << 32)) + high_pairs * (1 + (10_000 << 32))) >> 32


def _eisel_lemire(w, q):
    """(bits, undecided) of the double nearest w 10**q for each 0 < w < 2**64 (fast_float's compute_float)."""
    qi = np.clip(q, _Q_MIN, _Q_MAX)
    hi5, lo5 = (table[qi - _Q_MIN] for table in _p5_table())
    lz = 63 - _top_bit(w)
    w = w << lz.astype(np.uint64)
    w_hi, w_lo = w >> 32, w & _M32
    hi, lo = _mulhi(w_hi, w_lo, hi5 >> 32, hi5 & _M32), w * hi5
    i = np.flatnonzero((hi & 0x1FF) == 0x1FF)  # the truncated power may matter: add the product's next word
    if len(i):
        second = _mulhi(w_hi[i], w_lo[i], lo5[i] >> 32, lo5[i] & _M32)
        low = lo[i] + second
        hi[i] += low < second
        lo[i] = low
    upper = hi >> 63
    mantissa = hi >> (upper + 9)  # 54 bits
    power2 = ((217_706 * qi) >> 16) + 63 + upper.astype(np.int64) - lz + 1023
    # Round half up, but an exact tie to even; a carry raises the exponent.
    m = mantissa
    near = (qi >= -4) & (qi <= 23)  # only there can the product be exact, and a tie
    if near.any():
        m = m - (near & (lo <= 1) & ((m & 3) == 1) & ((m << (upper + 9)) == hi))
    m = (m + (m & 1)) >> 1
    bits = np.minimum(((power2 - 1).astype(np.uint64) << 52) + m, _INF)
    tiny = power2 <= 0
    if tiny.any():  # subnormal: shifted down to the least exponent, then rounded; a carry makes it normal
        m = mantissa >> np.minimum(1 - power2, 64).astype(np.uint64)
        bits = np.where(tiny, (m + (m & 1)) >> 1, bits)
    if (q != qi).any():
        bits = np.where(q < _Q_MIN, 0, np.where(q > _Q_MAX, _INF, bits))
    return bits, (lo == _M64) & ((qi < -27) | (qi > 55))  # the original algorithm's fallback cases


def parse(buf: np.ndarray, begins: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, left): the float64 json.loads reads from each token buf[begins[i] : begins[i] + lengths[i]]
    of a uint8 buffer, except at the indices `left`, whose tokens are not JSON numbers as the lanes
    see them, or are more than the lanes hold."""
    if len(buf) < _ROW:
        buf, begins = np.concatenate([np.zeros(_ROW, dtype=np.uint8), buf]), begins + _ROW
    ends = begins + lengths
    rows = np.maximum(ends - _ROW, 0)
    text = sliding_window_view(buf, _ROW)[rows]  # each token at the end of a row
    for i in np.flatnonzero(rows > ends - _ROW):  # the first tokens, whose row would begin before the buffer
        text[i] = np.roll(text[i], _ROW - ends[i])
    text -= ord("0")  # digits become their values
    s = 24 - np.minimum(lengths, 24)  # the token's first byte, in the row's last 24
    inside = _TOP - (1 << s)

    # Bit i of each lane's masks: byte 8 + i is in the token and a digit, a zero, a point, an e or E, ...
    def mask(flags):
        return (np.packbits(flags, bitorder="little").view(np.uint32) >> 8).astype(np.int64) & inside

    d = mask(text < 10)
    z, p, e, minus, plus, big_e = (mask(text == (ord(c) - ord("0")) % 256) for c in "0.e-+E")
    e |= big_e
    # The grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)? on the token's last 24 bytes, bits [s, 24)
    negative = (minus >> s) & 1
    first = s + negative  # the first digit
    end = e | (_TOP & (e - 1))  # the bit after the significand: the e, or 24
    signed = ((e << 1) & (minus | plus)) != 0  # the exponent has a sign
    ok = (d | p | e | minus | plus) == inside
    ok &= ((minus & ~((1 << s) | (e << 1))) == 0) & ((plus & ~(e << 1)) == 0)
    ok &= ((d >> first) & 1 == 1) & (((z >> first) & 1 == 0) | ((d >> first) & 2 == 0))  # no leading zero
    ok &= ((p & (p - 1)) == 0) & ((e & (e - 1)) == 0)
    ok &= (p == 0) | (((p >> 1) & d != 0) & ((p << 1) & d != 0) & (p < end))
    ok &= (e == 0) | (((e >> 1) & d != 0) & ((e << 1 << signed) & d != 0))
    # The significand's digits [first, stop) without the point, moved to end at byte 24, then the exponent's.
    stop = _top_bit(end)
    point = _top_bit(p | (end & (p - 1)))  # or stop
    has_point = (p != 0).astype(np.int64)
    tail = 24 - stop  # bytes of the exponent part
    words = list(np.ascontiguousarray(text.view(np.uint64)[:, 1:].T))
    after = _moved([w & ~b for w, b in zip(words, _below(point + 1))], tail)
    before = _moved([w & b & ~f for w, b, f in zip(words, _below(point), _below(first))], tail + has_point)
    v0, v1, v2 = (_unswar8(x | y) for x, y in zip(after, before))
    w = v0 * 10**16 + v1 * 10**8 + v2
    q = has_point * (point + 1 - stop)
    if e.any():
        exponent = _unswar8(words[2] & ~_BELOW[2][24 - np.maximum(tail - 1 - signed, 0)]).astype(np.int64)
        q += exponent * (1 - 2 * ((minus >> (stop + 1)) & 1))
    undecided = (lengths > 24) | (tail + has_point > 7) | (v0 >= 1000)  # v0 < 1000: at most 19 digits
    bits, ambiguous = _eisel_lemire(np.maximum(w, 1), q)
    bits *= w != 0
    undecided |= ambiguous
    integer = (p | e) == 0
    bits |= (negative.astype(bool) & ~(integer & (w == 0))).astype(np.uint64) << 63  # json reads -0 as 0
    return bits.view(np.float64), np.flatnonzero(~ok | undecided)
