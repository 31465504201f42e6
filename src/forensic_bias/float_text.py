"""repr's text of many floats at once, as bytes, computed on their uint64 bit patterns.

shortest_texts(bits, sep) returns the UTF-8 bytes of float.__repr__(v) +
sep for every float v, without calling it; sep is "", "," or CR LF, the
separators of a CSV field.  A finite nonzero float's shortest decimal
that reads back to it is found by Schubfach (Giulietti 2020, the
algorithm of the JDK's Double.toString): JDK DoubleToDecimal.toDecimal
on arrays, with the two changes that give repr's digits.  The digits are
then laid out by repr's rules: fixed notation when the decimal point
position is in [-3, 16], else d.ddde±XX with at least two exponent
digits, a leading "-" on negatives, and ".0" on integral values.  Zeros,
infinities and NaNs go through repr, and sep is added to their text.

Each block of values becomes a uint8 character table, one row of slots
per value (digits, exponent digits and the constant characters, the
separators' among them), and each value's text is a gather of its
layout's slots: one row of slot numbers per (sign, digit count, decimal
point) key that occurs, built once and cached, with the separator's slots
appended, so a field's separator costs no step of its own.  The gathered
characters, viewed as a fixed-width bytes array, are assigned into the
object array returned, which makes the bytes objects; NUL padding drops
off.

Outputs calls this for float columns of at least outputs._SHORTEST_MIN
distinct values: a call costs ≈0.3 ms whatever its size, so smaller
columns are faster through repr.
"""

from __future__ import annotations

import functools

import numpy as np

from . import seeding

# seeding binds its numpy constants at its first draw; this module needs some at import.
seeding._bind_constants()
from .seeding import _LIMB, _U1, _U32, _U63, _mulhi

__all__ = ["shortest_texts"]

# Values per block: a block's uint64 temporaries stay at 32 kB each.
# Blocks of 4,096 beat blocks of 2,048 on propagation's columns, and blocks
# of 1,024 lose much of the gain to the per-call cost.
_BLOCK = 4096
# Rows per character gather: its intp index takes 8 bytes a character, so
# no array of a block passes ≈200 kB.  Larger arrays were handed back to
# the system after every block and cost more in page faults than they saved.
_GATHER_ROWS = 1024


# Schubfach (Giulietti 2020, the algorithm of the JDK's Double.toString),
# on uint64 arrays.  A finite nonzero float is c * 2**q with an integer c;
# the decimal exponent k = floor(log10(2**q)) picks the column of g, 10**-k
# as a 126-bit integer rounded up, and g times c places the float and the
# ends of its rounding interval on the 10**k grid.
_K_MIN, _K_MAX = -324, 292
_Q_MIN = -1074  # the exponent of the smallest subnormal, 5e-324
_U2, _U10, _U52, _U64 = np.uint64(2), np.uint64(10), np.uint64(52), np.uint64(64)
_MASK63 = np.uint64(2**63 - 1)
_MANTISSA = np.uint64(2**52 - 1)
_HIDDEN_BIT = np.uint64(2**52)
_FINITE_MAX = np.uint64(0x7FEFFFFFFFFFFFFF)  # the largest float's bits, less the sign
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_POINT_MIN, _POINT_MAX = -323, 309  # of 5e-324 and 1.7976931348623157e308


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on its first call in a process.

    - g: column k - _K_MIN holds floor(10**-k * 2**(125 - r)) + 1, with r
      the power of two that makes it a 126-bit number: the 32-bit limbs
      of its low and high 63-bit halves g0 and g1, then g1 and g0.  Built
      from successive powers of ten.
    - The characters and the trailing zeros of every four-digit group.
    - The layout form of each decimal point position (see _layout).
    """
    powers = [1]
    for _ in range(-_K_MIN):
        powers.append(powers[-1] * 10)
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = powers[abs(k)]
        if k <= 0:  # 10**-k = p, an integer
            value = (p << 125 >> (p.bit_length() - 1)) + 1
        else:  # 10**-k = 1 / p, and 2**(bit_length - 1) < p < 2**bit_length
            value = (1 << 125 + p.bit_length()) // p + 1
        g0, g1 = value & 2**63 - 1, value >> 63
        g.append((g0 & 0xFFFFFFFF, g0 >> 32, g1 & 0xFFFFFFFF, g1 >> 32, g1, g0))
    # int16 and uint8: the tables of a process's first kernel call set its
    # peak memory, so they are built small.
    quotients = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = quotients - quotients // 10 * 10
    trailing = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
    point = np.arange(_POINT_MIN, _POINT_MAX + 1)
    exponent = np.abs(point - 1)
    forms = np.where((point >= -3) & (point <= 16), point + 3, 20 + 2 * (point < 1) + (exponent >= 100))
    return np.array(g, dtype=np.uint64).T.copy(), (digits + ord("0")).astype(np.uint8), trailing, forms


def _round_to_odd(x1: np.ndarray, y1: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """The JDK's rop(g1, g0, cp) from x1 = hi64(g0 * cp) and (y1, y0) = g1 * cp.

    That is g * cp / 2**127, its last bit set when inexact.
    """
    z = (y0 >> _U1) + x1
    return (y1 + (z >> _U63)) | ((z & _MASK63) != 0)


def _add_shifted(
    hi: np.ndarray, lo: np.ndarray, g: np.ndarray, s: np.ndarray, sign: int
) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) + sign * g * 2**s on 128-bit words, for g < 2**63 and 0 < s < 64."""
    g_lo = g << s
    g_hi = g >> (_U64 - s)
    if sign > 0:
        low = lo + g_lo
        return hi + g_hi + (low < lo), low
    low = lo - g_lo
    return hi - g_hi - (low > lo), low


def _shortest_decimal(bits: np.ndarray, g_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with f * 10**e the shortest decimal that rounds to each finite nonzero float.

    JDK DoubleToDecimal.toDecimal on arrays, with two changes that give
    repr's digits: the coarser 10**(k+1) candidate is tried at every s, not
    only at s >= 100, since Java keeps two digits where one reads back; and
    both branches return the exponent k + dk, so that the coarser candidate
    of 5e-324 and 1e-323 (dk = -1) is scaled right too.  Of two shortest
    decimals the one nearer the float wins, an even last digit on a tie.
    f may end in zeros.
    """
    biased = (bits >> _U52) & np.uint64(0x7FF)
    t = bits & _MANTISSA
    normal = biased != 0
    # 5e-324 and 1e-323 are scaled by 10, so that s has two digits (dk = -1).
    tiny = ~normal & (t < np.uint64(3))
    c = np.where(normal, t | _HIDDEN_BIT, np.where(tiny, t * _U10, t))
    q = np.maximum(biased.astype(np.int64), 1) + (_Q_MIN - 1)
    # A power of two above the smallest normal has a closer lower neighbour.
    irregular = (t == 0) & (biased > _U1)
    # floor(q log10(2)), or floor(q log10(2) + log10(3/4)) on irregular spacing.
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = g_table.take(k - _K_MIN, axis=1)
    # v, and the ends of its rounding interval, 2 and 2 or 1 units of
    # cb = 4c away: rop(g, cb << h) and the same at cb + 2 and cb - 2 (or
    # cb - 1 on irregular spacing).  The 128-bit products g0 * cp and
    # g1 * cp of the ends are those of the middle plus or minus g0 and g1
    # times a power of two.
    cp = c << (h + _U2)
    c0, c1 = cp & _LIMB, cp >> _U32
    x1, x0 = _mulhi(g[0], g[1], c0, c1), g[5] * cp
    y1, y0 = _mulhi(g[2], g[3], c0, c1), g[4] * cp
    vb = _round_to_odd(x1, y1, y0)
    right, left = h + _U1, h + _U1 - irregular
    vbl = _round_to_odd(
        _add_shifted(x1, x0, g[5], left, -1)[0], *_add_shifted(y1, y0, g[4], left, -1)
    ) + (c & _U1)
    vbr = _round_to_odd(
        _add_shifted(x1, x0, g[5], right, 1)[0], *_add_shifted(y1, y0, g[4], right, 1)
    ) - (c & _U1)
    s = vb >> _U2
    # The one multiple of 10**(k+1) in the rounding interval, if any.
    sp10 = (s // _U10) * _U10
    upin = vbl <= sp10 << _U2
    wpin = (sp10 << _U2) + np.uint64(40) <= vbr
    # Else s or s + 1 on the 10**k grid, whichever lies in it, or is nearer.
    uin = vbl <= s << _U2
    win = (s << _U2) + np.uint64(4) <= vbr
    mid = (s << _U2) + _U2
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & ((s & _U1) == _U1)))
    return np.where(upin != wpin, sp10 + wpin * _U10, s + up), k - tiny


# Columns of a kernel block's character table: 16 four-character groups'
# worth of digits 1-16, then digit 0 and the exponent's three digits, then
# the constants.  _layout rows and _SEPARATORS name these slots.
_D0, _EXP100, _EXP10, _EXP1, _ZERO, _DOT, _MINUS, _E, _PLUS, _COMMA, _CR, _LF, _NUL = range(16, 29)
_DIGIT_SLOTS = [_D0, *range(16)]
_CONSTANTS = np.frombuffer(b"0.-e+,\r\n\0\0\0\0", dtype=np.uint32)[:, None, None]
_SEPARATORS = {"": (), ",": (_COMMA,), "\r\n": (_CR, _LF)}
# A layout key: (sign * 17 + digits - 1) * 24 + form, where form 0-19 is
# fixed notation with the decimal point at -3..16, and 20-23 scientific
# notation with a positive or negative exponent of two or three digits.
_FORMS = 24
_N_KEYS = 2 * 17 * _FORMS


@functools.cache
def _layout(key: int) -> tuple[int, ...]:
    """The character slots of repr's text for one layout key."""
    negative, rest = divmod(key, 17 * _FORMS)
    n_digits, form = divmod(rest, _FORMS)
    digits = _DIGIT_SLOTS[: n_digits + 1]
    row = [_MINUS] if negative else []
    if form < 20:  # 0.000ddd, dd.ddd or ddd00.0
        point = form - 3
        if point <= 0:
            row += [_ZERO, _DOT, *[_ZERO] * -point, *digits]
        elif point < len(digits):
            row += [*digits[:point], _DOT, *digits[point:]]
        else:
            row += [*digits, *[_ZERO] * (point - len(digits)), _DOT, _ZERO]
    else:  # d.ddde+XX
        row += [digits[0], *([_DOT, *digits[1:]] if len(digits) > 1 else [])]
        row += [_E, _MINUS if form >= 22 else _PLUS, *([_EXP100] if form % 2 else []), _EXP10, _EXP1]
    return tuple(row)


def _block_texts(bits: np.ndarray, tables: tuple[np.ndarray, ...], tail: tuple[int, ...], out: np.ndarray) -> None:
    """Into out, repr of each finite nonzero float of a block as bytes, from its bits, followed by the tail slots."""
    g_table, group_chars, group_zeros, forms = tables
    n = bits.size
    f, e = _shortest_decimal(bits, g_table)
    # f as 17 digits, d0 then four groups of four (f < 10**17 < 2**63), and
    # the decimal point of the text 0.d0d1... * 10**point.
    length = np.searchsorted(_POW10, f, side="right")
    point = e + length
    f = (f * _POW10[17 - length]).view(np.int64)
    d0 = f // 10**16
    rest = f - d0 * 10**16
    halves = np.empty((2, n), dtype=np.int64)
    np.floor_divide(rest, 10**8, out=halves[0])
    np.subtract(rest, halves[0] * 10**8, out=halves[1])
    groups = np.empty((2, 2, n), dtype=np.int64)
    np.floor_divide(halves, 10**4, out=groups[:, 0])
    np.subtract(halves, groups[:, 0] * 10**4, out=groups[:, 1])
    groups = groups.reshape(4, n)
    zeros = group_zeros.take(groups)
    trailing = zeros[0]
    for i in (1, 2, 3):
        trailing = zeros[i] + (groups[i] == 0) * trailing
    chars = np.empty((8, n, 4), dtype=np.uint8)
    group_chars.take(groups, axis=0, out=chars[:4])
    group_chars.take(np.abs(point - 1), axis=0, out=chars[4])
    chars[4, :, 0] = d0 + ord("0")
    chars[5:].view(np.uint32)[...] = _CONSTANTS
    key = forms.take(point - _POINT_MIN)
    key += (16 - trailing.astype(np.intp)) * _FORMS
    key += (bits >> _U63).astype(np.intp) * (17 * _FORMS)
    present = np.flatnonzero(np.bincount(key, minlength=_N_KEYS))
    rows = [_layout(k) + tail for k in present.tolist()]
    width = max(map(len, rows))
    slots = np.array([row + (_NUL,) * (width - len(row)) for row in rows])
    # Slot s of row i is chars[s // 4, i, s % 4].
    slots = (slots >> 2) * (4 * n) + (slots & 3)
    row_of_key = np.zeros(_N_KEYS, dtype=np.intp)
    row_of_key[present] = np.arange(present.size)
    layout = row_of_key.take(key)
    flat = chars.ravel()
    for start in range(0, n, _GATHER_ROWS):
        stop = min(n, start + _GATHER_ROWS)
        index = slots.take(layout[start:stop], axis=0)
        index += np.arange(4 * start, 4 * stop, 4)[:, None]
        out[start:stop] = flat.take(index).view(f"S{width}").ravel()


def shortest_texts(bits: np.ndarray, sep: str = "") -> np.ndarray:
    """repr of the floats with these uint64 bit patterns, each followed by sep, as an object array of bytes.

    sep is "", "," or "\\r\\n"; any other is a KeyError.  Zeros,
    infinities and NaNs go through repr; the others through
    _shortest_decimal and _layout, in blocks of at most _BLOCK.
    """
    tail = _SEPARATORS[sep]
    special = (bits & _MASK63) - _U1 >= _FINITE_MAX
    regular = bits[~special]
    texts = np.empty(regular.size, dtype=object)
    sections = -(-regular.size // _BLOCK)
    for block, into in zip(np.array_split(regular, sections), np.array_split(texts, sections)) if sections else ():
        _block_texts(block, _tables(), tail, into)
    if regular.size == bits.size:
        return texts
    out = np.empty(bits.size, dtype=object)
    out[special] = [(repr(v) + sep).encode() for v in bits[special].view(np.float64).tolist()]
    out[~special] = texts
    return out
