"""``'%.12g'`` for float arrays, byte for byte as Python's ``'%.12g' % x``.

``dist._write_table`` imports this module on the first float column it
writes, so a run that writes no float table neither compiles it nor
builds its tables.

A cell is three little-endian 8-byte words: the sign and, below decimal
exponent X = 0, the "0." and zeros before the digits; then sixteen slots
that hold the twelve digits and the decimal point, NUL-padded. The writer
deletes the NUL bytes.
"""

import numpy as np

from .dist import _WORD


def _words(cells) -> np.ndarray:
    return np.ascontiguousarray(cells, np.uint8).view(_WORD)


def _slots(mask) -> np.ndarray:
    """0xff in the digit slots where ``mask``: one contiguous row per digit word, one column per case."""
    return _words(np.where(mask, 255, 0)).T.copy()


_POW10 = np.cumprod(np.r_[1.0, np.full(15, 10.0)])  # 10**k for k = 0..15, each exact
_D = [np.arange(10, dtype=np.uint8).reshape([10 if i == k else 1 for i in range(4)]) for k in range(4)]
_DIGITS4 = sum((d + ord("0")).astype(_WORD) << 8 * k for k, d in enumerate(_D)).ravel()  # "0000".."9999"
_ZEROS4 = ((_D[3] == 0) * (1 + (_D[2] == 0) * (1 + (_D[1] == 0) * (1 + (_D[0] == 0))))).astype(np.uint8).ravel()
_SLOT, _EXP = np.arange(16), np.arange(-4, 12)[:, None]  # the fixed-notation exponent X is case X + 4
_KEEP = _slots(_SLOT <= np.arange(12)[:, None])  # digits 0..k, case k
_UNSHIFTED = _slots(_SLOT <= _EXP)  # integer digits: slot j holds digit j
_SHIFTED = _slots(_SLOT >= _EXP + 2)  # fraction digits: slot j holds digit j - 1
_POINT = _words(np.where((_SLOT == _EXP + 1) & (_EXP >= 0), ord("."), 0)).T.copy()
_HEAD = np.zeros((16, 2, 8), np.uint8)  # case (X + 4, negative): "-", then "0." and -X - 1 zeros if X < 0
_HEAD[:, 1, 0] = ord("-")
_HEAD[:4, :, 1:6] = np.where(np.arange(5) < 1 - _EXP[:4], np.frombuffer(b"0.000", np.uint8), 0)[:, None]
_HEAD = _words(_HEAD).ravel()


def format_g12(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``'%.12g' % x`` for each float x of ``v`` into ``out``, three words per cell.

    A cell in fixed notation (decimal exponent X in [-4, 11]) is formatted
    here where its digits are proven: s = |x| * 10**(11 - X) takes one
    rounding, so it is within 2**-14 of the exact scaled value below 2**40;
    where 1e11 <= s < 1e12 - 0.5 and s lies more than 1e-3 from a
    half-integer, rint(s) is the correctly rounded 12-digit string and X its
    exponent, whatever log10 estimated. Python formats every other cell:
    zeros, inf, nan, exponent notation, near-ties and carries. Returns the
    indices of the cells Python formatted.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.floor(np.log10(a))
        ok = (x >= -4.0) & (x <= 11.0)
        x = np.where(ok, x, 0.0).astype(np.intp)
        s = a * _POW10[11 - x]
        ok &= (s >= 1e11) & (s < 1e12 - 0.5) & (np.abs(s - np.floor(s) - 0.5) > 1e-3)
    top, low = np.divmod(np.rint(np.where(ok, s, 1e11)).astype(np.int64), 10_000)
    top, mid = np.divmod(top, 10_000)
    lead = _DIGITS4[top] | (_DIGITS4[mid] << 32)  # digits 0-7
    tail = _DIGITS4[low]  # digits 8-11
    zeros = _ZEROS4[low] + np.where(low == 0, _ZEROS4[mid] + np.where(mid == 0, _ZEROS4[top], 0), 0)
    last = np.maximum(11 - zeros, x)  # trailing zeros go, integer digits stay; top >= 1000, so zeros <= 11
    lead &= _KEEP[0][last]
    tail &= _KEEP[1][last]
    case, frac = x + 4, x < last
    out[:, 0] = _HEAD[2 * case + (v < 0)]
    out[:, 1] = (lead & _UNSHIFTED[0][case]) | ((lead << 8) & _SHIFTED[0][case]) | (_POINT[0][case] * frac)
    carry = (tail << 8) | (lead >> 56)
    out[:, 2] = (tail & _UNSHIFTED[1][case]) | (carry & _SHIFTED[1][case]) | (_POINT[1][case] * frac)
    rest = np.flatnonzero(~ok)
    if rest.size:
        out[rest] = np.array(["%.12g" % c for c in v[rest].tolist()], dtype="S24").view(_WORD).reshape(-1, 3)
    return rest
