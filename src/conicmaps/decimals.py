"""Exact array-valued decimal text: ``'%.17g' % v`` and ``'%.8f' % v`` of
every value of a float array, byte for byte, without a call per value.

Each value is scaled by a power of ten and rounded half to even to an
integer, exactly: '%.17g' forms the remainder of the double product
(Dekker's two-product), '%.8f' only at ties.  Digits come from 32-bit
integer division by constants, eight at a time.  A chunk's text is laid out
in one column-major uint8 array, one column a value, where a zero byte is not
text and one ``bytes.translate`` drops the zeros; the '%.8f' frame has as
many integer-digit rows as its widest rounded integer part needs, and one
``np.take`` fills the separator rows.  A value outside a format's fast domain
is formatted by ``%`` and spliced in.  This is the one number writer of the
CSV and SVG output (``geodata.write_csv``, ``render_svg``).
"""

from __future__ import annotations

import numpy as np

# Values formatted per pass, in whole rows.  It bounds the temporaries of a
# pass, about 270 bytes a value, and is large enough that the few dozen
# numpy calls of a pass cost little beside their work.
_CHUNK_VALUES = 4096

# 2**27 + 1 splits a double into two halves of at most 26 bits (Veltkamp),
# whose pairwise products are exact.
_SPLIT = 134217729.0
_POW10 = np.array([float(10**p) for p in range(23)])  # exact for p <= 22


def _halves(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _times_pow10(a, p):
    """(hi, lo): hi is a * 10**p rounded to a double and hi + lo is the exact
    product (Dekker's two-product).  numpy never fuses a multiply with an add,
    so every step rounds as written."""
    hi = a * _POW10[p]
    ah, al = _halves(a)
    bh, bl = _POW10_HIGH[p], _POW10_LOW[p]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digit_rows(r: np.ndarray, out: np.ndarray) -> None:
    """Write the decimal digits of the (k, n) uint32 integers ``r`` below
    10**8 into the (8k, n) uint8 array ``out``: digit values, eight rows a
    number, most significant first.  Every step fits in 32 bits."""
    groups = np.empty((2 * len(r), r.shape[1]), np.uint32)
    np.floor_divide(r, 10**4, out=groups[0::2])
    np.subtract(r, 10**4 * groups[0::2], out=groups[1::2])
    hundreds = groups // 100
    pairs = np.empty((len(out) // 2, r.shape[1]), np.uint8)
    pairs[0::2] = hundreds
    pairs[1::2] = groups - 100 * hundreds
    np.floor_divide(pairs, 10, out=out[0::2])
    np.subtract(pairs, 10 * out[0::2], out=out[1::2])


def _text_rows(width: int, n: int, sep_width: int) -> np.ndarray:
    """The uninitialised text array of a chunk of n values, one column a
    value: a sign row, ``width`` frame rows and ``sep_width`` separator rows.
    A zero byte is not text."""
    return np.empty((1 + width + sep_width, n), np.uint8)


# Row numbers of a frame, and the digit value that '0' turns into '.'.
_ROWS = np.arange(22, dtype=np.int8)[:, None]
_POINT = np.uint8(ord(".") - ord("0") + 256)


def _g17_frame(ax: np.ndarray, sep_width: int):
    """'%.17g' of each ax in [1e-4, 1e16): the chunk's text array (see
    ``_text_rows``) with the 22-row frame filled in: the number's text as
    ASCII, and zero bytes in the rows around it.

    In this range %.17g is fixed notation: the 17 significant digits D of
    ax = D * 10**(X - 16), a point after the units digit, "0." and zeros
    first when X < 0, and no trailing zeros or bare point.
    """
    # log10 can be one off next to a power of ten; e is then corrected so
    # that 1e16 <= ax * 10**(16 - e) < 1e17 holds for the exact product.
    e = np.floor(np.log10(ax)).astype(np.intp)
    hi, lo = _times_pow10(ax, 16 - e)
    step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).view(np.int8)
    step -= ((hi < 1e16) | ((hi == 1e16) & (lo < 0.0))).view(np.int8)
    fix = np.flatnonzero(step)
    if len(fix):
        e[fix] += step[fix]
        hi[fix], lo[fix] = _times_pow10(ax[fix], 16 - e[fix])
    # hi >= 1e16 > 2**53 is an even integer, so rounding hi + lo half to
    # even is rounding lo half to even.  d never rounds up to 10**17: no
    # double of the domain lies within 5e-18 relative below a power of ten.
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    x = e.astype(np.int8)
    del e, hi, lo  # each pass's peak memory is in the digit arrays below
    # Digit values: a pad, the four zeros of "0.000", then the 17 digits.
    a = np.zeros((23, len(ax)), np.uint8)
    lead = d // 10**16
    a[5] = lead
    d -= lead * 10**16
    high = d // 10**8
    rest = np.empty((2, len(ax)), np.uint32)  # the other 16 digits
    rest[0] = high
    rest[1] = d - high * 10**8
    _digit_rows(rest, a[6:22])
    del d, high, lead, rest
    last = ((a[6:22] != 0) * _ROWS[6:22]).max(axis=0)  # the last nonzero digit
    np.maximum(last, 5, out=last)
    text = _text_rows(22, len(ax), sep_width)
    frame = text[1:23]
    # Row r of the text is a[r + 1] up to the units digit (row 4 + x), then
    # the point, then a[r].
    np.subtract(a[1:], a[:-1], out=frame)
    frame *= _ROWS <= 4 + x
    frame += a[:-1]
    frame[5 + x, np.arange(len(ax))] = _POINT
    frame += ord("0")
    # The text runs from "0" (x < 0) or the leading digit (row 4 + min(x, 0)
    # <= 4) to the last nonzero digit after the point, else to the units digit.
    frame *= _ROWS <= np.where(last <= 5 + x, 4 + x, last)
    frame[:4] *= _ROWS[:4] >= 4 + np.minimum(x, 0)
    return text


def _f8_frame(ax: np.ndarray, sep_width: int):
    """'%.8f' of each ax with ax * 1e8 <= 2**52: the chunk's text array
    (see ``_text_rows``) with the frame filled in as ASCII.

    The frame is sized to the chunk: as many integer digits as its largest
    units part has, the point and eight decimals.  Each value's zeros before
    its units digit are zero bytes.
    """
    hi = ax * _POW10[8]
    m = np.rint(hi)
    # hi - m is exact.  Every half-integer below 2**52 is a double and rounding
    # is monotone, so the exact remainder lo can change m only where hi is a
    # tie; there it rounds away from m when it points away from m.
    tie = np.flatnonzero(np.abs(hi - m) == 0.5)
    if len(tie):
        off = hi[tie] - m[tie]
        m[tie] += 2.0 * off * (_times_pow10(ax[tie], 8)[1] * off > 0.0)
    del hi
    # The units are rounded first, so that the text is allocated at its
    # final height: units < 2**52 / 1e8 < 10**8 has at most eight digits.
    m = m.astype(np.int64)
    units = m // 10**8
    fraction = np.empty((1, len(ax)), np.uint32)
    fraction[0] = m - units * 10**8
    units = units.astype(np.uint32)
    places = len(str(units.max(initial=0)))
    text = _text_rows(places + 9, len(ax), sep_width)
    frame = text[1 : places + 10]
    lead = units >= _POW10[places - 1 : 0 : -1, None]  # rows :places - 1 not leading zeros
    for row in range(places - 1, 0, -1):
        tens = units // 10
        frame[row] = units - 10 * tens
        units = tens
    frame[0] = units
    frame[places] = _POINT
    _digit_rows(fraction, frame[places + 1 :])
    frame += ord("0")
    frame[: places - 1] *= lead
    return text


# spec -> (text builder, fast domain of |x|).  %.17g is fixed notation on
# its domain; below the %.8f bound ax * 1e8 rounds to at most 2**52, where
# hi - rint(hi) is exact.
_FORMATS = {
    "%.17g": (_g17_frame, lambda ax: (ax >= 1e-4) & (ax < 1e16)),
    "%.8f": (_f8_frame, lambda ax: ax < 2.0**52 / 1e8),
}


def decimal_chunks(values: np.ndarray, spec: str, seps: tuple, ends):
    """Yield the text of the (m, k) float array ``values``, in row order and
    one chunk of rows at a time: each value formatted as ``spec % value``
    ("%.17g" or "%.8f"), byte for byte, and followed by the separator
    ``seps[ends[i, j]]``; ``ends`` is an integer array that broadcasts
    against ``values``.

    Each chunk of rows is laid out column-major, one column of bytes a
    value: the sign, the frame of the number's digits and point, and the
    separator, filled by one ``np.take``.  A zero byte is not text: a plus
    sign, the frame's rows around the number and a short separator's padding
    are zeros, which one ``translate`` drops, so the separators must be
    printable ASCII.  The digits come from exact integer arithmetic on the
    value scaled by a power of ten (see ``_times_pow10``).  A value outside
    the format's fast domain (zero, subnormals, exponent notation, large or
    non-finite values) is formatted by ``%`` and spliced in where its column
    leaves one byte 1.
    """
    build_text, fast_domain = _FORMATS[spec]
    encoded = [s.encode("ascii") for s in seps]
    sep_width = max(map(len, encoded))
    sep_bytes = np.zeros((sep_width, len(seps)), np.uint8)
    for j, s in enumerate(encoded):
        sep_bytes[: len(s), j] = tuple(s)
    ends = np.broadcast_to(ends, values.shape)
    chunk = max(1, _CHUNK_VALUES // max(1, values.shape[1]))
    for start in range(0, len(values), chunk):
        x = values[start : start + chunk].ravel()
        ids = ends[start : start + chunk].ravel()
        ax = np.abs(x)
        outside = np.flatnonzero(~fast_domain(ax))
        ax[outside] = 1.0
        text = build_text(ax, sep_width)
        # text[0] is a contiguous row: numpy 2.4.6's signbit writes wrong
        # values into a strided bool ``out`` of 16 or more elements.
        np.signbit(x, out=text[0].view(bool))
        text[0] *= ord("-")
        if len(outside):  # a \x01 marks where each value outside the domain goes
            text[:, outside] = 0
            text[0, outside] = 1
        np.take(sep_bytes, ids, axis=1, out=text[len(text) - sep_width :])
        text = text.T.tobytes().translate(None, b"\0").decode("ascii")
        if len(outside):
            parts = text.split("\1")
            slow = x[outside].tolist()
            text = parts[0] + "".join(spec % v + part for v, part in zip(slow, parts[1:]))
        yield text
