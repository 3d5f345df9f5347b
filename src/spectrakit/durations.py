"""Ingestion of duration data and the empirical survival function."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice

import numpy as np

__all__ = [
    "DurationSeries",
    "SurvivalCurve",
    "load_durations",
    "empirical_survival",
    "default_tau_grid",
    "write_survival_csv",
    "write_table",
]


# the smallest normal float; at or above it every comb rate N/T is finite
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class DurationSeries:
    """An ordered series of strictly positive waiting times (seconds).

    Every value is at least the smallest normal float (about 2.2e-308),
    and their total is finite.

    ``dropped`` counts the non-positive (or over-cap) entries removed
    during loading; it is bookkeeping, not part of the data.
    """

    values: np.ndarray
    n: int
    mean: float
    max: float
    dropped: int = 0

    @classmethod
    def from_values(cls, values, dropped: int = 0) -> "DurationSeries":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("no usable durations")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError("durations must be finite and strictly positive")
        if values.min() < _TINY:
            raise ValueError(f"durations must be at least {_TINY:.3g} s, "
                             f"got {values.min():.3g}")
        with np.errstate(over="ignore"):
            total = values.sum()
        if not np.isfinite(total):
            raise ValueError("the total of the durations overflows")
        return cls(
            values=values,
            n=int(values.size),
            mean=float(total / values.size),
            max=float(values.max()),
            dropped=int(dropped),
        )

    @cached_property
    def prefix_sums(self) -> np.ndarray:
        """np.cumsum(values), computed once per series."""
        return np.cumsum(self.values)


@dataclass(frozen=True)
class SurvivalCurve:
    """A survival function sampled on a strictly increasing grid of taus >= 0.

    ``n_source`` is the number of underlying durations (0 for analytic
    curves); it feeds the effective sample size of the KS significance.
    """

    taus: np.ndarray
    psi: np.ndarray
    n_source: int = 0

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if taus.ndim != 1 or taus.size == 0:
            raise ValueError("tau grid must be a non-empty 1-d array")
        if psi.shape != taus.shape:
            raise ValueError("taus and psi must be 1-d arrays of the same length")
        if not (np.all(np.isfinite(taus)) and np.all(np.isfinite(psi))):
            raise ValueError("taus and psi must be finite")
        if np.any(taus[1:] <= taus[:-1]):  # np.diff can overflow
            raise ValueError("tau grid must be strictly increasing")
        if taus[0] < 0:
            raise ValueError("tau grid values must be >= 0")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "psi", psi)


def _parse_lines(lines, numbers=None):
    """Yield the finite float on every data line, skipping '#' comments.

    ``numbers`` gives each line's number for error messages (1, 2, ... if None).
    """
    for raw, lineno in zip(lines, count(1) if numbers is None else numbers):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {line!r} as a number") from None
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: {line!r} is not a finite number")
        yield value


# characters of text read or sliced at once by _parse_numbers
_PARSE_CHUNK = 1 << 18

# lines of an iterable of lines joined at once by _parse_numbers
_PARSE_LINES = 16_384

# the significand bits _exact may use from np.longdouble: 64 where it is the
# x87 80-bit type in 16 bytes (x86-64), whose first 8 bytes are the
# significand; 53, none beyond a double, anywhere else
_LD_BITS = 64 if (np.finfo(np.longdouble).nmant, np.dtype(np.longdouble).itemsize) == (
    63, 16) else 53

# the most digits of a line converted in numpy, so its mantissa is below 2**64;
# they span three 8-byte words, whose 24 bytes go as '0's before each piece
_DIGITS, _PAD = 19, 24

# 10**q for q <= 19: as uint64, as a double and as a longdouble, all exact
_SCALE = np.array([10 ** q for q in range(_DIGITS + 1)], np.uint64)
_POW10 = _SCALE.astype(float)
_POW10_LD = _SCALE.astype(np.longdouble)

# _MASKS[k]: the digit nibbles of the last k bytes of a little-endian 8-byte word
_MASKS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - k) << 8 * (8 - k) for k in range(9)],
                  np.uint64)

# the characters besides '\n' that end a line in str.splitlines()
_STR_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _type_error(line) -> TypeError:
    return TypeError("source must be str or an iterable of str lines, "
                     f"not {type(line).__name__} lines")


def _pieces(chunks, breaks: str):
    """Each piece of the text of the chunks, with every line ended by '\n' alone.

    ``breaks`` holds the characters besides '\n' at which the source ends a
    line ('\r' among them makes '\r\n' one line end).  A piece ends after the
    last '\n' of a chunk that has one, or else after its last other break that
    does not end the chunk (a '\r' there may be half of a '\r\n').
    """
    head = []
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1 or max([chunk.rfind(c, 0, -1) + 1 for c in breaks],
                                            default=0)
        if cut:
            yield _ended("".join([*head, chunk[:cut]]), breaks)
            head = []
        head.append(chunk[cut:])
    if tail := "".join(head):
        yield _ended(tail, breaks)


def _ended(piece: str, breaks: str) -> str:
    # the piece with each '\r\n', and each of the breaks, made '\n'
    if any(c in piece for c in breaks):
        piece = piece.replace("\r\n", "\n")
        for c in breaks:
            piece = piece.replace(c, "\n")
    return piece


def _reads(stream):
    # _PARSE_CHUNK characters at a time from a text stream
    while chunk := stream.read(_PARSE_CHUNK):
        if not isinstance(chunk, str):
            raise _type_error(chunk)
        yield chunk


def _joined(lines):
    """Pieces of str lines, each ended by '\n', _PARSE_LINES lines at a time.

    A trailing '\n' comes off every line first if some line has one.  A chunk
    in which a line still holds a '\n' stays a list, for _floats.
    """
    lines = iter(lines)
    while chunk := list(islice(lines, _PARSE_LINES)):
        try:
            text = "\n".join(chunk) + "\n"
        except TypeError:  # a line that is not str
            raise _type_error(next(line for line in chunk
                                   if not isinstance(line, str))) from None
        if text.count("\n") > len(chunk):
            text = "\n".join([line.removesuffix("\n") for line in chunk]) + "\n"
        yield chunk if text.count("\n") > len(chunk) else text


def _number(words, end, size):
    """The uint64 number each run of size <= 19 digits ending at byte end spells,
    read 8 digits a time from the unaligned uint64 view ``words``."""
    k8 = np.arange(8, 8 * -(-size.max(initial=0) // 8) + 1, 8)[:, None]
    w = words[end - k8]
    w &= _MASKS[np.clip(size + 8 - k8, 0, 8)]  # the digit nibbles of the run's bytes
    w *= 2561                               # 10 * 2**8 + 1: 2 digits in each 16 bits
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 6553601                            # 100 * 2**16 + 1: 4 digits in each 32 bits
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 42949672960001                     # 10**4 * 2**32 + 1
    w >>= 32
    n = w[-1] if len(w) else np.zeros(size.size, np.uint64)
    for row in w[-2::-1]:
        n *= 10 ** 8
        n += row
    return n


def _exact(m, q):
    """m / 10**q rounded once to the nearest double, for uint64 m < 10**19 and
    q <= 19, and the indices of the quotients that float() must give instead.

    The quotient is exact by construction where m <= 2**53 (Clinger: m and
    10**q are exact doubles), and is otherwise a 64-bit longdouble quotient
    rounded once more.  That second rounding is wrong only from a double
    midpoint, where the 64-bit significand ends in a 1 and ten 0s, above or
    below a power of two alike.  Those quotients, and every other one where
    longdouble is not the 64-bit type, are the indices returned.
    """
    v = m.astype(float)
    v /= _POW10[q]
    hard = np.flatnonzero(m > 2 ** 53)
    if hard.size and _LD_BITS == 64:
        x = m[hard].astype(np.longdouble) / _POW10_LD[q[hard]]
        v[hard] = x
        hard = hard[(x.view(np.uint64)[::2] & 0x7FF) == 0x400]
    return v, hard


def _floats(texts, numbers):
    """float() of the data lines among the texts in one pass, as the raw texts
    (float() strips what str.strip() strips) or else as stripped lines without
    blank and '#' ones, with a mask of the data lines (None for all).  A data
    line that does not parse or is not finite raises _parse_lines's error, with
    its number from ``numbers``."""
    try:
        values, keep = np.fromiter(map(float, texts), float, len(texts)), None
    except ValueError:
        lines = list(map(str.strip, texts))
        keep = np.array([line[:1] not in ("", "#") for line in lines], bool)
        try:
            values = np.fromiter(map(float, compress(lines, keep)), float)
        except ValueError:
            values = None
    if values is None or not np.isfinite(values).all():
        np.fromiter(_parse_lines(texts, numbers), float)  # raises for the first bad line
    return values, keep


def _parse_piece(piece: str, start: int):
    """The numbers _parse_lines yields for the lines of a piece, its line count,
    and whether more than a third of its lines went to float().

    Lines are split at '\n', and blank and '#' lines are skipped.  Every line
    of the form [0-9]+(\\.[0-9]+)? of at most 19 digits is converted in numpy:
    an integer part I and q decimals F, each packed from its digits 8 at a
    time, give the mantissa I * 10**q + F < 10**19 that _exact divides.  The
    lines whose quotient _exact leaves to float(), and the piece's other lines,
    are sliced out for one _floats pass, which raises the error of a line that
    fails; ``start`` is the number of the piece's first line.
    """
    raw = piece.encode("ascii", "replace")  # one byte per character
    if not raw.endswith(b"\n"):
        raw += b"\n"
    b = np.frombuffer(b"0" * _PAD + raw, np.uint8)
    nd = np.flatnonzero((b < 48) | (b > 57))  # every byte but the digits
    c = b[nd]
    nl = np.flatnonzero(c == 10)
    ends = nd[nl]
    starts = np.empty_like(ends)
    starts[0], starts[1:] = _PAD, ends[:-1] + 1
    # each line's non-digits before its end: none, its '.', or more
    others = np.diff(nl, prepend=-1) - 1
    has = (others == 1) & (c[nl - 1] == ord("."))
    p = np.where(has, nd[nl - 1], ends)
    q = ends - p - has
    odd = (others > has) | (p == starts) & has | (q == 0) & has
    odd |= ends - starts - has > _DIGITS
    plain = ~odd & (ends > starts)
    if odd.any():
        odd &= b[starts] != ord("#")

    words = np.ndarray((b.size - 7,), "<u8", b, strides=(1,))
    p, q = p[plain], q[plain]
    m = _number(words, p, p - starts[plain])
    m *= _SCALE[q]
    m += _number(words, ends[plain], q)
    values, hard = _exact(m, q)
    if hard.size:  # to float() with the other lines
        k = np.flatnonzero(plain)[hard]
        plain[k], odd[k] = False, True
        values = np.delete(values, hard)
    if not odd.any():
        return values, ends.size, False

    ks = np.flatnonzero(odd)
    got, keep = _floats([piece[i:j] for i, j in zip((starts[ks] - _PAD).tolist(),
                                                    (ends[ks] - _PAD).tolist())],
                        (ks + start).tolist())
    out = np.empty(ends.size)
    out[plain] = values
    if keep is not None:
        odd[ks[~keep]] = False
    out[odd] = got
    return out[plain | odd], ends.size, ks.size * 3 > ends.size


def _parse_numbers(source) -> np.ndarray:
    """The numbers _parse_lines yields, converted a piece of text at a time.

    ``source`` is a str or a text stream, read _PARSE_CHUNK characters at a
    time and cut by _pieces, which ends a str's lines at every break of
    str.splitlines() and a stream's at '\n', '\r\n' and a lone '\r' in any
    newline mode; or an iterable of str lines (joined _PARSE_LINES at a
    time), one line per item; a line that is not str is refused with
    TypeError.  Each piece goes through _parse_piece, and every piece after
    one in which over a third of the lines went to float(), and every list
    of _joined, through one _floats pass whole.
    """
    if isinstance(source, str):
        chunks = range(0, len(source), _PARSE_CHUNK)
        pieces = _pieces((source[i:i + _PARSE_CHUNK] for i in chunks), _STR_BREAKS)
    elif hasattr(source, "read"):
        pieces = _pieces(_reads(source), "\r")
    else:
        pieces = _joined(source)
    parts, start, floats = [], 1, False
    for piece in pieces:
        if floats and isinstance(piece, str):  # over a third went to float() last time
            piece = piece.removesuffix("\n").split("\n")
        if isinstance(piece, list):
            part, lines = _floats(piece, range(start, start + len(piece)))[0], len(piece)
        else:
            part, lines, floats = _parse_piece(piece, start)
        parts.append(part)
        start += lines
    return np.concatenate(parts) if parts else np.empty(0)


def load_durations(source, mode: str = "durations",
                   max_duration: float | None = None) -> DurationSeries:
    """Read newline-separated numbers into a DurationSeries.

    Parameters
    ----------
    source : str, text stream or iterable of str lines
        Text with one number per line; '#' lines are comments.  A str
        splits into lines at every break of str.splitlines(); a stream
        (anything with a ``read`` method, such as an open text file) is
        read in pieces and splits at '\n', '\r\n' and a lone '\r',
        whatever newline mode it was opened with; an iterable gives one
        line per item.  A bytes source, or bytes lines (a file opened in
        binary mode), are refused with TypeError.
    mode : {'durations', 'timestamps'}
        'durations' takes the numbers as waiting times; 'timestamps'
        takes successive differences of non-decreasing event times.
    max_duration : float, optional
        If given, durations above this cap are dropped as well (e.g.
        overnight session gaps).

    Non-positive entries (or differences) are dropped and counted in
    ``dropped``.  Raises ValueError on a non-finite number, and on what
    DurationSeries.from_values refuses: no usable durations, one below
    the smallest normal float, or an overflowing total.
    """
    if mode not in ("durations", "timestamps"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(source, (bytes, bytearray)):
        raise TypeError("source must be str or an iterable of str lines, not bytes")
    numbers = _parse_numbers(source)
    if mode == "timestamps":
        with np.errstate(over="ignore"):  # from_values refuses an inf difference
            numbers = np.diff(numbers)
    keep = numbers > 0
    if max_duration is not None:
        keep &= numbers <= max_duration
    values = numbers[keep]
    return DurationSeries.from_values(values, dropped=int(numbers.size - values.size))


# grids and samples past this many points (80 MB of floats alone), and
# kernels of more entries, are refused
MAX_GRID_POINTS = 10_000_000


def default_tau_grid(series: DurationSeries) -> np.ndarray:
    """Integer-second grid 1..ceil(tau_max).

    Raises ValueError when that grid would exceed 10,000,000 points.
    """
    if series.max > MAX_GRID_POINTS:
        raise ValueError(f"tau_max = {series.max:g} needs a default tau grid of more than "
                         f"{MAX_GRID_POINTS} points; give an explicit grid with --grid")
    return np.arange(1.0, math.ceil(series.max) + 1.0)


def empirical_survival(series: DurationSeries, taus) -> SurvivalCurve:
    """Empirical survival Psi(tau) = #{tau_i >= tau} / n on the grid.

    The '>=' convention makes Psi at the largest observed duration equal
    to (multiplicity of the max)/n, so the max/min dynamic range over
    the data support equals n for a unique maximum.
    """
    curve = SurvivalCurve(taus=taus, psi=np.zeros(np.size(taus)), n_source=series.n)
    counts = series.n - np.searchsorted(np.sort(series.values), curve.taus, side="left")
    curve.psi[:] = counts / series.n
    return curve


# rows formatted at once by write_table
_TABLE_ROWS = 1 << 16

# below this many units of the last digit, |v| * 10**d rounds by under 2**-26 << _TIE
_EXACT, _TIE = 2.0 ** 20 * 100, 1e-6


def _fixed(v, d: int):
    """The ``{:.{d}f}`` text of each value as a 0-padded uint8 row with a spare 0
    column at the end, or None if a value is non-finite or |v| * 10**d >= _EXACT.
    A value within _TIE of a half unit takes its digits from format()."""
    neg = np.signbit(v)  # format() writes -0.0
    h = np.abs(v)
    if not np.all(h < _EXACT / 10 ** d):
        return None
    h *= 10 ** d
    n = np.rint(h).astype(np.int32)
    h -= n
    tie = np.flatnonzero(np.abs(h, out=h) > 0.5 - _TIE)
    del h  # each temporary is a piece long; hold as few as possible at once
    n[tie] = [int(format(abs(t), f".{d}f").replace(".", "")) for t in v[tie].tolist()]
    ndig = len(str(int(n.max(initial=0)) // 10 ** d))
    # a row per value: "-", digits, "." and d digits (no "." at d = 0), spare column
    chars = np.zeros((v.size, ndig + 2 + d + (d > 0)), np.uint8)
    chars[neg, 0] = ord("-")
    chars[:, ndig + 1] = ord(".") if d else 0
    for col in (*range(ndig + 1 + d, ndig + 1, -1), *range(ndig, 0, -1)):
        chars[:, col] = n % 10 + ord("0")
        if col < ndig:
            chars[n == 0, col] = 0
        n //= 10
    return chars


# the fields whose text _fixed writes: .Nf, and .12g over whole numbers as d = 0
_DECIMALS = {"{:.12g}": 0, **{f"{{:.{d}f}}": d for d in range(1, 10)}}


def _table_piece(piece, decimals) -> str | None:
    # the rows of fields joined by "," and ended by "\n", or None for format()
    blocks = [_fixed(v, d) if d is not None and v.dtype == float
              and (d or np.all(v == np.trunc(v))) else None
              for v, d in zip(piece, decimals)]
    if len(decimals) != len(piece) or any(chars is None for chars in blocks):
        return None
    for chars in blocks:
        chars[:, -1] = ord(",")
    blocks[-1][:, -1] = ord("\n")
    flat = np.hstack(blocks).ravel()
    return str(flat[flat != 0], "ascii")


def write_table(stream, header: str, fmt: str, *columns) -> None:
    """Write the header line, then fmt.format(*row) per row of the equal-length columns.

    ``fmt`` formats one row of Python scalars, e.g. ``"{:.12g},{:.6f}"``.
    Rows are formatted _TABLE_ROWS at a time, so neither a whole column as
    Python objects nor the whole text is ever held.  A piece of float columns
    in .Nf fields, or .12g ones over whole numbers, goes through _fixed instead.
    """
    columns = [np.asarray(c) for c in columns]
    sizes = {c.size for c in columns}
    if len(sizes) > 1:
        raise ValueError(f"table columns must have equal lengths, got {sorted(sizes)}")
    decimals = [_DECIMALS.get(field) for field in fmt.split(",")]
    stream.write(header + "\n")
    for lo in range(0, max(sizes, default=0), _TABLE_ROWS):
        piece = [c[lo:lo + _TABLE_ROWS] for c in columns]
        stream.write(_table_piece(piece, decimals)
                     or "\n".join(map(fmt.format, *[p.tolist() for p in piece])) + "\n")


def write_survival_csv(curve: SurvivalCurve, stream) -> None:
    write_table(stream, "tau,psi", "{:.12g},{:.6f}", curve.taus, curve.psi)
