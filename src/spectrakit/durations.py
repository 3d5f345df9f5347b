"""Ingestion of duration data and the empirical survival function."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

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
        if taus.size != psi.size:
            raise ValueError("taus and psi must have the same length")
        if not (np.all(np.isfinite(taus)) and np.all(np.isfinite(psi))):
            raise ValueError("taus and psi must be finite")
        if np.any(np.diff(taus) <= 0):
            raise ValueError("tau grid must be strictly increasing")
        if taus[0] < 0:
            raise ValueError("tau grid values must be >= 0")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "psi", psi)


def _parse_lines(lines, start: int = 1):
    """Yield the finite float on every data line, skipping '#' comments.

    ``start`` is the number of the first line, for error messages.
    """
    for lineno, raw in enumerate(lines, start=start):
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


# lines held at once by _parse_numbers
_PARSE_CHUNK = 16_384


def _floats(strings) -> np.ndarray | None:
    """float() of every string as an array, or None if one does not parse."""
    try:
        return np.fromiter(map(float, strings), dtype=float, count=len(strings))
    except ValueError:
        return None


def _parse_numbers(lines) -> np.ndarray:
    """The numbers _parse_lines yields, converted a chunk of lines at a time.

    A chunk whose first line is not str is refused with TypeError.  Each
    chunk goes through float() in one pass, as raw lines (float()
    strips what str.strip() strips, and refuses blank and '#' lines) or
    else as stripped data lines.  Only a chunk with a line that does not
    parse or is not finite is parsed again line by line, for its error.
    """
    lines = iter(lines)
    parts, start = [], 1
    while chunk := list(islice(lines, _PARSE_CHUNK)):
        if not isinstance(chunk[0], str):
            raise TypeError("source must be str or an iterable of str lines, "
                            f"not {type(chunk[0]).__name__} lines")
        part = _floats(chunk)
        if part is None:
            part = _floats([line for line in map(str.strip, chunk)
                            if line and not line.startswith("#")])
        if part is None or not np.isfinite(part).all():
            part = np.fromiter(_parse_lines(chunk, start), dtype=float)
        parts.append(part)
        start += len(chunk)
    return np.concatenate(parts) if parts else np.empty(0)


def load_durations(source, mode: str = "durations",
                   max_duration: float | None = None) -> DurationSeries:
    """Read newline-separated numbers into a DurationSeries.

    Parameters
    ----------
    source : str or iterable of str lines
        Text with one number per line; '#' lines are comments.  A bytes
        source, or bytes lines (a file opened in binary mode), are refused
        with TypeError.
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
    numbers = _parse_numbers(source.splitlines() if isinstance(source, str) else source)
    if mode == "timestamps":
        with np.errstate(over="ignore"):  # from_values refuses an inf difference
            numbers = np.diff(numbers) if numbers.size > 1 else np.empty(0)
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
    points = math.ceil(series.max)
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"tau_max = {series.max:g} needs a {points}-point default tau grid "
            f"(limit {MAX_GRID_POINTS}); give an explicit grid with --grid")
    return np.arange(1.0, points + 1.0)


def empirical_survival(series: DurationSeries, taus) -> SurvivalCurve:
    """Empirical survival Psi(tau) = #{tau_i >= tau} / n on the grid.

    The '>=' convention makes Psi at the largest observed duration equal
    to (multiplicity of the max)/n, so the max/min dynamic range over
    the data support equals n for a unique maximum.
    """
    taus = np.asarray(taus, dtype=float)
    sorted_vals = np.sort(series.values)
    counts = series.n - np.searchsorted(sorted_vals, taus, side="left")
    return SurvivalCurve(taus=taus, psi=counts / series.n, n_source=series.n)


# rows formatted at once by write_table
_TABLE_ROWS = 1 << 16


def write_table(stream, header: str, line, *columns) -> None:
    """Write the header line, then line(*row) per row of the equal-length columns.

    ``line`` formats one row of Python scalars, e.g. ``"{:.12g},{:.6f}".format``.
    Rows are formatted _TABLE_ROWS at a time, so neither a whole column as
    Python objects nor the whole text is ever held.
    """
    columns = [np.asarray(c) for c in columns]
    sizes = {c.size for c in columns}
    if len(sizes) > 1:
        raise ValueError(f"table columns must have equal lengths, got {sorted(sizes)}")
    stream.write(header + "\n")
    for lo in range(0, max(sizes, default=0), _TABLE_ROWS):
        rows = map(line, *[c[lo:lo + _TABLE_ROWS].tolist() for c in columns])
        stream.write("\n".join(rows) + "\n")


def write_survival_csv(curve: SurvivalCurve, stream) -> None:
    write_table(stream, "tau,psi", "{:.12g},{:.6f}".format, curve.taus, curve.psi)

