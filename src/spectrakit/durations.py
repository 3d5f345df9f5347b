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
    "read_survival_csv",
    "write_table",
    "read_table",
]


@dataclass(frozen=True)
class DurationSeries:
    """An ordered series of strictly positive waiting times (seconds).

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
        return cls(
            values=values,
            n=int(values.size),
            mean=float(values.mean()),
            max=float(values.max()),
            dropped=int(dropped),
        )

    @cached_property
    def prefix_sums(self) -> np.ndarray:
        """np.cumsum(values), computed once per series."""
        return np.cumsum(self.values)


@dataclass(frozen=True)
class SurvivalCurve:
    """A survival function sampled on a strictly increasing tau grid.

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


def _parse_numbers(lines) -> np.ndarray:
    """The numbers _parse_lines yields, converted a chunk of lines at a time.

    Each chunk's data lines go through float() in one pass; only a chunk
    holding a line that does not parse or is not finite is parsed again
    line by line, to raise _parse_lines' 'line N: ...' error.
    """
    lines = iter(lines)
    parts, start = [], 1
    while chunk := list(islice(lines, _PARSE_CHUNK)):
        data = [line for line in map(str.strip, chunk)
                if line and not line.startswith("#")]
        try:
            part = np.fromiter(map(float, data), dtype=float, count=len(data))
        except ValueError:
            part = None
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
    source : str or iterable of lines
        Text with one number per line; '#' lines are comments.
    mode : {'durations', 'timestamps'}
        'durations' takes the numbers as waiting times; 'timestamps'
        takes successive differences of non-decreasing event times.
    max_duration : float, optional
        If given, durations above this cap are dropped as well (e.g.
        overnight session gaps).

    Non-positive entries (or differences) are dropped and counted in
    ``dropped``.  Raises ValueError on a non-finite number or if nothing
    usable remains.
    """
    if mode not in ("durations", "timestamps"):
        raise ValueError(f"unknown mode {mode!r}")
    numbers = _parse_numbers(source.splitlines() if isinstance(source, str) else source)
    if mode == "timestamps":
        numbers = np.diff(numbers) if numbers.size > 1 else np.empty(0)
    keep = numbers > 0
    if max_duration is not None:
        keep &= numbers <= max_duration
    values = numbers[keep]
    dropped = int(numbers.size - values.size)
    if values.size == 0:
        raise ValueError("no usable durations")
    return DurationSeries.from_values(values, dropped=dropped)


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
    if taus.size == 0:
        raise ValueError("tau grid is empty")
    if np.any(taus < 0):
        raise ValueError("tau grid values must be >= 0")
    sorted_vals = np.sort(series.values)
    counts = series.n - np.searchsorted(sorted_vals, taus, side="left")
    return SurvivalCurve(taus=taus, psi=counts / series.n, n_source=series.n)


def write_table(stream, header: str, fmt: str, rows) -> None:
    """Write a CSV table: the header line, then fmt.format(*row) per row.

    Pass Python scalars (``ndarray.tolist()``): they format twice as fast.
    """
    line = fmt + "\n"
    stream.write(header + "\n" + "".join([line.format(*row) for row in rows]))


def read_table(lines, header: str) -> np.ndarray:
    """Read the rows of a CSV table as a 2-d float array.

    Skips blank lines, '#' comments and header lines (those starting with
    the header's first column name).  Raises ValueError("line N: ...") on
    a row that is not one finite number per column of ``header``.
    """
    names = header.split(",")
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(("#", names[0])):
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            row = []
        if len(row) != len(names) or not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: expected {len(names)} finite numbers "
                             f"({header}), got {line!r}")
        rows.append(row)
    if not rows:
        raise ValueError(f"empty CSV table, expected {header!r} rows")
    return np.array(rows)


def write_survival_csv(curve: SurvivalCurve, stream) -> None:
    write_table(stream, "tau,psi", "{:.12g},{:.6f}",
                zip(curve.taus.tolist(), curve.psi.tolist()))


def read_survival_csv(stream, n_source: int = 0) -> SurvivalCurve:
    taus, psi = read_table(stream, "tau,psi").T
    return SurvivalCurve(taus=taus, psi=psi, n_source=n_source)
