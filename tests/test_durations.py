import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrakit import (DurationSeries, SurvivalCurve, durations, empirical_survival,
                        load_durations)
from spectrakit.durations import (_TABLE_ROWS, default_tau_grid, write_survival_csv,
                                  write_table)


def test_load_durations_basic():
    s = load_durations("3\n1\n2\n")
    assert list(s.values) == [3, 1, 2]
    assert s.n == 3 and s.mean == 2 and s.max == 3
    assert s.dropped == 0


def test_load_timestamps_drops_zero_differences():
    s = load_durations("0\n5\n5\n12\n", mode="timestamps")
    assert list(s.values) == [5, 7]
    assert s.dropped == 1


def test_load_durations_positivity_filter():
    s = load_durations("1\n-4\n2\n")
    assert list(s.values) == [1, 2]
    assert s.dropped == 1


def test_load_durations_comments_and_blank_lines():
    s = load_durations("# header\n1\n\n2\n")
    assert list(s.values) == [1, 2]


def test_load_durations_max_duration_cap():
    s = load_durations("1\n50000\n2\n", max_duration=100)
    assert list(s.values) == [1, 2]
    assert s.dropped == 1


def test_load_durations_unparsable_line_cites_lineno():
    for bad in ("foo", "inf", "nan", "-inf"):
        with pytest.raises(ValueError, match="line 2"):
            load_durations(f"1\n{bad}\n2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_durations(f"# t\n0\n{bad}\n", mode="timestamps")


def _load_or_error(text, mode, as_file):
    try:
        s = load_durations(io.StringIO(text) if as_file else text, mode=mode)
    except ValueError as exc:
        return str(exc)
    return s.values.tolist(), s.dropped


def _line_by_line(source):
    # the reference parse, a str's lines split as str.splitlines() splits them
    lines = source.splitlines() if isinstance(source, str) else source
    return np.fromiter(durations._parse_lines(lines), dtype=float)


_TOKENS = ["1", "2.5", "-3", "0", "1e-400", "1_0", "١٢", "infinity", "-inf", "1e400",
           "nan", "0x10", "abc", "", "#", "# 7", "+4", ".5"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TOKENS) | st.floats(-1e6, 1e6).map(repr),
                          st.sampled_from(["", " ", "\t", "  "]),
                          st.sampled_from(["", " ", "\t "])),
                max_size=40),
       st.sampled_from(["durations", "timestamps"]), st.sampled_from([1, 2, 3, 16_384]),
       st.booleans())
def test_fast_parse_equals_line_by_line_parse(rows, mode, chunk, as_file):
    # the one-pass parse (in chunks of `chunk` lines) gives the values of
    # the line-by-line parse, or the same 'line N: ...' error
    text = "".join(f"{pre}{token}{post}\n" for token, pre, post in rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durations, "_PARSE_CHUNK", chunk)
        fast = _load_or_error(text, mode, as_file)
        mp.setattr(durations, "_parse_numbers", _line_by_line)
        slow = _load_or_error(text, mode, as_file)
    assert fast == slow


def test_fast_parse_keeps_line_numbers_past_a_chunk(monkeypatch):
    monkeypatch.setattr(durations, "_PARSE_CHUNK", 4)
    text = "# head\n" + "1\n" * 9 + "\n1e400\n2\n"
    with pytest.raises(ValueError, match=r"^line 12: '1e400' is not a finite number$"):
        load_durations(text)
    with pytest.raises(ValueError, match=r"^line 5: cannot parse '0x10' as a number$"):
        load_durations(io.StringIO("1\n2\n3\n\n 0x10 \n"))
    s = load_durations("1_0\n١٢\n 3 \n")
    assert s.values.tolist() == [10.0, 12.0, 3.0]


# float() and str.strip() share one whitespace rule; "\u200b" is not whitespace
_SPACES = ["\xa0", "\x1c", "\x0c", " ", "\u3000", "\t", "\x85", "\u200b"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TOKENS) | st.floats(-1e6, 1e6).map(repr),
                          st.text(st.sampled_from(_SPACES), max_size=3),
                          st.text(st.sampled_from(_SPACES), max_size=3)),
                max_size=40),
       st.sampled_from(["durations", "timestamps"]), st.sampled_from([1, 2, 3, 16_384]),
       st.booleans())
def test_fast_parse_equals_line_by_line_parse_under_unicode_space(rows, mode, chunk,
                                                                  as_file):
    # raw lines go to float() first, so any Unicode space around a token,
    # on a '#' line or on an otherwise blank line must parse as it does
    # after str.strip(): the same values, or the same 'line N: ...' error
    text = "# header\n\n" + "".join(f"{pre}{token}{post}\n" for token, pre, post in rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durations, "_PARSE_CHUNK", chunk)
        fast = _load_or_error(text, mode, as_file)
        mp.setattr(durations, "_parse_numbers", _line_by_line)
        slow = _load_or_error(text, mode, as_file)
    assert fast == slow


def _count_floats(mp):
    calls = []
    floats = durations._floats

    def counting(strings, numbers):
        calls.append(len(strings))
        return floats(strings, numbers)

    mp.setattr(durations, "_floats", counting)
    return calls


def test_header_only_input():
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_floats(mp)
        assert durations._parse_numbers(["# header", "", "  # more"]).size == 0
        assert calls == [1]
        with pytest.raises(ValueError, match="no usable durations"):
            load_durations("# header\n")
        assert calls == [1]


def test_header_then_data_converts_in_one_pass():
    # '#' and blank lines are skipped in numpy; the lines with spaces around
    # their text take one float() pass; the line-by-line parse is never needed
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_floats(mp)
        mp.setattr(durations, "_parse_lines", None)
        s = load_durations("# header\n\n \t# n=3\n1\n 2.5 \n3\n")
        assert s.values.tolist() == [1.0, 2.5, 3.0]
        assert calls == [2]
        # a '#' line after the data is skipped in numpy as well
        assert load_durations("# h\n1\n# mid\n2\n").values.tolist() == [1.0, 2.0]
        assert calls == [2]


@pytest.mark.parametrize("chunk", [7, durations._PARSE_CHUNK])
def test_other_line_ends_are_converted_in_numpy(chunk):
    # plain lines ended by '\r\n', a lone '\r' or '\x0c' in a str, and by
    # '\r\n' or a lone '\r' in a stream read with newline="", make no float()
    # pass and give float()'s bits
    lines = ["%.6f" % v for v in np.random.default_rng(7).exponential(12.0, 500)]
    want = np.array([float(line) for line in lines]).view(np.uint64).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durations, "_PARSE_CHUNK", chunk)
        calls = _count_floats(mp)
        for end in ("\r\n", "\r", "\x0c"):
            text = end.join(lines) + end
            sources = [text]
            if end != "\x0c":
                sources += [io.StringIO(text, newline=""),
                            io.TextIOWrapper(io.BytesIO(text.encode()), newline="")]
            for source in sources:
                assert durations._parse_numbers(source).view(np.uint64).tolist() == want
        assert calls == []


def test_header_longer_than_a_chunk(monkeypatch):
    monkeypatch.setattr(durations, "_PARSE_CHUNK", 4)
    header = "# header\n" + "# line\n" * 8 + "\n"
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_floats(mp)
        s = load_durations(header + "1\n2\n3\n")
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        assert calls == []
    with pytest.raises(ValueError, match=r"^line 12: cannot parse 'x' as a number$"):
        load_durations(header + "1\nx\n3\n")
    with pytest.raises(ValueError, match=r"^line 13: '1e400' is not a finite number$"):
        load_durations(io.StringIO(header + "1\n2\n1e400\n"))


def test_load_durations_empty_result():
    with pytest.raises(ValueError, match="no usable durations"):
        load_durations("-1\n0\n")


def test_load_durations_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        load_durations("1\n", mode="bogus")


def test_empirical_survival_counting():
    s = DurationSeries.from_values([1, 2, 3])
    c = empirical_survival(s, [1, 2, 3])
    assert np.allclose(c.psi, [1, 2 / 3, 1 / 3])
    assert c.n_source == 3


def test_empirical_survival_at_zero_is_one():
    s = DurationSeries.from_values([0.3, 7.0, 2.5])
    c = empirical_survival(s, [0.0])
    assert c.psi[0] == 1.0


def test_empirical_survival_beyond_max_is_zero():
    s = DurationSeries.from_values([1, 2, 3])
    c = empirical_survival(s, [3.5, 10.0])
    assert np.all(c.psi == 0.0)


def test_dynamic_range_equals_n_for_unique_max():
    rng = np.random.default_rng(1)
    vals = rng.exponential(5.0, size=500)
    s = DurationSeries.from_values(vals)
    grid = np.linspace(vals.min(), vals.max(), 50)
    c = empirical_survival(s, grid)
    assert c.psi[-1] == 1 / s.n
    assert c.psi[0] / c.psi[-1] == s.n


def test_empirical_survival_non_increasing():
    rng = np.random.default_rng(2)
    s = DurationSeries.from_values(rng.exponential(1.0, 200))
    c = empirical_survival(s, np.linspace(0, 10, 100))
    assert np.all(np.diff(c.psi) <= 0)
    assert np.all((c.psi >= 0) & (c.psi <= 1))


@given(st.lists(st.floats(1e-3, 1e3) | st.sampled_from([1.0, 2.0]), min_size=1,
                max_size=60),
       st.lists(st.floats(0.0, 2e3), max_size=60))
def test_empirical_survival_ge_convention_property(values, extra_taus):
    # non-increasing on any increasing grid; Psi(min) = 1 and Psi(max) is
    # the multiplicity of the max over n ('>=' counts the point itself)
    s = DurationSeries.from_values(values)
    lo, hi = min(values), max(values)
    taus = np.unique(np.array(extra_taus + [lo, hi]))
    c = empirical_survival(s, taus)
    assert np.all(np.diff(c.psi) <= 0)
    assert c.psi[taus == lo][0] == 1.0
    assert c.psi[taus == hi][0] == values.count(hi) / len(values)


def test_from_values_rejects_non_finite_or_non_positive():
    for values in ([1.0, float("nan"), float("inf")], [1.0, float("inf")],
                   [float("-inf"), 2.0], [1.0, 0.0], [-1.0]):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            DurationSeries.from_values(values)


def test_from_values_rejects_subnormal_or_overflowing_series():
    tiny = np.finfo(float).tiny
    for values in ([1e-320, 2e-320, 5e-324], [1.0, tiny / 2]):
        with pytest.raises(ValueError, match="durations must be at least 2.23e-308 s"):
            DurationSeries.from_values(values)
    with pytest.raises(ValueError, match="total of the durations overflows"):
        DurationSeries.from_values([1e308, 1e308, 1e308])
    assert DurationSeries.from_values([tiny, 1.0]).n == 2
    assert DurationSeries.from_values([1e308, 1e307]).mean == 5.5e307


def test_from_values_mean_equals_numpy_mean():
    rng = np.random.default_rng(11)
    for values in (rng.exponential(8.85, 55_559), rng.pareto(0.9, 1001) + 1e-3,
                   np.array([0.1, 0.2, 0.3])):
        assert DurationSeries.from_values(values).mean == values.mean()


def test_load_durations_refuses_a_bytes_source():
    for source in (b"1.5\n2\n", bytearray(b"1.5\n2\n")):
        with pytest.raises(TypeError, match="not bytes"):
            load_durations(source)


def test_load_durations_refuses_bytes_lines():
    # a file opened in binary mode: refused whether or not float() would
    # take its first chunk (it takes b"1.5", not b"#x")
    for lines in (b"1.5\n2\n", b"#x\n2\n"):
        for source in (io.BytesIO(lines), lines.splitlines()):
            with pytest.raises(TypeError, match="not bytes lines"):
                load_durations(source)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    vals = rng.exponential(1.0, 100)
    grid = np.linspace(0, 5, 40)
    a = empirical_survival(DurationSeries.from_values(vals), grid)
    b = empirical_survival(DurationSeries.from_values(rng.permutation(vals)), grid)
    assert np.array_equal(a.psi, b.psi)


def test_empty_grid_rejected():
    s = DurationSeries.from_values([1.0])
    with pytest.raises(ValueError):
        empirical_survival(s, [])


def test_a_grid_falling_across_the_float_range_is_refused_quietly():
    # 1e308 - -8e307 would overflow in np.diff; the order check compares instead
    with pytest.raises(ValueError, match="strictly increasing"):
        SurvivalCurve(taus=[1e308, -8e307], psi=[1.0, 1.0])


def test_negative_tau_is_refused_by_the_curve():
    with pytest.raises(ValueError, match="tau grid values must be >= 0"):
        SurvivalCurve(taus=[-1.0, 1.0], psi=[1.0, 0.5])
    with pytest.raises(ValueError, match="tau grid values must be >= 0"):
        empirical_survival(DurationSeries.from_values([1.0, 2.0]), [-1.0, 1.0])
    assert SurvivalCurve(taus=[0.0, 1.0], psi=[1.0, 0.5]).taus[0] == 0.0


def test_load_roundtrip_idempotent():
    s = load_durations("1.5\n2.25\n0.125\n")
    text = "\n".join(repr(float(v)) for v in s.values) + "\n"
    s2 = load_durations(text)
    assert np.array_equal(s.values, s2.values)


def test_default_tau_grid():
    s = DurationSeries.from_values([1.2, 4.7])
    assert list(default_tau_grid(s)) == [1, 2, 3, 4, 5]
    assert default_tau_grid(DurationSeries.from_values([1e7])).size == 10_000_000
    with pytest.raises(ValueError, match=r"tau_max = 1e\+07.*--grid"):
        default_tau_grid(DurationSeries.from_values([1e7 + 0.5]))
    # the limit is stated, not the 301-digit point count
    with pytest.raises(ValueError, match=r"^tau_max = 1e\+300 .{,120}--grid$"):
        default_tau_grid(DurationSeries.from_values([1e300]))


@pytest.mark.parametrize("rows", [0, 1, _TABLE_ROWS - 1, _TABLE_ROWS, _TABLE_ROWS + 1,
                                  2 * _TABLE_ROWS + 3])
def test_write_table_pieces_equal_row_by_row(rows):
    rng = np.random.default_rng(rows)
    x, k = rng.exponential(3.0, rows), rng.integers(-10**6, 10**6, rows)
    buf = io.StringIO()
    write_table(buf, "x,k", "{:.12g},{:d}", x, k)
    expected = "x,k\n" + "".join(f"{a:.12g},{b:d}\n" for a, b in zip(x.tolist(), k.tolist()))
    assert buf.getvalue() == expected
    with pytest.raises(ValueError, match="equal lengths"):
        write_table(io.StringIO(), "x,k", "{},{}", [1.0], [1, 2])


def _format_table(header, fmt, *columns):
    # the reference: one str.format call per row
    rows = zip(*[np.asarray(c).tolist() for c in columns])
    return header + "\n" + "".join(fmt.format(*row) + "\n" for row in rows)


def _assert_table_matches_format(fmt, *columns):
    # row by row, so that a failure lists its first rows, not a diff of MBs
    buf = io.StringIO()
    write_table(buf, "h", fmt, *columns)
    got = buf.getvalue().split("\n")
    want = _format_table("h", fmt, *columns).split("\n")
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert (len(got), bad[:5]) == (len(want), [])


_ROW_FORMATS = ["{:.12g},{:.6f}", "{:.12g},{:.6f},{:.6f}", "{:.12g},{:d},{:.12g},{:.12g}",
                "{!r}"]


def _table_columns(fmt, taus, v):
    k = np.arange(v.size)
    return {"{:.12g},{:.6f}": (taus, v), "{:.12g},{:.6f},{:.6f}": (taus, v, v[::-1]),
            "{:.12g},{:d},{:.12g},{:.12g}": (taus, k, v, v[::-1]), "{!r}": (v,)}[fmt]


# half-millionths across [0, 1] and below the bound, and every exact binary one (j/128)
_HALF_MILLIONTHS = np.concatenate([
    (np.concatenate([np.arange(-1_000, 1_000_000, 37),
                     np.arange(104_857_000, 104_857_600)]) + 0.5) / 1e6,
    np.arange(-13_421, 13_421, 2) / 128])
_PSI_BOUND = durations._EXACT / 1e6  # |v| past which a .6f piece goes through format()


@pytest.mark.parametrize("fmt", _ROW_FORMATS)
@pytest.mark.parametrize("values", [
    np.random.default_rng(7).uniform(0, 1, 100_000),
    np.concatenate([_HALF_MILLIONTHS, np.nextafter(_HALF_MILLIONTHS, np.inf),
                    np.nextafter(_HALF_MILLIONTHS, -np.inf)]),
    np.array([-0.0, 0.0, 1e-300, -1e-300, 5e-324, -4e-7, -5e-7, -6e-7, -1.0, 0.9999995]),
    np.array([_PSI_BOUND, -_PSI_BOUND, np.nextafter(_PSI_BOUND, 0), 0.5]),
    np.array([np.nextafter(_PSI_BOUND, 0), -np.nextafter(_PSI_BOUND, 0), 0.5]),
    np.array([np.nextafter(_PSI_BOUND, np.inf), 1e300, 0.25]),
    np.array([np.nan, 0.5, 0.25]),
    np.array([np.inf, -np.inf, 0.125]),
], ids=["uniform", "half-millionths", "signs-and-tiny", "at-bound", "below-bound",
        "past-bound", "nan", "inf"])
def test_write_table_matches_format_on_psi(fmt, values):
    # whole taus of both signs, -0.0 first, beside each case of values
    k = np.arange(values.size)
    _assert_table_matches_format(fmt, *_table_columns(fmt, np.where(k % 2, k, -k) * 1.0,
                                                      values))


_TAU_BOUND = durations._EXACT  # whole taus at or past it go through format()


@pytest.mark.parametrize("fmt", _ROW_FORMATS)
@pytest.mark.parametrize("taus", [
    np.array([_TAU_BOUND - 1, 1 - _TAU_BOUND, -0.0, 0.0, 7.0]),
    np.array([_TAU_BOUND, 1.0, 2.0]),
    np.array([-_TAU_BOUND, 1.0, 2.0]),
    np.array([np.nextafter(_TAU_BOUND, 0), 1.0, 2.0]),
    np.arange(1.0, 50_001.0) / 3,
    1e12 + np.arange(50_000.0),
    np.array([np.nan, 1.0, 2.0]),
    np.array([np.inf, -np.inf, 2.0]),
    np.arange(0.0),
    np.arange(_TABLE_ROWS - 1.0),
    np.arange(_TABLE_ROWS + 1.0),
], ids=["below-bound", "at-bound", "at-minus-bound", "just-below-bound-fraction",
        "fractional", "1e12", "nan", "inf", "rows-0", "rows-minus-1", "rows-plus-1"])
def test_write_table_matches_format_on_taus(fmt, taus):
    psi = np.random.default_rng(taus.size).uniform(0, 1, taus.size)
    _assert_table_matches_format(fmt, *_table_columns(fmt, taus, psi))


def test_other_pieces_take_format():
    # only float columns in .Nf fields, or .12g ones over whole numbers, take _fixed
    psi = np.linspace(0.0, 1.0, 5)
    assert durations._table_piece([np.arange(5.0), psi], [0, 6]) is not None
    for taus in (np.arange(5.0) / 3, 1e12 + np.arange(5.0), np.arange(5),
                 np.array([10**30, 1, 2, 3, 4], dtype=object)):
        assert durations._table_piece([taus, psi], [0, 6]) is None
        _assert_table_matches_format("{:.12g},{:.6f}", taus, psi)
    with pytest.raises(IndexError):  # a field without its column, as in str.format
        write_table(io.StringIO(), "h", "{:.12g},{:.6f}", np.arange(5.0))


def test_survival_csv_roundtrip():
    s = DurationSeries.from_values([1, 2, 3, 4])
    c = empirical_survival(s, [1, 2, 3, 4])
    buf = io.StringIO()
    write_survival_csv(c, buf)
    assert buf.getvalue().startswith("tau,psi\n")
    taus, psi = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1).T
    assert np.allclose(psi, c.psi, atol=1e-6)
    assert np.array_equal(taus, c.taus)
    for taus, psi in (([np.nan, 1.0], [1.0, 0.5]), ([1.0, np.inf], [1.0, 0.5]),
                      ([1.0, 2.0], [np.nan, 0.5]), ([1.0, 2.0], [1.0, -np.inf])):
        with pytest.raises(ValueError, match="finite"):
            SurvivalCurve(taus=taus, psi=psi)
