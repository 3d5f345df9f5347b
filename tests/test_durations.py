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
        mp.setattr(durations, "_parse_numbers",
                   lambda lines: np.fromiter(durations._parse_lines(lines), dtype=float))
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
        mp.setattr(durations, "_parse_numbers",
                   lambda lines: np.fromiter(durations._parse_lines(lines), dtype=float))
        slow = _load_or_error(text, mode, as_file)
    assert fast == slow


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


@pytest.mark.parametrize("rows", [0, 1, _TABLE_ROWS - 1, _TABLE_ROWS, _TABLE_ROWS + 1,
                                  2 * _TABLE_ROWS + 3])
def test_write_table_pieces_equal_row_by_row(rows):
    rng = np.random.default_rng(rows)
    x, k = rng.exponential(3.0, rows), rng.integers(-10**6, 10**6, rows)
    buf = io.StringIO()
    write_table(buf, "x,k", "{:.12g},{:d}".format, x, k)
    expected = "x,k\n" + "".join(f"{a:.12g},{b:d}\n" for a, b in zip(x.tolist(), k.tolist()))
    assert buf.getvalue() == expected
    with pytest.raises(ValueError, match="equal lengths"):
        write_table(io.StringIO(), "x,k", "{},{}".format, [1.0], [1, 2])


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
