"""The numpy parse of input lines gives float()'s bits, line numbers and errors."""

import io
import re
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrakit import durations, load_durations
from spectrakit.cli import main

# the default piece size, and one that cuts most lines across two pieces
_CHUNKS = [durations._PARSE_CHUNK, 7]

# as built, and as on a platform whose longdouble is float64 (long
# mantissas then go to float())
_LD_BITS = sorted({durations._LD_BITS, 53})


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_exact(lines, chunk=_CHUNKS[0], ld_bits=durations._LD_BITS):
    # a str, a text stream and a list of lines all give float()'s bits
    text = "\n".join(lines) + "\n"
    want = _bits([float(line) for line in lines])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durations, "_PARSE_CHUNK", chunk)
        mp.setattr(durations, "_LD_BITS", ld_bits)
        for source in (text, io.StringIO(text), list(lines)):
            assert _bits(durations._parse_numbers(source)) == want


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_positive, min_size=1, max_size=20), st.integers(0, 20),
       st.sampled_from(_CHUNKS))
@example([0.1, 2.0 ** 53 + 2, 1.7976931348623157e308, 5e-324, 1e-05, 123.456], 20, 7)
def test_repr_and_fixed_renderings_parse_as_float_does(values, k, chunk):
    _assert_exact([repr(v) for v in values] + [f"%.{k}f" % v for v in values], chunk)


# digit strings with a '.' inserted at a position, or none at len + 1
_digit_lines = st.lists(
    st.tuples(st.text("0123456789", min_size=1, max_size=25), st.integers(0, 26))
    .map(lambda t: t[0] if t[1] % (len(t[0]) + 2) > len(t[0])
         else t[0][:t[1] % (len(t[0]) + 2)] + "." + t[0][t[1] % (len(t[0]) + 2):]),
    min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(_digit_lines, st.sampled_from(_CHUNKS), st.sampled_from(_LD_BITS))
@example(["0.00000000000000000000001", "0.00000000000000000000009",
          "9.9999999999999999999999", "0.12345678901234567890123",
          "9999999999999999999.9", "99999999999999999999", "18446744073709551615",
          "18446744073709551616.5", "0000000000000000001.5", "0.98765432109876543210",
          "000000000000000000000123.4"], 7, 64)
def test_digit_strings_parse_as_float_does(lines, chunk, ld_bits):
    _assert_exact(lines, chunk, ld_bits)


def _around(n, reach=40):
    return [str(i) for i in range(n - reach, n + reach)]


@pytest.mark.parametrize("chunk", _CHUNKS)
@pytest.mark.parametrize("ld_bits", _LD_BITS)
def test_integers_around_two_to_53_and_ten_to_19(chunk, ld_bits):
    lines = []
    for n in (2 ** 53, 2 ** 54, 10 ** 19, 2 ** 64, 10 ** 18):
        lines += _around(n)
        lines += [s + ".0" for s in _around(n, 5)]
        lines += [s[:-1] + "." + s[-1] for s in _around(n)]  # n / 10
        lines += [s[:-3] + "." + s[-3:] for s in _around(n)]  # n / 1000
    _assert_exact(lines, chunk, ld_bits)


def _midpoint_renderings(seed):
    # exact double midpoints in decimal, rounded to 15-19 significant
    # digits, with their last-digit neighbours
    rng = np.random.default_rng(seed)
    lines = []
    with localcontext() as ctx:
        ctx.prec = 2000
        for e in range(-20, 64):
            for j in rng.integers(2 ** 52, 2 ** 53, 6).tolist():
                mid = Decimal(2 * j + 1) * Decimal(2) ** (e - 53)
                lines.append(format(mid, "f"))
                for digits in range(15, 20):
                    ctx.prec = digits
                    near = +mid
                    ctx.prec = 2000
                    unit = Decimal(1).scaleb(near.adjusted() - digits + 1)
                    lines += [format(near + d * unit, "f") for d in (-1, 0, 1)]
    return lines


@pytest.mark.parametrize("chunk", _CHUNKS)
@pytest.mark.parametrize("ld_bits", _LD_BITS)
def test_double_midpoints_and_their_neighbours(chunk, ld_bits):
    _assert_exact(_midpoint_renderings(5), chunk, ld_bits)


def test_midpoints_reach_the_tie_fallback(monkeypatch):
    # some of those renderings land on a midpoint in 64 bits: they go to float()
    if durations._LD_BITS != 64:
        pytest.skip("longdouble is not the 64-bit x87 type")
    fallen = []
    exact = durations._exact

    def recording(m, q):
        v, hard = exact(m, q)
        fallen.append(hard.size)
        return v, hard

    monkeypatch.setattr(durations, "_exact", recording)
    durations._parse_numbers("\n".join(_midpoint_renderings(5)))
    assert sum(fallen) >= 5


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["exp-50k", "ml-55k", "mix-250k-ts"])
def test_bench_inputs_parse_as_line_by_line(tmp_path, bench_child, name, seed):
    wl = bench_child.WORKLOADS[name]
    path = tmp_path / "in.txt"
    bench_child.generate(wl, wl.n, seed, str(path))
    with open(path, encoding="utf-8") as fh:
        want = _bits(np.fromiter(durations._parse_lines(fh), dtype=float))
    with open(path, encoding="utf-8") as fh:
        assert _bits(durations._parse_numbers(fh)) == want
    text = path.read_text(encoding="utf-8")
    assert _bits(durations._parse_numbers(text)) == want


def test_non_str_lines_are_refused_anywhere(monkeypatch):
    monkeypatch.setattr(durations, "_PARSE_LINES", 4)
    for bad, name in ((b"2", "bytes"), (2.5, "float"), (None, "NoneType")):
        # first, in the middle, and first of the second chunk of 4 lines
        for lines in ([bad, "1"], ["1", bad, "3"], ["1", "2", "3", "4", bad, "6"]):
            for source in (lines, iter(lines)):
                with pytest.raises(TypeError, match="^source must be str or an iterable "
                                                    f"of str lines, not {name} lines$"):
                    load_durations(source)


def test_str_breaks_are_the_splitlines_breaks():
    ends = {c for c in map(chr, range(sys.maxunicode + 1))
            if len(f"1{c}2".splitlines()) == 2}
    assert ends == {"\n", *durations._STR_BREAKS}


def test_line_numbers_count_splitlines_breaks_and_cut_pieces(monkeypatch):
    # a str splits at every str.splitlines() break, a stream at '\n' only,
    # whether or not a piece ends inside a line
    for chunk in (1, 3, 5, durations._PARSE_CHUNK):
        monkeypatch.setattr(durations, "_PARSE_CHUNK", chunk)
        text = "# h\x0c1.5\n2\r\n 3\x1c"
        with pytest.raises(ValueError, match=r"^line 5: cannot parse 'x' as a number$"):
            load_durations(text + "x\n4\n")
        with pytest.raises(ValueError, match=r"^line 3: cannot parse '3\\x1cx' as a number$"):
            load_durations(io.StringIO(text + "x\n4\n"))
        assert load_durations(text).values.tolist() == [1.5, 2.0, 3.0]
        assert load_durations(io.StringIO(text)).values.tolist() == [2.0, 3.0]
        assert load_durations("1\n2").values.tolist() == [1.0, 2.0]


def _numbers_or_error(parse, source):
    try:
        return _bits(parse(source))
    except ValueError as exc:
        return str(exc)


def _line_by_line(lines):
    return np.fromiter(durations._parse_lines(lines), dtype=float)


# plain and other data lines, '#' and blank lines, and lines that fail
_LINES = ["1", "2.5", "007.50", "1e-05", " 3 ", "+4", "# c", "  # c", "", " ", "\t",
          "x", "1e400", "nan", "1.", ".5"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_LINES), st.booleans()), max_size=20),
       st.sampled_from([1, 2, 3, 4, 16_384]))
@example([("1", False)] * 3 + [("", False), ("x", False)], 4)
@example([("1", True)] * 3 + [("", True), ("x", True)], 4)
def test_lines_of_an_iterable_keep_their_numbers(rows, per_chunk):
    # chunks of lines, some ended by '\n' as readlines() gives them, parse as
    # the lines one by one do, with the same 'line N: ...' error
    lines = [line + "\n" if ended else line for line, ended in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durations, "_PARSE_LINES", per_chunk)
        want = _numbers_or_error(_line_by_line, lines)
        assert _numbers_or_error(durations._parse_numbers, lines) == want
        assert _numbers_or_error(durations._parse_numbers, iter(lines)) == want


def test_an_empty_last_line_of_a_chunk_counts():
    lines = ["1"] * (durations._PARSE_LINES - 1) + ["", "x"]
    for source in (lines, [line + "\n" for line in lines]):
        with pytest.raises(ValueError, match=r"^line 16385: cannot parse 'x' as a number$"):
            load_durations(source)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_LINES), st.sampled_from(["\n", "\r", "\r\n"])),
                max_size=20),
       st.sampled_from([None, "", "\n"]), st.sampled_from([1, 2, 3, 7, durations._PARSE_CHUNK]))
@example([("1", "\r"), ("2.5", "\r"), ("x", "\r")], "", 7)
def test_streams_split_lines_as_iterating_them_does(rows, newline, chunk):
    # in every newline mode a stream ends its lines where iterating it opened
    # with newline="" does: at '\n', '\r\n' and a lone '\r'
    text = "".join(line + end for line, end in rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(durations, "_PARSE_CHUNK", chunk)
        want = _numbers_or_error(_line_by_line, io.StringIO(text, newline=""))
        got = _numbers_or_error(durations._parse_numbers, io.StringIO(text, newline=newline))
    assert got == want


def test_a_file_of_lone_carriage_returns(tmp_path, monkeypatch):
    path = tmp_path / "cr.txt"
    path.write_bytes(b"# h\r1\r2.5\r\r3e0\r")
    for chunk in (2, 5, durations._PARSE_CHUNK):
        monkeypatch.setattr(durations, "_PARSE_CHUNK", chunk)
        for newline in (None, ""):
            with open(path, newline=newline) as fh:
                assert load_durations(fh).values.tolist() == [1.0, 2.5, 3.0]
        with open(path, "ab") as fh:
            fh.write(b"x\r")
        with open(path, newline="") as fh:
            with pytest.raises(ValueError, match=r"^line 6: cannot parse 'x' as a number$"):
                load_durations(fh)
        path.write_bytes(b"# h\r1\r2.5\r\r3e0\r")
    # a stream that keeps '\r' in its lines (newline="\n") splits there too
    assert load_durations(io.StringIO("1\r2\n")).values.tolist() == [1.0, 2.0]
    # newline="\r" ends lines at '\r' only when iterated, but is read at '\n' too
    path.write_bytes(b"1\n2\n")
    with open(path, newline="\r") as fh:
        assert load_durations(fh).values.tolist() == [1.0, 2.0]


# texts of each line end, and of all three, with and without a line that fails
_ENDED = [end.join(lines) + end for end in ("\n", "\r\n", "\r")
          for lines in (["# h", "1", "", "2.5"], ["1", "", "x", "3"])]
_ENDED += ["# h\r1\r\n\r2.5\n", "1\r\n\rx\r3\n"]


def _loaded(source):
    return load_durations(source).values


@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
@pytest.mark.parametrize("chunk", [1, 2, 3, durations._PARSE_CHUNK])
def test_every_newline_mode_ends_lines_at_each_line_end(tmp_path, newline, chunk, monkeypatch):
    # a file in any newline mode, and an io.StringIO, give the values or the
    # 'line N: ...' error of the same text read with newline=""
    monkeypatch.setattr(durations, "_PARSE_CHUNK", chunk)
    path = tmp_path / "t.txt"
    for text in _ENDED:
        path.write_bytes(text.encode())
        with open(path, newline="") as fh:
            want = _numbers_or_error(_line_by_line, fh)
        with open(path, newline=newline) as fh:
            assert _numbers_or_error(_loaded, fh) == want, (text, newline)
        assert _numbers_or_error(_loaded, io.StringIO(text)) == want, text


def _other(v, i):
    # the lines np.savetxt, a signed and a padded writer give
    return ["%.18e" % v, "+%r" % v, " %r " % v][i % 3]


@pytest.mark.parametrize("share", [0, 1, 2, 3, 4])
def test_other_lines_take_one_float_pass_per_piece(monkeypatch, share):
    # pieces of exponent, signed or padded lines (a quarter of them up to all)
    # go through _floats once each, never line by line, and still count lines
    rng = np.random.default_rng(share)
    values = rng.exponential(12.0, 4000).tolist()
    lines = [_other(v, i) if i % 4 < share else repr(v) for i, v in enumerate(values)]
    text = "# h\n" + "\n".join(lines) + "\n"
    monkeypatch.setattr(durations, "_PARSE_CHUNK", 4096)
    want = _bits([float(line) for line in lines])
    for source in (text, io.StringIO(text), text.splitlines(), text.replace("\n", "\r\n")):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(durations, "_parse_lines", None)
            assert _bits(durations._parse_numbers(source)) == want
    with pytest.raises(ValueError, match=r"^line 4002: cannot parse 'x' as a number$"):
        load_durations(text + "x\n")
    with pytest.raises(ValueError, match=r"^line 3002: '1e400' is not a finite number$"):
        load_durations("\n".join(["# h", *lines[:3000], "1e400", *lines[3000:]]))


def test_plain_lines_past_19_digits_take_the_float_pass(monkeypatch):
    # numpy packs mantissas of at most 19 digits; longer plain lines go to
    # _floats with the piece's other lines, and give float()'s bits
    rng = np.random.default_rng(29)
    lines = []
    for digits in range(20, 25):
        for cut in range(1, digits + 1):  # the '.' after `cut` digits, none at the end
            s = "".join(map(str, rng.integers(0, 10, digits)))
            lines.append(s if cut == digits else s[:cut] + "." + s[cut:])
    texts = []
    floats = durations._floats

    def recording(strings, numbers):
        texts.extend(strings)
        return floats(strings, numbers)

    monkeypatch.setattr(durations, "_floats", recording)
    got = durations._parse_numbers("1.5\n" + "\n".join(lines) + "\n")
    assert _bits(got) == _bits([1.5] + [float(line) for line in lines])
    assert texts == lines


def test_an_error_is_found_among_the_other_lines_alone(monkeypatch):
    # a bad line of a piece of mostly plain lines is reported with its number
    # from the piece's other lines alone: no plain line is parsed again
    values = np.random.default_rng(8).exponential(12.0, 4000).tolist()
    lines = [_other(v, i) if i % 4 == 0 else repr(v) for i, v in enumerate(values)]
    lines[3000] = "1e400"
    seen = []
    parse_lines = durations._parse_lines

    def recording(texts, numbers=None):
        seen.append(list(texts))
        return parse_lines(seen[-1], numbers)

    monkeypatch.setattr(durations, "_parse_lines", recording)
    with pytest.raises(ValueError, match=r"^line 3002: '1e400' is not a finite number$"):
        load_durations("# h\n" + "\n".join(lines) + "\n")
    plain = re.compile(r"[0-9]+(\.[0-9]+)?")
    others = [line for line in lines
              if not (plain.fullmatch(line) and len(line.replace(".", "")) <= 19)]
    assert seen == [others] and len(others) < 1100


def test_float_pieces_follow_pieces_of_mostly_other_lines(monkeypatch):
    # after a piece in which over a third of the lines went to float(), every
    # later piece goes to float() whole, with its line numbers and errors
    calls = []
    floats = durations._floats

    def recording(texts, numbers):
        if isinstance(numbers, range):  # a whole piece, not a piece's other lines
            calls.append(len(texts))
        return floats(texts, numbers)

    monkeypatch.setattr(durations, "_floats", recording)
    monkeypatch.setattr(durations, "_PARSE_CHUNK", 64)
    lines = ["%.18e" % (k + 0.5) for k in range(20)] + [repr(k + 0.25) for k in range(20)]
    text = "\n".join(lines) + "\n"
    assert _bits(load_durations(text).values) == _bits([float(line) for line in lines])
    assert len(calls) > 5 and sum(calls) < len(lines)
    lines[25] = " # late\x0ccomment"
    with pytest.raises(ValueError, match=r"^line 27: cannot parse 'comment' as a number$"):
        load_durations("\n".join(lines) + "\n")
    assert load_durations(io.StringIO("\n".join(lines) + "\n")).n == 39


def _timestamps_text(n=250_000):
    rng = np.random.default_rng(303)
    times = np.cumsum(rng.exponential(12.0, n))
    return "# timestamps\n" + "\n".join(map(repr, times.tolist())) + "\n"


def _peak(load):
    tracemalloc.start()
    try:
        series = load()
        return tracemalloc.get_traced_memory()[1], series
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("end", ["\n", "\r", "\x0c", "\x1e"], ids=["lf", "cr", "ff", "rs"])
def test_str_source_peak_stays_near_the_file_source_peak(tmp_path, end):
    # a str is parsed a piece at a time, not as a list of all its lines,
    # whether its lines end in '\n', a lone '\r' or another str.splitlines()
    # break; the file holds the same lines ended by '\n'
    text = _timestamps_text()
    path = tmp_path / "ts.txt"
    path.write_text(text, encoding="utf-8")
    text = text.replace("\n", end)
    with open(path, encoding="utf-8") as fh:
        file_peak, from_file = _peak(lambda: load_durations(fh, mode="timestamps"))
    str_peak, from_str = _peak(lambda: load_durations(text, mode="timestamps"))
    assert _bits(from_str.values) == _bits(from_file.values)
    assert str_peak < 1.25 * file_peak + 1e6


def _run_on(tmp_path, capsys, data: bytes):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    code = main(["survival", "--input", str(path), "-o", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert not (tmp_path / "s.csv").exists()
    assert len(err) == 1 and "Traceback" not in err[0]
    return err[0]


def test_malformed_input_bytes_end_in_one_error_line(tmp_path, capsys):
    line = _run_on(tmp_path, capsys, b"# h\n" + b"12.5\n" * 3000 + b"7\xff\n1\n")
    assert line.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")
    assert line.endswith(": invalid start byte")
    line = _run_on(tmp_path, capsys, b"1\n2\x005\n3\n")
    assert line == r"error: line 2: cannot parse '2\x005' as a number"
