"""The shared sweep result shape and output layer: CLI sweeps, edge warnings
and the CSV table round-trip."""

import io
import re
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrakit import SurvivalCurve, delta_comb, durations, svgplot
from spectrakit.cli import main
from spectrakit.delta_comb import DeltaComb, write_comb_csv
from spectrakit.durations import MAX_GRID_POINTS, write_survival_csv
from spectrakit.tikhonov import SpectrumGrid, write_spectrum_csv


@pytest.fixture
def exp_data(tmp_path):
    path = tmp_path / "exp.txt"
    assert main(["gen", "--exp", "0.2", "--n", "3000", "--seed", "3",
                 "-o", str(path)]) == 0
    return str(path)


def test_comb_plot_rebuilds_only_the_picked_delta_t(exp_data, tmp_path, monkeypatch):
    # the sweep scores each delta_t without a full curve; only the plot
    # builds one, for the pick
    calls = []
    original = delta_comb.comb_survival

    def counted(comb, taus):
        calls.append(comb.delta_t)
        return original(comb, taus)

    monkeypatch.setattr(delta_comb, "comb_survival", counted)
    assert main(["comb", "--input", exp_data, "--dt", "50,500,5000",
                 "--grid", "1:30:30,lin", "-o", str(tmp_path / "cb"),
                 "--plot"]) == 0
    assert calls == [50.0]
    assert (tmp_path / "cb_fit.svg").exists()


@pytest.mark.parametrize("argv, warning", [
    (["tikhonov", "--n", "40", "--h", "0.02", "--mu", "1e-6,1e-3,1,1e3"], None),
    (["tikhonov", "--n", "40", "--h", "0.02", "--mu", "1e-3,1e3"],
     "warning: best mu = 0.001 is at the lower edge of its 2-point grid"),
    # the edge is by value, not by position in the list
    (["tikhonov", "--n", "40", "--h", "0.02", "--mu", "1e3,1e-3"],
     "warning: best mu = 0.001 is at the lower edge of its 2-point grid"),
    (["comb", "--dt", "1,5000", "--grid", "1:30:30,lin"],
     "warning: best delta_t = 5000 is at the upper edge of its 2-point grid"),
    (["comb", "--dt", "5000", "--grid", "1:30:30,lin"], None),
    (["tikhonov", "--n", "40", "--auto-h", "--mu", "1e-6,1e-3,1,1e3"], None),
], ids=["mu-interior", "mu-lower", "mu-lower-reversed", "dt-upper", "dt-single",
        "auto-h-interior"])
def test_edge_pick_warns_on_stderr(exp_data, tmp_path, capsys, argv, warning):
    assert main([*argv, "--input", exp_data, "-o", str(tmp_path / "run")]) == 0
    out, err = capsys.readouterr()
    assert "warning" not in out
    assert err.splitlines() == ([warning] if warning else [])


def test_auto_h_warns_when_its_delta_t_pick_is_an_edge(tmp_path, capsys):
    path = tmp_path / "mix.txt"
    assert main(["gen", "--mixture", "0.5:0.25,0.5:0.05", "--n", "3000",
                 "--seed", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["tikhonov", "--input", str(path), "--n", "40", "--auto-h",
                 "--mu", "1e-3,1e-2,1e-1,1", "-o", str(tmp_path / "run")]) == 0
    out, err = capsys.readouterr()
    assert "# best_mu = 0.01" in out.splitlines()
    assert err.splitlines() == [
        "warning: best delta_t = 118.83 is at the lower edge of its 30-point grid"]


def _svg(curves, **kwargs):
    buf = io.StringIO()
    assert svgplot.line_plot_svg(curves, buf, **kwargs) is None
    return buf.getvalue()


def test_polyline_points_skip_non_finite_and_non_positive():
    # golden polylines: log axes drop x=0, y<=0, NaN and inf points; linear
    # axes drop NaN and inf
    x = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0])
    y = np.array([1.0, 0.5, 0.0, -0.25, np.nan, 0.03, np.inf, 1e-4])
    log = _svg([(x, y, "a"), (x, np.exp(-x / 4), "b")], log_x=True, log_y=True)
    lin = _svg([(x, y, "a")])
    assert re.findall(r'points="([^"]*)"', log) == [
        "70.00,69.35 445.66,188.48 620.00,430.00",
        "70.00,50.59 195.22,61.17 268.47,71.76 360.75,92.93 445.66,124.69 "
        "533.36,177.62 620.00,262.30"]
    assert re.findall(r'points="([^"]*)"', lin) == [
        "70.00,40.00 96.19,196.00 122.38,352.00 148.57,430.00 279.52,342.64 "
        "620.00,351.97"]


# in pieces of 4, piece 0 has no finite x, and on log axes piece 1 has no
# finite (x, y) pair and piece 2 no finite y; NaN, inf, -inf and 0 all turn up
PIECE_X = np.array([np.nan, np.inf, -np.inf, np.nan, 0.0, -2.0, 1.0, 2.0,
                    3.0, 5.0, 8.0, 13.0, 21.0])
PIECE_Y = np.array([1.0, 0.5, 0.25, 0.1, 0.5, 0.4, -1.0, 0.0,
                    np.nan, -np.inf, np.inf, 0.0, 1e-3])


def _svg_or_error(curves, **kwargs):
    try:
        return _svg(curves, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("log_x, log_y", [(False, False), (True, True), (False, True)])
def test_polyline_pieces_join_like_one_piece(monkeypatch, log_x, log_y):
    # pieces of 4 points give, byte for byte, the document of one piece
    cases = []
    for n in range(14):
        x, y = PIECE_X[:n], PIECE_Y[:n]
        cases += [[(x, y, "a")], [(x, y, "a"), (x[::-1], np.exp(-x / 4), "b")],
                  [(x, y, ""), (np.arange(1.0, 4.0), np.array([0.5, 0.2, 0.1]), "c")]]
    whole = [_svg_or_error(c, log_x=log_x, log_y=log_y) for c in cases]
    monkeypatch.setattr(durations, "_TABLE_ROWS", 4)
    assert [_svg_or_error(c, log_x=log_x, log_y=log_y) for c in cases] == whole
    assert whole[0] == whole[3] == "ValueError: no finite points to plot"
    assert 'points=""' in whole[2]
    assert sum(doc.startswith("<svg") for doc in whole) > len(cases) // 2


@pytest.mark.parametrize("nx, ny", [(5, 4), (4, 5), (5, 7), (1, 3), (0, 1), (8, 9)])
def test_polyline_unequal_lengths_raise(monkeypatch, nx, ny):
    monkeypatch.setattr(durations, "_TABLE_ROWS", 4)
    with pytest.raises(ValueError, match="equal lengths"):
        _svg([(np.arange(1.0, nx + 1), np.arange(1.0, ny + 1), "a")])


TEXTS = ["a & b", "<g>", "x > 0 & y < 1", "\"quoted\" 'single'", "&amp;", "&lt;&gt;",
         "ψ(τ) — Δt ≥ 2 µs", "", "&&<<>>", "plain"]


@given(st.lists(st.sampled_from(TEXTS) | st.text(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_svg_escape_is_saxutils_escape(pieces):
    text = "".join(pieces)
    assert svgplot._escape(text) == escape(text)


def test_svg_titles_and_labels_are_escaped():
    x = np.array([1.0, 2.0])
    texts = {"title": "a & b", "xlabel": "&amp;", "ylabel": "ψ(τ) — Δt ≥ 2 µs"}
    svg = _svg([(x, x, "x > 0 & y < 1")], **texts)
    for text in (*texts.values(), "x > 0 & y < 1"):
        assert f">{escape(text)}</text>" in svg


def _format_points(x, y):
    # the reference: one format() call per point
    return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))


def _assert_points_match_format(x, y):
    # point by point, so that a failure lists its first points, not a diff of MBs
    got, want = svgplot._points(x, y).split(" "), _format_points(x, y).split(" ")
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert (len(got), bad[:5]) == (len(want), [])


_HALVES = np.concatenate([np.arange(-1_000, 64_100),
                          np.arange(104_857_000, 104_857_600)]) + 0.5
_HALVES /= 100
_BOUND = durations._EXACT / 100


@pytest.mark.parametrize("values", [
    np.random.default_rng(5).uniform(0, 640, 100_000),
    np.random.default_rng(6).uniform(-_BOUND, _BOUND, 100_000),
    np.concatenate([_HALVES, np.nextafter(_HALVES, np.inf),
                    np.nextafter(_HALVES, -np.inf)]),
    np.array([-0.0, 0.0, 1e-300, -1e-300, 5e-324, -0.001, -0.005, -0.0051,
              -1.0, -9.995, -639.99, 99.995, 999.999]),
    np.array([np.nextafter(_BOUND, 0), -np.nextafter(_BOUND, 0), 12.5, -3.0]),
    np.array([_BOUND, 12.5, -3.0]),
    np.array([-_BOUND, 12.5, -3.0]),
    np.array([np.nextafter(_BOUND, np.inf), 1e300, -1e300, 0.25]),
    np.array([np.nan, 1.5, 2.5]),
    np.array([np.inf, -np.inf, 0.125]),
    np.array([]),
], ids=["uniform-0-640", "uniform-bound", "half-hundredths", "signs-and-tiny",
        "below-bound", "at-bound", "at-minus-bound", "past-bound", "nan", "inf",
        "empty"])
def test_points_match_format_byte_for_byte(values):
    for x, y in ((values, values[::-1]), (values, np.zeros_like(values)),
                 (np.full_like(values, -0.0), values)):
        _assert_points_match_format(x, y)


@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=20))
@settings(max_examples=300, deadline=None)
def test_points_match_format_on_any_floats(pairs):
    x, y = np.array(pairs, dtype=float).reshape(-1, 2).T
    _assert_points_match_format(x, y)


def test_points_pinned_roundings():
    # exact binary ties round to even; 2.675 and 1.005 sit just below a half
    x = np.array([0.125, 0.375, 2.675, 1.005, -0.001])
    assert svgplot._points(x, x[::-1]) == (
        "0.12,-0.00 0.38,1.00 2.67,2.67 1.00,0.38 -0.00,0.12")


def test_cli_plots_match_the_format_reference(tmp_path, monkeypatch):
    # every SVG the commands write, against the one-format()-per-point writer
    data = tmp_path / "ml.txt"
    assert main(["gen", "--ml", "--n", "3000", "--seed", "4", "-o", str(data)]) == 0

    def plots(out):
        out.mkdir()
        assert main(["survival", "--input", str(data), "-o", str(out / "s.csv"),
                     "--plot", str(out / "s.svg")]) == 0
        for command in ("tikhonov", "comb"):
            assert main([command, "--input", str(data), "-o", str(out / command),
                         "--plot"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.svg"))}

    fast = plots(tmp_path / "fast")
    monkeypatch.setattr(svgplot, "_points", _format_points)
    reference = plots(tmp_path / "reference")
    assert [name for name in fast if reference[name] != fast[name]] == []
    assert len(fast) == 5 and fast["comb_fit.svg"].count(b",") > 4000


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
positive = st.floats(min_value=1e-300, max_value=1e300)


def _roundtrip(write, rebuild, value, skiprows=1):
    # write, load the columns with numpy's parser, rebuild(text, columns), write again
    buf = io.StringIO()
    write(value, buf)
    text = buf.getvalue()
    back = rebuild(text, np.loadtxt(io.StringIO(text), delimiter=",", skiprows=skiprows,
                                    ndmin=2).T)
    again = io.StringIO()
    write(back, again)
    assert again.getvalue() == text
    return back


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, MAX_GRID_POINTS), min_size=1, max_size=30, unique=True),
       st.sampled_from([1, 3, 7, 1000]), st.data())
def test_survival_csv_roundtrip_property(ticks, denominator, data):
    # whole taus up to the grid limit come back exactly, fractional ones to
    # 12 digits; at six digits 1e6 and 1e6 + 1 would both read '1e+06'
    taus = np.sort(np.array(ticks, dtype=float)) / denominator
    psi = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=taus.size,
                                      max_size=taus.size)))
    back = _roundtrip(write_survival_csv,
                      lambda text, cols: SurvivalCurve(taus=cols[0], psi=cols[1]),
                      SurvivalCurve(taus=taus, psi=psi))
    if denominator == 1:
        assert np.array_equal(back.taus, taus)
    assert np.allclose(back.taus, taus, rtol=1e-11, atol=0)
    assert np.allclose(back.psi, psi, rtol=0, atol=5e-7)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
def test_spectrum_csv_roundtrip_property(rows):
    lambdas, masses = np.array(rows).T
    back = _roundtrip(write_spectrum_csv, lambda text, cols: SpectrumGrid.from_arrays(*cols),
                      SpectrumGrid.from_arrays(lambdas, masses))
    assert np.allclose(back.lambdas, lambdas, rtol=1e-11, atol=0)
    assert np.allclose(back.masses, masses, rtol=1e-11, atol=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(positive, finite, st.integers(1, 10**9), positive),
                min_size=1, max_size=30),
       positive)
def test_comb_csv_roundtrip_property(rows, delta_t):
    rates, weights, counts, sums = (np.array(col) for col in zip(*rows))
    comb = DeltaComb(weights=weights, rates=rates, m=len(rows), delta_t=delta_t,
                     window_counts=counts, window_sums=sums)
    back = _roundtrip(write_comb_csv, lambda text, cols: DeltaComb(
        weights=cols[1], rates=cols[0], m=cols.shape[1],
        delta_t=float(text.split("\n", 1)[0].partition("=")[2]),
        window_counts=cols[2].astype(int), window_sums=cols[3]), comb, skiprows=2)
    assert back.m == comb.m
    assert back.delta_t == pytest.approx(delta_t, rel=1e-11)
    assert np.array_equal(back.window_counts, counts)
    for got, want in ((back.rates, rates), (back.weights, weights),
                      (back.window_sums, sums)):
        assert np.allclose(got, want, rtol=1e-11, atol=0)
