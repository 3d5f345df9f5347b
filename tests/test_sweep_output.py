"""The shared sweep result shape and output layer: CLI sweeps, edge warnings
and the CSV table round-trip."""

import io
import math
import re
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrakit import SurvivalCurve, delta_comb, durations, svgplot, synthetic
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


def test_comb_plot_evaluates_a_sliver_of_a_long_grid(tmp_path, monkeypatch, capsys):
    # the plot samples the picked comb's curve: few calls, few taus
    data = tmp_path / "ml.txt"
    assert main(["gen", "--ml", "--n", "3000", "--seed", "4", "-o", str(data)]) == 0
    calls = []
    original = delta_comb.comb_survival

    def counted(comb, taus):
        calls.append((comb.delta_t, np.size(taus)))
        return original(comb, taus)

    monkeypatch.setattr(delta_comb, "comb_survival", counted)
    n = 20_000
    capsys.readouterr()
    assert main(["comb", "--input", str(data), "--grid", f"1:{n}:{n},lin",
                 "-o", str(tmp_path / "cb"), "--plot"]) == 0
    picked = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("# best_delta_t = ")]
    assert [f"# best_delta_t = {dt:g}" for dt in {dt for dt, _ in calls}] == picked
    assert len(calls) <= math.ceil(math.log2(n)) + 1
    assert sum(size for _, size in calls) < 0.1 * n


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


def test_axes_spanning_past_the_float_range_are_mapped_from_halves():
    # 1e308 - -1e308 overflows; its halves do not, and halving them is exact
    wide, ticks = np.array([-1e308, 0.0, 1e308]), ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]
    one_to_three = np.array([1.0, 2.0, 3.0])
    for x, y, at in ((wide, one_to_three, 0), (one_to_three, wide, 5)):
        svg = _svg([(x, y, "a")])
        assert re.findall(r'points="([^"]*)"', svg) == ["70.00,430.00 345.00,235.00 620.00,40.00"]
        assert re.findall(r">([^<]*)</text>", svg)[at:at + 5] == ticks


def test_a_subnormal_span_keeps_its_frame():
    # halving 5e-324 gives 0, so only a span past the float range is halved
    svg = _svg([(np.array([0.0, 5e-324]), np.array([0.0, 5e-324]), "a")])
    assert re.findall(r'points="([^"]*)"', svg) == ["70.00,430.00 620.00,40.00"]


def test_a_sampled_curve_of_a_huge_rate_is_quiet():
    # the chord bound |s- - s+| * dx overflows to inf, which splits, as it should
    taus = np.array([0.0, 1e-300, 1e22, 2e22])
    svg = _svg([(taus, lambda t: np.exp(-1e297 * np.minimum(t, 1.0)), "a")])
    assert re.findall(r'points="([^"]*)"', svg) == [
        "70.00,40.00 70.00,40.39 345.00,430.00 620.00,430.00"]


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


def _flat_reference(x, y, log_x, log_y):
    # x, y less the points the flat-run rule drops, one finite point at a time
    tx = np.log10(np.where(x > 0, x, np.nan)) if log_x else x
    ty = np.log10(np.where(y > 0, y, np.nan)) if log_y else y
    finite = np.flatnonzero(np.isfinite(tx) & np.isfinite(ty)).tolist()
    drop = [i for prev, i, nxt in zip(finite, finite[1:], finite[2:])
            if ty[prev] == ty[i] == ty[nxt]
            and min(tx[prev], tx[nxt]) < tx[i] < max(tx[prev], tx[nxt])]
    return np.delete(x, drop), np.delete(y, drop)


def test_flat_runs_keep_their_ends():
    x = np.arange(1.0, 9.0)
    y = np.array([1.0, 1.0, np.nan, 1.0, 1.0, 0.5, 0.5, 0.5])
    assert re.findall(r'points="([^"]*)"', _svg([(x, y, "a")])) == [
        "70.00,40.00 384.29,40.00 462.86,430.00 620.00,430.00"]


@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, np.nan]),
                          st.sampled_from([0.5, 0.25, 0.0, np.nan, np.inf])), max_size=14),
       st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_flat_runs_are_dropped_across_pieces(points, log_x, log_y):
    # the document of the points the rule keeps, and the same in pieces of 4
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    kx, ky = _flat_reference(x, y, log_x, log_y)
    curves = [(x, y, "a"), (x[::-1], y, "b")]
    whole = _svg_or_error(curves, log_x=log_x, log_y=log_y)
    assert whole == _svg_or_error([(kx, ky, "a"), _flat_reference(x[::-1], y, log_x, log_y)
                                   + ("b",)], log_x=log_x, log_y=log_y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(durations, "_TABLE_ROWS", 4)
        assert _svg_or_error(curves, log_x=log_x, log_y=log_y) == whole


def _pixels(curves, log_y):
    # exact px of the finite points of array curves, in the frame they give
    # together, by svgplot's arithmetic
    ys = [np.log10(np.where(y > 0, y, np.nan)) if log_y else y for _, y in curves]
    x0, x1 = min(x.min() for x, _ in curves), max(x.max() for x, _ in curves)
    y0, y1 = min(np.nanmin(y) for y in ys), max(np.nanmax(y) for y in ys)
    x1, y1 = x1 + (x1 == x0), y1 + (y1 == y0)
    w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    return [np.column_stack((svgplot._MARGIN_L + (x - x0) / (x1 - x0) * w,
                             svgplot._MARGIN_T + (y1 - y) / (y1 - y0) * svgplot._PLOT_H)
                            )[np.isfinite(y)] for (x, _), y in zip(curves, ys)]


def _distances(points, line):
    # perpendicular distance of each point to the polyline through line's
    # rows, over the three segments nearest the point's x (a lone point is
    # a segment of length 0)
    a, b = line, np.vstack((line[1:], line[-1:]))
    near = np.searchsorted(line[:, 0], points[:, 0]) - 1
    best = np.full(len(points), np.inf)
    for step in (-1, 0, 1):
        k = np.clip(near + step, 0, len(a) - 1)
        ab, ap = b[k] - a[k], points - a[k]
        length = np.sum(ab * ab, axis=1)
        t = np.clip(np.divide(np.sum(ap * ab, axis=1), length, out=np.zeros(len(k)),
                              where=length > 0), 0.0, 1.0)
        best = np.minimum(best, np.hypot(*(ap - t[:, None] * ab).T))
    return best


def _check_sampled(x, f, others, log_y, same_frame):
    """Plot f on the grid x, sampled, after the array curves others: its
    points are grid points (the ends among them), it keeps to its call
    budget, and every grid point lies within _EPS px of its polyline, plus
    the 0.005 px of the printing.  With same_frame, every line but the
    polylines is the one the whole curve gives; comb_survival on a subset
    of the grid may differ from the whole grid's values by 1e-14
    relative, so where an extreme moves by an ulp, a tick label can too."""
    calls = []

    def counted(t):
        calls.append(t.size)
        return f(t)

    full = f(x)
    sampled = _svg([*[(ox, oy, "") for ox, oy in others], (x, counted, "model")], log_y=log_y)
    whole = _svg([*[(ox, oy, "") for ox, oy in others], (x, full, "model")], log_y=log_y)
    assert not same_frame or ([line for line in sampled.splitlines() if "<polyline" not in line]
                              == [line for line in whole.splitlines() if "<polyline" not in line])
    assert len(calls) <= math.ceil(math.log2(x.size)) + 1 and sum(calls) <= x.size
    exact = _pixels([*others, (x, full)], log_y)[-1]
    drawn = re.findall(r'points="([^"]*)"', sampled)[-1].split()
    grid = [f"{px:.2f},{py:.2f}" for px, py in exact]
    assert set(drawn) <= set(grid) and (drawn[0], drawn[-1]) == (grid[0], grid[-1])
    line = np.array([p.split(",") for p in drawn], dtype=float)
    assert _distances(exact, line).max() <= svgplot._EPS + 0.005 * math.sqrt(2)
    return len(drawn)


@pytest.fixture(scope="module")
def ml_comb():
    series = synthetic.gen_mittag_leffler(synthetic.MlParams(beta=0.95, gamma=8.85), 3000, 4)
    empirical = durations.empirical_survival(series, durations.default_tau_grid(series))
    sweep = delta_comb.sweep_delta_t(series, delta_comb.default_delta_t_grid(series),
                                     empirical)
    return empirical, sweep.pick.comb


@pytest.mark.parametrize("log_y", [True, False])
def test_sampled_comb_fit_lies_within_eps_of_its_polyline(ml_comb, log_y):
    empirical, comb = ml_comb
    drawn = _check_sampled(empirical.taus, lambda t: delta_comb.comb_survival(comb, t).psi,
                           [(empirical.taus, empirical.psi)], log_y, same_frame=True)
    assert drawn < empirical.taus.size // 10


@given(st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-4, 2.0)), min_size=1,
                max_size=6),
       st.integers(2, 4000), st.floats(10.0, 3000.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sampled_combs_lie_within_eps_of_their_polylines(terms, n, tau_max, log_y):
    weights, rates = (np.array(col) for col in zip(*terms))
    comb = DeltaComb(weights=weights / weights.sum(), rates=rates, m=rates.size,
                     delta_t=1.0, window_counts=np.ones(rates.size, dtype=int),
                     window_sums=1.0 / rates)
    _check_sampled(np.linspace(0.0, tau_max, n),
                   lambda t: delta_comb.comb_survival(comb, t).psi, [], log_y, same_frame=False)


def test_sampled_curve_is_drawn_to_its_last_positive_grid_point():
    # exp(-tau) passes through 37 s of subnormal values to 0 at about 745 s
    x = np.linspace(0.0, 800.0, 40_000)
    assert _check_sampled(x, lambda t: np.exp(-t), [], True, same_frame=False) < x.size // 10


def test_sampled_curve_needs_a_linear_x_axis():
    x = np.arange(1.0, 4.0)
    with pytest.raises(ValueError, match="linear x axis"):
        _svg([(x, lambda t: np.exp(-t), "a")], log_x=True)


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
        # a dense grid, so that one plot still holds thousands of distinct points
        assert main(["survival", "--input", str(data), "--grid", "0.01:20000:40000",
                     "-o", str(out / "dense.csv"), "--plot", str(out / "dense.svg")]) == 0
        for command in ("tikhonov", "comb"):
            assert main([command, "--input", str(data), "-o", str(out / command),
                         "--plot"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.svg"))}

    fast = plots(tmp_path / "fast")
    monkeypatch.setattr(svgplot, "_points", _format_points)
    reference = plots(tmp_path / "reference")
    assert [name for name in fast if reference[name] != fast[name]] == []
    assert len(fast) == 6 and fast["dense.svg"].count(b",") > 4000


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
