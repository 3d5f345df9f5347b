import contextlib
import io
import os
import re
import stat
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrakit import cli, delta_comb, durations, synthetic, tikhonov
from spectrakit.cli import main, parse_mixture, parse_value_list
from spectrakit.durations import MAX_GRID_POINTS


def run(args):
    return main(args)


def test_parse_value_list_forms():
    assert np.allclose(parse_value_list("1,2,3"), [1, 2, 3])
    grid = parse_value_list("1e-2:1e2:5,log")
    assert grid.size == 5 and grid[0] == pytest.approx(1e-2)
    lin = parse_value_list("0:10:11,lin")
    assert np.allclose(lin, np.arange(11.0))
    with pytest.raises(ValueError):
        parse_value_list("1:2")
    with pytest.raises(ValueError):
        parse_value_list("-1:2:5,log")
    assert parse_value_list("1:2:3,lin").size == 3
    too_many = MAX_GRID_POINTS + 1
    with pytest.raises(ValueError, match=f"count {too_many} is outside 1..{MAX_GRID_POINTS}"):
        parse_value_list(f"1:2:{too_many},lin")


_number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_unparsable = st.sampled_from(["abc", "1..2", "", "1e", "--1", "0x1g"])
_malformed_value_lists = st.one_of(
    # wrong field count (a ':' makes it a range)
    st.lists(_number, min_size=2, max_size=5).filter(lambda f: len(f) != 3)
    .map(":".join),
    # count < 1
    st.tuples(_number, _number, st.integers(-5, 0)).map(lambda t: "%s:%s:%d" % t),
    # a log endpoint <= 0
    st.tuples(st.floats(-1e3, 0.0).map(repr), st.floats(1e-3, 1e3).map(repr),
              st.integers(1, 5), st.sampled_from(["", ",log"]), st.booleans())
    .map(lambda t: (f"{t[0]}:{t[1]}" if t[4] else f"{t[1]}:{t[0]}") + f":{t[2]}{t[3]}"),
    # unknown scale
    st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
    .filter(lambda s: s not in ("log", "lin")).map(lambda s: "1:2:3," + s),
    # empty list
    st.sampled_from(["", ",", " , ,", ",,,"]),
    # unparsable number, in a list or a range field
    st.tuples(_number, _unparsable).map(lambda t: f"{t[0]},{t[1]}x"),
    st.tuples(_unparsable, _number).map(lambda t: f"{t[0]}z:{t[1]}:3"),
    st.floats(0.1, 9.9).map(lambda c: f"1:2:{c}"),
)


@given(_malformed_value_lists)
def test_parse_value_list_rejects_malformed(spec):
    with pytest.raises(ValueError):
        parse_value_list(spec)


_malformed_mixtures = st.one_of(
    # a component without ':' or with an extra field
    st.lists(_number, min_size=1, max_size=3).map(",".join),
    st.tuples(_number, _number, _number).map(":".join),
    # unparsable weight or rate
    st.tuples(_unparsable, _number).map(lambda t: f"{t[0]}q:{t[1]}"),
    st.tuples(_number, _unparsable).map(lambda t: f"1:{t[0]},0:{t[1]}q"),
    # weights not summing to 1, a rate <= 0, non-finite numbers
    st.floats(0.01, 0.98).map(lambda w: f"{w!r}:1"),
    st.floats(-1e3, 0.0).map(lambda r: f"1:{r!r}"),
    st.sampled_from(["nan:1", "1:nan", "0.5:nan,0.5:1", "1:inf", "inf:1", ""]),
)


@given(_malformed_mixtures)
def test_parse_mixture_rejects_malformed(spec):
    with pytest.raises(ValueError):
        parse_mixture(spec)


def test_parse_mixture():
    spec = parse_mixture("0.5:1,0.5:3")
    assert np.allclose(spec.weights, [0.5, 0.5])
    assert np.allclose(spec.rates, [1.0, 3.0])
    with pytest.raises(ValueError):
        parse_mixture("0.5,0.5")


def test_gen_exponential_deterministic(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        assert run(["gen", "--exp", "0.113", "--n", "1000", "--seed", "1",
                    "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1000


def test_gen_mixture_count(tmp_path):
    out = tmp_path / "mix.txt"
    assert run(["gen", "--mixture", "0.5:1,0.5:3", "--n", "100", "--seed", "2",
                "-o", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "# mixture 0.5:1,0.5:3 n=100 seed=2"
    lines = [l for l in text if not l.startswith("#")]
    assert len(lines) == 100


def test_gen_ml_count_and_header(tmp_path):
    out = tmp_path / "ml.txt"
    assert run(["gen", "--ml", "--beta", "0.95", "--gamma", "8.85",
                "--n", "500", "--seed", "7", "-o", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "# mittag-leffler beta=0.95 gamma=8.85 n=500 seed=7"
    assert len(text) == 501


def test_gen_streams_its_file(tmp_path):
    # 200,000 values make a 4 MB file; built as one string it peaked at 24 MB
    out = tmp_path / "exp.txt"
    tracemalloc.start()
    try:
        assert run(["gen", "--exp", "0.1", "--n", "200000", "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    series = synthetic.gen_mixture(synthetic.MixtureSpec([1.0], [0.1]), 200_000, 0)
    lines = out.read_text().split("\n")
    assert lines[0] == "# exponential rate=0.1 n=200000 seed=0"
    assert lines[1:-1] == [repr(float(v)) for v in series.values]
    assert lines[-1] == ""


def test_gen_requires_one_model(tmp_path):
    assert run(["gen", "--n", "10", "-o", str(tmp_path / "x.txt")]) == 1
    assert run(["gen", "--exp", "1.0", "--ml", "--n", "10",
                "-o", str(tmp_path / "x.txt")]) == 1


@pytest.mark.parametrize("model", [["--exp", "nan"], ["--ml", "--gamma", "nan"],
                                   ["--ml", "--gamma", "inf"],
                                   ["--mixture", "0.5:nan,0.5:1"],
                                   ["--mixture", "nan:1"]])
def test_gen_rejects_non_finite_parameters(tmp_path, model):
    out = tmp_path / "x.txt"
    assert run(["gen", *model, "--n", "10", "-o", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["comb", "--dt", "5,5", "--grid", "1:30:30,lin"],
    ["tikhonov", "--n", "40", "--h", "0.02", "--mu", "1e-3,1e-3,1e-3"],
], ids=["dt", "mu"])
def test_no_edge_warning_on_a_grid_of_one_value(tmp_path, capsys, argv):
    # a grid whose values are all equal has no edge to warn about
    data = tmp_path / "d.txt"
    assert run(["gen", "--exp", "0.2", "--n", "3000", "--seed", "3",
                "-o", str(data)]) == 0
    capsys.readouterr()
    assert run([*argv, "--input", str(data), "-o", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


def test_survival_counting(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    out = tmp_path / "s.csv"
    assert run(["survival", "--input", str(data), "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "tau,psi"
    parsed = [tuple(map(float, r.split(","))) for r in rows[1:]]
    assert parsed[0] == (1.0, 1.0)
    assert parsed[1][1] == pytest.approx(0.666667, abs=1e-6)
    assert parsed[2][1] == pytest.approx(0.333333, abs=1e-6)


def test_survival_plot_svg_structure(tmp_path):
    data = tmp_path / "d.txt"
    data.write_text("\n".join(str(v) for v in
                              np.random.default_rng(3).exponential(5, 200)))
    out = tmp_path / "s.csv"
    svg = tmp_path / "s.svg"
    assert run(["survival", "--input", str(data), "-o", str(out),
                "--plot", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 2


def test_survival_plot_frame_ends_at_the_data_floor(tmp_path):
    # a heavy tail: exp(-tau/mean) falls far below 1/n on the grid, and is
    # drawn only down to the smallest positive empirical psi
    data, svg = tmp_path / "ml.txt", tmp_path / "s.svg"
    assert run(["gen", "--ml", "--n", "3000", "--seed", "4", "-o", str(data)]) == 0
    assert run(["survival", "--input", str(data), "-o", str(tmp_path / "s.csv"),
                "--plot", str(svg)]) == 0
    with open(data) as fh:
        series = durations.load_durations(fh)
    psi = durations.empirical_survival(series, durations.default_tau_grid(series)).psi
    y_ticks = re.findall(r'text-anchor="end" font-size="11">1e([^<]*)<', svg.read_text())
    assert y_ticks[0] == f"{np.log10(psi[psi > 0].min()):g}"
    # with no positive psi on the grid, the reference is drawn as it is
    data.write_text("1\n2\n3\n")
    assert run(["survival", "--input", str(data), "--grid", "5,6,7", "-o",
                str(tmp_path / "s.csv"), "--plot", str(svg)]) == 0
    assert re.findall(r'points="([^"]*)"', svg.read_text()) == [
        "", "70.00,40.00 345.00,235.00 620.00,430.00"]


def test_survival_hugs_exponential_reference(tmp_path):
    rate = 0.2
    raw = tmp_path / "exp.txt"
    assert run(["gen", "--exp", str(rate), "--n", "100000", "--seed", "5",
                "-o", str(raw)]) == 0
    out = tmp_path / "s.csv"
    assert run(["survival", "--input", str(raw), "-o", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    taus = np.array([float(r[0]) for r in rows])
    psi = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(psi - np.exp(-rate * taus))) < 0.02


def test_output_modes_follow_the_umask(tmp_path):
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    old = os.umask(0o022)
    try:
        assert run(["gen", "--exp", "0.5", "--n", "10", "-o", str(tmp_path / "g.txt")]) == 0
        assert run(["survival", "--input", str(data), "-o", str(tmp_path / "s.csv"),
                    "--plot", str(tmp_path / "s.svg")]) == 0
    finally:
        os.umask(old)
    for name in ("g.txt", "s.csv", "s.svg"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644, name


def test_existing_outputs_keep_their_mode(tmp_path):
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    for name in ("s.csv", "s.svg"):
        (tmp_path / name).write_text("old contents\n")
        os.chmod(tmp_path / name, 0o600)
    old = os.umask(0o022)
    try:
        assert run(["survival", "--input", str(data), "-o", str(tmp_path / "s.csv"),
                    "--plot", str(tmp_path / "s.svg")]) == 0
    finally:
        os.umask(old)
    for name in ("s.csv", "s.svg"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o600, name
        assert (tmp_path / name).read_text() != "old contents\n"


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    # the writer streams its first piece of rows, then fails on the next
    data = tmp_path / "d.txt"
    data.write_text("\n".join(str(v) for v in range(1, 11)))
    out = tmp_path / "s.csv"
    out.write_text("old contents\n")
    columns, fixed = [], durations._fixed

    def broken(v, d):
        if len(columns) == 2:  # both columns of the first piece
            raise ValueError("formatter broke")
        columns.append(v.size)
        return fixed(v, d)

    monkeypatch.setattr(durations, "_TABLE_ROWS", 4)
    monkeypatch.setattr(durations, "_fixed", broken)
    assert run(["survival", "--input", str(data), "-o", str(out)]) == 1
    assert "error: formatter broke" in capsys.readouterr().err
    assert columns == [4, 4]
    assert out.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt", "s.csv"]


@pytest.mark.parametrize("command, out, message", [
    ("comb", "missing/c", "[Errno 2] No such file or directory: '{}_sweep.csv'"),
    ("survival", "dir", "[Errno 21] Is a directory: '{}'"),
], ids=["missing-directory", "directory"])
def test_output_errors_name_the_output(tmp_path, capsys, command, out, message):
    # not the temp file the output is written through
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / out)
    assert run([command, "--input", str(data), "-o", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: " + message.format(out)]
    assert ".tmp" not in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt", "dir"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_symlinked_outputs_are_written_through(tmp_path):
    # like open(path, "w"): a link's target is replaced, a dangling link's created
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    (tmp_path / "real.csv").write_text("old contents\n")
    (tmp_path / "s.csv").symlink_to("real.csv")
    (tmp_path / "s.svg").symlink_to(tmp_path / "new.svg")
    old = os.umask(0o022)
    try:
        assert run(["survival", "--input", str(data), "-o", str(tmp_path / "s.csv"),
                    "--plot", str(tmp_path / "s.svg")]) == 0
    finally:
        os.umask(old)
    assert os.readlink(tmp_path / "s.csv") == "real.csv"
    assert (tmp_path / "real.csv").read_text().startswith("tau,psi\n")
    assert os.readlink(tmp_path / "s.svg") == str(tmp_path / "new.svg")
    assert (tmp_path / "new.svg").read_text().endswith("</svg>")
    assert stat.S_IMODE(os.stat(tmp_path / "new.svg").st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt", "new.svg", "real.csv",
                                                          "s.csv", "s.svg"]


def test_large_survival_table_streams(tmp_path):
    # 10**6 rows and 2 x 10**6 plotted points; formatted as one table the
    # write peaked at 154 MB, and with the plot drawn as one string at 142 MB
    data = tmp_path / "d.txt"
    data.write_text("\n".join(str(v) for v in range(1, 1001)))
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    tracemalloc.start()
    try:
        assert run(["survival", "--input", str(data), "--grid", "1:1000000:1000000,lin",
                    "-o", str(out), "--plot", str(svg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1_000_001
    assert lines[:3] == ["tau,psi", "1,1.000000", "2,0.999000"]
    assert lines[-1] == "1000000,0.000000"
    text = svg.read_text()
    assert text.endswith("</svg>") and text.count("<polyline ") == 2


def _format_table(stream, header, fmt, *columns):
    # the reference: one str.format call per row
    stream.write(header + "\n")
    for row in zip(*[np.asarray(c).tolist() for c in columns]):
        stream.write(fmt.format(*row) + "\n")


def test_cli_tables_match_the_format_reference(tmp_path, monkeypatch):
    # every CSV the commands write, against the one-str.format-per-row writer
    def tables(out):
        out.mkdir()
        data = out / "ml.txt"
        assert run(["gen", "--ml", "--n", "3000", "--seed", "4", "-o", str(data)]) == 0
        assert run(["survival", "--input", str(data), "-o", str(out / "s.csv")]) == 0
        for command in ("tikhonov", "comb"):
            assert run([command, "--input", str(data), "-o", str(out / command)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    fast = tables(tmp_path / "fast")
    for module in (durations, cli, tikhonov, delta_comb):
        monkeypatch.setattr(module, "write_table", _format_table)
    reference = tables(tmp_path / "reference")
    assert list(fast) == list(reference) and len(fast) == 7
    assert [name for name in fast if reference[name] != fast[name]] == []
    assert fast["s.csv"].count(b"\n") > 1000


def test_survival_timestamps_mode(tmp_path):
    data = tmp_path / "t.txt"
    data.write_text("0\n5\n5\n12\n")
    out = tmp_path / "s.csv"
    assert run(["survival", "--input", str(data), "--mode", "timestamps",
                "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1].startswith("1,")


def test_tikhonov_end_to_end(tmp_path):
    raw = tmp_path / "exp.txt"
    assert run(["gen", "--exp", "0.113", "--n", "20000", "--seed", "9",
                "-o", str(raw)]) == 0
    prefix = str(tmp_path / "tk")
    assert run(["tikhonov", "--input", str(raw), "--h", "0.0015", "--n", "196",
                "--mu", "1e-4:1e1:12,log", "-o", prefix, "--plot"]) == 0
    sweep = (tmp_path / "tk_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "mu,ks_statistic,ks_pvalue,neg_mass,total_mass"
    assert len(sweep) == 13
    spectrum = (tmp_path / "tk_spectrum.csv").read_text().strip().splitlines()
    assert spectrum[0] == "lambda,g"
    assert len(spectrum) == 197
    fit = (tmp_path / "tk_survival.csv").read_text().strip().splitlines()
    assert fit[0] == "tau,psi_empirical,psi_rebuilt"
    for name in ("tk_ks_vs_mu.svg", "tk_fit.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")


def test_tikhonov_rejects_bad_h(tmp_path):
    raw = tmp_path / "d.txt"
    raw.write_text("1\n2\n3\n")
    prefix = str(tmp_path / "tk")
    for h in ("-1", "nan", "inf", "1e308"):  # 1e308 * 196 is past the float range
        assert run(["tikhonov", "--input", str(raw), "--h", h, "-o", prefix]) == 1
        assert not (tmp_path / "tk_sweep.csv").exists()


def test_tikhonov_kernel_products_past_the_float_range_are_zero(tmp_path):
    # most h*i*j overflow: exp(-inf) is 0 exactly, with no numpy overflow
    # warning (which pytest would turn into a failure)
    raw = tmp_path / "d.txt"
    raw.write_text("1\n2\n3\n")
    prefix = str(tmp_path / "tk")
    assert run(["tikhonov", "--input", str(raw), "--h", "1e305", "-o", prefix]) == 0
    assert "inf" not in (tmp_path / "tk_spectrum.csv").read_text()


def test_comb_constant_durations(tmp_path):
    data = tmp_path / "ones.txt"
    data.write_text("\n".join(["1"] * 22))
    prefix = str(tmp_path / "cb")
    assert run(["comb", "--input", str(data), "--dt", "10",
                "--grid", "1,2,3", "-o", prefix]) == 0
    rows = [r for r in (tmp_path / "cb_comb.csv").read_text().splitlines()
            if r and not r.startswith(("#", "lambda"))]
    assert len(rows) == 2
    for row in rows:
        lam, w, cnt, tot = row.split(",")
        assert float(lam) == 1.0
        assert float(w) == 0.5


def test_comb_rejects_zero_dt(tmp_path):
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    for dt in ("0", "nan", "inf", "5,nan"):
        assert run(["comb", "--input", str(data), "--dt", dt,
                    "-o", str(tmp_path / "cb")]) == 1
        assert not (tmp_path / "cb_sweep.csv").exists()


def test_comb_default_sweep_poisson(tmp_path):
    raw = tmp_path / "exp.txt"
    assert run(["gen", "--exp", "0.5", "--n", "20000", "--seed", "6",
                "-o", str(raw)]) == 0
    prefix = str(tmp_path / "cb")
    assert run(["comb", "--input", str(raw), "-o", prefix, "--plot"]) == 0
    sweep = (tmp_path / "cb_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "delta_t,m,ks_statistic,ks_pvalue"
    ps = [float(r.split(",")[3]) for r in sweep[1:]]
    assert sum(p > 0.01 for p in ps) >= len(ps) // 2
    root = ET.fromstring((tmp_path / "cb_fit.svg").read_text())
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 2


def test_survival_rejects_non_finite_duration(tmp_path, capsys):
    for bad in ("inf", "nan"):
        data = tmp_path / "d.txt"
        data.write_text(f"1\n{bad}\n2\n")
        out = tmp_path / "s.csv"
        assert run(["survival", "--input", str(data), "-o", str(out)]) == 1
        assert not out.exists()
        assert "line 2" in capsys.readouterr().err


def test_input_with_a_utf8_bom(tmp_path, capsys):
    # editors on Windows start UTF-8 files with U+FEFF; it is not part of line 1
    outs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        data = tmp_path / f"{name}.txt"
        data.write_text(bom + "# header\n1\n2\n3\n", encoding="utf-8")
        outs.append(tmp_path / f"{name}.csv")
        assert run(["survival", "--input", str(data), "-o", str(outs[-1])]) == 0
    assert capsys.readouterr().err == ""
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_missing_input_file(tmp_path):
    assert run(["survival", "--input", str(tmp_path / "nope.txt"),
                "-o", str(tmp_path / "s.csv")]) == 1


def test_auto_h(tmp_path):
    raw = tmp_path / "exp.txt"
    assert run(["gen", "--exp", "0.3", "--n", "5000", "--seed", "8",
                "-o", str(raw)]) == 0
    prefix = str(tmp_path / "tk")
    assert run(["tikhonov", "--input", str(raw), "--auto-h", "--n", "100",
                "--mu", "1e-2,1e-1", "-o", prefix]) == 0
    assert (tmp_path / "tk_spectrum.csv").exists()


@pytest.mark.parametrize("command, options", [
    ("comb", []),
    ("tikhonov", ["--auto-h", "--mu", "1e-2,1e-1"]),
])
def test_each_command_builds_one_empirical_curve(tmp_path, monkeypatch, command, options):
    raw = tmp_path / "exp.txt"
    assert run(["gen", "--exp", "0.3", "--n", "2000", "--seed", "8",
                "-o", str(raw)]) == 0
    original, calls = durations.empirical_survival, []

    def counting(series, taus):
        calls.append(np.size(taus))
        return original(series, taus)

    # every module that holds the function under its own name
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "spectrakit"
                and getattr(module, "empirical_survival", None) is original):
            monkeypatch.setattr(module, "empirical_survival", counting)
    assert run([command, "--input", str(raw), *options, "--plot",
                "-o", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_oversize_grid_range_is_refused(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    out = tmp_path / "s.csv"
    assert run(["survival", "--input", str(data), "-o", str(out),
                "--grid", f"1:2:{MAX_GRID_POINTS + 1},lin"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: range count")
    assert not out.exists()


@pytest.mark.parametrize("command", ["survival", "comb"])
def test_huge_duration_refuses_default_grid(tmp_path, capsys, command):
    data = tmp_path / "huge.txt"
    data.write_text("1.5\n2.5\n1e12\n")
    out = str(tmp_path / "out")
    assert run([command, "--input", str(data), "-o", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: tau_max = 1e+12")
    assert "--grid" in err[0]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--exp", "1", "--n", "10000000000"],
     f"error: --n must be in 1..{MAX_GRID_POINTS}, got 10000000000"),
    (["gen", "--exp", "1", "--n", str(MAX_GRID_POINTS + 1)],
     f"error: --n must be in 1..{MAX_GRID_POINTS}, got {MAX_GRID_POINTS + 1}"),
    (["tikhonov", "--n", "100000"],
     f"error: a 100000 x 100000 kernel has 10000000000 entries (limit {MAX_GRID_POINTS})"),
    (["tikhonov", "--n", "100000", "--auto-h"],
     f"error: a 100000 x 100000 kernel has 10000000000 entries (limit {MAX_GRID_POINTS})"),
    (["tikhonov", "--mu", "1e-6:1e2:1001"], "error: mu sweep has 1001 points (limit 1000)"),
    (["tikhonov", "--n", "2000", "--mu", "0"], "error: mu must be finite and > 0, got 0"),
    (["comb", "--dt", "1:1000:1001"], "error: delta_t sweep has 1001 points (limit 1000)"),
])
def test_oversize_sizes_are_refused_up_front(tmp_path, capsys, argv, message):
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n3\n")
    out = tmp_path / "x"
    if argv[0] != "gen":
        argv = argv + ["--input", str(data)]
    tracemalloc.start()
    try:
        assert run(argv + ["-o", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert capsys.readouterr().err.splitlines() == [message]
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("argv, lines, message", [
    (["survival"], ["1e308"] * 3, "error: the total of the durations overflows"),
    (["comb"], ["1e308"] * 3, "error: the total of the durations overflows"),
    (["tikhonov", "--auto-h"], ["1e308"] * 3, "error: the total of the durations overflows"),
    (["comb", "--grid", "1,2"], ["1e307"] * 2,
     "error: mean = 1e+307 puts the default delta_t grid past the float range; "
     "give an explicit grid with --dt"),
    (["tikhonov", "--auto-h"], ["1e308"],
     "error: mean = 1e+308 puts the default delta_t grid past the float range; "
     "give --h instead of --auto-h"),
    (["comb"], ["1e-320", "2e-320", "5e-324"],
     "error: durations must be at least 2.23e-308 s, got 4.94e-324"),
    (["survival", "--mode", "timestamps"], ["-1e308", "1e308"],
     "error: durations must be finite and strictly positive"),
    (["gen", "--exp", "1e-320", "--n", "10"], None,
     "error: durations must be finite and strictly positive"),
    (["gen", "--ml", "--gamma", "1e308", "--n", "10"], None,
     "error: durations must be finite and strictly positive"),
    (["gen", "--ml", "--beta", "0.01", "--n", "5000"], None,
     "error: beta = 0.01 is too small: the draw's factor "
     "(sin b pi / tan b pi V - cos b pi)^(1/b) overflows"),
], ids=["survival-sum", "comb-sum", "tikhonov-sum", "comb-dt-grid", "tikhonov-dt-grid",
        "comb-subnormal", "timestamps-diff", "gen-exp", "gen-ml", "gen-ml-beta"])
def test_extreme_durations_end_in_one_error_line(tmp_path, capsys, argv, lines, message):
    # pytest turns any numpy warning on the way into a failure
    if lines is not None:
        data = tmp_path / "d.txt"
        data.write_text("\n".join(lines) + "\n")
        argv = argv + ["--input", str(data)]
    assert run(argv + ["-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert [p.name for p in tmp_path.iterdir()] == (["d.txt"] if lines else [])


def test_comb_products_past_the_float_range_are_zero(tmp_path, capsys):
    # at dT = 1e-300 some window rates times tau = 1e308 pass the float range:
    # exp(-inf) is 0 exactly, with no numpy overflow warning (which pytest
    # would turn into a failure)
    data = tmp_path / "ts.txt"
    times = np.cumsum(np.random.default_rng(5).exponential(3.0, 77))
    data.write_text("\n".join(map(repr, times.tolist())) + "\n")
    prefix = str(tmp_path / "c")
    assert run(["comb", "--input", str(data), "--mode", "timestamps", "--dt", "1e-300",
                "--grid", "1e308", "-o", prefix]) == 0
    assert capsys.readouterr().err == ""
    assert "inf" not in (tmp_path / "c_comb.csv").read_text()


def test_a_plot_of_one_x_past_2_to_the_53_has_a_frame(tmp_path, capsys):
    # 1e16 + 1 == 1e16, so a one-point x range is widened by one float instead
    data = tmp_path / "d.txt"
    data.write_text("1\n2\n1e20\n")
    svg = tmp_path / "s.svg"
    assert run(["survival", "--input", str(data), "--grid", "1e16", "-o",
                str(tmp_path / "s.csv"), "--plot", str(svg)]) == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in svg.read_text()
    root = ET.parse(svg).getroot()
    points = [p.get("points") for p in root.findall(".//{http://www.w3.org/2000/svg}polyline")]
    assert points == ["620.00,430.00", "620.00,40.00"]


def test_the_survival_reference_past_the_float_range_is_zero(tmp_path, capsys):
    # tau / mean = 1e308 / 0.5 overflows: the reference curve's exp(-inf) is 0
    data = tmp_path / "d.txt"
    data.write_text("0.5\n")
    assert run(["survival", "--input", str(data), "--grid", "0.25,1e308", "-o",
                str(tmp_path / "s.csv"), "--plot", str(tmp_path / "s.svg")]) == 0
    assert capsys.readouterr().err == ""


# input lines: up to 30 ordinary durations or timestamps, with up to three
# other lines put among them, a third of which fail (non-finite or subnormal);
# the others load but sit at the float range's edges or are dropped, skipped
# or signed
_ordinary = st.one_of(st.floats(1e-3, 1e3).map(repr), st.integers(1, 1000).map(str),
                      st.floats(1e-3, 1e3).map(lambda v: f"{v:.3e}"))
_extreme = st.sampled_from(["1e308", "1.7976931348623157e308", "1e300", "1e20", "1e16",
                            "2.2250738585072014e-308", "1e-300", "1e-05", "0", "-3", "+4",
                            "007.50", "3.5E2", " 7 ", "", "  ", "# c"])
_failing = st.sampled_from(["inf", "-inf", "nan", "5e-324", "1e-310"])


def _inserted(parts):
    lines, others = parts
    for at, line in others:
        lines.insert(at, line)
    return lines


_fuzz_lines = st.tuples(
    st.lists(_ordinary, min_size=1, max_size=30),
    st.lists(st.tuples(st.integers(0, 30), st.one_of(_extreme, _extreme, _failing)),
             max_size=3)).map(_inserted)
# the line ends, taken in turn: one of a stream's, or a few of str.splitlines()
_fuzz_ends = st.one_of(
    st.sampled_from(["\n", "\r\n", "\r"]).map(lambda end: [end]),
    st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                              "\x85", "\u2028", "\u2029"]), min_size=1, max_size=3))
# grids and sweeps: one-point, reversed, and at 1e-300, past 2**53 and 1e308
_fuzz_grid = st.sampled_from(["5", "3,2,1", "1:10:4,lin", "10:1:4,lin", "1e-300", "1e16",
                              "1e300", "1e308", "1e-300:1e300:5", "0.5,1e308", "1:100:7"])
_fuzz_dt = st.sampled_from(["1", "5", "1e-300", "1e300", "1e-300:1e300:4", "10:1:3",
                            "0.5:50:6", "2,2"])
_fuzz_mu = st.sampled_from(["1e-6:1:5", "1", "1e-300", "1e300", "1,1e-3", "1e-300:1e300:4"])


def _maybe(flag, values=None):
    # [] or [flag, a value], or [] or [flag] for a flag that takes none
    return st.sampled_from([[], [flag]]) if values is None else st.one_of(
        st.just([]), values.map(lambda v: [flag, v]))


def _command(name, *options):
    # the command's name, the options of every data command, then its own;
    # "{d}" stands for the run's directory
    return st.tuples(
        st.sampled_from(["durations", "timestamps"]).map(lambda m: ["--mode", m]),
        _maybe("--max-duration", st.sampled_from(["1", "300", "1e-300", "1e300"])),
        *options).map(lambda parts: [name, *sum(parts, [])])


_fuzz_argv = st.one_of(
    _command("survival", st.just(["-o", "{d}/out.csv"]), _maybe("--grid", _fuzz_grid),
             _maybe("--plot", st.just("{d}/s.svg"))),
    _command("tikhonov", st.just(["-o", "{d}/tk"]),
             st.one_of(_maybe("--h", st.sampled_from(["0.5", "1e-300", "1e300"])),
                       st.just(["--auto-h"])),
             _maybe("--n", st.sampled_from(["1", "2", "7", "30"])), _maybe("--mu", _fuzz_mu),
             _maybe("--plot")),
    _command("comb", st.just(["-o", "{d}/cb"]), _maybe("--dt", _fuzz_dt),
             _maybe("--grid", _fuzz_grid), _maybe("--plot")))


@settings(max_examples=60, deadline=None)
@given(_fuzz_lines, _fuzz_ends, _fuzz_argv)
def test_every_run_ends_in_exit_0_or_one_error_line(lines, ends, argv):
    # exit 0 with only 'warning:' lines on stderr, or exit 1 with one 'error:'
    # line, the last; a Python warning fails the run; tracemalloc peak < 8 MB
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "d.txt")
        with open(data, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + ends[i % len(ends)] for i, line in enumerate(lines)))
        err = io.StringIO()
        tracemalloc.start()
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([arg.format(d=tmp) for arg in argv] + ["--input", data])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    lines = err.getvalue().splitlines()
    assert code in (0, 1), argv
    assert all(line.startswith("warning: ") for line in lines[:len(lines) - code]), lines
    if code:
        assert lines and lines[-1].startswith("error: "), lines
    assert peak < 8 * 2 ** 20
