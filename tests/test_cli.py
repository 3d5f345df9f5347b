import os
import stat
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectrakit import cli, durations, synthetic
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
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 100


def test_gen_ml_count_and_header(tmp_path):
    out = tmp_path / "ml.txt"
    assert run(["gen", "--ml", "--beta", "0.95", "--gamma", "8.85",
                "--n", "500", "--seed", "7", "-o", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("# mittag-leffler")
    assert "seed=7" in text[0]
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
    rows = []

    def line(tau, psi):
        if len(rows) == 4:
            raise ValueError("formatter broke")
        rows.append(tau)
        return f"{tau},{psi}"

    monkeypatch.setattr(durations, "_TABLE_ROWS", 4)
    monkeypatch.setattr(cli, "write_survival_csv", lambda curve, stream:
                        durations.write_table(stream, "tau,psi", line, curve.taus, curve.psi))
    assert run(["survival", "--input", str(data), "-o", str(out)]) == 1
    assert "error: formatter broke" in capsys.readouterr().err
    assert len(rows) == 4
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
    for h in ("-1", "nan", "inf"):
        assert run(["tikhonov", "--input", str(raw), "--h", h, "-o", prefix]) == 1
        assert not (tmp_path / "tk_sweep.csv").exists()


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
], ids=["survival-sum", "comb-sum", "tikhonov-sum", "comb-subnormal", "timestamps-diff",
        "gen-exp", "gen-ml", "gen-ml-beta"])
def test_extreme_durations_end_in_one_error_line(tmp_path, capsys, argv, lines, message):
    # pytest turns any numpy warning on the way into a failure
    if lines is not None:
        data = tmp_path / "d.txt"
        data.write_text("\n".join(lines) + "\n")
        argv = argv + ["--input", str(data)]
    assert run(argv + ["-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert [p.name for p in tmp_path.iterdir()] == (["d.txt"] if lines else [])
