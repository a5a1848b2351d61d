"""End-to-end analysis runs, table/plot emission, CLI behavior."""

import csv
import hashlib
import io
import json
import math
import re
import shlex
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st
from tables import rows

from vlcontrast import alignment, report as report_module, synthgen
from vlcontrast.cli import _build_parser, main as cli_main
from vlcontrast.durations import HISTOGRAM_BINS_MAX, DurationSampleSet, build_histogram
from vlcontrast.features import ContrastReport, contrast_report, density_crossings
from vlcontrast.gamma import GammaFit
from vlcontrast.report import (
    PLOT_ROWS_MAX,
    AnalysisConfig,
    ConfigError,
    CorpusLoadError,
    CorpusSource,
    R1_UNDEFINED_MARK,
    emit_histdata,
    emit_plotdata,
    emit_table,
    report_from_dict,
    run_analysis,
)
from vlcontrast.synthgen import CellSpec, CorpusSpec, generate_corpus

# Generator cells sized like a real read-speech corpus: realistic
# occurrence counts and cell means, modes 24-50 ms apart.
READ_SPEECH_CELLS = (
    CellSpec("i", "short", 76 / 11.0, 11.0, 2149),
    CellSpec("i", "long", 131 / 17.0, 17.0, 133),
    CellSpec("e", "short", 79 / 11.0, 11.0, 227),
    CellSpec("e", "long", 120 / 15.0, 15.0, 178),
    CellSpec("ɛ", "short", 81 / 11.0, 11.0, 1264),
    CellSpec("ɛ", "long", 131 / 15.0, 15.0, 557),
    CellSpec("a", "short", 6.0, 11.5, 4673),
    CellSpec("a", "long", 125 / 17.5, 17.5, 880),
    CellSpec("ɔ", "short", 4.5625, 16.0, 881),
    CellSpec("ɔ", "long", 102 / 21.0, 21.0, 710),
    CellSpec("o", "short", 68 / 10.0, 10.0, 60),
    CellSpec("o", "long", 108 / 16.0, 16.0, 69),
    CellSpec("u", "short", 67 / 10.0, 10.0, 1893),
    CellSpec("u", "long", 110 / 17.0, 17.0, 111),
)


@pytest.fixture(scope="module")
def mimic_run(tmp_path_factory):
    """One full analysis over a realistic synthetic read-speech corpus."""
    root = tmp_path_factory.mktemp("mimic")
    spec = CorpusSpec("read-mimic", seed=20250808, cells=READ_SPEECH_CELLS,
                      utterance_size=12, emit_formats=("ctm",))
    corpus = generate_corpus(spec)
    ctm = root / "read-mimic.ctm"
    ctm.write_text(corpus.files["read-mimic.ctm"], encoding="utf-8")
    config = AnalysisConfig(
        corpora=(CorpusSource("read-mimic", (str(ctm),), "ctm"),),
        output_dir=str(root / "out"),
    )
    result = run_analysis(config)
    return config, result, root / "out"


def test_mimic_table_has_seven_rows_in_order(mimic_run):
    _, result, _ = mimic_run
    reports = result.reports["read-mimic"]
    assert [r.vowel_class for r in reports] == list(
        ("i", "e", "ɛ", "a", "ɔ", "o", "u"))
    by_vowel = {r.vowel_class: r for r in reports}
    assert by_vowel["a"].significant is True
    assert by_vowel["a"].area > 0.40
    assert by_vowel["ɔ"].significant is False
    assert by_vowel["ɔ"].area < 0.40
    # counts survive outlier filtering mostly intact
    assert by_vowel["a"].n_short <= 4673
    assert by_vowel["a"].n_short > 4500


def test_mimic_output_files(mimic_run):
    _, result, out = mimic_run
    corpus_dir = out / "read-mimic"
    for name in ("features.csv", "features.json", "features.md",
                 "diagnostics.json"):
        assert (corpus_dir / name).is_file()
    for slug in ("i", "e", "eh", "a", "oh", "o", "u"):
        assert (corpus_dir / f"plot_{slug}.csv").is_file()
        assert (corpus_dir / f"hist_{slug}.csv").is_file()
    assert (out / "run_metadata.json").is_file()
    meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
    assert meta["tool"] == "vlcontrast"
    # KS, like every other output, reads the filtered cells
    assert meta["options"] == {"bin_width_ms": 10.0, "outlier_filtering": True,
                               "phone_map": None, "speaker_from": None}
    counts = meta["corpora"]["read-mimic"]
    assert counts["tokens"] == sum(c.count for c in READ_SPEECH_CELLS)
    # one "sil" filler before every token and after each utterance's last
    n_utterances = math.ceil(counts["tokens"] / 12)
    assert counts["files"] == 1
    assert counts["intervals"] == 2 * counts["tokens"] + n_utterances
    assert counts["unmapped_labels"] == [
        {"label": "sil", "count": counts["tokens"] + n_utterances}]
    assert "config_sha256" in meta


def test_features_json_round_trips_exactly(mimic_run):
    _, result, out = mimic_run
    payload = json.loads(
        (out / "read-mimic" / "features.json").read_text(encoding="utf-8"))
    recovered = [report_from_dict(obj) for obj in payload["reports"]]
    assert recovered == result.reports["read-mimic"]
    # the crossings the area was read from, in the JSON and the CSV
    table = list(csv.DictReader(io.StringIO(
        (out / "read-mimic" / "features.csv").read_text(encoding="utf-8"))))
    for rep, row in zip(recovered, table, strict=True):
        assert rep.crossings_ms == density_crossings(rep.fit_short, rep.fit_long)
        assert len(rep.crossings_ms) >= 1
        assert row["crossings_ms"] == ";".join(map(repr, rep.crossings_ms))


def test_kaldi_style_ctm_gives_the_same_outputs_on_the_column_path(
        mimic_run, tmp_path, monkeypatch):
    # tabs, channel "A" and CRLF line ends, as Kaldi-style aligners write
    _, _, out = mimic_run
    plain = (out.parent / "read-mimic.ctm").read_text(encoding="utf-8")
    header, *lines = plain.splitlines()  # a comment, then five fields a line
    kaldi = header + "\r\n" + "".join(
        "\t".join((utt, "A", start, dur, label)) + "\r\n"
        for utt, _, start, dur, label in map(str.split, lines))
    ctm = tmp_path / "read-mimic.ctm"
    ctm.write_bytes(kaldi.encode("utf-8"))

    def no_line_loop(text):
        raise AssertionError("the line loop read a well-formed CTM")

    monkeypatch.setattr(alignment, "_ctm_line_error", no_line_loop)
    assert rows(alignment.parse_ctm(kaldi)) == rows(alignment.parse_ctm(plain))
    run_analysis(AnalysisConfig(
        corpora=(CorpusSource("read-mimic", (str(ctm),), "ctm"),),
        output_dir=str(tmp_path / "out")))
    names = ["features.csv", "diagnostics.json"] + sorted(
        path.name for path in (out / "read-mimic").glob("*_*.csv"))
    assert len(names) == 16
    for name in names:
        assert (tmp_path / "out" / "read-mimic" / name).read_bytes() == (
            out / "read-mimic" / name).read_bytes(), name


def _run_metadata_without_inputs(out):
    """run_metadata.json less what names the inputs: the config's hash
    (which covers the paths) and each corpus's file count."""
    meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
    del meta["config_sha256"]
    for counts in meta["corpora"].values():
        del counts["files"]
    return meta


def test_outputs_do_not_depend_on_file_utterance_or_line_order(mimic_run, tmp_path):
    # one corpus three ways: one CTM; one CTM per utterance, listed last
    # utterance first; and the one CTM with its lines shuffled, which
    # parse_ctm reads as the same intervals in another utterance order
    _, _, out = mimic_run
    plain = (out.parent / "read-mimic.ctm").read_text(encoding="utf-8")
    header, *lines = plain.splitlines(keepends=True)
    per_utt: dict[str, list[str]] = {}
    for line in lines:
        per_utt.setdefault(line.split()[0], []).append(line)
    (tmp_path / "ctms").mkdir()
    paths = [tmp_path / "ctms" / f"{utt}.ctm" for utt in reversed(per_utt)]
    for path in paths:
        path.write_text("".join(per_utt[path.stem]), encoding="utf-8")
    shuffled = tmp_path / "shuffled.ctm"
    shuffled.write_text("".join(np.random.default_rng(24).permutation(
        [header] + lines)), encoding="utf-8")
    names = sorted(path.relative_to(out).as_posix() for path in _tree(out))
    assert len(names) == 19
    for name, files in (("utts", paths), ("shuffled", [shuffled])):
        tree = tmp_path / name
        run_analysis(AnalysisConfig(
            corpora=(CorpusSource("read-mimic", tuple(map(str, files)), "ctm"),),
            output_dir=str(tree)))
        assert sorted(path.relative_to(tree).as_posix()
                      for path in _tree(tree)) == names
        for rel in names:
            if rel != "run_metadata.json":
                assert (tree / rel).read_bytes() == (out / rel).read_bytes(), (name, rel)
        # the manifest lists every other file's hash, so those agree too
        assert _run_metadata_without_inputs(tree) == _run_metadata_without_inputs(out)


def test_markdown_column_order_and_rounding(mimic_run):
    _, _, out = mimic_run
    md = (out / "read-mimic" / "features.md").read_text(encoding="utf-8")
    header = md.splitlines()[0]
    cols = [c.strip() for c in header.strip("|").split("|")]
    assert cols[:9] == ["Vowel", "#occ short", "#occ long", "μ short (ms)",
                        "μ long (ms)", "r1", "r2", "𝒜", "Δ (ms)"]
    # whole-ms durations, two-decimal ratios
    a_row = next(line for line in md.splitlines() if line.startswith("| a "))
    cells = [c.strip() for c in a_row.strip("|").split("|")]
    assert "." not in cells[3]          # mu short rendered as whole ms
    assert len(cells[5].split(".")[1]) == 2  # r1 has 2 decimals


def test_diagnostics_contain_dip_per_vowel(mimic_run):
    _, _, out = mimic_run
    diag = json.loads(
        (out / "read-mimic" / "diagnostics.json").read_text(encoding="utf-8"))
    assert set(diag["dip"]) == {"i", "e", "ɛ", "a", "ɔ", "o", "u"}
    for entry in diag["dip"].values():
        assert 0.0 < entry["dip"] <= 0.25
        assert entry["n"] >= 4


def _csv_floats(path):
    """The header and the float rows of a plot or histogram CSV."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return header, np.array([[float(v) for v in line.split(",")] for line in lines])


def test_plotdata_columns_and_normalization(mimic_run):
    _, result, out = mimic_run
    header, data = _csv_floats(out / "read-mimic" / "plot_a.csv")
    assert header == "x_ms,pdf_short,pdf_long"
    xs = data[:, 0]
    assert np.all(np.diff(xs) == 1.0) and xs[0] == 0.0
    # curve columns integrate to ~1 over the emitted grid
    for col in (1, 2):
        assert np.trapezoid(data[:, col], xs) == pytest.approx(1.0, abs=1e-3)
    # fitted peaks sit ~50 ms apart, like the planted generator modes
    gap = xs[int(np.argmax(data[:, 2]))] - xs[int(np.argmax(data[:, 1]))]
    assert abs(gap - 50.0) <= 3.0


def test_histdata_columns_are_normalized_densities(mimic_run):
    _, result, out = mimic_run
    rep = {r.vowel_class: r for r in result.reports["read-mimic"]}["a"]
    header, data = _csv_floats(out / "read-mimic" / "hist_a.csv")
    assert header == "bin_start_ms,density_short,density_long"
    starts = data[:, 0]
    assert np.all(np.diff(starts) > 0) and np.all(starts % 10.0 == 0.0)
    # every row holds a duration, and each column's mass sums to 1
    assert np.all(data[:, 1:].max(axis=1) > 0)
    for col, n in ((1, rep.n_short), (2, rep.n_long)):
        assert data[:, col].sum() * 10.0 == pytest.approx(1.0, abs=1e-12)
        assert _histogram_holds(data[:, col] * 10.0, n)


def test_plotdata_identical_sets_have_equal_curves():
    from vlcontrast.durations import filter_outliers
    from vlcontrast.features import contrast_report
    from vlcontrast.synthgen import sample_gamma

    draws = np.sort(sample_gamma(6.0, 11.5, 300, seed=77))
    kept = filter_outliers(DurationSampleSet("a", "short", "c", draws)).samples
    rep = contrast_report("a", "c", kept, kept)
    for line in emit_plotdata(rep).strip().splitlines()[1:]:
        _x, ps, pl = line.split(",")
        assert ps == pl
    for line in emit_histdata(draws, draws, 10.0).strip().splitlines()[1:]:
        _x, ds, dl = line.split(",")
        assert ds == dl


def test_plotdata_rejects_degenerate_report():
    from vlcontrast.features import contrast_report
    from vlcontrast.synthgen import sample_gamma

    short = np.array(sample_gamma(6.0, 11.5, 50, seed=78))
    rep = contrast_report("a", "c", short, np.array([120.0]))
    with pytest.raises(ValueError):
        emit_plotdata(rep)


def _report(vowel="a", **kw):
    defaults = dict(
        vowel_class=vowel, corpus_id="c", n_short=100, n_long=50,
        mean_short_ms=70.0, mean_long_ms=120.0,
        fit_short=GammaFit(6.0, 11.5, 100, -400.0, True),
        fit_long=GammaFit(7.0, 17.0, 50, -220.0, True),
        r1=2.5, r2=1.4, area=0.45, delta_ms=45.0, significant=True,
        flags=frozenset(), error=None)
    defaults.update(kw)
    return ContrastReport(**defaults)


def test_histdata_rows_are_the_non_empty_bins():
    short, long = np.array([70.0, 71.0, 130.0, 139.9]), np.array([135.0, 300.0])
    # 70.0 opens the bin [70, 80): 2 / 4 / 10; no row for an empty bin
    assert emit_histdata(short, long, 10.0) == (
        "bin_start_ms,density_short,density_long\n"
        "70.0,0.05,0.0\n130.0,0.05,0.05\n300.0,0.0,0.05\n")
    # a vowel with one cell has a column of zeros for the other
    assert emit_histdata(short[:1], np.empty(0), 10.0) == (
        "bin_start_ms,density_short,density_long\n70.0,0.1,0.0\n")


def test_hist_bin_is_the_one_that_counts_it():
    # 7.0 / 0.1 rounds to 70.0, but 7.0 // 0.1 is 69.0: the samples are
    # counted in bin 70, whose start is 70 * 0.1
    short, long = np.full(4, 7.0), np.array([300.0])
    indexes, counts = build_histogram(short, 0.1)
    assert indexes.tolist() == [70] and counts.tolist() == [4]
    text = emit_histdata(short, long, 0.1)
    assert text.splitlines()[1] == f"{70 * 0.1!r},{4 / 4 / 0.1!r},0.0"
    assert text == oracles.emit_histdata_scalar(short, long, 0.1)


def _positive_samples(width):
    """Sorted durations in ms, many of them on a bin edge k * width or just
    below one, all in the first HISTOGRAM_BINS_MAX bins."""
    edges = st.integers(1, 300).map(lambda k: k * width)
    top = min(400.0, width * (HISTOGRAM_BINS_MAX - 1))
    return st.lists(edges | edges.map(lambda x: math.nextafter(x, 0.0))
                    | st.floats(0.01, top), min_size=1, max_size=40).map(sorted)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_histdata_equals_the_scalar_referee(data):
    width = data.draw(st.sampled_from((0.1, 7.3, 2.5, 10.0, 1e-4, 1e300))
                      | st.floats(-4.0, 300.0).map(lambda e: 10.0 ** e), "width")
    short = np.array(data.draw(_positive_samples(width), "short"))
    long = np.array(data.draw(_positive_samples(width) | st.just([]), "long"))
    text = emit_histdata(short, long, width)
    assert text == oracles.emit_histdata_scalar(short, long, width)
    assert text.count("\n") - 1 <= short.size + long.size


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plotdata_equals_the_scalar_referee(data):
    fits = [GammaFit(data.draw(st.floats(0.5, 30.0), f"shape_{length}"),
                     data.draw(st.floats(0.5, 8.0), f"scale_{length}"))
            for length in ("short", "long")]
    rep = _report(fit_short=fits[0], fit_long=fits[1])
    # a small cap makes the grid step past 1 ms, or leaves only its two ends
    rows_max = data.draw(st.just(PLOT_ROWS_MAX) | st.integers(2, 600), "rows_max")
    with mock.patch.object(report_module, "PLOT_ROWS_MAX", rows_max):
        text = emit_plotdata(rep)
    assert text == oracles.emit_plotdata_scalar(rep, rows_max)
    assert text.count("\n") - 1 <= rows_max


def test_plot_grid_step_is_the_smallest_that_fits_each_cap():
    # a grid end near 220 ms, against every cap up to a 1 ms step
    rep = _report(fit_short=GammaFit(6.0, 5.0), fit_long=GammaFit(7.0, 8.0))
    steps = []
    for rows_max in range(2, 240):
        grid = {}
        with mock.patch.object(report_module, "PLOT_ROWS_MAX", rows_max):
            text = emit_plotdata(rep, grid)
        assert text == oracles.emit_plotdata_scalar(rep, rows_max)
        assert text.count("\n") - 1 <= rows_max
        steps.append(grid["step_ms"])
    assert steps[0] == grid["upper_ms"] > 200 and steps[-1] == 1


def test_plot_grid_of_a_heavy_tailed_cell_stays_within_the_cap(tmp_path):
    # a long cell drawn from k = 0.34, theta = 20.8 s: its 1 - 1e-6 quantile
    # lies over 150 s out, so a 1 ms grid would take 150,000 rows
    spec = CorpusSpec("heavy", seed=5, cells=(
        CellSpec("a", "short", 6.0, 11.5, 400),
        CellSpec("a", "long", 0.34, 20_800.0, 300)),
        utterance_size=10, emit_formats=("ctm",))
    ctm = tmp_path / "heavy.ctm"
    ctm.write_text(generate_corpus(spec).files["heavy.ctm"], encoding="utf-8")
    out = tmp_path / "out"
    result = run_analysis(AnalysisConfig(
        corpora=(CorpusSource("heavy", (str(ctm),), "ctm"),), output_dir=str(out)))
    (rep,) = result.reports["heavy"]
    assert rep.fit_long.shape < 0.5 and rep.fit_long.scale > 10_000.0
    text = (out / "heavy" / "plot_a.csv").read_text(encoding="utf-8")
    xs = [float(line.partition(",")[0]) for line in text.splitlines()[1:]]
    grid = json.loads((out / "heavy" / "diagnostics.json").read_text(
        encoding="utf-8"))["plot"]["a"]
    assert len(xs) <= PLOT_ROWS_MAX
    assert grid["step_ms"] > 1 and grid["upper_ms"] % grid["step_ms"] == 0
    assert max(xs) == grid["upper_ms"] > 150_000
    # the fit the cell was drawn from, against the referee's own scan for
    # the grid's end and step
    rep = _report(fit_long=GammaFit(0.34, 20_800.0))
    grid = {}
    text = emit_plotdata(rep, grid)
    assert text.count("\n") - 1 <= PLOT_ROWS_MAX
    assert grid["step_ms"] > 1
    assert text == oracles.emit_plotdata_scalar(rep, PLOT_ROWS_MAX)


def _probe_run(tmp_path, bin_width_ms):
    """A 200-token /a/ corpus analysed with `bin_width_ms`: the rows of
    its plot and histogram files."""
    spec = CorpusSpec("p", seed=3, cells=(CellSpec("a", "short", 6.0, 11.5, 120),
                                          CellSpec("a", "long", 7.0, 17.5, 80)),
                      emit_formats=("ctm",))
    tmp_path.mkdir(exist_ok=True)
    ctm = tmp_path / "p.ctm"
    ctm.write_text(generate_corpus(spec).files["p.ctm"], encoding="utf-8")
    out = tmp_path / "out"
    run_analysis(AnalysisConfig(corpora=(CorpusSource("p", (str(ctm),), "ctm"),),
                                output_dir=str(out), bin_width_ms=bin_width_ms))
    return [_csv_floats(out / "p" / f"{kind}_a.csv")[1] for kind in ("plot", "hist")]


def test_a_fine_bin_width_gives_a_row_per_filled_bin_only(tmp_path):
    plot, hist = _probe_run(tmp_path, 0.0005)
    assert len(plot) <= PLOT_ROWS_MAX and len(hist) <= 200
    assert np.isfinite(hist).all()


def test_a_bin_wider_than_every_duration_is_one_row(tmp_path):
    plot, hist = _probe_run(tmp_path, 1e12)
    assert hist.tolist() == [[0.0, 1e-12, 1e-12]]
    # the curves do not depend on the bin width
    assert np.array_equal(plot, _probe_run(tmp_path / "w10", 10.0)[0])


def test_the_widest_bin_width_gives_finite_densities_and_no_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _plot, hist = _probe_run(tmp_path, 1e308)
    assert hist.tolist() == [[0.0, 1e-308, 1e-308]]


def test_features_csv_quotes_an_error_that_holds_commas():
    rep = contrast_report("a", "t", np.linspace(60.0, 90.0, 30), np.array([120.0]))
    table = emit_table([rep], "csv")
    parsed = list(csv.reader(io.StringIO(table)))
    assert [len(row) for row in parsed] == [13, 13]
    assert parsed[1][-1] == rep.error == "long: need at least 2 samples, got 1"
    assert table.endswith(',"long: need at least 2 samples, got 1"\n')


def test_features_json_round_trips_missing_fit_and_nan_likelihood():
    rep = _report(fit_short=GammaFit(6.0, 11.5), fit_long=None, r1=None,
                  r2=None, area=None, delta_ms=None, significant=False,
                  flags=frozenset({"low_n_short", "low_n_long"}),
                  error="long: need at least 2 samples, got 1")
    obj = json.loads(emit_table([rep], "json"))["reports"][0]
    assert obj["fit_short"]["log_likelihood"] is None
    assert obj["fit_long"] is None
    assert obj["flags"] == ["low_n_long", "low_n_short"]
    back = report_from_dict(obj)
    assert math.isnan(back.fit_short.log_likelihood)
    assert replace(back.fit_short, log_likelihood=0.0) == replace(
        rep.fit_short, log_likelihood=0.0)
    assert replace(back, fit_short=None) == replace(rep, fit_short=None)


def test_emit_table_single_report_csv():
    text = emit_table([_report()], "csv")
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("vowel,n_short,n_long,")


def test_emit_table_undefined_ratio_marker():
    rep = _report(r1=None, flags=frozenset({"r1_undefined"}))
    csv_text = emit_table([rep], "csv")
    assert R1_UNDEFINED_MARK in csv_text
    md_text = emit_table([rep], "markdown")
    assert R1_UNDEFINED_MARK in md_text
    payload = json.loads(emit_table([rep], "json"))
    assert payload["reports"][0]["r1"] is None
    assert "r1_undefined" in payload["reports"][0]["flags"]


def test_emit_table_fixed_vowel_order():
    reports = [_report(v) for v in ("u", "a", "ɔ", "i", "o", "e", "ɛ")]
    text = emit_table(reports, "csv")
    vowels = [line.split(",")[0] for line in text.strip().splitlines()[1:]]
    assert vowels == ["i", "e", "ɛ", "a", "ɔ", "o", "u"]


def test_emit_table_rejects_empty_and_unknown_format():
    with pytest.raises(ValueError):
        emit_table([], "csv")
    with pytest.raises(ValueError):
        emit_table([_report()], "xml")


def test_zero_corpora_is_config_error():
    with pytest.raises(ConfigError):
        AnalysisConfig(corpora=(), output_dir="out")
    with pytest.raises(ConfigError):
        AnalysisConfig.from_json('{"corpora": [], "output_dir": "out"}')


def test_config_validation_errors():
    src = CorpusSource("c", ("x.ctm",), "ctm")
    with pytest.raises(ConfigError):
        AnalysisConfig(corpora=(src, src), output_dir="o")  # duplicate ids
    with pytest.raises(ConfigError):
        AnalysisConfig(corpora=(CorpusSource("c", ("x",), "wav"),),
                       output_dir="o")
    with pytest.raises(ConfigError):
        AnalysisConfig(corpora=(src,), output_dir="o",
                       comparisons=(("c", "missing"),))
    # every run writes every format, so the old key is an unknown key
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['output_formats'\]"):
        AnalysisConfig.from_json(_config_json(output_formats=["csv"]))


def test_config_from_json_and_the_constructor_hash_alike():
    src = CorpusSource("c", ("x.ctm",), "ctm")
    built = AnalysisConfig(corpora=(src,), output_dir="o", bin_width_ms=10)
    loaded = AnalysisConfig.from_json(json.dumps({
        "corpora": [{"corpus_id": "c", "paths": "x.ctm", "format": "ctm"}],
        "output_dir": "o", "bin_width_ms": 10}))
    assert built.canonical_hash() == loaded.canonical_hash()
    assert built == loaded and type(built.bin_width_ms) is float
    # a key the JSON leaves out takes the dataclass default
    assert AnalysisConfig.from_json(json.dumps({
        "corpora": [{"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}],
        "output_dir": "o"})) == AnalysisConfig(corpora=(src,), output_dir="o")
    other = CorpusSource("d", ("y.ctm",), "ctm")
    assert AnalysisConfig(corpora=[src, other], output_dir="o",
                          comparisons=[["c", "d"]]) == (
        AnalysisConfig(corpora=(src, other), output_dir="o",
                       comparisons=(("c", "d"),)))


def test_missing_input_raises_corpus_error(tmp_path):
    config = AnalysisConfig(
        corpora=(CorpusSource("c", (str(tmp_path / "nope.ctm"),), "ctm"),),
        output_dir=str(tmp_path / "out"))
    with pytest.raises(CorpusLoadError) as err:
        run_analysis(config)
    assert "nope.ctm" in str(err.value)


# One interval whose xmin (line 16) is negative.
NEGATIVE_START_TEXTGRID = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.0
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 1.0
        intervals: size = 1
        intervals [1]:
            xmin = -1.0
            xmax = 0.07
            text = "a"
"""


def _run_one_corpus(root, paths, fmt="ctm", **config):
    """Analyze corpus "c" of `paths` into `root`/out."""
    return run_analysis(AnalysisConfig(
        corpora=(CorpusSource("c", tuple(str(p) for p in paths), fmt),),
        output_dir=str(root / "out"), **config))


def test_malformed_alignment_file_names_path_and_line(tmp_path, capsys):
    ctm = tmp_path / "broken.ctm"
    ctm.write_text("u1 1 0.00 0.07 a\nu1 1 0.07 0.05\n", encoding="utf-8")
    with pytest.raises(CorpusLoadError) as err:
        _run_one_corpus(tmp_path, [ctm])
    assert "broken.ctm" in str(err.value) and "line 2" in str(err.value)

    tg_dir = tmp_path / "tg"
    tg_dir.mkdir()
    (tg_dir / "neg.TextGrid").write_text(NEGATIVE_START_TEXTGRID,
                                         encoding="utf-8")
    with pytest.raises(CorpusLoadError) as err:
        _run_one_corpus(tmp_path, [tg_dir], fmt="textgrid")
    assert "neg.TextGrid" in str(err.value)
    assert "line 16: negative start time -1.0" in str(err.value)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": "c", "paths": [str(tg_dir)],
                     "format": "textgrid"}],
        "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 1
    assert "neg.TextGrid" in capsys.readouterr().err


def test_corpus_without_vowels_or_matching_files_is_a_corpus_error(tmp_path):
    ctm = tmp_path / "consonants.ctm"
    ctm.write_text(_ctm([("b", [50.0, 60.0]), ("sil", [100.0])]),
                   encoding="utf-8")
    with pytest.raises(CorpusLoadError) as err:
        _run_one_corpus(tmp_path, [ctm])
    assert "contains no vowel tokens" in str(err.value)

    other = tmp_path / "other"
    other.mkdir()
    (other / "notes.txt").write_text("u1 1 0.0 0.07 a\n", encoding="utf-8")
    (other / "ctm").mkdir()
    with pytest.raises(CorpusLoadError) as err:
        _run_one_corpus(tmp_path, [other])
    assert f"no ctm files under {other}" in str(err.value)



def test_no_vowel_tokens_error_names_the_most_frequent_labels(tmp_path):
    # Kaldi's position-marked labels, which the default phone map lacks
    ctm = tmp_path / "k.ctm"
    ctm.write_text(_ctm([("a_B", [50.0, 60.0]), ("aa_E", [120.0, 130.0, 125.0]),
                         ("sil", [100.0])]), encoding="utf-8")
    with pytest.raises(CorpusLoadError) as err:
        _run_one_corpus(tmp_path, [ctm])
    assert str(err.value) == (
        f"corpus 'c' contains no vowel tokens (checked {(str(ctm),)}; most "
        "frequent labels: 'aa_E' (3), 'a_B' (2), 'sil' (1))")


def test_a_corpus_of_schwa_alone_is_a_load_error(tmp_path, capsys):
    # schwa has cells but no contrast row, so such a run would report nothing
    ctm = tmp_path / "schwa.ctm"
    ctm.write_text(_ctm([("ə", [50.0, 55.0, 61.0, 70.0, 80.0])]), encoding="utf-8")
    with pytest.raises(CorpusLoadError, match="only vowel tokens are schwa"):
        _run_one_corpus(tmp_path, [ctm])
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": "c", "paths": [str(ctm)], "format": "ctm"}],
        "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        "error: corpus 'c': its only vowel tokens are schwa (ə), which has no "
        "length contrast to report\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("paths", "", "config key 'paths' of corpus 'c' must list paths, none of "
     "them empty"),
    ("paths", ["a.ctm", ""], "config key 'paths' of corpus 'c' must list paths, "
     "none of them empty"),
    ("output_dir", "", "config key 'output_dir' is empty"),
], ids=["paths", "paths-item", "output_dir"])
def test_an_empty_path_is_a_config_error_naming_its_key(
        tmp_path, monkeypatch, capsys, key, value, message):
    # "" would read every .ctm file, or write the tree, in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.ctm").write_text(_ctm([("a", [50.0, 60.0]), ("aa", [120.0])]),
                                    encoding="utf-8")
    corpus = {"corpus_id": "c", "paths": ["a.ctm"], "format": "ctm"}
    config = {"corpora": [corpus], "output_dir": "out"}
    (corpus if key == "paths" else config)[key] = value
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ctm", "cfg.json"]

def test_configured_phone_map_relabels_the_corpus(tmp_path):
    spec = CorpusSpec("small", seed=8, cells=(
        CellSpec("a", "short", 6.0, 11.5, 60),
        CellSpec("a", "long", 7.0, 17.5, 40),
    ), emit_formats=("ctm",))
    text = generate_corpus(spec).files["small.ctm"]
    relabel = {"a": "A1", "aa": "A2"}
    relabeled = "".join(
        " ".join(fields[:4] + [relabel.get(fields[4], fields[4])]) + "\n"
        for fields in (line.split() for line in text.splitlines()))
    assert relabeled != text
    (tmp_path / "default.ctm").write_text(text, encoding="utf-8")
    (tmp_path / "custom.ctm").write_text(relabeled, encoding="utf-8")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"phones": {
        "A1": {"vowel": "a", "length": "short"},
        "A2": {"vowel": "a", "length": "long"}}}), encoding="utf-8")

    _run_one_corpus(tmp_path / "d", [tmp_path / "default.ctm"])
    _run_one_corpus(tmp_path / "m", [tmp_path / "custom.ctm"],
                    phone_map_path=str(map_path))
    default_table = (tmp_path / "d" / "out" / "c" / "features.csv").read_bytes()
    assert default_table.count(b"\n") == 2  # header + a
    assert (tmp_path / "m" / "out" / "c" / "features.csv").read_bytes() \
        == default_table

    with pytest.raises(CorpusLoadError) as err:
        _run_one_corpus(tmp_path, [tmp_path / "custom.ctm"],
                        phone_map_path=str(tmp_path / "absent.json"))
    assert "phone map not found" in str(err.value)
    assert "absent.json" in str(err.value)


def test_cli_rejects_a_phone_map_label_that_never_matches(tmp_path, capsys):
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["phone_map"] = str(tmp_path / "map.json")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "map.json").write_text(json.dumps({"phones": {
        "a ": {"vowel": "a", "length": "short"},
        "aa": {"vowel": "a", "length": "long"}}}), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert "'a '" in capsys.readouterr().err
    assert not (tmp_path / "outx").exists()


def test_comparisons_must_write_distinct_ks_files(tmp_path, capsys):
    corpora = tuple(CorpusSource(c, (f"{c}.ctm",), "ctm")
                    for c in ("x_vs_y", "z", "x", "y_vs_z"))
    clashes = ((("x_vs_y", "z"), ("x", "y_vs_z")),
               (("x", "z"), ("x", "z")),
               (("z", "z"),))  # D = 0 on every row: a typo, not a comparison
    for comparisons in clashes:
        with pytest.raises(ConfigError) as err:
            AnalysisConfig(corpora=corpora, output_dir="o", comparisons=comparisons)
        assert all(repr(pair) in str(err.value) for pair in comparisons)
    assert len(AnalysisConfig(corpora=corpora, output_dir="o", comparisons=(
        ("x", "z"), ("z", "x"), ("x_vs_y", "z"))).comparisons) == 3

    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": c.corpus_id, "paths": list(c.paths),
                     "format": "ctm"} for c in corpora],
        "output_dir": str(tmp_path / "out"),
        "comparisons": [["x_vs_y", "z"], ["x", "y_vs_z"]]}), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert "ks_x_vs_y_vs_z" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_speaker_from_is_checked_with_the_config(tmp_path, capsys):
    src = CorpusSource("c", ("x.ctm",), "ctm")
    for bad in ("bogus", "prefix:", "fixed:"):
        with pytest.raises(ConfigError) as err:
            AnalysisConfig(corpora=(src,), output_dir="o", speaker_from=bad)
        assert "speaker_from" in str(err.value)
        with pytest.raises(ConfigError) as err:
            AnalysisConfig.from_json(_config_json(speaker_from=bad))
        assert "speaker_from" in str(err.value)
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps(dict(config, speaker_from="prefix:")),
                           encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert "speaker_from" in capsys.readouterr().err
    assert not (tmp_path / "outx").exists()


def test_vowel_level_failure_degrades_to_flagged_row(tmp_path):
    # one healthy /a/ pair plus a one-token /o/ long cell: the run succeeds
    spec = CorpusSpec("frag", seed=33, cells=(
        CellSpec("a", "short", 6.0, 11.5, 80),
        CellSpec("a", "long", 7.0, 17.5, 40),
        CellSpec("o", "long", 7.0, 16.0, 1),
    ), emit_formats=("ctm",))
    corpus = generate_corpus(spec)
    ctm = tmp_path / "frag.ctm"
    ctm.write_text(corpus.files["frag.ctm"], encoding="utf-8")
    config = AnalysisConfig(
        corpora=(CorpusSource("frag", (str(ctm),), "ctm"),),
        output_dir=str(tmp_path / "out"))
    result = run_analysis(config)
    by_vowel = {r.vowel_class: r for r in result.reports["frag"]}
    assert by_vowel["a"].error is None
    assert by_vowel["o"].error is not None
    assert by_vowel["o"].n_short == 0
    csv_text = (tmp_path / "out" / "frag" / "features.csv").read_text(
        encoding="utf-8")
    assert len(csv_text.strip().splitlines()) == 3  # header + a + o


def test_each_vowel_gets_a_row_a_dip_and_a_plot_by_its_cells(tmp_path):
    # a: both fits; e: a 5-token short cell only; i: 3 tokens in all; the
    # other vowels: no tokens
    ctm = tmp_path / "rules.ctm"
    ctm.write_text(_ctm([("a", [50.0 + 0.5 * k for k in range(60)]),
                         ("aa", [120.0 + k for k in range(40)]),
                         ("e", [55.0, 60.0, 62.0, 70.0, 81.0]),
                         ("i", [48.0, 66.0]), ("ii", [130.0])]), encoding="utf-8")
    _run_one_corpus(tmp_path, [ctm])
    out = tmp_path / "out" / "c"
    table = list(csv.DictReader(io.StringIO(
        (out / "features.csv").read_text(encoding="utf-8"))))
    assert [(row["vowel"], row["n_short"], row["n_long"], row["error"] != "")
            for row in table] == [("i", "2", "1", True), ("e", "5", "0", True),
                                  ("a", "60", "40", False)]
    diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    assert {vowel: entry["n"] for vowel, entry in diag["dip"].items()} == {
        "e": 5, "a": 100}
    assert set(diag["plot"]) == {"a"}
    assert sorted(p.name for p in out.glob("plot_*.csv")) == ["plot_a.csv"]
    # every vowel with a row gets a histogram
    assert sorted(p.name for p in out.glob("hist_*.csv")) == [
        "hist_a.csv", "hist_e.csv", "hist_i.csv"]


def _write_two_corpora(root):
    spec_a = CorpusSpec("corpA", seed=101, cells=(
        CellSpec("a", "short", 4.0, 20.0, 1000),
        CellSpec("a", "long", 9.0, 15.0, 300),
    ), utterance_size=15, emit_formats=("ctm",))
    spec_b = CorpusSpec("corpB", seed=202, cells=(
        CellSpec("a", "short", 4.0, 20.0, 1000),
        CellSpec("a", "long", 9.0, 15.0, 300),
    ), utterance_size=15, emit_formats=("textgrid",))
    ctm = root / "corpA.ctm"
    ctm.write_text(generate_corpus(spec_a).files["corpA.ctm"],
                   encoding="utf-8")
    tg_dir = root / "corpB"
    tg_dir.mkdir()
    for name, text in generate_corpus(spec_b).files.items():
        (tg_dir / name).write_text(text, encoding="utf-8")
    return ctm, tg_dir


def test_comparisons_and_formats(tmp_path):
    ctm, tg_dir = _write_two_corpora(tmp_path)
    config = AnalysisConfig(
        corpora=(CorpusSource("corpA", (str(ctm),), "ctm"),
                 CorpusSource("corpB", (str(tg_dir),), "textgrid")),
        output_dir=str(tmp_path / "out"),
        comparisons=(("corpA", "corpB"),),
    )
    result = run_analysis(config)
    rows = result.comparisons[("corpA", "corpB")]
    assert {(r.vowel_class, r.length_class) for r in rows} == {
        ("a", "short"), ("a", "long"), ("a", "pooled")}
    short_row = next(r for r in rows if r.length_class == "short")
    assert short_row.p_value > 0.05  # identical generators, fixed seeds
    ks_csv = (tmp_path / "out" / "ks_corpA_vs_corpB.csv").read_text(
        encoding="utf-8")
    assert ks_csv.splitlines()[0] == "vowel,length_class,D,p_value,n_a,n_b"
    assert len(ks_csv.strip().splitlines()) == 4


def test_cli_synth_then_analyze(tmp_path, capsys):
    spec = {
        "corpus_id": "demo", "seed": 5, "utterance_size": 8,
        "emit_formats": ["ctm"],
        "cells": [
            {"vowel": "a", "length": "short", "shape": 6.0, "scale": 11.5,
             "count": 120},
            {"vowel": "a", "length": "long", "shape": 125 / 17.5,
             "scale": 17.5, "count": 60},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert cli_main(["synth", "--spec", str(spec_path),
                     "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "demo" / "demo.ctm").is_file()
    assert (tmp_path / "demo" / "tokens_truth.csv").is_file()

    config = {
        "corpora": [{"corpus_id": "demo",
                     "paths": [str(tmp_path / "demo" / "demo.ctm")],
                     "format": "ctm"}],
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "features.csv" in out


# sha256 of every file `vlcontrast synth` writes for PIN_SPEC, recorded
# when the ground truth was still a tuple of per-token objects.
PIN_SPEC = {
    "corpus_id": "pin", "seed": 31, "utterance_size": 4,
    "emit_formats": ["ctm", "textgrid"],
    "cells": [
        {"vowel": "a", "length": "short", "shape": 6.0, "scale": 11.5, "count": 7},
        {"vowel": "ɔ", "length": "long", "shape": 5.0, "scale": 20.0, "count": 4},
        {"vowel": "ə", "length": "short", "shape": 7.0, "scale": 8.0, "count": 3},
    ],
}
PIN_SHA256 = {
    "pin-0000.TextGrid": "35700a53070146c38dbbf983abbfdd5ca55cf2f85e41dc35b9e3ac30fba18b22",
    "pin-0001.TextGrid": "a5ecf9875995ef3e91e032c47ccc43344d91e0bd47dc27f52fa2e19a9503835e",
    "pin-0002.TextGrid": "300d9bd80025fb9155beb830f3efeb78dee4ef9c2e139417f897dbaa5921c034",
    "pin-0003.TextGrid": "a0c22e4eab5ca8766af31c9f056b681121840369fd58e3635dedb3bb5139fa5a",
    "pin.ctm": "ef003518c59d904847c0faf4530b64bddf0f3ed8bf0087339bdb6f98964b5475",
    "tokens_truth.csv": "b7b0482873bec2dd9820e063ba4dced00e661dfb39d848b03de7ed16ad653721",
}


def test_cli_synth_outputs_are_pinned(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(PIN_SPEC), encoding="utf-8")
    assert cli_main(["synth", "--spec", str(spec_path),
                     "--outdir", str(tmp_path)]) == 0
    assert "(14 vowel tokens)" in capsys.readouterr().out
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "pin").iterdir()}
    assert written == PIN_SHA256
    truth = (tmp_path / "pin" / "tokens_truth.csv").read_text(encoding="utf-8")
    assert truth.splitlines()[:2] == ["vowel,length,duration_ms,utterance_id",
                                      "ə,short,77.7,pin-0000"]
    assert "np." not in truth


# For the acceptance corpus written in both formats (20,426 tokens, 1,703
# utterances, several blocks of the generator's stream), recorded before
# the generator made its stream in blocks: the CTM's sha256, the sha256
# of the "name sha256" listing of every file, and the sha256 of the truth
# rows "cell code, repr of ms, utterance id".
ACCEPTANCE_PIN_SHA256 = {
    "ctm": "b782b4636c9d2d6bf4b2b313ec86cd9526b3db3935676c8e6f1a580a065ed8b1",
    "files": "d30d5de21ca25a5a9a11891fc4e91aab8f5b39242762d522decc78784885cac6",
    "truth": "1238e3d9a605bb06537f669e4130a00ab195ccdb0ca9339a1c3f553a3245cc85",
}


def test_acceptance_corpus_outputs_are_pinned():
    from test_acceptance import ACCEPTANCE_CELLS

    spec = CorpusSpec("read-mimic", seed=20250808, cells=ACCEPTANCE_CELLS,
                      utterance_size=12, emit_formats=("ctm", "textgrid"))
    corpus = generate_corpus(spec)
    assert (len(corpus.files), len(corpus.tokens)) == (1704, 20426)

    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    tokens = corpus.tokens
    listing = "".join(f"{name} {sha(text)}\n"
                      for name, text in sorted(corpus.files.items()))
    truth = "".join(f"{cell} {ms!r} {tokens.utterance_ids[u]}\n"
                    for cell, ms, u in zip(tokens.cell.tolist(),
                                           tokens.duration_ms.tolist(),
                                           tokens.utterance.tolist()))
    assert {"ctm": sha(corpus.files["read-mimic.ctm"]), "files": sha(listing),
            "truth": sha(truth)} == ACCEPTANCE_PIN_SHA256


@pytest.mark.parametrize("cell, named", [
    ('"shape": NaN, "scale": 11.5', "a/short"),
    ('"shape": "Infinity", "scale": 11.5', "'shape'"),
    ('"shape": Infinity, "scale": 11.5', "a/short"),
    ('"shape": 6.0, "scale": NaN', "a/short"),
    ('"shape": 6.0, "scale": 1e308', "a/short"),
    pytest.param('"shape": 1' + "0" * 400 + ', "scale": 11.5', "'shape'",
                 id="shape-too-large-for-a-float"),
])
def test_cli_synth_rejects_non_finite_cells(tmp_path, capsys, cell, named):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"corpus_id": "bad", "cells": [{"vowel": "a", "length": "short", '
        + cell + ', "count": 3}]}', encoding="utf-8")
    assert cli_main(["synth", "--spec", str(spec_path),
                     "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "bad").exists()


def test_cli_analyze_writes_the_ks_files(tmp_path, capsys):
    ctm, tg_dir = _write_two_corpora(tmp_path)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [
            {"corpus_id": "corpA", "paths": [str(ctm)], "format": "ctm"},
            {"corpus_id": "corpB", "paths": [str(tg_dir)],
             "format": "textgrid"},
        ],
        "output_dir": str(tmp_path / "out"),
        "comparisons": [["corpA", "corpB"]],
    }), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "ks_corpA_vs_corpB" in out
    assert (tmp_path / "out" / "ks_corpA_vs_corpB.csv").is_file()
    # there is no second command that writes only the ks files
    with pytest.raises(SystemExit) as exit_:
        cli_main(["compare", "--config", str(config_path)])
    assert exit_.value.code == 2


def _readme():
    return (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")


def _readme_commands():
    """Every `vlcontrast ...` line of the README's sh blocks, as argv."""
    blocks = re.findall(r"^```sh\n(.*?)^```", _readme(), flags=re.M | re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("vlcontrast ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"analyze", "synth"}
    for argv in commands:
        _build_parser().parse_args(argv)


def _readme_json_block(name):
    """The ```json block that follows the README's `name`: line."""
    return re.search(rf"^`{re.escape(name)}`:\n\n```json\n(.*?)^```", _readme(),
                     flags=re.M | re.S).group(1)


def _readme_python_block(heading):
    """The ```python block that opens the README's `## heading` section."""
    return re.search(rf"^## {re.escape(heading)}\n\n```python\n(.*?)^```",
                     _readme(), flags=re.M | re.S).group(1)


def test_readme_json_examples_load():
    config = AnalysisConfig.from_json(_readme_json_block("analysis.json"))
    assert [c.corpus_id for c in config.corpora] == ["read", "spont"]
    assert config.comparisons == (("read", "spont"),)
    spec = CorpusSpec.from_json(_readme_json_block("corpus.json"))
    assert spec.corpus_id == "demo" and len(spec.cells) == 2


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the block reads utt1.TextGrid; give it one synthetic utterance
    spec = CorpusSpec("utt1", seed=3, cells=(
        CellSpec("a", "short", 6.0, 11.5, 300), CellSpec("a", "long", 7.0, 17.5, 200)),
        utterance_size=500, emit_formats=("textgrid",))
    (tmp_path / "utt1.TextGrid").write_text(
        generate_corpus(spec).files["utt1-0000.TextGrid"], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(_readme_python_block("Library use"), namespace)
    mean_short, area, delta, significant = capsys.readouterr().out.split()
    assert 60.0 < float(mean_short) < 80.0 and 0.0 < float(area) <= 1.0
    assert float(delta) > 0.0 and significant == "True"
    # what collect_cells and filter_outliers handed back: sorted cells
    assert list(namespace["cells"]) == [("a", "short"), ("a", "long")]
    for samples in namespace["cells"].values():
        assert not samples.flags.writeable and (np.diff(samples) >= 0).all()


def test_cli_errors(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert cli_main(["analyze", "--config", str(missing)]) == 2
    assert "absent.json" in capsys.readouterr().err

    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"corpora": [], "output_dir": "o"}',
                          encoding="utf-8")
    assert cli_main(["analyze", "--config", str(bad_config)]) == 2

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "corpora": [{"corpus_id": "c",
                     "paths": [str(tmp_path / "ghost.ctm")],
                     "format": "ctm"}],
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config)]) == 1
    assert "ghost.ctm" in capsys.readouterr().err


def test_cli_overrides_reflected_in_metadata(tmp_path, capsys):
    # the config file is the one place to set an option: `analyze` takes no
    # flag that overrides one
    for flag in (["--outdir", "x"], ["--bin-width", "5"], ["--no-outlier-filter"],
                 ["--speaker-from", "prefix:-"]):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["analyze", "--config", "cfg.json", *flag])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    spec = CorpusSpec("ovr", seed=8, cells=(
        CellSpec("a", "short", 6.0, 11.5, 60),
        CellSpec("a", "long", 7.0, 17.5, 40),
    ), emit_formats=("ctm",))
    (tmp_path / "ovr.ctm").write_text(
        generate_corpus(spec).files["ovr.ctm"], encoding="utf-8")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": "ovr", "paths": [str(tmp_path / "ovr.ctm")],
                     "format": "ctm"}],
        "output_dir": str(tmp_path / "out"),
        "bin_width_ms": 5, "outlier_filtering": False, "speaker_from": "prefix:-",
    }), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 0
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text(
        encoding="utf-8"))
    assert meta["options"]["bin_width_ms"] == 5.0
    assert meta["options"]["outlier_filtering"] is False
    assert meta["options"]["speaker_from"] == "prefix:-"
    # speaker rule produced per-speaker counts ("ovr" prefix of utterance ids)
    assert meta["corpora"]["ovr"]["per_speaker"] == {"ovr": 100}


def test_runs_are_byte_identical(tmp_path):
    ctm, _ = _write_two_corpora(tmp_path)
    config = AnalysisConfig(
        corpora=(CorpusSource("corpA", (str(ctm),), "ctm"),),
        output_dir=str(tmp_path / "out"))
    first = run_analysis(config)
    snapshot = {p: p.read_bytes() for p in first.output_paths}
    second = run_analysis(config)
    assert sorted(snapshot) == sorted(second.output_paths)
    for path, blob in snapshot.items():
        assert path.read_bytes() == blob


def _tree(root):
    """Every file under `root`, by path, with its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _two_corpus_config(tmp_path, **kw):
    ctm, tg_dir = _write_two_corpora(tmp_path)
    return AnalysisConfig(
        corpora=(CorpusSource("corpA", (str(ctm),), "ctm"),
                 CorpusSource("corpB", (str(tg_dir),), "textgrid")),
        output_dir=str(tmp_path / "out"), comparisons=(("corpA", "corpB"),), **kw)


def test_output_paths_list_the_written_files_in_order(tmp_path):
    config = _two_corpus_config(tmp_path)
    out = tmp_path / "out"
    paths = run_analysis(config).output_paths
    assert paths == [out / name for name in (
        "corpA/features.csv", "corpA/features.json", "corpA/features.md",
        "corpA/hist_a.csv", "corpA/plot_a.csv", "corpA/diagnostics.json",
        "corpB/features.csv", "corpB/features.json", "corpB/features.md",
        "corpB/hist_a.csv", "corpB/plot_a.csv", "corpB/diagnostics.json",
        "ks_corpA_vs_corpB.csv", "ks_corpA_vs_corpB.json", "run_metadata.json")]
    assert set(paths) == set(_tree(out))


def test_run_metadata_lists_exactly_the_files_of_its_run(tmp_path):
    config = _two_corpus_config(tmp_path)
    out = tmp_path / "out"
    run_analysis(config)
    paths = run_analysis(replace(config, corpora=config.corpora[:1],
                                 comparisons=())).output_paths
    outputs = json.loads((out / "run_metadata.json").read_text(
        encoding="utf-8"))["outputs"]
    assert list(outputs) == sorted(p.relative_to(out).as_posix()
                                   for p in paths[:-1])
    assert paths[-1] == out / "run_metadata.json"
    # the first run's corpB and KS files stay on disk, unlisted
    on_disk = {p.relative_to(out).as_posix() for p in _tree(out)}
    assert on_disk - set(outputs) == {
        "run_metadata.json", "ks_corpA_vs_corpB.csv", "ks_corpA_vs_corpB.json",
        "corpB/features.csv", "corpB/features.json", "corpB/features.md",
        "corpB/hist_a.csv", "corpB/plot_a.csv", "corpB/diagnostics.json"}
    for name, digest in outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_a_failed_run_leaves_the_previous_tree_as_it_was(tmp_path):
    config = _two_corpus_config(tmp_path)
    run_analysis(config)
    before = _tree(tmp_path / "out")
    assert tmp_path / "out" / "corpA" / "plot_a.csv" in before
    broken = sorted((tmp_path / "corpB").iterdir())[-1]
    broken.write_text("not an alignment file\n", encoding="utf-8")
    with pytest.raises(CorpusLoadError, match=broken.name):
        run_analysis(replace(config, bin_width_ms=5.0))
    assert _tree(tmp_path / "out") == before


# sha256 of every file a two-corpus run writes (CTM + TextGrid, one
# comparison, all three formats), with and without the outlier filter,
# recorded while the cells still travelled as DurationSampleSet records;
# run_metadata.json re-pinned when it gained its `outputs` manifest, and
# with the plot files, diagnostics.json and the features.csv/.json files
# when the plot grid came to end where the fits' mass does and the tables
# gained `crossings_ms`; run_metadata.json again when its `options` lost
# `output_formats` and `ks_on_filtered_durations`; the features.csv/.json
# and plot files whose sums moved in their last digits when each cell came
# to be held sorted, with run_metadata.json; the plot files and
# run_metadata.json, with the new hist files, when a plot file came to hold
# only the curves and the histograms moved to hist_<v>.csv.
# run_metadata.json is hashed without its config_sha256 line, which covers
# the tmp_path paths.
TWO_CORPUS_PIN_SHA256 = {
    True: {
        "corpA/diagnostics.json": "b161391e5e01f473b39be9afbf18a8d18041528f74f5057920933fa4c243c48c",
        "corpA/features.csv": "e5492e331b0771029fc5ad4203f1e36e523caa010bec9a6165d69e5e1da46384",
        "corpA/features.json": "a1cc2720c55dcd461e08e1262c87e94030f63d5741c36278a616fa220e9733ff",
        "corpA/features.md": "16518cf9dd40e6e6a101df974e42e68459952b93a4853dd17735a5e152e6c15a",
        "corpA/hist_a.csv": "e4f97ec4eeaab4566e9ec2aaf370a4daf60c13f3c319c7d0f811ec7ae491e555",
        "corpA/plot_a.csv": "94a51a58e5626530bc25a83e97de0b773e598d5063b6b8f4894d994883a2655f",
        "corpB/diagnostics.json": "9f2eaf0deca63750c9781d8b5e3e851c24e9f8bab13c8f296e2ffbf7d935d015",
        "corpB/features.csv": "3318582a8cab44b3a1bb7ae8312d494aa3b3532e23a048dc9666e46a2a92f00c",
        "corpB/features.json": "645288a3c5850ea3942c9952392fd448d806c2d2f0aca0c4d7896acde0234756",
        "corpB/features.md": "833edfd3562884fc24a50da8da17f3bd6fc1144456625b24ec1cec82f6097403",
        "corpB/hist_a.csv": "20835fa72f1bdba1aff22d2702ff1051aa35a44dd8a326dc182ac9cde074b77c",
        "corpB/plot_a.csv": "04b422698f843f94eb7f63cfe070737d88204730f3ce39536c781418363d13b5",
        "ks_corpA_vs_corpB.csv": "1d78fa2f3488d2eef998ee706b8bb00d9763462c234c47cb703fc857c23666fc",
        "ks_corpA_vs_corpB.json": "8004ecfa0ecfca82933097b74ee6e8337c7670e28413942a2fee08bf1d21eea4",
        "run_metadata.json": "b8f5977ed2f6c04d8f7ac1279d52fbf059bc730a7dafb6fd158d0c328dd8542f",
    },
    False: {
        "corpA/diagnostics.json": "d7f555ddc7634538023582b7a51f602c2394ea2ae85779aaa29552c3853a1d1d",
        "corpA/features.csv": "cd18479625ae7317c93fa3056d2af14e071ada343935e15d7b89a9c0ec68c029",
        "corpA/features.json": "676131bdffabd4296eeda6008b2430213d56cdb75027d8381ee853882970fc77",
        "corpA/features.md": "4050174f781b576778f864dc5ad29b1fd0480b639ff269476ea97179ec525daa",
        "corpA/hist_a.csv": "0c38807a2639aa235ae9b261d9794f4a66cc5cd29337ec519f199eb36e6c40f5",
        "corpA/plot_a.csv": "8604c9b280f2ca4d78a6c89f0832d689c9424d9b4a4ee511394f11720f7cebba",
        "corpB/diagnostics.json": "55bb330dcef7c13a63b5d5a2b995e7e45d5c4270b4e4bf8feda597866787c07a",
        "corpB/features.csv": "ab6f89c8baed13e3d526a35953976f1b1819910826d8d8503dd2c53aedd9d3e0",
        "corpB/features.json": "5730b987794df9e921438353e3b4d07c46231209f099fd0e594f0ed5d14af79f",
        "corpB/features.md": "93adf850581790b23609781604ee087490d6f0b05f2543604f66c45ef4c964ca",
        "corpB/hist_a.csv": "a278e716ca64c11e1beff689eaefb31d0e13f383430c532f63676a5474e3c043",
        "corpB/plot_a.csv": "5a8590d693ff27232daa650bd285a11a3bdd6a422909bbd25b45006a26c07046",
        "ks_corpA_vs_corpB.csv": "2daa14954593eb62988df7a2a02830ee5aeb3a02a70d811bd1bb2190841211c4",
        "ks_corpA_vs_corpB.json": "52d66dfe93d5dde3134f51ef9ce442b644b57c85491b856cdbf1d267b1083239",
        "run_metadata.json": "cbd143bccd53917d1124d2ca419b3a8b4669f5d6afbf851139d56ee156115e08",
    },
}


@pytest.mark.parametrize("filtering", [True, False])
def test_two_corpus_output_tree_is_pinned(tmp_path, filtering):
    out = tmp_path / "out"
    run_analysis(_two_corpus_config(tmp_path, outlier_filtering=filtering))
    written = {}
    for path, data in _tree(out).items():
        if path.name == "run_metadata.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b'  "config_sha256": '))
        written[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    assert written == TWO_CORPUS_PIN_SHA256[filtering]
    outputs = json.loads((out / "run_metadata.json").read_text(
        encoding="utf-8"))["outputs"]
    assert outputs == {name: digest for name, digest in written.items()
                       if name != "run_metadata.json"}


def _config_json(**extra):
    obj = {"corpora": [{"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}],
           "output_dir": "o"}
    obj.update(extra)
    return json.dumps(obj)


def test_config_from_json_rejects_non_boolean_filter_switch():
    assert AnalysisConfig.from_json(_config_json()).outlier_filtering is True
    assert AnalysisConfig.from_json(
        _config_json(outlier_filtering=False)).outlier_filtering is False
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(ConfigError) as err:
            AnalysisConfig.from_json(_config_json(outlier_filtering=bad))
        assert "outlier_filtering" in str(err.value)


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        AnalysisConfig.from_json(_config_json(outlier_filter=False))
    assert "outlier_filter" in str(err.value)
    typo = [{"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm",
             "fromat": "textgrid"}]
    with pytest.raises(ConfigError) as err:
        AnalysisConfig.from_json(_config_json(corpora=typo))
    assert "fromat" in str(err.value)
    with pytest.raises(ConfigError):
        AnalysisConfig.from_json(_config_json(corpora=["x.ctm"]))


@pytest.mark.parametrize("text, key", [
    ('{"corpora": [{"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}],'
     ' "output_dir": "o1", "output_dir": "o2"}', "output_dir"),
    ('{"corpora": [{"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm",'
     ' "format": "textgrid"}], "output_dir": "o"}', "format"),
], ids=["top_level", "corpus"])
def test_config_from_json_rejects_a_key_given_twice(text, key):
    with pytest.raises(ConfigError, match=f"key '{key}' is given twice"):
        AnalysisConfig.from_json(text)


def test_config_from_json_checks_value_types_and_names_the_key():
    corpus = {"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}
    bad_values = [
        ("comparisons", {"comparisons": [["c", "c", "c"]]}),
        ("comparisons", {"comparisons": "c"}),
        ("bin_width_ms", {"bin_width_ms": "ten"}),
        ("bin_width_ms", {"bin_width_ms": True}),
        ("speaker_from", {"speaker_from": 5}),
        ("phone_map", {"phone_map": ["m"]}),
        ("output_dir", {"output_dir": 5}),
        ("corpora", {"corpora": "x.ctm"}),
        ("paths", {"corpora": [dict(corpus, paths=5)]}),
        ("paths", {"corpora": [dict(corpus, paths=["x.ctm", 5])]}),
        ("corpus_id", {"corpora": [dict(corpus, corpus_id=5)]}),
        ("format", {"corpora": [dict(corpus, format=["ctm"])]}),
    ]
    for key, extra in bad_values:
        with pytest.raises(ConfigError) as err:
            AnalysisConfig.from_json(_config_json(**extra))
        assert key in str(err.value), (key, extra, str(err.value))
    config = AnalysisConfig.from_json(_config_json(
        corpora=[dict(corpus, paths="x.ctm"), dict(corpus, corpus_id="d")],
        bin_width_ms=5, phone_map="m.tsv",
        speaker_from="fixed:s1", comparisons=[["c", "d"]]))
    assert config.corpora[0].paths == ("x.ctm",)
    assert config.bin_width_ms == 5.0 and isinstance(config.bin_width_ms, float)
    assert config.comparisons == (("c", "d"),)
    assert (config.phone_map_path, config.speaker_from) == ("m.tsv", "fixed:s1")


def _small_ctm_config(tmp_path, corpus_id="c"):
    spec = CorpusSpec("small", seed=8, cells=(
        CellSpec("a", "short", 6.0, 11.5, 60),
        CellSpec("a", "long", 7.0, 17.5, 40),
    ), emit_formats=("ctm",))
    ctm = tmp_path / "small.ctm"
    ctm.write_text(generate_corpus(spec).files["small.ctm"], encoding="utf-8")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": corpus_id, "paths": [str(ctm)], "format": "ctm"}],
        "output_dir": str(tmp_path / "outx" / "run"),
    }), encoding="utf-8")
    return config_path


def test_non_finite_bin_width_is_a_config_error_naming_the_key(tmp_path, capsys):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError) as err:
            AnalysisConfig.from_json(_config_json(bin_width_ms=bad))
        assert "bin_width_ms" in str(err.value)
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    for bad in (math.nan, math.inf):  # json writes NaN and Infinity
        config_path.write_text(json.dumps(dict(config, bin_width_ms=bad)),
                               encoding="utf-8")
        assert cli_main(["analyze", "--config", str(config_path)]) == 2
        assert "bin_width_ms" in capsys.readouterr().err
    # a JSON integer too large for a float
    config_path.write_text(json.dumps(dict(config, bin_width_ms=10 ** 400)),
                           encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'bin_width_ms'" in err
    # widths so small that the largest sample's bin index overflows an
    # integer, or the counts would not fit in memory
    for tiny in (1e-300, 1e-9):
        config_path.write_text(json.dumps(dict(config, bin_width_ms=tiny)),
                               encoding="utf-8")
        assert cli_main(["analyze", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'bin_width_ms'" in err, tiny
    assert not (tmp_path / "outx").exists()


def test_corpus_ids_must_be_one_plain_path_component(tmp_path, capsys):
    corpus = {"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}
    for bad in ("", ".", "..", "../escape", "a/b", "a\\b", "/abs", "a\0b"):
        with pytest.raises(ConfigError) as err:
            AnalysisConfig.from_json(_config_json(
                corpora=[dict(corpus, corpus_id=bad)]))
        assert "corpus_id" in str(err.value), bad
    assert AnalysisConfig.from_json(_config_json(
        corpora=[dict(corpus, corpus_id="read.v2")])).corpora[0].corpus_id == "read.v2"

    config_path = _small_ctm_config(tmp_path, corpus_id="../escape")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert "corpus_id" in capsys.readouterr().err
    assert not (tmp_path / "outx").exists()


def test_synth_corpus_ids_must_be_one_plain_path_component(tmp_path, capsys):
    for bad in ("", ".", "..", "../escape", "a/b", "a\\b", "/abs", "a\0b"):
        with pytest.raises(ConfigError) as err:
            CorpusSpec(bad, seed=1, cells=())
        assert str(err.value) == ("config key 'corpus_id' must be one plain "
                                  f"path component, got {bad!r}")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"corpus_id": "../escaped", "cells": [
        {"vowel": "a", "length": "short", "shape": 6.0, "scale": 11.5,
         "count": 3}]}), encoding="utf-8")
    outdir = tmp_path / "out"
    assert cli_main(["synth", "--spec", str(spec_path), "--outdir", str(outdir)]) == 2
    assert "corpus_id" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_a_corpus_id_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # JSON's "\ud800" escape reads as a lone surrogate, which no file name holds
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["corpora"].append(dict(config["corpora"][0], corpus_id="b\ud800"))
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        "error: config key 'corpus_id' must encode as UTF-8, got 'b\\ud800'\n")
    assert not (tmp_path / "outx").exists()


def test_synth_corpus_id_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    assert _synth(tmp_path, {"corpus_id": "b\ud800", "cells": [_cell(3)]}) == 2
    assert ("config key 'corpus_id' must encode as UTF-8, got 'b\\ud800'"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


NOT_UTF8_EDITS = {
    "output_dir": lambda c: dict(c, output_dir=c["output_dir"] + "\ud800"),
    "speaker_from": lambda c: dict(c, speaker_from="fixed:\ud800"),
    "phone_map": lambda c: dict(c, phone_map="map\ud800.json"),
    "paths": lambda c: dict(c, corpora=[dict(
        c["corpora"][0], paths=c["corpora"][0]["paths"] + ["x\ud800.ctm"])]),
}


@pytest.mark.parametrize("key", NOT_UTF8_EDITS)
def test_a_config_string_that_is_not_utf8_is_an_error_naming_its_key(
        tmp_path, capsys, key):
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps(NOT_UTF8_EDITS[key](config)), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config key {key!r} must encode as UTF-8, got ")
    assert not (tmp_path / "outx").exists()


def test_a_phone_map_label_that_is_not_utf8_is_an_error_naming_it(tmp_path, capsys):
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["phone_map"] = str(tmp_path / "map.json")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "map.json").write_text(json.dumps({"phones": {
        "a\ud800": {"vowel": "a", "length": "short"},
        "aa": {"vowel": "a", "length": "long"}}}), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        "error: phone map key 'a\\ud800' must encode as UTF-8, got 'a\\ud800'\n")
    assert not (tmp_path / "outx").exists()


@pytest.mark.parametrize("formats, message", [
    ([], "config key 'emit_formats' lists no format"),
    (["ctm", "ctm"], "config key 'emit_formats' lists 'ctm' twice"),
    (["textgrid", "ctm", "textgrid"], "config key 'emit_formats' lists 'textgrid' twice"),
])
def test_synth_emit_formats_name_each_format_once(tmp_path, capsys, formats, message):
    # with no format, synth would write only tokens_truth.csv, which
    # `analyze` cannot read
    with pytest.raises(ConfigError) as err:
        CorpusSpec("c", emit_formats=tuple(formats))
    assert str(err.value) == message
    assert _synth(tmp_path, {"corpus_id": "c", "cells": [_cell(3)],
                             "emit_formats": formats}) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def _synth(tmp_path, spec):
    """Exit code of `vlcontrast synth` on `spec`, written to tmp_path/out."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return cli_main(["synth", "--spec", str(spec_path),
                     "--outdir", str(tmp_path / "out")])


def _cell(count, vowel="a"):
    return {"vowel": vowel, "length": "short", "shape": 6.0, "scale": 11.5,
            "count": count}


def test_synth_rejects_a_count_the_corpus_span_cannot_hold(tmp_path, capsys):
    # every token lasts at least 0.1 ms plus its 50 ms filler, so a spec
    # whose total count times 50.1 ms passes the span bound is rejected
    # before any draw
    fits = int(synthgen._MAX_SPAN_MS / 50.1)
    for cells in ([_cell(10**20)], [_cell(10**400)], [_cell(fits - 1), _cell(2, "e")]):
        with pytest.raises(ConfigError) as err:
            CorpusSpec.from_json(json.dumps({"corpus_id": "big", "cells": cells}))
        assert "'count'" in str(err.value)
    assert CorpusSpec.from_json(json.dumps(
        {"corpus_id": "big", "cells": [_cell(fits - 1), _cell(1, "e")]}))
    assert _synth(tmp_path, {"corpus_id": "big", "cells": [_cell(10**20)]}) == 2
    assert "'count'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tokens_truth_quotes_a_corpus_id_with_a_comma(tmp_path):
    assert _synth(tmp_path, {"corpus_id": "a,b", "seed": 3, "utterance_size": 2,
                             "cells": [_cell(3)]}) == 0
    with open(tmp_path / "out" / "a,b" / "tokens_truth.csv", newline="",
              encoding="utf-8") as f:
        table = list(csv.reader(f))
    assert table[0] == ["vowel", "length", "duration_ms", "utterance_id"]
    assert [row[3] for row in table[1:]] == ["a,b-0000", "a,b-0000", "a,b-0001"]
    assert all(row[:2] == ["a", "short"] and float(row[2]) > 0 for row in table[1:])


@pytest.mark.parametrize("corpus_id", ["my corpus", "#c", "tab\tbed", "nb\u00a0sp"])
def test_synth_rejects_a_corpus_id_a_ctm_cannot_hold(tmp_path, capsys, corpus_id):
    # a CTM utterance id is one whitespace-free field that does not start
    # a comment; TextGrid files carry the id only in their names
    spec = {"corpus_id": corpus_id, "cells": [_cell(3)]}
    assert _synth(tmp_path, spec) == 2
    assert "'corpus_id'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert _synth(tmp_path, dict(spec, emit_formats=["textgrid", "ctm"])) == 2
    assert not (tmp_path / "out").exists()
    assert _synth(tmp_path, dict(spec, emit_formats=["textgrid"])) == 0
    assert (tmp_path / "out" / corpus_id / f"{corpus_id}-0000.TextGrid").is_file()


@pytest.mark.parametrize("corpus_id, comparisons, clash", [
    ("run_metadata.json", (), True),
    ("run_metadata.json.tmp", (("a", "b"),), True),
    ("ks_a_vs_b.csv", (("a", "b"),), True),
    ("ks_a_vs_b.csv.tmp", (("a", "b"),), True),
    ("ks_a_vs_b.json", (("a", "b"),), True),
    ("ks_a_vs_b.json.tmp", (("a", "b"),), True),
    ("ks_a_vs_b.json", (), False),  # no comparison, so no KS file
    ("ks_b_vs_a.csv", (("a", "b"),), False),  # not a configured comparison
    ("run_metadata", (("a", "b"),), False),
])
def test_corpus_id_may_not_name_a_file_written_in_output_dir(corpus_id, comparisons,
                                                             clash):
    make = partial(AnalysisConfig, corpora=(
        CorpusSource("a", ("x.ctm",), "ctm"), CorpusSource("b", ("y.ctm",), "ctm"),
        CorpusSource(corpus_id, ("z.ctm",), "ctm")),
        output_dir="o", comparisons=comparisons)
    if not clash:
        assert make().corpora[2].corpus_id == corpus_id
        return
    with pytest.raises(ConfigError) as err:
        make()
    assert str(err.value) == (f"config key 'corpus_id' {corpus_id!r} names a file "
                              "the run writes in output_dir")


def test_a_corpus_named_like_the_metadata_file_writes_nothing(tmp_path, capsys):
    config_path = _small_ctm_config(tmp_path, corpus_id="run_metadata.json")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    assert "corpus_id" in capsys.readouterr().err
    assert not (tmp_path / "outx").exists()


@pytest.mark.parametrize("corpus_ids, comparisons, key", [
    (["a", "b\u0000x"], [], "corpus_id"),
    (["a", "\u00e9" * 128], [], "corpus_id"),  # 256 bytes in UTF-8
    (["a" * 125, "b" * 125], [["a" * 125, "b" * 125]], "comparisons"),
], ids=["nul_in_second_corpus", "directory_256_bytes", "ks_name_266_bytes"])
def test_names_the_run_writes_are_checked_before_it_writes(
        tmp_path, capsys, corpus_ids, comparisons, key):
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    corpus = config["corpora"][0]
    config_path.write_text(json.dumps(dict(
        config, corpora=[dict(corpus, corpus_id=c) for c in corpus_ids],
        comparisons=comparisons)), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not (tmp_path / "outx").exists()


def test_names_up_to_the_limit_are_accepted():
    limit = report_module.NAME_MAX_BYTES
    assert limit == 255
    src = partial(CorpusSource, paths=("x.ctm",), format="ctm")
    AnalysisConfig(corpora=(src("\u00e9" * 127 + "a"),), output_dir="o")
    # "ks_" + a + "_vs_" + b + ".json.tmp": 3 + 119 + 4 + 120 + 9 bytes
    a, b = "a" * 119, "b" * 120
    AnalysisConfig(corpora=(src(a), src(b)), output_dir="o", comparisons=((a, b),))
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(corpora=(src(a), src(b + "b")), output_dir="o",
                       comparisons=((a, b + "b"),))
    assert "'comparisons'" in str(err.value)
    assert f"ks_{a}_vs_{b}b.json.tmp" in str(err.value)


def test_a_write_error_exits_1_with_a_message(tmp_path, capsys):
    config_path = _small_ctm_config(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    blocker = tmp_path / "a_file"
    blocker.write_text("kept\n", encoding="utf-8")
    config_path.write_text(json.dumps(dict(config, output_dir=str(blocker))),
                           encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a_file" in err
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def _ctm(durations_by_label, utt_prefix="u"):
    lines = []
    for label, durations in durations_by_label:
        for d in durations:
            lines.append(f"{utt_prefix}{len(lines)} 1 0.0 {d / 1000.0:.4f} {label}")
    return "\n".join(lines) + "\n"


def test_duplicate_input_paths_are_read_once(tmp_path):
    from vlcontrast.report import _alignment_files

    corpus_dir = tmp_path / "ctm"
    corpus_dir.mkdir()
    (corpus_dir / "b.ctm").write_text(
        _ctm([("a", [60.0 + i for i in range(30)]),
              ("aa", [140.0 + i for i in range(20)])]), encoding="utf-8")
    (corpus_dir / "a.ctm").write_text(_ctm([("a", [70.0])]), encoding="utf-8")
    (tmp_path / "link.ctm").symlink_to(corpus_dir / "b.ctm")
    paths = (str(corpus_dir / "b.ctm"), str(corpus_dir),
             str(tmp_path / "ctm" / ".." / "ctm" / "b.ctm"),
             str(tmp_path / "link.ctm"))
    source = CorpusSource("c", paths, "ctm")
    assert [p.name for p in _alignment_files(source)] == ["b.ctm", "a.ctm"]

    run_analysis(AnalysisConfig(corpora=(source,),
                                output_dir=str(tmp_path / "out")))
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text(
        encoding="utf-8"))
    assert meta["corpora"]["c"]["tokens"] == 51


def test_utf16_textgrids_decode_by_byte_order_mark(tmp_path):
    spec = CorpusSpec("wo", seed=12, cells=(
        CellSpec("ɛ", "short", 7.0, 11.0, 60),
        CellSpec("ɛ", "long", 8.0, 15.0, 40),
        CellSpec("ɔ", "short", 4.5, 16.0, 30),
    ), utterance_size=10, emit_formats=("textgrid",))
    files = generate_corpus(spec).files
    encoders = {
        "utf8": lambda text: text.encode("utf-8"),
        "utf8bom": lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
        "utf16le": lambda text: b"\xff\xfe" + text.encode("utf-16-le"),
        "utf16be": lambda text: b"\xfe\xff" + text.encode("utf-16-be"),
    }
    tables = {}
    for name, encode in encoders.items():
        corpus_dir = tmp_path / name
        corpus_dir.mkdir()
        for file_name, text in files.items():
            (corpus_dir / file_name).write_bytes(encode(text))
        out = tmp_path / f"out_{name}"
        run_analysis(AnalysisConfig(
            corpora=(CorpusSource("wo", (str(corpus_dir),), "textgrid"),),
            output_dir=str(out)))
        tables[name] = (out / "wo" / "features.csv").read_text(encoding="utf-8")
    assert "ɛ," in tables["utf8"] and "ɔ," in tables["utf8"]
    for name in ("utf8bom", "utf16le", "utf16be"):
        assert tables[name] == tables["utf8"]

    bad_dir = tmp_path / "latin1"
    bad_dir.mkdir()
    (bad_dir / "bad.TextGrid").write_bytes(  # Latin-1 "é": not UTF-8
        b'File type = "ooTextFile"\ntext = "caf\xe9"\n')
    with pytest.raises(CorpusLoadError) as err:
        run_analysis(AnalysisConfig(
            corpora=(CorpusSource("wo", (str(bad_dir),), "textgrid"),),
            output_dir=str(tmp_path / "out_bad")))
    assert "bad.TextGrid" in str(err.value) and "decode" in str(err.value)


def _single_table_run(tmp_path, monkeypatch, outlier_filtering):
    import vlcontrast.report as report_module

    calls = []
    original = report_module.filter_outliers

    def counting_filter(cell):
        calls.append((cell.corpus_id, cell.vowel_class, cell.length_class))
        return original(cell)

    monkeypatch.setattr(report_module, "filter_outliers", counting_filter)
    short_a = [60.0 + 0.5 * i for i in range(40)] + [400.0]  # planted outlier
    long_a = [140.0 + i for i in range(30)]
    short_b = [62.0 + 0.5 * i for i in range(40)]
    long_b = [138.0 + i for i in range(30)]
    (tmp_path / "A.ctm").write_text(
        _ctm([("a", short_a), ("aa", long_a)]), encoding="utf-8")
    (tmp_path / "B.ctm").write_text(
        _ctm([("a", short_b), ("aa", long_b)]), encoding="utf-8")
    out = tmp_path / ("filtered" if outlier_filtering else "raw")
    run_analysis(AnalysisConfig(
        corpora=(CorpusSource("A", (str(tmp_path / "A.ctm"),), "ctm"),
                 CorpusSource("B", (str(tmp_path / "B.ctm"),), "ctm")),
        output_dir=str(out), outlier_filtering=outlier_filtering,
        comparisons=(("A", "B"),)))
    return out, calls


def _output_counts(out, bin_width_ms=10.0):
    """n_short, short-histogram masses, dip n and KS n_a for vowel a of A."""
    features = json.loads((out / "A" / "features.json").read_text(
        encoding="utf-8"))
    n_short = features["reports"][0]["n_short"]
    hist = (_csv_floats(out / "A" / "hist_a.csv")[1][:, 1] * bin_width_ms).tolist()
    dip = json.loads((out / "A" / "diagnostics.json").read_text(
        encoding="utf-8"))["dip"]["a"]["n"]
    ks = json.loads((out / "ks_A_vs_B.json").read_text(encoding="utf-8"))
    n_a = {r["length_class"]: r["n_a"] for r in ks}
    return n_short, hist, dip, n_a


def _histogram_holds(mass_per_bin, n):
    counts = [m * n for m in mass_per_bin]
    return (all(abs(c - round(c)) < 1e-6 for c in counts)
            and sum(round(c) for c in counts) == n)


def test_one_filtered_cell_table_feeds_every_output(tmp_path, monkeypatch):
    out, calls = _single_table_run(tmp_path, monkeypatch, True)
    n_short, hist, dip_n, n_a = _output_counts(out)
    assert n_short == 40  # the planted 400 ms token is dropped
    assert _histogram_holds(hist, 40) and not _histogram_holds(hist, 41)
    assert dip_n == 40 + 30
    assert n_a == {"short": 40, "long": 30, "pooled": 70}
    assert sorted(calls) == sorted(
        (c, "a", length) for c in ("A", "B") for length in ("short", "long"))


def test_unfiltered_cell_table_feeds_every_output(tmp_path, monkeypatch):
    out, calls = _single_table_run(tmp_path, monkeypatch, False)
    n_short, hist, dip_n, n_a = _output_counts(out)
    assert n_short == 41
    assert _histogram_holds(hist, 41) and not _histogram_holds(hist, 40)
    assert dip_n == 41 + 30
    assert n_a == {"short": 41, "long": 30, "pooled": 71}
    assert calls == []


def test_run_metadata_counts_input_files_intervals_and_unmapped_labels(tmp_path):
    # unmapped: "c00" x1 ... "c24" x25, "z" and "y" tied at 30, and "é"
    # 13 times composed and 13 times decomposed
    lines = ["u0 1 0.0 0.07 a", "u0 1 0.1 0.13 aa"]
    for i in range(25):
        lines += [f"v{i} 1 {j}.0 0.05 c{i:02d}" for j in range(i + 1)]
    lines += [f"w 1 {j}.0 0.05 {label}" for j, label in enumerate(
        ["z"] * 30 + ["y"] * 30 + ["\u00e9", "e\u0301"] * 13)]
    (tmp_path / "a.ctm").write_text("\n".join(lines[:40]) + "\n", encoding="utf-8")
    (tmp_path / "b.ctm").write_text("\n".join(lines[40:]) + "\n", encoding="utf-8")
    run_analysis(AnalysisConfig(
        corpora=(CorpusSource("c", (str(tmp_path),), "ctm"),),
        output_dir=str(tmp_path / "out")))
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text(
        encoding="utf-8"))["corpora"]["c"]
    assert (meta["files"], meta["intervals"], meta["tokens"]) == (2, len(lines), 2)
    assert meta["unmapped_labels"] == (
        [{"label": "y", "count": 30}, {"label": "z", "count": 30},
         {"label": "\u00e9", "count": 26}]
        + [{"label": f"c{i:02d}", "count": i + 1} for i in range(24, 7, -1)])


def test_per_speaker_counts_speakers_of_vowel_tokens_only(tmp_path):
    from collections import Counter

    from vlcontrast.alignment import (default_phone_map, extract_vowel_tokens,
                                      parse_ctm, speaker_rule)

    phones = [("s1-u1", "a"), ("s1-u1", "sil"), ("s1-u2", "aa"), ("s2-u1", "a"),
              ("s2-u1", "ɛɛ"), ("s3-u1", "sil"), ("s3-u1", "b"), ("s1-u1", "a")]
    text = "".join(f"{utt} 1 {i * 0.1:.1f} 0.07 {label}\n"
                   for i, (utt, label) in enumerate(phones))
    (tmp_path / "one.ctm").write_text(text, encoding="utf-8")
    # the same utterance id in a second file adds to the same speaker
    (tmp_path / "two.ctm").write_text("s2-u1 1 0.0 0.09 u\n", encoding="utf-8")
    config = AnalysisConfig(corpora=(CorpusSource("c", (str(tmp_path),), "ctm"),),
                            output_dir=str(tmp_path / "out"), speaker_from="prefix:-")
    run_analysis(config)
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text(
        encoding="utf-8"))["corpora"]["c"]
    assert meta["per_speaker"] == {"s1": 3, "s2": 3}  # s3 has no vowel token
    speaker = speaker_rule("prefix:-")
    tokens = [row for name in ("one.ctm", "two.ctm") for row in rows(extract_vowel_tokens(
        parse_ctm((tmp_path / name).read_text(encoding="utf-8")), default_phone_map()))]
    assert meta["per_speaker"] == dict(Counter(speaker(row[3]) for row in tokens))


def test_run_reads_plain_crlf_and_textgrid_corpora(tmp_path):
    ctm = _small_ctm_config(tmp_path)
    config = json.loads(ctm.read_text(encoding="utf-8"))
    crlf = tmp_path / "crlf.ctm"
    crlf.write_bytes((tmp_path / "small.ctm").read_bytes().replace(b"\n", b"\r\n"))
    _, tg_dir = _write_two_corpora(tmp_path)
    result = run_analysis(AnalysisConfig(
        corpora=(CorpusSource("c", tuple(config["corpora"][0]["paths"]), "ctm"),
                 CorpusSource("crlf", (str(crlf),), "ctm"),
                 CorpusSource("tg", (str(tg_dir),), "textgrid")),
        output_dir=str(tmp_path / "out"), speaker_from="prefix:-"))
    assert set(result.reports) == {"c", "crlf", "tg"}
