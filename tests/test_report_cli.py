"""End-to-end analysis runs, table/plot emission, CLI behavior."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from tables import rows

from vlcontrast import alignment
from vlcontrast.cli import main as cli_main
from vlcontrast.features import ContrastReport
from vlcontrast.gamma import GammaFit
from vlcontrast.report import (
    AnalysisConfig,
    ConfigError,
    CorpusLoadError,
    CorpusSource,
    R1_UNDEFINED_MARK,
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
    assert (out / "run_metadata.json").is_file()
    meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
    assert meta["tool"] == "vlcontrast"
    assert meta["options"]["bin_width_ms"] == 10.0
    assert meta["options"]["ks_on_filtered_durations"] is True
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
        path.name for path in (out / "read-mimic").glob("plot_*.csv"))
    assert len(names) == 9
    for name in names:
        assert (tmp_path / "out" / "read-mimic" / name).read_bytes() == (
            out / "read-mimic" / name).read_bytes(), name


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


def test_plotdata_columns_and_normalization(mimic_run):
    _, result, out = mimic_run
    text = (out / "read-mimic" / "plot_a.csv").read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == "x_ms,hist_density_short,hist_density_long,pdf_short,pdf_long"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    xs = data[:, 0]
    assert np.all(np.diff(xs) > 0)
    # curve columns integrate to ~1 over the emitted grid
    for col in (3, 4):
        assert np.trapezoid(data[:, col], xs) == pytest.approx(1.0, abs=1e-3)
    # histogram columns are normalized step densities
    for col in (1, 2):
        assert data[:, col].max() > 0
    # fitted peaks sit ~50 ms apart, like the planted generator modes
    gap = xs[int(np.argmax(data[:, 4]))] - xs[int(np.argmax(data[:, 3]))]
    assert abs(gap - 50.0) <= 3.0


def test_plotdata_identical_sets_have_equal_curves():
    from vlcontrast.durations import DurationSampleSet, build_histogram, filter_outliers
    from vlcontrast.features import contrast_report
    from vlcontrast.report import emit_plotdata
    from vlcontrast.synthgen import sample_gamma

    draws = tuple(sample_gamma(6.0, 11.5, 300, seed=77))
    rep = contrast_report(
        filter_outliers(DurationSampleSet("a", "short", "c", draws)),
        filter_outliers(DurationSampleSet("a", "long", "c", draws)))
    hist = build_histogram(DurationSampleSet("a", "short", "c", draws), 10.0)
    text = emit_plotdata(rep, (hist, hist))
    for line in text.strip().splitlines()[1:]:
        _x, hs, hl, ps, pl = line.split(",")
        assert hs == hl
        assert ps == pl


def test_plotdata_rejects_degenerate_report():
    from vlcontrast.durations import DurationSampleSet, build_histogram
    from vlcontrast.features import contrast_report
    from vlcontrast.report import emit_plotdata
    from vlcontrast.synthgen import sample_gamma

    short = tuple(sample_gamma(6.0, 11.5, 50, seed=78))
    rep = contrast_report(
        DurationSampleSet("a", "short", "c", short),
        DurationSampleSet("a", "long", "c", (120.0,)))
    hist = build_histogram(DurationSampleSet("a", "short", "c", short), 10.0)
    with pytest.raises(ValueError):
        emit_plotdata(rep, (hist, hist))


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
    with pytest.raises(ConfigError):
        AnalysisConfig(corpora=(src,), output_dir="o", output_formats=("pdf",))


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
               (("x", "z"), ("x", "z")))
    for first, second in clashes:
        with pytest.raises(ConfigError) as err:
            AnalysisConfig(corpora=corpora, output_dir="o",
                           comparisons=(first, second))
        assert repr(first) in str(err.value) and repr(second) in str(err.value)
    assert len(AnalysisConfig(corpora=corpora, output_dir="o", comparisons=(
        ("x", "z"), ("z", "x"), ("x_vs_y", "z"))).comparisons) == 3

    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": c.corpus_id, "paths": list(c.paths),
                     "format": "ctm"} for c in corpora],
        "output_dir": str(tmp_path / "out"),
        "comparisons": [["x_vs_y", "z"], ["x", "y_vs_z"]]}), encoding="utf-8")
    assert cli_main(["compare", "--config", str(config_path)]) == 2
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
    assert cli_main(["analyze", "--config", str(config_path),
                     "--speaker-from", "prefix:"]) == 2
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


def test_cli_synth_then_analyze_and_compare(tmp_path, capsys):
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

    # compare without comparisons in the config is a usage error
    assert cli_main(["compare", "--config", str(config_path)]) == 2


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


def test_cli_compare_happy_path(tmp_path, capsys):
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
    assert cli_main(["compare", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "ks_corpA_vs_corpB" in out
    assert (tmp_path / "out" / "ks_corpA_vs_corpB.csv").is_file()
    # compare mode writes no per-corpus feature tables
    assert not (tmp_path / "out" / "corpA" / "features.csv").exists()


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


def test_cli_overrides_reflected_in_metadata(tmp_path):
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
    }), encoding="utf-8")
    assert cli_main(["analyze", "--config", str(config_path),
                     "--bin-width", "5", "--no-outlier-filter",
                     "--speaker-from", "prefix:-"]) == 0
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


def test_config_from_json_checks_value_types_and_names_the_key():
    corpus = {"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}
    bad_values = [
        ("output_formats", {"output_formats": "csv"}),
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
        corpora=[dict(corpus, paths="x.ctm")], bin_width_ms=5,
        output_formats=["csv"], phone_map="m.tsv", speaker_from="fixed:s1",
        comparisons=[["c", "c"]]))
    assert config.corpora[0].paths == ("x.ctm",)
    assert config.bin_width_ms == 5.0 and isinstance(config.bin_width_ms, float)
    assert config.output_formats == ("csv",)
    assert config.comparisons == (("c", "c"),)
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
    for bad in ("nan", "inf"):
        assert cli_main(["analyze", "--config", str(config_path),
                         "--bin-width", bad]) == 2
        assert "bin_width_ms" in capsys.readouterr().err
    assert not (tmp_path / "outx").exists()


def test_corpus_ids_must_be_one_plain_path_component(tmp_path, capsys):
    corpus = {"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}
    for bad in ("", ".", "..", "../escape", "a/b", "a\\b", "/abs"):
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
    """n_short, plot-histogram counts, dip n and KS n_a for vowel a of A."""
    features = json.loads((out / "A" / "features.json").read_text(
        encoding="utf-8"))
    n_short = features["reports"][0]["n_short"]
    rows = [line.split(",") for line in (out / "A" / "plot_a.csv").read_text(
        encoding="utf-8").strip().splitlines()[1:]]
    hist = [float(r[1]) * bin_width_ms for r in rows
            if float(r[0]) % bin_width_ms == bin_width_ms / 2]
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
