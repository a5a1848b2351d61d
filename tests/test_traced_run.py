"""A run under the benchmark's tracer (perfbench/tracer.py, used as it is):
the counters and spans it records of a small two-corpus run."""

import io
import sys
from collections import Counter
from pathlib import Path

from vlcontrast.report import AnalysisConfig, CorpusSource, run_analysis
from vlcontrast.synthgen import CellSpec, CorpusSpec, generate_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402

CELLS = (CellSpec("a", "short", 6.0, 11.5, 40), CellSpec("a", "long", 7.0, 17.5, 30),
         CellSpec("i", "short", 6.9, 11.0, 20))
# How each TextGrid file is written, in turn: as Praat saves non-ASCII text,
# with a UTF-16 byte-order mark, or as UTF-8.
ENCODINGS = (lambda text: b"\xff\xfe" + text.encode("utf-16-le"),
             lambda text: b"\xfe\xff" + text.encode("utf-16-be"),
             lambda text: text.encode("utf-8"))


def test_a_traced_run_reads_each_file_once_and_parses_it_in_one_span(
        tmp_path, monkeypatch):
    ctm = generate_corpus(CorpusSpec("read", 5, CELLS, utterance_size=6,
                                     emit_formats=("ctm",)))
    grids = generate_corpus(CorpusSpec("tg", 6, CELLS, utterance_size=12,
                                       emit_formats=("textgrid",)))
    (tmp_path / "read.ctm").write_text(ctm.files["read.ctm"], encoding="utf-8")
    (tmp_path / "tg").mkdir()
    for i, (name, text) in enumerate(sorted(grids.files.items())):
        (tmp_path / "tg" / name).write_bytes(ENCODINGS[i % len(ENCODINGS)](text))
    inputs = [tmp_path / "read.ctm"] + sorted((tmp_path / "tg").iterdir())
    assert len(inputs) == 1 + 8

    opened = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    run = tracer.Tracer("traced")
    run.install()
    monkeypatch.setattr(io, "open", counting_open)
    try:
        run.run_root(run_analysis, AnalysisConfig(
            corpora=(CorpusSource("read", (str(inputs[0]),), "ctm"),
                     CorpusSource("tg", (str(tmp_path / "tg"),), "textgrid")),
            output_dir=str(tmp_path / "out")))
    finally:
        monkeypatch.undo()
        run.uninstall()

    doc = run.document()
    counters = doc["counters"]
    assert counters["files_read"] == len(inputs)
    assert counters["bytes_read"] == sum(path.stat().st_size for path in inputs)
    # every synthetic interval is labeled: a CTM line or a TextGrid interval
    assert counters["intervals"] == (
        sum(not line.startswith("#") for line in ctm.files["read.ctm"].splitlines())
        + sum(text.count("intervals [") for text in grids.files.values()))
    assert counters["tokens"] == len(ctm.tokens) + len(grids.tokens) == 180
    spans = Counter(span["name"] for span in doc["spans"])
    assert spans["report.parse_textgrid"] == len(inputs) - 1
    assert spans["report.parse_ctm"] == 1
    assert {path: opened[str(path)] for path in inputs} == dict.fromkeys(inputs, 1)
    assert not doc["broken"]
