"""Benchmark workloads: seeded synthetic corpora plus the analysis config.

Every workload is built from the acceptance-suite cell table, scaled and
reshaped per workload, generated with `vlcontrast.synthgen` and written to
disk.  The program under test only ever sees the written alignment files
and an `AnalysisConfig` JSON document.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from vlcontrast.synthgen import CellSpec, CorpusSpec, generate_corpus

# Copy of tests/test_acceptance.py::ACCEPTANCE_CELLS (a 20,425-token
# read-speech corpus), kept here so the benchmark inputs do not move when
# the test suite changes.
ACCEPTANCE_CELLS = (
    CellSpec("a", "short", 6.0, 11.5, 4673),
    CellSpec("a", "long", 125 / 17.5, 17.5, 880),
    CellSpec("ɔ", "short", 4.5625, 16.0, 881),
    CellSpec("ɔ", "long", 102 / 21.0, 21.0, 710),
    CellSpec("i", "short", 76 / 11.0, 11.0, 4298),
    CellSpec("i", "long", 131 / 17.0, 17.0, 266),
    CellSpec("e", "short", 79 / 11.0, 11.0, 454),
    CellSpec("e", "long", 120 / 15.0, 15.0, 356),
    CellSpec("ɛ", "short", 81 / 11.0, 11.0, 2528),
    CellSpec("ɛ", "long", 131 / 15.0, 15.0, 1114),
    CellSpec("o", "short", 68 / 10.0, 10.0, 120),
    CellSpec("o", "long", 108 / 16.0, 16.0, 138),
    CellSpec("u", "short", 67 / 10.0, 10.0, 3786),
    CellSpec("u", "long", 110 / 17.0, 17.0, 222),
)

# Smallest cell drawn; keeps every (vowel, length) cell fittable when a
# workload is shrunk for the self-test.
MIN_CELL_COUNT = 5


def _cells(count_factor: float, scale_factor: float = 1.0,
           long_shape_factor: float = 1.0) -> tuple[CellSpec, ...]:
    return tuple(
        CellSpec(c.vowel_class, c.length_class,
                 c.shape * (long_shape_factor if c.length_class == "long" else 1.0),
                 c.scale * scale_factor,
                 max(MIN_CELL_COUNT, round(c.count * count_factor)))
        for c in ACCEPTANCE_CELLS)


@dataclass(frozen=True)
class Corpus:
    spec: CorpusSpec
    fmt: str  # "ctm" | "textgrid"


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: tuple[Corpus, ...]
    comparisons: tuple[tuple[str, str], ...] = ()


def _ctm_large(seed: int, scale: float) -> Workload:
    read = CorpusSpec("read", seed * 1000 + 1, _cells(10 * scale),
                      utterance_size=12, emit_formats=("ctm",))
    # Spontaneous speech: faster (shorter scales) and less distinct long
    # vowels (smaller long shapes).
    spont = CorpusSpec("spont", seed * 1000 + 2,
                       _cells(2 * scale, scale_factor=0.8, long_shape_factor=0.85),
                       utterance_size=8, emit_formats=("ctm",))
    return Workload("ctm_large", (Corpus(read, "ctm"), Corpus(spont, "ctm")),
                    comparisons=(("read", "spont"),))


def _read_mixed(seed: int, scale: float) -> Workload:
    # The ctm_large read corpus plus the acceptance cells as one TextGrid
    # file per utterance, with no comparisons.  TextGrid parsing follows the
    # shared host's speed swings more than CTM parsing does, so it is kept
    # to a small share of the run.
    read = CorpusSpec("read", seed * 1000 + 1, _cells(10 * scale),
                      utterance_size=12, emit_formats=("ctm",))
    read_tg = CorpusSpec("read_tg", seed * 1000 + 3, _cells(scale),
                         utterance_size=12, emit_formats=("textgrid",))
    return Workload("read_mixed", (Corpus(read, "ctm"), Corpus(read_tg, "textgrid")))


BUILDERS = {
    "ctm_large": _ctm_large,
    "read_mixed": _read_mixed,
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    return BUILDERS[name](seed, scale)


@dataclass(frozen=True)
class SetupResult:
    config_path: Path
    output_dir: Path
    truth_tokens: dict[str, int]        # corpus id -> generated vowel tokens
    truth_cells: dict[str, dict[tuple[str, str], int]]
    seconds: float                      # generate + write, whole workload
    generate_seconds: float             # generate_corpus calls only


def setup(workload: Workload, work_dir: Path) -> SetupResult:
    """Generate every corpus, write its files and the analysis config."""
    start = time.perf_counter()
    if work_dir.exists():
        shutil.rmtree(work_dir)
    input_dir = work_dir / "input"
    output_dir = work_dir / "out"
    sources = []
    truth_tokens: dict[str, int] = {}
    truth_cells: dict[str, dict[tuple[str, str], int]] = {}
    generate_seconds = 0.0
    for corpus in workload.corpora:
        t0 = time.perf_counter()
        synth = generate_corpus(corpus.spec)
        generate_seconds += time.perf_counter() - t0
        cid = corpus.spec.corpus_id
        corpus_dir = input_dir / cid
        corpus_dir.mkdir(parents=True)
        for file_name, text in synth.files.items():
            (corpus_dir / file_name).write_text(text, encoding="utf-8")
        if corpus.fmt == "ctm":
            paths = [str(corpus_dir / f"{cid}.ctm")]
        else:
            paths = [str(corpus_dir)]
        sources.append({"corpus_id": cid, "paths": paths, "format": corpus.fmt})
        truth_tokens[cid] = len(synth.tokens)
        truth_cells[cid] = {(c.vowel_class, c.length_class): c.count
                            for c in corpus.spec.cells}
    config = {
        "corpora": sources,
        "output_dir": str(output_dir),
        "comparisons": [list(pair) for pair in workload.comparisons],
    }
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, ensure_ascii=False),
                           encoding="utf-8")
    return SetupResult(config_path, output_dir, truth_tokens, truth_cells,
                       time.perf_counter() - start, generate_seconds)
